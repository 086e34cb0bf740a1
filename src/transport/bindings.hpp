// The two transport bindings from the paper, as BindingPolicy models.
//
//   * TcpClientBinding / TcpServerBinding — "just dump the serialization
//     directly to a TCP connection" (with a small length-prefixed frame so
//     the receiver can delimit messages).
//   * HttpClientBinding / HttpServerBinding — "create a HTTP request
//     message with the serialized SOAP message as payload".
//
// Client and server endpoints are distinct types; each still models the
// full four-expression BindingPolicy concept (the paper defines one concept
// for both roles), throwing on the operations that make no sense for its
// role.
#pragma once

#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "bxsa/dict.hpp"
#include "soap/binding.hpp"
#include "soap/encoding.hpp"
#include "transport/framing.hpp"
#include "transport/session.hpp"
#include "transport/http.hpp"
#include "transport/socket.hpp"
#include "transport/stream.hpp"

namespace bxsoap::transport {

/// Client endpoint of SOAP-over-TCP. Keeps one persistent connection
/// (connect on first use).
///
/// BXTP v3 (FORMAT.md §"BXTP v3"): with enable_v3(), each fresh connection
/// is probed with a Hello. A v3 server answers Accept and the channel
/// speaks v3 frames (with per-channel symbol dictionaries when both offers
/// admit them); anything else — including the connection cut a pre-v3
/// server inflicts on the unknown version — downgrades this binding
/// PERMANENTLY to plain v1 framing, so one failed probe is the total cost
/// against an old deployment.
///
/// Compression rides the same handshake: enable_compression() adds a
/// transform offer to the Hello, and the Accept's intersection decides
/// what this channel may compress (requests, streamed chunks) and must
/// accept (responses). A server that never heard of compression answers
/// transforms=0 and the channel stays byte-identical to plain v3.
///
/// Stream authentication rides it too: enable_stream_auth() adds an
/// authalgs:: offer to the Hello, and when the Accept's intersection is
/// non-empty every chunked stream on the channel — requests out,
/// responses in — carries a verified Auth trailer (FORMAT.md §"Auth
/// trailer"). An empty intersection (including any pre-auth server) is
/// the sticky downgrade: the channel keeps working, unsigned.
class TcpClientBinding {
 public:
  explicit TcpClientBinding(std::uint16_t port) : port_(port) {}

  void send_request(soap::WireMessage m) {
    ensure_connected();
    if (!session_->negotiated()) {
      // Header and payload leave in one gathered write, no copy.
      write_frame(stream_, m);
    } else {
      ByteWriter out(pool().acquire(m.payload.size() + 64));
      session_->frame_message(out, m.payload, m.content_type);
      stream_.write_all(out.bytes());
      pool().release(out.take());
    }
    // The payload's storage is done with; recycle it for the next encode.
    pool().release(std::move(m.payload));
  }
  soap::WireMessage receive_response() {
    if (!stream_.valid()) throw TransportError("not connected");
    // A negotiated channel still accepts v1 frames: the server's shed
    // fault (and other pre-encoded constants) are version 1 on purpose.
    SessionEvent ev = next_event(stream_, *session_);
    if (ev.kind != SessionEvent::Kind::kMessage) {
      throw TransportError(
          "chunked frame on an endpoint without a stream handler");
    }
    return std::move(ev.message);
  }
  soap::WireMessage receive_request() {
    throw TransportError("receive_request on a client binding");
  }
  void send_response(soap::WireMessage) {
    throw TransportError("send_response on a client binding");
  }

  /// One full-duplex chunked exchange (BXTP v2). `tx(ResponseWriter&)`
  /// produces the request on a dedicated thread while `rx(StreamRequest&)`
  /// consumes the response on the calling thread. Full duplex is not an
  /// optimization here but a correctness requirement: against an echoing
  /// peer, response chunks start arriving long before the request ends,
  /// and if nobody read them both TCP windows would fill and deadlock.
  ///
  /// On an auth-negotiated channel both directions are signed: the request
  /// encoder signs plaintext chunks as they flush and the session verifies
  /// the server's trailer before End can surface.
  ///
  /// A server that faulted before its first response chunk answers with a
  /// v1 frame; `rx` then sees the fault envelope as a single-data-chunk
  /// stream and can decode it normally.
  template <typename Tx, typename Rx>
  void stream_exchange(std::string_view content_type,
                       std::size_t chunk_bytes, Tx&& tx, Rx&& rx) {
    ensure_connected();
    // The producer thread owns the writer (and the per-stream authenticator
    // inside its encoder); this thread owns the session's inbound half.
    ChunkedFrameWriter<TcpStream> sink(stream_, content_type,
                                       session_->chunk_encoder());
    ResponseWriter request(sink, pool(), chunk_bytes);

    std::exception_ptr tx_err;
    std::thread producer([&] {
      try {
        tx(request);
        if (!request.finished()) request.finish();
      } catch (...) {
        tx_err = std::current_exception();
        // Unblock the response reader: the exchange cannot complete.
        stream_.shutdown_both();
      }
    });
    try {
      SessionEvent first = next_event(stream_, *session_);
      if (first.kind == SessionEvent::Kind::kStream) {
        struct SessionSource final : StreamSource {
          TcpStream& stream;
          Session& session;
          SessionSource(TcpStream& s, Session& ss) : stream(s), session(ss) {}
          std::optional<StreamChunk> next() override {
            SessionEvent ev = next_event(stream, session);
            if (ev.kind == SessionEvent::Kind::kEnd) return std::nullopt;
            return std::move(ev.chunk);
          }
        } source(stream_, *session_);
        StreamRequest response(std::move(first.message.content_type),
                               source);
        rx(response);
        response.drain(pool());
      } else if (first.kind == SessionEvent::Kind::kMessage) {
        // The in-band fault path: present the v1 envelope as a one-chunk
        // stream so the consumer decodes it like any other response.
        struct OneShot final : StreamSource {
          std::vector<std::uint8_t> payload;
          bool given = false;
          std::optional<StreamChunk> next() override {
            if (given) return std::nullopt;
            given = true;
            return StreamChunk{ChunkKind::kData, std::move(payload)};
          }
        } source;
        source.payload = std::move(first.message.payload);
        StreamRequest response(std::move(first.message.content_type),
                               source);
        rx(response);
        response.drain(pool());
      } else {
        throw TransportError("unexpected handshake frame in a response");
      }
    } catch (...) {
      // The wire is in an unknown state; kill the connection so the next
      // call starts fresh, and never leak the producer thread.
      stream_.shutdown_both();
      producer.join();
      close();
      throw;
    }
    producer.join();
    if (tx_err) {
      close();
      std::rethrow_exception(tx_err);
    }
  }

  void close() {
    stream_.close();
    session_.reset();
  }

  /// Drop the connection; the next send reconnects. The retry layer
  /// (soap::ReliableCaller) calls this between attempts so a half-written
  /// frame on a dead connection never bleeds into the next one.
  void reset() { close(); }

  /// Probe every fresh connection for BXTP v3, offering `offer` as this
  /// side's dictionary-table limits (defaults: bxsa::DictLimits). A failed
  /// probe downgrades the binding to v1 permanently.
  void enable_v3(bxsa::DictLimits offer = {}) noexcept {
    cfg_.v3 = true;
    cfg_.dict = offer;
  }

  /// Offer `offer` (transport/compress.hpp transforms:: bitmask) in the v3
  /// Hello; the Accept's intersection becomes this channel's transform
  /// set. Requires enable_v3() — compression is negotiated by the same
  /// handshake — and applies to connections dialed after the call.
  void enable_compression(std::uint8_t offer = transforms::kAll,
                          const CompressPolicy& policy = {}) noexcept {
    cfg_.transforms = offer & transforms::kAll;
    cfg_.compress_policy = policy;
  }

  /// The CURRENT connection's negotiated transform set (0 = plain).
  std::uint8_t negotiated_transforms() const noexcept {
    return session_ ? session_->negotiated_transforms() : std::uint8_t{0};
  }

  /// Offer `auth.algos` (transport/auth.hpp authalgs:: bitmask) in the v3
  /// Hello; the lowest bit of the Accept's intersection becomes this
  /// channel's stream-auth algorithm, signing every chunked exchange in
  /// both directions. Implies enable_v3() — authentication is negotiated
  /// by the same handshake — and applies to connections dialed after the
  /// call. A server that answers auth=0 leaves the channel unsigned (the
  /// sticky downgrade; see DESIGN.md §15 for why that is in-threat-model).
  void enable_stream_auth(StreamAuth auth) {
    if (!auth) return;
    cfg_.auth = std::move(auth);
    cfg_.v3 = true;
  }

  /// The CURRENT connection's negotiated auth algorithm (one authalgs::
  /// bit, or 0 when streams are unsigned).
  std::uint8_t negotiated_auth() const noexcept {
    return session_ ? session_->negotiated_auth() : std::uint8_t{0};
  }

  /// Metric sinks for this channel's stream-auth work (both directions).
  void set_auth_stats(const AuthStats& stats) noexcept {
    cfg_.auth_stats = stats;
  }

  /// Metric sinks for this channel's compression work (both directions).
  void set_compress_stats(const CompressStats& stats) noexcept {
    cfg_.compress_stats = stats;
  }

  /// Whether the CURRENT connection negotiated v3 (false before the first
  /// exchange, after a downgrade, and while disconnected).
  bool v3_active() const noexcept {
    return session_ && session_->negotiated();
  }

  /// The effective dictionary limits of the current connection (zeros
  /// when no dictionary was negotiated).
  bxsa::DictLimits negotiated_dict() const noexcept {
    return session_ ? session_->negotiated_dict() : bxsa::DictLimits{0, 0};
  }

  /// Metric sinks for this channel's dictionary work (both directions).
  void set_dict_stats(const bxsa::DictStats& stats) noexcept {
    cfg_.dict_stats = stats;
  }

  /// Ceilings applied to incoming frames (see transport/framing.hpp).
  void set_frame_limits(FrameLimits limits) noexcept { cfg_.limits = limits; }

  /// Recycle receive buffers (and sent payloads) through `pool`; defaults
  /// to the process-wide pool.
  void set_buffer_pool(BufferPool& pool) noexcept { cfg_.pool = &pool; }

  /// Tally this connection's bytes/syscalls into `io` (obs/metrics.hpp).
  void set_io_stats(obs::IoStats* io) noexcept {
    io_ = io;
    stream_.set_io_stats(io);
  }

 private:
  BufferPool& pool() const noexcept { return *cfg_.pool; }

  /// Connect, and build the connection's session from this side's
  /// offers — probing for v3 unless it is off or a probe already failed.
  void dial() {
    Session::Config cfg = cfg_;
    cfg.v3 = cfg_.v3 && !v3_failed_;
    session_.emplace(Session::Role::kClient, std::move(cfg));
    stream_ = TcpStream::connect(port_);
    stream_.set_io_stats(io_);
    stream_.set_no_delay(true);
  }

  void ensure_connected() {
    if (stream_.valid()) return;
    dial();
    if (!session_->awaiting_handshake()) return;
    // Probe: Hello now, Accept before the first exchange. A v3 server
    // costs one extra round trip per CONNECTION (amortized across every
    // exchange on it); a pre-v3 server cuts the connection, which surfaces
    // as TransportError — downgrade for good and redial plain.
    try {
      stream_.write_all(session_->take_output());
      next_event(stream_, *session_);
      // A server that parsed the Hello but chose v1 will never choose
      // otherwise, so stop probing.
      if (!session_->negotiated()) v3_failed_ = true;
    } catch (const TransportError&) {
      v3_failed_ = true;
      close();
      dial();
    }
  }

  std::uint16_t port_;
  TcpStream stream_;
  obs::IoStats* io_ = nullptr;
  /// This side's limits, buffers, offers and metric sinks; each dial
  /// builds the connection's session from them.
  Session::Config cfg_{.pool = &BufferPool::global(),
                       .dict = bxsa::DictLimits{}};
  bool v3_failed_ = false;  // sticky: never probe this binding again
  /// The CURRENT connection's session (empty while disconnected).
  std::optional<Session> session_;
};

/// Server endpoint of SOAP-over-TCP: accepts one connection at a time and
/// serves any number of exchanges on it; when the peer disconnects, the
/// next receive accepts the next client.
///
/// Thread-safety contract: one thread drives receive/send; a second thread
/// may call shutdown() to unblock it. The current connection is held via
/// shared_ptr under a mutex so shutdown() never races the serving thread's
/// close-and-reaccept (no touching a closed/reused fd).
class TcpServerBinding {
 public:
  TcpServerBinding() : state_(std::make_shared<State>()) {}

  std::uint16_t port() const noexcept { return state_->listener.port(); }

  soap::WireMessage receive_request() {
    for (;;) {
      std::shared_ptr<TcpStream> conn = state_->current_conn();
      if (conn == nullptr) {
        auto accepted = std::make_shared<TcpStream>(state_->listener.accept());
        accepted->set_io_stats(state_->io);
        accepted->set_no_delay(true);
        state_->set_conn(accepted);
        conn = std::move(accepted);
      }
      try {
        return read_frame(*conn, FrameLimits{}, state_->pool);
      } catch (const TransportError&) {
        // Peer hung up between exchanges; wait for the next client.
        state_->drop_conn(conn);
      }
    }
  }
  void send_response(soap::WireMessage m) {
    std::shared_ptr<TcpStream> conn = state_->current_conn();
    if (conn == nullptr) throw TransportError("no client connected");
    write_frame(*conn, m);
    state_->pool->release(std::move(m.payload));
  }
  void send_request(soap::WireMessage) {
    throw TransportError("send_request on a server binding");
  }
  soap::WireMessage receive_response() {
    throw TransportError("receive_response on a server binding");
  }

  /// Unblock a pending accept or read (server shutdown). Safe to call from
  /// another thread.
  void shutdown() {
    state_->listener.shutdown();
    if (auto conn = state_->current_conn()) conn->shutdown_both();
  }

  /// Tally every accepted connection's bytes/syscalls into `io`. Applies
  /// to connections accepted after the call.
  void set_io_stats(obs::IoStats* io) noexcept { state_->io = io; }

  /// Recycle receive buffers (and sent payloads) through `pool`.
  void set_buffer_pool(BufferPool& pool) noexcept { state_->pool = &pool; }

 private:
  struct State {
    TcpListener listener{0};
    std::mutex mu;
    std::shared_ptr<TcpStream> conn;
    obs::IoStats* io = nullptr;
    BufferPool* pool = &BufferPool::global();

    std::shared_ptr<TcpStream> current_conn() {
      std::lock_guard lock(mu);
      return conn;
    }
    void set_conn(std::shared_ptr<TcpStream> c) {
      std::lock_guard lock(mu);
      conn = std::move(c);
    }
    void drop_conn(const std::shared_ptr<TcpStream>& c) {
      std::lock_guard lock(mu);
      if (conn == c) conn.reset();
    }
  };

  std::shared_ptr<State> state_;  // shared so the binding is movable
};

/// Client endpoint of SOAP-over-HTTP: each exchange is one POST.
class HttpClientBinding {
 public:
  explicit HttpClientBinding(std::uint16_t port, std::string target = "/soap")
      : client_(port), target_(std::move(target)) {}

  void send_request(soap::WireMessage m) {
    pending_ = client_.post(target_, std::move(m.content_type),
                            std::move(m.payload));
  }
  soap::WireMessage receive_response() {
    if (!pending_) throw TransportError("no request in flight");
    HttpResponse resp = std::move(*pending_);
    pending_.reset();
    if (!resp.ok() && resp.status != 500) {
      // 500 carries a SOAP fault body; other statuses are transport errors.
      throw TransportError("HTTP status " + std::to_string(resp.status));
    }
    soap::WireMessage m;
    m.content_type = resp.headers.get("Content-Type").value_or("");
    m.payload = std::move(resp.body);
    return m;
  }
  soap::WireMessage receive_request() {
    throw TransportError("receive_request on a client binding");
  }
  void send_response(soap::WireMessage) {
    throw TransportError("send_response on a client binding");
  }

  /// Forget any in-flight exchange and drop the persistent connection (if
  /// keep-alive is on) so the next attempt starts clean.
  void reset() {
    pending_.reset();
    client_.reset();
  }

  /// Reuse one connection across POSTs (HTTP keep-alive). Falls back to
  /// per-POST connections whenever the server answers Connection: close.
  void set_keep_alive(bool on) noexcept { client_.set_keep_alive(on); }

  /// Connections the underlying client has dialed (keep-alive telemetry).
  std::size_t connections_opened() const noexcept {
    return client_.connections_opened();
  }

  /// Tally each POST connection's bytes/syscalls into `io`.
  void set_io_stats(obs::IoStats* io) noexcept { client_.set_io_stats(io); }

 private:
  HttpClient client_;
  std::string target_;
  std::optional<HttpResponse> pending_;
};

/// Server endpoint of SOAP-over-HTTP: accept -> parse POST -> respond ->
/// close, one exchange per connection (Connection: close semantics).
/// Same threading contract as TcpServerBinding.
class HttpServerBinding {
 public:
  HttpServerBinding() : state_(std::make_shared<State>()) {}

  std::uint16_t port() const noexcept { return state_->listener.port(); }

  soap::WireMessage receive_request() {
    auto conn = std::make_shared<TcpStream>(state_->listener.accept());
    conn->set_io_stats(state_->io);
    conn->set_no_delay(true);
    state_->set_conn(conn);
    HttpRequest req = read_http_request(*conn);
    if (req.method != "POST") {
      HttpResponse resp;
      resp.status = 405;
      resp.reason = "Method Not Allowed";
      write_http_response(*conn, resp);
      state_->drop_conn(conn);
      throw TransportError("non-POST request on SOAP endpoint");
    }
    soap::WireMessage m;
    m.content_type = req.headers.get("Content-Type").value_or("");
    m.payload = std::move(req.body);
    return m;
  }
  void send_response(soap::WireMessage m) {
    std::shared_ptr<TcpStream> conn = state_->current_conn();
    if (conn == nullptr) throw TransportError("no request in flight");
    HttpResponse resp;
    resp.headers.set("Content-Type", std::move(m.content_type));
    resp.body = std::move(m.payload);
    write_http_response(*conn, resp);
    state_->drop_conn(conn);
  }
  void send_request(soap::WireMessage) {
    throw TransportError("send_request on a server binding");
  }
  soap::WireMessage receive_response() {
    throw TransportError("receive_response on a server binding");
  }

  void shutdown() {
    state_->listener.shutdown();
    if (auto conn = state_->current_conn()) conn->shutdown_both();
  }

  /// Tally every accepted connection's bytes/syscalls into `io`.
  void set_io_stats(obs::IoStats* io) noexcept { state_->io = io; }

 private:
  struct State {
    TcpListener listener{0};
    std::mutex mu;
    std::shared_ptr<TcpStream> conn;
    obs::IoStats* io = nullptr;

    std::shared_ptr<TcpStream> current_conn() {
      std::lock_guard lock(mu);
      return conn;
    }
    void set_conn(std::shared_ptr<TcpStream> c) {
      std::lock_guard lock(mu);
      conn = std::move(c);
    }
    void drop_conn(const std::shared_ptr<TcpStream>& c) {
      std::lock_guard lock(mu);
      if (conn == c) conn.reset();
    }
  };

  std::shared_ptr<State> state_;
};

static_assert(soap::BindingPolicy<TcpClientBinding>);
static_assert(soap::BindingPolicy<TcpServerBinding>);
static_assert(soap::BindingPolicy<HttpClientBinding>);
static_assert(soap::BindingPolicy<HttpServerBinding>);

}  // namespace bxsoap::transport
