// One BXTP connection, sans I/O: the repo's only parser of BXTP bytes and
// the one home of the v3 connection state (docs/FORMAT.md).
//
// A Session holds, for one connection in one role:
//   * the Hello/Accept handshake — one rule set for both servers and the
//     client, including "a Hello is legal only as the connection's first
//     frame" and the sticky v1 answer to a peer that cannot speak v3;
//   * the negotiated dictionary pair, transform set and stream-auth
//     algorithm, plus the FrameLimits every peer-declared length is
//     checked against BEFORE the buffer it sizes exists.
//
// It never touches a socket. Callers move bytes:
//   * a reactor feed()s whatever its read returned and takes each event
//     the session surfaces (one copy, read buffer -> pooled body);
//   * a blocking reader loops on window()/commit(): it reads exactly the
//     bytes the session asks for, straight into the session's buffer (the
//     pooled payload itself for bodies), so it never consumes a byte past
//     the frame it returns. next_event() below is that loop.
//
// Thread ownership. The two halves share no mutable state except the
// negotiated values, which the handshake writes once before any message of
// the connection is surfaced (every later reader is ordered after it by the
// hand-off that carried that message or stream):
//   * INBOUND (feed/window/commit/poll/take_output, and the receive
//     dictionary and authenticator behind them): only the reading thread —
//     the connection's owning reactor, or the blocking reader.
//   * OUTBOUND frame_message(): the thread that serializes responses into
//     wire order. It owns the send dictionary, so calls must not overlap
//     (the event server calls it only at its in-order release point under
//     the connection mutex; blocking endpoints call it from their one
//     writing thread).
//   * chunk_encoder(): any thread; the returned ChunkEncoder (and the
//     per-stream transmit authenticator inside it) belongs to the thread
//     that produces that stream.
// No lock is taken on any of these paths.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bxsa/dict.hpp"
#include "common/buffer_pool.hpp"
#include "soap/binding.hpp"
#include "transport/auth.hpp"
#include "transport/compress.hpp"
#include "transport/framing.hpp"
#include "transport/stream.hpp"

namespace bxsoap::transport {

/// The per-direction compression setup of one outbound chunk stream: the
/// negotiated transform set plus the adaptive policy and the pool
/// compressed bodies are built in.
struct ChunkCompression {
  std::uint8_t transforms = 0;  ///< 0 = never compress
  CompressPolicy policy{};
  BufferPool* pool = nullptr;  ///< null = BufferPool::global()
  CompressStats stats{};
};

/// The outbound half of one chunked (v2) message: turns the logical chunk
/// sequence a producer writes into wire chunks. Data chunks are offered to
/// the adaptive compressor; every logical chunk is absorbed into the
/// stream's authenticator BEFORE compression, so the tag covers what the
/// producer said, not how the wire packed it; finish() yields the Auth
/// trailer (signed streams) and the End chunk with the logical byte total.
/// Where the wire chunks go is the caller's business (a socket for
/// ChunkedFrameWriter, the event server's bounded queue).
class ChunkEncoder {
 public:
  ChunkEncoder() = default;
  /// `auth` (null = unsigned) must be fresh; it is init()'d here and owned
  /// by the encoder from now on. `algo` is the authalgs:: bit it speaks.
  explicit ChunkEncoder(ChunkCompression compression,
                        std::unique_ptr<StreamAuthenticator> auth = nullptr,
                        std::uint8_t algo = 0, AuthStats stats = {});

  /// One logical kData/kPatch chunk in, the chunk to put on the wire out
  /// (a kData chunk may come back as kCompressedData; its plain buffer is
  /// then recycled into pool()). End and Auth chunks are emitted only by
  /// finish().
  StreamChunk encode(StreamChunk logical);

  /// The stream's closing chunks in wire order: the Auth trailer on a
  /// signed stream, then End carrying the logical data-byte total.
  std::vector<StreamChunk> finish();

  /// Where encoded and spent chunk buffers come from and go back to.
  BufferPool& pool() const noexcept {
    return compression_.pool != nullptr ? *compression_.pool
                                        : BufferPool::global();
  }

 private:
  ChunkCompression compression_{};
  std::unique_ptr<StreamAuthenticator> auth_;
  std::uint8_t algo_ = 0;
  AuthStats auth_stats_{};
  std::uint64_t total_ = 0;
};

/// What a Session surfaces from inbound bytes.
struct SessionEvent {
  enum class Kind : std::uint8_t {
    /// The handshake completed. Server: a Hello was answered and the
    /// Accept waits in take_output(). Client: the Accept was read.
    kHandshake,
    /// One whole message in `message`: canonical bytes, already
    /// decompressed and dictionary-decoded.
    kMessage,
    /// A chunked (v2) message began; `message.content_type` is its type.
    /// kChunk events follow, then kEnd.
    kStream,
    /// One logical chunk of the current stream in `chunk` (kData or
    /// kPatch): decompressed and absorbed into the authenticator.
    kChunk,
    /// The current stream ended with its byte total verified and, on a
    /// signed connection, its Auth trailer verified.
    kEnd,
  };
  Kind kind = Kind::kMessage;
  soap::WireMessage message;
  StreamChunk chunk;
};

class Session {
 public:
  enum class Role : std::uint8_t { kClient, kServer };

  /// This side's limits, buffers, offers and metric sinks.
  struct Config {
    FrameLimits limits{};
    BufferPool* pool = nullptr;  ///< null = BufferPool::global()
    /// Client: open with a Hello carrying the offers below. Server: accept
    /// version-3 frames and answer Hellos; when false a v3 frame is
    /// rejected as an unknown version (the cut that downgrades a probing
    /// client).
    bool v3 = false;
    /// Dictionary-table offer; the effective table is the element-wise
    /// minimum of both offers ({0, 0} = never dictionary-code).
    bxsa::DictLimits dict{0, 0};
    std::uint8_t transforms = 0;  ///< transforms:: offer
    CompressPolicy compress_policy{};
    StreamAuth auth{};  ///< authalgs:: offer and authenticator factory
    bxsa::DictStats dict_stats{};
    CompressStats compress_stats{};
    AuthStats auth_stats{};
  };

  /// A client session with Config::v3 starts with its Hello in
  /// take_output() and expects the Accept as the first inbound frame.
  Session(Role role, Config config);

  // ---- inbound half: the reading thread only ------------------------------

  /// Consume bytes from the front of `bytes` until one event is ready or
  /// the input runs out; returns the count consumed. Take the event with
  /// poll() before feeding again. Malformed, over-limit or unauthenticated
  /// input throws TransportError; the connection cannot be resynchronized
  /// after that and must be cut.
  std::size_t feed(std::span<const std::uint8_t> bytes);

  /// The exact bytes the parser needs next (never past the current frame);
  /// fill them and commit(). For a payload or chunk body this is the pooled
  /// buffer the event will carry, so a blocking reader receives into it
  /// directly. Only valid while no event is pending.
  std::span<std::uint8_t> window();
  void commit(std::size_t n);

  /// The ready event, if any; consumes it.
  std::optional<SessionEvent> poll();

  /// Bytes the session needs sent: a client's Hello, a server's Accept.
  std::vector<std::uint8_t> take_output() { return std::move(output_); }

  /// Client: a Hello went out and its Accept has not been read yet.
  bool awaiting_handshake() const noexcept { return awaiting_accept_; }

  // ---- negotiated state: written once by the handshake ---------------------

  /// Whether the handshake settled on v3 (false before it, and after a v1
  /// answer).
  bool negotiated() const noexcept { return negotiated_; }
  bxsa::DictLimits negotiated_dict() const noexcept { return dict_; }
  std::uint8_t negotiated_transforms() const noexcept { return transforms_; }
  std::uint8_t negotiated_auth() const noexcept { return auth_algo_; }

  // ---- outbound half --------------------------------------------------------

  /// Append `canonical` as one complete frame: v1 on an un-negotiated
  /// connection; on a negotiated one a v3 Message frame, run through the
  /// send dictionary (BXSA payloads on a channel with a table) and offered
  /// to the adaptive compressor (channels with a transform set).
  void frame_message(ByteWriter& out, std::span<const std::uint8_t> canonical,
                     std::string_view content_type);

  /// A fresh encoder for one outbound chunk stream, signing with a new
  /// authenticator when the handshake negotiated an algorithm.
  ChunkEncoder chunk_encoder() const;

 private:
  enum class State : std::uint8_t {
    kFixed,       // magic + version
    kV3Kind,      // v3 frame kind
    kHello,       // server: Hello body
    kAccept,      // client: Accept body
    kV3Flags,     // v3 Message flags
    kCtLen,       // content-type length, one VLS byte at a time
    kCtBytes,     // content-type bytes
    kLen,         // v1/v3: payload length, u64 BE
    kPayload,     // v1/v3: payload bytes (pooled)
    kChunkHdr,    // v2: kind u8 + length u64 BE
    kChunkBody,   // v2: data/patch/compressed body (pooled)
    kChunkSmall,  // v2: Auth trailer or End body (scratch)
  };

  BufferPool& pool() const noexcept {
    return cfg_.pool != nullptr ? *cfg_.pool : BufferPool::global();
  }
  void enter(State s, std::size_t need) noexcept {
    state_ = s;
    need_ = need;
    have_ = 0;
  }
  void complete();
  void on_fixed();
  void on_v3_kind();
  void on_hello();
  void on_accept();
  void begin_content_type();
  void on_ct_len();
  void after_content_type();
  void on_len();
  void on_payload();
  void on_chunk_hdr();
  void on_chunk_body();
  void on_chunk_small();
  /// Take up the negotiated v3 state (both roles).
  void adopt(bxsa::DictLimits dict, std::uint8_t transforms,
             std::uint8_t auth);
  void absorb(ChunkKind kind, std::span<const std::uint8_t> body);
  void verify_trailer();

  Role role_;
  Config cfg_;

  // Inbound parser.
  State state_ = State::kFixed;
  std::size_t need_ = 5;
  std::size_t have_ = 0;
  std::uint8_t scratch_[1 + kMaxAuthTagBytes]{};
  std::uint8_t version_ = kFrameVersion;
  std::uint8_t flags_ = 0;
  bool fresh_ = true;         // no frame has started on this connection
  bool first_frame_ = true;   // the frame being parsed is the first one
  bool awaiting_accept_ = false;  // client: Hello sent, Accept not yet read
  std::uint64_t ct_len_ = 0;
  std::size_t vls_shift_ = 0;
  std::string ct_;
  std::vector<std::uint8_t> body_;
  ChunkKind chunk_kind_ = ChunkKind::kData;
  std::uint64_t stream_total_ = 0;
  bool auth_verified_ = false;
  std::optional<SessionEvent> event_;
  std::vector<std::uint8_t> output_;
  std::optional<bxsa::DictDecoder> dec_dict_;
  std::unique_ptr<StreamAuthenticator> rx_auth_;

  // Negotiated (written once by the handshake).
  bool negotiated_ = false;
  bxsa::DictLimits dict_{0, 0};
  std::uint8_t transforms_ = 0;
  std::uint8_t auth_algo_ = 0;

  // Outbound.
  std::optional<bxsa::DictEncoder> enc_dict_;
};

/// Blocking driver: read exactly the bytes `session` asks for until it
/// surfaces an event. Never reads past the frame (or chunk) it returns.
template <FrameStream S>
SessionEvent next_event(S& stream, Session& session) {
  for (;;) {
    if (std::optional<SessionEvent> ev = session.poll()) return std::move(*ev);
    const std::span<std::uint8_t> want = session.window();
    stream.read_exact(want.data(), want.size());
    session.commit(want.size());
  }
}

/// Read one v1 frame; throws TransportError on a malformed frame, a closed
/// connection, a frame past `limits`, or a chunked or v3 frame. When
/// `pool` is given the payload buffer comes from it (release it there, or
/// adopt it into a SharedBuffer).
template <FrameStream S>
soap::WireMessage read_frame(S& stream, const FrameLimits& limits = {},
                             BufferPool* pool = nullptr) {
  Session session(Session::Role::kServer, {.limits = limits, .pool = pool});
  SessionEvent ev = next_event(stream, session);
  if (ev.kind != SessionEvent::Kind::kMessage) {
    throw TransportError(
        "chunked frame on an endpoint without a stream handler");
  }
  return std::move(ev.message);
}

/// Writer side of a v2 chunked transfer over a blocking stream: header
/// once, then each chunk the encoder produces, each in a single gathered
/// syscall on streams that support it.
template <FrameStream S>
class ChunkedFrameWriter final : public StreamSink {
 public:
  ChunkedFrameWriter(S& stream, std::string_view content_type,
                     ChunkEncoder encoder = {})
      : stream_(stream), enc_(std::move(encoder)) {
    ByteWriter h(enc_.pool().acquire(64));
    encode_stream_header(h, content_type);
    stream_.write_all(h.bytes());
    enc_.pool().release(h.take());
  }

  /// One logical chunk (kData or kPatch); its buffer recycles into the
  /// encoder's pool once written.
  void write(StreamChunk chunk) override {
    StreamChunk wire = enc_.encode(std::move(chunk));
    write_chunk(wire);
  }

  void write_data(std::span<const std::uint8_t> bytes) {
    std::vector<std::uint8_t> copy = enc_.pool().acquire(bytes.size());
    copy.assign(bytes.begin(), bytes.end());
    write(StreamChunk{ChunkKind::kData, std::move(copy)});
  }

  void write_patches(std::span<const bxsa::PatchRecord> patches) {
    if (patches.empty()) return;
    ByteWriter body;
    encode_patch_records(body, patches);
    write(StreamChunk{ChunkKind::kPatch, body.take()});
  }

  /// Close the stream: Auth trailer (signed streams), then End.
  void finish() override {
    for (StreamChunk& c : enc_.finish()) write_chunk(c);
  }

 private:
  void write_chunk(StreamChunk& c) {
    std::uint8_t hdr[9];
    hdr[0] = static_cast<std::uint8_t>(c.kind);
    store<std::uint64_t>(c.bytes.size(), ByteOrder::kBig, hdr + 1);
    if constexpr (VectoredStream<S>) {
      stream_.write_vectored({hdr, sizeof(hdr)}, c.bytes);
    } else {
      stream_.write_all({hdr, sizeof(hdr)});
      stream_.write_all(c.bytes);
    }
    enc_.pool().release(std::move(c.bytes));
  }

  S& stream_;
  ChunkEncoder enc_;
};

}  // namespace bxsoap::transport
