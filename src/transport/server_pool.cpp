#include "transport/internal/server_pool.hpp"

#include <algorithm>
#include <optional>
#include <string>

#include "soap/encoding.hpp"
#include "soap/overload.hpp"
#include "transport/internal/session_config.hpp"

namespace bxsoap::transport {

SoapServerPool::SoapServerPool(ServerConfig config)
    : encoding_(std::move(config.encoding)),
      handler_(std::move(config.handler)),
      stream_handler_(std::move(config.stream_handler)),
      stream_chunk_bytes_(config.stream_chunk_bytes),
      listener_(config.port, config.backlog),
      read_timeout_ms_(config.read_timeout_ms),
      max_workers_(config.max_workers),
      drain_timeout_(config.drain_timeout),
      max_queue_depth_(config.max_queue_depth),
      session_cfg_(session_config(config, *encoding_, &buffer_pool_)) {
  if (max_queue_depth_ > 0) {
    // Shedding must not cost a serialize: the Overloaded fault frame is a
    // constant, built once (same as the event server).
    const soap::SoapEnvelope env = soap::SoapEnvelope::make_fault(
        soap::make_overloaded_fault(config.shed_retry_after));
    ByteWriter out(std::vector<std::uint8_t>{});
    const std::size_t len_pos = begin_frame(out, encoding_->content_type());
    encoding_->serialize_into(env.document(), out);
    end_frame(out, len_pos);
    shed_frame_ = out.take();
  }
  if (obs::Registry* reg = config.registry) {
    const std::string& prefix = config.metrics_prefix;
    obs_ = obs::MetricsObserver(*reg, prefix);
    io_ = &reg->io(prefix + ".io");
    active_gauge_ = &reg->gauge(prefix + ".connections.active");
    unreaped_gauge_ = &reg->gauge(prefix + ".workers.unreaped");
    accepted_ = &reg->counter(prefix + ".connections.accepted");
    shed_ = &reg->counter(prefix + ".shed");
    expired_ = &reg->counter(prefix + ".expired.dropped");
    stream_chunks_ = &reg->counter(prefix + ".stream.chunks");
    stream_flushes_ = &reg->counter(prefix + ".stream.flushes");
    stream_buffered_ = &reg->waterline(prefix + ".stream.buffered_bytes");
    buffer_pool_.attach_counters(&reg->counter(prefix + ".pool.hit"),
                                 &reg->counter(prefix + ".pool.miss"),
                                 &reg->counter(prefix + ".pool.recycled_bytes"));
    encoding_->set_codec_stats(&reg->codec(prefix + ".bxsa"));
  }
  if (!config.idempotent_ops.empty()) {
    ResponseCache::Stats cache_stats;
    if (obs::Registry* reg = config.registry) {
      const std::string& prefix = config.metrics_prefix;
      cache_stats.hits = &reg->counter(prefix + ".respcache.hits");
      cache_stats.misses = &reg->counter(prefix + ".respcache.misses");
      cache_stats.bytes = &reg->counter(prefix + ".respcache.bytes");
    }
    respcache_.emplace(ResponseCache::Config{config.respcache_max_entries,
                                             config.respcache_max_bytes,
                                             /*shards=*/8},
                       cache_stats);
    idempotent_ops_.insert(config.idempotent_ops.begin(),
                           config.idempotent_ops.end());
  }
  acceptor_ = std::thread([this] { accept_loop(); });
}

SoapServerPool::~SoapServerPool() { stop(); }

void SoapServerPool::stop() {
  if (stopping_.exchange(true)) return;
  listener_.shutdown();
  workers_cv_.notify_all();  // wake an acceptor parked at the worker ceiling
  if (acceptor_.joinable()) acceptor_.join();
  // Graceful drain: cut idle connections immediately (their workers are
  // blocked in read_frame waiting for a request that is never coming), but
  // give in-flight exchanges up to drain_timeout_ to write their response.
  const auto deadline = std::chrono::steady_clock::now() + drain_timeout_;
  for (;;) {
    bool any_busy = false;
    {
      std::lock_guard lock(conns_mu_);
      for (const ConnEntry& e : conns_) {
        if (e.busy->load(std::memory_order_acquire)) {
          any_busy = true;
        } else {
          e.stream->shutdown_both();
        }
      }
    }
    if (!any_busy || std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  {
    // Whatever is still here either finished (worker will exit on its own)
    // or overstayed the drain budget; force it down.
    std::lock_guard lock(conns_mu_);
    for (const ConnEntry& e : conns_) e.stream->shutdown_both();
  }
  std::vector<Worker> workers;
  {
    std::lock_guard lock(workers_mu_);
    workers.swap(workers_);
  }
  for (auto& w : workers) {
    if (w.thread.joinable()) w.thread.join();
  }
  if (unreaped_gauge_ != nullptr) unreaped_gauge_->set(0);
  listener_.close();
}

/// Join workers whose connection loop has finished. Called with
/// workers_mu_ held; each join is instant because the done flag is the
/// worker's final act before returning.
void SoapServerPool::reap_finished_locked() {
  std::erase_if(workers_, [this](Worker& w) {
    if (!w.done->load(std::memory_order_acquire)) return false;
    if (w.thread.joinable()) w.thread.join();
    if (unreaped_gauge_ != nullptr) unreaped_gauge_->sub();
    return true;
  });
}

void SoapServerPool::accept_loop() {
  while (!stopping_.load()) {
    if (max_workers_ > 0) {
      // Backpressure at the ceiling: park instead of accepting, so excess
      // clients wait in the kernel's listen backlog rather than each
      // getting a thread.
      std::unique_lock lock(workers_mu_);
      workers_cv_.wait(lock, [this] {
        reap_finished_locked();
        return stopping_.load() || workers_.size() < max_workers_;
      });
      if (stopping_.load()) break;
    }
    TcpStream conn;
    try {
      conn = listener_.accept();
    } catch (const TransportError&) {
      break;  // listener shut down
    }
    if (accepted_ != nullptr) accepted_->add();
    std::lock_guard lock(workers_mu_);
    // A long-lived pool must not accumulate one dead thread per served
    // connection: reap the finished ones before adding the new worker.
    reap_finished_locked();
    auto done = std::make_shared<std::atomic<bool>>(false);
    Worker w;
    w.done = done;
    w.thread = std::thread(
        [this, done, stream = std::move(conn)]() mutable {
          ++active_;
          if (active_gauge_ != nullptr) active_gauge_->add();
          serve_connection(std::move(stream));
          if (active_gauge_ != nullptr) active_gauge_->sub();
          --active_;
          done->store(true, std::memory_order_release);
          workers_cv_.notify_all();  // free a slot at the worker ceiling
        });
    workers_.push_back(std::move(w));
    if (unreaped_gauge_ != nullptr) unreaped_gauge_->add();
  }
}

void SoapServerPool::serve_connection(TcpStream stream) {
  // In-exchange marker for graceful drain: true from "request fully read"
  // to "response written". stop() only force-closes connections whose flag
  // is false.
  std::atomic<bool> busy{false};
  {
    std::lock_guard lock(conns_mu_);
    conns_.push_back({&stream, &busy});
  }
  struct Unregister {
    SoapServerPool* pool;
    TcpStream* stream;
    ~Unregister() {
      std::lock_guard lock(pool->conns_mu_);
      std::erase_if(pool->conns_,
                    [this](const ConnEntry& e) { return e.stream == stream; });
    }
  } unregister{this, &stream};

  try {
    stream.set_io_stats(io_);
    stream.set_no_delay(true);
    if (read_timeout_ms_ > 0) stream.set_read_timeout(read_timeout_ms_);
    // The connection's BXTP state: handshake, dictionaries, transforms,
    // stream auth. This worker is both its reading and its writing thread.
    Session session(Session::Role::kServer, session_cfg_);
    // Serve exchanges until the peer hangs up.
    for (;;) {
      SessionEvent ev;
      {
        // One frame-read sample per exchange, spanning header + body.
        obs::StageTimer t(obs_, obs::Stage::kFrameRead);
        ev = next_event(stream, session);
      }
      if (ev.kind == SessionEvent::Kind::kHandshake) {
        stream.write_all(session.take_output());
        continue;
      }
      if (ev.kind == SessionEvent::Kind::kStream) {
        if (!stream_handler_) {
          // Bytes past the header cannot be reframed: cut the connection.
          throw TransportError(
              "chunked frame on an endpoint without a stream handler");
        }
        busy.store(true, std::memory_order_release);
        serve_stream(stream, session, std::move(ev.message.content_type));
        busy.store(false, std::memory_order_release);
        if (stopping_.load(std::memory_order_acquire)) break;
        continue;
      }
      soap::WireMessage raw = std::move(ev.message);
      // The deadline header is relative: it counts from the moment WE
      // finished reading the request, so no client/server clock sync is
      // assumed.
      const auto received = std::chrono::steady_clock::now();
      busy.store(true, std::memory_order_release);
      // Idempotent-response cache: a byte-identical repeat of a declared
      // idempotent request is answered straight from the cached encoded
      // payload — no deserialize, no handler, no serialize. Served ahead
      // of admission control: a hit costs none of the work the in-flight
      // bound exists to ration.
      if (respcache_) {
        if (ResponseCache::Payload hit = respcache_->lookup(
                encoding_->content_type(), raw.payload)) {
          buffer_pool_.release(std::move(raw.payload));
          ByteWriter out(buffer_pool_.acquire(hit->size() + 64));
          session.frame_message(out, *hit, encoding_->content_type());
          ++exchanges_;
          obs_.count_exchange();
          {
            obs::StageTimer t(obs_, obs::Stage::kFrameWrite);
            stream.write_all(out.bytes());
          }
          buffer_pool_.release(out.take());
          busy.store(false, std::memory_order_release);
          if (stopping_.load(std::memory_order_acquire)) break;
          continue;
        }
      }
      // In-flight accounting for admission: one slot from here until the
      // response (or shed fault) is written, end of this loop iteration.
      const std::size_t prior =
          inflight_exchanges_.fetch_add(1, std::memory_order_acq_rel);
      struct InflightGuard {
        std::atomic<std::size_t>& n;
        ~InflightGuard() { n.fetch_sub(1, std::memory_order_acq_rel); }
      } inflight_guard{inflight_exchanges_};
      if (max_queue_depth_ > 0 && prior >= max_queue_depth_) {
        // The pool is past its in-flight bound: refuse this request with
        // the pre-encoded retryable Overloaded fault — in its own slot on
        // this connection, so earlier exchanges are untouched — instead
        // of piling more latency onto every caller.
        buffer_pool_.release(std::move(raw.payload));
        ++faults_;
        obs_.count_fault();
        if (shed_ != nullptr) shed_->add();
        ++exchanges_;
        obs_.count_exchange();
        {
          obs::StageTimer t(obs_, obs::Stage::kFrameWrite);
          stream.write_all(shed_frame_);
        }
        busy.store(false, std::memory_order_release);
        if (stopping_.load(std::memory_order_acquire)) break;
        continue;
      }
      // Hoisted out of the handler lambda: the request's wire bytes stay
      // alive through the exchange (the decoded tree views them anyway),
      // so a cacheable response can be inserted under its request key.
      SharedBuffer wire;
      bool cacheable = false;
      soap::SoapEnvelope response = [&]() -> soap::SoapEnvelope {
        try {
          soap::SoapEnvelope request = [&] {
            obs_.stage_bytes(obs::Stage::kDeserialize, raw.payload.size());
            obs::StageTimer t(obs_, obs::Stage::kDeserialize);
            // Adopting the payload lets packed arrays decode as views; the
            // buffer recycles into the pool when the last view (usually the
            // request tree, at the end of this exchange) lets go.
            wire = SharedBuffer::adopt(std::move(raw.payload), &buffer_pool_);
            return soap::SoapEnvelope(encoding_->deserialize_shared(wire));
          }();
          cacheable = respcache_.has_value() &&
                      idempotent_ops_.contains(operation_name(request));
          // Deadline propagation: a request whose stamped budget ran out
          // before the handler could start is dropped — the caller has
          // already given up on it.
          std::optional<std::chrono::steady_clock::time_point> deadline;
          if (const auto budget = soap::get_deadline(request)) {
            deadline = received + *budget;
          }
          if (deadline.has_value() &&
              std::chrono::steady_clock::now() >= *deadline) {
            if (expired_ != nullptr) expired_->add();
            return soap::SoapEnvelope::make_fault(
                {std::string(soap::kServerFaultCode),
                 std::string(soap::kDeadlineExpiredReason), ""});
          }
          soap::DeadlineScope scope(deadline);
          obs::StageTimer t(obs_, obs::Stage::kHandler);
          return handler_(std::move(request));
        } catch (const SoapFaultError& e) {
          return soap::SoapEnvelope::make_fault({e.code(), e.reason(), ""});
        } catch (const DecodeError& e) {
          // The peer sent bytes we could not decode — that is the client's
          // fault, answered in-band; the connection stays up.
          return soap::SoapEnvelope::make_fault({"soap:Client", e.what(), ""});
        } catch (const std::exception& e) {
          return soap::SoapEnvelope::make_fault(
              {"soap:Server", e.what(), ""});
        }
      }();
      if (response.is_fault()) {
        ++faults_;
        obs_.count_fault();
      }
      // Serialize into ONE pooled buffer with the frame header reserved up
      // front, so header + payload leave in a single write_all. A fault is
      // never cached; a negotiated connection's payload takes a detour
      // through a canonical buffer because the dictionary transform (and
      // the cache) needs the pre-dictionary bytes.
      ByteWriter out(buffer_pool_.acquire(256));
      if (!session.negotiated()) {
        const std::size_t len_pos =
            begin_frame(out, encoding_->content_type());
        {
          obs::StageTimer t(obs_, obs::Stage::kSerialize);
          encoding_->serialize_into(response.document(), out);
        }
        end_frame(out, len_pos);
        obs_.stage_bytes(obs::Stage::kSerialize, out.size() - len_pos - 8);
        if (cacheable && !response.is_fault()) {
          const auto payload = out.bytes().subspan(len_pos + 8);
          respcache_->insert(
              encoding_->content_type(), wire.bytes(),
              std::make_shared<const std::vector<std::uint8_t>>(
                  payload.begin(), payload.end()));
        }
      } else {
        ByteWriter plain(buffer_pool_.acquire(256));
        {
          obs::StageTimer t(obs_, obs::Stage::kSerialize);
          encoding_->serialize_into(response.document(), plain);
        }
        obs_.stage_bytes(obs::Stage::kSerialize, plain.size());
        if (cacheable && !response.is_fault()) {
          respcache_->insert(
              encoding_->content_type(), wire.bytes(),
              std::make_shared<const std::vector<std::uint8_t>>(
                  plain.bytes().begin(), plain.bytes().end()));
        }
        session.frame_message(out, plain.bytes(), encoding_->content_type());
        buffer_pool_.release(plain.take());
      }
      // Count before the reply bytes leave: a client that has its response
      // must observe the exchange as recorded.
      ++exchanges_;
      obs_.count_exchange();
      {
        obs::StageTimer t(obs_, obs::Stage::kFrameWrite);
        stream.write_all(out.bytes());
      }
      buffer_pool_.release(out.take());
      busy.store(false, std::memory_order_release);
      // A stop() that arrived mid-exchange deliberately left this
      // connection open so the response above could drain; honor it now.
      if (stopping_.load(std::memory_order_acquire)) break;
    }
  } catch (const TransportError&) {
    // Peer disconnected (normal end of conversation), the read timeout
    // expired, or stop() shut the socket down; this worker is done.
  }
}

void SoapServerPool::serve_stream(TcpStream& stream, Session& session,
                                  std::string content_type) {
  // Pull side: request chunks come one at a time off the blocking socket,
  // so the pull rate of the handler is the read rate of the connection.
  // The session verifies a signed request's trailer before End surfaces.
  struct SocketSource final : StreamSource {
    SoapServerPool* pool;
    TcpStream& stream;
    Session& session;
    SocketSource(SoapServerPool* p, TcpStream& s, Session& ss)
        : pool(p), stream(s), session(ss) {}
    std::optional<StreamChunk> next() override {
      SessionEvent ev = next_event(stream, session);
      if (ev.kind == SessionEvent::Kind::kEnd) return std::nullopt;
      if (pool->stream_chunks_ != nullptr) pool->stream_chunks_->add();
      return std::move(ev.chunk);
    }
  } source(this, stream, session);

  // Push side: response chunks go straight back out, compressed and signed
  // by the session's encoder. The writer (and with it the v2 response
  // header) is created lazily, so a handler that faults before producing
  // anything can still be answered with a v1 fault envelope on the same
  // connection.
  struct SocketSink final : StreamSink {
    SoapServerPool* pool;
    TcpStream& stream;
    ChunkEncoder encoder;
    std::optional<ChunkedFrameWriter<TcpStream>> writer;
    SocketSink(SoapServerPool* p, TcpStream& s, ChunkEncoder e)
        : pool(p), stream(s), encoder(std::move(e)) {}
    void ensure_writer() {
      if (!writer) {
        writer.emplace(stream, pool->encoding_->content_type(),
                       std::move(encoder));
      }
    }
    void write(StreamChunk c) override {
      ensure_writer();
      const std::size_t n = c.bytes.size();
      if (pool->stream_buffered_ != nullptr) pool->stream_buffered_->add(n);
      {
        obs::StageTimer t(pool->obs_, obs::Stage::kFrameWrite);
        writer->write(std::move(c));
      }
      if (pool->stream_buffered_ != nullptr) pool->stream_buffered_->sub(n);
      if (pool->stream_flushes_ != nullptr) pool->stream_flushes_->add();
    }
    void finish() override {
      ensure_writer();
      writer->finish();
    }
  } sink(this, stream, session.chunk_encoder());

  StreamRequest request(std::move(content_type), source);
  ResponseWriter response(sink, buffer_pool_, stream_chunk_bytes_,
                          encoding_.get());
  soap::Fault fault;
  bool faulted = false;
  try {
    {
      obs::StageTimer t(obs_, obs::Stage::kHandler);
      stream_handler_(request, response);
    }
    if (!response.finished()) response.finish();
    // An unread request tail would desynchronize the next frame; consume
    // it (the chunk buffers recycle, nothing accumulates).
    request.drain(buffer_pool_);
    ++exchanges_;
    obs_.count_exchange();
    return;
  } catch (const TransportError&) {
    throw;  // connection-level failure: the caller cuts the connection
  } catch (const SoapFaultError& e) {
    faulted = true;
    fault = {e.code(), e.reason(), ""};
  } catch (const DecodeError& e) {
    faulted = true;
    fault = {"soap:Client", e.what(), ""};
  } catch (const std::exception& e) {
    faulted = true;
    fault = {"soap:Server", e.what(), ""};
  }
  if (!faulted) return;
  if (sink.writer) {
    // Response chunks already left; there is no in-band way to retract
    // them, so the stream (and connection) dies — same contract as a
    // torn frame.
    throw TransportError("stream handler failed mid-response");
  }
  request.drain(buffer_pool_);
  ++faults_;
  obs_.count_fault();
  soap::SoapEnvelope env = soap::SoapEnvelope::make_fault(fault);
  ByteWriter out(buffer_pool_.acquire(256));
  const std::size_t len_pos = begin_frame(out, encoding_->content_type());
  encoding_->serialize_into(env.document(), out);
  end_frame(out, len_pos);
  ++exchanges_;
  obs_.count_exchange();
  stream.write_all(out.bytes());
  buffer_pool_.release(out.take());
}

}  // namespace bxsoap::transport
