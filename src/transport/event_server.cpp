#include "transport/internal/event_server.hpp"

#include <algorithm>

#include "soap/encoding.hpp"
#include "soap/overload.hpp"
#include "transport/internal/session_config.hpp"

namespace bxsoap::transport {

namespace {

/// Per-EPOLLIN read budget: up to this many recv() rounds of kReadChunk
/// bytes before yielding back to the event loop (level-triggered epoll
/// re-reports the fd if more is pending, so no data is lost — this just
/// keeps one firehose connection from starving the rest).
constexpr int kReadRounds = 4;
constexpr std::size_t kReadChunk = 64 * 1024;

constexpr int kMaxEvents = 64;

/// Depth of each stream queue (chunks). One each way keeps per-stream
/// residency at ~2 chunk buffers and still overlaps the handler with the
/// socket; raising it buys pipelining at the price of memory.
constexpr std::size_t kStreamQueueDepth = 1;

}  // namespace

SoapEventServer::SoapEventServer(ServerConfig config)
    : encoding_(std::move(config.encoding)),
      handler_(std::move(config.handler)),
      stream_handler_(std::move(config.stream_handler)),
      stream_chunk_bytes_(config.stream_chunk_bytes),
      buffer_pool_(config.buffer_pool),
      read_timeout_ms_(config.read_timeout_ms),
      max_connections_(config.max_workers),
      drain_timeout_(config.drain_timeout),
      max_queue_depth_(config.max_queue_depth),
      max_inflight_per_conn_(config.max_inflight_per_conn),
      session_cfg_(session_config(config, *encoding_, &buffer_pool_)) {
  if (max_queue_depth_ > 0 || max_inflight_per_conn_ > 0) {
    // Shedding happens on reactor threads, which must never pay for a
    // serialize: the Overloaded fault frame is a constant, built once.
    const soap::SoapEnvelope env = soap::SoapEnvelope::make_fault(
        soap::make_overloaded_fault(config.shed_retry_after));
    ByteWriter out(std::vector<std::uint8_t>{});
    const std::size_t len_pos = begin_frame(out, encoding_->content_type());
    encoding_->serialize_into(env.document(), out);
    end_frame(out, len_pos);
    shed_frame_ = out.take();
  }
  std::size_t shards = config.reactor_threads;
  if (shards == 0) {
    shards = std::max(1u, std::thread::hardware_concurrency());
  }

  if (config.reuse_port) {
    // Per-shard listeners on one SO_REUSEPORT port: the kernel deals.
    listeners_ = TcpListener::sharded(shards, config.port, config.backlog);
  } else {
    // One listener, owned by reactor 0, dealing round-robin.
    listeners_.emplace_back(
        TcpListener::Options{config.port, config.backlog, false});
  }
  for (TcpListener& l : listeners_) l.set_nonblocking(true);

  obs::Registry* reg = config.registry;
  const std::string& prefix = config.metrics_prefix;
  if (reg != nullptr) {
    obs_ = obs::MetricsObserver(*reg, prefix);
    io_ = &reg->io(prefix + ".io");
    active_gauge_ = &reg->gauge(prefix + ".connections.active");
    queue_depth_gauge_ = &reg->gauge(prefix + ".reactor.queue.depth");
    accepted_ = &reg->counter(prefix + ".connections.accepted");
    wakeups_ = &reg->counter(prefix + ".reactor.wakeups");
    pipelined_ = &reg->counter(prefix + ".pipelined.exchanges");
    shed_ = &reg->counter(prefix + ".shed");
    parks_ = &reg->counter(prefix + ".overload.parks");
    expired_ = &reg->counter(prefix + ".expired.dropped");
    queue_waterline_ = &reg->waterline(prefix + ".queue.waterline");
    stream_chunks_ = &reg->counter(prefix + ".stream.chunks");
    stream_flushes_ = &reg->counter(prefix + ".stream.flushes");
    stream_buffered_ = &reg->waterline(prefix + ".stream.buffered_bytes");
    loop_ns_ = &reg->histogram(prefix + ".reactor.loop.ns");
    buffer_pool_.attach_counters(&reg->counter(prefix + ".pool.hit"),
                                 &reg->counter(prefix + ".pool.miss"),
                                 &reg->counter(prefix + ".pool.recycled_bytes"));
    encoding_->set_codec_stats(&reg->codec(prefix + ".bxsa"));
  }
  if (!config.idempotent_ops.empty()) {
    ResponseCache::Stats cache_stats;
    if (reg != nullptr) {
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

  reactors_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    auto r = std::make_unique<Reactor>();
    r->index = i;
    r->epoll.add(r->wakeup.fd(), EPOLLIN);
    if (config.reuse_port) {
      r->listener = &listeners_[i];
    } else if (i == 0) {
      r->listener = &listeners_.front();
    }
    if (reg != nullptr) {
      const std::string shard = prefix + ".reactor." + std::to_string(i);
      // Per-shard views; the unsuffixed reactor.* names stay the rollup.
      r->loop_ns = &reg->histogram(shard + ".loop.ns");
      r->assigned = &reg->counter(shard + ".connections");
    }
    reactors_.push_back(std::move(r));
  }

  std::size_t n = config.worker_threads;
  if (n == 0) {
    n = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  for (auto& r : reactors_) {
    Reactor* shard_ptr = r.get();
    r->thread = std::thread([this, shard_ptr] { reactor_loop(*shard_ptr); });
  }
}

SoapEventServer::~SoapEventServer() { stop(); }

void SoapEventServer::stop() {
  if (stopped_.exchange(true)) return;
  stopping_.store(true, std::memory_order_release);
  for (auto& r : reactors_) r->wakeup.signal();
  jobs_cv_.notify_all();  // idle workers re-check the stop condition
  for (auto& r : reactors_) {
    if (r->thread.joinable()) r->thread.join();
  }
  jobs_cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  // Sockets accepted by reactor 0 but never adopted by their shard (the
  // handoff raced the stop): close and account for them here.
  for (auto& r : reactors_) {
    std::lock_guard lock(r->mu);
    for (TcpStream& s : r->incoming) {
      s.close();
      --active_;
      if (active_gauge_ != nullptr) active_gauge_->sub();
    }
    r->incoming.clear();
  }
  for (TcpListener& l : listeners_) l.close();
}

/// Desired epoll interest for a connection given its current state.
static std::uint32_t conn_interest(bool reading, bool want_write) {
  std::uint32_t events = 0;
  if (reading) events |= EPOLLIN;
  if (want_write) events |= EPOLLOUT;
  return events;
}

void SoapEventServer::update_listener_interest(Reactor& r) {
  if (r.listener == nullptr) return;
  const bool want = !stopping_.load(std::memory_order_relaxed) &&
                    (max_connections_ == 0 ||
                     active_.load(std::memory_order_relaxed) <
                         max_connections_);
  if (want == r.accept_armed) return;
  if (want) {
    r.epoll.add(r.listener->fd(), EPOLLIN);
  } else {
    r.epoll.del(r.listener->fd());
  }
  r.accept_armed = want;
}

void SoapEventServer::reactor_loop(Reactor& r) {
  epoll_event events[kMaxEvents];
  bool draining = false;
  std::chrono::steady_clock::time_point drain_deadline;

  for (;;) {
    // Re-check every pass: a drop on ANOTHER shard may have opened room
    // under max_connections_ (that shard signals our wakeup).
    if (!draining) update_listener_interest(r);

    int timeout_ms = -1;
    if (draining) {
      timeout_ms = 2;
    } else if (read_timeout_ms_ > 0) {
      timeout_ms = std::min(read_timeout_ms_, 100);
    }
    const int n = r.epoll.wait(events, kMaxEvents, timeout_ms);
    const auto woke = std::chrono::steady_clock::now();
    if (wakeups_ != nullptr) wakeups_->add();

    if (!draining && stopping_.load(std::memory_order_acquire)) {
      // Entering drain: stop accepting and reading. Partially assembled
      // frames (and streams still awaiting input) are abandoned; every
      // fully read request still completes.
      draining = true;
      drain_deadline = woke + drain_timeout_;
      update_listener_interest(r);
      for (auto& [fd, conn] : r.conns) {
        std::lock_guard lock(conn->mu);
        r.epoll.mod(fd, conn_interest(false, conn->want_write));
      }
    }

    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      const std::uint32_t ev = events[i].events;
      if (fd == r.wakeup.fd()) {
        r.wakeup.drain();
        continue;
      }
      if (r.listener != nullptr && fd == r.listener->fd()) {
        if (!draining) accept_ready(r);
        continue;
      }
      const auto it = r.conns.find(fd);
      if (it == r.conns.end()) continue;  // dropped earlier this batch
      std::shared_ptr<Conn> conn = it->second;
      if ((ev & (EPOLLERR | EPOLLHUP)) != 0) {
        // The peer is gone in both directions; nothing can be delivered.
        drop(conn);
        continue;
      }
      if ((ev & EPOLLOUT) != 0) flush(conn);
      if ((ev & EPOLLIN) != 0 && !draining) read_ready(conn);
    }

    // Connections dealt to this shard since the last pass, then worker /
    // stream completions: flush their connections; then re-open the taps
    // streams drained room for.
    std::vector<TcpStream> fresh;
    std::vector<std::shared_ptr<Conn>> ready;
    std::vector<std::shared_ptr<Conn>> resume;
    {
      std::lock_guard lock(r.mu);
      fresh.swap(r.incoming);
      ready.swap(r.flush_queue);
      resume.swap(r.resume_queue);
    }
    for (TcpStream& s : fresh) {
      if (draining) {
        s.close();
        --active_;
        if (active_gauge_ != nullptr) active_gauge_->sub();
      } else {
        adopt(r, std::move(s));
      }
    }
    for (const auto& conn : ready) flush(conn);
    if (!draining) {
      for (const auto& conn : resume) resume_stream_read(conn);
      // Workers signal our wakeup when the queue drains below half the
      // admission bound; re-open the parked taps.
      if (r.queue_parked_conns > 0) maybe_unpark_queue(r);
    }

    if (!draining && read_timeout_ms_ > 0) sweep_idle(r);

    if (draining) {
      // Cut every connection with nothing left to deliver; leave the busy
      // ones to finish until the drain budget runs out.
      std::vector<std::shared_ptr<Conn>> done;
      for (auto& [fd, conn] : r.conns) {
        if (fully_drained(*conn)) done.push_back(conn);
      }
      for (const auto& conn : done) drop(conn);
      if (r.conns.empty()) break;
      if (std::chrono::steady_clock::now() >= drain_deadline) {
        std::vector<std::shared_ptr<Conn>> rest;
        rest.reserve(r.conns.size());
        for (auto& [fd, conn] : r.conns) rest.push_back(conn);
        for (const auto& conn : rest) drop(conn);
        break;
      }
    }

    if (loop_ns_ != nullptr) {
      const auto spent = std::chrono::steady_clock::now() - woke;
      const auto ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(spent)
              .count());
      loop_ns_->record(ns);                          // rollup
      if (r.loop_ns != nullptr) r.loop_ns->record(ns);  // this shard
    }
  }
}

bool SoapEventServer::fully_drained(Conn& conn) {
  std::lock_guard lock(conn.mu);
  return conn.inflight == 0 && conn.completed.empty() &&
         conn.outbox.empty() && conn.streams.empty();
}

void SoapEventServer::accept_ready(Reactor& r) {
  for (;;) {
    if (max_connections_ > 0 &&
        active_.load(std::memory_order_relaxed) >= max_connections_) {
      update_listener_interest(r);  // park the listener at the ceiling
      return;
    }
    std::optional<TcpStream> accepted;
    try {
      accepted = r.listener->try_accept();
    } catch (const TransportError&) {
      return;  // listener shut down
    }
    if (!accepted) return;
    TcpStream stream = std::move(*accepted);
    try {
      stream.set_nonblocking(true);
      stream.set_no_delay(true);
    } catch (const TransportError&) {
      continue;  // raced a disconnect; nothing to serve
    }
    stream.set_io_stats(io_);
    ++active_;
    if (active_gauge_ != nullptr) active_gauge_->add();
    if (accepted_ != nullptr) accepted_->add();
    // Pick the shard. With per-reactor SO_REUSEPORT listeners the kernel
    // already chose us; otherwise reactor 0 deals round-robin — exactly
    // fair, and deterministic for the distribution tests.
    Reactor& target = listeners_.size() > 1
                          ? r
                          : *reactors_[next_reactor_++ % reactors_.size()];
    if (target.assigned != nullptr) target.assigned->add();
    if (&target == &r) {
      adopt(r, std::move(stream));
      continue;
    }
    bool first = false;
    {
      std::lock_guard lock(target.mu);
      first = target.incoming.empty() && target.flush_queue.empty() &&
              target.resume_queue.empty();
      target.incoming.push_back(std::move(stream));
    }
    if (first) target.wakeup.signal();
  }
}

void SoapEventServer::adopt(Reactor& r, TcpStream stream) {
  auto conn = std::make_shared<Conn>(std::move(stream), session_cfg_);
  conn->owner = &r;
  conn->last_activity = std::chrono::steady_clock::now();
  const int conn_fd = conn->stream.fd();
  r.conns.emplace(conn_fd, conn);
  r.epoll.add(conn_fd, EPOLLIN);
}

/// Admission refused: the request's payload recycles untouched (it was
/// never decoded) and its sequence slot is answered with the pre-encoded
/// retryable Overloaded fault, so pipelined responses around it stay
/// ordered and the client gets a fast in-band retry signal instead of a
/// cut connection.
void SoapEventServer::shed(const std::shared_ptr<Conn>& conn,
                           std::uint64_t seq, soap::WireMessage request) {
  buffer_pool_.release(std::move(request.payload));
  ++faults_;
  obs_.count_fault();
  if (shed_ != nullptr) shed_->add();
  ByteWriter out(buffer_pool_.acquire(shed_frame_.size()));
  out.write_bytes(shed_frame_.data(), shed_frame_.size());
  complete(conn, seq, out.take());
}

void SoapEventServer::park_for_queue(const std::shared_ptr<Conn>& conn) {
  if (conn->queue_parked || conn->stream_parked || conn->read_closed) return;
  conn->queue_parked = true;
  ++conn->owner->queue_parked_conns;
  queue_parked_total_.fetch_add(1, std::memory_order_relaxed);
  if (parks_ != nullptr) parks_->add();
  conn->owner->epoll.mod(conn->stream.fd(),
                         conn_interest(false, conn->want_write));
}

void SoapEventServer::maybe_unpark_queue(Reactor& r) {
  // Hysteresis: reopen the taps only once the workers have drained the
  // queue to HALF the bound, so parked connections don't thrash on and
  // off at the edge.
  if (queue_depth_.load(std::memory_order_acquire) * 2 > max_queue_depth_) {
    return;
  }
  const auto now = std::chrono::steady_clock::now();
  for (auto& [fd, conn] : r.conns) {
    if (!conn->queue_parked) continue;
    conn->queue_parked = false;
    --r.queue_parked_conns;
    queue_parked_total_.fetch_sub(1, std::memory_order_relaxed);
    // The pause was OUR backpressure, not peer silence; don't let the
    // idle sweep bill the peer for it.
    conn->last_activity = now;
    if (!conn->stream_parked) {
      r.epoll.mod(fd, conn_interest(!conn->read_closed, conn->want_write));
    }
    if (r.queue_parked_conns == 0) break;
  }
}

void SoapEventServer::read_ready(const std::shared_ptr<Conn>& conn) {
  std::uint8_t buf[kReadChunk];
  for (int round = 0; round < kReadRounds; ++round) {
    // Backpressure: the tap is closed (stream in-queue full, or the
    // worker queue is at its admission bound).
    if (conn->stream_parked || conn->queue_parked) return;
    std::optional<std::size_t> r;
    try {
      r = conn->stream.try_read_some(buf, sizeof(buf));
    } catch (const TransportError&) {
      drop(conn);
      return;
    }
    if (!r) return;  // EAGAIN: fully drained the socket for now
    if (*r == 0) {
      if (conn->rx_stream != nullptr) {
        // EOF inside a chunked message: the stream can never complete and
        // its handler would wait forever — cut it (truncation is an
        // error, same as a torn v1 frame).
        drop(conn);
        return;
      }
      // Orderly EOF. A pipelining client may half-close after its last
      // request; responses still in flight must be delivered, so the
      // connection only dies once its outbox drains (see flush()).
      conn->read_closed = true;
      bool drained;
      {
        std::lock_guard lock(conn->mu);
        drained = conn->inflight == 0 && conn->completed.empty() &&
                  conn->outbox.empty() && conn->streams.empty();
        if (!drained) {
          conn->owner->epoll.mod(conn->stream.fd(),
                                 conn_interest(false, conn->want_write));
        }
      }
      if (drained) drop(conn);
      return;
    }
    conn->last_activity = std::chrono::steady_clock::now();
    try {
      obs::StageTimer frame_timer(obs_, obs::Stage::kFrameRead);
      if (!pump(conn, std::span<const std::uint8_t>(buf, *r))) {
        return;  // in-queue full: parked mid-buffer, remainder stashed
      }
    } catch (const TransportError&) {
      // Malformed or over-limit frame: the byte stream cannot be trusted
      // past this point; cut the connection (same as the pool).
      drop(conn);
      return;
    }
  }
}

/// Feed bytes through the connection's session, dispatching whole messages
/// to the worker queue and stream events to the connection's stream.
/// Returns false when the stream in-queue filled: the unconsumed remainder
/// is stashed in stream_backlog and EPOLLIN is parked until the stream
/// thread frees room.
bool SoapEventServer::pump(const std::shared_ptr<Conn>& conn,
                           std::span<const std::uint8_t> data) {
  for (;;) {
    data = data.subspan(conn->session.feed(data));
    std::optional<SessionEvent> ev = conn->session.poll();
    if (!ev) return true;  // every byte consumed, no event complete
    switch (ev->kind) {
      case SessionEvent::Kind::kHandshake:
        // The Accept bypasses the response sequencing (it answers no
        // request); the session admits a Hello only as the first frame,
        // so nothing can be in flight ahead of it.
        {
          std::lock_guard lock(conn->mu);
          conn->outbox.push_back(conn->session.take_output());
        }
        flush(conn);
        continue;
      case SessionEvent::Kind::kMessage:
        // Messages leave the session in wire order on this (the owning)
        // reactor, already decompressed and dictionary-decoded — the order
        // the mirrored table requires — before their arrival order is
        // handed to the workers.
        dispatch(conn, std::move(ev->message));
        continue;
      case SessionEvent::Kind::kStream:
        begin_stream(conn, std::move(ev->message.content_type));
        continue;
      case SessionEvent::Kind::kChunk:
      case SessionEvent::Kind::kEnd:
        if (!on_stream_chunk(conn, std::move(*ev))) {
          conn->stream_backlog.assign(data.begin(), data.end());
          return false;
        }
        continue;
    }
  }
}

/// Sequence one request and hand it to the workers, or shed it.
void SoapEventServer::dispatch(const std::shared_ptr<Conn>& conn,
                               soap::WireMessage request) {
  const std::uint64_t seq = conn->next_seq++;
  std::size_t inflight_now = 0;
  {
    std::lock_guard lock(conn->mu);
    ++conn->inflight;
    inflight_now = conn->inflight;
    // A second request arriving before the first response left is the
    // pipelining case the thread-per-connection pool can't do.
    if (pipelined_ != nullptr &&
        (conn->inflight > 1 || !conn->outbox.empty() ||
         !conn->completed.empty() || !conn->streams.empty())) {
      pipelined_->add();
    }
  }
  // Admission control. A connection past its pipelining allowance is shed
  // outright; a request against a full queue is shed AND the connection
  // parked (the frames being shed were already read — the park stops the
  // next ones at the kernel's TCP window instead).
  if (max_inflight_per_conn_ > 0 && inflight_now > max_inflight_per_conn_) {
    shed(conn, seq, std::move(request));
    return;
  }
  bool admitted = true;
  bool queue_full = false;
  {
    std::lock_guard lock(jobs_mu_);
    if (max_queue_depth_ > 0 && jobs_.size() >= max_queue_depth_) {
      admitted = false;
    } else {
      jobs_.push_back(Job{conn, seq, std::move(request),
                          std::chrono::steady_clock::now()});
      queue_depth_.store(jobs_.size(), std::memory_order_release);
      if (queue_depth_gauge_ != nullptr) {
        queue_depth_gauge_->set(static_cast<std::int64_t>(jobs_.size()));
      }
      if (queue_waterline_ != nullptr) queue_waterline_->add(1);
      queue_full = max_queue_depth_ > 0 && jobs_.size() >= max_queue_depth_;
    }
  }
  if (admitted) {
    jobs_cv_.notify_one();
  } else {
    shed(conn, seq, std::move(request));
    queue_full = true;
  }
  if (queue_full) park_for_queue(conn);
}

/// Route one stream event into the connection's stream. Returns false when
/// the push filled the in-queue (the caller must park).
bool SoapEventServer::on_stream_chunk(const std::shared_ptr<Conn>& conn,
                                      SessionEvent ev) {
  const std::shared_ptr<StreamState> st = conn->rx_stream;
  if (stream_chunks_ != nullptr) stream_chunks_->add();
  if (ev.kind == SessionEvent::Kind::kEnd) {
    {
      std::lock_guard lock(st->mu);
      st->in_end = true;
    }
    st->cv.notify_all();
    conn->rx_stream = nullptr;  // the next bytes start a fresh frame
    return true;
  }
  const std::size_t n = ev.chunk.bytes.size();
  bool full;
  {
    std::lock_guard lock(st->mu);
    st->in.push_back(std::move(ev.chunk));
    st->in_bytes += n;
    full = st->in.size() >= kStreamQueueDepth;
  }
  if (stream_buffered_ != nullptr) stream_buffered_->add(n);
  st->cv.notify_all();
  if (full) {
    conn->stream_parked = true;
    conn->owner->epoll.mod(conn->stream.fd(),
                           conn_interest(false, conn->want_write));
    return false;
  }
  return true;
}

void SoapEventServer::begin_stream(const std::shared_ptr<Conn>& conn,
                                   std::string content_type) {
  if (!stream_handler_) {
    throw TransportError(
        "chunked frame on an endpoint without a stream handler");
  }
  auto st = std::make_shared<StreamState>();
  st->content_type = std::move(content_type);
  st->seq = conn->next_seq++;
  {
    std::lock_guard lock(conn->mu);
    conn->streams.emplace(st->seq, st);
  }
  conn->rx_stream = st;
  st->thread = std::thread([this, conn, st] { stream_main(conn, st); });
}

/// The stream thread freed in-queue room: un-park EPOLLIN, replaying any
/// bytes that were read ahead of the park first.
void SoapEventServer::resume_stream_read(const std::shared_ptr<Conn>& conn) {
  if (!conn->stream_parked) return;
  {
    std::lock_guard lock(conn->mu);
    if (conn->dead) return;
  }
  conn->stream_parked = false;
  // The pause was OUR backpressure, not peer silence; don't let the idle
  // sweep bill the peer for it.
  conn->last_activity = std::chrono::steady_clock::now();
  std::vector<std::uint8_t> backlog = std::move(conn->stream_backlog);
  conn->stream_backlog = {};
  try {
    obs::StageTimer frame_timer(obs_, obs::Stage::kFrameRead);
    if (!pump(conn, backlog)) return;  // re-parked; remainder re-stashed
  } catch (const TransportError&) {
    drop(conn);
    return;
  }
  // Level-triggered epoll re-reports whatever the kernel buffered while
  // the tap was closed. The worker queue may have filled meanwhile —
  // respect its park.
  conn->owner->epoll.mod(
      conn->stream.fd(),
      conn_interest(!conn->read_closed && !conn->queue_parked,
                    conn->want_write));
}

void SoapEventServer::flush(const std::shared_ptr<Conn>& conn) {
  bool should_drop = false;
  std::vector<std::shared_ptr<StreamState>> finished;  // joined outside mu
  {
    std::lock_guard lock(conn->mu);
    if (conn->dead) return;
    bool blocked = false;
    try {
      for (;;) {
        // Phase 1: materialized responses ahead of any stream.
        while (!blocked && !conn->outbox.empty()) {
          std::vector<std::uint8_t>& front = conn->outbox.front();
          const std::span<const std::uint8_t> rest(
              front.data() + conn->out_offset,
              front.size() - conn->out_offset);
          obs::StageTimer t(obs_, obs::Stage::kFrameWrite);
          const std::optional<std::size_t> n =
              conn->stream.try_write_some(rest);
          if (!n) {
            blocked = true;
            break;
          }
          conn->last_activity = std::chrono::steady_clock::now();
          conn->out_offset += *n;
          if (conn->out_offset == front.size()) {
            buffer_pool_.release(std::move(front));
            conn->outbox.pop_front();
            conn->out_offset = 0;
          }
        }
        if (blocked) break;
        // Phase 2: the stream occupying the next sequence slot, if any.
        // Its frames go straight from its bounded queue to the wire; the
        // slot is held until the stream ends, so pipelined responses
        // behind it stay ordered.
        const auto sit = conn->streams.find(conn->next_to_send);
        if (sit == conn->streams.end()) break;
        const std::shared_ptr<StreamState>& st = sit->second;
        bool advanced = false;
        std::vector<std::uint8_t> fault_frame;
        {
          std::lock_guard slock(st->mu);
          if (st->failed) {
            if (!st->wire_started && !st->fault_frame.empty()) {
              // Nothing reached the wire: discard the queued chunks and
              // answer with the prepared v1 fault envelope instead.
              std::size_t residue = st->out_bytes;
              for (OutFrame& f : st->out) {
                buffer_pool_.release(std::move(f.bytes));
              }
              st->out.clear();
              st->out_bytes = 0;
              if (stream_buffered_ != nullptr && residue > 0) {
                stream_buffered_->sub(residue);
              }
              fault_frame = std::move(st->fault_frame);
              ++faults_;
              obs_.count_fault();
              advanced = true;
            } else {
              should_drop = true;
            }
          } else {
            while (!st->out.empty()) {
              OutFrame& f = st->out.front();
              bool frame_done = false;
              obs::StageTimer t(obs_, obs::Stage::kFrameWrite);
              for (;;) {
                std::span<const std::uint8_t> rest;
                const bool in_hdr = f.hdr_off < f.hdr.size();
                if (in_hdr) {
                  rest = {f.hdr.data() + f.hdr_off,
                          f.hdr.size() - f.hdr_off};
                } else if (f.body_off < f.bytes.size()) {
                  rest = {f.bytes.data() + f.body_off,
                          f.bytes.size() - f.body_off};
                } else {
                  frame_done = true;
                  break;
                }
                const std::optional<std::size_t> n =
                    conn->stream.try_write_some(rest);
                if (!n) {
                  blocked = true;
                  break;
                }
                st->wire_started = true;
                conn->last_activity = std::chrono::steady_clock::now();
                if (in_hdr) {
                  f.hdr_off += *n;
                } else {
                  f.body_off += *n;
                }
              }
              if (!frame_done) break;
              const std::size_t freed = f.bytes.size();
              buffer_pool_.release(std::move(f.bytes));
              st->out.pop_front();
              st->out_bytes -= freed;
              if (stream_buffered_ != nullptr && freed > 0) {
                stream_buffered_->sub(freed);
              }
              if (stream_flushes_ != nullptr) stream_flushes_->add();
              st->cv.notify_all();
            }
            if (!blocked && st->out_end && st->out.empty() && st->exited) {
              advanced = true;
            }
          }
        }
        if (should_drop || !advanced) break;
        finished.push_back(sit->second);
        conn->streams.erase(sit);
        ++conn->next_to_send;
        if (!fault_frame.empty()) {
          // The fault rides the ordinary outbox in the stream's slot.
          conn->outbox.push_back(std::move(fault_frame));
        }
        ++exchanges_;
        obs_.count_exchange();
        release_ready_locked(*conn);
        // Loop: phase 1 again for the newly released responses.
      }
    } catch (const TransportError&) {
      should_drop = true;
    }
    const bool reading = !conn->read_closed && !conn->stream_parked &&
                         !conn->queue_parked;
    if (blocked && !should_drop) {
      if (!conn->want_write) {
        conn->want_write = true;
        conn->owner->epoll.mod(conn->stream.fd(),
                               conn_interest(reading, true));
      }
    } else if (!should_drop) {
      if (conn->want_write) {
        conn->want_write = false;
        conn->owner->epoll.mod(conn->stream.fd(),
                               conn_interest(reading, false));
      }
      // A half-closed pipeliner is done once its last response left.
      should_drop = conn->read_closed && conn->inflight == 0 &&
                    conn->completed.empty() && conn->streams.empty();
    }
  }
  for (const auto& st : finished) {
    if (st->thread.joinable()) st->thread.join();
  }
  if (should_drop) drop(conn);
}

void SoapEventServer::drop(const std::shared_ptr<Conn>& conn) {
  Reactor& r = *conn->owner;
  std::vector<std::shared_ptr<StreamState>> streams;
  {
    std::lock_guard lock(conn->mu);
    if (conn->dead) return;
    conn->dead = true;
    // Undeliverable responses go back to the pool instead of leaking.
    for (auto& buf : conn->outbox) buffer_pool_.release(std::move(buf));
    conn->outbox.clear();
    for (auto& [seq, c] : conn->completed) {
      buffer_pool_.release(std::move(c.bytes));
    }
    conn->completed.clear();
    for (auto& [seq, st] : conn->streams) streams.push_back(st);
    conn->streams.clear();
  }
  for (const auto& st : streams) {
    std::size_t residue = 0;
    {
      std::lock_guard slock(st->mu);
      st->dead = true;
      residue = st->in_bytes + st->out_bytes;
      for (StreamChunk& c : st->in) buffer_pool_.release(std::move(c.bytes));
      st->in.clear();
      st->in_bytes = 0;
      for (OutFrame& f : st->out) buffer_pool_.release(std::move(f.bytes));
      st->out.clear();
      st->out_bytes = 0;
    }
    if (stream_buffered_ != nullptr && residue > 0) {
      stream_buffered_->sub(residue);
    }
    st->cv.notify_all();
  }
  conn->rx_stream = nullptr;
  conn->stream_backlog.clear();
  if (conn->queue_parked) {
    conn->queue_parked = false;
    --r.queue_parked_conns;
    queue_parked_total_.fetch_sub(1, std::memory_order_relaxed);
  }
  r.epoll.del(conn->stream.fd());
  r.conns.erase(conn->stream.fd());
  conn->stream.close();
  --active_;
  if (active_gauge_ != nullptr) active_gauge_->sub();
  update_listener_interest(r);
  if (max_connections_ > 0) {
    // Room opened under the ceiling: listeners parked on OTHER shards
    // must hear about it (their loops re-check on wakeup).
    for (auto& other : reactors_) {
      if (other.get() != &r && other->listener != nullptr) {
        other->wakeup.signal();
      }
    }
  }
  // Joined last, with no locks held: the dead flag has already unblocked
  // any queue wait, so each join is prompt.
  for (const auto& st : streams) {
    if (st->thread.joinable()) st->thread.join();
  }
}

void SoapEventServer::sweep_idle(Reactor& r) {
  const auto now = std::chrono::steady_clock::now();
  const auto limit = std::chrono::milliseconds(read_timeout_ms_);
  std::vector<std::shared_ptr<Conn>> stale;
  for (auto& [fd, conn] : r.conns) {
    // A connection parked by OUR backpressure (stream in-queue or worker
    // queue) is not idle — the peer may be waiting on us.
    if (conn->stream_parked || conn->queue_parked) continue;
    if (now - conn->last_activity > limit) stale.push_back(conn);
  }
  // Same contract as the pool's SO_RCVTIMEO: a peer that goes silent for
  // read_timeout_ms is disconnected, mid-frame or not.
  for (const auto& conn : stale) drop(conn);
}

void SoapEventServer::worker_loop() {
  for (;;) {
    Job job;
    {
      std::unique_lock lock(jobs_mu_);
      jobs_cv_.wait(lock, [this] {
        return !jobs_.empty() || stopping_.load(std::memory_order_acquire);
      });
      if (jobs_.empty()) {
        // stopping_ and nothing queued: the reactors have stopped
        // reading, so no more work can arrive.
        return;
      }
      job = std::move(jobs_.front());
      jobs_.pop_front();
      queue_depth_.store(jobs_.size(), std::memory_order_release);
      if (queue_depth_gauge_ != nullptr) {
        queue_depth_gauge_->set(static_cast<std::int64_t>(jobs_.size()));
      }
      if (queue_waterline_ != nullptr) queue_waterline_->sub(1);
    }
    if (max_queue_depth_ > 0 &&
        queue_parked_total_.load(std::memory_order_relaxed) > 0 &&
        queue_depth_.load(std::memory_order_acquire) * 2 <=
            max_queue_depth_) {
      // Drained below the low-water mark with connections parked: every
      // reactor re-checks its parked set on the next pass.
      for (auto& r : reactors_) r->wakeup.signal();
    }

    // Safe to read off-reactor: the handshake settles it before any
    // request of the connection could be queued (the jobs_mu_ handoff
    // orders the write against this read).
    const bool v3 = job.conn->session.negotiated();
    // Idempotent-response cache: a byte-identical repeat of a declared
    // idempotent request is answered straight from the cached canonical
    // payload — no deserialize, no handler, no serialize. The job already
    // passed admission (it was queued), so only the CPU work is skipped.
    // The owning connection frames it in wire order at release time.
    if (respcache_) {
      if (ResponseCache::Payload hit = respcache_->lookup(
              encoding_->content_type(), job.request.payload)) {
        buffer_pool_.release(std::move(job.request.payload));
        ByteWriter out(buffer_pool_.acquire(hit->size() + 64));
        out.write_bytes(*hit);
        complete(job.conn, job.seq, out.take(), /*framed=*/false);
        continue;
      }
    }
    // Hoisted out of the handler lambda: the request's wire bytes stay
    // alive through the exchange (the decoded tree views them anyway), so
    // a cacheable response can be inserted under its request key.
    SharedBuffer wire;
    bool cacheable = false;
    soap::SoapEnvelope response = [&]() -> soap::SoapEnvelope {
      try {
        soap::SoapEnvelope request = [&] {
          obs_.stage_bytes(obs::Stage::kDeserialize, job.request.payload.size());
          obs::StageTimer t(obs_, obs::Stage::kDeserialize);
          // Adopting the payload keeps the PR 3 zero-copy path: packed
          // arrays decode as views, and the wire buffer recycles into the
          // pool when the request tree drops its last reference.
          wire = SharedBuffer::adopt(std::move(job.request.payload),
                                     &buffer_pool_);
          return soap::SoapEnvelope(encoding_->deserialize_shared(wire));
        }();
        cacheable = respcache_.has_value() &&
                    idempotent_ops_.contains(operation_name(request));
        // Deadline propagation: the client's remaining budget, stamped as
        // a relative header and interpreted against OUR enqueue clock (no
        // clock sync assumed). A job whose budget expired while it queued
        // is dropped before the handler runs — the caller has already
        // given up, so the work would be wasted either way.
        std::optional<std::chrono::steady_clock::time_point> deadline;
        if (const auto budget = soap::get_deadline(request)) {
          deadline = job.enqueued + *budget;
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
        // The peer sent bytes we could not decode — the client's fault,
        // answered in-band; the connection stays up.
        return soap::SoapEnvelope::make_fault({"soap:Client", e.what(), ""});
      } catch (const std::exception& e) {
        return soap::SoapEnvelope::make_fault({"soap:Server", e.what(), ""});
      }
    }();
    if (response.is_fault()) {
      ++faults_;
      obs_.count_fault();
    }
    // One pooled buffer per response. v1: BXTP header reserved up front
    // and backpatched, so the reactor writes header + payload as one
    // unit. v3: the buffer holds the canonical (pre-dictionary) payload —
    // the frame is added by the owning reactor in wire order, which is
    // the order the response dictionary must see.
    ByteWriter out(buffer_pool_.acquire(256));
    if (!v3) {
      const std::size_t len_pos = begin_frame(out, encoding_->content_type());
      {
        obs::StageTimer t(obs_, obs::Stage::kSerialize);
        encoding_->serialize_into(response.document(), out);
      }
      end_frame(out, len_pos);
      obs_.stage_bytes(obs::Stage::kSerialize, out.size() - len_pos - 8);
      if (cacheable && !response.is_fault()) {
        const auto payload = out.bytes().subspan(len_pos + 8);
        respcache_->insert(encoding_->content_type(), wire.bytes(),
                           std::make_shared<const std::vector<std::uint8_t>>(
                               payload.begin(), payload.end()));
      }
      complete(job.conn, job.seq, out.take());
    } else {
      {
        obs::StageTimer t(obs_, obs::Stage::kSerialize);
        encoding_->serialize_into(response.document(), out);
      }
      obs_.stage_bytes(obs::Stage::kSerialize, out.size());
      if (cacheable && !response.is_fault()) {
        respcache_->insert(encoding_->content_type(), wire.bytes(),
                           std::make_shared<const std::vector<std::uint8_t>>(
                               out.bytes().begin(), out.bytes().end()));
      }
      complete(job.conn, job.seq, out.take(), /*framed=*/false);
    }
  }
}

void SoapEventServer::release_ready_locked(Conn& conn) {
  // Release strictly in request order: a response completed out of order
  // parks in `completed` until every earlier sequence has passed. A
  // sequence owned by a stream never appears here, so the walk stops at
  // it and flush()'s stream phase takes over.
  for (auto it = conn.completed.find(conn.next_to_send);
       it != conn.completed.end();
       it = conn.completed.find(conn.next_to_send)) {
    Completed& c = it->second;
    if (c.framed) {
      conn.outbox.push_back(std::move(c.bytes));
    } else {
      // Frame (and on a v3 channel dictionary-code) the canonical payload
      // HERE, where responses are back in wire order — the only order the
      // client's mirrored table can follow. Runs under conn.mu, which
      // serializes every caller of the session's outbound half.
      ByteWriter framed(buffer_pool_.acquire(c.bytes.size() + 64));
      conn.session.frame_message(framed, c.bytes, encoding_->content_type());
      buffer_pool_.release(std::move(c.bytes));
      conn.outbox.push_back(framed.take());
    }
    conn.completed.erase(it);
    ++conn.next_to_send;
    --conn.inflight;
    // Counted when the reply is committed to the wire queue, matching
    // the pool's "count before the bytes leave" rule.
    ++exchanges_;
    obs_.count_exchange();
  }
}

void SoapEventServer::complete(const std::shared_ptr<Conn>& conn,
                               std::uint64_t seq,
                               std::vector<std::uint8_t> frame, bool framed) {
  bool notify = false;
  {
    std::lock_guard lock(conn->mu);
    if (conn->dead) {
      buffer_pool_.release(std::move(frame));
      if (conn->inflight > 0) --conn->inflight;
      return;
    }
    conn->completed.emplace(seq, Completed{std::move(frame), framed});
    const std::size_t before = conn->outbox.size();
    release_ready_locked(*conn);
    notify = conn->outbox.size() != before;
  }
  if (notify) request_flush(conn);
}

void SoapEventServer::request_flush(const std::shared_ptr<Conn>& conn) {
  Reactor& r = *conn->owner;
  bool first = false;
  {
    std::lock_guard lock(r.mu);
    first = r.flush_queue.empty() && r.resume_queue.empty() &&
            r.incoming.empty();
    r.flush_queue.push_back(conn);
  }
  // The owning reactor drains its whole inbox per wakeup, so only the
  // emptiness transition needs a signal — under load this coalesces a
  // burst of completions into one eventfd write + one epoll wakeup.
  if (first) r.wakeup.signal();
}

void SoapEventServer::request_resume(const std::shared_ptr<Conn>& conn) {
  Reactor& r = *conn->owner;
  bool first = false;
  {
    std::lock_guard lock(r.mu);
    first = r.flush_queue.empty() && r.resume_queue.empty() &&
            r.incoming.empty();
    r.resume_queue.push_back(conn);
  }
  if (first) r.wakeup.signal();
}

/// Body of a stream's dedicated thread: run the handler between the two
/// bounded queues, then report how it ended.
void SoapEventServer::stream_main(std::shared_ptr<Conn> conn,
                                  std::shared_ptr<StreamState> st) {
  struct QueueSource final : StreamSource {
    SoapEventServer* srv;
    const std::shared_ptr<Conn>& conn;
    StreamState* st;
    QueueSource(SoapEventServer* s, const std::shared_ptr<Conn>& c,
                StreamState* t)
        : srv(s), conn(c), st(t) {}
    std::optional<StreamChunk> next() override {
      StreamChunk c;
      {
        std::unique_lock lock(st->mu);
        st->cv.wait(lock, [&] {
          return !st->in.empty() || st->in_end || st->dead;
        });
        if (st->dead) throw TransportError("connection dropped mid-stream");
        if (st->in.empty()) return std::nullopt;
        c = std::move(st->in.front());
        st->in.pop_front();
        st->in_bytes -= c.bytes.size();
      }
      if (srv->stream_buffered_ != nullptr) {
        srv->stream_buffered_->sub(c.bytes.size());
      }
      srv->request_resume(conn);  // in-queue has room: re-open the tap
      return c;
    }
  } source(this, conn, st.get());

  // The response's wire chunks — compressed and, on a signed connection,
  // authenticated by the session's encoder, whose transmit authenticator
  // belongs to this thread — go into the bounded out-queue.
  struct QueueSink final : StreamSink {
    SoapEventServer* srv;
    const std::shared_ptr<Conn>& conn;
    StreamState* st;
    ChunkEncoder encoder;
    bool pushed_any = false;
    QueueSink(SoapEventServer* s, const std::shared_ptr<Conn>& c,
              StreamState* t)
        : srv(s), conn(c), st(t) {}
    void write(StreamChunk c) override { push(encoder.encode(std::move(c))); }
    void finish() override {
      for (StreamChunk& c : encoder.finish()) push(std::move(c));
    }
    void push(StreamChunk c) {
      const bool is_end = c.kind == ChunkKind::kEnd;
      if (!pushed_any) {
        // The response's BXTP v2 header rides the queue as a frame with
        // no chunk header of its own (hdr already "written").
        ByteWriter h(srv->buffer_pool_.acquire(64));
        encode_stream_header(h, srv->encoding_->content_type());
        OutFrame hf;
        hf.hdr_off = hf.hdr.size();
        hf.bytes = h.take();
        enqueue(std::move(hf), false);
      }
      OutFrame f;
      f.hdr[0] = static_cast<std::uint8_t>(c.kind);
      store<std::uint64_t>(c.bytes.size(), ByteOrder::kBig, f.hdr.data() + 1);
      f.bytes = std::move(c.bytes);
      enqueue(std::move(f), is_end);
    }
    void enqueue(OutFrame f, bool is_end) {
      const std::size_t n = f.bytes.size();
      {
        std::unique_lock lock(st->mu);
        st->cv.wait(lock, [&] {
          return st->out.size() < kStreamQueueDepth || st->dead;
        });
        if (st->dead) throw TransportError("connection dropped mid-stream");
        st->out.push_back(std::move(f));
        st->out_bytes += n;
        if (is_end) st->out_end = true;
        pushed_any = true;
      }
      if (srv->stream_buffered_ != nullptr) srv->stream_buffered_->add(n);
      srv->request_flush(conn);
    }
  } sink(this, conn, st.get());

  StreamRequest request(st->content_type, source);
  ResponseWriter response(sink, buffer_pool_, stream_chunk_bytes_,
                          encoding_.get());
  soap::Fault fault;
  bool faulted = false;
  bool torn = false;
  try {
    sink.encoder = conn->session.chunk_encoder();
    stream_handler_(request, response);
    if (!response.finished()) response.finish();
    // An unread request tail would starve the parked connection forever;
    // consume and recycle it.
    request.drain(buffer_pool_);
  } catch (const TransportError&) {
    torn = true;  // connection already dead or dying; nothing to send
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
  if (faulted) {
    if (sink.pushed_any) {
      // Chunks already committed to the wire queue cannot be retracted.
      torn = true;
      faulted = false;
    } else {
      try {
        request.drain(buffer_pool_);
        soap::SoapEnvelope env = soap::SoapEnvelope::make_fault(fault);
        ByteWriter out(buffer_pool_.acquire(256));
        const std::size_t len_pos =
            begin_frame(out, encoding_->content_type());
        encoding_->serialize_into(env.document(), out);
        end_frame(out, len_pos);
        std::lock_guard lock(st->mu);
        st->fault_frame = out.take();
      } catch (...) {
        torn = true;
        faulted = false;
      }
    }
  }
  {
    std::lock_guard lock(st->mu);
    if (faulted || torn) st->failed = true;
    st->exited = true;
  }
  request_flush(conn);  // the reactor advances (or cuts) the stream
}

}  // namespace bxsoap::transport
