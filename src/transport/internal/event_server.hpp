// SoapEventServer — the scalable sibling of SoapServerPool.
// INTERNAL header: construct via SoapServer::create (transport/server.hpp).
//
// The pool burns one OS thread per connection, which is honest but tops
// out long before "millions of users": at N connections the kernel
// schedules N mostly-idle threads, and every blocked read pins a stack.
// This server serves the same ServerConfig surface on SHARDED epoll
// reactors: `reactor_threads` threads (default one per core) each own a
// slice of the connections end-to-end — their epoll set, their frame
// reassembly, their outbox writes, their idle sweep, their eventfd — and
// a small fixed worker pool (default hardware_concurrency) runs the CPU
// work: decode, handler, encode. Thread count is bounded by cores, not by
// clients, and no lock is shared between reactors on the data path: a
// connection's life happens entirely on its owning shard, with workers
// and stream threads signalling completions through that shard's private
// queues and eventfd.
//
// Connections reach their shard one of two ways. Default: reactor 0 owns
// the single listener and deals accepted sockets round-robin (exactly
// fair, deterministic — N shards under 4N clients each see 4). With
// ServerConfig::reuse_port, every reactor binds its own SO_REUSEPORT
// listener on the shared port and the kernel's 4-tuple hash spreads the
// load (no handoff at all, but statistically balanced rather than fair).
//
// Pipelining: a client may write many frames back to back on one
// connection. Each request gets a per-connection sequence number when the
// connection's Session surfaces it; workers complete them in any order; the
// connection's completion map releases responses strictly in sequence, so
// M pipelined requests always produce M in-order responses. (Handlers for
// requests of ONE connection may run concurrently — ordering is restored
// at the write queue, not in the handler.)
//
// Streaming (BXTP v2): a chunked frame must not monopolize a worker (the
// handler blocks on chunk arrival) nor flood the reactor (a 256 MiB stream
// cannot be assembled). Each active stream gets a DEDICATED thread and two
// depth-1 queues: the owning reactor pushes request chunks in; the handler
// pushes framed response chunks out. When the in-queue is full the reactor
// parks the connection's EPOLLIN, so a fast sender backs up into the
// kernel's TCP window; when the out-queue is full the handler blocks, so a
// slow receiver stalls its own stream and nothing else. Park and wake
// always target the connection's OWNING reactor. Per-stream residency is
// therefore ~2 chunk buffers regardless of message size. A stream's
// response occupies its request's sequence slot: the outbox holds earlier
// responses first, then the stream flushes to the wire directly, then
// later pipelined responses — order is preserved across both paths.
//
// The PR 3 zero-copy path carries over intact: receive payloads are
// pool-recycled SharedBuffers decoded as view spans, responses serialize
// into one pooled buffer behind a reserved BXTP header, and the reactor
// writes that single buffer per response. The BufferPool's per-thread
// caches (PR 6) mean each reactor and worker recycles through a private
// free list, so the pool's shared mutex is off the hot path too.
//
// Overload (DESIGN.md §12): with max_queue_depth set, the shared worker
// queue is BOUNDED. A request that fills the queue to the bound parks its
// connection's EPOLLIN (the same kernel-TCP-window backpressure streaming
// uses; workers reopen the tap at half the bound); a request arriving
// while the queue is already full — racing shards, or frames behind it in
// the same read buffer — is shed at admission with a pre-encoded
// retryable soap:Server/"Overloaded" fault in its pipeline slot, so the
// queue provably never exceeds the bound and pipelined responses stay
// ordered. max_inflight_per_conn sheds the same way per connection, so a
// firehose pipeliner cannot monopolize the queue. Workers drop requests
// whose stamped Deadline expired while queued (after decode, before the
// handler) and publish the remaining budget to handlers via
// soap::DeadlineScope.
//
// Failure taxonomy matches the pool: DecodeError -> in-band soap:Client
// fault, SoapFaultError/std::exception -> fault envelope, frame-level
// TransportError (bad magic, over-limit length) -> the connection is cut.
// A stream handler that fails before its first response chunk gets a v1
// fault envelope; after that the connection is cut (chunks cannot be
// retracted). read_timeout_ms is the same slowloris defense: a peer that
// goes silent for that long is disconnected by its shard's idle sweep
// (a connection parked by OUR backpressure is exempt).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/observer.hpp"
#include "soap/any_engine.hpp"
#include "soap/envelope.hpp"
#include "transport/respcache.hpp"
#include "transport/server.hpp"
#include "transport/session.hpp"
#include "transport/socket.hpp"
#include "transport/stream.hpp"

namespace bxsoap::transport {

class SoapEventServer : public SoapServer {
 public:
  using Handler = ServerConfig::Handler;

  /// Starts the reactors and workers immediately.
  explicit SoapEventServer(ServerConfig config);
  ~SoapEventServer() override;

  std::uint16_t port() const noexcept override {
    return listeners_.front().port();
  }

  /// Connections currently owned by a reactor (or in flight to one).
  std::size_t active_connections() const noexcept override {
    return active_.load();
  }
  /// Total exchanges completed (response queued for the wire) since start.
  std::size_t exchanges() const noexcept override { return exchanges_.load(); }
  /// Exchanges whose response was a fault envelope.
  std::size_t faults() const noexcept override { return faults_.load(); }
  /// Reactor shards serving this instance.
  std::size_t reactor_count() const noexcept { return reactors_.size(); }
  /// Reactors plus the fixed worker pool (transient per-stream threads are
  /// not counted; they live only as long as one chunked exchange).
  std::size_t serving_threads() const noexcept override {
    return reactors_.size() + workers_.size();
  }

  /// Graceful shutdown: stop accepting and reading, let every request
  /// already assembled finish its handler and flush its response (up to
  /// drain_timeout), then close everything. Idempotent.
  void stop() override;

 private:
  struct Reactor;

  /// A response chunk frame staged for the wire: 9-byte chunk header +
  /// pooled body, written without re-copying the body.
  struct OutFrame {
    std::array<std::uint8_t, 9> hdr{};
    std::vector<std::uint8_t> bytes;
    std::size_t hdr_off = 0;   // header bytes already written
    std::size_t body_off = 0;  // body bytes already written
  };

  /// One active chunked exchange: the handshake between the owning reactor
  /// (both queues' far end) and the stream's dedicated handler thread.
  struct StreamState {
    std::mutex mu;
    std::condition_variable cv;  // stream thread waits: in empty / out full
    std::deque<StreamChunk> in;  // reactor -> handler (cap kStreamQueueDepth)
    bool in_end = false;         // end chunk arrived; no more input
    std::deque<OutFrame> out;    // handler -> reactor (cap kStreamQueueDepth)
    bool out_end = false;        // end frame queued; no more output
    bool failed = false;         // handler threw: fault or cut the conn
    bool dead = false;           // connection dropped: handler must bail
    bool exited = false;         // stream thread finished; join is instant
    /// Reactor-only: a response byte reached the wire. Decides whether a
    /// failed handler can still be answered with an in-band v1 fault.
    bool wire_started = false;
    /// Set with `failed` when the handler faulted before any response
    /// chunk: a fully framed v1 fault envelope to send in the stream's
    /// sequence slot instead.
    std::vector<std::uint8_t> fault_frame;
    std::size_t in_bytes = 0;    // queue accounting (waterline)
    std::size_t out_bytes = 0;
    std::string content_type;
    std::uint64_t seq = 0;  // the response sequence this stream occupies
    std::thread thread;
  };

  /// A response staged in the completion map. v1 responses serialized by
  /// a worker arrive fully framed; v3 responses and every cache hit arrive
  /// as the canonical UNFRAMED payload and are framed in
  /// release_ready_locked — the dictionary transform must run in wire
  /// order, which only the in-order release point can guarantee.
  struct Completed {
    std::vector<std::uint8_t> bytes;
    bool framed = true;
  };

  /// One connection's reactor-plus-worker shared state. The owning reactor
  /// has the socket and the session's inbound half exclusively; everything
  /// under `mu` is the response-ordering handshake with the workers and
  /// stream threads.
  struct Conn {
    Conn(TcpStream s, const Session::Config& cfg)
        : stream(std::move(s)), session(Session::Role::kServer, cfg) {}

    Reactor* owner = nullptr;  // fixed at adoption; read by any thread
    TcpStream stream;          // reactor-only
    /// BXTP state (transport/session.hpp). Inbound half: reactor-only —
    /// messages and chunks leave it in wire order, the order the receive
    /// dictionary and authenticator need. Outbound frame_message(): only in
    /// release_ready_locked under `mu`, where responses are back in wire
    /// order. Its negotiated values are settled by the handshake before any
    /// request or stream of the connection reaches a worker or stream
    /// thread; the job queue and stream start hand-offs order those reads.
    Session session;
    std::uint64_t next_seq = 0;  // reactor-only: next request sequence
    std::chrono::steady_clock::time_point last_activity;  // reactor-only
    bool want_write = false;   // reactor-only: EPOLLOUT armed
    bool read_closed = false;  // reactor-only: peer EOF seen
    /// Reactor-only streaming state: the stream currently receiving input,
    /// whether EPOLLIN is parked on a full in-queue, and socket bytes read
    /// but not yet fed to the assembler when the park hit mid-buffer.
    std::shared_ptr<StreamState> rx_stream;
    bool stream_parked = false;
    std::vector<std::uint8_t> stream_backlog;
    /// Reactor-only: EPOLLIN parked because this connection filled the
    /// worker queue to max_queue_depth (admission backpressure). Resumed
    /// by the owning reactor once workers drain the queue to half.
    bool queue_parked = false;

    std::mutex mu;
    /// Responses completed out of order, keyed by request sequence.
    std::map<std::uint64_t, Completed> completed;
    /// In-order responses waiting for (or mid-) socket write.
    std::deque<std::vector<std::uint8_t>> outbox;
    std::size_t out_offset = 0;  // bytes of outbox.front() already sent
    std::uint64_t next_to_send = 0;  // sequence the outbox tail expects
    std::size_t inflight = 0;  // requests dispatched, response not in outbox
    /// Streams by sequence; flushed to the wire when their turn comes.
    std::map<std::uint64_t, std::shared_ptr<StreamState>> streams;
    bool dead = false;  // reactor dropped the conn; workers discard results
  };

  struct Job {
    std::shared_ptr<Conn> conn;
    std::uint64_t seq = 0;
    soap::WireMessage request;
    /// Admission time: the stamped Deadline header counts from here, so
    /// queueing delay is charged against the client's budget.
    std::chrono::steady_clock::time_point enqueued;
  };

  /// One shard: a reactor thread plus everything it owns. Nothing here is
  /// touched by another reactor's loop; `mu` guards only the inbound
  /// handoff queues that workers, stream threads, and (in accept-assign
  /// mode) reactor 0 push into.
  struct Reactor {
    std::size_t index = 0;
    Epoll epoll;
    EventFd wakeup;
    /// The listener this reactor accepts on: every reactor in reuse_port
    /// mode, only reactor 0 otherwise (others leave it null).
    TcpListener* listener = nullptr;
    bool accept_armed = false;  // reactor-only
    std::unordered_map<int, std::shared_ptr<Conn>> conns;  // reactor-only

    /// Cross-thread inbox. `incoming` carries accepted sockets dealt to
    /// this shard; flush/resume are the worker/stream completion queues.
    std::mutex mu;
    std::vector<TcpStream> incoming;
    std::vector<std::shared_ptr<Conn>> flush_queue;
    std::vector<std::shared_ptr<Conn>> resume_queue;

    obs::Histogram* loop_ns = nullptr;  // reactor.N.loop.ns
    obs::Counter* assigned = nullptr;   // reactor.N.connections

    /// Reactor-only: how many of this shard's connections are
    /// queue_parked, so the unpark scan is skipped when none are.
    std::size_t queue_parked_conns = 0;

    std::thread thread;
  };

  void reactor_loop(Reactor& r);
  void worker_loop();

  // Reactor-side helpers. Those taking a Conn run on its owning reactor.
  void accept_ready(Reactor& r);
  void adopt(Reactor& r, TcpStream stream);
  void read_ready(const std::shared_ptr<Conn>& conn);
  bool pump(const std::shared_ptr<Conn>& conn,
            std::span<const std::uint8_t> data);
  void dispatch(const std::shared_ptr<Conn>& conn, soap::WireMessage request);
  bool on_stream_chunk(const std::shared_ptr<Conn>& conn, SessionEvent ev);
  void begin_stream(const std::shared_ptr<Conn>& conn,
                    std::string content_type);
  void resume_stream_read(const std::shared_ptr<Conn>& conn);
  void flush(const std::shared_ptr<Conn>& conn);
  void drop(const std::shared_ptr<Conn>& conn);
  void sweep_idle(Reactor& r);
  /// Admission backpressure: close the connection's read tap because it
  /// filled the worker queue; reopened by maybe_unpark_queue.
  void park_for_queue(const std::shared_ptr<Conn>& conn);
  /// Re-arm EPOLLIN on this shard's queue-parked connections once the
  /// workers have drained the queue to half of max_queue_depth.
  void maybe_unpark_queue(Reactor& r);
  /// Refuse one request at admission: recycle its payload and complete
  /// its sequence slot with the pre-encoded retryable Overloaded fault.
  void shed(const std::shared_ptr<Conn>& conn, std::uint64_t seq,
            soap::WireMessage request);
  void update_listener_interest(Reactor& r);
  bool fully_drained(Conn& conn);
  /// conn.mu held: move newly in-order completed responses to the outbox.
  void release_ready_locked(Conn& conn);

  // Worker-side helper: hand a finished response to the connection.
  // `framed` false means `frame` is a canonical payload still to be
  // framed (and on a v3 channel dictionary-coded) at release time.
  void complete(const std::shared_ptr<Conn>& conn, std::uint64_t seq,
                std::vector<std::uint8_t> frame, bool framed = true);
  // Stream-thread body and its owning-reactor notifications.
  void stream_main(std::shared_ptr<Conn> conn,
                   std::shared_ptr<StreamState> st);
  void request_flush(const std::shared_ptr<Conn>& conn);
  void request_resume(const std::shared_ptr<Conn>& conn);

  std::unique_ptr<soap::AnyEncoding> encoding_;
  Handler handler_;
  StreamHandler stream_handler_;
  std::size_t stream_chunk_bytes_ = 1u << 20;
  /// Declared before listeners_/threads so it outlives every SharedBuffer
  /// still referenced by in-flight decoded trees at teardown.
  BufferPool buffer_pool_;
  /// One listener in accept-assign mode; one per reactor with reuse_port.
  std::vector<TcpListener> listeners_;
  int read_timeout_ms_ = 0;
  std::size_t max_connections_ = 0;
  std::chrono::milliseconds drain_timeout_{1000};

  // Overload control (DESIGN.md §12). The shed frame is pre-encoded once:
  // refusing work must not cost a serialize on the reactor thread.
  std::size_t max_queue_depth_ = 0;
  std::size_t max_inflight_per_conn_ = 0;
  std::vector<std::uint8_t> shed_frame_;
  /// What every connection's BXTP session is built from: frame limits,
  /// this server's v3 offers (dictionary, transforms, stream auth) and the
  /// dict.*, compress.* and sec.* counters.
  Session::Config session_cfg_;
  /// Idempotent-response cache; engaged only when the config declares
  /// idempotent operations.
  std::optional<ResponseCache> respcache_;
  IdempotentOpSet idempotent_ops_;
  /// Mirror of jobs_.size(), readable without jobs_mu_ (reactors poll it
  /// on every loop pass to decide unparking).
  std::atomic<std::size_t> queue_depth_{0};
  /// Total queue-parked connections across shards; workers consult it to
  /// decide whether draining below half the bound warrants a wakeup.
  std::atomic<std::size_t> queue_parked_total_{0};

  obs::MetricsObserver obs_;  // detached when no registry is given
  obs::IoStats* io_ = nullptr;
  obs::Gauge* active_gauge_ = nullptr;
  obs::Gauge* queue_depth_gauge_ = nullptr;
  obs::Counter* accepted_ = nullptr;
  obs::Counter* wakeups_ = nullptr;
  obs::Counter* pipelined_ = nullptr;
  obs::Counter* shed_ = nullptr;       // requests refused with Overloaded
  obs::Counter* parks_ = nullptr;      // overload.parks: read taps closed
  obs::Counter* expired_ = nullptr;    // expired.dropped: deadline drops
  obs::Waterline* queue_waterline_ = nullptr;  // worker queue residency
  obs::Counter* stream_chunks_ = nullptr;    // request chunks received
  obs::Counter* stream_flushes_ = nullptr;   // response chunk frames sent
  obs::Waterline* stream_buffered_ = nullptr;  // stream queue residency
  obs::Histogram* loop_ns_ = nullptr;  // rollup across all shards

  /// The shards. unique_ptr keeps each Reactor's address stable for
  /// Conn::owner across the vector's lifetime.
  std::vector<std::unique_ptr<Reactor>> reactors_;
  std::size_t next_reactor_ = 0;  // reactor-0-only: round-robin cursor

  // Worker job queue (shared by all shards; workers are a common pool).
  std::mutex jobs_mu_;
  std::condition_variable jobs_cv_;
  std::deque<Job> jobs_;

  std::vector<std::thread> workers_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<std::size_t> active_{0};
  std::atomic<std::size_t> exchanges_{0};
  std::atomic<std::size_t> faults_{0};
};

}  // namespace bxsoap::transport
