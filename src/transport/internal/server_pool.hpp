// SoapServerPool — a concurrent SOAP-over-TCP server.
//
// The single-conversation TcpServerBinding is what the engine's policy
// model needs; a deployed service also needs to talk to many clients at
// once. The pool owns the listener, spawns one worker thread per accepted
// connection, and runs the frame/decode/handle/encode/respond loop there.
// Encoding is type-erased (AnyEncoding) so one pool class serves any
// policy; per-message cost is one virtual call, which bench_ablation_engine
// shows is noise.
//
// Construction takes a ServerConfig so options grow by field, not by
// positional argument. Hooking a metrics Registry in gives the full
// per-stage observability story: stage timers, exchange/fault counters,
// connection gauges, socket byte/syscall tallies and BXSA codec stats.
//
// Streaming (BXTP v2): when the config carries a stream_handler, a chunked
// frame flips the connection's worker into a synchronous streaming
// exchange — request chunks are pulled straight off the blocking socket,
// response chunks written straight back — so per-stream residency is one
// chunk each way and backpressure is the socket itself.
//
// Overload (DESIGN.md §12): this model has no shared queue — each worker
// serves its connection serially — so max_queue_depth bounds the number of
// exchanges in flight ACROSS connections (request read, response not yet
// written). A request read while the pool is already at that bound is shed
// with the pre-encoded retryable soap:Server/"Overloaded" fault, written
// in its pipeline slot so earlier queued responses are unaffected. Workers
// also drop requests whose stamped Deadline expired between frame read and
// decode, before the handler runs.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
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

class SoapServerPool : public SoapServer {
 public:
  using Handler = ServerConfig::Handler;

  /// Starts accepting immediately.
  explicit SoapServerPool(ServerConfig config);
  ~SoapServerPool() override;

  std::uint16_t port() const noexcept override { return listener_.port(); }

  /// Connections currently being served.
  std::size_t active_connections() const noexcept override {
    return active_.load();
  }
  /// Total exchanges completed since start.
  std::size_t exchanges() const noexcept override { return exchanges_.load(); }
  /// Exchanges whose response was a fault envelope.
  std::size_t faults() const noexcept override { return faults_.load(); }
  /// One blocking worker per live connection.
  std::size_t serving_threads() const noexcept override {
    return active_.load();
  }

  void stop() override;

 private:
  struct Worker {
    std::thread thread;
    // Set by the worker as its last action; a true flag means join() will
    // not block, so the accept loop can reap opportunistically.
    std::shared_ptr<std::atomic<bool>> done;
  };

  /// A live connection plus whether its worker is mid-exchange (request
  /// read, response not yet written). stop() cuts idle connections at once
  /// but lets busy ones drain.
  struct ConnEntry {
    TcpStream* stream;
    const std::atomic<bool>* busy;
  };

  void accept_loop();
  void serve_connection(TcpStream stream);
  /// One BXTP v2 exchange on the connection's worker thread, whose header
  /// (of type `content_type`) `session` has just surfaced.
  void serve_stream(TcpStream& stream, Session& session,
                    std::string content_type);
  void reap_finished_locked();

  std::unique_ptr<soap::AnyEncoding> encoding_;
  Handler handler_;
  StreamHandler stream_handler_;
  std::size_t stream_chunk_bytes_ = 1u << 20;
  /// Recycles receive payloads and response buffers across exchanges and
  /// connections. Declared before listener_ so it outlives every worker's
  /// SharedBuffer (workers are joined in stop()).
  BufferPool buffer_pool_;
  TcpListener listener_;
  int read_timeout_ms_ = 0;
  std::size_t max_workers_ = 0;
  std::chrono::milliseconds drain_timeout_{1000};
  /// Overload control (DESIGN.md §12): the in-flight exchange bound and
  /// the Overloaded fault frame, pre-encoded once so shedding never pays
  /// for a serialize.
  std::size_t max_queue_depth_ = 0;
  std::vector<std::uint8_t> shed_frame_;
  /// What every connection's BXTP session is built from: frame limits,
  /// this server's v3 offers (dictionary, transforms, stream auth) and the
  /// dict.*, compress.* and sec.* counters.
  Session::Config session_cfg_;
  /// Idempotent-response cache; engaged only when the config declares
  /// idempotent operations.
  std::optional<ResponseCache> respcache_;
  IdempotentOpSet idempotent_ops_;
  /// Exchanges in flight across all connections (request read, response
  /// not yet written); admission compares it against max_queue_depth_.
  std::atomic<std::size_t> inflight_exchanges_{0};
  obs::MetricsObserver obs_;           // detached when no registry is given
  obs::IoStats* io_ = nullptr;         // per-connection socket tallies
  obs::Gauge* active_gauge_ = nullptr;
  obs::Gauge* unreaped_gauge_ = nullptr;
  obs::Counter* accepted_ = nullptr;
  obs::Counter* shed_ = nullptr;       // requests refused with Overloaded
  obs::Counter* expired_ = nullptr;    // expired.dropped: deadline drops
  obs::Counter* stream_chunks_ = nullptr;    // request chunks received
  obs::Counter* stream_flushes_ = nullptr;   // response chunks written
  obs::Waterline* stream_buffered_ = nullptr;  // in-flight stream bytes
  std::thread acceptor_;
  std::mutex workers_mu_;
  std::condition_variable workers_cv_;  // signaled when a worker finishes
  std::vector<Worker> workers_;
  std::mutex conns_mu_;
  std::vector<ConnEntry> conns_;  // live connections, for shutdown/drain
  std::atomic<bool> stopping_{false};
  std::atomic<std::size_t> active_{0};
  std::atomic<std::size_t> exchanges_{0};
  std::atomic<std::size_t> faults_{0};
};

}  // namespace bxsoap::transport
