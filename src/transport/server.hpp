// The unified server surface: one config, one interface, two concurrency
// models.
//
// SoapServerPool (thread-per-connection) and SoapEventServer (sharded epoll
// reactors + worker pool) answer the same wire protocol and expose the same
// statistics; what differs is how they spend threads. This header makes
// that a RUNTIME choice: build one ServerConfig, pick a ConcurrencyModel,
// and SoapServer::create returns whichever implementation fits the
// deployment. Benchmarks and chaos tests drive both models through this
// interface with the selection as a parameter instead of a code path.
//
// This API is STABLE as of PR 6: SoapServer::create is the only way to
// construct a server (the concrete classes live in transport/internal/ and
// are not part of the public surface), ServerConfig is validated up front,
// and the metrics contract below is fixed. Reactor topology is a config
// knob (`reactor_threads`), not a third server class.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include <vector>

#include "bxsa/dict.hpp"
#include "common/buffer_pool.hpp"
#include "obs/observer.hpp"
#include "soap/any_engine.hpp"
#include "soap/envelope.hpp"
#include "transport/auth.hpp"
#include "transport/compress.hpp"
#include "transport/framing.hpp"
#include "transport/stream.hpp"

namespace bxsoap::transport {

/// How a server spends threads on connections.
enum class ConcurrencyModel {
  kThreadPerConnection,  ///< SoapServerPool: one blocking worker per client
  kEventLoop,            ///< SoapEventServer: epoll reactors + fixed workers
};

/// Everything either server needs. Only `encoding` and `handler` (or
/// `stream_handler`) are mandatory; the rest default to the historical
/// behavior.
struct ServerConfig {
  using Handler = std::function<soap::SoapEnvelope(soap::SoapEnvelope)>;

  std::unique_ptr<soap::AnyEncoding> encoding;
  Handler handler;

  /// Serves BXTP v2 chunked exchanges (see transport/stream.hpp). Null =
  /// chunked frames are a protocol error and cut the connection; `handler`
  /// keeps serving v1 frames either way, so one endpoint can speak both.
  StreamHandler stream_handler;

  /// Flush granularity for streamed responses: the unit of buffering, and
  /// with it the per-stream memory bound (a stream parks at most one chunk
  /// inbound and one outbound). Must not exceed
  /// frame_limits.max_chunk_bytes — a server must never emit chunks it
  /// would itself refuse to accept.
  std::size_t stream_chunk_bytes = 1u << 20;  // 1 MiB

  /// Port to listen on; 0 requests a kernel-assigned ephemeral port (read
  /// it back via port()).
  std::uint16_t port = 0;
  int backlog = 64;

  /// Observability hook. When set, the server records under
  /// "<metrics_prefix>.*": per-stage timings and exchange/fault counts
  /// (MetricsObserver naming scheme), connections.active /
  /// workers.unreaped gauges, connections.accepted counter, io.* socket
  /// tallies, pool.hit / pool.miss / pool.recycled_bytes buffer-pool
  /// counters, bxsa.* codec stats if the encoding supports them, and
  /// stream.{chunks,flushes,buffered_bytes} for the chunked path (the
  /// waterline's peak field is the residency high-water mark), plus the
  /// overload-control tallies: shed (requests refused with an Overloaded
  /// fault) and expired.dropped (requests dropped after decode because
  /// their deadline had passed). The event server adds reactor.*
  /// (wakeups, queue.depth, rolled-up loop.ns), per-shard
  /// reactor.N.{loop.ns,connections}, overload.parks (connections whose
  /// EPOLLIN was parked on a full worker queue), and the queue.waterline
  /// whose peak proves the max_queue_depth bound held. The registry must
  /// outlive the server. Null = zero instrumentation.
  obs::Registry* registry = nullptr;
  /// Metric namespace. Empty (the default) = create() picks the model's
  /// canonical prefix: "pool" for kThreadPerConnection, "event" for
  /// kEventLoop, so snapshots from the two models never collide.
  std::string metrics_prefix;

  // ---- hardening knobs ------------------------------------------------------

  /// Per-connection read timeout in milliseconds (slowloris defense): a
  /// peer that opens a frame and stalls gets disconnected instead of
  /// pinning a worker forever. 0 (the default) keeps the historical
  /// block-forever behavior, which idle keep-alive clients rely on.
  int read_timeout_ms = 0;

  /// Ceilings on incoming frames; every declared length is checked
  /// against these BEFORE any allocation.
  FrameLimits frame_limits{};

  /// Maximum concurrent worker threads; 0 = unbounded. At the ceiling the
  /// accept loop stops accepting, so excess clients queue in the kernel's
  /// listen backlog (and beyond it, get connection refused) instead of
  /// spawning unbounded threads. The event server reads this as its
  /// connection ceiling: at the limit it parks the listener(s) instead of
  /// spawning anything, with the same kernel-backlog overflow.
  std::size_t max_workers = 0;

  /// Admission bound on requests read off the wire but not yet served;
  /// 0 = unbounded (the historical behavior — and an unbounded memory /
  /// latency liability under sustained overload). On the event server
  /// this bounds the shared worker queue: when an admitted request fills
  /// the queue to this depth the producing connection's EPOLLIN is
  /// PARKED (backpressure through the kernel TCP window, the same
  /// mechanism streaming uses) until workers drain it to half; a request
  /// that arrives while the queue is already full is SHED — answered
  /// immediately, in its pipeline slot, with a retryable
  /// soap:Server/"Overloaded" fault carrying a Retry-After hint, and the
  /// queue never exceeds this depth. On the thread-per-connection pool —
  /// which has no shared queue — this bounds concurrently in-flight
  /// exchanges (request read, response not yet written); a request past
  /// the bound is shed with the same fault. See DESIGN.md §12.
  std::size_t max_queue_depth = 0;

  /// SoapEventServer only: pipelined requests one connection may have in
  /// flight (dispatched, response not yet released) before further
  /// requests on that connection are shed with the Overloaded fault, so
  /// one firehose pipeliner cannot monopolize the worker queue. 0 =
  /// unbounded. A validation error with kThreadPerConnection, which
  /// serves each connection serially (its in-flight depth is already 1).
  std::size_t max_inflight_per_conn = 0;

  /// Retry-After hint (milliseconds) carried in the detail of shed
  /// Overloaded faults: the backoff floor a well-behaved client
  /// (ReliableCaller) waits before retrying. Must be >= 0.
  std::chrono::milliseconds shed_retry_after{50};

  /// SoapEventServer only: size of the fixed worker pool that runs
  /// decode/handle/encode off the reactors. 0 = hardware_concurrency.
  /// Setting it with kThreadPerConnection is a validation error (that
  /// model's workers are one-per-connection by definition).
  std::size_t worker_threads = 0;

  /// SoapEventServer only: number of reactor shards, each owning its
  /// connections' socket I/O end-to-end (own epoll set, outbox, idle
  /// sweep, eventfd). 0 = one per core. Setting it with
  /// kThreadPerConnection is a validation error.
  std::size_t reactor_threads = 0;

  /// SoapEventServer only: give every reactor its own SO_REUSEPORT
  /// listener and let the kernel spread connections across shards, instead
  /// of the default single accept loop that assigns round-robin. Kernel
  /// hashing balances well at scale but is not deterministic; the default
  /// is exactly fair.
  bool reuse_port = false;

  /// Sizing of the server's payload BufferPool (size classes, shared-tier
  /// cap, per-thread cache depth). The defaults suit hundreds of
  /// connections; a c10k deployment should raise max_buffers_per_class
  /// toward its expected concurrent connection count so steady-state
  /// acquire stays a pool hit.
  BufferPool::Config buffer_pool{};

  /// How long stop() waits for in-flight exchanges (request already read,
  /// response not yet written) to finish before force-closing them. Idle
  /// connections are cut immediately.
  std::chrono::milliseconds drain_timeout{1000};

  // ---- BXTP v3: per-channel dictionaries + response cache -------------------

  /// Answer a BXTP v3 Hello with an Accept and serve dictionary-coded
  /// messages on that connection (FORMAT.md §"BXTP v3"). Off = a v3 frame
  /// is rejected exactly as by a pre-v3 server, which is the downgrade
  /// trigger a probing client detects. v1/v2 clients are served
  /// byte-identically either way — v3 is purely opt-in by the peer.
  bool accept_v3 = true;

  /// This server's symbol-table offer for v3 negotiation; the effective
  /// per-connection table is the element-wise min of both sides' offers.
  /// max_entries=0 yields an empty table: v3 framing is still spoken but
  /// every symbol stays literal.
  bxsa::DictLimits dict_limits{};

  /// This server's compression-transform offer for v3 negotiation
  /// (transport/compress.hpp transforms:: bitmask). The effective
  /// per-connection set is the intersection of both sides' offers; the
  /// server then compresses its v3 responses and streamed chunks
  /// adaptively and accepts compressed frames from the peer. 0 (the
  /// default) = never offer: a compressing client downgrades to plain
  /// framing byte-identically ("plain-v3" in the downgrade matrix).
  std::uint8_t compress_transforms = 0;

  /// The adaptivity heuristic for outgoing compression (entropy-probe
  /// thresholds; see DESIGN.md §14). Only consulted when a connection
  /// negotiated a non-empty transform set.
  CompressPolicy compress_policy{};

  /// This server's stream-authentication offer for v3 negotiation (a
  /// soap::MessageSecurity policy's stream_auth(); transport/auth.hpp).
  /// The effective per-connection algorithm is the lowest bit of the
  /// intersection of both sides' offers; on a connection that negotiated
  /// one, EVERY chunked stream — requests verified incrementally before
  /// End reaches the handler, responses signed as they flush — carries an
  /// Auth trailer (FORMAT.md). A tag mismatch cuts the connection with a
  /// retryable fault. Default (empty) = never offer: a signing client
  /// downgrades to unsigned streams, byte-identical to pre-auth framing.
  /// Requires accept_v3 (validated): authentication is negotiated by the
  /// same handshake. With `registry` set, the server records
  /// "<metrics_prefix>.sec.{bytes_authenticated,tag_failures,verify.ns}".
  StreamAuth stream_auth{};

  /// Operation local names (the request Body's child element) whose
  /// handler is idempotent: a byte-identical repeat of such a request may
  /// be answered from the encoded-response cache without decoding or
  /// re-running the handler. The server cannot infer side-effect freedom,
  /// so nothing is cached unless declared here. Empty = caching off.
  std::vector<std::string> idempotent_ops;

  /// Bounds on the idempotent-response cache (sum of cached keys +
  /// payloads; entries split across internal shards). Only consulted when
  /// idempotent_ops is non-empty.
  std::size_t respcache_max_entries = 1024;
  std::size_t respcache_max_bytes = 4u << 20;  // 4 MiB

  /// Check this config against `model`. Returns an empty string when the
  /// config is usable, otherwise a "; "-separated list of actionable
  /// errors. create() calls this and throws TransportError on any error.
  std::string validate(ConcurrencyModel model) const;
};

/// What every server implementation answers for. Construct via create():
/// the concrete classes (transport/internal/) are implementation detail.
class SoapServer {
 public:
  virtual ~SoapServer() = default;

  virtual std::uint16_t port() const noexcept = 0;
  /// Connections currently being served.
  virtual std::size_t active_connections() const noexcept = 0;
  /// Total exchanges completed since start (streamed exchanges included).
  virtual std::size_t exchanges() const noexcept = 0;
  /// Exchanges whose response was a fault envelope.
  virtual std::size_t faults() const noexcept = 0;
  /// Threads dedicated to serving traffic right now: the pool's live
  /// per-connection workers, or the event server's reactors plus its fixed
  /// worker pool. The number the two concurrency models exist to trade.
  virtual std::size_t serving_threads() const noexcept = 0;
  /// Graceful shutdown; idempotent.
  virtual void stop() = 0;

  /// Construct the implementation for `model`, already listening. Throws
  /// TransportError when config.validate(model) reports errors.
  static std::unique_ptr<SoapServer> create(ConcurrencyModel model,
                                            ServerConfig config);
};

}  // namespace bxsoap::transport
