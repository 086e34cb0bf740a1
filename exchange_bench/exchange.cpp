// exchange — the repository's end-to-end benchmark program.
//
// One process runs one workload: full SOAP exchanges (client -> sharded
// event server -> reply) over real loopback, closed loop, every reply
// verified. run.py builds this binary, runs it, and turns the raw report it
// writes (samples, spans, the server's metrics registry) into the metrics
// BENCHMARK.json names; see README.md for the workloads and the layer map.
//
//   exchange_bench --workload rpc_small --seed 1 --seconds 10 --trace 0
//                  --out report.json
//
// Each run first drives one untimed stack for kPrimeSeconds. --trace 0
// then measures the end-to-end numbers: the whole set-up is repeated
// kSegments times, each one timed and followed by an equal share of
// --seconds. --trace 1 measures the layers: half the time untraced, half
// with every public step of an exchange wrapped in a span, then a replay
// pass that runs the codec steps the binding and the server perform
// (dictionary, compression, HMAC, decode, handler) on the same bytes.
//
// Only public, refactor-stable API is used: SoapServer::create with the
// event-loop model, SoapEngine<BxsaEncoding, TcpClientBinding>, and the
// codec entry points in bxsa/, transport/compress.hpp and
// common/hmac_sha256.hpp.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bxsa/dict.hpp"
#include "bxsa/stream_reader.hpp"
#include "bxsa/stream_writer.hpp"
#include "common/hmac_sha256.hpp"
#include "common/prng.hpp"
#include "netsim/netsim.hpp"
#include "services/verification.hpp"
#include "soap/engine.hpp"
#include "soap/security.hpp"
#include "transport/bindings.hpp"
#include "transport/compress.hpp"
#include "transport/server.hpp"
#include "workload/lead.hpp"
#include "xbs/xbs.hpp"

#ifndef EXCHANGE_BUILD_TYPE
#define EXCHANGE_BUILD_TYPE "unknown"
#endif
#ifndef EXCHANGE_COMPILER
#define EXCHANGE_COMPILER "unknown"
#endif

namespace {

using namespace bxsoap;
using namespace bxsoap::soap;
using namespace bxsoap::transport;
using namespace bxsoap::xdm;

using Engine = SoapEngine<BxsaEncoding, TcpClientBinding>;
using Clock = std::chrono::steady_clock;

// The load shape: one reactor and one worker serve every workload, so
// client connections (at most 2) plus serving threads stay within 4 cores.
constexpr std::size_t kReactorThreads = 1;
constexpr std::size_t kWorkerThreads = 1;
constexpr int kSegments = 10;
constexpr std::size_t kChunk = std::size_t{1} << 20;
constexpr const char* kMacKey = "exchange-benchmark-stream-key";
// Spans are kept in memory; past this many traced exchanges per
// connection the traced phase ends early.
constexpr std::size_t kMaxTracedPerConn = 10000;
// Sample storage reserved per connection and second of measuring; a
// faster system only grows the vectors.
constexpr double kMaxOpsPerConnPerSecond = 100000;
// A fresh process runs its first second or so of exchanges at up to half
// speed while allocator and page state settle, which a long-lived client
// pays once. Each run first drives an untimed stack for this long.
constexpr double kPrimeSeconds = 2.0;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream,
                       std::uint64_t index = 0) {
  SplitMix64 rng(seed ^ (stream * 0x9e3779b97f4a7c15ULL) ^
                 (index * 0xc2b2ae3d27d4eb4fULL));
  return rng.next();
}

// ---- spans -------------------------------------------------------------------

/// Span names, in the order the report's name table lists them.
enum SpanName : std::uint32_t {
  kExchange,
  kEnvelopeBuild,
  kEncode,
  kClientSend,
  kClientWait,
  kDecode,
  kDictEncode,
  kDictDecode,
  kCompress,
  kDecompress,
  kHmac,
  kArrayPack,
  kStreamWrite,
  kStreamRead,
  kHandler,
  kSpanNameCount,
};

constexpr std::array<const char*, kSpanNameCount> kSpanNames = {
    "exchange",          "soap.envelope_build", "bxsa.encode",
    "transport.client_send", "transport.client_wait", "bxsa.decode",
    "bxsa.dict_encode",  "bxsa.dict_decode",    "transport.compress",
    "transport.decompress", "common.hmac",      "xbs.array_pack",
    "bxsa.stream_write", "bxsa.stream_read",    "services.handler",
};

struct Span {
  SpanName name;
  std::uint32_t parent;  // 1-based index of the parent in the same tracer
                         // (a replay's: in connection 0's); 0 = a root
  std::uint64_t xid;     // exchange id shared by every span of one exchange
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::uint64_t bytes;   // bytes the step processed (0 = not a byte step)
  // Replays only: the caller waited for this work inside client_wait (a
  // server-side or response-side step of the real exchange).
  bool on_wait_path;
};

/// One per client connection (and one for replays): single-threaded, so
/// recording is a push_back. Written out only when the run ends.
class Tracer {
 public:
  std::uint32_t add(SpanName name, std::uint32_t parent, std::uint64_t xid,
                    std::int64_t start, std::int64_t end,
                    std::uint64_t bytes = 0, bool on_wait_path = false) {
    spans_.push_back({name, parent, xid, start, end, bytes, on_wait_path});
    return static_cast<std::uint32_t>(spans_.size());
  }
  void close(std::uint32_t id, std::int64_t end) { spans_[id - 1].end_ns = end; }
  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Times `fn` as a span under `parent`; returns what `fn` returns.
template <typename Fn>
auto timed(Tracer& t, SpanName name, std::uint32_t parent, std::uint64_t xid,
           std::uint64_t bytes, Fn&& fn, bool on_wait_path = false) {
  const std::int64_t t0 = now_ns();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    t.add(name, parent, xid, t0, now_ns(), bytes, on_wait_path);
  } else {
    auto result = fn();
    t.add(name, parent, xid, t0, now_ns(), bytes, on_wait_path);
    return result;
  }
}

// ---- per-run bookkeeping ---------------------------------------------------------

/// One connection's results in one phase. Sample storage is reserved and
/// touched up front, so the benchmark's own bookkeeping adds a fixed amount
/// to the process's peak RSS rather than one that grows with the number of
/// exchanges completed.
struct Tally {
  std::vector<std::uint32_t> latency_ns;  // saturates at ~4.29 s
  std::vector<std::uint32_t> ttfb_ns;     // streamed workloads only
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t logical_bytes = 0;
  std::vector<std::string> errors;  // the first few, for the report

  void reserve(std::size_t samples, bool ttfb) {
    latency_ns.resize(samples);
    latency_ns.clear();
    if (ttfb) {
      ttfb_ns.resize(samples);
      ttfb_ns.clear();
    }
  }
  static std::uint32_t clamp(std::int64_t ns) {
    return static_cast<std::uint32_t>(
        std::clamp<std::int64_t>(ns, 0, std::numeric_limits<std::uint32_t>::max()));
  }
  void fail(std::string why) {
    ++failed;
    if (errors.size() < 5) errors.push_back(std::move(why));
  }
};

struct Conn {
  std::size_t index = 0;
  std::unique_ptr<Engine> engine;
  obs::IoStats io;
  std::size_t cursor = 0;   // position in this connection's input sequence
  std::uint64_t next_xid = 0;
  std::size_t traced = 0;
  Tracer tracer;
};

/// Bytes captured from one traced exchange, replayed through the layers
/// that ran out of the benchmark's sight (inside the binding or server).
struct ReplaySample {
  std::uint64_t xid = 0;
  std::uint32_t root = 0;  // the exchange span the replays hang under
  std::size_t input = 0;   // index of the input that was sent
  std::vector<std::uint8_t> request;   // plain BXSA payloads
  std::vector<std::uint8_t> response;
};

struct ReplayTotals {
  std::uint64_t exchanges = 0;
  std::uint64_t dict_saved_bytes = 0;
  std::uint64_t compress_plain_bytes = 0;
  std::uint64_t compress_wire_bytes = 0;
};

// ---- layer replays shared by every workload ------------------------------------

/// Mirrored dictionary state for one direction of a channel: the encoder's
/// and decoder's tables, exactly as a v3 peer pair keeps them.
struct DictMirror {
  bxsa::SymbolDictionary enc{bxsa::DictLimits{}};
  bxsa::SymbolDictionary dec{bxsa::DictLimits{}};
};

BufferPool& pool() { return BufferPool::global(); }

void require(bool ok, const char* what) {
  if (!ok) throw std::runtime_error(what);
}

namespace replay {

/// Dictionary transform of one payload, then the mirror decode;
/// verifies the round trip. The flags say which of the two the caller
/// of a real exchange waits for inside client_wait.
void dict(Tracer& t, std::uint32_t root, std::uint64_t xid,
          std::span<const std::uint8_t> plain, DictMirror& m,
          ReplayTotals& totals, bool encode_waited, bool decode_waited) {
  ByteWriter coded(pool().acquire(plain.size() + 64));
  const bxsa::DictCounts c = timed(
      t, kDictEncode, root, xid, plain.size(),
      [&] { return bxsa::dict_encode(plain, m.enc, coded); }, encode_waited);
  totals.dict_saved_bytes += c.bytes_saved;
  ByteWriter back(pool().acquire(plain.size() + 64));
  timed(
      t, kDictDecode, root, xid, coded.size(),
      [&] { bxsa::dict_decode(coded.bytes(), m.dec, back); }, decode_waited);
  require(back.size() == plain.size() &&
              std::memcmp(back.bytes().data(), plain.data(), plain.size()) == 0,
          "dictionary replay did not round-trip");
  pool().release(coded.take());
  pool().release(back.take());
}

/// Adaptive compression of `plain` in transport-sized chunks (the
/// transport compresses per frame or per streamed chunk), then the
/// matching decompression.
void compress(Tracer& t, std::uint32_t root, std::uint64_t xid,
              std::span<const std::uint8_t> plain, ReplayTotals& totals) {
  for (std::size_t off = 0; off < plain.size(); off += kChunk) {
    const auto piece = plain.subspan(off, std::min(kChunk, plain.size() - off));
    std::vector<std::uint8_t> packed = pool().acquire(piece.size() + 16);
    const Transform used =
        timed(t, kCompress, root, xid, piece.size(), [&] {
          return compress_append(piece, transforms::kAll, CompressPolicy{},
                                 pool(), packed, CompressStats{});
        });
    totals.compress_plain_bytes += piece.size();
    if (used == Transform::kNone) {
      totals.compress_wire_bytes += piece.size();
    } else {
      totals.compress_wire_bytes += packed.size();
      std::vector<std::uint8_t> back =
          timed(t, kDecompress, root, xid, piece.size(), [&] {
            return decompress_body(packed, transforms::kAll, piece.size(),
                                   pool());
          });
      require(back.size() == piece.size() &&
                  std::memcmp(back.data(), piece.data(), piece.size()) == 0,
              "compression replay did not round-trip");
      pool().release(std::move(back));
    }
    pool().release(std::move(packed));
  }
}

void hmac(Tracer& t, std::uint32_t root, std::uint64_t xid,
          std::span<const std::uint8_t> bytes) {
  std::array<std::uint8_t, HmacSha256::kTagSize> tag{};
  timed(t, kHmac, root, xid, bytes.size(), [&] {
    HmacSha256 mac{std::string_view(kMacKey)};
    mac.update(bytes);
    mac.finalize(tag);
  });
}

/// XBS packing of the arrays a message carries.
template <typename... Arrays>
void array_pack(Tracer& t, std::uint32_t root, std::uint64_t xid,
                const Arrays&... arrays) {
  const std::size_t bytes = (... + (arrays.size() * sizeof(arrays[0])));
  std::vector<std::uint8_t> out = timed(t, kArrayPack, root, xid, bytes, [&] {
    xbs::Writer w(host_byte_order(), ByteWriter(pool().acquire(bytes + 64)));
    (w.put_array(std::span(arrays)), ...);
    return w.take();
  });
  pool().release(std::move(out));
}

/// Push-style production of a document through the chunk-mode
/// StreamWriter (flushed chunks are dropped, as a sink that sent them
/// would), then a pull-style StreamReader pass over the reference bytes.
template <typename Produce>
void stream(Tracer& t, std::uint32_t root, std::uint64_t xid,
            Produce&& produce, std::span<const std::uint8_t> reference) {
  std::size_t produced = 0;
  timed(t, kStreamWrite, root, xid, reference.size(), [&] {
    bxsa::StreamWriter w(host_byte_order(), kChunk, pool(),
                         [&](std::vector<std::uint8_t> chunk) {
                           produced += chunk.size();
                           pool().release(std::move(chunk));
                         });
    produce(w);
    w.finish();
  });
  require(produced == reference.size(), "stream replay size mismatch");
  std::size_t seen = 0;
  timed(t, kStreamRead, root, xid, reference.size(), [&] {
    bxsa::StreamReader r(reference);
    while (std::optional<bxsa::StreamEvent> ev = r.next()) {
      if (ev->kind == bxsa::EventKind::kArray) {
        seen += ev->array.payload.size();
      }
    }
  });
  require(seen > 0, "stream replay saw no array payload");
}

}  // namespace replay

// ---- workloads --------------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* family() const = 0;
  virtual std::size_t connections() const = 0;
  /// Exchanges per connection run during set-up, before timing starts.
  virtual std::size_t warmup() const = 0;
  virtual bool uses_cache() const { return false; }
  /// Build every input from the seed (part of set-up).
  virtual void generate(std::uint64_t seed) = 0;
  virtual void configure(ServerConfig& cfg) const = 0;
  virtual void configure(TcpClientBinding& binding) const = 0;
  /// One exchange, verified; throws or calls tally.fail on a bad reply.
  /// With `trace` set, every public step gets a span.
  virtual void exchange(Conn& conn, Tally& tally, bool trace) = 0;
  /// Replay the hidden layers on the bytes of traced exchanges.
  virtual void replay(Tracer& t, ReplayTotals& totals) = 0;
};

/// rpc_small and dataset_1m: materialized call() with LEAD datasets and the
/// verification service.
class MaterializedWorkload final : public Workload {
 public:
  struct Params {
    std::size_t leads;
    std::size_t hot;             // repeated requests (0 = one input only)
    std::size_t fresh_per_conn;  // distinct requests cycled per connection
    std::size_t conns;
    std::size_t warmup;
    bool v3_cache;               // v3 + dictionaries + idempotent cache
    std::size_t replay_samples;
  };

  explicit MaterializedWorkload(Params p) : p_(p) {}

  const char* family() const override { return "materialized"; }
  std::size_t connections() const override { return p_.conns; }
  std::size_t warmup() const override { return p_.warmup; }
  bool uses_cache() const override { return p_.v3_cache; }

  void generate(std::uint64_t seed) override {
    datasets_.clear();
    expected_.clear();
    logical_.clear();
    sequences_.assign(p_.conns, {});
    const auto add = [&](std::uint64_t s) {
      datasets_.push_back(workload::make_lead_dataset(p_.leads, s));
      expected_.push_back(services::verify_dataset(datasets_.back()));
      const BxsaEncoding enc;
      logical_.push_back(
          enc.serialize(services::make_data_request(datasets_.back()).document())
              .size() +
          enc.serialize(services::make_verify_response(expected_.back())
                            .document())
              .size());
    };
    if (p_.hot == 0) {
      add(mix_seed(seed, 1));
      for (auto& seq : sequences_) seq = {0};
      return;
    }
    for (std::size_t i = 0; i < p_.hot; ++i) add(mix_seed(seed, 1, i));
    // Each connection cycles its own fresh inputs. Far more distinct
    // fresh requests are in flight than the response cache holds
    // (respcache_max_entries), so a fresh request is never a hit; the hot
    // set is touched every ~2*hot requests and stays cached.
    for (std::size_t c = 0; c < p_.conns; ++c) {
      const std::size_t base = datasets_.size();
      for (std::size_t j = 0; j < p_.fresh_per_conn; ++j) {
        add(mix_seed(seed, 2 + c, j));
      }
      SplitMix64 rng(mix_seed(seed, 100 + c));
      std::size_t fresh = 0;
      auto& seq = sequences_[c];
      seq.reserve(2 * p_.fresh_per_conn);
      for (std::size_t k = 0; k < 2 * p_.fresh_per_conn; ++k) {
        if (rng.next_bool()) {
          seq.push_back(rng.next_below(p_.hot));
        } else {
          seq.push_back(base + (fresh++ % p_.fresh_per_conn));
        }
      }
    }
  }

  void configure(ServerConfig& cfg) const override {
    cfg.handler = services::verification_handler;
    if (p_.v3_cache) cfg.idempotent_ops = {"data"};
  }

  void configure(TcpClientBinding& binding) const override {
    if (p_.v3_cache) binding.enable_v3();
  }

  void exchange(Conn& conn, Tally& tally, bool trace) override {
    const auto& seq = sequences_[conn.index];
    const std::size_t input = seq[conn.cursor++ % seq.size()];
    const workload::LeadDataset& ds = datasets_[input];
    Engine& engine = *conn.engine;
    ++tally.attempted;

    SoapEnvelope resp;
    std::int64_t t0 = 0, t1 = 0;
    if (!trace) {
      t0 = now_ns();
      resp = engine.call(services::make_data_request(ds));
      t1 = now_ns();
    } else {
      // The steps SoapEngine::call makes (NoSecurity's apply/verify are
      // empty), each driven through the same public call, each a span.
      Tracer& tr = conn.tracer;
      const std::uint64_t xid = (conn.index << 40) | conn.next_xid++;
      t0 = now_ns();
      const std::uint32_t root = tr.add(kExchange, 0, xid, t0, 0);
      SoapEnvelope req = timed(tr, kEnvelopeBuild, root, xid, 0,
                               [&] { return services::make_data_request(ds); });
      BufferPool& buffers = engine.buffer_pool();
      WireMessage m = timed(tr, kEncode, root, xid, 0, [&] {
        WireMessage out;
        out.content_type = std::string(BxsaEncoding::content_type());
        ByteWriter w(buffers.acquire(256));
        engine.encoding().serialize_into(req.document(), w);
        out.payload = w.take();
        return out;
      });
      const bool keep = conn.index == 0 && samples_.size() < p_.replay_samples;
      std::vector<std::uint8_t> sent;
      if (keep) sent = m.payload;
      const std::size_t req_bytes = m.payload.size();
      timed(tr, kClientSend, root, xid, req_bytes,
            [&] { engine.binding().send_request(std::move(m)); });
      WireMessage raw = timed(tr, kClientWait, root, xid, 0,
                              [&] { return engine.binding().receive_response(); });
      if (keep) {
        samples_.push_back({xid, root, input, std::move(sent), raw.payload});
      }
      resp = timed(tr, kDecode, root, xid, raw.payload.size(), [&] {
        SharedBuffer wire = SharedBuffer::adopt(std::move(raw.payload), &buffers);
        return SoapEnvelope(engine.encoding().deserialize_shared(wire));
      });
      t1 = now_ns();
      tr.close(root, t1);
      ++conn.traced;
    }
    const services::VerificationOutcome got =
        services::parse_verify_response(resp);
    if (!got.ok || !(got == expected_[input])) {
      tally.fail("verifyResult mismatch (ok=" + std::to_string(got.ok) +
                 ", count=" + std::to_string(got.count) + ")");
      return;
    }
    // A materialized reply is visible only once call() returns, so its
    // time to first byte is the exchange time (no separate sample).
    tally.latency_ns.push_back(Tally::clamp(t1 - t0));
    tally.logical_bytes += logical_[input];
  }

  void replay(Tracer& t, ReplayTotals& totals) override {
    for (const ReplaySample& s : samples_) {
      const workload::LeadDataset& ds = datasets_[s.input];
      // On a dictionary channel the client encodes the request inside
      // client_send; the server's decode, its response encode and the
      // client's response decode all happen while the caller waits.
      const bool dict_on_path = p_.v3_cache;
      replay::dict(t, s.root, s.xid, s.request, request_dict_, totals, false,
                   dict_on_path);
      replay::dict(t, s.root, s.xid, s.response, response_dict_, totals,
                   dict_on_path, dict_on_path);
      replay::compress(t, s.root, s.xid, s.request, totals);
      replay::compress(t, s.root, s.xid, s.response, totals);
      replay::hmac(t, s.root, s.xid, s.request);
      replay::hmac(t, s.root, s.xid, s.response);
      replay::array_pack(t, s.root, s.xid, ds.index, ds.values);
      bxsa::StreamWriter whole;
      write_events(ds, whole);
      replay::stream(
          t, s.root, s.xid, [&](bxsa::StreamWriter& w) { write_events(ds, w); },
          whole.take());
      // The service handler on the decoded request (the cache-miss path).
      SoapEnvelope req(BxsaEncoding{}.deserialize_shared(
          SharedBuffer::adopt(std::vector<std::uint8_t>(s.request), nullptr)));
      SoapEnvelope resp = timed(t, kHandler, s.root, s.xid, 0, [&] {
        return services::verification_handler(std::move(req));
      });
      if (!(services::parse_verify_response(resp) == expected_[s.input])) {
        throw std::runtime_error("handler replay returned a wrong result");
      }
      ++totals.exchanges;
    }
  }

 private:
  /// The dataset's payload as push-style events.
  static void write_events(const workload::LeadDataset& ds,
                           bxsa::StreamWriter& w) {
    const std::array<NamespaceDecl, 1> ns{{{"lead", "urn:lead"}}};
    w.start_document();
    w.start_element(QName("urn:lead", "data", "lead"), ns);
    w.array(QName("urn:lead", "index", "lead"),
            std::span<const std::int32_t>(ds.index));
    w.array(QName("urn:lead", "values", "lead"),
            std::span<const double>(ds.values));
    w.end_element();
    w.end_document();
  }

  Params p_;
  std::vector<workload::LeadDataset> datasets_;
  std::vector<services::VerificationOutcome> expected_;
  std::vector<std::uint64_t> logical_;
  std::vector<std::vector<std::size_t>> sequences_;
  std::vector<ReplaySample> samples_;
  DictMirror request_dict_, response_dict_;
};

/// stream_signed and stream_wan: call_streamed() echo of a smooth float64
/// array; the echoed bytes must equal the sent bytes exactly.
class StreamedWorkload final : public Workload {
 public:
  struct Params {
    std::size_t mib;
    bool sign;
    bool compress;
    std::size_t warmup;
  };

  explicit StreamedWorkload(Params p) : p_(p) {}

  const char* family() const override { return "streamed"; }
  std::size_t connections() const override { return 1; }
  std::size_t warmup() const override { return p_.warmup; }

  void generate(std::uint64_t seed) override {
    // Smooth, instrument-quantized readings (1/1024 resolution): the shape
    // the shuffle+delta+lzss transform exists for. The seed shifts the
    // curve's phase and level only, so every seed compresses alike and
    // wire bytes stay comparable across seeds.
    SplitMix64 rng(mix_seed(seed, 7));
    const double phase = rng.next_double(0.0, 6.283185307179586);
    const double level = rng.next_double(-1.0e4, 1.0e4);
    values_.resize((p_.mib << 20) / sizeof(double));
    for (std::size_t i = 0; i < values_.size(); ++i) {
      const double x = static_cast<double>(i);
      values_[i] = std::nearbyint(
                       (1.0e5 * std::sin(0.001 * x + phase) + 0.25 * x + level) *
                       1024.0) /
                   1024.0;
    }
    // The reference: the exact data bytes and patches a chunk-mode writer
    // emits for this document.
    expected_.clear();
    bxsa::StreamWriter w(host_byte_order(), kChunk, pool(),
                         [this](std::vector<std::uint8_t> chunk) {
                           expected_.insert(expected_.end(), chunk.begin(),
                                            chunk.end());
                           pool().release(std::move(chunk));
                         });
    produce(w);
    patches_ = w.finish();
  }

  void configure(ServerConfig& cfg) const override {
    cfg.handler = [](SoapEnvelope env) { return env; };
    cfg.stream_handler = [](StreamRequest& req, ResponseWriter& resp) {
      while (auto c = req.next_chunk()) resp.write_chunk(std::move(*c));
      resp.finish();
    };
    cfg.stream_chunk_bytes = kChunk;
    if (p_.sign) cfg.stream_auth = make_hmac_stream_auth(kMacKey);
    if (p_.compress) cfg.compress_transforms = transforms::kAll;
  }

  void configure(TcpClientBinding& binding) const override {
    if (p_.sign) binding.enable_stream_auth(make_hmac_stream_auth(kMacKey));
    if (p_.compress) {
      binding.enable_v3();
      binding.enable_compression(transforms::kAll);
    }
  }

  void exchange(Conn& conn, Tally& tally, bool trace) override {
    Engine& engine = *conn.engine;
    BufferPool& buffers = engine.buffer_pool();
    ++tally.attempted;
    std::int64_t produce_start = 0, produce_end = 0;
    std::int64_t consume_start = 0, consume_end = 0, first = 0;
    std::size_t offset = 0;
    bool same = true;
    bool patches_ok = false;
    const std::int64_t t0 = now_ns();
    engine.call_streamed(
        [&](bxsa::StreamWriter& w) {
          produce_start = now_ns();
          produce(w);
          produce_end = now_ns();
        },
        [&](StreamRequest& rx) {
          consume_start = now_ns();
          while (std::optional<std::vector<std::uint8_t>> data = rx.next_data()) {
            if (first == 0) first = now_ns();
            if (offset + data->size() > expected_.size() ||
                std::memcmp(data->data(), expected_.data() + offset,
                            data->size()) != 0) {
              same = false;
            }
            offset += data->size();
            buffers.release(std::move(*data));
          }
          patches_ok = equal_patches(rx.patches());
          consume_end = now_ns();
        },
        kChunk);
    const std::int64_t t1 = now_ns();
    if (trace) {
      Tracer& tr = conn.tracer;
      const std::uint64_t xid = conn.next_xid++;
      const std::uint32_t root = tr.add(kExchange, 0, xid, t0, t1);
      // The producer runs on the binding's sender thread, the consumer on
      // the caller: the two spans overlap.
      tr.add(kClientSend, root, xid, produce_start, produce_end,
             expected_.size());
      tr.add(kClientWait, root, xid, consume_start, consume_end, offset);
      if (sample_root_ == 0) {
        sample_root_ = root;
        sample_xid_ = xid;
      }
      ++conn.traced;
    }
    if (!same || offset != expected_.size() || !patches_ok) {
      tally.fail("echo differs from the request (" + std::to_string(offset) +
                 " of " + std::to_string(expected_.size()) + " bytes)");
      return;
    }
    tally.latency_ns.push_back(Tally::clamp(t1 - t0));
    tally.ttfb_ns.push_back(Tally::clamp(first - t0));
    tally.logical_bytes += 2 * expected_.size();
  }

  void replay(Tracer& t, ReplayTotals& totals) override {
    // The echo's request and response are the same bytes, so each
    // per-direction layer runs twice per exchange. Per-MiB layers run on a
    // bounded prefix (kPrefix) to keep the replay short.
    constexpr std::size_t kPrefix = 4 * kChunk;
    std::vector<std::uint8_t> assembled = expected_;
    for (const bxsa::PatchRecord& p : patches_) {
      std::memcpy(assembled.data() + p.offset, p.bytes, p.len);
    }
    const std::span<const std::uint8_t> prefix(
        expected_.data(), std::min(kPrefix, expected_.size()));
    const std::uint32_t root = sample_root_;
    const std::uint64_t xid = sample_xid_;
    SoapEnvelope env = timed(t, kEnvelopeBuild, root, xid, 0, [&] {
      auto el = make_element(QName("urn:bulk", "dataset", "b"));
      el->declare_namespace("b", "urn:bulk");
      el->add_child(make_array<double>(QName("xs"), values_));
      return SoapEnvelope::wrap(std::move(el));
    });
    std::vector<std::uint8_t> encoded = timed(t, kEncode, root, xid, 0, [&] {
      ByteWriter w(pool().acquire(expected_.size() + 256));
      BxsaEncoding{}.serialize_into(env.document(), w);
      return w.take();
    });
    const SharedBuffer wire =
        SharedBuffer::adopt(std::vector<std::uint8_t>(encoded), nullptr);
    timed(t, kDecode, root, xid, encoded.size(), [&] {
      return SoapEnvelope(BxsaEncoding{}.deserialize_shared(wire));
    });
    for (DictMirror* m : {&request_dict_, &response_dict_}) {
      replay::dict(t, root, xid, encoded, *m, totals, false, false);
      replay::compress(t, root, xid, prefix, totals);
      replay::hmac(t, root, xid, prefix);
    }
    replay::array_pack(t, root, xid, values_);
    replay::stream(t, root, xid, [&](bxsa::StreamWriter& w) { produce(w); },
                   assembled);
    pool().release(std::move(encoded));
    ++totals.exchanges;
  }

 private:
  void produce(bxsa::StreamWriter& w) const {
    const std::array<NamespaceDecl, 1> ns{{{"b", "urn:bulk"}}};
    w.start_document();
    w.start_element(QName("urn:bulk", "dataset", "b"), ns);
    w.array(QName("xs"), std::span<const double>(values_));
    w.end_element();
    w.end_document();
  }

  bool equal_patches(std::span<const bxsa::PatchRecord> got) const {
    if (got.size() != patches_.size()) return false;
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (got[i].offset != patches_[i].offset ||
          got[i].len != patches_[i].len ||
          std::memcmp(got[i].bytes, patches_[i].bytes, got[i].len) != 0) {
        return false;
      }
    }
    return true;
  }

  Params p_;
  std::vector<double> values_;
  std::vector<std::uint8_t> expected_;
  std::vector<bxsa::PatchRecord> patches_;
  std::uint32_t sample_root_ = 0;
  std::uint64_t sample_xid_ = 0;
  DictMirror request_dict_, response_dict_;
};

std::unique_ptr<Workload> make_workload(std::string_view name) {
  if (name == "rpc_small") {
    return std::make_unique<MaterializedWorkload>(MaterializedWorkload::Params{
        .leads = 8, .hot = 32, .fresh_per_conn = 4096, .conns = 2,
        .warmup = 2000, .v3_cache = true, .replay_samples = 256});
  }
  if (name == "dataset_1m") {
    // 87,381 (int32, float64) pairs: a ~1 MiB BXSA request.
    return std::make_unique<MaterializedWorkload>(MaterializedWorkload::Params{
        .leads = 87381, .hot = 0, .fresh_per_conn = 0, .conns = 2,
        .warmup = 100, .v3_cache = false, .replay_samples = 4});
  }
  if (name == "stream_signed") {
    return std::make_unique<StreamedWorkload>(StreamedWorkload::Params{
        .mib = 16, .sign = true, .compress = false, .warmup = 3});
  }
  if (name == "stream_wan") {
    return std::make_unique<StreamedWorkload>(StreamedWorkload::Params{
        .mib = 4, .sign = false, .compress = true, .warmup = 2});
  }
  return nullptr;
}

// ---- the run ------------------------------------------------------------------------

/// One fully set-up stack: inputs, server, connected and warmed clients.
struct Stack {
  std::unique_ptr<obs::Registry> registry;  // outlives the server
  std::unique_ptr<SoapServer> server;
  std::vector<std::unique_ptr<Conn>> conns;

  ~Stack() {
    conns.clear();
    if (server) server->stop();
    server.reset();
  }
};

/// Jiffies the hypervisor gave to other guests, and all jiffies, from the
/// aggregate line of /proc/stat (zeros where it cannot be read).
std::array<std::uint64_t, 2> cpu_steal_and_total() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  std::uint64_t total = 0, steal = 0, v = 0;
  stat >> cpu;
  for (int field = 0; field < 10 && stat >> v; ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

/// Share of all CPU time between two cpu_steal_and_total() readings that
/// went to other guests.
double steal_share(const std::array<std::uint64_t, 2>& before,
                   const std::array<std::uint64_t, 2>& after) {
  if (after[1] <= before[1]) return 0.0;
  return static_cast<double>(after[0] - before[0]) /
         static_cast<double>(after[1] - before[1]);
}

/// One timed segment's totals over all connections.
struct Segment {
  double window_s = 0.0;
  std::uint64_t completed = 0;
  std::uint64_t logical_bytes = 0;
  std::uint64_t bytes_out = 0, bytes_in = 0, syscalls = 0;
  double steal_share = 0.0;  // of all CPU time while the segment ran
  std::vector<std::size_t> ends;  // each connection's sample count after it
};

/// One measured phase: per-connection tallies (samples in time order) and
/// the segments they were measured in.
struct Phase {
  std::vector<Tally> tallies;  // one per connection
  std::vector<Segment> segments;

  Phase(std::size_t conns, double seconds, bool ttfb) : tallies(conns) {
    const auto samples =
        static_cast<std::size_t>(seconds * kMaxOpsPerConnPerSecond);
    for (Tally& t : tallies) t.reserve(samples, ttfb);
  }
  std::uint64_t attempted() const { return sum(&Tally::attempted); }
  std::uint64_t failed() const { return sum(&Tally::failed); }

 private:
  std::uint64_t sum(std::uint64_t Tally::*field) const {
    std::uint64_t total = 0;
    for (const Tally& t : tallies) total += t.*field;
    return total;
  }
};

/// Run every connection closed-loop on its own thread until `seconds`
/// pass (or, traced, until the span budget is spent); one timed segment
/// added to `ph`.
void run_segment(Workload& w, Stack& s, double seconds, bool trace,
                 Phase& ph) {
  std::vector<std::int64_t> ends(s.conns.size(), 0);
  std::vector<std::array<std::uint64_t, 5>> before;
  for (std::size_t i = 0; i < s.conns.size(); ++i) {
    const Conn& c = *s.conns[i];
    const Tally& t = ph.tallies[i];
    before.push_back({c.io.bytes_out.value(), c.io.bytes_in.value(),
                      c.io.read_calls.value() + c.io.write_calls.value(),
                      t.attempted - t.failed, t.logical_bytes});
  }
  std::atomic<std::size_t> ready{0};
  std::atomic<bool> go{false};
  std::int64_t start = 0;
  const auto deadline_ns = static_cast<std::int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < s.conns.size(); ++i) {
    threads.emplace_back([&, i] {
      Conn& conn = *s.conns[i];
      Tally& tally = ph.tallies[i];
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const std::int64_t stop_at = start + deadline_ns;
      while (now_ns() < stop_at &&
             !(trace && conn.traced >= kMaxTracedPerConn)) {
        try {
          w.exchange(conn, tally, trace);
        } catch (const std::exception& e) {
          tally.fail(e.what());
          conn.engine->binding().reset();
        }
      }
      ends[i] = now_ns();
    });
  }
  while (ready.load() < threads.size()) std::this_thread::yield();
  const std::array<std::uint64_t, 2> cpu0 = cpu_steal_and_total();
  start = now_ns();
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  const std::int64_t end = *std::max_element(ends.begin(), ends.end());
  const std::array<std::uint64_t, 2> cpu1 = cpu_steal_and_total();

  Segment seg;
  seg.window_s = static_cast<double>(end - start) / 1e9;
  seg.steal_share = steal_share(cpu0, cpu1);
  for (std::size_t i = 0; i < s.conns.size(); ++i) {
    const Conn& c = *s.conns[i];
    const Tally& t = ph.tallies[i];
    seg.bytes_out += c.io.bytes_out.value() - before[i][0];
    seg.bytes_in += c.io.bytes_in.value() - before[i][1];
    seg.syscalls +=
        c.io.read_calls.value() + c.io.write_calls.value() - before[i][2];
    seg.completed += t.attempted - t.failed - before[i][3];
    seg.logical_bytes += t.logical_bytes - before[i][4];
    seg.ends.push_back(t.latency_ns.size());
  }
  ph.segments.push_back(std::move(seg));
}

/// Inputs, server start, connect + handshake, warm-up. Throws if a
/// warm-up exchange fails.
std::unique_ptr<Stack> set_up(Workload& w, std::uint64_t seed) {
  auto s = std::make_unique<Stack>();
  w.generate(seed);
  s->registry = std::make_unique<obs::Registry>();
  ServerConfig cfg;
  cfg.encoding = AnyEncoding::from(BxsaEncoding{});
  cfg.registry = s->registry.get();
  cfg.metrics_prefix = "event";
  cfg.reactor_threads = kReactorThreads;
  cfg.worker_threads = kWorkerThreads;
  w.configure(cfg);
  s->server = SoapServer::create(ConcurrencyModel::kEventLoop, std::move(cfg));
  for (std::size_t i = 0; i < w.connections(); ++i) {
    auto conn = std::make_unique<Conn>();
    conn->index = i;
    TcpClientBinding binding(s->server->port());
    w.configure(binding);
    binding.set_io_stats(&conn->io);
    conn->engine = std::make_unique<Engine>(BxsaEncoding{}, std::move(binding));
    s->conns.push_back(std::move(conn));
  }
  std::vector<Tally> tallies(s->conns.size());
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < s->conns.size(); ++i) {
    threads.emplace_back([&, i] {
      for (std::size_t k = 0; k < w.warmup(); ++k) {
        try {
          w.exchange(*s->conns[i], tallies[i], false);
        } catch (const std::exception& e) {
          tallies[i].fail(e.what());
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const Tally& t : tallies) {
    if (t.failed != 0) {
      throw std::runtime_error("warm-up exchange failed: " + t.errors.front());
    }
  }
  return s;
}

std::uint64_t peak_rss_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stoull(line.substr(6));
  }
  return 0;
}

// ---- report -------------------------------------------------------------------------

class JsonOut {
 public:
  explicit JsonOut(std::FILE* f) : f_(f) {}
  void raw(std::string_view s) { std::fwrite(s.data(), 1, s.size(), f_); }
  void key(std::string_view k) {
    comma();
    std::fprintf(f_, "\"%.*s\":", static_cast<int>(k.size()), k.data());
    first_ = true;
    pending_value_ = true;
  }
  void open(char c) {
    comma();
    std::fputc(c, f_);
    first_ = true;
  }
  void close(char c) {
    std::fputc(c, f_);
    first_ = false;
  }
  void str(std::string_view v) {
    comma();
    std::fputc('"', f_);
    for (const char ch : v) {
      if (ch == '"' || ch == '\\') {
        std::fputc('\\', f_);
        std::fputc(ch, f_);
      } else if (static_cast<unsigned char>(ch) < 0x20) {
        std::fprintf(f_, "\\u%04x", ch);
      } else {
        std::fputc(ch, f_);
      }
    }
    std::fputc('"', f_);
  }
  void num(double v) {
    comma();
    std::fprintf(f_, "%.17g", v);
  }
  void num(std::uint64_t v) {
    comma();
    std::fprintf(f_, "%llu", static_cast<unsigned long long>(v));
  }
  void num(std::int64_t v) {
    comma();
    std::fprintf(f_, "%lld", static_cast<long long>(v));
  }
  /// An already-serialized JSON value (the registry snapshot).
  void json(std::string_view v) {
    comma();
    raw(v);
  }

 private:
  void comma() {
    if (pending_value_) {
      pending_value_ = false;
    } else if (!first_) {
      std::fputc(',', f_);
    }
    first_ = false;
  }
  std::FILE* f_;
  bool first_ = true;
  bool pending_value_ = false;
};

void write_samples(JsonOut& j, const Phase& ph,
                   std::vector<std::uint32_t> Tally::*samples) {
  j.open('[');
  for (const Tally& t : ph.tallies) {
    for (const std::uint32_t x : t.*samples) {
      j.num(static_cast<std::uint64_t>(x));
    }
  }
  j.close(']');
}

void write_phase(JsonOut& j, const Phase& ph) {
  j.open('{');
  j.key("attempted");
  j.num(ph.attempted());
  j.key("failed");
  j.num(ph.failed());
  j.key("errors");
  j.open('[');
  for (const Tally& t : ph.tallies) {
    for (const auto& e : t.errors) j.str(e);
  }
  j.close(']');
  // Samples are per connection, in time order: connection 0's first.
  j.key("latency_ns");
  write_samples(j, ph, &Tally::latency_ns);
  // Empty for materialized workloads: their first byte is their last.
  j.key("ttfb_ns");
  write_samples(j, ph, &Tally::ttfb_ns);
  j.key("segments");
  j.open('[');
  for (const Segment& seg : ph.segments) {
    j.open('{');
    j.key("window_s");
    j.num(seg.window_s);
    j.key("completed");
    j.num(seg.completed);
    j.key("logical_bytes");
    j.num(seg.logical_bytes);
    j.key("bytes_out");
    j.num(seg.bytes_out);
    j.key("bytes_in");
    j.num(seg.bytes_in);
    j.key("syscalls");
    j.num(seg.syscalls);
    j.key("steal_share");
    j.num(seg.steal_share);
    j.key("ends");
    j.open('[');
    for (const std::size_t n : seg.ends) j.num(static_cast<std::uint64_t>(n));
    j.close(']');
    // The paper's WAN (netsim, bench_fig6's pricing of a persistent-TCP
    // exchange): this segment's wire bytes of one exchange, each way.
    const double ops =
        static_cast<double>(std::max<std::uint64_t>(seg.completed, 1));
    j.key("wan_wire_s");
    j.num(netsim::request_response_time(
        netsim::wan(),
        static_cast<std::size_t>(static_cast<double>(seg.bytes_out) / ops),
        static_cast<std::size_t>(static_cast<double>(seg.bytes_in) / ops)));
    j.close('}');
  }
  j.close(']');
  j.close('}');
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = 0;
  std::string out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + std::string(flag));
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = std::stoi(value);
    } else if (flag == "--out") {
      a.out = value;
    } else {
      throw std::invalid_argument("unknown flag " + std::string(flag));
    }
  }
  if (a.workload.empty() || !have_seed || a.seconds <= 0.0 || a.out.empty() ||
      (a.trace != 0 && a.trace != 1)) {
    throw std::invalid_argument(
        "usage: exchange_bench --workload W --seed N --seconds S --trace 0|1 "
        "--out FILE");
  }
  return a;
}

int run(const Args& args) {
  std::unique_ptr<Workload> w = make_workload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "exchange_bench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  // Untraced: the whole set-up runs kSegments times, each timed and each
  // followed by an equal share of the measured seconds, so set-up time is
  // a median and each segment runs on a fresh stack (thread placement
  // differs per stack); analysis.py picks the segments the host disturbed
  // least. Traced: one stack, half the time untraced (the overhead
  // baseline), half traced, then the replays.
  const bool streamed = std::string_view(w->family()) == "streamed";
  const int segments = args.trace != 0 ? 1 : kSegments;
  const double untraced_s =
      args.trace != 0 ? args.seconds / 2 : args.seconds / segments;
  Phase untraced(w->connections(), args.seconds, streamed);
  std::optional<Phase> traced;
  {
    std::unique_ptr<Stack> prime = set_up(*w, args.seed);
    Phase discard(w->connections(), kPrimeSeconds, streamed);
    run_segment(*w, *prime, kPrimeSeconds, false, discard);
    for (const Tally& t : discard.tallies) {
      if (t.failed != 0) {
        throw std::runtime_error("priming exchange failed: " + t.errors.front());
      }
    }
  }
  std::vector<double> setup_s, setup_steal;
  std::unique_ptr<Stack> stack;
  for (int seg = 0; seg < segments; ++seg) {
    stack.reset();
    const std::array<std::uint64_t, 2> cpu0 = cpu_steal_and_total();
    const std::int64_t t0 = now_ns();
    stack = set_up(*w, args.seed);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    setup_steal.push_back(steal_share(cpu0, cpu_steal_and_total()));
    run_segment(*w, *stack, untraced_s, false, untraced);
  }
  Tracer replay_tracer;
  ReplayTotals totals;
  if (args.trace != 0) {
    traced.emplace(w->connections(), args.seconds / 2, streamed);
    run_segment(*w, *stack, args.seconds / 2, true, *traced);
    // A first, discarded pass warms the replay dictionaries (to the steady
    // state of a channel that has been serving) and the pools.
    Tracer scratch;
    ReplayTotals discard;
    w->replay(scratch, discard);
    w->replay(replay_tracer, totals);
  }
  const std::uint64_t server_exchanges = stack->server->exchanges();
  const std::uint64_t server_faults = stack->server->faults();
  stack->server->stop();
  const std::string registry = stack->registry->to_json();

  std::FILE* f = std::fopen(args.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "exchange_bench: cannot write %s\n", args.out.c_str());
    return 2;
  }
  JsonOut j(f);
  j.open('{');
  j.key("workload");
  j.str(args.workload);
  j.key("family");
  j.str(w->family());
  j.key("seed");
  j.num(args.seed);
  j.key("trace");
  j.num(static_cast<std::int64_t>(args.trace));
  j.key("uses_cache");
  j.json(w->uses_cache() ? "true" : "false");
  j.key("build_type");
  j.str(EXCHANGE_BUILD_TYPE);
  j.key("compiler");
  j.str(EXCHANGE_COMPILER);
  j.key("reactor_threads");
  j.num(static_cast<std::uint64_t>(kReactorThreads));
  j.key("worker_threads");
  j.num(static_cast<std::uint64_t>(kWorkerThreads));
  j.key("connections");
  j.num(static_cast<std::uint64_t>(w->connections()));
  j.key("setup_s");
  j.open('[');
  for (const double s : setup_s) j.num(s);
  j.close(']');
  j.key("setup_steal_share");
  j.open('[');
  for (const double s : setup_steal) j.num(s);
  j.close(']');
  j.key("untraced");
  write_phase(j, untraced);
  if (traced) {
    j.key("traced");
    write_phase(j, *traced);
  }
  j.key("replay");
  j.open('{');
  j.key("exchanges");
  j.num(totals.exchanges);
  j.key("dict_saved_bytes");
  j.num(totals.dict_saved_bytes);
  j.key("compress_plain_bytes");
  j.num(totals.compress_plain_bytes);
  j.key("compress_wire_bytes");
  j.num(totals.compress_wire_bytes);
  j.close('}');
  j.key("span_names");
  j.open('[');
  for (const char* n : kSpanNames) j.str(n);
  j.close(']');
  // Spans as [tracer, name, parent_tracer, parent, xid, start_ns, end_ns,
  // bytes, on_wait_path]; parent is a 1-based index into parent_tracer's spans (0 = a
  // root). Tracers are the connections in order, then the replay tracer,
  // whose spans hang under connection 0's exchange spans.
  j.key("spans");
  j.open('[');
  std::vector<const Tracer*> tracers;
  for (const auto& c : stack->conns) tracers.push_back(&c->tracer);
  tracers.push_back(&replay_tracer);
  for (std::size_t ti = 0; ti < tracers.size(); ++ti) {
    const std::uint64_t parent_tracer = ti + 1 == tracers.size() ? 0 : ti;
    for (const Span& s : tracers[ti]->spans()) {
      j.open('[');
      j.num(static_cast<std::uint64_t>(ti));
      j.num(static_cast<std::uint64_t>(s.name));
      j.num(parent_tracer);
      j.num(static_cast<std::uint64_t>(s.parent));
      j.num(s.xid);
      j.num(s.start_ns);
      j.num(s.end_ns);
      j.num(s.bytes);
      j.num(static_cast<std::uint64_t>(s.on_wait_path));
      j.close(']');
    }
  }
  j.close(']');
  j.key("server_exchanges");
  j.num(server_exchanges);
  j.key("server_faults");
  j.num(server_faults);
  j.key("registry");
  j.json(registry);
  stack.reset();
  j.key("peak_rss_kib");
  j.num(peak_rss_kib());
  j.close('}');
  std::fputc('\n', f);
  return std::fclose(f) == 0 ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "exchange_bench: %s\n", e.what());
    return 2;
  }
}
