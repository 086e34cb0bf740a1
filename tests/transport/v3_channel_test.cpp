// BXTP v3 (FORMAT.md §"BXTP v3"): Hello/Accept negotiation, transparent
// downgrade, per-channel symbol dictionaries, and the idempotent-response
// cache — against BOTH server concurrency models, because negotiation and
// dictionary ordering take different paths through each (serial worker vs
// reactor/worker split with in-order release).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "bxsa/dict.hpp"
#include "services/verification.hpp"
#include "soap/channel_pool.hpp"
#include "soap/engine.hpp"
#include "transport/bindings.hpp"
#include "transport/respcache.hpp"
#include "transport/server.hpp"
#include "transport/session.hpp"
#include "workload/lead.hpp"

namespace bxsoap::transport {
namespace {

using namespace bxsoap::soap;

std::vector<std::uint8_t> bytes_of(std::string_view s) {
  return {s.begin(), s.end()};
}

// ---- ResponseCache unit tests ----------------------------------------------

ResponseCache::Config one_shard(std::size_t entries, std::size_t bytes) {
  // One shard makes the LRU bounds exact instead of per-shard splits.
  return ResponseCache::Config{entries, bytes, /*shards=*/1};
}

TEST(RespCache, MissThenHitReturnsTheInsertedBytes) {
  ResponseCache cache(one_shard(8, 1 << 20));
  const auto req = bytes_of("request-bytes");
  EXPECT_EQ(cache.lookup("ct", req), nullptr);
  cache.insert("ct", req,
               std::make_shared<const std::vector<std::uint8_t>>(
                   bytes_of("response-bytes")));
  const ResponseCache::Payload hit = cache.lookup("ct", req);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, bytes_of("response-bytes"));
  EXPECT_EQ(cache.entries(), 1u);
}

TEST(RespCache, FirstInsertionWins) {
  ResponseCache cache(one_shard(8, 1 << 20));
  const auto req = bytes_of("req");
  cache.insert("ct", req,
               std::make_shared<const std::vector<std::uint8_t>>(
                   bytes_of("first")));
  cache.insert("ct", req,
               std::make_shared<const std::vector<std::uint8_t>>(
                   bytes_of("second")));
  const ResponseCache::Payload hit = cache.lookup("ct", req);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, bytes_of("first"));
  EXPECT_EQ(cache.entries(), 1u);
}

TEST(RespCache, EvictsLeastRecentlyUsedAtTheEntryBound) {
  ResponseCache cache(one_shard(2, 1 << 20));
  const auto mk = [](std::string_view s) {
    return std::make_shared<const std::vector<std::uint8_t>>(bytes_of(s));
  };
  cache.insert("ct", bytes_of("a"), mk("ra"));
  cache.insert("ct", bytes_of("b"), mk("rb"));
  // Touch "a" so "b" is the LRU victim when "c" lands.
  ASSERT_NE(cache.lookup("ct", bytes_of("a")), nullptr);
  cache.insert("ct", bytes_of("c"), mk("rc"));
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_NE(cache.lookup("ct", bytes_of("a")), nullptr);
  EXPECT_EQ(cache.lookup("ct", bytes_of("b")), nullptr);
  EXPECT_NE(cache.lookup("ct", bytes_of("c")), nullptr);
}

TEST(RespCache, ByteBoundEvictsAndOversizedEntriesAreNotAdmitted) {
  ResponseCache cache(one_shard(64, 32));
  const auto mk = [](std::size_t n) {
    return std::make_shared<const std::vector<std::uint8_t>>(n,
                                                             std::uint8_t{7});
  };
  cache.insert("ct", bytes_of("a"), mk(20));  // cost ≈ 2+1+20
  cache.insert("ct", bytes_of("b"), mk(20));  // pushes past 32: "a" evicted
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.lookup("ct", bytes_of("a")), nullptr);
  EXPECT_NE(cache.lookup("ct", bytes_of("b")), nullptr);
  // An entry that alone exceeds the shard budget is simply refused.
  cache.insert("ct", bytes_of("big"), mk(100));
  EXPECT_EQ(cache.lookup("ct", bytes_of("big")), nullptr);
  EXPECT_LE(cache.resident_bytes(), 32u);
}

TEST(RespCache, ContentTypeIsPartOfTheKey) {
  ResponseCache cache(one_shard(8, 1 << 20));
  const auto req = bytes_of("same-request");
  cache.insert("ct-a", req,
               std::make_shared<const std::vector<std::uint8_t>>(
                   bytes_of("resp-a")));
  EXPECT_EQ(cache.lookup("ct-b", req), nullptr);
  const ResponseCache::Payload hit = cache.lookup("ct-a", req);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, bytes_of("resp-a"));
}

// ---- negotiation / downgrade across both server models ----------------------

struct V3ServerTest : ::testing::TestWithParam<ConcurrencyModel> {
  static std::unique_ptr<SoapServer> make_server(
      ConcurrencyModel model, ServerConfig cfg = {},
      ServerConfig::Handler handler = services::verification_handler) {
    cfg.encoding = AnyEncoding::from(BxsaEncoding{});
    cfg.handler = std::move(handler);
    if (model == ConcurrencyModel::kEventLoop) {
      cfg.reactor_threads = 2;
      cfg.worker_threads = 2;
    }
    return SoapServer::create(model, std::move(cfg));
  }

  static std::vector<std::uint8_t> encode_request(std::size_t count) {
    const SoapEnvelope env =
        services::make_data_request(workload::make_lead_dataset(count));
    return BxsaEncoding{}.serialize(env.document());
  }

  /// One raw exchange on `binding`: send `payload`, return the response
  /// payload bytes (post-dictionary, i.e. canonical).
  static std::vector<std::uint8_t> exchange(TcpClientBinding& binding,
                                            std::vector<std::uint8_t> payload) {
    soap::WireMessage m;
    m.content_type = std::string(BxsaEncoding::content_type());
    m.payload = std::move(payload);
    binding.send_request(std::move(m));
    return binding.receive_response().payload;
  }
};

using V3Negotiation = V3ServerTest;

TEST_P(V3Negotiation, NegotiatesDictionariesAndServesManyExchanges) {
  obs::Registry registry;
  ServerConfig cfg;
  cfg.registry = &registry;
  cfg.metrics_prefix = "srv";
  auto server = make_server(GetParam(), std::move(cfg));

  TcpClientBinding binding(server->port());
  binding.enable_v3();
  for (std::size_t i = 0; i < 10; ++i) {
    const auto resp = exchange(binding, encode_request(10 + i));
    const SoapEnvelope env(BxsaEncoding{}.deserialize(resp));
    const auto outcome = services::parse_verify_response(env);
    EXPECT_TRUE(outcome.ok);
    EXPECT_EQ(outcome.count, 10 + i);
  }
  EXPECT_TRUE(binding.v3_active());
  EXPECT_EQ(binding.negotiated_dict(), bxsa::DictLimits{});
  // Both directions admitted symbols into the server's mirror/table.
  EXPECT_GT(registry.counter("srv.dict.entries").value(), 0u);
  EXPECT_GT(registry.counter("srv.dict.bytes_saved").value(), 0u);
  EXPECT_EQ(server->exchanges(), 10u);
}

TEST_P(V3Negotiation, DowngradeAndPlainPathsAreByteIdentical) {
  ServerConfig legacy_cfg;
  legacy_cfg.accept_v3 = false;  // serves exactly as a pre-v3 build
  auto legacy = make_server(GetParam(), std::move(legacy_cfg));
  auto v3srv = make_server(GetParam());

  const auto request = encode_request(17);

  // Baseline: plain client against the v2-only server.
  TcpClientBinding plain_legacy(legacy->port());
  const auto p_legacy = exchange(plain_legacy, request);

  // A probing v3 client against the same server: the Hello gets the
  // connection cut, the binding downgrades permanently, and the exchange
  // that follows is byte-identical to the baseline.
  TcpClientBinding probe(legacy->port());
  probe.enable_v3();
  const auto v_legacy = exchange(probe, request);
  EXPECT_FALSE(probe.v3_active());
  EXPECT_EQ(v_legacy, p_legacy);
  // Downgrade is sticky: a reconnect does not probe again.
  probe.reset();
  EXPECT_EQ(exchange(probe, request), p_legacy);
  EXPECT_FALSE(probe.v3_active());

  // Reverse direction: an old (plain) client against a v3-enabled server
  // is served byte-identically to the v2-only server.
  TcpClientBinding plain_v3(v3srv->port());
  const auto p_v3 = exchange(plain_v3, request);
  EXPECT_EQ(p_v3, p_legacy);

  // And a negotiated dictionary channel still yields the same canonical
  // response bytes after decode.
  TcpClientBinding dict(v3srv->port());
  dict.enable_v3();
  EXPECT_EQ(exchange(dict, request), p_legacy);
  EXPECT_EQ(exchange(dict, request), p_legacy);  // steady state too
  EXPECT_TRUE(dict.v3_active());
}

TEST_P(V3Negotiation, ZeroOfferKeepsV3FramingWithoutDictionaries) {
  auto server = make_server(GetParam());
  TcpClientBinding binding(server->port());
  binding.enable_v3(bxsa::DictLimits{0, 0});
  const auto resp = exchange(binding, encode_request(5));
  EXPECT_TRUE(binding.v3_active());
  EXPECT_EQ(binding.negotiated_dict().max_entries, 0u);
  const SoapEnvelope env(BxsaEncoding{}.deserialize(resp));
  EXPECT_TRUE(services::parse_verify_response(env).ok);
}

TEST_P(V3Negotiation, NonBxsaEncodingNegotiatesNoDictionary) {
  ServerConfig cfg;
  cfg.encoding = AnyEncoding::from(XmlEncoding{});
  cfg.handler = services::verification_handler;
  if (GetParam() == ConcurrencyModel::kEventLoop) {
    cfg.reactor_threads = 2;
    cfg.worker_threads = 2;
  }
  auto server = SoapServer::create(GetParam(), std::move(cfg));

  SoapEngine<XmlEncoding, TcpClientBinding> client(
      {}, TcpClientBinding(server->port()));
  client.binding().enable_v3();  // offers a dictionary the server must veto
  const SoapEnvelope resp =
      client.call(services::make_data_request(workload::make_lead_dataset(6)));
  EXPECT_TRUE(services::parse_verify_response(resp).ok);
  EXPECT_TRUE(client.binding().v3_active());
  EXPECT_EQ(client.binding().negotiated_dict().max_entries, 0u);
}

INSTANTIATE_TEST_SUITE_P(Models, V3Negotiation,
                         ::testing::Values(
                             ConcurrencyModel::kThreadPerConnection,
                             ConcurrencyModel::kEventLoop),
                         [](const auto& info) {
                           return info.param ==
                                          ConcurrencyModel::kThreadPerConnection
                                      ? "pool"
                                      : "event";
                         });

// ---- dictionary channels under load -----------------------------------------

using DictChannel = V3ServerTest;

TEST_P(DictChannel, SteadyStateShrinksSmallMessageWireBytes) {
  auto server = make_server(GetParam());
  constexpr int kCalls = 40;
  const auto request = encode_request(8);  // well under 1 KiB

  obs::Registry registry;
  obs::IoStats& plain_io = registry.io("plain.io");
  obs::IoStats& dict_io = registry.io("dict.io");

  TcpClientBinding plain(server->port());
  plain.set_io_stats(&plain_io);
  for (int i = 0; i < kCalls; ++i) exchange(plain, request);

  TcpClientBinding dict(server->port());
  dict.enable_v3();
  dict.set_io_stats(&dict_io);
  for (int i = 0; i < kCalls; ++i) {
    const auto resp = exchange(dict, request);
    const SoapEnvelope env(BxsaEncoding{}.deserialize(resp));
    EXPECT_TRUE(services::parse_verify_response(env).ok);
  }
  ASSERT_TRUE(dict.v3_active());

  // Requests: after message 1 admits the symbols, every later message
  // references them — even charging the Hello against the dictionary
  // channel, 40 small calls must come out well ahead.
  EXPECT_LT(dict_io.bytes_out.value() * 100, plain_io.bytes_out.value() * 85)
      << "dict=" << dict_io.bytes_out.value()
      << " plain=" << plain_io.bytes_out.value();
  // Responses likewise (the Accept rides bytes_in).
  EXPECT_LT(dict_io.bytes_in.value() * 100, plain_io.bytes_in.value() * 85)
      << "dict=" << dict_io.bytes_in.value()
      << " plain=" << plain_io.bytes_in.value();
}

TEST(DictChannel, PipelinedDictResponsesStayOrderedOnTheEventServer) {
  ServerConfig cfg;
  cfg.encoding = AnyEncoding::from(BxsaEncoding{});
  cfg.handler = services::verification_handler;
  cfg.reactor_threads = 2;
  cfg.worker_threads = 4;  // out-of-order completion is the interesting case
  auto server =
      SoapServer::create(ConcurrencyModel::kEventLoop, std::move(cfg));

  TcpStream stream = TcpStream::connect(server->port());
  // The handshake and the response side run through a client Session; the
  // requests are dictionary-coded by hand below.
  Session session(Session::Role::kClient,
                  {.v3 = true, .dict = bxsa::DictLimits{}});
  stream.write_all(session.take_output());
  ASSERT_EQ(next_event(stream, session).kind,
            SessionEvent::Kind::kHandshake);
  ASSERT_TRUE(session.negotiated());
  ASSERT_GT(session.negotiated_dict().max_entries, 0u);
  const bxsa::DictLimits eff = session.negotiated_dict();

  // Burst all requests dictionary-coded back to back, THEN read: responses
  // must come back in request order with a coherent response dictionary.
  constexpr std::size_t kBurst = 8;
  bxsa::DictEncoder enc(eff);
  ByteWriter burst;
  for (std::size_t i = 0; i < kBurst; ++i) {
    const SoapEnvelope env = services::make_data_request(
        workload::make_lead_dataset(20 + i));
    const auto payload = BxsaEncoding{}.serialize(env.document());
    const std::size_t len_pos = begin_frame_v3(
        burst, v3flags::kDictEncoded, BxsaEncoding::content_type());
    if (enc.encode(payload, burst)) {
      FAIL() << "unexpected dictionary reset in a small burst";
    }
    end_frame(burst, len_pos);
  }
  stream.write_all(burst.bytes());

  for (std::size_t i = 0; i < kBurst; ++i) {
    // The session's mirrored table decodes each response in wire order.
    SessionEvent ev = next_event(stream, session);
    ASSERT_EQ(ev.kind, SessionEvent::Kind::kMessage);
    const SoapEnvelope env(BxsaEncoding{}.deserialize(ev.message.payload));
    const auto outcome = services::parse_verify_response(env);
    EXPECT_TRUE(outcome.ok);
    EXPECT_EQ(outcome.count, 20 + i) << "response " << i << " out of order";
  }
}

TEST_P(DictChannel, ConcurrentV3ChannelsHammerDictAndCache) {
  // The TSan target: many threads over pooled v3 channels against a server
  // running per-channel dictionaries AND the shared response cache.
  ServerConfig cfg;
  cfg.idempotent_ops = {"data"};
  auto server = make_server(GetParam(), std::move(cfg));

  TcpChannelPool<BxsaEncoding>::Config pool_cfg;
  pool_cfg.port = server->port();
  pool_cfg.channels = 4;
  pool_cfg.enable_v3 = true;
  TcpChannelPool<BxsaEncoding> channels(pool_cfg);

  constexpr int kThreads = 8;
  constexpr int kCallsEach = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCallsEach; ++i) {
        // A small rotating set of distinct requests: plenty of repeats for
        // the cache, several live dictionary channels at once.
        const std::size_t n = 5 + static_cast<std::size_t>((t + i) % 4);
        try {
          const SoapEnvelope resp = channels.call(
              services::make_data_request(workload::make_lead_dataset(n)));
          const auto outcome = services::parse_verify_response(resp);
          if (!outcome.ok || outcome.count != n) ++failures;
        } catch (const std::exception&) {
          ++failures;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server->exchanges(),
            static_cast<std::size_t>(kThreads * kCallsEach));
}

INSTANTIATE_TEST_SUITE_P(Models, DictChannel,
                         ::testing::Values(
                             ConcurrencyModel::kThreadPerConnection,
                             ConcurrencyModel::kEventLoop),
                         [](const auto& info) {
                           return info.param ==
                                          ConcurrencyModel::kThreadPerConnection
                                      ? "pool"
                                      : "event";
                         });

// ---- the idempotent-response cache end to end --------------------------------

using RespCacheServer = V3ServerTest;

TEST_P(RespCacheServer, RepeatedIdempotentRequestsSkipTheHandler) {
  std::atomic<int> handler_runs{0};
  obs::Registry registry;
  ServerConfig cfg;
  cfg.registry = &registry;
  cfg.metrics_prefix = "srv";
  cfg.idempotent_ops = {"data"};
  auto server = make_server(GetParam(), std::move(cfg),
                            [&handler_runs](SoapEnvelope req) {
                              ++handler_runs;
                              return services::verification_handler(
                                  std::move(req));
                            });

  constexpr std::size_t kRepeats = 6;
  TcpClientBinding binding(server->port());
  const auto request = encode_request(33);
  std::vector<std::uint8_t> first;
  for (std::size_t i = 0; i < kRepeats; ++i) {
    auto resp = exchange(binding, request);
    if (i == 0) {
      first = std::move(resp);
    } else {
      EXPECT_EQ(resp, first) << "cached response differs on repeat " << i;
    }
  }
  EXPECT_EQ(handler_runs.load(), 1);
  EXPECT_EQ(registry.counter("srv.respcache.hits").value(), kRepeats - 1);
  EXPECT_EQ(registry.counter("srv.respcache.misses").value(), 1u);
  EXPECT_GT(registry.counter("srv.respcache.bytes").value(), 0u);
  EXPECT_EQ(server->exchanges(), kRepeats);
}

TEST_P(RespCacheServer, CacheHitsServeNegotiatedDictChannels) {
  ServerConfig cfg;
  cfg.idempotent_ops = {"data"};
  auto server = make_server(GetParam(), std::move(cfg));

  // Warm the cache over a plain channel, then repeat the request over a
  // fresh dictionary channel: the hit must come back correctly dict-framed
  // for THIS channel's epoch.
  TcpClientBinding warm(server->port());
  const auto request = encode_request(12);
  const auto baseline = exchange(warm, request);

  TcpClientBinding dict(server->port());
  dict.enable_v3();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(exchange(dict, request), baseline);
  }
  EXPECT_TRUE(dict.v3_active());
}

TEST_P(RespCacheServer, FaultsAndUndeclaredOperationsAreNeverCached) {
  std::atomic<int> handler_runs{0};
  obs::Registry registry;
  ServerConfig cfg;
  cfg.registry = &registry;
  cfg.metrics_prefix = "srv";
  cfg.idempotent_ops = {"data"};
  auto server = make_server(
      GetParam(), std::move(cfg), [&handler_runs](SoapEnvelope req) {
        ++handler_runs;
        SoapEnvelope resp = services::verification_handler(std::move(req));
        if (services::parse_verify_response(resp).count == 7) {
          throw SoapFaultError("soap:Client", "seven refused");
        }
        return resp;
      });

  TcpClientBinding binding(server->port());
  // Faulting request, repeated: the fault is re-computed every time.
  const auto poisoned = encode_request(7);
  for (int i = 0; i < 3; ++i) {
    const SoapEnvelope env(
        BxsaEncoding{}.deserialize(exchange(binding, poisoned)));
    EXPECT_TRUE(env.is_fault());
  }
  EXPECT_EQ(handler_runs.load(), 3);
  // An operation not in idempotent_ops: handler runs on every repeat.
  const SoapEnvelope fetch =
      services::make_http_fetch_request("http://127.0.0.1:1/missing.nc");
  const auto fetch_bytes = BxsaEncoding{}.serialize(fetch.document());
  for (int i = 0; i < 2; ++i) exchange(binding, fetch_bytes);
  EXPECT_EQ(handler_runs.load(), 5);
  EXPECT_EQ(registry.counter("srv.respcache.hits").value(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Models, RespCacheServer,
                         ::testing::Values(
                             ConcurrencyModel::kThreadPerConnection,
                             ConcurrencyModel::kEventLoop),
                         [](const auto& info) {
                           return info.param ==
                                          ConcurrencyModel::kThreadPerConnection
                                      ? "pool"
                                      : "event";
                         });

}  // namespace
}  // namespace bxsoap::transport
