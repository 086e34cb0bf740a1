// Properties of transport::Session, the one parser of BXTP bytes:
//
//   * Split invariance: every corpus stream (a v1 message; a v3 Hello with
//     dictionary-coded and compressed messages, DICT_RESET included; a
//     signed v2 stream with Patch and CompressedData chunks, in both roles)
//     yields the same events and bytes fed whole, one byte at a time, at
//     seeded random split points, and through the blocking next_event loop.
//   * A dictionary-coded message that decodes past FrameLimits is cut.
//   * Read no further than the frame: back-to-back frames in one stream
//     come out of read_frame one at a time, the next frame left unread.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/prng.hpp"
#include "transport/fault.hpp"
#include "transport/session.hpp"
#include "session_corpus.hpp"

namespace bxsoap::transport {
namespace {

using corpus::Conversation;

/// One surfaced event, flattened for comparison.
struct Ev {
  SessionEvent::Kind kind;
  std::string content_type;
  ChunkKind chunk_kind;
  std::vector<std::uint8_t> bytes;
  bool operator==(const Ev&) const = default;
};

Ev flatten(SessionEvent ev) {
  const bool chunk = ev.kind == SessionEvent::Kind::kChunk;
  return {ev.kind, ev.message.content_type,
          chunk ? ev.chunk.kind : ChunkKind::kData,
          chunk ? std::move(ev.chunk.bytes) : std::move(ev.message.payload)};
}

/// Feed `wire` to a fresh session split at `cuts` (ascending offsets).
std::vector<Ev> feed_split(std::span<const std::uint8_t> wire,
                           Session::Role role, const Session::Config& cfg,
                           const std::vector<std::size_t>& cuts) {
  Session session(role, cfg);
  std::vector<Ev> out;
  std::size_t from = 0;
  for (std::size_t i = 0; i <= cuts.size(); ++i) {
    const std::size_t to = i < cuts.size() ? cuts[i] : wire.size();
    std::span<const std::uint8_t> piece = wire.subspan(from, to - from);
    from = to;
    while (!piece.empty()) {
      const std::size_t used = session.feed(piece);
      piece = piece.subspan(used);
      std::optional<SessionEvent> ev = session.poll();
      if (!ev && used == 0) {
        ADD_FAILURE() << "feed made no progress";
        return out;
      }
      if (ev) out.push_back(flatten(std::move(*ev)));
    }
  }
  // An event completed by the last byte is still pending.
  while (std::optional<SessionEvent> ev = session.poll()) {
    out.push_back(flatten(std::move(*ev)));
  }
  return out;
}

/// The blocking driver over the same bytes.
std::vector<Ev> read_blocking(std::span<const std::uint8_t> wire,
                              Session::Role role,
                              const Session::Config& cfg) {
  MemoryStream in;
  in.write_all(wire);
  Session session(role, cfg);
  std::vector<Ev> out;
  while (in.pending() > 0) out.push_back(flatten(next_event(in, session)));
  return out;
}

/// Every way of cutting `wire` yields `want`.
void expect_split_invariant(std::span<const std::uint8_t> wire,
                            Session::Role role, const Session::Config& cfg,
                            const std::vector<Ev>& want) {
  EXPECT_EQ(feed_split(wire, role, cfg, {}), want) << "whole";
  std::vector<std::size_t> bytewise(wire.size() > 0 ? wire.size() - 1 : 0);
  for (std::size_t i = 0; i < bytewise.size(); ++i) bytewise[i] = i + 1;
  EXPECT_EQ(feed_split(wire, role, cfg, bytewise), want) << "bytewise";
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    SplitMix64 rng(seed);
    std::vector<std::size_t> cuts(100);
    for (std::size_t& c : cuts) c = rng.next_below(wire.size() + 1);
    std::sort(cuts.begin(), cuts.end());
    EXPECT_EQ(feed_split(wire, role, cfg, cuts), want) << "seed " << seed;
  }
  EXPECT_EQ(read_blocking(wire, role, cfg), want) << "blocking";
}

/// What the peer said: the handshake, each canonical message, the stream.
std::vector<Ev> expected(const std::vector<StreamChunk>& stream) {
  const std::string ct(soap::BxsaEncoding::content_type());
  std::vector<Ev> want{{SessionEvent::Kind::kHandshake, "", ChunkKind::kData,
                        {}}};
  for (auto& m : corpus::messages()) {
    want.push_back({SessionEvent::Kind::kMessage, ct, ChunkKind::kData, m});
  }
  want.push_back({SessionEvent::Kind::kStream, ct, ChunkKind::kData, {}});
  for (const StreamChunk& c : stream) {
    want.push_back({SessionEvent::Kind::kChunk, "", c.kind, c.bytes});
  }
  want.push_back({SessionEvent::Kind::kEnd, "", ChunkKind::kData, {}});
  return want;
}

TEST(SessionSplit, V1MessageIsSplitInvariant) {
  MemoryStream s;
  const std::vector<std::uint8_t> payload = corpus::messages().front();
  write_frame(s, soap::BxsaEncoding::content_type(), payload);
  const std::vector<std::uint8_t> wire = s.read_exact(s.pending());
  expect_split_invariant(
      wire, Session::Role::kServer, {},
      {{SessionEvent::Kind::kMessage,
        std::string(soap::BxsaEncoding::content_type()), ChunkKind::kData,
        payload}});
}

TEST(SessionSplit, NegotiatedConversationIsSplitInvariantInBothRoles) {
  obs::Registry reg;
  const Session::Config cfg = corpus::offer(reg);
  const Conversation c = corpus::converse(cfg);
  // The corpus really exercises what it claims to.
  ASSERT_GT(reg.counter("dict.resets").value(), 0u);
  ASSERT_GT(reg.counter("compress.chunks").value(),
            c.compressed_stream_chunks);
  ASSERT_GT(c.compressed_stream_chunks, 0u);
  ASSERT_EQ(c.client_stream.back().kind, ChunkKind::kPatch);

  expect_split_invariant(c.to_server, Session::Role::kServer, cfg,
                         expected(c.client_stream));
  expect_split_invariant(c.to_client, Session::Role::kClient, cfg,
                         expected(c.server_stream));
}

TEST(SessionLimits, DictionaryExpansionPastTheMessageLimitIsRejected) {
  // Long names travel once as literals, then as one-byte references: a
  // message well under the limit on the wire decodes to one well over it.
  const auto doc = [](int repeats) {
    auto root = xdm::make_element(xdm::QName("r"));
    for (int r = 0; r < repeats; ++r) {
      for (int i = 0; i < 16; ++i) {
        root->add_child(xdm::make_leaf<std::int32_t>(
            xdm::QName(std::string(100, static_cast<char>('a' + i))), i));
      }
    }
    return bxsa::encode(*xdm::make_document(std::move(root)));
  };
  Session::Config cfg;
  cfg.v3 = true;
  cfg.dict = bxsa::DictLimits{};
  cfg.limits.max_message_bytes = 4096;
  Session client(Session::Role::kClient, cfg);
  Session server(Session::Role::kServer, cfg);
  std::vector<std::uint8_t> wire = client.take_output();
  server.feed(wire);
  ASSERT_EQ(server.poll()->kind, SessionEvent::Kind::kHandshake);
  client.feed(server.take_output());
  ASSERT_EQ(client.poll()->kind, SessionEvent::Kind::kHandshake);

  const std::vector<std::uint8_t> warm = doc(1), big = doc(8);
  ASSERT_LT(warm.size(), cfg.limits.max_message_bytes);
  ASSERT_GT(big.size(), cfg.limits.max_message_bytes);
  ByteWriter w1, w2;
  client.frame_message(w1, warm, soap::BxsaEncoding::content_type());
  client.frame_message(w2, big, soap::BxsaEncoding::content_type());
  ASSERT_LT(w2.size(), cfg.limits.max_message_bytes);
  server.feed(w1.bytes());
  ASSERT_EQ(server.poll()->message.payload, warm);
  EXPECT_THROW(server.feed(w2.bytes()), TransportError);
}

TEST(SessionBlocking, BackToBackFramesAreReadOneAtATime) {
  MemoryStream s;
  std::vector<std::size_t> sizes;
  for (std::size_t n : {3u, 700u, 0u}) {
    const std::size_t before = s.pending();
    write_frame(s, "application/x-test", std::vector<std::uint8_t>(n, 0x5A));
    sizes.push_back(s.pending() - before);
  }
  std::size_t left = sizes[0] + sizes[1] + sizes[2];
  for (std::size_t i = 0; i < 3; ++i) {
    const soap::WireMessage m = read_frame(s);
    left -= sizes[i];
    EXPECT_EQ(s.pending(), left) << "frame " << i << " read past its end";
    EXPECT_EQ(m.content_type, "application/x-test");
  }
}

}  // namespace
}  // namespace bxsoap::transport
