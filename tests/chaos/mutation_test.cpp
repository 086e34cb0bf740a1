// Structure-aware mutation harness for the BXSA decoders and the BXTP
// session.
//
// Valid frame buffers are mutated under a seeded PRNG (bit flips,
// truncations, splices, range fills) and pushed through every consumer of
// untrusted bytes — the tree decoder, the pull StreamReader, the
// FrameScanner, and transport::Session::feed in both roles. The contract
// under test: hostile input costs a DecodeError (or TransportError at the
// framing layer), NEVER a crash, a hang or an unbounded allocation. Run
// under the asan-ubsan preset (scripts/check.sh) this is the repo's
// deterministic fuzz gate; every failure reproduces from its seed.
#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <vector>

#include "../transport/session_corpus.hpp"
#include "bxsa/decoder.hpp"
#include "bxsa/encoder.hpp"
#include "bxsa/frame.hpp"
#include "bxsa/scanner.hpp"
#include "bxsa/stream_reader.hpp"
#include "common/lzss.hpp"
#include "common/prng.hpp"
#include "transport/session.hpp"
#include "xbs/xbs.hpp"
#include "xdm/node.hpp"

namespace bxsoap::bxsa {
namespace {

using namespace bxsoap::xdm;

// ---- corpus ----------------------------------------------------------------

/// A document exercising every frame type: namespaces, attributes, typed
/// leaves, packed arrays, text, comments and PIs.
DocumentPtr rich_document() {
  auto root = make_element(QName("urn:chaos", "root", "c"));
  root->declare_namespace("c", "urn:chaos");
  root->add_attribute(QName("version"), std::string("1"));
  root->add_attribute(QName("count"), std::int32_t{42});

  auto inner = make_element(QName("urn:chaos", "inner", "c"));
  inner->add_child(make_leaf<std::string>(QName("name"), "mutation corpus"));
  inner->add_child(make_leaf<double>(QName("temp"), 291.5));
  inner->add_child(make_leaf<bool>(QName("ok"), true));
  inner->add_child(
      make_array<std::int32_t>(QName("ids"), {1, 2, 3, 5, 8, 13, 21}));
  inner->add_child(make_array<double>(QName("samples"),
                                      {0.5, -1.25, 3.75, 1e300, -2e-300}));
  inner->add_child(std::make_unique<TextNode>("between the frames"));
  root->add_child(std::move(inner));
  root->add_child(std::make_unique<CommentNode>("corpus comment"));
  root->add_child(std::make_unique<PINode>("target", "pi payload"));

  auto doc = std::make_unique<Document>();
  doc->add_child(std::move(root));
  return doc;
}

std::vector<std::vector<std::uint8_t>> build_corpus() {
  std::vector<std::vector<std::uint8_t>> corpus;
  corpus.push_back(encode(*rich_document()));
  EncodeOptions big;
  big.order = ByteOrder::kBig;
  corpus.push_back(encode(*rich_document(), big));
  // A wide, shallow document (many siblings) and a deep, narrow one.
  {
    auto root = make_element(QName("wide"));
    for (int i = 0; i < 40; ++i) {
      root->add_child(make_leaf<std::int32_t>(QName("n"), i));
    }
    corpus.push_back(encode(*make_document(std::move(root))));
  }
  {
    auto leaf = make_element(QName("d"));
    NodePtr node = std::move(leaf);
    for (int i = 0; i < 24; ++i) {
      auto parent = make_element(QName("d"));
      parent->add_child(std::move(node));
      node = std::move(parent);
    }
    corpus.push_back(encode(*make_document(std::move(node))));
  }
  return corpus;
}

// ---- mutation --------------------------------------------------------------

std::vector<std::uint8_t> mutate(std::vector<std::uint8_t> bytes,
                                 SplitMix64& rng) {
  const std::size_t rounds = 1 + rng.next_below(4);
  for (std::size_t round = 0; round < rounds && !bytes.empty(); ++round) {
    switch (rng.next_below(6)) {
      case 0: {  // flip one bit
        const std::size_t i = rng.next_below(bytes.size());
        bytes[i] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
        break;
      }
      case 1: {  // overwrite one byte
        bytes[rng.next_below(bytes.size())] =
            static_cast<std::uint8_t>(rng.next());
        break;
      }
      case 2:  // truncate
        bytes.resize(rng.next_below(bytes.size() + 1));
        break;
      case 3: {  // erase a range
        const std::size_t from = rng.next_below(bytes.size());
        const std::size_t len =
            1 + rng.next_below(std::min<std::size_t>(16, bytes.size() - from));
        bytes.erase(bytes.begin() + static_cast<std::ptrdiff_t>(from),
                    bytes.begin() + static_cast<std::ptrdiff_t>(from + len));
        break;
      }
      case 4: {  // fill a range (0x00 or 0xFF — hostile VLS continuations)
        const std::size_t from = rng.next_below(bytes.size());
        const std::size_t len =
            1 + rng.next_below(std::min<std::size_t>(8, bytes.size() - from));
        const std::uint8_t v = rng.next_bool() ? 0xFF : 0x00;
        std::fill_n(bytes.begin() + static_cast<std::ptrdiff_t>(from), len, v);
        break;
      }
      default: {  // splice: duplicate a slice somewhere else
        const std::size_t from = rng.next_below(bytes.size());
        const std::size_t len =
            1 + rng.next_below(std::min<std::size_t>(12, bytes.size() - from));
        const std::vector<std::uint8_t> slice(
            bytes.begin() + static_cast<std::ptrdiff_t>(from),
            bytes.begin() + static_cast<std::ptrdiff_t>(from + len));
        const std::size_t at = rng.next_below(bytes.size() + 1);
        bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(at),
                     slice.begin(), slice.end());
        break;
      }
    }
  }
  return bytes;
}

// ---- consumers under test --------------------------------------------------

/// Pull every event; a mutation must not turn the reader into an infinite
/// loop, so the cap failure is a std::runtime_error (NOT a bxsoap::Error)
/// and fails the test instead of being swallowed.
void drain_stream_reader(std::span<const std::uint8_t> bytes) {
  StreamReader reader(bytes);
  std::size_t events = 0;
  while (reader.next()) {
    if (++events > 1'000'000) {
      throw std::runtime_error("stream reader event cap exceeded");
    }
  }
}

/// Depth-first scanner walk with an explicit stack and a visit cap.
void walk_scanner(std::span<const std::uint8_t> bytes) {
  if (bytes.empty()) return;
  const FrameScanner scanner(bytes);
  std::vector<std::pair<FrameInfo, std::size_t>> stack;  // frame, limit
  stack.push_back({scanner.frame_at(0), bytes.size()});
  std::size_t visits = 0;
  while (!stack.empty()) {
    if (++visits > 100'000) {
      throw std::runtime_error("scanner visit cap exceeded");
    }
    auto [frame, limit] = stack.back();
    stack.pop_back();
    if (auto sibling = scanner.next(frame, limit)) {
      stack.push_back({*sibling, limit});
    }
    switch (frame.type) {
      case FrameType::kDocument:
      case FrameType::kComponentElement:
        if (frame.type == FrameType::kComponentElement) {
          scanner.element_local_name(frame);
        }
        if (auto child = scanner.first_child(frame)) {
          stack.push_back({*child, frame.end()});
        }
        break;
      case FrameType::kLeafElement:
        scanner.element_local_name(frame);
        break;
      case FrameType::kArrayElement:
        scanner.array_view(frame);
        break;
      default:
        break;
    }
  }
}

// ---- the harness -----------------------------------------------------------

TEST(Mutation, EveryMutantYieldsTypedErrorOrDecodes) {
  const auto corpus = build_corpus();
  std::size_t decoded = 0;
  std::size_t rejected = 0;
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    SplitMix64 rng(seed);
    const auto& original = corpus[static_cast<std::size_t>(
        rng.next_below(corpus.size()))];
    const auto mutant = mutate(original, rng);
    SCOPED_TRACE("seed " + std::to_string(seed));

    try {
      decode(mutant);
      ++decoded;
    } catch (const Error&) {
      ++rejected;  // DecodeError (or kin): the contract
    }
    try {
      drain_stream_reader(mutant);
    } catch (const Error&) {
    }
    try {
      walk_scanner(mutant);
    } catch (const Error&) {
    }
  }
  // The mix must exercise both sides of the contract: most mutants are
  // rejected, some survive mutation (e.g. a bit flip inside array data).
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(decoded + rejected, 0u);
}

TEST(Mutation, CompressedLayerRejectsMutantsTyped) {
  const auto bytes = encode(*rich_document());
  const auto compressed = lzss_compress(bytes);
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    SplitMix64 rng(seed ^ 0xC0FFEE);
    const auto mutant = mutate(compressed, rng);
    SCOPED_TRACE("seed " + std::to_string(seed));
    try {
      const auto plain = lzss_decompress(mutant);
      // If decompression survived, the decoders must still hold the line.
      try {
        decode(plain);
      } catch (const Error&) {
      }
    } catch (const Error&) {
    }
  }
}

// ---- the BXTP session -------------------------------------------------------

/// Feed `wire` to a fresh session at seeded split points, taking every
/// event. Surfaced bodies must respect `limits`; a malformed stream must
/// end in a typed error. Returns whether the stream was rejected.
bool feed_mutant(std::span<const std::uint8_t> wire,
                 transport::Session::Role role,
                 const transport::Session::Config& cfg, SplitMix64& rng) {
  using transport::SessionEvent;
  transport::Session session(role, cfg);
  const transport::FrameLimits& lim = cfg.limits;
  try {
    while (!wire.empty()) {
      const std::size_t piece =
          std::min<std::size_t>(wire.size(), 1 + rng.next_below(64));
      std::span<const std::uint8_t> in = wire.first(piece);
      wire = wire.subspan(piece);
      // Every feed consumes input or completes an event: no hang.
      while (!in.empty()) {
        const std::size_t used = session.feed(in);
        in = in.subspan(used);
        std::optional<SessionEvent> ev = session.poll();
        if (!ev && used == 0) throw std::runtime_error("feed stalled");
        if (!ev) continue;
        // Pooled buffers round up to a power of two: twice the limit is
        // the most any admitted body may have reserved.
        const auto& body = ev->kind == SessionEvent::Kind::kChunk
                               ? ev->chunk.bytes
                               : ev->message.payload;
        const std::size_t cap = ev->kind == SessionEvent::Kind::kChunk
                                    ? lim.max_chunk_bytes
                                    : lim.max_message_bytes;
        if (body.size() > cap || body.capacity() > 2 * cap) {
          throw std::runtime_error("event body past FrameLimits");
        }
      }
    }
  } catch (const Error&) {
    return true;  // TransportError / DecodeError: the contract
  }
  return false;
}

TEST(Mutation, SessionFeedYieldsTypedErrorOrValidEventsInBothRoles) {
  obs::Registry reg;
  transport::Session::Config cfg = transport::corpus::offer(reg);
  // Tight ceilings, so mutated lengths meet them.
  cfg.limits.max_message_bytes = 16 << 10;
  cfg.limits.max_chunk_bytes = 4 << 10;
  cfg.limits.max_stream_bytes = 64 << 10;
  cfg.limits.max_content_type_bytes = 64;
  const transport::corpus::Conversation c = transport::corpus::converse(cfg);
  std::size_t rejected = 0;
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    SplitMix64 rng(seed ^ 0x5E55);
    const bool to_server = (seed & 1) == 0;
    const auto mutant = mutate(to_server ? c.to_server : c.to_client, rng);
    SCOPED_TRACE("seed " + std::to_string(seed));
    if (feed_mutant(mutant,
                    to_server ? transport::Session::Role::kServer
                              : transport::Session::Role::kClient,
                    cfg, rng)) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u);
  // Control: the unmutated streams parse cleanly in both roles.
  SplitMix64 rng(1);
  EXPECT_FALSE(feed_mutant(c.to_server, transport::Session::Role::kServer,
                           cfg, rng));
  EXPECT_FALSE(feed_mutant(c.to_client, transport::Session::Role::kClient,
                           cfg, rng));
}

// ---- targeted resource-limit probes ----------------------------------------

TEST(DecoderLimits, NestingBombRejectedByBothDecoders) {
  // 1500 nested elements: over the 1024-frame depth cap of both the tree
  // decoder and the stream reader.
  NodePtr node = make_element(QName("leaf"));
  for (int i = 0; i < 1500; ++i) {
    auto parent = make_element(QName("n"));
    parent->add_child(std::move(node));
    node = std::move(parent);
  }
  const auto bytes = encode(*make_document(std::move(node)));
  EXPECT_THROW(decode_document(bytes), DecodeError);
  EXPECT_THROW(drain_stream_reader(bytes), DecodeError);
}

TEST(DecoderLimits, HostileNamespaceCountRejectedBeforeAllocation) {
  // A leaf frame whose header declares ~2^32 namespace declarations backed
  // by five bytes of input. Must throw, not reserve gigabytes (under ASan
  // an over-reservation aborts the process, so this also guards the
  // allocator path).
  xbs::Writer body;
  body.put_vls((1ull << 32) - 1);  // n1
  const auto body_bytes = body.take();
  xbs::Writer frame;
  frame.put_u8(make_prefix_byte(FrameType::kLeafElement, ByteOrder::kLittle));
  frame.put_vls(body_bytes.size());
  frame.put_raw(body_bytes.data(), body_bytes.size());
  const auto bytes = frame.take();
  EXPECT_THROW(decode(bytes), DecodeError);
  EXPECT_THROW(drain_stream_reader(bytes), DecodeError);
}

TEST(DecoderLimits, HostileArrayCountRejectedBeforeAllocation) {
  // A well-formed array header declaring 2^61 doubles: count * item
  // overflows size_t if multiplied naively.
  xbs::Writer body;
  body.put_vls(0);           // n1: no namespace declarations
  body.put_vls(0);           // QNameRef depth 0 -> literal name
  body.put_string("a");      //   local name
  body.put_vls(0);           // n2: no attributes
  body.put_u8(static_cast<std::uint8_t>(AtomType::kFloat64));
  body.put_string("item");   // item name
  body.put_vls(1ull << 61);  // count
  const auto body_bytes = body.take();
  xbs::Writer frame;
  frame.put_u8(make_prefix_byte(FrameType::kArrayElement, ByteOrder::kLittle));
  frame.put_vls(body_bytes.size());
  frame.put_raw(body_bytes.data(), body_bytes.size());
  const auto bytes = frame.take();
  EXPECT_THROW(decode(bytes), DecodeError);
  EXPECT_THROW(drain_stream_reader(bytes), DecodeError);
  EXPECT_THROW(walk_scanner(bytes), DecodeError);
}

TEST(DecoderLimits, LzssForgedSizeHeaderRejected) {
  // "LZS1" + declared size of 4 GiB over a 4-byte token body: the
  // amplification bound must refuse before reserving anything.
  std::vector<std::uint8_t> bomb = {'L', 'Z', 'S', '1'};
  bomb.resize(12, 0);
  bomb[8] = 0x01;  // size u64 LE = 1 << 32
  bomb.push_back(0x00);
  bomb.push_back(0x41);
  bomb.push_back(0x41);
  bomb.push_back(0x41);
  EXPECT_THROW(lzss_decompress(bomb), DecodeError);
}

}  // namespace
}  // namespace bxsoap::bxsa
