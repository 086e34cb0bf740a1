#include "transport/fault.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "transport/framing.hpp"
#include "transport/session.hpp"

namespace bxsoap::transport {
namespace {

// ---- FaultPlan -------------------------------------------------------------

TEST(FaultPlan, SeededPlanIsDeterministic) {
  const FaultPlan a(42);
  const FaultPlan b(42);
  for (std::uint64_t n = 0; n < 200; ++n) {
    const FaultSpec x = a.for_connection(n);
    const FaultSpec y = b.for_connection(n);
    EXPECT_EQ(x.kind, y.kind) << n;
    EXPECT_EQ(x.offset, y.offset) << n;
    EXPECT_EQ(x.bit, y.bit) << n;
    EXPECT_EQ(x.delay_ms, y.delay_ms) << n;
  }
}

TEST(FaultPlan, ForConnectionIsPure) {
  const FaultPlan plan(7);
  const FaultSpec first = plan.for_connection(3);
  // Querying other connections must not perturb connection 3's spec.
  plan.for_connection(0);
  plan.for_connection(99);
  const FaultSpec again = plan.for_connection(3);
  EXPECT_EQ(first.kind, again.kind);
  EXPECT_EQ(first.offset, again.offset);
}

TEST(FaultPlan, DifferentSeedsDiffer) {
  const FaultPlan a(1);
  const FaultPlan b(2);
  bool any_difference = false;
  for (std::uint64_t n = 0; n < 64 && !any_difference; ++n) {
    const FaultSpec x = a.for_connection(n);
    const FaultSpec y = b.for_connection(n);
    any_difference = x.kind != y.kind || x.offset != y.offset;
  }
  EXPECT_TRUE(any_difference);
}

TEST(FaultPlan, SeededMixCoversEveryKind) {
  const FaultPlan plan(13);
  bool seen[kFaultKindCount] = {};
  for (std::uint64_t n = 0; n < 500; ++n) {
    seen[static_cast<std::size_t>(plan.for_connection(n).kind)] = true;
  }
  for (std::size_t k = 0; k < kFaultKindCount; ++k) {
    EXPECT_TRUE(seen[k]) << fault_kind_name(static_cast<FaultKind>(k));
  }
}

TEST(FaultPlan, ScriptedPlanFollowsScript) {
  const FaultPlan plan = FaultPlan::script({
      {FaultKind::kReset, 10, 0, 0},
      {FaultKind::kCorrupt, 3, 5, 0},
  });
  EXPECT_EQ(plan.for_connection(0).kind, FaultKind::kReset);
  EXPECT_EQ(plan.for_connection(0).offset, 10u);
  EXPECT_EQ(plan.for_connection(1).kind, FaultKind::kCorrupt);
  EXPECT_EQ(plan.for_connection(1).bit, 5);
  // Past the end of the script: clean.
  EXPECT_EQ(plan.for_connection(2).kind, FaultKind::kNone);
  EXPECT_EQ(plan.for_connection(500).kind, FaultKind::kNone);
}

TEST(FaultPlan, ZeroWeightsYieldClean) {
  FaultPlanConfig config;
  config.weight_none = 0;
  config.weight_reset = 0;
  config.weight_truncate = 0;
  config.weight_delay = 0;
  config.weight_corrupt = 0;
  const FaultPlan plan(9, config);
  EXPECT_EQ(plan.for_connection(0).kind, FaultKind::kNone);
}

// ---- MemoryStream ----------------------------------------------------------

TEST(MemoryStream, FifoRoundTrip) {
  MemoryStream s;
  const std::uint8_t data[] = {1, 2, 3, 4, 5};
  s.write_all(std::span<const std::uint8_t>(data, 5));
  auto first = s.read_exact(2);
  EXPECT_EQ(first, (std::vector<std::uint8_t>{1, 2}));
  auto rest = s.read_exact(3);
  EXPECT_EQ(rest, (std::vector<std::uint8_t>{3, 4, 5}));
  EXPECT_EQ(s.pending(), 0u);
}

TEST(MemoryStream, ReadPastEndBehavesLikeClosedPeer) {
  MemoryStream s;
  s.write_all(std::string_view("ab"));
  std::uint8_t buf[8];
  EXPECT_EQ(s.read_some(buf, 8), 2u);   // partial read drains what's there
  EXPECT_EQ(s.read_some(buf, 8), 0u);   // then EOF, like a closed socket
  EXPECT_THROW(s.read_exact(buf, 1), TransportError);
}

TEST(MemoryStream, CarriesFrames) {
  MemoryStream s;
  soap::WireMessage m;
  m.content_type = "application/bxsa";
  m.payload = {9, 8, 7};
  write_frame(s, m);
  const soap::WireMessage back = read_frame(s);
  EXPECT_EQ(back.content_type, m.content_type);
  EXPECT_EQ(back.payload, m.payload);
}

// ---- frame limits (satellite: reject before allocating) --------------------

// Each case runs through both ways bytes reach the one parser: the blocking
// read_frame loop and a reactor's Session::feed of the whole buffer.

/// The message `wire` parses to under `limits`, or nullopt if rejected
/// with TransportError. Both paths must agree.
std::optional<soap::WireMessage> parse_both_ways(
    std::span<const std::uint8_t> wire, const FrameLimits& limits = {}) {
  std::optional<soap::WireMessage> blocking;
  try {
    MemoryStream s;
    s.write_all(wire);
    blocking = read_frame(s, limits);
  } catch (const TransportError&) {
  }
  std::optional<soap::WireMessage> fed;
  try {
    Session session(Session::Role::kServer, {.limits = limits});
    session.feed(wire);
    if (std::optional<SessionEvent> ev = session.poll()) {
      fed = std::move(ev->message);
    }
  } catch (const TransportError&) {
  }
  EXPECT_EQ(blocking.has_value(), fed.has_value());
  if (blocking && fed) {
    EXPECT_EQ(blocking->payload, fed->payload);
  }
  return blocking;
}

TEST(FrameLimits, OversizedDeclaredLengthRejectedBeforeAllocation) {
  // Hand-craft a frame header that declares an absurd payload length. The
  // payload bytes are never written: if read_frame tried to allocate or
  // read them the test would fail by timeout/bad_alloc rather than by the
  // expected TransportError.
  ByteWriter w;
  w.write_bytes(kFrameMagic, sizeof(kFrameMagic));
  w.write_u8(kFrameVersion);
  vls_write(w, 1);
  w.write_string("x");
  w.write<std::uint64_t>(1ull << 62, ByteOrder::kBig);
  EXPECT_FALSE(parse_both_ways(w.bytes()).has_value());
}

TEST(FrameLimits, ConfigurableCap) {
  MemoryStream s;
  soap::WireMessage m;
  m.content_type = "x";
  m.payload.assign(2048, 0xAB);
  write_frame(s, m);
  const std::vector<std::uint8_t> wire = s.read_exact(s.pending());
  FrameLimits limits;
  limits.max_message_bytes = 1024;
  EXPECT_FALSE(parse_both_ways(wire, limits).has_value());

  // The same frame passes under the default cap.
  const std::optional<soap::WireMessage> back = parse_both_ways(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->payload.size(), 2048u);
}

TEST(FrameLimits, UnreasonableContentTypeRejected) {
  ByteWriter w;
  w.write_bytes(kFrameMagic, sizeof(kFrameMagic));
  w.write_u8(kFrameVersion);
  vls_write(w, 1ull << 40);  // content-type "length"
  EXPECT_FALSE(parse_both_ways(w.bytes()).has_value());
}

// ---- FaultyStream ----------------------------------------------------------

using FaultyMemory = FaultyStream<MemoryStream>;

TEST(FaultyStream, NoneIsTransparent) {
  FaultyMemory fs(MemoryStream{}, FaultSpec{});
  soap::WireMessage m;
  m.content_type = "t";
  m.payload = {1, 2, 3};
  write_frame(fs, m);
  const soap::WireMessage back = read_frame(fs);
  EXPECT_EQ(back.payload, m.payload);
  EXPECT_FALSE(fs.triggered());
}

TEST(FaultyStream, TruncateDeliversExactlyKBytes) {
  constexpr std::uint64_t kCut = 7;
  FaultyMemory fs(MemoryStream{}, {FaultKind::kTruncate, kCut, 0, 0});
  std::vector<std::uint8_t> data(32, 0x55);
  EXPECT_THROW(fs.write_all(std::span<const std::uint8_t>(data)),
               TransportError);
  EXPECT_TRUE(fs.triggered());
  EXPECT_EQ(fs.inner().pending(), kCut);
  // The connection is dead: every further operation fails.
  EXPECT_THROW(fs.write_all(std::span<const std::uint8_t>(data)),
               TransportError);
  std::uint8_t b;
  EXPECT_THROW(fs.read_exact(&b, 1), TransportError);
}

TEST(FaultyStream, TruncateAcrossMultipleWrites) {
  FaultyMemory fs(MemoryStream{}, {FaultKind::kTruncate, 5, 0, 0});
  const std::uint8_t chunk[3] = {1, 2, 3};
  fs.write_all(std::span<const std::uint8_t>(chunk, 3));  // bytes 0..2 pass
  EXPECT_THROW(fs.write_all(std::span<const std::uint8_t>(chunk, 3)),
               TransportError);  // bytes 3..5 cross the cut at 5
  EXPECT_EQ(fs.inner().pending(), 5u);
}

TEST(FaultyStream, ResetAtOffsetZeroDeliversNothing) {
  FaultyMemory fs(MemoryStream{}, {FaultKind::kReset, 0, 0, 0});
  const std::uint8_t chunk[4] = {1, 2, 3, 4};
  EXPECT_THROW(fs.write_all(std::span<const std::uint8_t>(chunk, 4)),
               TransportError);
  EXPECT_EQ(fs.inner().pending(), 0u);
}

TEST(FaultyStream, CorruptFlipsExactlyOneBit) {
  FaultyMemory fs(MemoryStream{}, {FaultKind::kCorrupt, 2, 4, 0});
  const std::uint8_t chunk[4] = {0x00, 0x00, 0x00, 0x00};
  fs.write_all(std::span<const std::uint8_t>(chunk, 4));
  const auto delivered = fs.inner().read_exact(4);
  EXPECT_EQ(delivered, (std::vector<std::uint8_t>{0x00, 0x00, 0x10, 0x00}));
  EXPECT_FALSE(fs.triggered());  // corruption is silent, not fatal
}

TEST(FaultyStream, CorruptOffsetSpansWrites) {
  // The corrupt offset is absolute within the write stream, not per-write.
  FaultyMemory fs(MemoryStream{}, {FaultKind::kCorrupt, 3, 0, 0});
  const std::uint8_t a[2] = {0xFF, 0xFF};
  const std::uint8_t b[2] = {0xFF, 0xFF};
  fs.write_all(std::span<const std::uint8_t>(a, 2));
  fs.write_all(std::span<const std::uint8_t>(b, 2));
  const auto delivered = fs.inner().read_exact(4);
  EXPECT_EQ(delivered, (std::vector<std::uint8_t>{0xFF, 0xFF, 0xFF, 0xFE}));
}

TEST(FaultyStream, DelayStillDeliversIntactData) {
  FaultyMemory fs(MemoryStream{}, {FaultKind::kDelay, 0, 0, 1});
  soap::WireMessage m;
  m.content_type = "t";
  m.payload = {42};
  write_frame(fs, m);
  const soap::WireMessage back = read_frame(fs);
  EXPECT_EQ(back.payload, m.payload);
  EXPECT_GT(fs.bytes_read(), 0u);
}

TEST(FaultyStream, CorruptedFrameHeaderSurfacesAsTransportError) {
  // Flip a bit inside the magic: the reader must reject the frame, not
  // misparse it.
  FaultyMemory fs(MemoryStream{}, {FaultKind::kCorrupt, 0, 3, 0});
  soap::WireMessage m;
  m.content_type = "t";
  m.payload = {1, 2, 3};
  write_frame(fs, m);
  EXPECT_THROW(read_frame(fs.inner()), TransportError);
}

// ---- FaultyBinding counters -------------------------------------------------

TEST(FaultyBinding, RecordsInjections) {
  obs::Registry registry;
  // Use the in-memory MessageQueue-free route: FaultyBinding only needs the
  // BindingPolicy shape, so a loopback stub is enough.
  struct LoopbackBinding {
    std::vector<soap::WireMessage> sent;
    void send_request(soap::WireMessage m) { sent.push_back(std::move(m)); }
    soap::WireMessage receive_response() { return take(); }
    soap::WireMessage receive_request() { return take(); }
    void send_response(soap::WireMessage m) { sent.push_back(std::move(m)); }
    soap::WireMessage take() {
      if (sent.empty()) throw TransportError("empty");
      soap::WireMessage m = std::move(sent.back());
      sent.pop_back();
      return m;
    }
  };
  static_assert(soap::BindingPolicy<LoopbackBinding>);

  const FaultPlan plan = FaultPlan::script({
      {FaultKind::kNone, 0, 0, 0},
      {FaultKind::kTruncate, 1, 0, 0},
      {FaultKind::kReset, 0, 0, 0},
  });
  FaultyBinding<LoopbackBinding> fb(LoopbackBinding{}, plan, &registry);

  soap::WireMessage m;
  m.content_type = "t";
  m.payload = {1, 2, 3, 4};
  fb.send_request(m);                              // message 0: clean
  EXPECT_EQ(fb.receive_response().payload.size(), 4u);
  fb.send_request(m);                              // message 1: truncated
  EXPECT_EQ(fb.receive_response().payload.size(), 1u);
  EXPECT_THROW(fb.send_request(m), TransportError);  // message 2: reset

  EXPECT_EQ(registry.counter("inject.injected.none").value(), 1u);
  EXPECT_EQ(registry.counter("inject.injected.truncate").value(), 1u);
  EXPECT_EQ(registry.counter("inject.injected.reset").value(), 1u);
  EXPECT_EQ(registry.counter("inject.injected.corrupt").value(), 0u);
}

}  // namespace
}  // namespace bxsoap::transport
