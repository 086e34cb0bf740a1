// Wire-level properties of the BXTP v2 chunked path (docs/FORMAT.md):
//
//   * Differential: for every packed atom type and both byte orders, the
//     chunk-mode StreamWriter's output — data chunks reassembled, patch
//     records applied — is byte-identical to the unchunked writer's.
//   * Transcode: a chunk-reassembled document survives the BXSA -> XML ->
//     BXSA round trip, so the streaming path feeds the interop story.
//   * Truncation: a transfer cut at ANY chunk boundary is detected as an
//     error by the reader, never silently accepted as a shorter message.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bxsa/decoder.hpp"
#include "bxsa/stream_writer.hpp"
#include "bxsa/transcode.hpp"
#include "transport/fault.hpp"
#include "transport/framing.hpp"
#include "transport/session.hpp"
#include "transport/stream.hpp"
#include "xdm/equal.hpp"

namespace bxsoap::transport {
namespace {

using namespace bxsoap::xdm;

/// Deterministic test values for any packed atom type.
template <typename T>
std::vector<T> make_values(std::size_t n) {
  std::vector<T> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    if constexpr (std::is_floating_point_v<T>) {
      out[i] = static_cast<T>(i) * T(0.5) - T(100);
    } else {
      out[i] = static_cast<T>(i * 7 + 1);
    }
  }
  return out;
}

/// Emit the same document into `w` regardless of mode: a component root
/// holding a leaf, a packed array of T, and a trailing leaf (so the root's
/// backpatched Size/count fields span the array).
template <typename T>
void produce(bxsa::StreamWriter& w, const std::vector<T>& values) {
  w.start_document();
  const NamespaceDecl ns[] = {{"s", "urn:stream"}};
  w.start_element(QName("urn:stream", "data", "s"), ns);
  w.leaf(QName("before"), std::int32_t{41});
  w.array(QName("payload"), std::span<const T>(values));
  w.leaf(QName("after"), std::int32_t{43});
  w.end_element();
  w.end_document();
}

/// Chunk-mode production with a deliberately tiny chunk size, so the
/// document spans many chunks and the root's Size fields are flushed long
/// before they are patched. Returns the reassembled, patched payload.
template <typename T>
std::vector<std::uint8_t> produce_chunked(ByteOrder order,
                                          const std::vector<T>& values,
                                          std::size_t chunk_bytes,
                                          std::size_t* chunks_out = nullptr) {
  BufferPool pool;
  std::vector<std::uint8_t> reassembled;
  std::size_t chunks = 0;
  bxsa::StreamWriter w(order, chunk_bytes, pool,
                       [&](std::vector<std::uint8_t> chunk) {
                         reassembled.insert(reassembled.end(), chunk.begin(),
                                            chunk.end());
                         ++chunks;
                         pool.release(std::move(chunk));
                       });
  produce(w, values);
  const std::vector<bxsa::PatchRecord> patches = w.finish();
  if (chunks > 1) {
    // Size fields flushed before they could be patched in place must
    // have produced fix-up records. (A single-chunk run patches in the
    // buffer and legitimately needs none.)
    EXPECT_FALSE(patches.empty());
  }
  apply_patches(reassembled, patches);
  if (chunks_out != nullptr) *chunks_out = chunks;
  return reassembled;
}

template <typename T>
void check_differential(ByteOrder order) {
  const std::vector<T> values = make_values<T>(301);

  bxsa::StreamWriter reference(order);
  produce(reference, values);
  const std::vector<std::uint8_t> expected = reference.take();

  std::size_t chunks = 0;
  const std::vector<std::uint8_t> actual =
      produce_chunked(order, values, 64, &chunks);

  EXPECT_GT(chunks, 4u);  // the tiny chunk size actually forced chunking
  ASSERT_EQ(actual, expected);

  // And the reassembled bytes decode: patched Size fields are coherent.
  const DocumentPtr doc = bxsa::decode_document(actual);
  const auto& root = static_cast<const Element&>(doc->root());
  const auto* arr =
      dynamic_cast<const ArrayElement<T>*>(root.find_child("payload"));
  ASSERT_NE(arr, nullptr);
  EXPECT_EQ(arr->values(), values);
}

TEST(ChunkedDifferential, AllPackedTypesLittleEndian) {
  check_differential<std::int8_t>(ByteOrder::kLittle);
  check_differential<std::uint8_t>(ByteOrder::kLittle);
  check_differential<std::int16_t>(ByteOrder::kLittle);
  check_differential<std::uint16_t>(ByteOrder::kLittle);
  check_differential<std::int32_t>(ByteOrder::kLittle);
  check_differential<std::uint32_t>(ByteOrder::kLittle);
  check_differential<std::int64_t>(ByteOrder::kLittle);
  check_differential<std::uint64_t>(ByteOrder::kLittle);
  check_differential<float>(ByteOrder::kLittle);
  check_differential<double>(ByteOrder::kLittle);
}

TEST(ChunkedDifferential, AllPackedTypesBigEndian) {
  check_differential<std::int8_t>(ByteOrder::kBig);
  check_differential<std::uint8_t>(ByteOrder::kBig);
  check_differential<std::int16_t>(ByteOrder::kBig);
  check_differential<std::uint16_t>(ByteOrder::kBig);
  check_differential<std::int32_t>(ByteOrder::kBig);
  check_differential<std::uint32_t>(ByteOrder::kBig);
  check_differential<std::int64_t>(ByteOrder::kBig);
  check_differential<std::uint64_t>(ByteOrder::kBig);
  check_differential<float>(ByteOrder::kBig);
  check_differential<double>(ByteOrder::kBig);
}

TEST(ChunkedDifferential, ChunkSizeDoesNotChangeBytes) {
  const std::vector<double> values = make_values<double>(500);
  const std::vector<std::uint8_t> a =
      produce_chunked(ByteOrder::kLittle, values, 32);
  const std::vector<std::uint8_t> b =
      produce_chunked(ByteOrder::kLittle, values, 777);
  const std::vector<std::uint8_t> c =
      produce_chunked(ByteOrder::kLittle, values, 1u << 20);
  EXPECT_EQ(a, b);
  EXPECT_EQ(b, c);
}

TEST(ChunkedTranscode, ReassembledDocumentSurvivesXmlRoundTrip) {
  const std::vector<double> values = make_values<double>(128);
  const std::vector<std::uint8_t> bxsa1 =
      produce_chunked(ByteOrder::kLittle, values, 100);

  // BXSA -> XML -> BXSA: the chunk-reassembled bytes are a first-class
  // document to the transcoder, indistinguishable from tree output.
  const std::string xml = bxsa::bxsa_to_xml(bxsa1);
  const std::vector<std::uint8_t> bxsa2 = bxsa::xml_to_bxsa(xml);

  const DocumentPtr d1 = bxsa::decode_document(bxsa1);
  const DocumentPtr d2 = bxsa::decode_document(bxsa2);
  EXPECT_TRUE(deep_equal(d1->root(), d2->root()));
}

/// Serialize one whole chunked transfer, recording the wire offset after
/// every chunk frame (and after the v2 header).
struct RecordedTransfer {
  std::vector<std::uint8_t> wire;
  std::vector<std::size_t> boundaries;
};

RecordedTransfer record_transfer() {
  MemoryStream out;
  RecordedTransfer t;
  BufferPool pool;
  ChunkedFrameWriter<MemoryStream> writer(out, "application/bxsa");
  std::vector<bxsa::PatchRecord> patches;
  {
    bxsa::StreamWriter w(ByteOrder::kLittle, 128, pool,
                         [&](std::vector<std::uint8_t> chunk) {
                           writer.write_data(chunk);
                           t.boundaries.push_back(out.pending());
                           pool.release(std::move(chunk));
                         });
    produce(w, make_values<double>(200));
    patches = w.finish();
  }
  writer.write_patches(patches);
  t.boundaries.push_back(out.pending());
  writer.finish();
  t.boundaries.push_back(out.pending());
  t.wire = out.read_exact(out.pending());
  return t;
}

TEST(ChunkedTruncation, EveryChunkBoundaryIsDetected) {
  const RecordedTransfer t = record_transfer();
  ASSERT_GT(t.boundaries.size(), 4u);

  for (std::size_t i = 0; i + 1 < t.boundaries.size(); ++i) {
    const std::size_t cut = t.boundaries[i];
    MemoryStream in;
    in.write_all(std::span<const std::uint8_t>(t.wire.data(), cut));

    Session reader(Session::Role::kServer, {});
    ASSERT_EQ(next_event(in, reader).kind, SessionEvent::Kind::kStream);
    // Reading past the cut must throw (closed mid-message), never report
    // a complete stream: End only surfaces on a VERIFIED end chunk.
    EXPECT_THROW(
        {
          while (next_event(in, reader).kind != SessionEvent::Kind::kEnd) {
          }
        },
        TransportError)
        << "cut after chunk " << i << " (offset " << cut << ")";
  }

  // Control: the full wire parses to End with the total verified.
  MemoryStream in;
  in.write_all(std::span<const std::uint8_t>(t.wire.data(), t.wire.size()));
  Session reader(Session::Role::kServer, {});
  ASSERT_EQ(next_event(in, reader).kind, SessionEvent::Kind::kStream);
  while (next_event(in, reader).kind != SessionEvent::Kind::kEnd) {
  }
}

TEST(ChunkedTruncation, MidChunkCutIsDetected) {
  const RecordedTransfer t = record_transfer();
  // Cut INSIDE the second chunk's body, not at a frame boundary.
  const std::size_t cut = t.boundaries[0] + (t.boundaries[1] - t.boundaries[0]) / 2;
  MemoryStream in;
  in.write_all(std::span<const std::uint8_t>(t.wire.data(), cut));
  Session reader(Session::Role::kServer, {});
  EXPECT_THROW(
      {
        while (next_event(in, reader).kind != SessionEvent::Kind::kEnd) {
        }
      },
      TransportError);
}

}  // namespace
}  // namespace bxsoap::transport
