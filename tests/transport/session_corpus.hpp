// Valid BXTP byte streams for the Session tests (tests/transport) and the
// mutation harness (tests/chaos): one of each thing the parser accepts.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "bxsa/encoder.hpp"
#include "bxsa/stream_writer.hpp"
#include "obs/metrics.hpp"
#include "soap/encoding.hpp"
#include "soap/security.hpp"
#include "transport/compress.hpp"
#include "transport/fault.hpp"
#include "transport/session.hpp"
#include "xdm/node.hpp"

namespace bxsoap::transport::corpus {

/// A flat BXSA document with `n` element names no other `tag` shares, so
/// a small dictionary fills and then resets between two such documents.
inline std::vector<std::uint8_t> names_doc(char tag, int n) {
  const std::string t(1, tag);
  auto root = xdm::make_element(xdm::QName("urn:s", t + "root", "s"));
  root->declare_namespace("s", "urn:s");
  for (int i = 0; i < n; ++i) {
    root->add_child(xdm::make_leaf<std::int32_t>(
        xdm::QName(t + "name" + std::to_string(i)), i));
  }
  return bxsa::encode(*xdm::make_document(std::move(root)));
}

/// Smooth float64 samples: what the adaptive compressor takes on.
inline std::vector<double> smooth(std::size_t n) {
  std::vector<double> xs(n);
  for (std::size_t i = 0; i < n; ++i) xs[i] = 100.0 + 0.25 * i;
  return xs;
}

/// A BXSA document holding a compressible packed array.
inline std::vector<std::uint8_t> smooth_doc(std::size_t n) {
  auto root = xdm::make_element(xdm::QName("samples"));
  root->add_child(xdm::make_array<double>(xdm::QName("xs"), smooth(n)));
  return bxsa::encode(*xdm::make_document(std::move(root)));
}

/// Both sides' offer: a 4-entry dictionary (so it resets), every
/// transform, HMAC stream auth. `reg` collects the dict/compress tallies.
inline Session::Config offer(obs::Registry& reg) {
  Session::Config c;
  c.v3 = true;
  c.dict = {4, 1024};
  c.transforms = transforms::kAll;
  c.auth = soap::make_hmac_stream_auth("session-corpus-key");
  c.dict_stats.resets = &reg.counter("dict.resets");
  c.compress_stats.chunks = &reg.counter("compress.chunks");
  return c;
}

/// The canonical messages each side sends: two name sets (the second
/// forces DICT_RESET on a 4-entry table), then a compressible document.
inline std::vector<std::vector<std::uint8_t>> messages() {
  return {names_doc('a', 10), names_doc('b', 10), names_doc('a', 3),
          smooth_doc(512)};
}

/// Append one signed, compressed v2 stream produced by a chunk-mode
/// bxsa::StreamWriter (data chunks, then the Size/count patches) through
/// `encoder`. `logical` receives the chunk sequence the encoder was given.
inline void append_stream(std::vector<std::uint8_t>& wire,
                          ChunkEncoder encoder,
                          std::vector<StreamChunk>& logical) {
  MemoryStream out;
  BufferPool pool;
  ChunkedFrameWriter<MemoryStream> writer(
      out, soap::BxsaEncoding::content_type(), std::move(encoder));
  std::vector<bxsa::PatchRecord> patches;
  {
    bxsa::StreamWriter w(ByteOrder::kLittle, 1024, pool,
                         [&](std::vector<std::uint8_t> chunk) {
                           logical.push_back({ChunkKind::kData, chunk});
                           writer.write({ChunkKind::kData, std::move(chunk)});
                         });
    w.start_document();
    w.start_element(xdm::QName("urn:c", "blob", "c"),
                    std::array<xdm::NamespaceDecl, 1>{{{"c", "urn:c"}}});
    const std::vector<double> xs = smooth(2000);
    w.array(xdm::QName("xs"), std::span<const double>(xs));
    w.end_element();
    w.end_document();
    patches = w.finish();
  }
  ByteWriter body;
  encode_patch_records(body, patches);
  logical.push_back(
      {ChunkKind::kPatch, {body.bytes().begin(), body.bytes().end()}});
  writer.write_patches(patches);
  writer.finish();
  const std::vector<std::uint8_t> bytes = out.read_exact(out.pending());
  wire.insert(wire.end(), bytes.begin(), bytes.end());
}

/// One negotiated connection, both directions on the wire: each opens
/// with its half of the handshake, carries messages() through the
/// dictionary and the compressor, then one signed chunked stream.
struct Conversation {
  std::vector<std::uint8_t> to_server;
  std::vector<std::uint8_t> to_client;
  std::vector<StreamChunk> client_stream;  // logical chunks, client -> server
  std::vector<StreamChunk> server_stream;  // logical chunks, server -> client
  /// Data chunks the client's stream put on the wire as CompressedData.
  std::uint64_t compressed_stream_chunks = 0;
};

inline Conversation converse(const Session::Config& cfg) {
  Conversation c;
  Session client(Session::Role::kClient, cfg);
  Session server(Session::Role::kServer, cfg);
  c.to_server = client.take_output();
  server.feed(c.to_server);
  server.poll();
  c.to_client = server.take_output();
  client.feed(c.to_client);
  client.poll();
  for (const auto& m : messages()) {
    ByteWriter up;
    client.frame_message(up, m, soap::BxsaEncoding::content_type());
    c.to_server.insert(c.to_server.end(), up.bytes().begin(),
                       up.bytes().end());
    ByteWriter down;
    server.frame_message(down, m, soap::BxsaEncoding::content_type());
    c.to_client.insert(c.to_client.end(), down.bytes().begin(),
                       down.bytes().end());
  }
  const obs::Counter* compressed = cfg.compress_stats.chunks;
  const std::uint64_t before = compressed ? compressed->value() : 0;
  append_stream(c.to_server, client.chunk_encoder(), c.client_stream);
  c.compressed_stream_chunks = (compressed ? compressed->value() : 0) - before;
  append_stream(c.to_client, server.chunk_encoder(), c.server_stream);
  return c;
}

}  // namespace bxsoap::transport::corpus
