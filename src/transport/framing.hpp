// SOAP-over-raw-TCP message framing: the BXTP wire format.
//
// The paper's TCP binding "will just dump the serialization directly to a
// TCP connection"; a receiver still needs to know where one message ends,
// so we put a minimal frame around each message:
//
//   magic   "BXTP"            4 bytes
//   version u8                (1)
//   ctype   VLS len + bytes   content type declared by the encoding policy
//   length  u64 big-endian    payload byte count
//   payload
//
// Versions 2 (chunked transfer) and 3 (negotiated connection state) are
// specified in docs/FORMAT.md. This header holds the wire vocabulary and
// the writers; the one parser of these bytes, and the v3 connection state,
// live in transport/session.hpp.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>
#include <vector>

#include "bxsa/stream_writer.hpp"
#include "common/buffer.hpp"
#include "common/vls.hpp"
#include "soap/binding.hpp"
#include "transport/auth.hpp"
#include "transport/socket.hpp"

namespace bxsoap::transport {

inline constexpr char kFrameMagic[4] = {'B', 'X', 'T', 'P'};
inline constexpr std::uint8_t kFrameVersion = 1;
/// BXTP v2: a chunked transfer, for messages produced and consumed in
/// bounded memory. Same magic + ctype header, then chunk frames instead of
/// one length-prefixed payload (see docs/FORMAT.md "Chunked transfer").
inline constexpr std::uint8_t kFrameVersionChunked = 2;
/// BXTP v3: negotiated connection state (docs/FORMAT.md "BXTP v3"). After
/// magic + version every v3 frame carries a kind byte: a client opens with
/// one Hello, the server answers with one Accept, and from then on both
/// directions exchange Message frames whose flags byte says whether the
/// payload went through the per-channel symbol dictionary. A v2/v1 peer
/// simply never sends version 3 (old clients are served exactly as before),
/// and an old server kills the connection on the Hello's unknown version —
/// the probe failure a v3 client detects to fall back permanently.
inline constexpr std::uint8_t kFrameVersionNegotiated = 3;

/// Kind byte of a v3 frame.
enum class V3FrameKind : std::uint8_t {
  kHello = 0,    ///< client → server: version range + offered dict limits
  kAccept = 1,   ///< server → client: chosen version + effective limits
  kMessage = 2,  ///< either direction: flags u8, then a v1-shaped body
};

/// Message-frame flags (v3 only).
namespace v3flags {
/// The payload is dictionary-coded BXSA (bxsa::dict_encode output); the
/// receiver must run it through its mirrored table before decoding.
inline constexpr std::uint8_t kDictEncoded = 0x01;
/// The sender reset its dictionary before encoding this message; the
/// receiver clears the mirrored table first (an epoch change).
inline constexpr std::uint8_t kDictReset = 0x02;
/// The payload is a compressed body (transport/compress.hpp): a leading
/// transform-id byte, then the transformed bytes. Decompression runs
/// before dictionary decoding (the inverse of the encode order). Only
/// legal on a connection whose handshake negotiated a non-empty
/// transform set.
inline constexpr std::uint8_t kCompressed = 0x04;
inline constexpr std::uint8_t kAllKnown =
    kDictEncoded | kDictReset | kCompressed;
}  // namespace v3flags

/// Hello body: 2 version bytes + each side's dictionary-table offer + the
/// compression transform set the sender is willing to speak + the stream
/// authentication algorithms it can sign/verify with. The effective table
/// is the element-wise minimum of both offers and the effective transform
/// and auth sets are the intersections, so the two sides agree without a
/// second round trip.
struct HelloFrame {
  std::uint8_t min_version = kFrameVersion;
  std::uint8_t max_version = kFrameVersionNegotiated;
  std::uint32_t dict_max_entries = 0;
  std::uint32_t dict_max_bytes = 0;
  std::uint8_t transforms = 0;  ///< transforms:: bitmask offered
  std::uint8_t auth = 0;        ///< authalgs:: bitmask offered
};

/// Accept body: the version the server chose plus the effective limits.
struct AcceptFrame {
  std::uint8_t version = kFrameVersionNegotiated;
  std::uint32_t dict_max_entries = 0;
  std::uint32_t dict_max_bytes = 0;
  std::uint8_t transforms = 0;  ///< client offer ∩ server offer
  std::uint8_t auth = 0;        ///< client offer ∩ server offer
};

/// Default payload ceiling: generous for scientific datasets, small enough
/// that a corrupt length prefix cannot take the process down.
inline constexpr std::size_t kDefaultMaxMessageBytes = 256u << 20;  // 256 MiB
/// Per-chunk ceiling on the v2 path — this is the unit of buffering, so it
/// bounds receiver residency, not message size.
inline constexpr std::size_t kDefaultMaxChunkBytes = 8u << 20;  // 8 MiB
/// Whole-stream ceiling on the v2 path (sum of data chunks).
inline constexpr std::size_t kDefaultMaxStreamBytes = 1u << 30;  // 1 GiB

/// Ceilings applied while parsing an incoming frame. Every field is
/// enforced before the corresponding bytes are read or allocated.
struct FrameLimits {
  std::size_t max_message_bytes = kDefaultMaxMessageBytes;
  std::size_t max_content_type_bytes = 1024;
  std::size_t max_chunk_bytes = kDefaultMaxChunkBytes;
  std::size_t max_stream_bytes = kDefaultMaxStreamBytes;
};

/// Chunk frame kinds on the v2 path. Wire layout of every chunk:
/// kind u8, length u64 big-endian, then `length` body bytes.
enum class ChunkKind : std::uint8_t {
  kData = 0,   ///< body appends to the message payload
  kPatch = 1,  ///< body is PatchRecords fixing up already-sent payload bytes
  kEnd = 2,    ///< body is the u64 BE total payload byte count; closes the
               ///< stream
  kCompressedData = 3,  ///< a kData body behind a compressed-body wrapper
                        ///< (transform id + transformed bytes); only legal
                        ///< after a handshake negotiated a transform set.
                        ///< The end chunk's total counts the DECOMPRESSED
                        ///< bytes, so reassembly is byte-identical.
  kAuth = 4,  ///< authentication trailer: algo u8 + fixed-size tag over the
              ///< stream's LOGICAL chunk sequence (docs/FORMAT.md §"Auth
              ///< trailer"). Only legal after a handshake negotiated an
              ///< auth algorithm; must precede the end chunk. Verified by
              ///< the receiving Session and never surfaced to consumers.
};

/// Largest tag any authalgs:: algorithm produces (HMAC-SHA-256), so a
/// trailer fits a fixed buffer.
inline constexpr std::size_t kMaxAuthTagBytes = 32;

/// Absorb one logical chunk into a stream authenticator. The MAC input is
/// canonical and chunking-explicit: the logical kind byte (kData for both
/// plain and compressed data — compression is invisible to the MAC),
/// the u64 BE logical body length, then the logical (plaintext) body.
/// Sender absorbs before compression, receiver after decompression, so
/// both see identical input regardless of what the wire carried.
inline void auth_absorb_chunk(StreamAuthenticator& a, ChunkKind logical_kind,
                              std::span<const std::uint8_t> body) {
  std::uint8_t hdr[9];
  hdr[0] = static_cast<std::uint8_t>(logical_kind);
  store<std::uint64_t>(body.size(), ByteOrder::kBig, hdr + 1);
  a.update({hdr, sizeof(hdr)});
  a.update(body);
}

/// Close the MAC input with the u64 BE total of logical data bytes (the
/// same number the end chunk carries) and produce the tag.
inline void auth_finalize_tag(StreamAuthenticator& a, std::uint64_t total,
                              std::span<std::uint8_t> tag_out) {
  std::uint8_t total_be[8];
  store<std::uint64_t>(total, ByteOrder::kBig, total_be);
  a.update({total_be, sizeof(total_be)});
  a.finalize(tag_out);
}

/// One received chunk. For kEnd the payload total has already been decoded
/// and verified by the reader; `bytes` is empty.
struct StreamChunk {
  ChunkKind kind = ChunkKind::kData;
  std::vector<std::uint8_t> bytes;
};

/// Wire-encode patch records into `w`: offset u64 BE, len u8, bytes.
inline void encode_patch_records(ByteWriter& w,
                                 std::span<const bxsa::PatchRecord> patches) {
  for (const auto& p : patches) {
    w.write<std::uint64_t>(p.offset, ByteOrder::kBig);
    w.write_u8(p.len);
    w.write_bytes(p.bytes, p.len);
  }
}

/// Decode a patch-chunk body. Throws TransportError on a malformed record
/// (truncation, zero or oversized len).
inline std::vector<bxsa::PatchRecord> decode_patch_records(
    std::span<const std::uint8_t> body) {
  std::vector<bxsa::PatchRecord> out;
  ByteReader r(body);
  try {
    while (!r.at_end()) {
      bxsa::PatchRecord p;
      p.offset = r.read<std::uint64_t>(ByteOrder::kBig);
      p.len = r.read_u8();
      if (p.len == 0 || p.len > sizeof(p.bytes)) {
        throw TransportError("patch record with bad length");
      }
      const auto bytes = r.read_bytes(p.len);
      std::memcpy(p.bytes, bytes.data(), p.len);
      out.push_back(p);
    }
  } catch (const DecodeError&) {
    throw TransportError("truncated patch record");
  }
  return out;
}

/// Apply patch records to a reassembled payload. Every target must lie
/// fully inside the payload; a hostile offset throws instead of writing.
inline void apply_patches(std::span<std::uint8_t> payload,
                          std::span<const bxsa::PatchRecord> patches) {
  for (const auto& p : patches) {
    if (p.len > sizeof(p.bytes) || p.offset > payload.size() ||
        p.len > payload.size() - p.offset) {
      throw TransportError("patch record outside the payload");
    }
    std::memcpy(payload.data() + p.offset, p.bytes, p.len);
  }
}

/// Any byte stream framing can run over: whole-buffer writes and exact
/// reads, both throwing TransportError on failure.
template <typename S>
concept FrameStream = requires(S& s, std::span<const std::uint8_t> out,
                               std::uint8_t* in, std::size_t n) {
  s.write_all(out);
  s.read_exact(in, n);
};

/// Streams that can additionally gather two buffers into one syscall
/// (TcpStream via sendmsg). Test streams (MemoryStream, FaultyStream) stay
/// plain FrameStreams, so their byte-offset-deterministic fault injection
/// is unchanged.
template <typename S>
concept VectoredStream =
    FrameStream<S> && requires(S& s, std::span<const std::uint8_t> buf) {
      s.write_vectored(buf, buf);
    };

/// Append the frame header for `content_type` to `w`, reserving the 8-byte
/// payload-length field as zeros. Returns the length field's offset in `w`;
/// pass it to end_frame once the payload has been appended. This is how an
/// encoder emits header + payload into ONE buffer, sent with one write_all.
inline std::size_t begin_frame(ByteWriter& w, std::string_view content_type) {
  w.write_bytes(kFrameMagic, sizeof(kFrameMagic));
  w.write_u8(kFrameVersion);
  vls_write(w, content_type.size());
  w.write_string(content_type);
  const std::size_t len_pos = w.size();
  w.write_padding(8);
  return len_pos;
}

/// Backpatch the payload length: everything appended after begin_frame
/// returned `len_pos` is the payload.
inline void end_frame(ByteWriter& w, std::size_t len_pos) {
  std::uint8_t len_be[8];
  store<std::uint64_t>(w.size() - len_pos - 8, ByteOrder::kBig, len_be);
  w.patch_bytes(len_pos, len_be, sizeof(len_be));
}

/// Append the header of a v2 chunked transfer: chunk frames follow.
inline void encode_stream_header(ByteWriter& w,
                                 std::string_view content_type) {
  w.write_bytes(kFrameMagic, sizeof(kFrameMagic));
  w.write_u8(kFrameVersionChunked);
  vls_write(w, content_type.size());
  w.write_string(content_type);
}

/// v3 variant of begin_frame: same reserved length field, but the header
/// is a v3 Message frame carrying `flags`.
inline std::size_t begin_frame_v3(ByteWriter& w, std::uint8_t flags,
                                  std::string_view content_type) {
  w.write_bytes(kFrameMagic, sizeof(kFrameMagic));
  w.write_u8(kFrameVersionNegotiated);
  w.write_u8(static_cast<std::uint8_t>(V3FrameKind::kMessage));
  w.write_u8(flags);
  vls_write(w, content_type.size());
  w.write_string(content_type);
  const std::size_t len_pos = w.size();
  w.write_padding(8);
  return len_pos;
}

/// Append one whole Hello frame (magic + version + kind + body).
inline void encode_hello(ByteWriter& w, const HelloFrame& h) {
  w.write_bytes(kFrameMagic, sizeof(kFrameMagic));
  w.write_u8(kFrameVersionNegotiated);
  w.write_u8(static_cast<std::uint8_t>(V3FrameKind::kHello));
  w.write_u8(h.min_version);
  w.write_u8(h.max_version);
  w.write<std::uint32_t>(h.dict_max_entries, ByteOrder::kBig);
  w.write<std::uint32_t>(h.dict_max_bytes, ByteOrder::kBig);
  w.write_u8(h.transforms);
  w.write_u8(h.auth);
}

/// Append one whole Accept frame (magic + version + kind + body).
inline void encode_accept(ByteWriter& w, const AcceptFrame& a) {
  w.write_bytes(kFrameMagic, sizeof(kFrameMagic));
  w.write_u8(kFrameVersionNegotiated);
  w.write_u8(static_cast<std::uint8_t>(V3FrameKind::kAccept));
  w.write_u8(a.version);
  w.write<std::uint32_t>(a.dict_max_entries, ByteOrder::kBig);
  w.write<std::uint32_t>(a.dict_max_bytes, ByteOrder::kBig);
  w.write_u8(a.transforms);
  w.write_u8(a.auth);
}

/// Write one framed message to the stream. The content type is taken as a
/// view so callers that hold the encoding policy's static string (e.g.
/// AnyEncoding::content_type()) pass it straight through with no copy.
/// Streams that support it get header + payload in one gathered syscall;
/// the rest keep the two-write behavior.
template <FrameStream S>
void write_frame(S& stream, std::string_view content_type,
                 std::span<const std::uint8_t> payload) {
  ByteWriter header;
  header.write_bytes(kFrameMagic, sizeof(kFrameMagic));
  header.write_u8(kFrameVersion);
  vls_write(header, content_type.size());
  header.write_string(content_type);
  header.write<std::uint64_t>(payload.size(), ByteOrder::kBig);
  if constexpr (VectoredStream<S>) {
    stream.write_vectored(header.bytes(), payload);
  } else {
    stream.write_all(header.bytes());
    stream.write_all(payload);
  }
}

template <FrameStream S>
void write_frame(S& stream, const soap::WireMessage& m) {
  write_frame(stream, m.content_type, m.payload);
}

}  // namespace bxsoap::transport
