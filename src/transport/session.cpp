#include "transport/session.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "common/hmac_sha256.hpp"
#include "soap/encoding.hpp"

namespace bxsoap::transport {

namespace {

constexpr std::size_t kFixedBytes = 5;        // magic + version
constexpr std::size_t kHelloBodyBytes = 12;   // see HelloFrame
constexpr std::size_t kAcceptBodyBytes = 11;  // see AcceptFrame
constexpr std::size_t kChunkHdrBytes = 9;     // kind u8 + length u64 BE

/// Adds the nanoseconds since construction to a counter on destruction.
struct NsTimer {
  obs::Counter* sink;
  std::chrono::steady_clock::time_point t0 = std::chrono::steady_clock::now();
  ~NsTimer() {
    if (sink == nullptr) return;
    sink->add(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
  }
};

void count_bytes(const AuthStats& stats, std::size_t n) {
  if (stats.bytes_authenticated != nullptr) stats.bytes_authenticated->add(n);
}

}  // namespace

// ---- ChunkEncoder ----------------------------------------------------------

ChunkEncoder::ChunkEncoder(ChunkCompression compression,
                           std::unique_ptr<StreamAuthenticator> auth,
                           std::uint8_t algo, AuthStats stats)
    : compression_(compression),
      auth_(std::move(auth)),
      algo_(algo),
      auth_stats_(stats) {
  if (auth_ != nullptr) auth_->init();
}

StreamChunk ChunkEncoder::encode(StreamChunk logical) {
  if (logical.kind != ChunkKind::kData && logical.kind != ChunkKind::kPatch) {
    throw TransportError("end and auth chunks are emitted by finish()");
  }
  if (auth_ != nullptr) {
    auth_absorb_chunk(*auth_, logical.kind, logical.bytes);
    count_bytes(auth_stats_, logical.bytes.size());
  }
  if (logical.kind != ChunkKind::kData) return logical;
  // The End total counts LOGICAL bytes, tallied before any compression.
  total_ += logical.bytes.size();
  if (compression_.transforms == 0) return logical;
  BufferPool& p = pool();
  std::vector<std::uint8_t> packed = p.acquire(logical.bytes.size() + 64);
  if (compress_append(logical.bytes, compression_.transforms,
                      compression_.policy, p, packed, compression_.stats) ==
      Transform::kNone) {
    p.release(std::move(packed));
    return logical;
  }
  p.release(std::move(logical.bytes));
  return StreamChunk{ChunkKind::kCompressedData, std::move(packed)};
}

std::vector<StreamChunk> ChunkEncoder::finish() {
  std::vector<StreamChunk> out;
  if (auth_ != nullptr) {
    // The trailer rides before End, so the receiver verifies the whole
    // stream before End can reach its consumer.
    const std::size_t tag_size = auth_->tag_size();
    std::vector<std::uint8_t> trailer = pool().acquire(1 + tag_size);
    trailer.resize(1 + tag_size);
    trailer[0] = algo_;
    auth_finalize_tag(*auth_, total_, {trailer.data() + 1, tag_size});
    out.push_back(StreamChunk{ChunkKind::kAuth, std::move(trailer)});
  }
  std::vector<std::uint8_t> end = pool().acquire(8);
  end.resize(8);
  store<std::uint64_t>(total_, ByteOrder::kBig, end.data());
  out.push_back(StreamChunk{ChunkKind::kEnd, std::move(end)});
  return out;
}

// ---- Session: construction and the byte pump --------------------------------

Session::Session(Role role, Config config)
    : role_(role), cfg_(std::move(config)) {
  if (role_ == Role::kClient && cfg_.v3) {
    HelloFrame hello;
    hello.dict_max_entries = cfg_.dict.max_entries;
    hello.dict_max_bytes = cfg_.dict.max_bytes;
    hello.transforms = cfg_.transforms;
    hello.auth = cfg_.auth ? cfg_.auth.algos : std::uint8_t{0};
    ByteWriter w;
    encode_hello(w, hello);
    output_ = w.take();
    awaiting_accept_ = true;
  }
}

std::size_t Session::feed(std::span<const std::uint8_t> bytes) {
  std::size_t used = 0;
  while (used < bytes.size() && !event_) {
    const std::span<const std::uint8_t> rest = bytes.subspan(used);
    std::size_t n = 0;
    if ((state_ == State::kPayload || state_ == State::kChunkBody) &&
        body_.size() == have_) {
      // Append straight from the caller's buffer: one copy, no zero-fill.
      n = std::min(rest.size(), need_ - have_);
      body_.insert(body_.end(), rest.begin(),
                   rest.begin() + static_cast<std::ptrdiff_t>(n));
    } else {
      const std::span<std::uint8_t> w = window();
      n = std::min(rest.size(), w.size());
      std::memcpy(w.data(), rest.data(), n);
    }
    commit(n);
    used += n;
  }
  return used;
}

std::span<std::uint8_t> Session::window() {
  switch (state_) {
    case State::kCtBytes:
      return {reinterpret_cast<std::uint8_t*>(ct_.data()) + have_,
              need_ - have_};
    case State::kPayload:
    case State::kChunkBody:
      if (body_.size() != need_) body_.resize(need_);
      return {body_.data() + have_, need_ - have_};
    default:
      return {scratch_ + have_, need_ - have_};
  }
}

void Session::commit(std::size_t n) {
  have_ += n;
  if (have_ == need_) complete();
}

std::optional<SessionEvent> Session::poll() {
  std::optional<SessionEvent> ev = std::move(event_);
  event_.reset();
  return ev;
}

void Session::complete() {
  switch (state_) {
    case State::kFixed:
      return on_fixed();
    case State::kV3Kind:
      return on_v3_kind();
    case State::kHello:
      return on_hello();
    case State::kAccept:
      return on_accept();
    case State::kV3Flags:
      flags_ = scratch_[0];
      if ((flags_ & ~v3flags::kAllKnown) != 0) {
        throw TransportError("unknown v3 message flags");
      }
      return begin_content_type();
    case State::kCtLen:
      return on_ct_len();
    case State::kCtBytes:
      return after_content_type();
    case State::kLen:
      return on_len();
    case State::kPayload:
      return on_payload();
    case State::kChunkHdr:
      return on_chunk_hdr();
    case State::kChunkBody:
      return on_chunk_body();
    case State::kChunkSmall:
      return on_chunk_small();
  }
}

// ---- Session: frame headers and the handshake -------------------------------

void Session::on_fixed() {
  if (std::memcmp(scratch_, kFrameMagic, sizeof(kFrameMagic)) != 0) {
    throw TransportError("bad frame magic");
  }
  version_ = scratch_[4];
  flags_ = 0;
  first_frame_ = fresh_;
  fresh_ = false;
  if (awaiting_accept_ && version_ != kFrameVersionNegotiated) {
    throw TransportError("expected an Accept frame, got version " +
                         std::to_string(version_));
  }
  const bool v3_ok = role_ == Role::kServer ? cfg_.v3
                                            : awaiting_accept_ || negotiated_;
  if (version_ == kFrameVersionNegotiated && v3_ok) {
    return enter(State::kV3Kind, 1);
  }
  if (version_ != kFrameVersion && version_ != kFrameVersionChunked) {
    throw TransportError("unsupported frame version " +
                         std::to_string(version_));
  }
  begin_content_type();
}

void Session::on_v3_kind() {
  const std::uint8_t kind = scratch_[0];
  if (awaiting_accept_) {
    if (kind != static_cast<std::uint8_t>(V3FrameKind::kAccept)) {
      throw TransportError("expected an Accept frame, got version 3 kind " +
                           std::to_string(kind));
    }
    return enter(State::kAccept, kAcceptBodyBytes);
  }
  if (kind == static_cast<std::uint8_t>(V3FrameKind::kHello) &&
      role_ == Role::kServer) {
    // FORMAT.md §"BXTP v3": the Hello must be the first frame on the
    // connection and may appear at most once. The Accept answers no
    // request, so nothing may precede it on the wire.
    if (!first_frame_) {
      throw TransportError(
          "Hello is legal only as the connection's first frame");
    }
    return enter(State::kHello, kHelloBodyBytes);
  }
  if (kind != static_cast<std::uint8_t>(V3FrameKind::kMessage)) {
    throw TransportError("unexpected v3 frame kind " + std::to_string(kind));
  }
  enter(State::kV3Flags, 1);
}

void Session::on_hello() {
  HelloFrame hello;
  hello.min_version = scratch_[0];
  hello.max_version = scratch_[1];
  hello.dict_max_entries = load<std::uint32_t>(scratch_ + 2, ByteOrder::kBig);
  hello.dict_max_bytes = load<std::uint32_t>(scratch_ + 6, ByteOrder::kBig);
  hello.transforms = scratch_[10];
  hello.auth = scratch_[11];
  if (hello.min_version > hello.max_version) {
    throw TransportError("Hello with an empty version range");
  }
  AcceptFrame accept;
  accept.version = kFrameVersion;
  if (hello.max_version >= kFrameVersionNegotiated) {
    // The effective table is the element-wise minimum of both offers, the
    // transform and auth sets the intersections — both sides agree
    // without a second round trip. Empty sets keep the channel
    // byte-identical to a peer that never heard of the option.
    const bxsa::DictLimits eff =
        cfg_.dict.min_with({hello.dict_max_entries, hello.dict_max_bytes});
    accept.version = kFrameVersionNegotiated;
    accept.dict_max_entries = eff.max_entries;
    accept.dict_max_bytes = eff.max_bytes;
    accept.transforms = cfg_.transforms & hello.transforms;
    accept.auth = cfg_.auth ? (cfg_.auth.algos & hello.auth) : std::uint8_t{0};
    adopt(eff, accept.transforms, accept.auth);
  }
  // A peer that probed with v3 framing but cannot speak it gets version 1
  // and is served plain frames from here on.
  ByteWriter w(pool().acquire(32));
  encode_accept(w, accept);
  output_ = w.take();
  event_.emplace().kind = SessionEvent::Kind::kHandshake;
  enter(State::kFixed, kFixedBytes);
}

void Session::on_accept() {
  AcceptFrame accept;
  accept.version = scratch_[0];
  accept.dict_max_entries = load<std::uint32_t>(scratch_ + 1, ByteOrder::kBig);
  accept.dict_max_bytes = load<std::uint32_t>(scratch_ + 5, ByteOrder::kBig);
  accept.transforms = scratch_[9];
  accept.auth = scratch_[10];
  if (accept.version != kFrameVersion &&
      accept.version != kFrameVersionNegotiated) {
    throw TransportError("Accept names an unknown version " +
                         std::to_string(accept.version));
  }
  awaiting_accept_ = false;
  if (accept.version == kFrameVersionNegotiated) {
    // Re-intersect with our own offer: a server granting transforms or
    // algorithms we never offered must not make us accept or emit them.
    adopt({accept.dict_max_entries, accept.dict_max_bytes},
          accept.transforms & cfg_.transforms,
          accept.auth & (cfg_.auth ? cfg_.auth.algos : std::uint8_t{0}));
  }
  event_.emplace().kind = SessionEvent::Kind::kHandshake;
  enter(State::kFixed, kFixedBytes);
}

void Session::adopt(bxsa::DictLimits dict, std::uint8_t transforms,
                    std::uint8_t auth) {
  negotiated_ = true;
  dict_ = dict;
  transforms_ = transforms;
  // The effective algorithm is the lowest bit of the intersection; none =
  // this connection's streams stay unsigned (the sticky downgrade).
  auth_algo_ = authalgs::pick(auth);
  if (auth_algo_ != 0) {
    rx_auth_ = cfg_.auth.make(auth_algo_);
    if (rx_auth_ == nullptr) {
      throw TransportError("stream auth cannot build the negotiated "
                           "algorithm");
    }
  }
  if (dict_.max_entries > 0) {
    enc_dict_.emplace(dict_);
    dec_dict_.emplace(dict_);
  }
}

void Session::begin_content_type() {
  ct_len_ = 0;
  vls_shift_ = 0;
  enter(State::kCtLen, 1);
}

/// The content-type length is a VLS, taken one byte at a time.
void Session::on_ct_len() {
  const std::uint8_t b = scratch_[0];
  ct_len_ |= static_cast<std::uint64_t>(b & 0x7F) << vls_shift_;
  vls_shift_ += 7;
  if ((b & 0x80) != 0) {
    if (vls_shift_ == 7 * kMaxVlsBytes) {
      throw TransportError("malformed frame VLS");
    }
    return enter(State::kCtLen, 1);
  }
  if (ct_len_ > cfg_.limits.max_content_type_bytes) {
    throw TransportError("content type unreasonably long");
  }
  ct_.assign(static_cast<std::size_t>(ct_len_), '\0');
  if (ct_len_ == 0) return after_content_type();
  enter(State::kCtBytes, static_cast<std::size_t>(ct_len_));
}

/// Where the header hands off: v1/v3 read a payload length; v2 starts a
/// stream (rewinding the receive authenticator on a signed connection).
void Session::after_content_type() {
  if (version_ != kFrameVersionChunked) return enter(State::kLen, 8);
  stream_total_ = 0;
  auth_verified_ = false;
  if (rx_auth_ != nullptr) rx_auth_->init();
  SessionEvent& ev = event_.emplace();
  ev.kind = SessionEvent::Kind::kStream;
  ev.message.content_type = std::move(ct_);
  ct_.clear();
  enter(State::kChunkHdr, kChunkHdrBytes);
}

// ---- Session: messages ------------------------------------------------------

void Session::on_len() {
  const std::uint64_t len = load<std::uint64_t>(scratch_, ByteOrder::kBig);
  // Checked BEFORE sizing any buffer: a corrupt or hostile u64 must not
  // reach the allocator.
  if (len > cfg_.limits.max_message_bytes) {
    throw TransportError("frame payload of " + std::to_string(len) +
                         " bytes exceeds the " +
                         std::to_string(cfg_.limits.max_message_bytes) +
                         "-byte message limit");
  }
  body_ = pool().acquire(static_cast<std::size_t>(len));
  if (len == 0) return on_payload();
  enter(State::kPayload, static_cast<std::size_t>(len));
}

void Session::on_payload() {
  SessionEvent ev;
  ev.kind = SessionEvent::Kind::kMessage;
  ev.message.content_type = std::move(ct_);
  ct_.clear();
  ev.message.payload = std::move(body_);
  body_ = {};
  // Decode order is the reverse of encode order (dictionary, then
  // compression): decompress first so the dictionary sees its own output.
  if ((flags_ & v3flags::kCompressed) != 0) {
    std::vector<std::uint8_t> plain =
        decompress_body(ev.message.payload, transforms_,
                        cfg_.limits.max_message_bytes, pool());
    pool().release(std::move(ev.message.payload));
    ev.message.payload = std::move(plain);
  }
  if ((flags_ & v3flags::kDictEncoded) != 0) {
    if (!dec_dict_) {
      throw TransportError(
          "dictionary-coded message without a negotiated table");
    }
    ByteWriter plain(pool().acquire(ev.message.payload.size() + 64));
    try {
      dec_dict_->decode(ev.message.payload,
                        (flags_ & v3flags::kDictReset) != 0, plain,
                        cfg_.dict_stats);
    } catch (const DecodeError& e) {
      // A mirror desync poisons every later message on this channel;
      // strict validation cuts the connection (FORMAT.md "BXTP v3").
      throw TransportError(std::string("dictionary decode failed: ") +
                           e.what());
    }
    pool().release(std::move(ev.message.payload));
    ev.message.payload = plain.take();
    // References expand: the decoded size is bounded only here.
    if (ev.message.payload.size() > cfg_.limits.max_message_bytes) {
      throw TransportError("dictionary-decoded message exceeds the " +
                           std::to_string(cfg_.limits.max_message_bytes) +
                           "-byte message limit");
    }
  }
  event_ = std::move(ev);
  enter(State::kFixed, kFixedBytes);
}

// ---- Session: chunked streams -----------------------------------------------

void Session::on_chunk_hdr() {
  const std::uint64_t len = load<std::uint64_t>(scratch_ + 1, ByteOrder::kBig);
  const FrameLimits& lim = cfg_.limits;
  if (auth_verified_ &&
      scratch_[0] != static_cast<std::uint8_t>(ChunkKind::kEnd)) {
    // The trailer must be the last chunk before End; anything after it is
    // outside the signature.
    throw TransportError("chunk after the auth trailer");
  }
  switch (scratch_[0]) {
    case static_cast<std::uint8_t>(ChunkKind::kData):
      if (len > lim.max_chunk_bytes) {
        throw TransportError("chunk of " + std::to_string(len) +
                             " bytes exceeds the chunk limit");
      }
      if (len > lim.max_stream_bytes - stream_total_) {
        throw TransportError("chunked stream exceeds the stream limit");
      }
      break;
    case static_cast<std::uint8_t>(ChunkKind::kCompressedData):
      // Wire bytes obey the chunk cap here; the decompressed size is
      // capped when the body completes.
      if (len > lim.max_chunk_bytes) {
        throw TransportError("chunk of " + std::to_string(len) +
                             " bytes exceeds the chunk limit");
      }
      break;
    case static_cast<std::uint8_t>(ChunkKind::kPatch):
      if (len > lim.max_chunk_bytes) {
        throw TransportError("patch chunk exceeds the chunk limit");
      }
      break;
    case static_cast<std::uint8_t>(ChunkKind::kAuth):
      if (rx_auth_ == nullptr) {
        throw TransportError("auth chunk on an unauthenticated stream");
      }
      if (len != 1 + rx_auth_->tag_size() || len > sizeof(scratch_)) {
        throw TransportError("malformed auth trailer");
      }
      break;
    case static_cast<std::uint8_t>(ChunkKind::kEnd):
      if (len != 8) throw TransportError("malformed end chunk");
      break;
    default:
      throw TransportError("unknown chunk kind " +
                           std::to_string(scratch_[0]));
  }
  chunk_kind_ = static_cast<ChunkKind>(scratch_[0]);
  if (chunk_kind_ == ChunkKind::kAuth || chunk_kind_ == ChunkKind::kEnd) {
    return enter(State::kChunkSmall, static_cast<std::size_t>(len));
  }
  // The cap checks above already ran; the pool never sees a hostile
  // length.
  body_ = pool().acquire(static_cast<std::size_t>(len));
  if (len == 0) return on_chunk_body();
  enter(State::kChunkBody, static_cast<std::size_t>(len));
}

void Session::on_chunk_body() {
  SessionEvent ev;
  ev.kind = SessionEvent::Kind::kChunk;
  ev.chunk.kind = chunk_kind_;
  ev.chunk.bytes = std::move(body_);
  body_ = {};
  if (chunk_kind_ == ChunkKind::kCompressedData) {
    // Decompress on receipt (a size bomb dies inside decompress_body,
    // before any allocation) and surface a plain data chunk: the logical
    // size is what counts against the stream limit and the End total.
    std::vector<std::uint8_t> plain = decompress_body(
        ev.chunk.bytes, transforms_, cfg_.limits.max_chunk_bytes, pool());
    if (plain.size() > cfg_.limits.max_stream_bytes - stream_total_) {
      pool().release(std::move(plain));
      throw TransportError("chunked stream exceeds the stream limit");
    }
    pool().release(std::move(ev.chunk.bytes));
    ev.chunk.kind = ChunkKind::kData;
    ev.chunk.bytes = std::move(plain);
  }
  if (ev.chunk.kind == ChunkKind::kData) stream_total_ += ev.chunk.bytes.size();
  if (rx_auth_ != nullptr) absorb(ev.chunk.kind, ev.chunk.bytes);
  event_ = std::move(ev);
  enter(State::kChunkHdr, kChunkHdrBytes);
}

void Session::on_chunk_small() {
  if (chunk_kind_ == ChunkKind::kAuth) {
    // Every earlier chunk has been absorbed, so the receive MAC is caught
    // up. The trailer never surfaces.
    verify_trailer();
    return enter(State::kChunkHdr, kChunkHdrBytes);
  }
  if (rx_auth_ != nullptr && !auth_verified_) {
    if (cfg_.auth_stats.tag_failures != nullptr) {
      cfg_.auth_stats.tag_failures->add();
    }
    throw TransportError("stream ended without an authentication trailer");
  }
  if (load<std::uint64_t>(scratch_, ByteOrder::kBig) != stream_total_) {
    throw TransportError("chunked stream total mismatch");
  }
  auth_verified_ = false;
  event_.emplace().kind = SessionEvent::Kind::kEnd;
  enter(State::kFixed, kFixedBytes);
}

/// Receive-side absorption of one logical chunk, timed: this is the
/// verification work the signed path overlaps with reassembly.
void Session::absorb(ChunkKind kind, std::span<const std::uint8_t> body) {
  const NsTimer t{cfg_.auth_stats.verify_ns};
  auth_absorb_chunk(*rx_auth_, kind, body);
  count_bytes(cfg_.auth_stats, body.size());
}

void Session::verify_trailer() {
  bool ok = false;
  {
    const NsTimer t{cfg_.auth_stats.verify_ns};
    std::uint8_t expected[kMaxAuthTagBytes];
    const std::size_t tag_size = rx_auth_->tag_size();
    auth_finalize_tag(*rx_auth_, stream_total_, {expected, tag_size});
    ok = constant_time_equal({scratch_ + 1, tag_size}, {expected, tag_size}) &&
         scratch_[0] == auth_algo_;
  }
  if (!ok) {
    if (cfg_.auth_stats.tag_failures != nullptr) {
      cfg_.auth_stats.tag_failures->add();
    }
    throw TransportError("stream authentication tag mismatch");
  }
  auth_verified_ = true;
}

// ---- Session: outbound ------------------------------------------------------

void Session::frame_message(ByteWriter& out,
                            std::span<const std::uint8_t> canonical,
                            std::string_view content_type) {
  if (!negotiated_) {
    const std::size_t len_pos = begin_frame(out, content_type);
    out.write_bytes(canonical);
    end_frame(out, len_pos);
    return;
  }
  // DICT_RESET cannot be known until the encoder has decided on an epoch
  // change, and kCompressed until the compressor has run, so the flags
  // byte (fixed offset 6: magic + version + kind) is patched afterwards —
  // the frame still leaves as one buffer.
  const std::size_t base = out.size();
  const bool dict =
      enc_dict_ && content_type == soap::BxsaEncoding::content_type();
  std::uint8_t flags = dict ? v3flags::kDictEncoded : 0;
  const std::size_t len_pos = begin_frame_v3(out, flags, content_type);
  const std::size_t payload_start = out.size();
  if (dict) {
    if (enc_dict_->encode(canonical, out, cfg_.dict_stats)) {
      flags |= v3flags::kDictReset;
    }
  } else {
    out.write_bytes(canonical);
  }
  if (transforms_ != 0) {
    // Keep whichever body is smaller: the compressor refuses output that
    // is not strictly smaller than its input.
    const auto body = out.bytes().subspan(payload_start);
    std::vector<std::uint8_t> packed = pool().acquire(body.size());
    if (compress_append(body, transforms_, cfg_.compress_policy, pool(),
                        packed, cfg_.compress_stats) != Transform::kNone) {
      out.truncate(payload_start);
      out.write_bytes(packed);
      flags |= v3flags::kCompressed;
    }
    pool().release(std::move(packed));
  }
  end_frame(out, len_pos);
  out.patch_bytes(base + 4 + 1 + 1, &flags, 1);
}

ChunkEncoder Session::chunk_encoder() const {
  std::unique_ptr<StreamAuthenticator> auth;
  if (auth_algo_ != 0) {
    auth = cfg_.auth.make(auth_algo_);
    if (auth == nullptr) {
      throw TransportError("stream auth cannot build the negotiated "
                           "algorithm");
    }
  }
  return ChunkEncoder({transforms_, cfg_.compress_policy, cfg_.pool,
                       cfg_.compress_stats},
                      std::move(auth), auth_algo_, cfg_.auth_stats);
}

}  // namespace bxsoap::transport
