// Shared by both server models (INTERNAL): the per-connection BXTP session
// configuration a ServerConfig describes.
#pragma once

#include <string>

#include "soap/any_engine.hpp"
#include "soap/encoding.hpp"
#include "transport/server.hpp"
#include "transport/session.hpp"

namespace bxsoap::transport {

/// Limits, offers and metric sinks every server-side Session of one server
/// is built from; `pool` is the server's buffer pool.
inline Session::Config session_config(const ServerConfig& config,
                               const soap::AnyEncoding& encoding,
                               BufferPool* pool) {
  Session::Config c;
  c.limits = config.frame_limits;
  c.pool = pool;
  c.v3 = config.accept_v3;
  // The dictionary transform applies to plain BXSA only; any other
  // encoding offers an empty table, so clients never dictionary-code at it.
  if (encoding.content_type() == soap::BxsaEncoding::content_type()) {
    c.dict = config.dict_limits;
  }
  c.transforms = config.compress_transforms;
  c.compress_policy = config.compress_policy;
  c.auth = config.stream_auth;
  if (obs::Registry* reg = config.registry) {
    const std::string& prefix = config.metrics_prefix;
    c.dict_stats.entries = &reg->counter(prefix + ".dict.entries");
    c.dict_stats.bytes_saved = &reg->counter(prefix + ".dict.bytes_saved");
    c.dict_stats.resets = &reg->counter(prefix + ".dict.resets");
    c.compress_stats.chunks = &reg->counter(prefix + ".compress.chunks");
    c.compress_stats.skipped = &reg->counter(prefix + ".compress.skipped");
    c.compress_stats.bytes_in = &reg->counter(prefix + ".compress.bytes_in");
    c.compress_stats.bytes_out = &reg->counter(prefix + ".compress.bytes_out");
    c.compress_stats.ns = &reg->counter(prefix + ".compress.ns");
    c.auth_stats.bytes_authenticated =
        &reg->counter(prefix + ".sec.bytes_authenticated");
    c.auth_stats.tag_failures = &reg->counter(prefix + ".sec.tag_failures");
    c.auth_stats.verify_ns = &reg->counter(prefix + ".sec.verify.ns");
  }
  return c;
}

}  // namespace bxsoap::transport
