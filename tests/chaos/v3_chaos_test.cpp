// Chaos against the BXTP v3 negotiation and dictionary layer: truncated
// and corrupt Hellos, unknown message flags, dictionary references into a
// table the server never admitted, and handshake replays. The contract is
// strict validation (FORMAT.md §"BXTP v3"): every violation cuts exactly
// the offending connection, synchronously, and the server keeps serving
// everyone else.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bxsa/dict.hpp"
#include "services/verification.hpp"
#include "soap/engine.hpp"
#include "transport/bindings.hpp"
#include "transport/framing.hpp"
#include "transport/server.hpp"
#include "transport/session.hpp"
#include "workload/lead.hpp"

namespace bxsoap::transport {
namespace {

using namespace bxsoap::soap;

class V3Chaos : public ::testing::TestWithParam<ConcurrencyModel> {
 protected:
  static std::unique_ptr<SoapServer> start() {
    ServerConfig cfg;
    cfg.encoding = AnyEncoding::from(BxsaEncoding{});
    cfg.handler = services::verification_handler;
    if (GetParam() == ConcurrencyModel::kEventLoop) {
      cfg.reactor_threads = 2;
      cfg.worker_threads = 2;
    }
    return SoapServer::create(GetParam(), std::move(cfg));
  }

  /// The connection was cut if the next read sees EOF/reset instead of
  /// bytes. The 2 s read timeout is a hang detector, not the contract.
  static bool cut(TcpStream& stream) {
    try {
      std::uint8_t byte;
      stream.set_read_timeout(2000);
      stream.read_exact(&byte, 1);
      return false;
    } catch (const TransportError&) {
      return true;
    }
  }

  /// The server still serves well-formed traffic after the abuse.
  static void expect_still_serving(SoapServer& server) {
    SoapEngine<BxsaEncoding, TcpClientBinding> client(
        BxsaEncoding{}, TcpClientBinding(server.port()));
    const SoapEnvelope resp = client.call(
        services::make_data_request(workload::make_lead_dataset(9)));
    const auto outcome = services::parse_verify_response(resp);
    EXPECT_TRUE(outcome.ok);
    EXPECT_EQ(outcome.count, 9u);
  }

  /// Open the handshake through a client Session offering `offer` and
  /// read the Accept into it.
  static Session handshake(TcpStream& stream, Session::Config offer = {}) {
    offer.v3 = true;
    Session session(Session::Role::kClient, std::move(offer));
    stream.write_all(session.take_output());
    EXPECT_EQ(next_event(stream, session).kind,
              SessionEvent::Kind::kHandshake);
    return session;
  }

  static void send_hello(TcpStream& stream, const HelloFrame& hello) {
    ByteWriter w;
    encode_hello(w, hello);
    stream.write_all(w.bytes());
  }

  static std::vector<std::uint8_t> request_payload(std::size_t n) {
    const SoapEnvelope env =
        services::make_data_request(workload::make_lead_dataset(n));
    return BxsaEncoding{}.serialize(env.document());
  }
};

TEST_P(V3Chaos, TruncatedHelloNeverWedgesTheServer) {
  auto server = start();
  {
    // A full Hello is 18 bytes (12-byte body since the auth flag); abandon
    // it mid-body.
    TcpStream stream = TcpStream::connect(server->port());
    ByteWriter hello;
    encode_hello(hello, HelloFrame{});
    ASSERT_EQ(hello.size(), 18u);
    stream.write_all(std::span(hello.bytes()).first(9));
  }  // close with the handshake half-sent
  expect_still_serving(*server);
}

TEST_P(V3Chaos, CorruptHelloKindCutsTheConnection) {
  auto server = start();
  TcpStream stream = TcpStream::connect(server->port());
  ByteWriter w;
  w.write_bytes(kFrameMagic, sizeof(kFrameMagic));
  w.write_u8(kFrameVersionNegotiated);
  w.write_u8(9);  // no such frame kind
  stream.write_all(w.bytes());
  EXPECT_TRUE(cut(stream));
  expect_still_serving(*server);
}

TEST_P(V3Chaos, UnknownMessageFlagsCutTheConnection) {
  auto server = start();
  TcpStream stream = TcpStream::connect(server->port());
  ASSERT_TRUE(handshake(stream).negotiated());
  ByteWriter w;
  const std::size_t len_pos =
      begin_frame_v3(w, 0x80, BxsaEncoding::content_type());
  const auto payload = request_payload(4);
  w.write_bytes(payload);
  end_frame(w, len_pos);
  stream.write_all(w.bytes());
  EXPECT_TRUE(cut(stream));
  expect_still_serving(*server);
}

TEST_P(V3Chaos, DictReferenceBeyondTheMirrorCutsTheConnection) {
  auto server = start();
  TcpStream stream = TcpStream::connect(server->port());
  const Session session = handshake(stream, {.dict = bxsa::DictLimits{}});
  ASSERT_TRUE(session.negotiated());
  ASSERT_GT(session.negotiated_dict().max_entries, 0u);

  // Encode the same request twice through a LOCAL dictionary, then send
  // only the second output: it references table entries the server's
  // mirror never saw admitted. Strict validation must cut, not guess.
  bxsa::DictEncoder enc(session.negotiated_dict());
  const auto payload = request_payload(11);
  ByteWriter warmup;
  ASSERT_FALSE(enc.encode(payload, warmup));
  ByteWriter frame;
  const std::size_t len_pos = begin_frame_v3(frame, v3flags::kDictEncoded,
                                             BxsaEncoding::content_type());
  ASSERT_FALSE(enc.encode(payload, frame));
  end_frame(frame, len_pos);
  stream.write_all(frame.bytes());
  EXPECT_TRUE(cut(stream));
  expect_still_serving(*server);
}

TEST_P(V3Chaos, DictCodedMessageWithoutANegotiatedTableCutsTheConnection) {
  auto server = start();
  TcpStream stream = TcpStream::connect(server->port());
  // No Hello at all: kDictEncoded is meaningless and must not be guessed
  // around.
  ByteWriter frame;
  const std::size_t len_pos = begin_frame_v3(frame, v3flags::kDictEncoded,
                                             BxsaEncoding::content_type());
  bxsa::DictEncoder enc(bxsa::DictLimits{});
  enc.encode(request_payload(5), frame);
  end_frame(frame, len_pos);
  stream.write_all(frame.bytes());
  EXPECT_TRUE(cut(stream));
  expect_still_serving(*server);
}

TEST_P(V3Chaos, SecondHelloCutsTheConnection) {
  auto server = start();
  TcpStream stream = TcpStream::connect(server->port());
  ASSERT_TRUE(handshake(stream).negotiated());
  send_hello(stream, HelloFrame{});  // renegotiation is not a thing
  EXPECT_TRUE(cut(stream));
  expect_still_serving(*server);
}

TEST_P(V3Chaos, HelloAfterARequestCutsTheConnection) {
  auto server = start();
  TcpStream stream = TcpStream::connect(server->port());
  // A plain v1 exchange first: the connection is in use.
  write_frame(stream, BxsaEncoding::content_type(), request_payload(3));
  const SoapEnvelope reply(
      BxsaEncoding{}.deserialize(read_frame(stream).payload));
  ASSERT_TRUE(services::parse_verify_response(reply).ok);
  // FORMAT.md §"BXTP v3": the Hello is legal only as the first frame.
  send_hello(stream, HelloFrame{});
  EXPECT_TRUE(cut(stream));
  expect_still_serving(*server);
}

TEST_P(V3Chaos, HelloAfterAV1AcceptCutsTheConnection) {
  auto server = start();
  TcpStream stream = TcpStream::connect(server->port());
  // A peer that probes with v3 framing but speaks only v1 is answered
  // with version 1 — and that Hello was still its one Hello.
  HelloFrame v1_only;
  v1_only.max_version = kFrameVersion;
  send_hello(stream, v1_only);
  std::uint8_t accept[17];
  stream.read_exact(accept, sizeof(accept));
  ASSERT_EQ(accept[5], static_cast<std::uint8_t>(V3FrameKind::kAccept));
  ASSERT_EQ(accept[6], kFrameVersion);
  send_hello(stream, HelloFrame{});
  EXPECT_TRUE(cut(stream));
  expect_still_serving(*server);
}

INSTANTIATE_TEST_SUITE_P(Models, V3Chaos,
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
