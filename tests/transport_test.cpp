// Tests for the transport layer: frame codec, in-proc channels and the
// named endpoint registry, real TCP channels on localhost, the zero-timeout
// poll contract every transport keeps, and the NetLogger-over-transport
// sink in both ASCII and binary encodings.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "netlogger/logger.hpp"
#include "security/certificate.hpp"
#include "security/crypto.hpp"
#include "security/secure_channel.hpp"
#include "transport/inproc.hpp"
#include "transport/message.hpp"
#include "transport/net_sink.hpp"
#include "transport/tcp.hpp"

namespace jamm::transport {
namespace {

// ------------------------------------------------------------------ frames

TEST(FrameTest, RoundTripsOneMessage) {
  Message msg{"event", "DATE=... HOST=h"};
  const std::string data = EncodeFrame(msg);
  std::size_t offset = 0;
  auto decoded = DecodeFrame(data, &offset);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, msg);
  EXPECT_EQ(offset, data.size());
}

TEST(FrameTest, ConcatenatedFramesDecodeSequentially) {
  std::string data = EncodeFrame({"a", "1"}) + EncodeFrame({"b", "2"});
  std::size_t offset = 0;
  auto first = DecodeFrame(data, &offset);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->type, "a");
  auto second = DecodeFrame(data, &offset);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->type, "b");
  EXPECT_EQ(offset, data.size());
}

TEST(FrameTest, IncompleteFrameReportsNotFound) {
  const std::string data = EncodeFrame({"event", "payload"});
  for (std::size_t cut = 0; cut < data.size(); ++cut) {
    std::size_t offset = 0;
    auto decoded = DecodeFrame(data.substr(0, cut), &offset);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kNotFound) << cut;
    EXPECT_EQ(offset, 0u);  // offset untouched on failure
  }
}

TEST(FrameTest, OversizedLengthIsParseErrorNotNotFound) {
  std::string data(4, '\xff');  // type length = 0xffffffff
  std::size_t offset = 0;
  auto decoded = DecodeFrame(data, &offset);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
}

TEST(FrameTest, EmptyTypeAndPayloadAllowed) {
  std::size_t offset = 0;
  auto decoded = DecodeFrame(EncodeFrame({"", ""}), &offset);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->type, "");
  EXPECT_EQ(decoded->payload, "");
}

TEST(FrameTest, BinaryPayloadSurvives) {
  std::string payload;
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    payload.push_back(static_cast<char>(rng.Uniform(0, 255)));
  }
  std::size_t offset = 0;
  auto decoded = DecodeFrame(EncodeFrame({"bin", payload}), &offset);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->payload, payload);
}

// ------------------------------------------------------------------ inproc

TEST(InProcTest, PairDeliversBothDirections) {
  auto [a, b] = MakeChannelPair();
  ASSERT_TRUE(a->Send({"ping", "1"}).ok());
  auto msg = b->Receive(kSecond);
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(msg->type, "ping");
  ASSERT_TRUE(b->Send({"pong", "2"}).ok());
  auto reply = a->Receive(kSecond);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->type, "pong");
}

TEST(InProcTest, OrderingPreserved) {
  auto [a, b] = MakeChannelPair();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(a->Send({"n", std::to_string(i)}).ok());
  }
  for (int i = 0; i < 100; ++i) {
    auto msg = b->Receive(kSecond);
    ASSERT_TRUE(msg.ok());
    EXPECT_EQ(msg->payload, std::to_string(i));
  }
}

TEST(InProcTest, TryReceiveNonBlocking) {
  auto [a, b] = MakeChannelPair();
  EXPECT_FALSE(b->TryReceive().has_value());
  (void)a->Send({"x", ""});
  auto msg = b->TryReceive();
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->type, "x");
}

TEST(InProcTest, ReceiveTimesOut) {
  auto [a, b] = MakeChannelPair();
  auto msg = b->Receive(5 * kMillisecond);
  ASSERT_FALSE(msg.ok());
  EXPECT_EQ(msg.status().code(), StatusCode::kTimeout);
  (void)a;
}

TEST(InProcTest, CloseMakesPeerUnavailable) {
  auto [a, b] = MakeChannelPair();
  a->Close();
  EXPECT_FALSE(b->Send({"x", ""}).ok());
  auto msg = b->Receive(5 * kMillisecond);
  ASSERT_FALSE(msg.ok());
  EXPECT_EQ(msg.status().code(), StatusCode::kUnavailable);
  EXPECT_FALSE(a->IsOpen());
}

// GatewayService::SendOrQueue relies on TrySend refusing, not blocking,
// once a slow consumer's direction holds kInProcChannelCapacity messages.
TEST(InProcTest, TrySendRefusesAtCapacityUntilDrained) {
  auto [a, b] = MakeChannelPair();
  for (std::size_t i = 0; i < kInProcChannelCapacity; ++i) {
    auto sent = a->TrySend({"n", std::to_string(i)});
    ASSERT_TRUE(sent.ok() && *sent) << i;
  }
  auto full = a->TrySend({"n", "over"});
  ASSERT_TRUE(full.ok());
  EXPECT_FALSE(*full);

  auto first = b->TryReceive();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->payload, "0");
  auto one_more = a->TrySend({"n", "refill"});
  ASSERT_TRUE(one_more.ok());
  EXPECT_TRUE(*one_more);
  auto full_again = a->TrySend({"n", "over"});
  ASSERT_TRUE(full_again.ok());
  EXPECT_FALSE(*full_again);

  a->Close();
  auto closed = a->TrySend({"n", "late"});
  ASSERT_FALSE(closed.ok());
  EXPECT_EQ(closed.status().code(), StatusCode::kUnavailable);
}

TEST(InProcTest, NetworkDialAndAccept) {
  InProcNetwork net;
  auto listener = net.Listen("gateway.hostA");
  ASSERT_TRUE(listener.ok());
  EXPECT_EQ((*listener)->address(), "inproc:gateway.hostA");
  EXPECT_TRUE(net.HasEndpoint("gateway.hostA"));

  auto client = net.Dial("gateway.hostA");
  ASSERT_TRUE(client.ok());
  auto server = (*listener)->Accept(kSecond);
  ASSERT_TRUE(server.ok());

  ASSERT_TRUE((*client)->Send({"subscribe", "cpu"}).ok());
  auto msg = (*server)->Receive(kSecond);
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(msg->payload, "cpu");
}

TEST(InProcTest, DialWithoutListenerFails) {
  InProcNetwork net;
  auto client = net.Dial("nobody");
  ASSERT_FALSE(client.ok());
  EXPECT_EQ(client.status().code(), StatusCode::kUnavailable);
}

TEST(InProcTest, DuplicateListenRejected) {
  InProcNetwork net;
  auto first = net.Listen("ep");
  ASSERT_TRUE(first.ok());
  auto second = net.Listen("ep");
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kAlreadyExists);
}

TEST(InProcTest, ListenerCloseFreesName) {
  InProcNetwork net;
  auto first = net.Listen("ep");
  ASSERT_TRUE(first.ok());
  (*first)->Close();
  EXPECT_FALSE(net.HasEndpoint("ep"));
  auto second = net.Listen("ep");
  EXPECT_TRUE(second.ok());
}

TEST(InProcTest, AcceptTimesOutWithoutDial) {
  InProcNetwork net;
  auto listener = net.Listen("ep");
  ASSERT_TRUE(listener.ok());
  auto chan = (*listener)->Accept(5 * kMillisecond);
  ASSERT_FALSE(chan.ok());
  EXPECT_EQ(chan.status().code(), StatusCode::kTimeout);
}

TEST(InProcTest, CloseSendHalfClosesAndPeerIsOpenSeesIt) {
  // S4 regression (ISSUE 7): IsOpen() used to inspect only the outbound
  // queue, so a channel whose INBOUND side was gone still claimed to be
  // open. CloseSend() makes the broken case deterministic: after a
  // half-close, both ends must report not-open, while the untouched
  // return path still carries traffic.
  auto [a, b] = MakeChannelPair();
  ASSERT_TRUE(a->Send({"n", "1"}).ok());
  ASSERT_TRUE(a->Send({"n", "2"}).ok());
  a->CloseSend();
  EXPECT_FALSE(a->IsOpen());  // its send side is closed
  EXPECT_FALSE(b->IsOpen());  // inbound dead — the pre-fix code said true
  // Drain-after-close: queued messages still arrive, then Unavailable.
  EXPECT_EQ(b->Receive(kSecond)->payload, "1");
  EXPECT_EQ(b->Receive(kSecond)->payload, "2");
  EXPECT_EQ(b->Receive(5 * kMillisecond).status().code(),
            StatusCode::kUnavailable);
  // The b→a direction was never closed and still delivers.
  ASSERT_TRUE(b->Send({"back", "x"}).ok());
  EXPECT_EQ(a->Receive(kSecond)->type, "back");
}

// --------------------------------------------------------------------- tcp

TEST(TcpTest, ConnectSendReceive) {
  auto listener = TcpListener::Create();
  ASSERT_TRUE(listener.ok());
  const std::uint16_t port = (*listener)->port();
  ASSERT_GT(port, 0);

  auto client = TcpDial("127.0.0.1", port);
  ASSERT_TRUE(client.ok());
  auto server = (*listener)->Accept(kSecond);
  ASSERT_TRUE(server.ok());

  ASSERT_TRUE((*client)->Send({"hello", "world"}).ok());
  auto msg = (*server)->Receive(kSecond);
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(msg->type, "hello");
  EXPECT_EQ(msg->payload, "world");

  ASSERT_TRUE((*server)->Send({"reply", "ok"}).ok());
  auto reply = (*client)->Receive(kSecond);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->payload, "ok");
}

TEST(TcpTest, LocalhostAliasAccepted) {
  auto listener = TcpListener::Create();
  ASSERT_TRUE(listener.ok());
  auto client = TcpDial("localhost", (*listener)->port());
  EXPECT_TRUE(client.ok());
}

TEST(TcpTest, ManyMessagesArriveInOrder) {
  auto listener = TcpListener::Create();
  ASSERT_TRUE(listener.ok());
  auto client = TcpDial("127.0.0.1", (*listener)->port());
  ASSERT_TRUE(client.ok());
  auto server = (*listener)->Accept(kSecond);
  ASSERT_TRUE(server.ok());

  constexpr int kCount = 500;
  std::thread sender([&] {
    for (int i = 0; i < kCount; ++i) {
      ASSERT_TRUE((*client)->Send({"n", std::to_string(i)}).ok());
    }
  });
  for (int i = 0; i < kCount; ++i) {
    auto msg = (*server)->Receive(5 * kSecond);
    ASSERT_TRUE(msg.ok()) << i << ": " << msg.status().ToString();
    EXPECT_EQ(msg->payload, std::to_string(i));
  }
  sender.join();
}

TEST(TcpTest, LargePayloadCrossesManyReads) {
  auto listener = TcpListener::Create();
  ASSERT_TRUE(listener.ok());
  auto client = TcpDial("127.0.0.1", (*listener)->port());
  ASSERT_TRUE(client.ok());
  auto server = (*listener)->Accept(kSecond);
  ASSERT_TRUE(server.ok());

  std::string big(1 << 20, 'x');  // 1 MiB
  std::thread sender([&] { ASSERT_TRUE((*client)->Send({"big", big}).ok()); });
  auto msg = (*server)->Receive(10 * kSecond);
  sender.join();
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(msg->payload.size(), big.size());
  EXPECT_EQ(msg->payload, big);
}

TEST(TcpTest, ReceiveTimesOut) {
  auto listener = TcpListener::Create();
  ASSERT_TRUE(listener.ok());
  auto client = TcpDial("127.0.0.1", (*listener)->port());
  ASSERT_TRUE(client.ok());
  auto server = (*listener)->Accept(kSecond);
  ASSERT_TRUE(server.ok());
  auto msg = (*server)->Receive(10 * kMillisecond);
  ASSERT_FALSE(msg.ok());
  EXPECT_EQ(msg.status().code(), StatusCode::kTimeout);
}

TEST(TcpTest, PeerCloseObserved) {
  auto listener = TcpListener::Create();
  ASSERT_TRUE(listener.ok());
  auto client = TcpDial("127.0.0.1", (*listener)->port());
  ASSERT_TRUE(client.ok());
  auto server = (*listener)->Accept(kSecond);
  ASSERT_TRUE(server.ok());
  (*client)->Close();
  auto msg = (*server)->Receive(kSecond);
  ASSERT_FALSE(msg.ok());
  EXPECT_EQ(msg.status().code(), StatusCode::kUnavailable);
}

TEST(TcpTest, DialRefusedPort) {
  // Create-then-close a listener to get a port that refuses connections.
  auto listener = TcpListener::Create();
  ASSERT_TRUE(listener.ok());
  const std::uint16_t port = (*listener)->port();
  (*listener)->Close();
  auto client = TcpDial("127.0.0.1", port, 200 * kMillisecond);
  EXPECT_FALSE(client.ok());
}

TEST(TcpTest, DialBadAddress) {
  auto client = TcpDial("not-an-ip", 1234, 100 * kMillisecond);
  ASSERT_FALSE(client.ok());
  EXPECT_EQ(client.status().code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------------------ poll contract
//
// Listener::Accept(0) and Channel::Receive(0) are polls on every transport
// (message.hpp): an idle endpoint reports Timeout, a queued connection or
// message comes back at once, and a closed, drained endpoint reports
// Unavailable.

/// One listening endpoint of the transport under test and a dialer for it.
struct PollEndpoint {
  std::unique_ptr<Listener> listener;
  std::function<Result<std::unique_ptr<Channel>>()> dial;
};

struct PollTransport {
  std::string name;
  std::function<PollEndpoint()> open;
  /// How long a dial or send takes to land at the far end. In-proc
  /// transports hand over synchronously; loopback TCP delivers
  /// asynchronously to connect()/send().
  Duration settle = 0;
};

void PrintTo(const PollTransport& transport, std::ostream* os) {
  *os << transport.name;
}

PollEndpoint OpenInProc() {
  auto net = std::make_shared<InProcNetwork>();
  auto listener = net->Listen("poll");
  return {std::move(*listener), [net] { return net->Dial("poll"); }};
}

PollEndpoint OpenTcp() {
  auto listener = TcpListener::Create();
  const std::uint16_t port = (*listener)->port();
  return {std::move(*listener), [port] { return TcpDial("127.0.0.1", port); }};
}

/// An in-proc listener behind SecureListener, dialed through
/// MakeSecureDialer: every accepted and dialed channel is a SecureChannel.
PollEndpoint OpenSecureInProc() {
  Rng rng(15);
  security::CertificateAuthority ca("/O=Grid/CN=CA", rng);
  auto options = [&](const std::string& subject) {
    security::KeyPair keys = security::GenerateKeyPair(rng);
    security::SecureChannelOptions opts;
    opts.local_cert = ca.IssueIdentity(subject, keys.public_key, 0, 1ll << 60);
    opts.local_private_key = keys.private_key;
    opts.trusted_roots = {ca.ca_certificate()};
    return opts;
  };
  PollEndpoint inner = OpenInProc();
  return {std::make_unique<security::SecureListener>(
              std::move(inner.listener), options("/CN=gateway")),
          security::MakeSecureDialer(std::move(inner.dial),
                                     options("/CN=consumer"))};
}

class PollContractTest : public ::testing::TestWithParam<PollTransport> {
 protected:
  void SetUp() override { ep_ = GetParam().open(); }

  void Settle() const {
    std::this_thread::sleep_for(std::chrono::microseconds(GetParam().settle));
  }

  /// Dials and accepts one connection: {client, server}.
  std::pair<std::unique_ptr<Channel>, std::unique_ptr<Channel>> Connect() {
    auto client = ep_.dial();
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    auto server = ep_.listener->Accept(kSecond);
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    if (!client.ok() || !server.ok()) return {};
    return {std::move(*client), std::move(*server)};
  }

  PollEndpoint ep_;
};

// An idle poll's Timeout carries the fixed kNothingReady message, which
// fits the small-string buffer, so idle poll loops allocate nothing.
TEST_P(PollContractTest, IdleAcceptTimesOut) {
  const Status status = ep_.listener->Accept(0).status();
  EXPECT_EQ(status.code(), StatusCode::kTimeout);
  EXPECT_EQ(status.message(), kNothingReady);
}

TEST_P(PollContractTest, AcceptReturnsQueuedConnection) {
  auto client = ep_.dial();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  Settle();
  auto server = ep_.listener->Accept(0);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
}

TEST_P(PollContractTest, ClosedListenerIsUnavailable) {
  ep_.listener->Close();
  EXPECT_EQ(ep_.listener->Accept(0).status().code(),
            StatusCode::kUnavailable);
}

TEST_P(PollContractTest, IdleReceiveTimesOut) {
  auto [client, server] = Connect();
  ASSERT_TRUE(server);
  const Status status = server->Receive(0).status();
  EXPECT_EQ(status.code(), StatusCode::kTimeout);
  EXPECT_EQ(status.message(), kNothingReady);
}

TEST_P(PollContractTest, ReceiveReturnsQueuedMessage) {
  auto [client, server] = Connect();
  ASSERT_TRUE(server);
  ASSERT_TRUE(client->Send({"event", "1"}).ok());
  Settle();
  auto msg = server->Receive(0);
  ASSERT_TRUE(msg.ok()) << msg.status().ToString();
  EXPECT_EQ(msg->type, "event");
  EXPECT_EQ(msg->payload, "1");
}

TEST_P(PollContractTest, ClosedAndDrainedReceiveIsUnavailable) {
  auto [client, server] = Connect();
  ASSERT_TRUE(server);
  ASSERT_TRUE(client->Send({"event", "last"}).ok());
  client->Close();
  Settle();
  auto msg = server->Receive(0);
  ASSERT_TRUE(msg.ok()) << msg.status().ToString();
  EXPECT_EQ(msg->payload, "last");
  EXPECT_EQ(server->Receive(0).status().code(), StatusCode::kUnavailable);
}

TEST_P(PollContractTest, IdlePollsDoNotWait) {
  // An expired-deadline wait sleeps out the kernel's timer slack (~57 µs
  // at the default 50 µs), so 1,000 of each poll would take over 100 ms.
  constexpr int kPolls = 1000;
  auto [client, server] = Connect();
  ASSERT_TRUE(server);
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kPolls; ++i) {
    ASSERT_EQ(ep_.listener->Accept(0).status().code(), StatusCode::kTimeout);
    ASSERT_EQ(server->Receive(0).status().code(), StatusCode::kTimeout);
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(40));
}

INSTANTIATE_TEST_SUITE_P(
    Transports, PollContractTest,
    ::testing::Values(
        PollTransport{"InProcQueue", OpenInProc},
        PollTransport{"Tcp", OpenTcp, 20 * kMillisecond},
        PollTransport{"SecureInProc", OpenSecureInProc}),
    [](const ::testing::TestParamInfo<PollTransport>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------- net sink

TEST(NetSinkTest, ShipsAsciiRecordsOverChannel) {
  auto [tx, rx] = MakeChannelPair();
  std::shared_ptr<Channel> tx_shared = std::move(tx);
  SimClock clock(42 * kSecond);
  netlogger::NetLogger log("prog", clock, "hostA", 1);
  log.OpenSink(std::make_shared<NetSink>(tx_shared));
  ASSERT_TRUE(log.Write("Ev", {{"K", "7"}}).ok());

  auto msg = rx->Receive(kSecond);
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(msg->type, kEventMessageType);
  auto rec = DecodeEventMessage(*msg);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->event_name(), "Ev");
  EXPECT_EQ(*rec->View().GetInt(ulm::InternSymbol("K")), 7);
  EXPECT_EQ(rec->timestamp(), 42 * kSecond);
}

TEST(NetSinkTest, BinaryModeRoundTrips) {
  auto [tx, rx] = MakeChannelPair();
  std::shared_ptr<Channel> tx_shared = std::move(tx);
  SimClock clock;
  netlogger::NetLogger log("prog", clock, "hostA", 1);
  log.OpenSink(std::make_shared<NetSink>(tx_shared, /*binary=*/true));
  ASSERT_TRUE(log.Write("Ev", {{"K", "7"}}).ok());

  auto msg = rx->Receive(kSecond);
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(msg->type, kBinaryEventMessageType);
  auto rec = DecodeEventMessage(*msg);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->event_name(), "Ev");
  EXPECT_EQ(*rec->View().GetInt(ulm::InternSymbol("K")), 7);
}

TEST(NetSinkTest, BinaryMessageMustHoldOneRecord) {
  ulm::FlatRecord rec(1, "h", "p", "Usage", "Ev");
  Message msg{kBinaryEventMessageType, ulm::EncodeBinary(rec.View())};
  msg.payload += msg.payload;  // two records
  EXPECT_EQ(DecodeEventMessage(msg).status().code(), StatusCode::kParseError);
  msg.payload.clear();  // none
  EXPECT_EQ(DecodeEventMessage(msg).status().code(), StatusCode::kParseError);
}

TEST(NetSinkTest, RejectsForeignMessageType) {
  auto rec = DecodeEventMessage({"rpc.call", "stuff"});
  ASSERT_FALSE(rec.ok());
  EXPECT_EQ(rec.status().code(), StatusCode::kInvalidArgument);
}

TEST(NetSinkTest, EndToEndOverRealTcp) {
  auto listener = TcpListener::Create();
  ASSERT_TRUE(listener.ok());
  auto client = TcpDial("127.0.0.1", (*listener)->port());
  ASSERT_TRUE(client.ok());
  auto server = (*listener)->Accept(kSecond);
  ASSERT_TRUE(server.ok());

  std::shared_ptr<Channel> tx = std::move(*client);
  SimClock clock;
  netlogger::NetLogger log("prog", clock, "hostA", 4);
  log.OpenSink(std::make_shared<NetSink>(tx));
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(log.Write("Ev", {{"SEQ", std::to_string(i)}}).ok());
  }
  ASSERT_TRUE(log.Flush().ok());
  for (int i = 0; i < 8; ++i) {
    auto msg = (*server)->Receive(kSecond);
    ASSERT_TRUE(msg.ok());
    auto rec = DecodeEventMessage(*msg);
    ASSERT_TRUE(rec.ok());
    EXPECT_EQ(*rec->View().GetInt(ulm::InternSymbol("SEQ")), i);
  }
}

}  // namespace
}  // namespace jamm::transport
