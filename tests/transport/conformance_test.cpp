// Transport-conformance suite: the contract both backends must satisfy
// (transport/transport.hpp), run against the simulated LAN and the live
// epoll backend over loopback. Anything the units rely on — ephemeral
// binds, multicast join/fan-out, self-loop suppression, timer handle
// semantics, synchronous ECONNREFUSED, request-state lifetime over TCP — is
// pinned here so the two backends cannot drift apart.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/uri.hpp"
#include "live/event_loop.hpp"
#include "live/transport.hpp"
#include "net/host.hpp"
#include "net/network.hpp"
#include "sim/scheduler.hpp"
#include "tests/support/alloc_meter.hpp"
#include "transport/transport.hpp"
#include "upnp/http_client.hpp"

namespace indiss {
namespace {

Bytes payload_of(std::string_view text) {
  return Bytes(text.begin(), text.end());
}

/// One node under test plus the way to make its time pass. The sim backend
/// advances virtual time; the live backend burns real wall-clock (the suite
/// keeps windows in the tens of milliseconds).
class Backend {
 public:
  virtual ~Backend() = default;
  virtual transport::Transport& node() = 0;
  virtual void run_for(transport::Duration d) = 0;
};

class SimBackend : public Backend {
 public:
  SimBackend()
      : network_(scheduler_),
        host_(network_.add_host("node", net::IpAddress(10, 0, 0, 1))) {}
  transport::Transport& node() override { return host_; }
  void run_for(transport::Duration d) override { scheduler_.run_for(d); }

 private:
  sim::Scheduler scheduler_;
  net::Network network_;
  net::Host& host_;
};

class LiveBackend : public Backend {
 public:
  LiveBackend() : transport_(loop_) {}
  transport::Transport& node() override { return transport_; }
  void run_for(transport::Duration d) override { loop_.run_for(d); }

 private:
  live::EventLoop loop_;
  live::LiveTransport transport_;
};

class ConformanceTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    if (std::string_view(GetParam()) == "sim") {
      backend_ = std::make_unique<SimBackend>();
    } else {
      backend_ = std::make_unique<LiveBackend>();
    }
  }

  transport::Transport& node() { return backend_->node(); }
  void run_for(transport::Duration d) { backend_->run_for(d); }

  std::unique_ptr<Backend> backend_;
};

TEST_P(ConformanceTest, EphemeralUdpBindsDistinctNonzeroPorts) {
  auto a = node().open_udp(0);
  auto b = node().open_udp(0);
  EXPECT_NE(a->local_endpoint().port, 0);
  EXPECT_NE(b->local_endpoint().port, 0);
  EXPECT_NE(a->local_endpoint().port, b->local_endpoint().port);
  EXPECT_EQ(a->local_endpoint().address, node().address());
  EXPECT_FALSE(a->closed());
  a->close();
  EXPECT_TRUE(a->closed());
}

// Native clients open ephemeral sockets by the hundred (SLP agents, control
// points, load generators); if two live ones ever shared a port they would
// split each other's replies.
TEST_P(ConformanceTest, ConcurrentEphemeralSocketsNeverSharePorts) {
  constexpr std::size_t kSockets = 500;
  std::vector<std::shared_ptr<transport::UdpSocket>> sockets;
  std::set<std::uint16_t> ports;
  for (std::size_t i = 0; i < kSockets; ++i) {
    sockets.push_back(node().open_udp(0));
    ports.insert(sockets.back()->local_endpoint().port);
  }
  EXPECT_EQ(ports.size(), kSockets) << "ephemeral sockets share a port";
  for (auto& socket : sockets) socket->close();
}

TEST_P(ConformanceTest, UdpUnicastDeliversOnNode) {
  auto a = node().open_udp(0);
  auto b = node().open_udp(0);
  std::vector<net::Datagram> got;
  b->set_receive_handler(
      [&](const net::Datagram& d) { got.push_back(d); });

  a->send_to(b->local_endpoint(), payload_of("hello"));
  run_for(transport::millis(50));

  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].source, a->local_endpoint());
  EXPECT_FALSE(got[0].multicast);
  EXPECT_EQ(got[0].payload, payload_of("hello"));
}

TEST_P(ConformanceTest, MulticastJoinFansOutToEveryMemberButNotSender) {
  const net::IpAddress group(239, 255, 77, 77);
  const std::uint16_t port = 45454;

  auto r1 = node().open_udp(port);
  r1->join_group(group);
  auto r2 = node().open_udp(port);
  r2->join_group(group);
  auto sender = node().open_udp(0);

  std::vector<net::Datagram> got1;
  std::vector<net::Datagram> got2;
  r1->set_receive_handler([&](const net::Datagram& d) { got1.push_back(d); });
  r2->set_receive_handler([&](const net::Datagram& d) { got2.push_back(d); });

  sender->send_to(net::Endpoint{group, port}, payload_of("announce"));
  run_for(transport::millis(50));

  ASSERT_EQ(got1.size(), 1u);
  ASSERT_EQ(got2.size(), 1u);
  EXPECT_TRUE(got1[0].multicast);
  EXPECT_EQ(got1[0].destination, (net::Endpoint{group, port}));
  EXPECT_EQ(got1[0].source, sender->local_endpoint());
  EXPECT_EQ(got2[0].payload, payload_of("announce"));

  // After leaving, group traffic stops arriving.
  r2->leave_group(group);
  sender->send_to(net::Endpoint{group, port}, payload_of("again"));
  run_for(transport::millis(50));
  EXPECT_EQ(got1.size(), 2u);
  EXPECT_EQ(got2.size(), 1u);
}

TEST_P(ConformanceTest, MulticastSendNeverLoopsBackToSender) {
  const net::IpAddress group(239, 255, 77, 78);
  const std::uint16_t port = 45455;

  auto socket = node().open_udp(port);
  socket->join_group(group);
  std::vector<net::Datagram> got;
  socket->set_receive_handler(
      [&](const net::Datagram& d) { got.push_back(d); });

  socket->send_to(net::Endpoint{group, port}, payload_of("self"));
  run_for(transport::millis(50));

  EXPECT_TRUE(got.empty());
}

TEST_P(ConformanceTest, OneShotTimersFireInDeadlineOrder) {
  std::vector<int> order;
  auto late = node().schedule(transport::millis(20), [&]() {
    order.push_back(2);
  });
  auto early = node().schedule(transport::millis(5), [&]() {
    order.push_back(1);
  });
  EXPECT_TRUE(late.pending());
  EXPECT_TRUE(early.pending());

  run_for(transport::millis(60));

  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
  // Fired handles go inert: not pending, and cancel() is a no-op.
  EXPECT_FALSE(late.pending());
  late.cancel();
}

TEST_P(ConformanceTest, CancelledTimerNeverFires) {
  int fired = 0;
  auto handle = node().schedule(transport::millis(10), [&]() { fired += 1; });
  handle.cancel();
  EXPECT_FALSE(handle.pending());

  run_for(transport::millis(40));
  EXPECT_EQ(fired, 0);
}

TEST_P(ConformanceTest, PeriodicTimerRepeatsUntilCancelled) {
  int ticks = 0;
  auto handle =
      node().schedule_periodic(transport::millis(10), [&]() { ticks += 1; });

  run_for(transport::millis(35));
  EXPECT_GE(ticks, 2);
  EXPECT_LE(ticks, 4);

  handle.cancel();
  int at_cancel = ticks;
  run_for(transport::millis(30));
  EXPECT_EQ(ticks, at_cancel);
}

TEST_P(ConformanceTest, ConnectToClosedPortReturnsNull) {
  auto listener = node().listen_tcp(0);
  std::uint16_t port = listener->port();
  ASSERT_NE(port, 0);
  listener->close();
  run_for(transport::millis(10));

  auto socket = node().connect_tcp(net::Endpoint{node().address(), port});
  EXPECT_EQ(socket, nullptr);
}

TEST_P(ConformanceTest, TcpRoundTripAndCloseNotification) {
  auto listener = node().listen_tcp(0);
  std::shared_ptr<transport::TcpSocket> server;
  listener->set_accept_handler(
      [&](std::shared_ptr<transport::TcpSocket> socket) {
        server = std::move(socket);
      });

  auto client =
      node().connect_tcp(net::Endpoint{node().address(), listener->port()});
  ASSERT_NE(client, nullptr);
  run_for(transport::millis(50));
  ASSERT_NE(server, nullptr);

  Bytes server_got;
  bool server_closed = false;
  server->set_data_handler([&](BytesView data) {
    server_got.insert(server_got.end(), data.begin(), data.end());
  });
  server->set_close_handler([&]() { server_closed = true; });
  Bytes client_got;
  client->set_data_handler([&](BytesView data) {
    client_got.insert(client_got.end(), data.begin(), data.end());
  });

  client->send(payload_of("ping"));
  run_for(transport::millis(50));
  EXPECT_EQ(server_got, payload_of("ping"));

  server->send(payload_of("pong"));
  run_for(transport::millis(50));
  EXPECT_EQ(client_got, payload_of("pong"));

  client->close();
  run_for(transport::millis(50));
  EXPECT_TRUE(server_closed);
  EXPECT_FALSE(client->open());
}

// upnp::http_get's per-request state (parser, socket, the caller's
// handler) must be released once the handler has fired, however the request
// ended: a completed GET, a refused connect, or a response that fails to
// parse. The handler carries a token; an expired token means the request
// state holding it is gone. The server keeps its side open, so only the
// client can end each exchange.
TEST_P(ConformanceTest, HttpRequestStateIsFreedAfterEveryOutcome) {
  std::vector<std::shared_ptr<transport::TcpSocket>> accepted;
  std::string reply;
  auto listener = node().listen_tcp(0);
  listener->set_accept_handler(
      [&](std::shared_ptr<transport::TcpSocket> socket) {
        transport::TcpSocket* raw = socket.get();
        socket->set_data_handler([&reply, raw](BytesView) {
          raw->send(Bytes(reply.begin(), reply.end()));
        });
        accepted.push_back(std::move(socket));
      });
  auto closed = node().listen_tcp(0);
  const std::uint16_t refused_port = closed->port();
  closed->close();

  auto request = [&](std::uint16_t port) {
    auto token = std::make_shared<int>(0);
    std::weak_ptr<int> watch = token;
    bool called = false;
    std::optional<Bytes> response;
    Uri uri;
    uri.scheme = "http";
    uri.host = node().address().to_string();
    uri.port = port;
    uri.path = "/description.xml";
    upnp::http_get(node(), uri,
                   [&, token](std::optional<Bytes> r) {
                     called = true;
                     response = std::move(r);
                   });
    token.reset();
    run_for(transport::millis(50));
    EXPECT_TRUE(called) << "port " << port;
    EXPECT_TRUE(watch.expired()) << "port " << port << ": request leaked";
    return response;
  };

  reply = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok";
  auto completed = request(listener->port());
  ASSERT_TRUE(completed.has_value());
  EXPECT_EQ(*completed, Bytes(reply.begin(), reply.end()));

  EXPECT_FALSE(request(refused_port).has_value());

  reply = "HTTP/1.1 999 Nope\r\n\r\n";
  EXPECT_FALSE(request(listener->port()).has_value());
}

// A zero delay is due now on the backend's clock: a task queued at zero
// delay by a running task runs once that task returns, ahead of a timer
// that was already due 10us later.
TEST_P(ConformanceTest, ZeroDelayTaskRunsAfterItsCallerBeforeLaterTimer) {
  std::vector<std::string> order;
  node().schedule(transport::micros(10), [&]() { order.push_back("timer"); });
  node().schedule(transport::Duration::zero(), [&]() {
    order.push_back("caller");
    node().schedule(transport::Duration::zero(),
                    [&]() { order.push_back("hop"); });
    order.push_back("caller returns");
  });

  run_for(transport::millis(5));

  EXPECT_EQ(order, (std::vector<std::string>{"caller", "caller returns",
                                             "hop", "timer"}));
}

TEST_P(ConformanceTest, ZeroDelayTasksRunInFifoOrder) {
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    node().schedule(transport::Duration::zero(), [&, i]() {
      order.push_back(i);
      if (i == 0) {
        // Queued by a running task: behind everything queued before it.
        node().schedule(transport::Duration::zero(),
                        [&]() { order.push_back(4); });
      }
    });
  }

  run_for(transport::Duration::zero());

  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

// A unit pipeline is a chain of zero-delay hops; the whole chain must run
// within one zero-length run, without waiting on a timer per hop.
TEST_P(ConformanceTest, ZeroDelayHopChainCompletesInOneZeroLengthRun) {
  constexpr int kHops = 1000;
  int hops = 0;
  std::function<void()> hop = [&]() {
    if (++hops < kHops) node().schedule(transport::Duration::zero(), hop);
  };
  node().schedule(transport::Duration::zero(), hop);

  run_for(transport::Duration::zero());

  EXPECT_EQ(hops, kHops);
}

TEST_P(ConformanceTest, ZeroDelayTaskHandleCancelsLikeAnyOther) {
  int fired = 0;
  auto cancelled =
      node().schedule(transport::Duration::zero(), [&]() { fired += 1; });
  auto kept =
      node().schedule(transport::Duration::zero(), [&]() { fired += 10; });
  EXPECT_TRUE(cancelled.pending());
  cancelled.cancel();
  EXPECT_FALSE(cancelled.pending());
  EXPECT_TRUE(kept.pending());

  run_for(transport::Duration::zero());

  EXPECT_EQ(fired, 10);
  EXPECT_FALSE(kept.pending());
  kept.cancel();  // fired handle: a no-op
}

TEST_P(ConformanceTest, TimeAdvancesAcrossRun) {
  transport::TimePoint before = node().now();
  run_for(transport::millis(20));
  EXPECT_GE(node().now() - before, transport::millis(20));
}

// The live receive path of a warm socket (epoll dispatch, the read and the
// handler) allocates nothing per datagram: the loop calls the handler in
// place, and the datagram the socket hands it reuses its payload capacity.
TEST(LiveReceivePath, AWarmSocketAllocatesNothingPerDatagram) {
  live::EventLoop loop;
  live::LiveTransport node(loop);
  auto sender = node.open_udp(0);
  auto receiver = node.open_udp(0);
  std::size_t received = 0;
  receiver->set_receive_handler(
      [&received](const net::Datagram&) { received += 1; });

  constexpr std::size_t kDatagrams = 64;
  // Payloads are built before each measured round; send_to takes them over.
  auto round = [&](std::vector<Bytes> payloads) {
    for (Bytes& payload : payloads) {
      sender->send_to(receiver->local_endpoint(), std::move(payload));
    }
    loop.run_for(transport::millis(50));
  };
  round(std::vector<Bytes>(kDatagrams, Bytes(1024, 0x5A)));  // warm-up
  ASSERT_EQ(received, kDatagrams);

  std::vector<Bytes> payloads(kDatagrams, Bytes(1024, 0xA5));
  std::uint64_t before = indiss::testing::g_heap_allocs;
  round(std::move(payloads));
  std::uint64_t allocs = indiss::testing::g_heap_allocs - before;
  EXPECT_EQ(received, 2 * kDatagrams);
  EXPECT_EQ(allocs, 0u) << allocs << " allocations for " << kDatagrams
                        << " datagrams";
}

INSTANTIATE_TEST_SUITE_P(Backends, ConformanceTest,
                         ::testing::Values("sim", "live"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace indiss
