// transport::Transport over real BSD sockets, driven by live::EventLoop.
//
// This is the deployable half of the backend matrix (docs/transport.md): the
// same unit pipeline that runs on the simulated LAN runs here against real
// UDP multicast groups (IP_ADD_MEMBERSHIP) and real TCP. The indissd daemon
// is one LiveTransport + one core::Indiss on an event loop.
//
// Conformance notes (pinned by tests/transport/conformance_test.cpp):
//   - UDP sockets bind INADDR_ANY:port. A well-known port is bound with
//     SO_REUSEADDR|SO_REUSEPORT so several INDISS processes on one machine
//     can share the SDP ports (multicast datagrams are delivered to every
//     bound socket); port 0 is bound without them, so every ephemeral
//     socket gets a port of its own.
//   - Multicast joins and egress are pinned to one interface
//     (LiveConfig::interface / address): joins use ip_mreqn with the
//     interface index, sends set IP_MULTICAST_IF to the configured source
//     address, and IP_MULTICAST_LOOP stays on so sockets on the same machine
//     hear each other — matching the simulator's same-LAN delivery.
//   - The kernel loops a multicast send back to the sending socket too; the
//     simulator never delivers a datagram to its sender, so receives whose
//     source equals the socket's own endpoint are dropped (self-loop
//     suppression). Distinct sockets are distinguished by source port.
//   - connect_tcp() uses a blocking connect so refusal surfaces synchronously
//     as nullptr (ECONNREFUSED), exactly like the simulated fabric.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "live/event_loop.hpp"
#include "net/address.hpp"
#include "net/stats.hpp"
#include "transport/transport.hpp"

namespace indiss::live {

struct LiveConfig {
  std::string name = "indiss-live";
  /// Source address this node presents (and pins multicast egress to).
  /// 127.0.0.1 + interface "lo" is the loopback deployment used by the
  /// conformance suite and the CI smoke test; a LAN deployment sets the
  /// interface's real address and name.
  net::IpAddress address{127, 0, 0, 1};
  std::string interface = "lo";
  std::uint64_t seed = 1;
};

class LiveUdpSocket;
class LiveTcpListener;
class LiveTcpSocket;

class LiveTransport : public transport::Transport {
 public:
  LiveTransport(EventLoop& loop, LiveConfig config = {});
  ~LiveTransport() override;

  [[nodiscard]] const std::string& name() const override {
    return config_.name;
  }
  [[nodiscard]] net::IpAddress address() const override {
    return config_.address;
  }

  std::shared_ptr<transport::UdpSocket> open_udp(
      std::uint16_t port = 0) override;
  std::shared_ptr<transport::TcpListener> listen_tcp(
      std::uint16_t port = 0) override;
  std::shared_ptr<transport::TcpSocket> connect_tcp(
      const net::Endpoint& to) override;

  [[nodiscard]] transport::TimePoint now() const override {
    return loop_.now();
  }
  transport::TaskHandle schedule(transport::Duration delay,
                                 transport::InlineTask task) override {
    return loop_.schedule(delay, std::move(task));
  }
  transport::TaskHandle schedule_periodic(transport::Duration period,
                                          transport::InlineTask task) override {
    return loop_.schedule_periodic(period, std::move(task));
  }

  /// Bytes this node sent and received (per-node view; the sim reports the
  /// whole shared LAN instead — see transport.hpp).
  [[nodiscard]] const net::TrafficStats& stats() const override {
    return stats_;
  }
  [[nodiscard]] transport::Random& random() override { return random_; }

  [[nodiscard]] EventLoop& loop() { return loop_; }
  [[nodiscard]] const LiveConfig& config() const { return config_; }
  [[nodiscard]] int multicast_ifindex() const { return ifindex_; }
  [[nodiscard]] net::TrafficStats& mutable_stats() { return stats_; }

  /// The receive buffers of this transport's UDP sockets (transport.cpp),
  /// made on first use and reused by every read.
  struct RxBatch;
  [[nodiscard]] RxBatch& rx_batch();

 private:
  EventLoop& loop_;
  LiveConfig config_;
  int ifindex_ = 0;
  net::TrafficStats stats_;
  transport::Random random_;
  std::unique_ptr<RxBatch> rx_batch_;
};

}  // namespace indiss::live
