// A host on the simulated LAN. Creates sockets and allocates ephemeral ports,
// mirroring the slice of the BSD socket API the SDP stacks need.
//
// Host is the simulated implementation of transport::Transport: INDISS, the
// units, and the native SDP actors depend only on the interface, so the same
// code runs unchanged on the live epoll backend (src/live). Time, randomness
// and traffic statistics delegate to the Network fabric the host lives on,
// which keeps every experiment bit-for-bit reproducible.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "net/address.hpp"
#include "transport/transport.hpp"

namespace indiss::net {

class Network;
class UdpSocket;
class TcpListener;
class TcpSocket;

class Host : public transport::Transport {
 public:
  Host(Network& network, std::string name, IpAddress address);

  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] IpAddress address() const override { return address_; }
  [[nodiscard]] Network& network() { return network_; }

  /// Creates a UDP socket bound to `port` (0 = ephemeral). The concrete
  /// return type serves the substrate tests; interface users go through
  /// open_udp().
  std::shared_ptr<UdpSocket> udp_socket(std::uint16_t port = 0);

  /// Starts a TCP listener on `port` (0 = ephemeral).
  std::shared_ptr<TcpListener> tcp_listen(std::uint16_t port = 0);

  /// Connects to a remote endpoint. Nullptr on refusal (no listener / host
  /// down), matching ECONNREFUSED.
  std::shared_ptr<TcpSocket> tcp_connect(const Endpoint& to);

  // --- transport::Transport -----------------------------------------------

  std::shared_ptr<transport::UdpSocket> open_udp(
      std::uint16_t port = 0) override;
  std::shared_ptr<transport::TcpListener> listen_tcp(
      std::uint16_t port = 0) override;
  std::shared_ptr<transport::TcpSocket> connect_tcp(
      const Endpoint& to) override;
  [[nodiscard]] transport::TimePoint now() const override;
  transport::TaskHandle schedule(transport::Duration delay,
                                 transport::InlineTask task) override;
  transport::TaskHandle schedule_periodic(transport::Duration period,
                                          transport::InlineTask task) override;
  [[nodiscard]] bool simulated_clock() const override { return true; }
  [[nodiscard]] const TrafficStats& stats() const override;
  [[nodiscard]] transport::Random& random() override;

  [[nodiscard]] std::uint16_t next_ephemeral_port() {
    return ephemeral_port_++;
  }

 private:
  Network& network_;
  std::string name_;
  IpAddress address_;
  std::uint16_t ephemeral_port_ = 40000;
};

}  // namespace indiss::net
