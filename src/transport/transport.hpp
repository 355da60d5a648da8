// The transport interface: everything INDISS needs from the node it runs on.
//
// The paper positions INDISS as middleware deployable on any host — client,
// service, or dedicated gateway. This interface is that host: a node
// identity, the slice of the BSD socket API the SDP stacks use (UDP with
// multicast groups, TCP), a timer surface with slot/generation TaskHandle
// semantics, seeded randomness, and traffic accounting for the context
// manager. Two conformant backends exist (docs/transport.md):
//
//   net::Host   — the discrete-event simulated LAN (deterministic test
//                 harness; the paper's 10 Mb/s Ethernet testbed).
//   live::LiveTransport — an epoll event loop over real sockets, with
//                 IP_ADD_MEMBERSHIP multicast joins and timerfd timers
//                 (the deployable gateway daemon, indissd).
//
// The monitor, the units, the translation cache, and the native SDP actor
// stacks all depend only on this interface; a shared conformance suite
// (tests/transport/) pins the semantics both backends must provide:
//
//   - udp open with port 0 binds an ephemeral port; local_endpoint() names
//     the address peers will see as the datagram source.
//   - multicast: joining (group, port) delivers group traffic to the
//     socket; a socket never receives its own sends (self-loop
//     suppression), but other sockets on the same node do.
//   - connect_tcp returns nullptr when nothing listens at the destination
//     (ECONNREFUSED), never a half-open socket.
//   - timers: schedule/schedule_periodic return TaskHandles with
//     slot/generation semantics (transport/task.hpp); equal-deadline tasks
//     fire in scheduling order. A zero delay is due at the clock's current
//     reading: a task queued at zero delay by a running task runs as soon
//     as that task returns, before any timer due later.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/bytes.hpp"
#include "net/address.hpp"
#include "net/packet.hpp"
#include "net/stats.hpp"
#include "transport/random.hpp"
#include "transport/task.hpp"
#include "transport/time.hpp"

namespace indiss::transport {

/// UDP socket: bind, join/leave multicast groups, send, and a receive
/// callback. INDISS's monitor component is built on exactly this interface —
/// "subscription and listening are solely IP features" (paper §2.1).
class UdpSocket {
 public:
  using ReceiveHandler = std::function<void(const net::Datagram&)>;

  virtual ~UdpSocket() = default;

  /// The endpoint peers see as this socket's datagram source address.
  [[nodiscard]] virtual net::Endpoint local_endpoint() const = 0;

  virtual void join_group(net::IpAddress group) = 0;
  virtual void leave_group(net::IpAddress group) = 0;

  virtual void send_to(const net::Endpoint& to, Bytes payload) = 0;

  /// At most one handler; replacing is allowed (e.g. a unit re-wiring its
  /// socket on SDP_C_SOCKET_SWITCH).
  virtual void set_receive_handler(ReceiveHandler handler) = 0;

  virtual void close() = 0;
  [[nodiscard]] virtual bool closed() const = 0;
};

class TcpSocket;

/// Listening socket; invokes the accept handler with the server-side socket
/// once a client's handshake completes.
class TcpListener {
 public:
  using AcceptHandler = std::function<void(std::shared_ptr<TcpSocket>)>;

  virtual ~TcpListener() = default;

  [[nodiscard]] virtual std::uint16_t port() const = 0;
  virtual void set_accept_handler(AcceptHandler handler) = 0;
  virtual void close() = 0;
};

/// One side of an established connection: a reliable, ordered byte pipe.
class TcpSocket {
 public:
  using DataHandler = std::function<void(BytesView)>;
  using CloseHandler = std::function<void()>;

  virtual ~TcpSocket() = default;

  [[nodiscard]] virtual net::Endpoint local_endpoint() const = 0;
  [[nodiscard]] virtual net::Endpoint remote_endpoint() const = 0;

  virtual void send(Bytes payload) = 0;
  virtual void set_data_handler(DataHandler handler) = 0;
  virtual void set_close_handler(CloseHandler handler) = 0;
  virtual void close() = 0;
  [[nodiscard]] virtual bool open() const = 0;
};

/// The node INDISS is deployed on.
class Transport {
 public:
  virtual ~Transport() = default;

  // --- Identity -----------------------------------------------------------

  [[nodiscard]] virtual const std::string& name() const = 0;
  [[nodiscard]] virtual net::IpAddress address() const = 0;

  // --- Sockets ------------------------------------------------------------

  /// Opens a UDP socket bound to `port` (0 = ephemeral).
  virtual std::shared_ptr<UdpSocket> open_udp(std::uint16_t port = 0) = 0;

  /// Starts a TCP listener on `port` (0 = ephemeral).
  virtual std::shared_ptr<TcpListener> listen_tcp(std::uint16_t port = 0) = 0;

  /// Connects to a remote endpoint. Nullptr on refusal (no listener / host
  /// down), matching ECONNREFUSED.
  virtual std::shared_ptr<TcpSocket> connect_tcp(const net::Endpoint& to) = 0;

  // --- Time ---------------------------------------------------------------

  [[nodiscard]] virtual TimePoint now() const = 0;

  /// Schedules `task` to run at now() + delay. Tasks with equal deadlines
  /// run in scheduling order (FIFO), which models in-order delivery on a
  /// link.
  virtual TaskHandle schedule(Duration delay, InlineTask task) = 0;

  /// Schedules `task` every `period`, first run after `period`. The
  /// returned handle cancels all future occurrences.
  virtual TaskHandle schedule_periodic(Duration period, InlineTask task) = 0;

  /// True when now() is a modelled clock that only moves as scheduled work
  /// runs (the simulator). Modelled processing costs, such as a unit's
  /// translate_delay, are charged only on such a clock; on real time the
  /// work itself takes the time, so the units' hops run at zero delay.
  [[nodiscard]] virtual bool simulated_clock() const { return false; }

  // --- Environment --------------------------------------------------------

  /// Traffic observed by this node's substrate. On the simulated backend
  /// these are the whole shared LAN's statistics (every frame crosses the
  /// 2005-era hub); on the live backend, the bytes this node sent and
  /// received. The context manager samples wire_bytes() for its
  /// passive/active decision either way.
  [[nodiscard]] virtual const net::TrafficStats& stats() const = 0;

  /// Seeded jitter source (SSDP MX pacing, registrar ids, loss injection).
  [[nodiscard]] virtual Random& random() = 0;
};

/// Defers `fn` by `delay` but drops it if the owner died first: the weak_ptr
/// observes the owner's liveness token (conventionally a
/// `std::shared_ptr<void> alive_` member), so an actor destroyed with timers
/// in flight leaves inert tasks behind instead of dangling `this` pointers.
/// Every native SDP actor's processing-cost deferral goes through this — the
/// chaos gauntlet runs stack-scoped actors through exactly that lifecycle
/// (see docs/chaos.md).
template <typename Fn>
TaskHandle schedule_guarded(Transport& host,
                            const std::shared_ptr<void>& alive,
                            Duration delay, Fn&& fn) {
  return host.schedule(delay, [alive = std::weak_ptr<void>(alive),
                               fn = std::forward<Fn>(fn)]() {
    if (!alive.expired()) fn();
  });
}

}  // namespace indiss::transport
