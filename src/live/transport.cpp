#include "live/transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <net/if.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <set>
#include <cstring>
#include <system_error>
#include <utility>

#include "common/logging.hpp"

namespace indiss::live {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

sockaddr_in to_sockaddr(const net::Endpoint& ep) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(ep.port);
  sa.sin_addr.s_addr = htonl(ep.address.bits());
  return sa;
}

net::Endpoint from_sockaddr(const sockaddr_in& sa) {
  return net::Endpoint{net::IpAddress(ntohl(sa.sin_addr.s_addr)),
                       ntohs(sa.sin_port)};
}

void set_nonblocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw_errno("fcntl O_NONBLOCK");
  }
}

std::uint16_t bound_port(int fd) {
  sockaddr_in sa{};
  socklen_t len = sizeof(sa);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len) != 0) {
    throw_errno("getsockname");
  }
  return ntohs(sa.sin_port);
}

}  // namespace

// ---------------------------------------------------------------------------
// UDP
// ---------------------------------------------------------------------------

class LiveUdpSocket : public transport::UdpSocket,
                      public std::enable_shared_from_this<LiveUdpSocket> {
 public:
  LiveUdpSocket(LiveTransport& owner, std::uint16_t port) : owner_(owner) {
    fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd_ < 0) throw_errno("socket(udp)");
    int one = 1;
    // Sharing is for the well-known SDP ports only. On port 0 the options
    // would let the kernel hand a new socket the port of a live one, and
    // the two would split its replies.
    if (port != 0) {
      ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
      ::setsockopt(fd_, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one));
    }
    // Destination address of each datagram (multicast classification).
    ::setsockopt(fd_, IPPROTO_IP, IP_PKTINFO, &one, sizeof(one));

    // INADDR_ANY so both the multicast group and unicast traffic to this
    // port arrive on the one socket, like the simulated binding table.
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(port);
    sa.sin_addr.s_addr = htonl(INADDR_ANY);
    if (::bind(fd_, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
      int saved = errno;
      ::close(fd_);
      errno = saved;
      throw_errno("bind(udp)");
    }
    port_ = bound_port(fd_);

    // Pin multicast egress to the configured interface, keep loopback on so
    // other sockets on this machine hear our sends (sim parity), and stay
    // link-local.
    ip_mreqn egress{};
    egress.imr_address.s_addr = htonl(owner_.address().bits());
    egress.imr_ifindex = owner_.multicast_ifindex();
    ::setsockopt(fd_, IPPROTO_IP, IP_MULTICAST_IF, &egress, sizeof(egress));
    int loop = 1;
    ::setsockopt(fd_, IPPROTO_IP, IP_MULTICAST_LOOP, &loop, sizeof(loop));
    int ttl = 1;
    ::setsockopt(fd_, IPPROTO_IP, IP_MULTICAST_TTL, &ttl, sizeof(ttl));
  }

  ~LiveUdpSocket() override { close(); }

  void start_watch() {
    owner_.loop().watch(
        fd_, EPOLLIN,
        [weak = weak_from_this()](std::uint32_t) {
          if (auto self = weak.lock()) self->on_readable();
        });
  }

  [[nodiscard]] net::Endpoint local_endpoint() const override {
    return net::Endpoint{owner_.address(), port_};
  }

  void join_group(net::IpAddress group) override {
    ip_mreqn m{};
    m.imr_multiaddr.s_addr = htonl(group.bits());
    m.imr_address.s_addr = htonl(owner_.address().bits());
    m.imr_ifindex = owner_.multicast_ifindex();
    if (::setsockopt(fd_, IPPROTO_IP, IP_ADD_MEMBERSHIP, &m, sizeof(m)) != 0) {
      throw_errno("IP_ADD_MEMBERSHIP");
    }
    groups_.insert(group);
  }

  void leave_group(net::IpAddress group) override {
    ip_mreqn m{};
    m.imr_multiaddr.s_addr = htonl(group.bits());
    m.imr_address.s_addr = htonl(owner_.address().bits());
    m.imr_ifindex = owner_.multicast_ifindex();
    ::setsockopt(fd_, IPPROTO_IP, IP_DROP_MEMBERSHIP, &m, sizeof(m));
    groups_.erase(group);
  }

  void send_to(const net::Endpoint& to, Bytes payload) override {
    if (closed_) return;
    sockaddr_in sa = to_sockaddr(to);
    ssize_t n = ::sendto(fd_, payload.data(), payload.size(), 0,
                         reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
    if (n < 0) {
      owner_.mutable_stats().dropped_packets += 1;
      return;
    }
    auto& stats = owner_.mutable_stats();
    if (to.address.is_multicast()) {
      stats.udp_multicast_packets += 1;
      stats.udp_multicast_bytes += payload.size();
    } else {
      stats.udp_unicast_packets += 1;
      stats.udp_unicast_bytes += payload.size();
    }
  }

  void set_receive_handler(ReceiveHandler handler) override {
    handler_ = std::move(handler);
  }

  void close() override {
    if (closed_) return;
    closed_ = true;
    owner_.loop().unwatch(fd_);
    ::close(fd_);
    fd_ = -1;
  }

  [[nodiscard]] bool closed() const override { return closed_; }

 private:
  void on_readable() {
    while (!closed_) {
      unsigned char buf[65536];
      char control[CMSG_SPACE(sizeof(in_pktinfo))];
      sockaddr_in src{};
      iovec iov{buf, sizeof(buf)};
      msghdr msg{};
      msg.msg_name = &src;
      msg.msg_namelen = sizeof(src);
      msg.msg_iov = &iov;
      msg.msg_iovlen = 1;
      msg.msg_control = control;
      msg.msg_controllen = sizeof(control);

      ssize_t n = ::recvmsg(fd_, &msg, 0);
      if (n < 0) break;  // EAGAIN: drained

      net::IpAddress dest_addr = owner_.address();
      for (cmsghdr* c = CMSG_FIRSTHDR(&msg); c != nullptr;
           c = CMSG_NXTHDR(&msg, c)) {
        if (c->cmsg_level == IPPROTO_IP && c->cmsg_type == IP_PKTINFO) {
          in_pktinfo info{};
          std::memcpy(&info, CMSG_DATA(c), sizeof(info));
          dest_addr = net::IpAddress(ntohl(info.ipi_addr.s_addr));
        }
      }

      net::Datagram datagram;
      datagram.source = from_sockaddr(src);
      datagram.destination = net::Endpoint{dest_addr, port_};
      datagram.multicast = dest_addr.is_multicast();
      datagram.payload.assign(buf, buf + n);

      // The kernel loops our own multicast sends back; the simulated fabric
      // never delivers a frame to its sender.
      if (datagram.source == local_endpoint()) continue;

      // Kernel group filtering is per-host for INADDR_ANY-bound sockets: as
      // long as ANY local socket is a member, every socket on the port sees
      // the traffic. The simulated fabric delivers only to joined sockets,
      // so membership is enforced here too.
      if (datagram.multicast && !groups_.contains(dest_addr)) continue;

      auto& stats = owner_.mutable_stats();
      stats.udp_deliveries += 1;
      if (datagram.multicast) {
        stats.udp_multicast_packets += 1;
        stats.udp_multicast_bytes += datagram.payload.size();
      } else {
        stats.udp_unicast_packets += 1;
        stats.udp_unicast_bytes += datagram.payload.size();
      }
      if (handler_) handler_(datagram);  // may close this socket
    }
  }

  LiveTransport& owner_;
  int fd_ = -1;
  std::uint16_t port_ = 0;
  ReceiveHandler handler_;
  std::set<net::IpAddress> groups_;
  bool closed_ = false;
};

// ---------------------------------------------------------------------------
// TCP
// ---------------------------------------------------------------------------

class LiveTcpSocket : public transport::TcpSocket,
                      public std::enable_shared_from_this<LiveTcpSocket> {
 public:
  LiveTcpSocket(LiveTransport& owner, int fd) : owner_(owner), fd_(fd) {
    set_nonblocking(fd_);
    sockaddr_in sa{};
    socklen_t len = sizeof(sa);
    if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&sa), &len) == 0) {
      local_ = from_sockaddr(sa);
    }
    len = sizeof(sa);
    if (::getpeername(fd_, reinterpret_cast<sockaddr*>(&sa), &len) == 0) {
      remote_ = from_sockaddr(sa);
    }
  }

  ~LiveTcpSocket() override { close(); }

  void start_watch() {
    owner_.loop().watch(
        fd_, EPOLLIN,
        [weak = weak_from_this()](std::uint32_t events) {
          if (auto self = weak.lock()) self->on_event(events);
        });
  }

  [[nodiscard]] net::Endpoint local_endpoint() const override {
    return local_;
  }
  [[nodiscard]] net::Endpoint remote_endpoint() const override {
    return remote_;
  }

  void send(Bytes payload) override {
    if (!open_) return;
    auto& stats = owner_.mutable_stats();
    stats.tcp_segments += 1;
    stats.tcp_bytes += payload.size();
    if (outbox_.empty()) {
      ssize_t n = ::send(fd_, payload.data(), payload.size(), MSG_NOSIGNAL);
      if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
        do_close();
        return;
      }
      std::size_t sent = n > 0 ? static_cast<std::size_t>(n) : 0;
      if (sent == payload.size()) return;
      outbox_.insert(outbox_.end(), payload.begin() + sent, payload.end());
    } else {
      outbox_.insert(outbox_.end(), payload.begin(), payload.end());
    }
    owner_.loop().modify(fd_, EPOLLIN | EPOLLOUT);
  }

  void set_data_handler(DataHandler handler) override {
    data_handler_ = std::move(handler);
  }
  void set_close_handler(CloseHandler handler) override {
    close_handler_ = std::move(handler);
  }

  void close() override {
    if (!open_) return;
    open_ = false;
    owner_.loop().unwatch(fd_);
    ::close(fd_);
    fd_ = -1;
  }

  [[nodiscard]] bool open() const override { return open_; }

 private:
  void on_event(std::uint32_t events) {
    if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
      do_close();
      return;
    }
    if ((events & EPOLLOUT) != 0) flush_outbox();
    if ((events & EPOLLIN) != 0) drain_input();
  }

  void flush_outbox() {
    while (!outbox_.empty()) {
      ssize_t n = ::send(fd_, outbox_.data(), outbox_.size(), MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        do_close();
        return;
      }
      outbox_.erase(outbox_.begin(), outbox_.begin() + n);
    }
    if (open_) owner_.loop().modify(fd_, EPOLLIN);
  }

  void drain_input() {
    while (open_) {
      unsigned char buf[65536];
      ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        do_close();
        return;
      }
      if (n == 0) {  // orderly shutdown from the peer
        do_close();
        return;
      }
      auto& stats = owner_.mutable_stats();
      stats.tcp_segments += 1;
      stats.tcp_bytes += static_cast<std::uint64_t>(n);
      if (data_handler_) data_handler_(BytesView(buf, buf + n));
    }
  }

  void do_close() {
    if (!open_) return;
    close();
    if (close_handler_) close_handler_();
  }

  LiveTransport& owner_;
  int fd_ = -1;
  bool open_ = true;
  net::Endpoint local_;
  net::Endpoint remote_;
  Bytes outbox_;
  DataHandler data_handler_;
  CloseHandler close_handler_;
};

class LiveTcpListener : public transport::TcpListener,
                        public std::enable_shared_from_this<LiveTcpListener> {
 public:
  LiveTcpListener(LiveTransport& owner, std::uint16_t port) : owner_(owner) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd_ < 0) throw_errno("socket(tcp)");
    int one = 1;
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in sa = to_sockaddr(net::Endpoint{owner_.address(), port});
    if (::bind(fd_, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0 ||
        ::listen(fd_, 16) != 0) {
      int saved = errno;
      ::close(fd_);
      errno = saved;
      throw_errno("bind/listen(tcp)");
    }
    port_ = bound_port(fd_);
  }

  ~LiveTcpListener() override { close(); }

  void start_watch() {
    owner_.loop().watch(
        fd_, EPOLLIN,
        [weak = weak_from_this()](std::uint32_t) {
          if (auto self = weak.lock()) self->on_acceptable();
        });
  }

  [[nodiscard]] std::uint16_t port() const override { return port_; }

  void set_accept_handler(AcceptHandler handler) override {
    handler_ = std::move(handler);
  }

  void close() override {
    if (closed_) return;
    closed_ = true;
    owner_.loop().unwatch(fd_);
    ::close(fd_);
    fd_ = -1;
  }

 private:
  void on_acceptable() {
    while (!closed_) {
      int client = ::accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC);
      if (client < 0) return;  // EAGAIN: drained
      if (!handler_) {
        ::close(client);
        continue;
      }
      auto socket = std::make_shared<LiveTcpSocket>(owner_, client);
      socket->start_watch();
      handler_(socket);
    }
  }

  LiveTransport& owner_;
  int fd_ = -1;
  std::uint16_t port_ = 0;
  AcceptHandler handler_;
  bool closed_ = false;
};

// ---------------------------------------------------------------------------
// Transport
// ---------------------------------------------------------------------------

LiveTransport::LiveTransport(EventLoop& loop, LiveConfig config)
    : loop_(loop), config_(std::move(config)), random_(config_.seed) {
  ifindex_ = static_cast<int>(::if_nametoindex(config_.interface.c_str()));
  if (ifindex_ == 0) {
    log::warn("live", "unknown interface '", config_.interface,
              "': multicast joins will use the routing default");
  }
}

std::shared_ptr<transport::UdpSocket> LiveTransport::open_udp(
    std::uint16_t port) {
  auto socket = std::make_shared<LiveUdpSocket>(*this, port);
  socket->start_watch();
  return socket;
}

std::shared_ptr<transport::TcpListener> LiveTransport::listen_tcp(
    std::uint16_t port) {
  auto listener = std::make_shared<LiveTcpListener>(*this, port);
  listener->start_watch();
  return listener;
}

std::shared_ptr<transport::TcpSocket> LiveTransport::connect_tcp(
    const net::Endpoint& to) {
  // Blocking connect: refusal must surface synchronously as nullptr, the
  // semantics the simulated fabric gives units (ECONNREFUSED). Loopback and
  // LAN handshakes complete in microseconds-to-milliseconds.
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return nullptr;
  sockaddr_in sa = to_sockaddr(to);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    ::close(fd);
    return nullptr;
  }
  auto socket = std::make_shared<LiveTcpSocket>(*this, fd);
  socket->start_watch();
  return socket;
}

}  // namespace indiss::live
