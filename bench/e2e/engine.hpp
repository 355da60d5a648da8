// The load generator's engine: one thread, one epoll set, open-loop sends at
// precomputed due times, kernel-timestamped receives, and the verifier that
// matches every gateway frame to the transaction that expects it.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <span>
#include <stdexcept>
#include <string>
#include <system_error>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "mdns/dns.hpp"
#include "process.hpp"
#include "slp/agents.hpp"
#include "upnp/ssdp.hpp"
#include "wire.hpp"

namespace indiss::bench_e2e {

inline constexpr std::int64_t kTimeoutNs = 1'000'000'000;  // 1 s
/// A native client sends its query once more when no answer came within
/// this long, as SLP user agents, mDNS queriers and SSDP control points do
/// (at shorter intervals here, so a retried query still meets the timeout).
inline constexpr std::int64_t kRetryNs = 250'000'000;
inline constexpr std::uint32_t kNoTxn = 0xFFFFFFFFu;

inline net::Endpoint group_of(Sdp sdp) {
  switch (sdp) {
    case Sdp::kSlp:
      return {slp::kSlpMulticastGroup, slp::kSlpPort};
    case Sdp::kSsdp:
      return {upnp::kSsdpMulticastGroup, upnp::kSsdpPort};
    case Sdp::kMdns:
      return {mdns::kMdnsGroup, mdns::kMdnsPort};
  }
  return {};
}

/// A measured exchange: due at `due`, satisfied by `expected` gateway frames,
/// timed to the kernel receive timestamp of the first correct one.
struct Txn {
  std::int64_t due = 0;
  std::int64_t first_ts = 0;
  std::uint8_t expected = 0;
  std::uint8_t received = 0;
  bool measured = true;
  bool wrong = false;
  int type = 0;
};

/// One datagram the generator sends at `due`.
struct Op {
  std::int64_t due = 0;
  std::uint32_t payload = 0;  // index into the phase's payload store
  std::uint8_t socket = 0;    // index into Engine::senders_
  std::uint8_t dest = 0;      // Sdp of the destination group
  /// A query's retransmission: sent only while this transaction has no
  /// correct frame.
  std::uint32_t retry_of = kNoTxn;
};

/// Per-phase tallies the caller turns into metrics.
struct PhaseStats {
  std::uint64_t ops_sent = 0;
  std::vector<double> late_us;
};

struct VerifierStats {
  std::uint64_t gateway_frames = 0;
  std::uint64_t loop_frames = 0;   // gateway frames no transaction expected
  std::uint64_t wrong_frames = 0;  // undecodable or failing a check
  std::uint64_t late_frames = 0;   // for transactions already given up on
  std::uint64_t translated_queries = 0;
  std::uint64_t answers_sent = 0;
  std::uint64_t retransmits = 0;         // queries sent a second time
  std::uint64_t duplicate_answers = 0;   // the second answer of those
  std::vector<std::string> notes;

  void note(const std::string& what) {
    if (notes.size() < 8) notes.push_back(what);
  }
};

/// The generator's sockets, scheduler and verifier.
class Engine {
 public:
  static constexpr int kRequesters = 4;
  // senders_: [0..2] one native device socket per SDP, [3..6] requesters.
  static constexpr int kRequesterBase = 3;

  Engine() {
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    epoll_ = ::epoll_create1(EPOLL_CLOEXEC);
    for (Sdp sdp : {Sdp::kSlp, Sdp::kSsdp, Sdp::kMdns}) {
      auto group = group_of(sdp);
      int fd = open_socket(group.port, /*reuse=*/true);
      ip_mreqn m{};
      m.imr_multiaddr.s_addr = htonl(group.address.bits());
      m.imr_address.s_addr = htonl(INADDR_LOOPBACK);
      m.imr_ifindex = 0;
      if (::setsockopt(fd, IPPROTO_IP, IP_ADD_MEMBERSHIP, &m, sizeof(m)) != 0) {
        throw std::system_error(errno, std::generic_category(),
                                "IP_ADD_MEMBERSHIP");
      }
      listeners_.push_back(fd);
      watch(fd, static_cast<int>(sdp));
    }
    for (int i = 0; i < kRequesterBase + kRequesters; ++i) {
      int fd = open_socket(0, false);
      senders_.push_back(fd);
      sockaddr_in sa{};
      socklen_t len = sizeof(sa);
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len);
      own_ports_.insert(ntohs(sa.sin_port));
      if (i >= kRequesterBase) watch(fd, 100 + i);
    }
    http_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(sa);
    if (http_ < 0 ||
        ::bind(http_, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0 ||
        ::listen(http_, 512) != 0 ||
        ::getsockname(http_, reinterpret_cast<sockaddr*>(&sa), &len) != 0) {
      throw std::system_error(errno, std::generic_category(), "http listen");
    }
    http_port_ = ntohs(sa.sin_port);
    watch(http_, kHttpListener);
  }

  ~Engine() {
    for (int fd : listeners_) ::close(fd);
    for (int fd : senders_) ::close(fd);
    for (const auto& [fd, request] : connections_) ::close(fd);
    if (http_ >= 0) ::close(http_);
    if (epoll_ >= 0) ::close(epoll_);
  }
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // --- What the workload registers -----------------------------------------

  /// Services the native responders answer for, keyed by the SDP a
  /// translated query arrives on and its native type spelling.
  void offer(const Service& s) { offer(s, answer(s)); }
  void offer(const Service& s, Bytes reply) {
    offered_[native_type(s.origin, s.type)] = {s, std::move(reply)};
  }

  /// The generator's description server (what UPnP LOCATIONs point at).
  [[nodiscard]] std::uint16_t http_port() const { return http_port_; }
  void serve(const std::string& path, std::string response) {
    served_[path] = std::move(response);
  }

  /// Every URL a reply may legitimately list, with its type.
  void know(const Service& s) { known_[s.url] = s.type; }

  std::uint32_t new_txn(std::int64_t due, int type, bool measured) {
    Txn t;
    t.due = due;
    t.type = type;
    t.measured = measured;
    txns_.push_back(t);
    return static_cast<std::uint32_t>(txns_.size() - 1);
  }
  /// The transaction expects one frame matching `key`.
  void expect(std::uint32_t txn, const std::string& key) {
    txns_[txn].expected += 1;
    pending_[key].push_back(txn);
  }
  /// The query of `txn` may be retransmitted (an Op with retry_of = txn);
  /// `key` is the answer it waits for.
  void allow_retry(std::uint32_t txn, const std::string& key) {
    retry_keys_[txn] = key;
  }
  /// A query fans out to the SDPs other than the requester's: each
  /// translated query on their groups is an expected gateway frame.
  void expect_translated(Sdp target, int type) {
    translated_expected_[native_type(target, type)] += 1;
  }
  /// The gateway runs in directory mode: one DAAdvert is expected.
  void expect_da_advert() { da_adverts_ = 1; }

  [[nodiscard]] Txn& txn(std::uint32_t i) { return txns_[i]; }
  [[nodiscard]] std::size_t txn_count() const { return txns_.size(); }
  [[nodiscard]] VerifierStats& verifier() { return verifier_; }

  /// True when `url` is a service of `type` the workload advertised.
  [[nodiscard]] bool knows(const std::string& url, int type) const {
    auto it = known_.find(url);
    return it != known_.end() && it->second == type;
  }

  /// SSDP replies whose description the caller fetches from the gateway
  /// once the phase is over.
  struct DescriptionCheck {
    std::string location;
    int type = 0;
  };
  [[nodiscard]] std::vector<DescriptionCheck>& description_checks() {
    return description_checks_;
  }

  // --- Running -------------------------------------------------------------

  /// Sends `ops` (sorted by due) from `payloads` at their due times and
  /// serves receives until `until`; lateness and counts land in `stats`.
  void run(std::span<const Op> ops, const std::vector<Bytes>& payloads,
           std::int64_t until, PhaseStats& stats) {
    std::size_t next = 0;
    for (;;) {
      std::int64_t now = realtime_ns();
      while (next < ops.size()) {
        const Op& op = ops[next];
        const bool retry = op.retry_of != kNoTxn;
        // A query answered meanwhile is not retransmitted, nor waited for.
        if (retry && txns_[op.retry_of].first_ts != 0) {
          ++next;
          continue;
        }
        if (op.due > now) break;
        ++next;
        if (retry) retransmit(op);
        send(senders_[op.socket], group_of(static_cast<Sdp>(op.dest)),
             payloads[op.payload]);
        stats.late_us.push_back(static_cast<double>(now - op.due) / 1e3);
        stats.ops_sent += 1;
        now = realtime_ns();
      }
      if (next >= ops.size() && now >= until) break;
      std::int64_t wake = next < ops.size() ? ops[next].due : until;
      std::int64_t wait = wake - now;
      if (wait > 60'000) {
        // Sleep to just before the due time; the last stretch spins so a
        // send leaves within a few microseconds of when it was due.
        poll(wait - 40'000);
      } else {
        poll(0);
      }
    }
  }

  /// Serves receives (and responder answers) for `ns` without sending.
  void idle(std::int64_t ns) {
    PhaseStats ignored;
    run({}, {}, realtime_ns() + ns, ignored);
  }

  /// Closes the books on transactions due before `before`: frames they
  /// still wait for will not come. Returns how many were missing; the
  /// queues then start clean, so a frame lost under overload cannot shift
  /// later frames of the same service onto the wrong transaction.
  std::uint64_t settle_missing(std::int64_t before) {
    std::uint64_t missing = 0;
    for (auto& [key, queue] : pending_) {
      while (!queue.empty() && txns_[queue.front()].due < before) {
        if (++missing <= 2) verifier_.note("missing frame for key " + key);
        queue.pop_front();
        expired_[key] += 1;
      }
    }
    return missing;
  }

  /// Translated queries beyond those the sent queries asked for are loop
  /// frames. Books and clears the tallies.
  void finish_translated() {
    for (auto& [key, seen] : translated_seen_) {
      std::uint64_t expected = translated_expected_[key];
      if (seen > expected) verifier_.loop_frames += seen - expected;
    }
    translated_seen_.clear();
    translated_expected_.clear();
  }

  /// Forgets per-gateway state between set-ups (a fresh gateway process),
  /// after booking the old gateway's surplus translated queries.
  void reset() {
    finish_translated();
    pending_.clear();
    expired_.clear();
    optional_.clear();
    retry_keys_.clear();
    txns_.clear();
    withdrawn_at_.clear();
    withdrawn_usns_.clear();
    da_adverts_ = 0;
    description_checks_.clear();
  }

  static std::string native_type(Sdp sdp, int type) {
    switch (sdp) {
      case Sdp::kSlp:
        return slp_type(type);
      case Sdp::kSsdp:
        return upnp_type(type);
      case Sdp::kMdns:
        return mdns_type(type);
    }
    return {};
  }

 private:
  struct Offered {
    Service service;
    Bytes answer;
  };

  int open_socket(std::uint16_t port, bool reuse) {
    int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      throw std::system_error(errno, std::generic_category(), "socket");
    }
    int one = 1;
    if (reuse) {
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one));
    }
    ::setsockopt(fd, SOL_SOCKET, SO_TIMESTAMPNS, &one, sizeof(one));
    int buf = 4 << 20;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &buf, sizeof(buf));
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(port);
    sa.sin_addr.s_addr = htonl(reuse ? INADDR_ANY : INADDR_LOOPBACK);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
      int saved = errno;
      ::close(fd);
      throw std::system_error(saved, std::generic_category(),
                              "bind UDP port " + std::to_string(port));
    }
    in_addr lo{htonl(INADDR_LOOPBACK)};
    ::setsockopt(fd, IPPROTO_IP, IP_MULTICAST_IF, &lo, sizeof(lo));
    ::setsockopt(fd, IPPROTO_IP, IP_MULTICAST_LOOP, &one, sizeof(one));
    ::setsockopt(fd, IPPROTO_IP, IP_MULTICAST_TTL, &one, sizeof(one));
    return fd;
  }

  void watch(int fd, int tag) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = (static_cast<std::uint64_t>(tag) << 32) |
                  static_cast<std::uint32_t>(fd);
    ::epoll_ctl(epoll_, EPOLL_CTL_ADD, fd, &ev);
  }

  void send(int fd, const net::Endpoint& to, const Bytes& payload) {
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(to.port);
    sa.sin_addr.s_addr = htonl(to.address.bits());
    ::sendto(fd, payload.data(), payload.size(), 0,
             reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
  }

  void poll(std::int64_t timeout_ns) {
    epoll_event events[16];
    timespec ts{timeout_ns / 1'000'000'000, timeout_ns % 1'000'000'000};
    int n = ::epoll_pwait2(epoll_, events, 16, &ts, nullptr);
    for (int i = 0; i < n; ++i) {
      int fd = static_cast<int>(events[i].data.u64 & 0xFFFFFFFFu);
      int tag = static_cast<int>(events[i].data.u64 >> 32);
      if (tag == kHttpListener) {
        accept_all();
      } else if (tag == kHttpConnection) {
        serve_http(fd);
      } else {
        drain(fd, tag);
      }
    }
  }

  void accept_all() {
    for (;;) {
      int fd = ::accept4(http_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) return;
      connections_[fd].clear();
      watch(fd, kHttpConnection);
    }
  }

  /// One GET per connection: answer from `served_` and close.
  void serve_http(int fd) {
    std::string& request = connections_[fd];
    char buf[2048];
    ssize_t n = 0;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
      request.append(buf, static_cast<std::size_t>(n));
    }
    bool closed = n == 0;
    if (request.find("\r\n\r\n") != std::string::npos) {
      auto sp = request.find(' ');
      auto sp2 = request.find(' ', sp + 1);
      auto it = served_.find(request.substr(sp + 1, sp2 - sp - 1));
      if (it != served_.end()) {
        ::send(fd, it->second.data(), it->second.size(), MSG_NOSIGNAL);
        verifier_.answers_sent += 1;
      } else {
        verifier_.wrong_frames += 1;
        verifier_.note("gateway fetched an unknown description path");
      }
      closed = true;
    }
    if (closed) {
      ::epoll_ctl(epoll_, EPOLL_CTL_DEL, fd, nullptr);
      ::close(fd);
      connections_.erase(fd);
    }
  }

  void drain(int fd, int tag) {
    constexpr int kBatch = 32;
    static unsigned char buffers[kBatch][65536];
    static char controls[kBatch][CMSG_SPACE(sizeof(timespec))];
    static sockaddr_in sources[kBatch];
    mmsghdr msgs[kBatch];
    iovec iovs[kBatch];
    for (;;) {
      for (int i = 0; i < kBatch; ++i) {
        iovs[i] = {buffers[i], sizeof(buffers[i])};
        msgs[i] = {};
        msgs[i].msg_hdr.msg_name = &sources[i];
        msgs[i].msg_hdr.msg_namelen = sizeof(sources[i]);
        msgs[i].msg_hdr.msg_iov = &iovs[i];
        msgs[i].msg_hdr.msg_iovlen = 1;
        msgs[i].msg_hdr.msg_control = controls[i];
        msgs[i].msg_hdr.msg_controllen = sizeof(controls[i]);
      }
      int n = ::recvmmsg(fd, msgs, kBatch, MSG_DONTWAIT, nullptr);
      if (n <= 0) return;
      for (int i = 0; i < n; ++i) {
        std::int64_t ts = realtime_ns();
        for (cmsghdr* c = CMSG_FIRSTHDR(&msgs[i].msg_hdr); c != nullptr;
             c = CMSG_NXTHDR(&msgs[i].msg_hdr, c)) {
          if (c->cmsg_level == SOL_SOCKET && c->cmsg_type == SCM_TIMESTAMPNS) {
            timespec kt{};
            std::memcpy(&kt, CMSG_DATA(c), sizeof(kt));
            ts = std::int64_t{kt.tv_sec} * 1'000'000'000 + kt.tv_nsec;
          }
        }
        net::Endpoint src{net::IpAddress(ntohl(sources[i].sin_addr.s_addr)),
                          ntohs(sources[i].sin_port)};
        if (own_ports_.contains(src.port)) continue;  // our own loopback
        BytesView wire(buffers[i], msgs[i].msg_len);
        if (tag < 100) {
          on_group_frame(static_cast<Sdp>(tag), src, ts, wire);
        } else {
          on_reply_frame(tag - 100 - kRequesterBase, ts, wire);
        }
      }
      if (n < kBatch) return;
    }
  }

  /// Books the retransmission `op` of a query: its second answer and its
  /// translated queries are then expected too.
  void retransmit(const Op& op) {
    verifier_.retransmits += 1;
    optional_[retry_keys_[op.retry_of]] += 1;
    for (Sdp target : {Sdp::kSlp, Sdp::kSsdp, Sdp::kMdns}) {
      if (target != static_cast<Sdp>(op.dest)) {
        expect_translated(target, txns_[op.retry_of].type);
      }
    }
  }

  /// Consumes one of `counts[key]` and books it in `tally`; false when none
  /// is left.
  static bool take(std::unordered_map<std::string, std::uint64_t>& counts,
                   const std::string& key, std::uint64_t& tally) {
    auto it = counts.find(key);
    if (it == counts.end() || it->second == 0) return false;
    it->second -= 1;
    tally += 1;
    return true;
  }

  /// Takes the oldest transaction waiting on `key`; false when none is.
  bool match(const std::string& key, std::int64_t ts, std::uint32_t* out) {
    auto it = pending_.find(key);
    if (it != pending_.end()) {
      // A transaction waiting longer than the timeout lost its frame (a
      // datagram dropped under a stall): give it up, so identical frames of
      // a re-announcing device stop matching one transaction behind.
      while (it->second.size() > 1 &&
             txns_[it->second.front()].due < ts - kTimeoutNs) {
        it->second.pop_front();
        expired_[key] += 1;
      }
    }
    // Queued transactions may still be ahead of their due time: only one
    // already sent can take the frame.
    if (it == pending_.end() || it->second.empty() ||
        txns_[it->second.front()].due > ts) {
      // The second answer to a retransmitted query, or a frame for a
      // transaction already given up on; only a frame nobody asked for is a
      // loop frame.
      if (take(optional_, key, verifier_.duplicate_answers) ||
          take(expired_, key, verifier_.late_frames)) {
        return false;
      }
      verifier_.loop_frames += 1;
      if (verifier_.loop_frames <= 4) {
        verifier_.note("unexpected gateway frame for key " + key);
      }
      return false;
    }
    std::uint32_t id = it->second.front();
    it->second.pop_front();
    Txn& t = txns_[id];
    t.received += 1;
    if (t.first_ts == 0) t.first_ts = ts;
    *out = id;
    return true;
  }

  void wrong(std::uint32_t id, const std::string& why) {
    txns_[id].wrong = true;
    verifier_.wrong_frames += 1;
    if (verifier_.wrong_frames <= 4) verifier_.note(why);
  }

  void on_group_frame(Sdp sdp, const net::Endpoint& src, std::int64_t ts,
                      BytesView wire) {
    verifier_.gateway_frames += 1;
    Frame f = decoder_.decode(sdp, false, wire);
    std::uint32_t id = 0;
    switch (f.kind) {
      case Frame::Kind::kQuery: {
        verifier_.translated_queries += 1;
        translated_seen_[f.type_name] += 1;
        if (!f.stamped) {
          verifier_.wrong_frames += 1;
          verifier_.note("translated query without the bridge stamp");
          return;
        }
        auto it = offered_.find(f.type_name);
        if (it == offered_.end() || it->second.service.origin != sdp) return;
        Bytes reply = it->second.answer;
        patch_answer_id(sdp, reply, f.id);
        send(senders_[static_cast<int>(sdp)], src, reply);
        verifier_.answers_sent += 1;
        return;
      }
      case Frame::Kind::kAnnouncement:
        if (!match("A" + f.url, ts, &id)) return;
        if (!f.stamped || f.type_name != mdns_type(txns_[id].type)) {
          wrong(id, "announcement of " + f.url + " has wrong type/stamp");
        }
        return;
      case Frame::Kind::kGoodbye:
        if (!match("G" + f.url, ts, &id)) return;
        if (!f.stamped || f.type_name != mdns_type(txns_[id].type)) {
          wrong(id, "goodbye of " + f.url + " has wrong type/stamp");
        }
        withdrawn_at_.try_emplace(f.url, ts);
        return;
      case Frame::Kind::kSsdpByebye:
        if (!match("B" + f.type_name, ts, &id)) return;
        // It carries no URL: it must retract one of the gateway's own
        // devices of the withdrawn type, and that device only once.
        if (!f.usn.starts_with(kBridgeUsnPrefix) ||
            !f.usn.ends_with("::" + f.type_name) ||
            !withdrawn_usns_.insert(f.usn).second) {
          wrong(id, "ssdp:byebye with a foreign or repeated USN " + f.usn);
        }
        return;
      case Frame::Kind::kDaAdvert:
        // Directory mode announces the gateway as DA once, at start-up.
        if (da_adverts_ > 0) {
          da_adverts_ -= 1;
          return;
        }
        [[fallthrough]];
      default:
        verifier_.loop_frames += 1;
        verifier_.note("unexpected gateway frame kind on " +
                       std::to_string(static_cast<int>(sdp)));
        return;
    }
  }

  void on_reply_frame(int requester, std::int64_t ts, BytesView wire) {
    verifier_.gateway_frames += 1;
    Sdp sdp = Sdp::kMdns;
    // SLP: version 2, function SrvRply, and its 24-bit length field (a DNS
    // id can start 0x0202 too).
    if (wire.size() > 4 && wire[0] == 2 && wire[1] == 2 &&
        ((std::size_t{wire[2]} << 16) | (std::size_t{wire[3]} << 8) |
         wire[4]) == wire.size()) {
      sdp = Sdp::kSlp;
    } else if (wire.size() > 5 && std::memcmp(wire.data(), "HTTP/", 5) == 0) {
      sdp = Sdp::kSsdp;
    }
    Frame f = decoder_.decode(sdp, true, wire);
    std::uint32_t id = 0;
    const std::string r = std::to_string(requester) + "|";
    switch (f.kind) {
      case Frame::Kind::kSlpReply: {
        if (!match("S" + r + std::to_string(f.id), ts, &id)) return;
        const std::string prefix = slp_type(txns_[id].type) + ":";
        if (f.urls.empty()) wrong(id, "empty SrvRply");
        for (const auto& url : f.urls) {
          if (!url.starts_with(prefix)) {
            wrong(id, "SrvRply entry of the wrong type: " + url);
            break;
          }
          std::string_view rest = std::string_view(url).substr(prefix.size());
          check_url(id, rest.substr(0, rest.find(';')));
        }
        return;
      }
      case Frame::Kind::kMdnsReply:
        if (!match("M" + r + std::to_string(f.id), ts, &id)) return;
        if (!f.stamped || f.type_name != mdns_type(txns_[id].type) ||
            f.urls.empty()) {
          wrong(id, "mDNS answer with wrong type/stamp or no service");
        }
        for (const auto& url : f.urls) check_url(id, url);
        return;
      case Frame::Kind::kSsdpReply:
        if (!match("U" + r + f.type_name, ts, &id)) return;
        if (!f.stamped || f.location.empty()) {
          wrong(id, "SSDP answer without stamp or LOCATION");
        } else if (++ssdp_replies_ % 100 == 1) {
          description_checks_.push_back({f.location, txns_[id].type});
        }
        return;
      default:
        verifier_.wrong_frames += 1;
        verifier_.note("undecodable reply to a requester");
        return;
    }
  }

  /// A listed service must be one of the requested type that was not
  /// withdrawn (goodbye already on the wire) before the query was due.
  void check_url(std::uint32_t id, std::string_view url) {
    std::string key(url);
    auto it = known_.find(key);
    if (it == known_.end() || it->second != txns_[id].type) {
      wrong(id, "answer lists unknown or mistyped service " + key);
      return;
    }
    auto gone = withdrawn_at_.find(key);
    if (gone != withdrawn_at_.end() && gone->second < txns_[id].due) {
      wrong(id, "answer lists withdrawn service " + key);
    }
  }

  static constexpr int kHttpListener = 200;
  static constexpr int kHttpConnection = 201;

  int epoll_ = -1;
  int http_ = -1;
  std::uint16_t http_port_ = 0;
  std::unordered_map<int, std::string> connections_;
  std::unordered_map<std::string, std::string> served_;
  std::vector<int> listeners_;
  std::vector<int> senders_;
  std::unordered_set<std::uint16_t> own_ports_;
  FrameDecoder decoder_;
  std::vector<Txn> txns_;
  std::unordered_map<std::string, std::deque<std::uint32_t>> pending_;
  std::unordered_map<std::string, std::uint64_t> expired_;
  // Second answers a retransmission may bring, by answer key.
  std::unordered_map<std::string, std::uint64_t> optional_;
  std::unordered_map<std::uint32_t, std::string> retry_keys_;
  std::unordered_map<std::string, Offered> offered_;
  std::unordered_map<std::string, int> known_;
  std::unordered_map<std::string, std::int64_t> withdrawn_at_;
  std::unordered_set<std::string> withdrawn_usns_;
  int da_adverts_ = 0;
  std::unordered_map<std::string, std::uint64_t> translated_expected_;
  std::unordered_map<std::string, std::uint64_t> translated_seen_;
  std::vector<DescriptionCheck> description_checks_;
  std::uint64_t ssdp_replies_ = 0;
  VerifierStats verifier_;
};

}  // namespace indiss::bench_e2e
