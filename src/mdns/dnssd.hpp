// DNS-SD over mDNS (RFC 6762/6763): the native Bonjour actors.
//
//   - MdnsResponder: the service side. Announces published instances with
//     unsolicited multicast responses (alive) and TTL-0 goodbyes, and answers
//     PTR browse queries with the full PTR+SRV+TXT+A bundle. Implements two
//     RFC 6762 suppression rules on the slot-arena scheduler: known-answer
//     suppression (§7.1 — a query listing our PTR with at least half its TTL
//     left is not answered) and duplicate-answer suppression (§7.4 — a
//     response we were about to multicast is cancelled when another
//     responder beats us to it with the same record).
//   - MdnsBrowser: the client side. One-shot browse for a service type from
//     an ephemeral port (an RFC 6762 §6.7 legacy "one-shot" querier, so
//     responders answer it unicast), resolving PTR -> SRV/TXT/A into flat
//     results.
//
// Timing discipline matches the other native stacks: every delay is
// simulated, seeded and explicit, so trials differ only through seeds.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "mdns/dns.hpp"
#include "mdns/probe.hpp"
#include "transport/transport.hpp"

namespace indiss::mdns {

/// One advertised DNS-SD service instance.
struct ServiceInstance {
  std::string instance;      // "clock1"
  std::string service_type;  // "_clock._tcp"
  std::uint16_t port = 0;
  /// TXT attributes; a "url" entry carries the service's access endpoint
  /// (the DNS-SD analogue of an SLP service URL).
  std::vector<std::pair<std::string, std::string>> txt;

  [[nodiscard]] std::string type_name() const {
    return service_type + ".local";
  }
  [[nodiscard]] std::string instance_name() const {
    return instance + "." + service_type + ".local";
  }
};

struct MdnsConfig {
  std::uint16_t port = kMdnsPort;
  net::IpAddress group = kMdnsGroup;
  /// RFC 6762 §6: responders answering a multicast query for a shared
  /// record delay the response uniformly in this window so simultaneous
  /// responders interleave (and can suppress duplicates).
  transport::Duration response_delay_min = transport::millis(20);
  transport::Duration response_delay_max = transport::millis(120);
  /// Legacy (ephemeral-port) queries are answered after only the stack's
  /// processing delay.
  transport::Duration handling = transport::micros(50);
  /// Announcements on publish: repeated this many times, one interval apart
  /// (RFC 6762 §8.3).
  int announce_repeats = 2;
  transport::Duration announce_interval = transport::seconds(1);
  std::uint32_t record_ttl = 120;  // seconds
  std::uint64_t seed = 1;
  /// RFC 6762 §8 probing before announcing. Off by default: probing adds
  /// wire traffic and a ~750 ms claim delay, and zero-conflict runs must
  /// stay bit-identical to pre-probe builds (docs/chaos.md determinism
  /// contract). Turn on when two responders — or a hostile one — can
  /// contend for the same instance name.
  bool probe = false;
  /// Browser: how long one browse collects answers, and how many times the
  /// query is retransmitted inside that window.
  transport::Duration browse_window = transport::millis(500);
  int browse_retransmits = 1;
};

// ---------------------------------------------------------------------------

class MdnsResponder {
 public:
  MdnsResponder(transport::Transport& host, MdnsConfig config = {});
  ~MdnsResponder();

  /// Advertises an instance: multicasts the announce burst and starts
  /// answering matching queries.
  void publish(ServiceInstance service);

  /// Multicasts TTL-0 goodbyes for everything published and stops answering.
  void goodbye();

  [[nodiscard]] const std::vector<ServiceInstance>& published() const {
    return services_;
  }

  // Statistics for tests and benches.
  [[nodiscard]] std::uint64_t queries_seen() const { return queries_seen_; }
  [[nodiscard]] std::uint64_t responses_sent() const {
    return responses_sent_;
  }
  /// Queries not answered because the querier already knew the answer.
  [[nodiscard]] std::uint64_t known_answer_suppressed() const {
    return known_answer_suppressed_;
  }
  /// Scheduled multicast answers cancelled because another responder
  /// multicast the same record first.
  [[nodiscard]] std::uint64_t duplicates_cancelled() const {
    return duplicates_cancelled_;
  }
  /// Probe/tiebreak counters; zeroed when probing is off.
  [[nodiscard]] ProbeStats probe_stats() const {
    return probe_ ? probe_->stats() : ProbeStats{};
  }
  /// True while any published instance is still probing for its name.
  [[nodiscard]] bool probing() const { return probe_ && probe_->busy(); }

 private:
  void on_datagram(const net::Datagram& datagram);
  void handle_query(const DnsMessage& query, const net::Endpoint& from);
  void handle_response(const DnsMessage& response);
  [[nodiscard]] bool matches(const DnsQuestion& question,
                             const ServiceInstance& service) const;
  void build_answer(const ServiceInstance& service, bool announce,
                    std::uint32_t ttl, DnsMessage& out) const;
  void send(const DnsMessage& message, const net::Endpoint& to);
  void announce(const ServiceInstance& service, int repeats_left);
  /// True when queries for `service` may be answered (established, or
  /// probing disabled).
  [[nodiscard]] bool answerable(const ServiceInstance& service) const;
  void on_probe_established(const std::string& name);
  void on_probe_renamed(const std::string& old_name,
                        const std::string& new_name);

  transport::Transport& host_;
  MdnsConfig config_;
  std::shared_ptr<transport::UdpSocket> socket_;
  /// Liveness token for scheduled callbacks that outlive the responder.
  std::shared_ptr<char> alive_ = std::make_shared<char>('\0');
  std::vector<ServiceInstance> services_;
  /// Pending paced multicast answers, keyed by instance name — cancelled by
  /// duplicate-answer suppression (the cancel path of the slot arena).
  std::map<std::string, transport::TaskHandle> pending_answers_;
  transport::Random rng_;
  DnsEncoder encoder_;
  /// RFC 6762 §8 claiming engine; null when `config.probe` is off.
  std::unique_ptr<ProbeEngine> probe_;
  std::uint64_t queries_seen_ = 0;
  std::uint64_t responses_sent_ = 0;
  std::uint64_t known_answer_suppressed_ = 0;
  std::uint64_t duplicates_cancelled_ = 0;
  bool closed_ = false;
};

// ---------------------------------------------------------------------------

/// One resolved instance from a browse.
struct BrowseResult {
  std::string instance;     // "clock1"
  std::string type;         // "_clock._tcp.local"
  std::string target_host;  // "service.local"
  net::IpAddress address;
  std::uint16_t port = 0;
  std::vector<std::pair<std::string, std::string>> txt;

  /// The access endpoint: the "url" TXT entry when present, else a
  /// synthesized mdns:// URL from the SRV/A data.
  [[nodiscard]] std::string url() const;
};

class MdnsBrowser {
 public:
  using CompleteHandler =
      std::function<void(const std::vector<BrowseResult>&)>;

  MdnsBrowser(transport::Transport& host, MdnsConfig config = {});
  ~MdnsBrowser();

  /// One-shot browse for `service_type` ("_clock._tcp"). Fires `handler`
  /// once when the collection window closes. `known_answers` PTR targets are
  /// listed in the query's answer section (known-answer suppression).
  void browse(const std::string& service_type, CompleteHandler handler,
              const std::vector<std::string>& known_answers = {});

  [[nodiscard]] std::uint64_t queries_sent() const { return queries_sent_; }

 private:
  struct PendingBrowse {
    std::string type_name;
    DnsMessage query;
    std::map<std::string, BrowseResult> results;  // by instance name
    CompleteHandler handler;
    std::vector<transport::TaskHandle> retry_tasks;
    transport::TaskHandle deadline_task;
  };

  void on_datagram(const net::Datagram& datagram);
  void transmit(PendingBrowse& browse);
  void finish(std::uint16_t id);

  transport::Transport& host_;
  MdnsConfig config_;
  std::shared_ptr<transport::UdpSocket> socket_;
  std::map<std::uint16_t, PendingBrowse> browses_;
  DnsEncoder encoder_;
  std::uint16_t next_id_ = 1;
  std::uint64_t queries_sent_ = 0;
};

}  // namespace indiss::mdns
