// The mDNS/DNS-SD unit: the fourth SDP plugged into INDISS's fixed event
// alphabet (after the paper's SLP + UPnP and PR 1-3's Jini), exercising the
// extensibility claim one more time: a new discovery protocol costs one
// parser/composer pair against the mandatory events plus a handful of FSM
// tuples.
//
// Roles:
//  - Parses mDNS datagrams (DNS-SD browse queries, query responses,
//    announcements, TTL-0 goodbyes) into event streams.
//  - Translates foreign request streams into multicast PTR queries issued as
//    a legacy one-shot querier (responders answer it unicast).
//  - Answers native mDNS browsers on behalf of foreign services with
//    composed PTR+SRV+TXT+A bundles.
//  - Re-announces foreign advertisements as unsolicited mDNS responses (and
//    goodbyes), so the Bonjour world hears SLP/UPnP/Jini departures too.
//
// Loop prevention: mDNS has no user-agent slot, so composed messages carry a
// marker TXT record ("_indiss-bridge._udp.local") in the additional section;
// the parser surfaces it as the head event's "server" attribute, which the
// standard FSM's bridge-echo guard already understands.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/unit.hpp"
#include "core/units/standard_fsm.hpp"
#include "mdns/dns.hpp"
#include "mdns/probe.hpp"

namespace indiss::core {

/// Translates mDNS wire messages into semantic event streams. Emits the
/// mandatory events plus SDP_MDNS_QUESTION / SDP_MDNS_INSTANCE /
/// SDP_MDNS_SRV. Uses the sink's scratch-event recycling, so a warm
/// parse allocates nothing (pinned by tests/sdp/mdns_test.cpp).
class MdnsEventParser : public SdpParser {
 public:
  [[nodiscard]] std::string_view name() const override { return "mdns"; }
  void parse(BytesView raw, const MessageContext& ctx,
             EventSink& sink) override;

 private:
  mdns::DnsMessage scratch_;  // decode_into target, storage reused
};

struct MdnsUnitConfig {
  /// RFC 6762 §8 probing of bridged instance names before announcing them.
  /// Off by default: probing delays the first announcement by ~750 ms and
  /// adds wire traffic, and zero-conflict runs must stay bit-identical to
  /// pre-probe builds (docs/chaos.md determinism contract). Turn on when
  /// another gateway — or a hostile responder — shares the mDNS domain
  /// (`indissd --probe`).
  bool probe = false;
};

class MdnsUnit : public Unit {
 public:
  using Config = MdnsUnitConfig;

  explicit MdnsUnit(transport::Transport& transport, UnitOptions options = {},
                    Config config = {});

  [[nodiscard]] std::uint64_t announcements_sent() const {
    return announcements_sent_;
  }
  /// Probe/tiebreak counters; zeroed when probing is off. The shared form
  /// lets the Monitor keep a readable view after the unit detaches.
  [[nodiscard]] mdns::ProbeStats probe_stats() const {
    return probe_ ? probe_->stats() : mdns::ProbeStats{};
  }
  [[nodiscard]] std::shared_ptr<const mdns::ProbeStats> probe_stats_ptr()
      const {
    return probe_ ? probe_->stats_ptr() : nullptr;
  }
  /// Renamed-instance overrides keyed by bridged-URL hash (tests).
  [[nodiscard]] const std::unordered_map<std::uint32_t, std::string>&
  name_overrides() const {
    return name_overrides_;
  }

  /// Inbound native mDNS traffic feeds the probe engine (tiebreaks,
  /// defenses, conflict detection) before the normal monitor pipeline.
  void on_native_message(const net::Datagram& datagram) override;

 protected:
  void compose_native_request(Session& session) override;
  void compose_native_reply(Session& session) override;
  void on_bridged(Session& session, const ServiceDirectory::Record& service,
                  std::uint64_t& handle, bool fresh) override;
  void forget_bridged(const ServiceDirectory::Record& service,
                      std::uint64_t handle, Forget why) override;
  [[nodiscard]] transport::Duration network_reply_pacing() const override;
  [[nodiscard]] IdSpan query_id_span() const override { return mdns::kIdSpan; }

 private:
  /// Per-claim bookkeeping: which bridged URL a probe claim stands for and
  /// whether it was ever announced (drives goodbye-on-rename).
  struct BridgedClaim {
    std::string url;
    std::string canonical_type;
    bool announced = false;
  };

  /// Starts §8.1 claims for every instance in the freshly composed
  /// announcement; the announcement itself is deferred to
  /// on_probe_established.
  void begin_probes(std::string_view canonical_type);
  void on_probe_established(const std::string& name);
  void on_probe_renamed(const std::string& old_name,
                        const std::string& new_name);
  /// Announces the established claim from the engine's own claimed records
  /// (byte-compatible with what compose_dnssd_answers produces), so the
  /// announced rdata is exactly the probed rdata.
  void announce_bridged(const std::string& name, const BridgedClaim& claim);
  /// True when the composed message names an instance still probing — such
  /// frames must not be sent or cached (§8.1: no answering before the name
  /// is won).
  [[nodiscard]] bool blocked_by_probing(const mdns::DnsMessage& composed)
      const;
  /// Composes the records for `url` alone, named under `qname`, into
  /// compose_scratch_: the one-URL stream behind goodbyes and adverts that
  /// named no service URL. Returns the number of bridged groups (0 = nothing
  /// to send).
  std::size_t compose_url_records(std::string_view url, std::string_view qname,
                                  std::uint32_t ttl);
  /// Multicasts compose_scratch_ as an unsolicited response.
  void multicast_composed();
  /// Composes and multicasts a TTL-0 goodbye for `url` under its current
  /// instance name.
  void send_goodbye(std::string_view url, std::string_view canonical_type);
  /// Drops probe state for a withdrawn/expired URL so a rejoining service
  /// re-probes from its base name.
  void release_probe_state(std::string_view url,
                           std::string_view canonical_type);

  mdns::DnsMessage compose_scratch_;
  std::string qname_scratch_;
  mdns::DnsEncoder encoder_;
  std::uint64_t announcements_sent_ = 0;
  /// RFC 6762 §8 claiming engine; null when `Config::probe` is off.
  std::unique_ptr<mdns::ProbeEngine> probe_;
  /// Claim bookkeeping keyed by the claim's *current* instance name.
  std::unordered_map<std::string, BridgedClaim> bridged_claims_;
  /// URL-hash → renamed instance label, consulted by compose_dnssd_answers
  /// so every later compose (answers, refreshes, goodbyes) uses the
  /// post-conflict name. Empty until a conflict actually renames.
  std::unordered_map<std::uint32_t, std::string> name_overrides_;
  /// Decode scratch for feeding inbound traffic to the probe engine.
  mdns::DnsMessage probe_scratch_;
  /// Encode scratch for probe/defense sends (the bridge marker is appended
  /// so the peer gateway's FSM ignores them as bridge echoes).
  mdns::DnsMessage probe_send_scratch_;
};

/// Composes the DNS-SD answer bundle for a translated reply stream into
/// `out` (reusing its storage): one PTR+SRV+TXT+A group per SDP_RES_SERV_URL
/// event, named under `qname`, plus the bridge-marker record. Instances are
/// keyed to the bridged URL by hash, so repeated answers stay stable;
/// `overrides` (URL-hash → label) substitutes post-conflict renamed labels
/// when RFC 6762 §8 probing forced a rename (null/empty = default names).
/// Returns the number of bridged groups (0 = nothing to answer). Shared by
/// MdnsUnit::compose_native_reply / on_bridged and the
/// zero-allocation round-trip pin in tests/sdp/mdns_test.cpp.
std::size_t compose_dnssd_answers(
    const EventStream& stream, std::string_view qname, std::uint32_t ttl,
    mdns::DnsMessage& out,
    const std::unordered_map<std::uint32_t, std::string>* overrides = nullptr);

}  // namespace indiss::core
