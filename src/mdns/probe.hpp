// RFC 6762 §8 name claiming: probe → tiebreak → establish.
//
// Before an mDNS responder may answer for a unique record set it must prove
// no one else owns the name: three probe queries 250 ms apart carrying the
// proposed records in the authority section (§8.1). Three outcomes:
//
//   - Silence: the name is ours — `on_established` fires and the caller
//     starts announcing (§8.3).
//   - A *response* holding the name with different rdata: somebody already
//     owns it. We rename with a bounded, hash-stable suffix and re-probe;
//     fifteen such conflicts inside ten seconds engage exponential backoff
//     between attempts instead of flooding the wire (§8.1 rate limiting).
//   - A *simultaneous probe* for the same name (§8.2): both sides compare
//     their proposed rdata lexicographically; the greater set wins and keeps
//     probing, the lesser defers one second and starts over.
//
// Identical rdata is never a conflict (§8.2's tiebreak degenerates to
// equality): two INDISS gateways bridging the same fleet compose
// byte-identical records, so they converge on the same names with zero
// renames — coexistence is the common case, renaming the hostile one.
//
// Once established the engine defends: a probe for our name carrying
// conflicting rdata is answered immediately with the defended records,
// cache-flush bit set (§8.2 defending host behaviour). A *response* that
// contradicts an established record sends the claim back to probing under a
// fresh name (§9 conflict resolution).
//
// The engine is transport-agnostic and owns no socket: callers feed it
// decoded inbound messages and give it a `send` callback. Both the native
// `MdnsResponder` and the bridging `core::MdnsUnit` drive one. Probing is
// opt-in at both call sites (default off) so zero-conflict runs stay
// bit-identical to pre-probe builds — the determinism contract of
// docs/chaos.md extends to this engine: it consumes no randomness at all.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mdns/dns.hpp"
#include "transport/transport.hpp"

namespace indiss::mdns {

/// Counters for the claiming lifecycle, mergeable across shards.
struct ProbeStats {
  std::uint64_t probes_sent = 0;
  /// Conflicting records observed (responses or defended probes) that forced
  /// a rename.
  std::uint64_t conflicts = 0;
  std::uint64_t renames = 0;
  std::uint64_t tiebreaks_won = 0;
  std::uint64_t tiebreaks_lost = 0;
  /// Defended-record answers sent for established names (§8.2).
  std::uint64_t defenses_sent = 0;
  /// Times the ≥15-conflicts/10 s rate limit engaged (each engagement doubles
  /// the wait before the next attempt).
  std::uint64_t backoffs_engaged = 0;
  std::uint64_t names_established = 0;

  ProbeStats& operator+=(const ProbeStats& other) {
    probes_sent += other.probes_sent;
    conflicts += other.conflicts;
    renames += other.renames;
    tiebreaks_won += other.tiebreaks_won;
    tiebreaks_lost += other.tiebreaks_lost;
    defenses_sent += other.defenses_sent;
    backoffs_engaged += other.backoffs_engaged;
    names_established += other.names_established;
    return *this;
  }
};

/// Serializes a record's rdata in wire form with uncompressed names —
/// the §8.2.1 comparison format. Exposed for tests.
void append_rdata(const DnsRecord& record, Bytes& out);

/// §8.2.1 lexicographic comparison of two proposed record sets (each record
/// keyed by (class, type, rdata), sets sorted). Returns <0 when `ours` is
/// the lexicographically lesser (we lose), >0 when greater (we win), 0 when
/// identical (no conflict at all).
int compare_rdata_sets(const std::vector<DnsRecord>& ours,
                       const std::vector<DnsRecord>& theirs);

/// Deterministic bounded rename: "clock1" → "clock1-a3f" where the 3-hex
/// suffix is FNV-mixed from (base label, attempt). Hash-stable: the same
/// base and attempt always yield the same name, so renames are reproducible
/// across runs and across gateways.
std::string renamed_label(std::string_view base_label, int attempt);

class ProbeEngine {
 public:
  struct Callbacks {
    /// Multicasts a composed message (probe query or defense answer).
    std::function<void(const DnsMessage&)> send;
    /// The claim survived probing under `name` (possibly renamed).
    std::function<void(const std::string& name)> on_established;
    /// A conflict forced `old_name` → `new_name`; fires before the re-probe
    /// begins, for both probing and established claims.
    std::function<void(const std::string& old_name,
                       const std::string& new_name)>
        on_renamed;
  };

  ProbeEngine(transport::Transport& host, Callbacks callbacks);
  ~ProbeEngine();

  ProbeEngine(const ProbeEngine&) = delete;
  ProbeEngine& operator=(const ProbeEngine&) = delete;

  /// Starts claiming `name`. `records` are the proposed unique records; each
  /// must be named `name` (renames rewrite them in place). No-op when the
  /// name is already claimed.
  void claim(std::string name, std::vector<DnsRecord> records);

  /// Drops a claim by its *current* name.
  void release(const std::string& name);

  [[nodiscard]] bool established(const std::string& name) const;
  /// The proposed/defended records behind a claim (null when unknown) —
  /// callers announce exactly what was probed.
  [[nodiscard]] const std::vector<DnsRecord>* claim_records(
      const std::string& name) const;
  /// True while any claim has not yet won its name.
  [[nodiscard]] bool busy() const;
  [[nodiscard]] std::size_t claim_count() const { return claims_.size(); }

  /// Feed decoded inbound multicast traffic. Queries drive tiebreaks and
  /// defenses; responses drive conflict detection.
  void handle_query(const DnsMessage& query);
  void handle_response(const DnsMessage& response);

  [[nodiscard]] const ProbeStats& stats() const { return *stats_; }
  /// Shared so a Monitor keeps a readable view after the owner detaches.
  [[nodiscard]] std::shared_ptr<const ProbeStats> stats_ptr() const {
    return stats_;
  }

 private:
  enum class State { kProbing, kDeferred, kEstablished };

  struct Claim {
    std::string base_name;  // as originally claimed
    std::string name;       // current, after any renames
    std::vector<DnsRecord> records;
    State state = State::kProbing;
    int probes_sent = 0;
    int rename_attempt = 0;
    transport::Duration backoff{0};  // 0 = rate limit not engaged
    transport::TaskHandle timer;
    /// Conflict timestamps inside the sliding rate-limit window.
    std::vector<transport::TimePoint> recent_conflicts;
  };

  Claim* find(const std::string& name);
  void step(Claim& claim);
  void send_probe(Claim& claim);
  void establish(Claim& claim);
  void defend(const Claim& claim);
  void conflict(Claim& claim);
  void restart(Claim& claim, transport::Duration delay);
  void schedule_step(Claim& claim, transport::Duration delay);
  /// True when `section` holds a record named `claim.name` whose rdata
  /// contradicts ours (same type, different bytes — or a type we don't own).
  [[nodiscard]] bool conflicts_with(const Claim& claim,
                                    const std::vector<DnsRecord>& section,
                                    std::vector<DnsRecord>* theirs) const;

  transport::Transport& host_;
  Callbacks callbacks_;
  std::shared_ptr<char> alive_ = std::make_shared<char>('\0');
  std::vector<std::unique_ptr<Claim>> claims_;
  std::shared_ptr<ProbeStats> stats_ = std::make_shared<ProbeStats>();
};

}  // namespace indiss::mdns
