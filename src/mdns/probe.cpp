#include "mdns/probe.hpp"

#include <algorithm>
#include <cstdio>

namespace indiss::mdns {

namespace {

// RFC 6762 timings.
/// §8.1: three probes, 250 ms apart; the name is won 250 ms after the last
/// unanswered probe.
constexpr transport::Duration kProbeInterval = transport::millis(250);
constexpr int kProbeCount = 3;
/// §8.2: the tiebreak loser waits this long before restarting its probes.
constexpr transport::Duration kTiebreakDefer = transport::seconds(1);
/// §8.1 rate limiting: this many conflicts within kConflictWindow engage
/// exponential backoff between attempts.
constexpr int kConflictThreshold = 15;
constexpr transport::Duration kConflictWindow = transport::seconds(10);
constexpr transport::Duration kBackoffInitial = transport::seconds(5);
constexpr transport::Duration kBackoffMax = transport::seconds(60);

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t hash = 1469598103934665603ull;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

/// Uncompressed wire-format name, the §8.2.1 comparison encoding (names
/// inside compared rdata must not be compressed).
void append_name(std::string_view name, Bytes& out) {
  std::size_t start = 0;
  while (start <= name.size()) {
    std::size_t dot = name.find('.', start);
    std::size_t end = (dot == std::string_view::npos) ? name.size() : dot;
    std::size_t len = std::min<std::size_t>(end - start, 63);
    out.push_back(static_cast<std::uint8_t>(len));
    for (std::size_t i = start; i < start + len; ++i) {
      out.push_back(static_cast<std::uint8_t>(name[i]));
    }
    if (dot == std::string_view::npos) break;
    start = dot + 1;
  }
  out.push_back(0);
}

void append_u16(std::uint16_t value, Bytes& out) {
  out.push_back(static_cast<std::uint8_t>(value >> 8));
  out.push_back(static_cast<std::uint8_t>(value & 0xff));
}

/// One §8.2.1 comparison key: (class, type, rdata) in wire order, so a
/// straight lexicographic Bytes comparison matches the RFC's rule
/// ("records are compared as... class, type, rdata, in that order").
Bytes comparison_key(const DnsRecord& record) {
  Bytes key;
  append_u16(kClassIn, key);  // cache-flush bit excluded from comparison
  append_u16(record.type, key);
  append_rdata(record, key);
  return key;
}

}  // namespace

void append_rdata(const DnsRecord& record, Bytes& out) {
  switch (record.type) {
    case kTypePtr:
      append_name(record.target, out);
      break;
    case kTypeSrv:
      append_u16(record.priority, out);
      append_u16(record.weight, out);
      append_u16(record.port, out);
      append_name(record.target, out);
      break;
    case kTypeTxt:
      for (const auto& [key, value] : record.txt) {
        std::size_t len = std::min<std::size_t>(
            key.size() + (value.empty() ? 0 : 1 + value.size()), 255);
        out.push_back(static_cast<std::uint8_t>(len));
        std::size_t written = 0;
        for (char c : key) {
          if (written++ >= len) break;
          out.push_back(static_cast<std::uint8_t>(c));
        }
        if (!value.empty() && written < len) {
          out.push_back(static_cast<std::uint8_t>('='));
          ++written;
          for (char c : value) {
            if (written++ >= len) break;
            out.push_back(static_cast<std::uint8_t>(c));
          }
        }
      }
      break;
    case kTypeA: {
      std::uint32_t bits = record.address.bits();
      out.push_back(static_cast<std::uint8_t>(bits >> 24));
      out.push_back(static_cast<std::uint8_t>(bits >> 16));
      out.push_back(static_cast<std::uint8_t>(bits >> 8));
      out.push_back(static_cast<std::uint8_t>(bits));
      break;
    }
    default:
      out.insert(out.end(), record.raw.begin(), record.raw.end());
      break;
  }
}

int compare_rdata_sets(const std::vector<DnsRecord>& ours,
                       const std::vector<DnsRecord>& theirs) {
  std::vector<Bytes> lhs;
  std::vector<Bytes> rhs;
  lhs.reserve(ours.size());
  rhs.reserve(theirs.size());
  for (const auto& record : ours) lhs.push_back(comparison_key(record));
  for (const auto& record : theirs) rhs.push_back(comparison_key(record));
  std::sort(lhs.begin(), lhs.end());
  std::sort(rhs.begin(), rhs.end());
  // Pairwise lexicographic; when one side runs out, the side with records
  // remaining is the lexicographically greater (§8.2.1).
  std::size_t n = std::min(lhs.size(), rhs.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (lhs[i] < rhs[i]) return -1;
    if (rhs[i] < lhs[i]) return 1;
  }
  if (lhs.size() < rhs.size()) return -1;
  if (lhs.size() > rhs.size()) return 1;
  return 0;
}

std::string renamed_label(std::string_view base_label, int attempt) {
  // Mix the attempt into the base hash so consecutive attempts yield
  // distinct-but-deterministic suffixes; the suffix stays a bounded 4
  // characters regardless of how many renames a hostile responder forces.
  std::uint64_t mixed =
      fnv1a(base_label) ^
      (static_cast<std::uint64_t>(attempt) * 0x9e3779b97f4a7c15ull);
  mixed ^= mixed >> 33;
  char suffix[8];
  std::snprintf(suffix, sizeof(suffix), "-%03x",
                static_cast<unsigned>(mixed & 0xfff));
  return std::string(base_label) + suffix;
}

// ---------------------------------------------------------------------------

ProbeEngine::ProbeEngine(transport::Transport& host, Callbacks callbacks)
    : host_(host), callbacks_(std::move(callbacks)) {}

ProbeEngine::~ProbeEngine() {
  for (auto& claim : claims_) claim->timer.cancel();
}

ProbeEngine::Claim* ProbeEngine::find(const std::string& name) {
  for (auto& claim : claims_) {
    if (claim->name == name) return claim.get();
  }
  return nullptr;
}

void ProbeEngine::claim(std::string name, std::vector<DnsRecord> records) {
  if (find(name) != nullptr) return;
  auto claim = std::make_unique<Claim>();
  claim->base_name = name;
  claim->name = std::move(name);
  claim->records = std::move(records);
  claims_.push_back(std::move(claim));
  step(*claims_.back());
}

void ProbeEngine::release(const std::string& name) {
  for (auto it = claims_.begin(); it != claims_.end(); ++it) {
    if ((*it)->name == name) {
      (*it)->timer.cancel();
      claims_.erase(it);
      return;
    }
  }
}

bool ProbeEngine::established(const std::string& name) const {
  for (const auto& claim : claims_) {
    if (claim->name == name) return claim->state == State::kEstablished;
  }
  return false;
}

const std::vector<DnsRecord>* ProbeEngine::claim_records(
    const std::string& name) const {
  for (const auto& claim : claims_) {
    if (claim->name == name) return &claim->records;
  }
  return nullptr;
}

bool ProbeEngine::busy() const {
  for (const auto& claim : claims_) {
    if (claim->state != State::kEstablished) return true;
  }
  return false;
}

void ProbeEngine::schedule_step(Claim& claim, transport::Duration delay) {
  claim.timer.cancel();
  claim.timer = transport::schedule_guarded(host_, alive_, delay,
                                            [this, c = &claim]() { step(*c); });
}

void ProbeEngine::step(Claim& claim) {
  if (claim.state == State::kEstablished) return;
  claim.state = State::kProbing;
  if (claim.probes_sent < kProbeCount) {
    send_probe(claim);
    schedule_step(claim, kProbeInterval);
    return;
  }
  // Third probe went unanswered for a full interval: the name is ours.
  establish(claim);
}

void ProbeEngine::send_probe(Claim& claim) {
  DnsMessage probe;
  probe.flags = 0;  // query
  DnsQuestion question;
  question.name = claim.name;
  question.qtype = kTypeAny;  // §8.1: probes ask for ANY
  probe.questions.push_back(std::move(question));
  // Proposed records travel in the authority section so a simultaneous
  // prober can run the §8.2 tiebreak against them.
  probe.authorities = claim.records;
  claim.probes_sent += 1;
  stats_->probes_sent += 1;
  if (callbacks_.send) callbacks_.send(probe);
}

void ProbeEngine::establish(Claim& claim) {
  claim.state = State::kEstablished;
  claim.backoff = transport::Duration{0};
  claim.recent_conflicts.clear();
  stats_->names_established += 1;
  if (callbacks_.on_established) callbacks_.on_established(claim.name);
}

void ProbeEngine::defend(const Claim& claim) {
  DnsMessage defense;
  defense.flags = kFlagResponse | kFlagAuthoritative;
  defense.answers = claim.records;
  for (auto& record : defense.answers) record.cache_flush = true;  // §10.2
  stats_->defenses_sent += 1;
  if (callbacks_.send) callbacks_.send(defense);
}

bool ProbeEngine::conflicts_with(const Claim& claim,
                                 const std::vector<DnsRecord>& section,
                                 std::vector<DnsRecord>* theirs) const {
  bool conflicting = false;
  for (const auto& record : section) {
    if (record.name != claim.name) continue;
    // TTL-0 records assert absence (a goodbye), not ownership — never a
    // conflict.
    if (record.ttl == 0) continue;
    if (theirs != nullptr) theirs->push_back(record);
    bool matched = false;
    for (const auto& ours : claim.records) {
      if (ours.type != record.type) continue;
      matched = true;
      Bytes our_rdata;
      Bytes their_rdata;
      append_rdata(ours, our_rdata);
      append_rdata(record, their_rdata);
      if (our_rdata != their_rdata) conflicting = true;
    }
    // A record type we do not propose, under our name, is still a
    // contradiction: someone owns the name with different data.
    if (!matched) conflicting = true;
  }
  return conflicting;
}

void ProbeEngine::handle_query(const DnsMessage& query) {
  if (query.authorities.empty()) return;  // only probes matter here
  for (auto& claim : claims_) {
    bool probed = false;
    for (const auto& question : query.questions) {
      if (question.name == claim->name) probed = true;
    }
    if (!probed) continue;

    std::vector<DnsRecord> theirs;
    bool conflicting = conflicts_with(*claim, query.authorities, &theirs);
    if (!conflicting) continue;  // identical rdata: a cooperating twin

    if (claim->state == State::kEstablished) {
      // §8.2: a defending host answers a conflicting probe immediately with
      // the established records; the prober renames, we keep the name.
      defend(*claim);
      continue;
    }
    if (claim->state != State::kProbing) continue;

    // §8.2 simultaneous probe: lexicographic tiebreak on the proposed sets.
    int order = compare_rdata_sets(claim->records, theirs);
    if (order > 0) {
      stats_->tiebreaks_won += 1;  // they defer, we keep probing
      continue;
    }
    if (order < 0) {
      stats_->tiebreaks_lost += 1;
      claim->state = State::kDeferred;
      claim->probes_sent = 0;
      schedule_step(*claim, kTiebreakDefer);
    }
  }
}

void ProbeEngine::handle_response(const DnsMessage& response) {
  for (auto& claim : claims_) {
    bool conflicting = conflicts_with(*claim, response.answers, nullptr) ||
                       conflicts_with(*claim, response.additionals, nullptr);
    if (conflicting) conflict(*claim);
  }
}

void ProbeEngine::conflict(Claim& claim) {
  stats_->conflicts += 1;

  // §8.1 rate limiting: ≥ kConflictThreshold conflicts inside the window
  // engages exponential backoff between attempts.
  transport::TimePoint now = host_.now();
  claim.recent_conflicts.push_back(now);
  std::erase_if(claim.recent_conflicts, [&](transport::TimePoint t) {
    return now - t > kConflictWindow;
  });
  if (static_cast<int>(claim.recent_conflicts.size()) >=
      kConflictThreshold) {
    claim.backoff = claim.backoff.count() == 0
                        ? kBackoffInitial
                        : std::min(claim.backoff * 2, kBackoffMax);
    stats_->backoffs_engaged += 1;
  }
  // Once engaged, the backoff gates *every* successive attempt ("MUST wait
  // at least five seconds before each successive additional probe attempt")
  // until the claim finally establishes — otherwise the sliding window
  // empties during the wait and the storm resumes at full rate.
  transport::Duration delay = claim.backoff.count() != 0
                                  ? claim.backoff
                                  : kProbeInterval;

  // Rename-and-retry: hash-stable bounded suffix on the base label.
  bool was_established = claim.state == State::kEstablished;
  std::string old_name = claim.name;
  claim.rename_attempt += 1;
  std::string_view base_label = instance_label(claim.base_name);
  std::string_view rest = type_of_instance(claim.base_name);
  std::string new_name = renamed_label(base_label, claim.rename_attempt);
  if (!rest.empty()) {
    new_name += '.';
    new_name += rest;
  }
  claim.name = new_name;
  for (auto& record : claim.records) {
    if (record.name == old_name) record.name = claim.name;
  }
  stats_->renames += 1;
  if (was_established) {
    // §9: an established record contradicted on the wire goes back to
    // probing under the new name.
    claim.state = State::kProbing;
  }
  if (callbacks_.on_renamed) callbacks_.on_renamed(old_name, claim.name);

  restart(claim, delay);
}

void ProbeEngine::restart(Claim& claim, transport::Duration delay) {
  claim.state = State::kProbing;
  claim.probes_sent = 0;
  schedule_step(claim, delay);
}

}  // namespace indiss::mdns
