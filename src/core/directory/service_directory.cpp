#include "core/directory/service_directory.hpp"

#include <algorithm>

#include "core/units/standard_fsm.hpp"

namespace indiss::core {

ServiceDirectory::ServiceDirectory() : ServiceDirectory(Config{}) {}

ServiceDirectory::ServiceDirectory(Config config) : config_(config) {
  if (config_.type_buckets == 0) config_.type_buckets = 1;
  buckets_.resize(config_.type_buckets);
}

namespace {

/// Wire-bytes key for the touch() side index: hash mixed with length, same
/// collision posture as the TranslationCache key (plus the record's stored
/// wire_key lets withdraw unhook the mapping).
std::uint64_t wire_key_of(BytesView wire) {
  return wire_hash(wire) ^ (static_cast<std::uint64_t>(wire.size()) << 48);
}

/// The answer-cache key hash: the query bytes around its transaction id.
/// A wire too short to hold the id is hashed whole.
std::uint64_t query_hash(BytesView wire, IdSpan id) {
  if (!id.fits(wire)) return wire_hash(wire);
  return wire_hash(wire.subspan(id.offset + id.length),
                   wire_hash(wire.first(id.offset)));
}

/// Whether two queries are equal in everything but their transaction ids.
bool same_query(BytesView a, BytesView b, IdSpan id) {
  if (a.size() != b.size()) return false;
  if (!id.fits(a)) return std::equal(a.begin(), a.end(), b.begin());
  std::size_t end = id.offset + id.length;
  return std::equal(a.begin(), a.begin() + id.offset, b.begin()) &&
         std::equal(a.begin() + end, a.end(), b.begin() + end);
}

}  // namespace

bool ServiceDirectory::record_advertisement(SdpId origin,
                                            const EventStream& stream,
                                            BytesView wire,
                                            transport::TimePoint now) {
  AdvertView v = scan_advert(stream);
  if (v.url.empty() || !meaningful_advert_type(v.type)) return false;

  SymbolTable& table = SymbolTable::global();
  Symbol url = table.intern(v.url);
  transport::Duration ttl = v.ttl_seconds > 0
                                ? transport::seconds(v.ttl_seconds)
                                : kDefaultAdvertTtl;
  std::uint64_t wkey = wire.empty() ? 0 : wire_key_of(wire);

  auto it = records_.find(url);
  if (it != records_.end()) {
    // Refresh: re-arm the deadline without touching the identity fields —
    // in steady state the repeat is byte-identical anyway (and then usually
    // short-circuited by the TranslationCache into touch() instead). This
    // path allocates nothing.
    Record& record = it->second;
    // A new TTL changes the answer bytes; a revived record (stale generation
    // or past its deadline) changes the answer's record set.
    if (ttl != record.ttl || record.generation != generation_ ||
        record.expires_at <= now) {
      bump_type_epoch(record.canonical_type);
    }
    record.ttl = ttl;
    record.expires_at = now + ttl;
    record.generation = generation_;
    record.last_used = ++tick_;
    record.origin = origin;
    if (wkey != 0 && wkey != record.wire_key) {
      by_wire_.erase(record.wire_key);
      record.wire_key = wkey;
      by_wire_[wkey] = url;
    }
    return true;
  }

  Record record;
  record.url = url;
  record.canonical_type = table.intern(v.type);
  record.usn = v.usn.empty() ? kNoSymbol : table.intern(v.usn);
  record.origin = origin;
  for (const auto& event : stream) {
    if (event.type != EventType::kServiceAttr) continue;
    record.attributes.emplace_back(table.intern(event.get("key")),
                                   std::string(event.get("value")));
  }
  record.attr_count = record.attributes.size();
  record.ttl = ttl;
  record.expires_at = now + ttl;
  record.wire_key = wkey;
  record.generation = generation_;
  record.last_used = ++tick_;

  Symbol record_type = record.canonical_type;
  bucket_for(record_type)[record_type].push_back(url);
  if (wkey != 0) by_wire_[wkey] = url;
  if (record.usn != kNoSymbol) by_usn_[record.usn].push_back(url);
  records_.emplace(url, std::move(record));
  sdp_stats(origin).records_stored += 1;
  bump_type_epoch(record_type);
  evict_if_needed();
  return true;
}

std::size_t ServiceDirectory::withdraw(SdpId origin,
                                       const EventStream& stream) {
  AdvertView v = scan_advert(stream);
  SymbolTable& table = SymbolTable::global();

  Symbol url = kNoSymbol;
  if (!v.url.empty()) {
    url = table.find(v.url);
  } else if (!v.usn.empty()) {
    // Byebyes may carry only a USN (UPnP): resolve the record by it.
    auto carriers = by_usn_.find(table.find(v.usn));
    if (carriers != by_usn_.end()) url = carriers->second.front();
  }
  if (url == kNoSymbol || records_.find(url) == records_.end()) return 0;
  erase_record(url);
  sdp_stats(origin).withdrawals += 1;
  return 1;
}

bool ServiceDirectory::touch(SdpId, BytesView wire, transport::TimePoint now) {
  if (wire.empty()) return false;
  auto it = by_wire_.find(wire_key_of(wire));
  if (it == by_wire_.end()) return false;
  auto rec = records_.find(it->second);
  if (rec == records_.end()) return false;
  Record& record = rec->second;
  if (record.generation != generation_) return false;
  if (record.expires_at <= now) bump_type_epoch(record.canonical_type);
  record.expires_at = now + record.ttl;
  record.last_used = ++tick_;
  return true;
}

std::size_t ServiceDirectory::collect(std::string_view canonical_type,
                                      transport::TimePoint now,
                                      std::vector<const Record*>& out) {
  out.clear();
  Symbol type = SymbolTable::global().find(canonical_type);
  if (type == kNoSymbol) return 0;
  auto& bucket = bucket_for(type);
  auto it = bucket.find(type);
  if (it == bucket.end()) return 0;
  for (Symbol url : it->second) {
    auto rec = records_.find(url);
    if (rec == records_.end()) continue;
    Record& record = rec->second;
    if (record.generation != generation_ || record.expires_at <= now) continue;
    record.last_used = ++tick_;
    out.push_back(&record);
  }
  return out.size();
}

bool ServiceDirectory::has_fresh(std::string_view canonical_type,
                                 transport::TimePoint now) const {
  Symbol type = SymbolTable::global().find(canonical_type);
  transport::TimePoint earliest{};
  return type != kNoSymbol && fresh_records(type, now, &earliest) > 0;
}

void ServiceDirectory::bump_generation() { generation_ += 1; }

std::size_t ServiceDirectory::sweep(transport::TimePoint now) {
  std::size_t erased = 0;
  for (auto it = records_.begin(); it != records_.end();) {
    const Record& record = it->second;
    if (record.generation != generation_ || record.expires_at <= now) {
      unindex(record);
      it = records_.erase(it);
      erased += 1;
    } else {
      ++it;
    }
  }
  records_expired_ += erased;
  return erased;
}

void ServiceDirectory::unindex(const Record& record) {
  bump_type_epoch(record.canonical_type);
  auto& bucket = bucket_for(record.canonical_type);
  auto it = bucket.find(record.canonical_type);
  if (it != bucket.end()) {
    auto& urls = it->second;
    auto pos = std::find(urls.begin(), urls.end(), record.url);
    if (pos != urls.end()) {
      *pos = urls.back();
      urls.pop_back();
    }
    if (urls.empty()) bucket.erase(it);
  }
  if (record.wire_key != 0) {
    auto wit = by_wire_.find(record.wire_key);
    if (wit != by_wire_.end() && wit->second == record.url) by_wire_.erase(wit);
  }
  if (record.usn != kNoSymbol) {
    auto carriers = by_usn_.find(record.usn);
    auto& urls = carriers->second;
    urls.erase(std::find(urls.begin(), urls.end(), record.url));
    if (urls.empty()) by_usn_.erase(carriers);
  }
}

void ServiceDirectory::erase_record(Symbol url) {
  auto it = records_.find(url);
  if (it == records_.end()) return;
  unindex(it->second);
  records_.erase(it);
}

void ServiceDirectory::evict_if_needed() {
  while (records_.size() > config_.max_records) {
    auto victim = records_.end();
    for (auto it = records_.begin(); it != records_.end(); ++it) {
      if (victim == records_.end() ||
          it->second.last_used < victim->second.last_used) {
        victim = it;
      }
    }
    if (victim == records_.end()) return;
    unindex(victim->second);
    records_.erase(victim);
    evictions_ += 1;
  }
}

// ---------------------------------------------------------------------------
// Answer cache
// ---------------------------------------------------------------------------

void ServiceDirectory::open_answer(SdpId sdp, std::string_view canonical_type,
                                   BytesView wire,
                                   const net::Endpoint& requester,
                                   std::uint64_t session_id,
                                   transport::TimePoint now, IdSpan id) {
  if (config_.max_answers == 0) return;
  std::uint64_t hash = query_hash(wire, id);
  Symbol type = SymbolTable::global().intern(canonical_type);
  // The answer holds exactly the records collect() returns for `type` now.
  transport::TimePoint expires_at{};
  std::size_t records = fresh_records(type, now, &expires_at);
  auto stamp = [&](Answer& answer) {
    answer.wire.assign(wire.begin(), wire.end());
    answer.session_id = session_id;
    answer.type = type;
    answer.generation = generation_;
    answer.type_epoch = type_epoch(type);
    answer.records = records;
    answer.expires_at = expires_at;
    answer.last_used = ++tick_;
  };
  // Reuse the slot of a stale answer for the same key, else append.
  for (auto& answer : answers_) {
    if (answer.sdp == sdp && answer.hash == hash &&
        answer.requester == requester && same_query(answer.wire, wire, id)) {
      answer.frames.clear();
      stamp(answer);
      return;
    }
  }
  if (answers_.size() >= config_.max_answers) {
    auto victim = std::min_element(answers_.begin(), answers_.end(),
                                   [](const Answer& a, const Answer& b) {
                                     return a.last_used < b.last_used;
                                   });
    answers_.erase(victim);
  }
  Answer answer;
  answer.sdp = sdp;
  answer.hash = hash;
  answer.requester = requester;
  stamp(answer);
  answers_.push_back(std::move(answer));
}

void ServiceDirectory::add_answer_frame(SdpId sdp, std::uint64_t session_id,
                                        TranslationCache::Frame frame) {
  for (auto& answer : answers_) {
    if (answer.sdp == sdp && answer.session_id == session_id &&
        is_current(answer)) {
      answer.frames.push_back(std::move(frame));
      return;
    }
  }
}

const ServiceDirectory::Answer* ServiceDirectory::find_answer(
    SdpId sdp, BytesView wire, IdSpan id, const net::Endpoint& requester,
    transport::TimePoint now) {
  std::uint64_t hash = query_hash(wire, id);
  for (auto& answer : answers_) {
    if (answer.sdp != sdp || answer.hash != hash ||
        !(answer.requester == requester) || answer.frames.empty() ||
        !is_current(answer)) {
      continue;
    }
    if (now >= answer.expires_at) {
      // Deadline rule. With the type epoch unchanged, no record joined or
      // left the type and none came back from expiry, so the fresh records
      // are a subset of the answered ones: the answer still holds exactly
      // when none of them has expired, i.e. all were re-armed since.
      transport::TimePoint next{};
      if (fresh_records(answer.type, now, &next) != answer.records) continue;
      answer.expires_at = next;
    }
    if (!same_query(answer.wire, wire, id)) continue;
    answer.last_used = ++tick_;
    answer_replays_ += 1;
    return &answer;
  }
  return nullptr;
}

BytesView ServiceDirectory::reply_bytes(const Answer& answer,
                                        const TranslationCache::Frame& frame,
                                        BytesView wire, IdSpan id) {
  BytesView stored = *frame.payload;
  // The query's id sits where the stored query's did (same_query matched
  // the lengths), and the reply echoes it at the same offset.
  if (!id.fits(wire) || !id.fits(stored)) return stored;
  auto query_id = wire.subspan(id.offset, id.length);
  if (std::equal(query_id.begin(), query_id.end(),
                 answer.wire.begin() + id.offset)) {
    return stored;
  }
  replay_scratch_.assign(stored.begin(), stored.end());
  std::copy(query_id.begin(), query_id.end(),
            replay_scratch_.begin() + id.offset);
  return replay_scratch_;
}

std::size_t ServiceDirectory::fresh_records(
    Symbol type, transport::TimePoint now,
    transport::TimePoint* earliest_deadline) const {
  *earliest_deadline = transport::TimePoint::max();
  const auto& bucket = bucket_for(type);
  auto it = bucket.find(type);
  if (it == bucket.end()) return 0;
  std::size_t fresh = 0;
  for (Symbol url : it->second) {
    auto rec = records_.find(url);
    if (rec == records_.end()) continue;
    const Record& record = rec->second;
    if (record.generation != generation_ || record.expires_at <= now) continue;
    *earliest_deadline = std::min(*earliest_deadline, record.expires_at);
    fresh += 1;
  }
  return fresh;
}

const ServiceDirectory::Record* ServiceDirectory::find(
    std::string_view url) const {
  Symbol sym = SymbolTable::global().find(url);
  if (sym == kNoSymbol) return nullptr;
  auto it = records_.find(sym);
  return it == records_.end() ? nullptr : &it->second;
}

}  // namespace indiss::core
