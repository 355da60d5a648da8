#include "core/directory/service_directory.hpp"

#include <algorithm>

#include "core/translation_cache.hpp"
#include "core/unit.hpp"
#include "core/units/standard_fsm.hpp"

namespace indiss::core {

ServiceDirectory::ServiceDirectory() : ServiceDirectory(Config{}) {}

ServiceDirectory::ServiceDirectory(Config config) : config_(config) {
  if (config_.max_records == 0) config_.max_records = 1;
}

namespace {

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

std::size_t usn_key(std::string_view usn) {
  return std::hash<std::string_view>{}(usn);
}

/// The one TTL rule: the first non-zero SDP_RES_TTL, else the default.
transport::Duration ttl_of(const AdvertView& advert) {
  return advert.ttl_seconds > 0 ? transport::seconds(advert.ttl_seconds)
                                : kDefaultAdvertTtl;
}

/// Packs a slot and its serial into a Handle (0 stays "none").
ServiceDirectory::Handle make_handle(std::uint32_t slot, std::uint32_t serial) {
  return (static_cast<std::uint64_t>(serial) << 32) | (slot + 1u);
}

}  // namespace

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

const ServiceDirectory::Record* ServiceDirectory::find(
    std::string_view url) const {
  auto it = by_url_.find(url);
  return it == by_url_.end() ? nullptr : &slots_[it->second];
}

ServiceDirectory::Record* ServiceDirectory::update(std::string_view type,
                                                   const AdvertView& advert,
                                                   const EventStream& stream,
                                                   transport::TimePoint now,
                                                   bool may_create) {
  if (advert.url.empty()) return nullptr;
  Record* record = find_record(advert.url);
  if (record != nullptr && record->expires_at <= now) {
    retire(*record);  // dead before the sweep got to it
    records_expired_ += 1;
    record = nullptr;
  }
  transport::Duration ttl = ttl_of(advert);
  if (record != nullptr) {
    // A refresh re-arms the deadline and never rewrites the identity
    // fields, so it allocates nothing. A new TTL changes the answer bytes;
    // a re-stamped generation changes the answer's record set.
    if (ttl != record->ttl || record->generation != generation_) {
      bump_type_epoch(record->canonical_type);
    }
    lru_.splice(lru_.end(), lru_, record->lru);
  } else if (!may_create) {
    return nullptr;
  } else {
    std::uint32_t slot = static_cast<std::uint32_t>(slots_.size());
    if (free_slots_.empty()) {
      slots_.emplace_back().slot = slot;
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
    }
    record = &slots_[slot];
    record->live = true;
    record->url.assign(advert.url);
    record->canonical_type = SymbolTable::global().intern(type);
    record->usn.assign(advert.usn);
    record->attr_count = 0;
    for (const auto& event : stream) {
      if (event.type != EventType::kServiceAttr) continue;
      if (record->attr_count == record->attributes.size()) {
        record->attributes.emplace_back();
      }
      auto& [key, value] = record->attributes[record->attr_count++];
      key.assign(event.get("key"));
      value.assign(event.get("value"));
    }
    record->listed = false;
    record->holders = 0;
    record->handles = {};
    by_url_.emplace(record->url, slot);
    auto& of_type = by_type_[record->canonical_type];
    record->type_pos = static_cast<std::uint32_t>(of_type.size());
    of_type.push_back(slot);
    if (!record->usn.empty()) by_usn_[usn_key(record->usn)].push_back(slot);
    record->lru = lru_.insert(lru_.end(), slot);
    size_ += 1;
    bump_type_epoch(record->canonical_type);
  }
  record->ttl = ttl;
  record->expires_at = now + ttl;
  record->generation = generation_;
  while (size_ > config_.max_records) {  // never the record just touched
    retire(slots_[lru_.front()]);
    evictions_ += 1;
  }
  return record;
}

void ServiceDirectory::erase(Record& record) {
  bump_type_epoch(record.canonical_type);
  by_url_.erase(record.url);
  auto& of_type = by_type_[record.canonical_type];
  std::uint32_t moved = of_type.back();
  of_type[record.type_pos] = moved;
  slots_[moved].type_pos = record.type_pos;
  of_type.pop_back();
  if (!record.usn.empty()) {
    auto carriers = by_usn_.find(usn_key(record.usn));
    auto& slots = carriers->second;
    slots.erase(std::find(slots.begin(), slots.end(), record.slot));
    if (slots.empty()) by_usn_.erase(carriers);
  }
  lru_.erase(record.lru);
  record.live = false;
  record.serial += 1;
  free_slots_.push_back(record.slot);
  size_ -= 1;
}

void ServiceDirectory::retire(Record& record) {
  for (std::size_t i = 0; i < units_.size(); ++i) {
    auto sdp = static_cast<SdpId>(i);
    if (!record.held_by(sdp) || units_[i] == nullptr) continue;
    units_[i]->forget_bridged(record, record.handles[i],
                              Unit::Forget::kExpired);
    units_[i]->stats_.bridged_state_expired += 1;
  }
  erase(record);
}

template <typename Pred>
ServiceDirectory::Record* ServiceDirectory::named_by(const AdvertView& advert,
                                                     Pred pred) {
  if (!advert.url.empty()) {
    Record* record = find_record(advert.url);
    return record != nullptr && pred(*record) ? record : nullptr;
  }
  // Byebyes may carry only a USN (UPnP): the oldest record carrying it.
  auto carriers = by_usn_.find(usn_key(advert.usn));
  if (advert.usn.empty() || carriers == by_usn_.end()) return nullptr;
  for (std::uint32_t slot : carriers->second) {
    Record& record = slots_[slot];
    if (record.usn == advert.usn && pred(record)) return &record;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// The source unit
// ---------------------------------------------------------------------------

ServiceDirectory::Handle ServiceDirectory::record_advertisement(
    SdpId origin, const EventStream& stream, transport::TimePoint now) {
  AdvertView advert = scan_advert(stream);
  Record* record = update(advert.type, advert, stream, now,
                          meaningful_advert_type(advert.type));
  if (record == nullptr) return 0;
  if (!record->listed && meaningful_advert_type(advert.type)) {
    record->listed = true;
    record->origin = origin;
    bump_type_epoch(record->canonical_type);
    sdp_stats(origin).records_stored += 1;
  }
  return make_handle(record->slot, record->serial);
}

std::size_t ServiceDirectory::withdraw(SdpId origin,
                                       const EventStream& stream) {
  Record* record =
      named_by(scan_advert(stream), [](const Record& r) { return r.listed; });
  if (record == nullptr) return 0;
  record->listed = false;
  bump_type_epoch(record->canonical_type);
  sdp_stats(origin).withdrawals += 1;
  if (record->holders == 0) erase(*record);
  return 1;
}

bool ServiceDirectory::refresh(Handle handle, transport::TimePoint now) {
  if (handle == 0) return true;
  auto slot = static_cast<std::uint32_t>(handle) - 1u;
  if (slot >= slots_.size()) return false;
  Record& record = slots_[slot];
  if (!record.live ||
      record.serial != static_cast<std::uint32_t>(handle >> 32) ||
      record.expires_at <= now) {
    return false;
  }
  record.expires_at = now + record.ttl;
  lru_.splice(lru_.end(), lru_, record.lru);
  return true;
}

// ---------------------------------------------------------------------------
// The target units
// ---------------------------------------------------------------------------

std::pair<ServiceDirectory::Record*, bool> ServiceDirectory::hold(
    SdpId holder, std::string_view type, const AdvertView& advert,
    const EventStream& stream, transport::TimePoint now, bool from_store) {
  Record* record = from_store ? find_record(advert.url)
                              : update(type, advert, stream, now, true);
  if (record == nullptr || record->expires_at <= now) return {nullptr, false};
  bool fresh = !record->held_by(holder);
  record->holders |= Record::bit(holder);
  return {record, fresh};
}

void ServiceDirectory::drop(SdpId holder, const AdvertView& advert) {
  Record* record = named_by(
      advert, [holder](const Record& r) { return r.held_by(holder); });
  Unit* unit = units_[static_cast<std::size_t>(holder)];
  if (record == nullptr || unit == nullptr) return;
  unit->forget_bridged(*record,
                       record->handles[static_cast<std::size_t>(holder)],
                       Unit::Forget::kWithdrawn);
  release(holder, *record);
}

void ServiceDirectory::release(SdpId holder, Record& record) {
  if (!record.held_by(holder)) return;
  record.holders &= static_cast<std::uint8_t>(~Record::bit(holder));
  record.handles[static_cast<std::size_t>(holder)] = 0;
  if (record.holders == 0 && !record.listed) erase(record);
}

std::uint64_t* ServiceDirectory::handle_slot(SdpId holder,
                                             std::string_view url) {
  Record* record = find_record(url);
  if (record == nullptr || !record->held_by(holder)) return nullptr;
  return &record->handles[static_cast<std::size_t>(holder)];
}

void ServiceDirectory::attach(Unit& unit) {
  units_[static_cast<std::size_t>(unit.sdp())] = &unit;
}

void ServiceDirectory::detach(Unit& unit) {
  SdpId sdp = unit.sdp();
  if (units_[static_cast<std::size_t>(sdp)] != &unit) return;
  units_[static_cast<std::size_t>(sdp)] = nullptr;
  for (Record& record : slots_) {
    if (record.live) release(sdp, record);
  }
}

std::vector<const ServiceDirectory::Record*> ServiceDirectory::held_by(
    SdpId sdp) const {
  std::vector<const Record*> out;
  for (const Record& record : slots_) {
    if (record.live && record.held_by(sdp)) out.push_back(&record);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Lookup, invalidation, expiry
// ---------------------------------------------------------------------------

std::size_t ServiceDirectory::collect(std::string_view canonical_type,
                                      transport::TimePoint now,
                                      std::vector<const Record*>& out) {
  out.clear();
  Symbol type = SymbolTable::global().find(canonical_type);
  auto it = by_type_.find(type);
  if (type == kNoSymbol || it == by_type_.end()) return 0;
  for (std::uint32_t slot : it->second) {
    Record& record = slots_[slot];
    if (!answerable(record, now)) continue;
    lru_.splice(lru_.end(), lru_, record.lru);
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
  std::size_t expired = 0;
  for (Record& record : slots_) {
    if (record.live && record.expires_at <= now) {
      retire(record);
      expired += 1;
    }
  }
  records_expired_ += expired;
  return expired;
}

// ---------------------------------------------------------------------------
// Answer cache
// ---------------------------------------------------------------------------

void ServiceDirectory::open_answer(SdpId sdp, std::string_view canonical_type,
                                   BytesView wire, std::uint64_t session_id,
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
        same_query(answer.wire, wire, id)) {
      answer.payloads.clear();
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
  stamp(answer);
  answers_.push_back(std::move(answer));
}

void ServiceDirectory::add_answer_payload(SdpId sdp, std::uint64_t session_id,
                                          BytesView payload) {
  for (auto& answer : answers_) {
    if (answer.sdp == sdp && answer.session_id == session_id &&
        is_current(answer)) {
      answer.payloads.emplace_back(payload.begin(), payload.end());
      return;
    }
  }
}

const ServiceDirectory::Answer* ServiceDirectory::find_answer(
    SdpId sdp, BytesView wire, IdSpan id, transport::TimePoint now) {
  std::uint64_t hash = query_hash(wire, id);
  for (auto& answer : answers_) {
    if (answer.sdp != sdp || answer.hash != hash || answer.payloads.empty() ||
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
                                        BytesView stored, BytesView wire,
                                        IdSpan id) {
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
  auto it = by_type_.find(type);
  if (it == by_type_.end()) return 0;
  std::size_t fresh = 0;
  for (std::uint32_t slot : it->second) {
    const Record& record = slots_[slot];
    if (!answerable(record, now)) continue;
    *earliest_deadline = std::min(*earliest_deadline, record.expires_at);
    fresh += 1;
  }
  return fresh;
}

}  // namespace indiss::core
