#include "core/translation_cache.hpp"

#include <algorithm>

namespace indiss::core {

std::uint64_t wire_hash(BytesView bytes, std::uint64_t basis) {
  std::uint64_t hash = basis;
  for (std::uint8_t b : bytes) {
    hash ^= b;
    hash *= 1099511628211ULL;
  }
  return hash;
}

const TranslationCache::Bundle* TranslationCache::lookup(SdpId source,
                                                         BytesView bytes,
                                                         transport::TimePoint now) {
  auto& stats = stats_[static_cast<std::size_t>(source)];
  Key key{source, wire_hash(bytes),
          static_cast<std::uint32_t>(bytes.size())};
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.generation != generation_ ||
      now - it->second.created_at < config_.settle ||
      !std::equal(bytes.begin(), bytes.end(), it->second.wire.begin(),
                  it->second.wire.end())) {
    stats.misses += 1;
    return nullptr;
  }
  touch(it->second);
  stats.hits += 1;
  return &it->second;
}

bool TranslationCache::contains(SdpId source, BytesView bytes) const {
  auto it = entries_.find(
      Key{source, wire_hash(bytes), static_cast<std::uint32_t>(bytes.size())});
  return it != entries_.end() &&
         std::equal(bytes.begin(), bytes.end(), it->second.wire.begin(),
                    it->second.wire.end());
}

void TranslationCache::replay(SdpId source, const Bundle& bundle) {
  auto& stats = stats_[static_cast<std::size_t>(source)];
  for (const Frame& frame : bundle.frames) {
    frame.send();
    stats.frames_replayed += 1;
  }
}

void TranslationCache::discard(SdpId source, const Bundle& bundle) {
  auto& stats = stats_[static_cast<std::size_t>(source)];
  stats.hits -= 1;
  stats.misses += 1;
  auto it = entries_.find(*bundle.lru);
  drop_open(it->first);
  erase(it);
}

void TranslationCache::open_bundle(SdpId source, BytesView bytes,
                                   std::uint64_t origin_session,
                                   transport::TimePoint now,
                                   std::uint64_t record) {
  if (config_.max_entries == 0) return;  // bound of 0 = store nothing
  Key key{source, wire_hash(bytes),
          static_cast<std::uint32_t>(bytes.size())};
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    if (it->second.generation == generation_) return;  // keep first pass
    // Stale generation: recycle the slot for the fresh translation.
    it->second.frames.clear();
    it->second.generation = generation_;
    it->second.created_at = now;
    it->second.wire.assign(bytes.begin(), bytes.end());
    it->second.record = record;
    touch(it->second);
  } else {
    evict_if_needed();
    Bundle bundle;
    bundle.generation = generation_;
    bundle.created_at = now;
    bundle.wire.assign(bytes.begin(), bytes.end());
    bundle.record = record;
    bundle.lru = lru_.insert(lru_.end(), key);
    entries_.emplace(key, std::move(bundle));
  }
  // Retire origin sessions that can no longer receive frames: their bundle
  // has settled (composes land one unit hop later, long before settle).
  // Pushes come in time order, so they are the ring's front; a generation
  // bump empties the ring, and an eviction or a discard drops its own
  // session.
  while (open_count_ > 0 && now - open_at(0).opened_at > config_.settle) {
    pop_open();
  }
  // Remember which origin session feeds this bundle; target units report
  // their composed frames under that session id.
  open_at(open_count_) = OpenSession{source, origin_session, key, now};
  open_count_ += 1;
}

void TranslationCache::add_frame(SdpId origin_sdp,
                                 std::uint64_t origin_session, Frame frame) {
  for (std::size_t i = open_count_; i > 0; --i) {
    const OpenSession& open = open_at(i - 1);
    if (open.origin_sdp != origin_sdp ||
        open.origin_session != origin_session) {
      continue;
    }
    auto it = entries_.find(open.key);
    if (it == entries_.end() || it->second.generation != generation_) return;
    it->second.frames.push_back(std::move(frame));
    return;
  }
}

void TranslationCache::evict_if_needed() {
  if (entries_.empty() || entries_.size() < config_.max_entries) return;
  // The LRU front: stale-generation entries first (they were all last used
  // before the bump that staled them), otherwise the least recently used.
  auto victim = entries_.find(lru_.front());
  // Late frames of the evicted bundle must not land in a recycled slot.
  drop_open(victim->first);
  erase(victim);
  evictions_ += 1;
}

void TranslationCache::drop_open(const Key& key) {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < open_count_; ++i) {
    if (!KeyEq{}(open_at(i).key, key)) open_at(kept++) = open_at(i);
  }
  open_count_ = kept;
}

void TranslationCache::erase(Entries::iterator it) {
  lru_.erase(it->second.lru);
  entries_.erase(it);
}

}  // namespace indiss::core
