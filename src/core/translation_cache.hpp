// The bridged-translation cache: stop re-translating byte-identical
// messages.
//
// Periodic re-announcements (SSDP `alive` every ~30 s, SLP re-adverts, mDNS
// refresh bursts) dominate steady-state gateway traffic and are
// byte-identical between periods, yet the pipeline would re-run the same
// parse -> events -> bus fan-out -> compose work for every repeat. This
// cache keys a completed advertisement translation by
//
//     (source SdpId, wire-bytes hash + length, target SdpId)
//
// and stores the composed outbound frame each target unit produced. On a
// hit the unit pipeline short-circuits: the source unit replays the stored
// frames straight onto the target units' sockets — no session, no parser,
// no bus traffic. One conceptual entry per (source, wire, target) triple is
// grouped into a per-wire "bundle" so a single lookup replays every
// target's frame.
//
// Only advertisement streams (alive / register / repo-announcement kinds)
// are cached: their composed output is destination-independent (multicast
// or a fixed registrar), unlike request/reply translations whose output
// embeds the requester's address and XID. Byebyes are never cached — their
// per-unit state changes (lease cancels, impersonation drops) must run on
// every arrival, so each one re-parses and bumps the generation instead.
// An empty settled bundle is a *negative* entry: the advertisement
// translated to silence everywhere (e.g. every target deduplicated it), so
// replay correctly does nothing.
//
// Consistency:
//  - Entries are validated by full byte comparison (the stored wire copy),
//    not just the 64-bit hash, so collisions cannot replay a wrong frame.
//  - A bundle only becomes replayable `settle` after creation, giving every
//    target unit's deferred compose (one unit hop: translate_delay on the
//    simulator, zero delay on a real clock) time to land; until then
//    repeats parse normally (counted as misses) without disturbing the
//    bundle.
//  - Generation-based invalidation: bump_generation() logically empties the
//    cache in O(1). The owner bumps whenever the translated output could
//    change for the same input bytes — unit attach/detach (the target set
//    changed), a processed byebye (per-unit advertisement state changed),
//    a newly learned Jini registrar, or a config/session-var change.
//  - An LRU bound (max_entries) caps memory. Keys sit on an LRU list
//    (hits and recycles move theirs to the back), so eviction pops the
//    front in O(1). The front is also the stale-first choice: a stale entry
//    was last used before the bump that made it stale, and every fresh
//    entry was used after it, so stale entries always sit ahead.
//
// Like the rest of the substrate, not thread-safe: one scheduler thread.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "core/types.hpp"
#include "net/address.hpp"
#include "transport/transport.hpp"

namespace indiss::core {

/// FNV-1a 64 over the wire bytes (the cache's key hash). Passing the hash
/// of a preceding piece as `basis` continues it over `bytes`.
inline constexpr std::uint64_t kWireHashBasis = 14695981039346656037ULL;
[[nodiscard]] std::uint64_t wire_hash(BytesView bytes,
                                      std::uint64_t basis = kWireHashBasis);

class TranslationCache {
 public:
  struct Config {
    /// LRU bound on cached wire bundles.
    std::size_t max_entries = 256;
    /// A bundle replays only this long after creation, so every target
    /// unit's deferred compose has landed. Keep well above one unit hop
    /// (translate_delay on the simulator) and well below the shortest
    /// re-announcement period.
    transport::Duration settle = transport::millis(200);
  };

  /// A composed outbound frame one target unit produced for the cached
  /// advertisement: replaying it is byte-identical to re-translating.
  struct Frame {
    std::shared_ptr<transport::UdpSocket> socket;
    net::Endpoint to;
    std::shared_ptr<const Bytes> payload;

    /// Re-sends the frame; inert when the target unit's socket has closed.
    void send() const {
      if (socket != nullptr && !socket->closed()) socket->send_to(to, *payload);
    }
  };

  struct Key {
    SdpId source = SdpId::kSlp;
    std::uint64_t hash = 0;
    std::uint32_t length = 0;
  };

  struct Bundle {
    std::vector<Frame> frames;
    Bytes wire;  // full key bytes: hits are byte-verified, not hash-trusted
    /// The service-store record the advertisement refreshes (a
    /// ServiceDirectory::Handle; 0 = none): a hit re-arms it.
    std::uint64_t record = 0;
    std::uint64_t generation = 0;
    transport::TimePoint created_at{0};
    /// This bundle's node on the LRU list (front = next victim).
    std::list<Key>::iterator lru;
  };

  struct SdpStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t frames_replayed = 0;

    /// Merge-on-read accumulation across per-shard caches (docs/sharding.md);
    /// valid only from the owning thread or with shard threads quiesced.
    SdpStats& operator+=(const SdpStats& other) {
      hits += other.hits;
      misses += other.misses;
      frames_replayed += other.frames_replayed;
      return *this;
    }
  };

  // Defined below the class: a `= {}` default argument here would need
  // Config's member initializers before the enclosing class is complete.
  TranslationCache();
  explicit TranslationCache(Config config);

  /// Hit path: returns the settled, byte-verified bundle for `bytes`
  /// arriving at the `source` unit, or nullptr (counting a miss). The
  /// returned pointer is valid until the next non-const cache call.
  [[nodiscard]] const Bundle* lookup(SdpId source, BytesView bytes,
                                     transport::TimePoint now);

  /// Replays every frame of a bundle returned by lookup() and counts them.
  void replay(SdpId source, const Bundle& bundle);

  /// Drops a bundle returned by lookup() whose record left the service
  /// store, with its open session: the hit lookup() counted becomes a miss,
  /// and the repeat is translated afresh.
  void discard(SdpId source, const Bundle& bundle);

  /// Miss path: registers a bundle for the wire bytes the session with
  /// (origin_sdp, origin_session) is translating, refreshing the store
  /// record `record`. No-op when a current-generation bundle already exists
  /// (a repeat arriving inside the settle window must not wipe the frames
  /// the first pass collected).
  void open_bundle(SdpId source, BytesView bytes, std::uint64_t origin_session,
                   transport::TimePoint now, std::uint64_t record = 0);

  /// Called by a *target* unit when it composes an outbound advertisement
  /// frame for a peer session: appends the frame to the bundle its origin
  /// session opened. No-op when no open bundle matches (request sessions,
  /// evicted bundles, stale generations).
  void add_frame(SdpId origin_sdp, std::uint64_t origin_session, Frame frame);

  /// O(1) logical invalidation of every entry. No open session can
  /// receive frames any more either, so the ring empties.
  void bump_generation() {
    generation_ += 1;
    open_count_ = 0;
  }
  [[nodiscard]] std::uint64_t generation() const { return generation_; }

  [[nodiscard]] const SdpStats& stats(SdpId source) const {
    return stats_[static_cast<std::size_t>(source)];
  }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }
  /// Whether a bundle of any generation is stored for `bytes` arriving at
  /// `source` (no hit/miss counted, no LRU touch).
  [[nodiscard]] bool contains(SdpId source, BytesView bytes) const;
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] const Config& config() const { return config_; }

 private:
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return static_cast<std::size_t>(
          k.hash ^ (static_cast<std::uint64_t>(k.source) << 56) ^ k.length);
    }
  };
  struct KeyEq {
    bool operator()(const Key& a, const Key& b) const {
      return a.source == b.source && a.hash == b.hash && a.length == b.length;
    }
  };

  /// An origin session whose bundle is still collecting frames.
  struct OpenSession {
    SdpId origin_sdp;
    std::uint64_t origin_session;
    Key key;
    transport::TimePoint opened_at;  // == the bundle's created_at
  };
  /// The ring of open sessions, oldest first. Pushes come in time order, so
  /// the settled ones are always a prefix. Every open session names a
  /// distinct stored bundle, and a bundle that leaves the cache takes its
  /// session with it (drop_open), so the ring, sized max_entries, never
  /// overflows.
  [[nodiscard]] OpenSession& open_at(std::size_t i) {
    return open_ring_[(open_head_ + i) % open_ring_.size()];
  }
  void pop_open() {
    open_head_ = (open_head_ + 1) % open_ring_.size();
    open_count_ -= 1;
  }
  /// Drops the open session of the bundle `key` names, if it has one (the
  /// ring keeps its order).
  void drop_open(const Key& key);

  using Entries = std::unordered_map<Key, Bundle, KeyHash, KeyEq>;

  void evict_if_needed();
  /// Moves an entry to the most-recently-used end of the LRU list.
  void touch(Bundle& bundle) { lru_.splice(lru_.end(), lru_, bundle.lru); }
  void erase(Entries::iterator it);

  Config config_;
  Entries entries_;
  std::list<Key> lru_;
  std::vector<OpenSession> open_ring_;
  std::size_t open_head_ = 0;
  std::size_t open_count_ = 0;
  std::uint64_t generation_ = 0;
  std::uint64_t evictions_ = 0;
  SdpStats stats_[4];
};

inline TranslationCache::TranslationCache() : TranslationCache(Config{}) {}
inline TranslationCache::TranslationCache(Config config)
    : config_(config), open_ring_(config.max_entries) {}

}  // namespace indiss::core
