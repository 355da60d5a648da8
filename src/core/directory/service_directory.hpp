// The in-memory service index behind directory mode (docs/directory.md).
//
// Every bridged advertisement already flows through the units; directory
// mode additionally records each one here so the gateway can *answer*
// browse/lookup queries itself — acting as an SLP DA, a Jini-style lookup
// front, and an mDNS/SSDP cache — instead of translating every query out to
// the origin network. The paper's gateway position (and the directory-agent
// designs in the SDP survey) make the gateway the natural home for this
// index: it sees every announcement on every bridged protocol anyway.
//
// Keying and bounds:
//  - Records key on the interned service URL `Symbol` — one record per
//    concrete service instance, whatever SDP announced it. Canonical type,
//    USN and attribute keys are interned too; only attribute values (free
//    text) stay strings.
//  - The type index is sharded by service-type hash into a fixed number of
//    buckets, so a lookup touches one small map however many types exist.
//  - The table is bounded: at `max_records` the least-recently-used record
//    is evicted (linear scan, same policy as the TranslationCache).
//  - Every record carries a TTL-derived deadline (the advertisement's
//    SDP_RES_TTL, else `kDefaultAdvertTtl`); the gateway's timer sweep erases
//    expired records, and collect() double-checks the deadline so a record
//    is never served stale between sweeps.
//
// Consistency with the TranslationCache:
//  - bump_generation() logically empties the index in O(1), and is called
//    from exactly the cache's bump sites (unit attach/detach, a new Jini
//    registrar) — when the bridged world changes shape, the gateway stops
//    answering from the old one until services re-announce.
//  - A processed byebye tombstones its record immediately (withdraw()), so
//    a withdrawn service is never answered from the index afterwards.
//  - When the TranslationCache short-circuits a byte-identical repeat the
//    units never parse it, so the source unit calls touch() with the raw
//    wire bytes: the record's deadline re-arms through a wire-hash side
//    index without a parse or an allocation.
//
// The answer cache (reply-side request caching) lives here too: a composed
// directory answer is keyed by (SDP, query bytes with the transaction id
// masked, requester endpoint) and replayed frame-for-frame when the same
// question repeats — the request-side analogue of the TranslationCache's
// advertisement bundles. Each SDP's codec names where its wire carries the
// id (IdSpan: the SLP XID, the DNS header ID, none for SSDP), and replies
// echo it there, so a replay writes the new query's id into the frames.
// Each answer remembers the canonical type it answered and that type's
// epoch; an index write bumps only the epoch of the type it touched, and
// bump_generation() invalidates every answer. An answer also stops
// replaying at the earliest deadline among its records.
//
// Like the rest of the substrate, not thread-safe: one scheduler thread.
// In the sharded pipeline each shard owns a private directory, consistent
// with the wire-hash routing rule (docs/sharding.md): an advertisement
// hashes to one shard, so that shard's index holds the record and answers
// the (broadcast) queries for it.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/interning.hpp"
#include "core/event.hpp"
#include "core/translation_cache.hpp"
#include "core/types.hpp"
#include "net/address.hpp"
#include "transport/transport.hpp"

namespace indiss::core {

class ServiceDirectory {
 public:
  struct Config {
    /// LRU bound on stored service records.
    std::size_t max_records = 1 << 20;
    /// Type-index shard count (service-type hash % buckets).
    std::size_t type_buckets = 64;
    /// LRU bound on cached composed answers.
    std::size_t max_answers = 256;
  };

  /// One service instance learned from a bridged advertisement.
  struct Record {
    Symbol url = kNoSymbol;  // primary key (interned service URL)
    Symbol canonical_type = kNoSymbol;
    Symbol usn = kNoSymbol;  // kNoSymbol when the advertisement had none
    SdpId origin = SdpId::kSlp;
    /// Attributes in advertisement order; keys interned, values free text.
    /// Only the first `attr_count` entries are live (slot reuse).
    std::vector<std::pair<Symbol, std::string>> attributes;
    std::size_t attr_count = 0;
    transport::Duration ttl{0};
    transport::TimePoint expires_at{0};
    std::uint64_t wire_key = 0;  // hash+length of the advertisement bytes
    std::uint64_t generation = 0;
    std::uint64_t last_used = 0;
  };

  struct SdpStats {
    /// Native queries this SDP's unit answered from the index.
    std::uint64_t answered = 0;
    /// Native queries that fell through to the bridged path.
    std::uint64_t bridged = 0;
    /// Records stored (new inserts, not refreshes) from this SDP's adverts.
    std::uint64_t records_stored = 0;
    /// Records tombstoned by byebyes from this SDP.
    std::uint64_t withdrawals = 0;

    /// Merge-on-read accumulation across per-shard directories; valid only
    /// from the owning thread or with shard threads quiesced.
    SdpStats& operator+=(const SdpStats& other) {
      answered += other.answered;
      bridged += other.bridged;
      records_stored += other.records_stored;
      withdrawals += other.withdrawals;
      return *this;
    }
  };

  ServiceDirectory();
  explicit ServiceDirectory(Config config);

  // --- Population (called by the units on the advertisement path) ----------

  /// Records (or TTL-refreshes) the service a parsed advertisement stream
  /// describes. Extraction mirrors the units' own bookkeeping: URL from the
  /// first SDP_RES_SERV_URL (falling back to the UPnP description URL), USN,
  /// canonical type, attributes in stream order, TTL from SDP_RES_TTL.
  /// Returns false when the stream names no usable URL or no meaningful
  /// type. Refreshing an existing record is allocation-free.
  bool record_advertisement(SdpId origin, const EventStream& stream,
                            BytesView wire, transport::TimePoint now);

  /// Tombstones the record a byebye stream withdraws: the one its URL
  /// names or, when it names none, the oldest record carrying its USN (the
  /// units' rule). Returns how many records were erased.
  std::size_t withdraw(SdpId origin, const EventStream& stream);

  /// TranslationCache short-circuit hook: re-arms the deadline of the record
  /// originally learned from these exact wire bytes. Allocation-free.
  bool touch(SdpId origin, BytesView wire, transport::TimePoint now);

  // --- Lookup (the units' answer path) -------------------------------------

  /// Fills `out` with the fresh, current-generation records of
  /// `canonical_type` (LRU-touching each) and returns the count. `out` is
  /// cleared first and its capacity reused — allocation-free once warm.
  std::size_t collect(std::string_view canonical_type, transport::TimePoint now,
                      std::vector<const Record*>& out);

  /// True when collect() would return at least one record.
  [[nodiscard]] bool has_fresh(std::string_view canonical_type,
                               transport::TimePoint now) const;

  // --- Invalidation ---------------------------------------------------------

  /// O(1) logical invalidation of every record and cached answer. Called at
  /// the TranslationCache's own bump sites.
  void bump_generation();

  /// Timer-sweep entry point: erases expired and stale-generation records.
  /// Returns how many were erased.
  std::size_t sweep(transport::TimePoint now);

  // --- Answer cache (reply-side request caching) ----------------------------

  /// Registers a pending answer for the query `wire` from `requester` that
  /// the session (sdp, session_id) is composing from the fresh records of
  /// `canonical_type`; frames land via add_answer_frame. `id` is where the
  /// query's SDP carries its transaction id: the answer is keyed on the
  /// rest of the query. A slot already holding that key takes the newest
  /// query's bytes, so its stored id is the one its frames are composed for.
  void open_answer(SdpId sdp, std::string_view canonical_type, BytesView wire,
                   const net::Endpoint& requester, std::uint64_t session_id,
                   transport::TimePoint now, IdSpan id = {});

  /// Appends a composed reply frame to the pending answer for (sdp,
  /// session_id). No-op when none is pending.
  void add_answer_frame(SdpId sdp, std::uint64_t session_id,
                        TranslationCache::Frame frame);

  /// Hit path: when a query equal to `wire` outside its transaction id `id`
  /// came from the identical requester and was answered, no write has
  /// touched the answered type since, and none of the answer's records has
  /// reached its deadline, hands every stored frame to `send(frame, bytes)`
  /// and returns true. `bytes` is the frame's payload carrying `wire`'s id,
  /// patched in a reused buffer when the ids differ; it is valid only
  /// during the call.
  template <typename Send>
  bool replay_answer(SdpId sdp, BytesView wire, IdSpan id,
                     const net::Endpoint& requester, transport::TimePoint now,
                     Send&& send) {
    const Answer* answer = find_answer(sdp, wire, id, requester, now);
    if (answer == nullptr) return false;
    for (const auto& frame : answer->frames) {
      send(frame, reply_bytes(*answer, frame, wire, id));
    }
    return true;
  }

  /// The same, sending every frame at once.
  bool replay_answer(SdpId sdp, BytesView wire, const net::Endpoint& requester,
                     transport::TimePoint now, IdSpan id = {}) {
    return replay_answer(sdp, wire, id, requester, now,
                         [](const TranslationCache::Frame& frame,
                            BytesView bytes) { frame.send(bytes); });
  }

  // --- Statistics ------------------------------------------------------------

  void count_answered(SdpId sdp) { sdp_stats(sdp).answered += 1; }
  void count_bridged(SdpId sdp) { sdp_stats(sdp).bridged += 1; }

  [[nodiscard]] const SdpStats& stats(SdpId sdp) const {
    return stats_[static_cast<std::size_t>(sdp)];
  }
  [[nodiscard]] std::size_t size() const { return records_.size(); }
  [[nodiscard]] std::size_t answer_cache_size() const {
    return answers_.size();
  }
  [[nodiscard]] std::uint64_t generation() const { return generation_; }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }
  [[nodiscard]] std::uint64_t records_expired() const {
    return records_expired_;
  }
  [[nodiscard]] std::uint64_t answer_replays() const { return answer_replays_; }
  [[nodiscard]] const Config& config() const { return config_; }

  /// Direct record access (tests): nullptr when `url` is not indexed.
  [[nodiscard]] const Record* find(std::string_view url) const;

 private:
  using TypeBucket = std::unordered_map<Symbol, std::vector<Symbol>>;

  struct Answer {
    SdpId sdp = SdpId::kSlp;
    std::uint64_t hash = 0;  // of the wire without its transaction id
    net::Endpoint requester;
    /// The newest query that opened the slot: byte-verified outside its id
    /// on hit, like the TranslationCache; its id is the frames' id.
    Bytes wire;
    std::vector<TranslationCache::Frame> frames;
    std::uint64_t session_id = 0;  // origin session, while frames collect
    Symbol type = kNoSymbol;       // the canonical type it answered
    std::uint64_t generation = 0;  // generation_ when opened
    std::uint64_t type_epoch = 0;  // type_epoch(type) when opened
    std::size_t records = 0;       // how many records it answered
    /// The earliest deadline among the answered records.
    transport::TimePoint expires_at = transport::TimePoint::max();
    std::uint64_t last_used = 0;
  };

  SdpStats& sdp_stats(SdpId sdp) {
    return stats_[static_cast<std::size_t>(sdp)];
  }
  TypeBucket& bucket_for(Symbol type) {
    return buckets_[static_cast<std::size_t>(type) % buckets_.size()];
  }
  [[nodiscard]] const TypeBucket& bucket_for(Symbol type) const {
    return buckets_[static_cast<std::size_t>(type) % buckets_.size()];
  }

  /// The current, fresh answer keyed like (sdp, wire without `id`,
  /// requester), or nullptr; counts the replay and touches its LRU slot.
  const Answer* find_answer(SdpId sdp, BytesView wire, IdSpan id,
                            const net::Endpoint& requester,
                            transport::TimePoint now);
  /// `frame`'s payload as the reply to `wire`: the stored bytes when `wire`
  /// carries the id `answer` was composed for, else a copy in
  /// replay_scratch_ with `wire`'s id written in.
  BytesView reply_bytes(const Answer& answer,
                        const TranslationCache::Frame& frame, BytesView wire,
                        IdSpan id);
  /// Drops `record` from the type, wire and USN indexes, and so changes
  /// what its type answers.
  void unindex(const Record& record);
  /// Counts the fresh, current-generation records of `type` (what collect()
  /// returns) and reports the earliest deadline among them.
  std::size_t fresh_records(Symbol type, transport::TimePoint now,
                            transport::TimePoint* earliest_deadline) const;
  void erase_record(Symbol url);
  void evict_if_needed();
  /// An index write to `type` invalidates the cached answers for it.
  void bump_type_epoch(Symbol type) { type_epochs_[type] += 1; }
  [[nodiscard]] std::uint64_t type_epoch(Symbol type) const {
    auto it = type_epochs_.find(type);
    return it == type_epochs_.end() ? 0 : it->second;
  }
  [[nodiscard]] bool is_current(const Answer& answer) const {
    return answer.generation == generation_ &&
           answer.type_epoch == type_epoch(answer.type);
  }

  Config config_;
  std::unordered_map<Symbol, Record> records_;  // by URL symbol
  std::vector<TypeBucket> buckets_;             // type -> URLs, hash-sharded
  std::unordered_map<std::uint64_t, Symbol> by_wire_;  // advert wire -> URL
  /// Per USN, the URLs of the records carrying it, oldest first.
  std::unordered_map<Symbol, std::vector<Symbol>> by_usn_;
  std::vector<Answer> answers_;
  /// The patched payload of a replayed frame (capacity reused).
  Bytes replay_scratch_;
  /// Per-type answer epochs; never erased, so an epoch never repeats.
  std::unordered_map<Symbol, std::uint64_t> type_epochs_;
  std::uint64_t generation_ = 0;
  std::uint64_t tick_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t records_expired_ = 0;
  std::uint64_t answer_replays_ = 0;
  std::array<SdpStats, 4> stats_{};
};

}  // namespace indiss::core
