// The gateway's one soft-state service store (docs/directory.md).
//
// Every service the gateway bridges has one record here, keyed by its URL,
// whichever SDP announced it and however many re-expose it. Each Indiss (so
// each shard) owns one store, shared by its units:
//  - the source unit *lists* each advertisement it parses and *withdraws*
//    each byebye at once, so a withdrawn service is never answered again;
//  - each target unit that re-exposes the service *holds* the record: one
//    bit per unit, plus one handle slot per SDP for what the unit put in
//    its SDP. Units react only through on_bridged and forget_bridged;
//  - directory mode (Config::answer_queries) only decides whether units
//    *answer* native queries from the listed records.
//
// One rule each:
//  - Refresh: an advertisement re-arms the record holding its URL, whatever
//    type it names; only a meaningful type creates one. The TTL is the first
//    non-zero SDP_RES_TTL, else kDefaultAdvertTtl. A record past its
//    deadline is dead before the sweep reaches it: touching it expires it,
//    and the refresh creates it anew. A directory answer re-arms nothing.
//  - Withdrawal: a byebye reaches the holders over the bus like any
//    advertisement; a record no unit holds and no advertisement lists
//    leaves the store.
//  - Expiry: the gateway's timer sweep and the LRU cap (`max_records`) call
//    forget_bridged(kExpired) on every holder, then erase.
//
// Records own their URL, USN and attribute strings; only canonical types
// are interned, so churn does not grow the process-wide SymbolTable. Slots
// are reused with their capacity. A Handle names one record until it leaves
// the store: a TranslationCache bundle carries the handle of the record it
// refreshes, so a byte-identical repeat re-arms it without a parse.
// bump_generation() hides every record from answers until it is listed
// again; what the units hold survives it.
//
// The answer cache lives here too: the reply payloads of a composed
// directory answer are keyed by (SDP, query bytes with the transaction id
// masked) and replayed to whoever asks the same question, with the new
// query's id written in (IdSpan: the SLP XID, the DNS header ID, none for
// SSDP); no reply byte depends on the requester. A write to a type bumps
// that type's epoch and invalidates its answers; bump_generation()
// invalidates all. An answer also stops replaying at the earliest deadline
// among its records.
//
// Not thread-safe: one scheduler thread. In the sharded pipeline each shard
// owns a private store (docs/sharding.md): an advertisement hashes to one
// shard, whose store holds the record and answers the broadcast queries.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/interning.hpp"
#include "core/event.hpp"
#include "core/types.hpp"
#include "transport/transport.hpp"

namespace indiss::core {

class Unit;

class ServiceDirectory {
 public:
  struct Config {
    /// LRU bound on stored service records.
    std::size_t max_records = 1 << 20;
    /// LRU bound on cached composed answers.
    std::size_t max_answers = 256;
    /// Directory mode: units answer native queries from listed records.
    bool answer_queries = false;
  };

  /// Names one record until it leaves the store; 0 names none.
  using Handle = std::uint64_t;

  /// One service instance.
  struct Record {
    std::string url;  // primary key
    Symbol canonical_type = kNoSymbol;
    std::string usn;  // empty when the advertisement had none
    SdpId origin = SdpId::kSlp;  // the SDP that listed it last
    /// Attributes in advertisement order. Only the first `attr_count`
    /// entries are live (slot reuse).
    std::vector<std::pair<std::string, std::string>> attributes;
    std::size_t attr_count = 0;
    transport::Duration ttl{0};
    transport::TimePoint expires_at{0};
    std::uint64_t generation = 0;
    /// An advertisement listed it and no byebye withdrew it since: only
    /// listed records answer queries.
    bool listed = false;
    /// Per SDP: what that SDP's unit put in its SDP for the record (0 until
    /// then, and for units that do not hold it).
    std::array<std::uint64_t, 4> handles{};

    [[nodiscard]] std::string_view type() const {
      return SymbolTable::global().name(canonical_type);
    }
    [[nodiscard]] bool held_by(SdpId sdp) const {
      return (holders & bit(sdp)) != 0;
    }

   private:
    friend class ServiceDirectory;
    static std::uint8_t bit(SdpId sdp) {
      return static_cast<std::uint8_t>(1u << static_cast<unsigned>(sdp));
    }
    std::uint8_t holders = 0;  // bit(sdp) per unit that bridged it
    bool live = false;         // the slot holds a record
    std::uint32_t slot = 0;
    std::uint32_t serial = 0;    // bumped when the record leaves the slot
    std::uint32_t type_pos = 0;  // index in its type's slot list
    std::list<std::uint32_t>::iterator lru;
  };

  struct SdpStats {
    /// Native queries this SDP's unit answered from the index.
    std::uint64_t answered = 0;
    /// Native queries that fell through to the bridged path.
    std::uint64_t bridged = 0;
    /// Records this SDP's advertisements listed (not refreshes).
    std::uint64_t records_stored = 0;
    /// Records withdrawn by byebyes from this SDP.
    std::uint64_t withdrawals = 0;

    /// Merge-on-read accumulation across per-shard stores; valid only
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

  ServiceDirectory(const ServiceDirectory&) = delete;
  ServiceDirectory& operator=(const ServiceDirectory&) = delete;

  [[nodiscard]] bool answers_queries() const { return config_.answer_queries; }

  // --- The source unit ------------------------------------------------------

  /// Lists (or refreshes) the service a parsed advertisement stream
  /// describes (scan_advert's URL, USN and type; its attributes in order)
  /// and returns the record's handle: 0 when the stream names no URL, or an
  /// unknown one under no meaningful type. A refresh allocates nothing.
  Handle record_advertisement(SdpId origin, const EventStream& stream,
                              transport::TimePoint now);

  /// Withdraws the listed record a byebye names: by URL or, when it names
  /// none, the oldest listed record carrying its USN. Returns how many.
  std::size_t withdraw(SdpId origin, const EventStream& stream);

  /// TranslationCache hit: re-arms the record `handle` names, for every
  /// unit holding it. False when it left the store or expired since (the
  /// repeat must be translated afresh); true for handle 0.
  bool refresh(Handle handle, transport::TimePoint now);

  // --- The target units (core::Unit) ----------------------------------------

  /// The unit for `holder` bridges the service `advert` names (URL set):
  /// refreshes or creates (unlisted) its record and holds it. The bool says
  /// whether the unit did not hold it before. A directory answer
  /// (`from_store`) only holds the live record, else returns nullptr.
  std::pair<Record*, bool> hold(SdpId holder, std::string_view type,
                                const AdvertView& advert,
                                const EventStream& stream,
                                transport::TimePoint now,
                                bool from_store = false);
  /// The unit for `holder` lets go of the record a byebye names (by URL,
  /// else the oldest carrying its USN, among those it holds), after
  /// forget_bridged(kWithdrawn).
  void drop(SdpId holder, const AdvertView& advert);
  /// The handle slot of the record the unit for `holder` holds for `url`,
  /// or nullptr.
  [[nodiscard]] std::uint64_t* handle_slot(SdpId holder, std::string_view url);

  /// Unit's constructor and destructor: expiry, eviction and drop reach the
  /// unit through forget_bridged; detaching lets go of every record it holds
  /// without calling it.
  void attach(Unit& unit);
  void detach(Unit& unit);

  // --- Lookup (the units' answer path) -------------------------------------

  /// Fills `out` with the answerable records of `canonical_type` (listed,
  /// current generation, before their deadline), LRU-touching each, and
  /// returns the count. `out`'s capacity is reused: allocation-free warm.
  std::size_t collect(std::string_view canonical_type, transport::TimePoint now,
                      std::vector<const Record*>& out);

  /// True when collect() would return at least one record.
  [[nodiscard]] bool has_fresh(std::string_view canonical_type,
                               transport::TimePoint now) const;

  // --- Invalidation ---------------------------------------------------------

  /// O(1): no record answers, and no cached answer replays, until an
  /// advertisement lists it again (the TranslationCache's bump sites).
  void bump_generation();

  /// Timer sweep: expires every record past its deadline; returns how many.
  std::size_t sweep(transport::TimePoint now);

  // --- Answer cache (reply-side request caching) ----------------------------

  /// Registers a pending answer for the query `wire` that the session
  /// (sdp, session_id) is composing from the answerable records of
  /// `canonical_type`; its payloads land via add_answer_payload. `id` is
  /// where the query's SDP carries its transaction id: the answer is keyed
  /// on the rest of the query. A slot already holding that key takes the
  /// newest query's bytes, so its stored id is the one its payloads carry.
  void open_answer(SdpId sdp, std::string_view canonical_type, BytesView wire,
                   std::uint64_t session_id, transport::TimePoint now,
                   IdSpan id = {});

  /// Appends a composed reply payload to the pending answer for (sdp,
  /// session_id). No-op when none is pending.
  void add_answer_payload(SdpId sdp, std::uint64_t session_id,
                          BytesView payload);

  /// Hit path: when a query equal to `wire` outside its transaction id `id`
  /// was answered, no write has touched the answered type since, and none
  /// of the answer's records has reached its deadline, hands every stored
  /// payload to `send(bytes)` and returns true. `bytes` carries `wire`'s
  /// id, patched in a reused buffer when the ids differ; it is valid only
  /// during the call.
  template <typename Send>
  bool replay_answer(SdpId sdp, BytesView wire, IdSpan id,
                     transport::TimePoint now, Send&& send) {
    const Answer* answer = find_answer(sdp, wire, id, now);
    if (answer == nullptr) return false;
    for (const Bytes& payload : answer->payloads) {
      send(reply_bytes(*answer, payload, wire, id));
    }
    return true;
  }

  // --- Statistics ------------------------------------------------------------

  void count_answered(SdpId sdp) { sdp_stats(sdp).answered += 1; }
  void count_bridged(SdpId sdp) { sdp_stats(sdp).bridged += 1; }

  [[nodiscard]] const SdpStats& stats(SdpId sdp) const {
    return stats_[static_cast<std::size_t>(sdp)];
  }
  /// Records in the store, listed or only held.
  [[nodiscard]] std::size_t size() const { return size_; }
  /// The records the unit for `sdp` holds, in slot order (tests, reports).
  [[nodiscard]] std::vector<const Record*> held_by(SdpId sdp) const;
  [[nodiscard]] std::size_t answer_cache_size() const {
    return answers_.size();
  }
  [[nodiscard]] std::uint64_t generation() const { return generation_; }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }
  [[nodiscard]] std::uint64_t records_expired() const {
    return records_expired_;
  }
  [[nodiscard]] std::uint64_t answer_replays() const { return answer_replays_; }

  /// Direct record access: nullptr when no record holds `url`.
  [[nodiscard]] const Record* find(std::string_view url) const;

 private:
  struct Answer {
    SdpId sdp = SdpId::kSlp;
    std::uint64_t hash = 0;  // of the wire without its transaction id
    /// The newest query that opened the slot: byte-verified outside its id
    /// on hit, like the TranslationCache; its id is the payloads' id.
    Bytes wire;
    std::vector<Bytes> payloads;
    std::uint64_t session_id = 0;  // origin session, while payloads collect
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
  Record* find_record(std::string_view url) {
    return const_cast<Record*>(std::as_const(*this).find(url));
  }
  [[nodiscard]] bool answerable(const Record& record,
                                transport::TimePoint now) const {
    return record.listed && record.generation == generation_ &&
           record.expires_at > now;
  }
  /// The one refresh rule: re-arms the live record holding `advert`'s URL,
  /// or creates one under `type` when `may_create`; nullptr otherwise.
  Record* update(std::string_view type, const AdvertView& advert,
                 const EventStream& stream, transport::TimePoint now,
                 bool may_create);
  /// The one withdrawal rule: the record `advert`'s URL names or, when it
  /// names none, the oldest carrying its USN, if `pred` accepts it.
  template <typename Pred>
  Record* named_by(const AdvertView& advert, Pred pred);
  /// Calls forget_bridged(kExpired) on every holder, then erases.
  void retire(Record& record);
  void release(SdpId holder, Record& record);
  void erase(Record& record);
  /// The current, fresh answer keyed like (sdp, wire without `id`), or
  /// nullptr; counts the replay and touches its LRU slot.
  const Answer* find_answer(SdpId sdp, BytesView wire, IdSpan id,
                            transport::TimePoint now);
  /// A stored payload as the reply to `wire`: the stored bytes when `wire`
  /// carries the id `answer` was composed for, else a copy in
  /// replay_scratch_ with `wire`'s id written in.
  BytesView reply_bytes(const Answer& answer, BytesView stored, BytesView wire,
                        IdSpan id);
  /// Counts the answerable records of `type` (what collect() returns) and
  /// reports the earliest deadline among them.
  std::size_t fresh_records(Symbol type, transport::TimePoint now,
                            transport::TimePoint* earliest_deadline) const;
  /// A write to `type` invalidates the cached answers for it.
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
  /// Record slots; a deque, so records never move and the URL index can
  /// key on views of their own strings. Freed slots keep their capacity.
  std::deque<Record> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t size_ = 0;
  std::unordered_map<std::string_view, std::uint32_t> by_url_;
  /// Per type, the slots of its records (Record::type_pos indexes them).
  std::unordered_map<Symbol, std::vector<std::uint32_t>> by_type_;
  /// Per USN hash, the slots of the records carrying it, oldest first.
  std::unordered_map<std::size_t, std::vector<std::uint32_t>> by_usn_;
  /// Slots, least recently used first.
  std::list<std::uint32_t> lru_;
  std::array<Unit*, 4> units_{};
  std::vector<Answer> answers_;
  /// The patched bytes of a replayed payload (capacity reused).
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
