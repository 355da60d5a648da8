// ServiceDirectory tests (docs/directory.md): record/collect keying, the
// never-serve-stale collect guard, withdraw tombstones (by URL and by USN),
// the oldest-first USN withdrawal against a linear scan, generation-bump
// invalidation, LRU eviction, the handle refresh a cache hit makes,
// and the answer cache's replay, per-type epoch and deadline rules; its key
// without the query's transaction id (patched replays byte-equal to fresh
// composes, the parts of a query that stay in the key, a seeded
// cached-vs-uncached differential, the zero-alloc warm replay) — then the
// end-to-end legs: the idle-unit bridged-state expiry regression (timer
// sweep, not sweep-on-touch), the SLP-browse-answered-from-mDNS-announcement
// path with byebye tombstoning, the repeated-browse storm that must be
// answered from the index with zero origin-network frames, the replayed
// network browse paced like the composed one, the SLP DAAdvert the
// gateway multicasts when directory mode turns on, the UPnP alive burst
// whose every variant re-arms the one record, and directory answers that
// re-arm nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <string>
#include <variant>
#include <vector>

#include "core/directory/service_directory.hpp"
#include "core/indiss.hpp"
#include "core/units/mdns_unit.hpp"
#include "core/units/slp_unit.hpp"
#include "core/units/upnp_unit.hpp"
#include "mdns/dns.hpp"
#include "mdns/dnssd.hpp"
#include "net/host.hpp"
#include "net/network.hpp"
#include "net/udp.hpp"
#include "sim/scheduler.hpp"
#include "slp/agents.hpp"
#include "slp/wire.hpp"
#include "tests/support/alloc_meter.hpp"
#include "upnp/ssdp.hpp"

namespace indiss::core {
namespace {

sim::SimTime at_s(std::int64_t s) { return sim::SimTime(sim::seconds(s)); }

Bytes wire_bytes(std::string_view text) {
  return Bytes(text.begin(), text.end());
}

/// A parsed advertisement stream as the units hand it to the directory:
/// alive + type + TTL + URL (+ optional USN and attributes).
EventStream advert_stream(
    std::string_view type, std::string_view url, long ttl_seconds = 0,
    std::string_view usn = "",
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        attrs = {}) {
  EventStream stream;
  stream.push_back(Event(EventType::kControlStart));
  stream.push_back(Event(EventType::kServiceAlive));
  stream.push_back(Event(EventType::kServiceTypeIs, {{"type", type}}));
  if (ttl_seconds > 0) {
    stream.push_back(Event(EventType::kResTtl,
                           {{"seconds", std::to_string(ttl_seconds)}}));
  }
  if (!usn.empty()) {
    stream.push_back(Event(EventType::kUpnpUsn, {{"usn", usn}}));
  }
  for (const auto& [key, value] : attrs) {
    stream.push_back(
        Event(EventType::kServiceAttr, {{"key", key}, {"value", value}}));
  }
  stream.push_back(Event(EventType::kResServUrl, {{"url", url}}));
  stream.push_back(Event(EventType::kControlStop));
  return stream;
}

/// A byebye stream: URL-identified (SLP/mDNS shape) or USN-only (UPnP shape).
EventStream byebye_stream(std::string_view url, std::string_view usn = "") {
  EventStream stream;
  stream.push_back(Event(EventType::kControlStart));
  stream.push_back(Event(EventType::kServiceByeBye));
  if (!url.empty()) {
    stream.push_back(Event(EventType::kResServUrl, {{"url", url}}));
  }
  if (!usn.empty()) {
    stream.push_back(Event(EventType::kUpnpUsn, {{"usn", usn}}));
  }
  stream.push_back(Event(EventType::kControlStop));
  return stream;
}

TEST(ServiceDirectory, RecordsCollectAndFindByCanonicalType) {
  ServiceDirectory dir;
  EXPECT_TRUE(dir.record_advertisement(
      SdpId::kMdns, advert_stream("clock", "service:clock://a", 120),
      at_s(0)));
  EXPECT_TRUE(dir.record_advertisement(
      SdpId::kSlp, advert_stream("clock", "service:clock://b", 120),
      at_s(0)));
  EXPECT_TRUE(dir.record_advertisement(
      SdpId::kUpnp, advert_stream("printer", "http://printer/desc", 120),
      at_s(0)));
  EXPECT_EQ(dir.size(), 3u);
  EXPECT_EQ(dir.stats(SdpId::kMdns).records_stored, 1u);
  EXPECT_EQ(dir.stats(SdpId::kSlp).records_stored, 1u);

  std::vector<const ServiceDirectory::Record*> matches;
  EXPECT_EQ(dir.collect("clock", at_s(1), matches), 2u);
  EXPECT_EQ(dir.collect("printer", at_s(1), matches), 1u);
  EXPECT_EQ(dir.collect("camera", at_s(1), matches), 0u);
  EXPECT_TRUE(dir.has_fresh("clock", at_s(1)));
  EXPECT_FALSE(dir.has_fresh("camera", at_s(1)));

  const auto* record = dir.find("service:clock://a");
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->origin, SdpId::kMdns);
  EXPECT_EQ(SymbolTable::global().name(record->canonical_type), "clock");
}

TEST(ServiceDirectory, AdvertWithoutUrlOrMeaningfulTypeIsNotRecorded) {
  ServiceDirectory dir;
  // Wildcard and uuid-targeted types never index (decision table).
  EXPECT_FALSE(dir.record_advertisement(
      SdpId::kSlp, advert_stream("*", "service:x://a", 60), at_s(0)));
  EXPECT_FALSE(dir.record_advertisement(
      SdpId::kUpnp, advert_stream("uuid:1234", "http://d/desc", 60),
      at_s(0)));
  // No URL anywhere in the stream: nothing to key the record on.
  EventStream no_url;
  no_url.push_back(Event(EventType::kControlStart));
  no_url.push_back(Event(EventType::kServiceAlive));
  no_url.push_back(Event(EventType::kServiceTypeIs, {{"type", "clock"}}));
  no_url.push_back(Event(EventType::kControlStop));
  EXPECT_FALSE(dir.record_advertisement(SdpId::kSlp, no_url, at_s(0)));
  EXPECT_EQ(dir.size(), 0u);
}

TEST(ServiceDirectory, RefreshReArmsDeadlineWithoutANewRecord) {
  ServiceDirectory dir;
  EventStream advert = advert_stream("clock", "service:clock://a", 10);
  ASSERT_TRUE(dir.record_advertisement(SdpId::kSlp, advert, at_s(0)));
  ASSERT_TRUE(dir.record_advertisement(SdpId::kSlp, advert, at_s(8)));
  EXPECT_EQ(dir.size(), 1u);
  EXPECT_EQ(dir.stats(SdpId::kSlp).records_stored, 1u)
      << "a refresh is not a new insert";
  // The original deadline (t=10) passed; the refresh moved it to t=18.
  std::vector<const ServiceDirectory::Record*> matches;
  EXPECT_EQ(dir.collect("clock", at_s(15), matches), 1u);
  EXPECT_EQ(dir.collect("clock", at_s(19), matches), 0u);
}

TEST(ServiceDirectory, CollectNeverServesStaleBetweenSweeps) {
  ServiceDirectory dir;
  ASSERT_TRUE(dir.record_advertisement(
      SdpId::kSlp, advert_stream("clock", "service:clock://a", 5),
      at_s(0)));
  // Past the deadline but before any sweep ran: the record still occupies a
  // slot yet must not be served.
  std::vector<const ServiceDirectory::Record*> matches;
  EXPECT_EQ(dir.collect("clock", at_s(6), matches), 0u);
  EXPECT_FALSE(dir.has_fresh("clock", at_s(6)));
  EXPECT_EQ(dir.size(), 1u);
  // The timer sweep reclaims it.
  EXPECT_EQ(dir.sweep(at_s(6)), 1u);
  EXPECT_EQ(dir.size(), 0u);
  EXPECT_EQ(dir.records_expired(), 1u);
  EXPECT_EQ(dir.find("service:clock://a"), nullptr);
}

TEST(ServiceDirectory, WithdrawTombstonesByUrlAndByUsn) {
  ServiceDirectory dir;
  ASSERT_TRUE(dir.record_advertisement(
      SdpId::kSlp, advert_stream("clock", "service:clock://a", 60),
      at_s(0)));
  ASSERT_TRUE(dir.record_advertisement(
      SdpId::kUpnp,
      advert_stream("clock", "http://10.0.0.2/desc.xml", 60, "uuid:dev-1"),
      at_s(0)));

  // SLP/mDNS shape: the byebye names the URL.
  EXPECT_EQ(dir.withdraw(SdpId::kSlp, byebye_stream("service:clock://a")), 1u);
  EXPECT_EQ(dir.find("service:clock://a"), nullptr);
  EXPECT_EQ(dir.stats(SdpId::kSlp).withdrawals, 1u);

  // UPnP shape: the byebye carries only the USN.
  EXPECT_EQ(dir.withdraw(SdpId::kUpnp, byebye_stream("", "uuid:dev-1")), 1u);
  EXPECT_EQ(dir.find("http://10.0.0.2/desc.xml"), nullptr);
  EXPECT_EQ(dir.stats(SdpId::kUpnp).withdrawals, 1u);
  EXPECT_EQ(dir.size(), 0u);

  // Withdrawing the unknown is a no-op, not a crash or a counter bump.
  EXPECT_EQ(dir.withdraw(SdpId::kSlp, byebye_stream("service:clock://never")),
            0u);
}

// A byebye naming only a USN withdraws the oldest record carrying it, the
// rule the units apply to the records they hold.
TEST(ServiceDirectory, UsnOnlyWithdrawalTakesTheOldestRecordCarryingIt) {
  ServiceDirectory dir;
  for (std::string_view url : {"http://a/desc", "http://b/desc"}) {
    ASSERT_TRUE(dir.record_advertisement(
        SdpId::kUpnp, advert_stream("clock", url, 60, "uuid:shared"),
        at_s(0)));
  }
  // A refresh keeps the record's place: it is still the oldest.
  ASSERT_TRUE(dir.record_advertisement(
      SdpId::kUpnp,
      advert_stream("clock", "http://a/desc", 60, "uuid:shared"), at_s(1)));

  EXPECT_EQ(dir.withdraw(SdpId::kUpnp, byebye_stream("", "uuid:shared")), 1u);
  EXPECT_EQ(dir.find("http://a/desc"), nullptr);
  EXPECT_NE(dir.find("http://b/desc"), nullptr);
  EXPECT_EQ(dir.withdraw(SdpId::kUpnp, byebye_stream("", "uuid:shared")), 1u);
  EXPECT_EQ(dir.size(), 0u);
  EXPECT_EQ(dir.withdraw(SdpId::kUpnp, byebye_stream("", "uuid:shared")), 0u);
}

// The USN index against a linear scan over the records in arrival order, on
// seeded histories of adverts, refreshes, URL and USN withdrawals, expiry
// sweeps, generation bumps and LRU evictions. Records the directory drops by
// itself (sweep, eviction) leave the reference too; the reference decides
// only which record each withdrawal takes.
TEST(ServiceDirectory, WithdrawMatchesALinearScanOverSeededHistories) {
  std::vector<std::string> urls;
  for (int i = 0; i < 12; ++i) {
    urls.push_back("http://10.0.2." + std::to_string(i) + "/desc");
  }
  const std::vector<std::string> usns = {"", "uuid:scan-a", "uuid:scan-b"};
  for (std::uint32_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ServiceDirectory dir({.max_records = 8});
    std::vector<std::pair<std::string, std::string>> arrivals;  // url, usn
    std::mt19937 rng(seed);
    auto pick = [&](std::size_t n) {
      return static_cast<std::size_t>(rng() % static_cast<std::uint32_t>(n));
    };
    std::int64_t now = 0;
    std::size_t usn_withdrawals = 0;
    for (int step = 0; step < 800; ++step) {
      std::size_t op = pick(100);
      const std::string& url = urls[pick(urls.size())];
      const std::string& usn = usns[pick(usns.size())];
      if (op < 55) {
        // A refresh re-arms a live record; one past its deadline is
        // recreated, with this advert's USN, as the newest arrival.
        const ServiceDirectory::Record* before = dir.find(url);
        if (before != nullptr && before->expires_at <= at_s(now)) {
          std::erase_if(arrivals,
                        [&](const auto& a) { return a.first == url; });
        }
        auto known =
            std::find_if(arrivals.begin(), arrivals.end(),
                         [&](const auto& a) { return a.first == url; });
        ASSERT_TRUE(dir.record_advertisement(
            SdpId::kUpnp, advert_stream("clock", url, 1 + pick(8), usn),
            at_s(now)));
        if (known == arrivals.end()) arrivals.emplace_back(url, usn);
      } else if (op < 85) {
        bool by_usn = pick(2) == 0;
        std::string expected;
        for (const auto& [u, n] : arrivals) {
          if (by_usn ? !usn.empty() && n == usn : u == url) {
            expected = u;
            break;
          }
        }
        if (by_usn) usn_withdrawals += 1;
        EventStream byebye =
            by_usn ? byebye_stream("", usn) : byebye_stream(url);
        ASSERT_EQ(dir.withdraw(SdpId::kUpnp, byebye),
                  expected.empty() ? 0u : 1u)
            << "step " << step;
        if (!expected.empty()) {
          EXPECT_EQ(dir.find(expected), nullptr) << "step " << step;
        }
      } else if (op < 95) {
        now += static_cast<std::int64_t>(pick(4));
        dir.sweep(at_s(now));
      } else {
        dir.bump_generation();
      }
      std::erase_if(arrivals, [&](const auto& a) {
        return dir.find(a.first) == nullptr;
      });
      ASSERT_EQ(arrivals.size(), dir.size()) << "step " << step;
    }
    EXPECT_GT(usn_withdrawals, 0u);
    EXPECT_GT(dir.evictions(), 0u);
  }
}

TEST(ServiceDirectory, GenerationBumpLogicallyEmptiesTheIndex) {
  ServiceDirectory dir;
  ASSERT_TRUE(dir.record_advertisement(
      SdpId::kSlp, advert_stream("clock", "service:clock://a", 600),
      at_s(0)));
  ASSERT_TRUE(dir.has_fresh("clock", at_s(1)));

  dir.bump_generation();  // a unit attached/detached, or a new registrar
  std::vector<const ServiceDirectory::Record*> matches;
  EXPECT_EQ(dir.collect("clock", at_s(1), matches), 0u);
  EXPECT_FALSE(dir.has_fresh("clock", at_s(1)));
  // Hidden, not dropped: the units holding it keep their bridged state.
  EXPECT_EQ(dir.sweep(at_s(1)), 0u);
  EXPECT_EQ(dir.size(), 1u);

  // A re-announcement repopulates under the new generation.
  ASSERT_TRUE(dir.record_advertisement(
      SdpId::kSlp, advert_stream("clock", "service:clock://a", 600),
      at_s(2)));
  EXPECT_TRUE(dir.has_fresh("clock", at_s(3)));
}

TEST(ServiceDirectory, LruEvictsTheLeastRecentlyUsedAtCapacity) {
  ServiceDirectory dir(
      {.max_records = 3, .max_answers = 4});
  ASSERT_TRUE(dir.record_advertisement(
      SdpId::kSlp, advert_stream("clock", "service:clock://a", 600),
      at_s(0)));
  ASSERT_TRUE(dir.record_advertisement(
      SdpId::kSlp, advert_stream("clock", "service:clock://b", 600),
      at_s(0)));
  ASSERT_TRUE(dir.record_advertisement(
      SdpId::kSlp, advert_stream("printer", "service:printer://c", 600),
      at_s(0)));
  // Touch the clock records so the printer becomes least recently used.
  std::vector<const ServiceDirectory::Record*> matches;
  ASSERT_EQ(dir.collect("clock", at_s(1), matches), 2u);

  ASSERT_TRUE(dir.record_advertisement(
      SdpId::kMdns, advert_stream("camera", "service:camera://d", 600),
      at_s(2)));
  EXPECT_EQ(dir.size(), 3u);
  EXPECT_EQ(dir.evictions(), 1u);
  EXPECT_EQ(dir.find("service:printer://c"), nullptr) << "LRU victim";
  EXPECT_NE(dir.find("service:clock://a"), nullptr);
  EXPECT_NE(dir.find("service:camera://d"), nullptr);
}

TEST(ServiceDirectory, RefreshReArmsTheDeadlineThroughTheHandle) {
  ServiceDirectory dir;
  ServiceDirectory::Handle handle = dir.record_advertisement(
      SdpId::kSlp, advert_stream("clock", "service:clock://a", 10), at_s(0));
  ASSERT_NE(handle, 0u);

  // The TranslationCache short-circuited the byte-identical repeat at t=8:
  // the unit never parsed it, but the bundle's handle re-arms the record.
  EXPECT_TRUE(dir.refresh(handle, at_s(8)));
  std::vector<const ServiceDirectory::Record*> matches;
  EXPECT_EQ(dir.collect("clock", at_s(15), matches), 1u);
  EXPECT_EQ(dir.collect("clock", at_s(19), matches), 0u);

  // An expired record is not revived by a hit, and a handle outlives its
  // record harmlessly: a new record in the freed slot is not its record.
  EXPECT_FALSE(dir.refresh(handle, at_s(19)));
  EXPECT_EQ(dir.sweep(at_s(19)), 1u);
  ServiceDirectory::Handle again = dir.record_advertisement(
      SdpId::kSlp, advert_stream("clock", "service:clock://b", 10), at_s(20));
  EXPECT_NE(again, handle);
  EXPECT_FALSE(dir.refresh(handle, at_s(21)));
  EXPECT_TRUE(dir.refresh(again, at_s(21)));
  EXPECT_TRUE(dir.refresh(0, at_s(21))) << "handle 0 names no record";
}

// --- Answer cache -----------------------------------------------------------

struct AnswerCacheFixture : ::testing::Test {
  std::vector<Bytes> received;

  /// Replays the SLP answer stored for `query` into `received`.
  bool replay(ServiceDirectory& dir, const Bytes& query, sim::SimTime now) {
    return dir.replay_answer(SdpId::kSlp, query, {}, now, [this](BytesView b) {
      received.emplace_back(b.begin(), b.end());
    });
  }
};

TEST_F(AnswerCacheFixture, ReplaysTheStoredFramesForTheIdenticalQuery) {
  ServiceDirectory dir;
  Bytes query = wire_bytes("SRVRQST service:clock xid=7");

  // Miss while nothing is stored.
  EXPECT_FALSE(replay(dir, query, at_s(0)));

  dir.open_answer(SdpId::kSlp, "clock", query, /*session_id=*/11, at_s(0));
  dir.add_answer_payload(SdpId::kSlp, 11, wire_bytes("SRVRPLY one clock"));
  EXPECT_EQ(dir.answer_cache_size(), 1u);

  EXPECT_TRUE(replay(dir, query, at_s(1)));
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(to_string(received[0]), "SRVRPLY one clock");
  EXPECT_EQ(dir.answer_replays(), 1u);

  // Different bytes: no replay. (The key holds no requester: whoever asks
  // the same question gets the replay, see AnswerCacheIdBlind.)
  EXPECT_FALSE(
      replay(dir, wire_bytes("SRVRQST service:clock xid=8"), at_s(1)));
}

TEST_F(AnswerCacheFixture, AnyIndexMutationInvalidatesCachedAnswers) {
  ServiceDirectory dir;
  Bytes query = wire_bytes("SRVRQST service:clock xid=7");
  dir.open_answer(SdpId::kSlp, "clock", query, 11, at_s(0));
  dir.add_answer_payload(SdpId::kSlp, 11, wire_bytes("SRVRPLY stale"));
  ASSERT_TRUE(replay(dir, query, at_s(1)));

  // A new record arriving changes what the answer should contain.
  ASSERT_TRUE(dir.record_advertisement(
      SdpId::kMdns, advert_stream("clock", "service:clock://new", 600),
      at_s(2)));
  EXPECT_FALSE(replay(dir, query, at_s(3)))
      << "epoch bump must invalidate every cached answer";

  // Re-answer under the new epoch, then a withdrawal invalidates again.
  dir.open_answer(SdpId::kSlp, "clock", query, 12, at_s(4));
  dir.add_answer_payload(SdpId::kSlp, 12, wire_bytes("SRVRPLY fresh"));
  ASSERT_TRUE(replay(dir, query, at_s(5)));
  ASSERT_EQ(dir.withdraw(SdpId::kMdns, byebye_stream("service:clock://new")),
            1u);
  EXPECT_FALSE(replay(dir, query, at_s(6)));
}

TEST_F(AnswerCacheFixture, WritesInvalidateOnlyTheAnswersOfTheirType) {
  ServiceDirectory dir;
  Bytes query = wire_bytes("SRVRQST service:clock xid=7");
  dir.open_answer(SdpId::kSlp, "clock", query, 11, at_s(0));
  dir.add_answer_payload(SdpId::kSlp, 11, wire_bytes("SRVRPLY clock"));

  // A new printer, then its withdrawal: neither changes the clock answer.
  ASSERT_TRUE(dir.record_advertisement(
      SdpId::kMdns, advert_stream("printer", "service:printer://p1", 600),
      at_s(1)));
  EXPECT_TRUE(replay(dir, query, at_s(2)))
      << "a printer write must leave the clock answer replayable";
  ASSERT_EQ(dir.withdraw(SdpId::kMdns, byebye_stream("service:printer://p1")),
            1u);
  EXPECT_TRUE(replay(dir, query, at_s(3)));

  // A new clock does.
  ASSERT_TRUE(dir.record_advertisement(
      SdpId::kMdns, advert_stream("clock", "service:clock://c1", 600),
      at_s(4)));
  EXPECT_FALSE(replay(dir, query, at_s(5)))
      << "a clock write must invalidate the clock answer";
}

TEST_F(AnswerCacheFixture, GenerationBumpInvalidatesEveryAnswer) {
  ServiceDirectory dir;
  Bytes clock_query = wire_bytes("SRVRQST service:clock xid=7");
  Bytes printer_query = wire_bytes("SRVRQST service:printer xid=8");
  dir.open_answer(SdpId::kSlp, "clock", clock_query, 11, at_s(0));
  dir.add_answer_payload(SdpId::kSlp, 11, wire_bytes("SRVRPLY clock"));
  dir.open_answer(SdpId::kSlp, "printer", printer_query, 12, at_s(0));
  dir.add_answer_payload(SdpId::kSlp, 12, wire_bytes("SRVRPLY printer"));
  ASSERT_TRUE(replay(dir, clock_query, at_s(1)));
  ASSERT_TRUE(replay(dir, printer_query, at_s(1)));

  dir.bump_generation();
  EXPECT_FALSE(replay(dir, clock_query, at_s(2)));
  EXPECT_FALSE(replay(dir, printer_query, at_s(2)));
}

TEST_F(AnswerCacheFixture, RefreshThatChangesTtlInvalidatesItsType) {
  ServiceDirectory dir;
  Bytes query = wire_bytes("SRVRQST service:clock xid=7");
  ASSERT_TRUE(dir.record_advertisement(
      SdpId::kMdns, advert_stream("clock", "service:clock://c1", 600),
      at_s(0)));
  dir.open_answer(SdpId::kSlp, "clock", query, 11, at_s(1));
  dir.add_answer_payload(SdpId::kSlp, 11, wire_bytes("SRVRPLY ttl=600"));

  // Same TTL: the answer bytes still hold.
  ASSERT_TRUE(dir.record_advertisement(
      SdpId::kMdns, advert_stream("clock", "service:clock://c1", 600),
      at_s(2)));
  EXPECT_TRUE(replay(dir, query, at_s(3)));

  // A new TTL is part of the answer.
  ASSERT_TRUE(dir.record_advertisement(
      SdpId::kMdns, advert_stream("clock", "service:clock://c1", 300),
      at_s(4)));
  EXPECT_FALSE(replay(dir, query, at_s(5)))
      << "a TTL change must invalidate the answer that carried the old one";
}

TEST_F(AnswerCacheFixture, RefreshThatRevivesAnExpiredRecordInvalidatesItsType) {
  ServiceDirectory dir;
  Bytes query = wire_bytes("SRVRQST service:clock xid=7");
  ASSERT_TRUE(dir.record_advertisement(
      SdpId::kMdns, advert_stream("clock", "service:clock://c1", 10),
      at_s(0)));
  ASSERT_TRUE(dir.record_advertisement(
      SdpId::kMdns, advert_stream("clock", "service:clock://c2", 600),
      at_s(0)));
  // Answered at 12 s: c1 is past its deadline (not yet swept) and left out.
  dir.open_answer(SdpId::kSlp, "clock", query, 11, at_s(12));
  dir.add_answer_payload(SdpId::kSlp, 11, wire_bytes("SRVRPLY c2"));
  ASSERT_TRUE(replay(dir, query, at_s(13)));

  // Same TTL, but c1 is back in what the type answers.
  ASSERT_TRUE(dir.record_advertisement(
      SdpId::kMdns, advert_stream("clock", "service:clock://c1", 10),
      at_s(14)));
  EXPECT_FALSE(replay(dir, query, at_s(15)));
}

/// Regression: replay ignored its clock, so between expiry sweeps a cached
/// answer kept serving a record past its deadline.
TEST_F(AnswerCacheFixture, NoReplayPastTheEarliestRecordDeadline) {
  ServiceDirectory dir;
  Bytes query = wire_bytes("SRVRQST service:clock xid=7");
  ASSERT_TRUE(dir.record_advertisement(
      SdpId::kMdns, advert_stream("clock", "service:clock://c1", 10),
      at_s(0)));
  std::vector<const ServiceDirectory::Record*> matches;
  ASSERT_EQ(dir.collect("clock", at_s(1), matches), 1u);
  dir.open_answer(SdpId::kSlp, "clock", query, 11, at_s(1));
  dir.add_answer_payload(SdpId::kSlp, 11, wire_bytes("SRVRPLY c1"));
  EXPECT_TRUE(replay(dir, query, at_s(9)));

  // No sweep has run, but the record's deadline (10 s) has passed.
  EXPECT_FALSE(replay(dir, query, at_s(12)))
      << "a cached answer must not outlive its records";
  EXPECT_EQ(dir.collect("clock", at_s(12), matches), 0u)
      << "a fresh compose must leave the expired record out";
}

TEST_F(AnswerCacheFixture, ReArmedRecordsCarryTheAnswerPastItsFirstDeadline) {
  ServiceDirectory dir;
  Bytes query = wire_bytes("SRVRQST service:clock xid=7");
  ASSERT_TRUE(dir.record_advertisement(
      SdpId::kMdns, advert_stream("clock", "service:clock://c1", 10),
      at_s(0)));
  dir.open_answer(SdpId::kSlp, "clock", query, 11, at_s(1));
  dir.add_answer_payload(SdpId::kSlp, 11, wire_bytes("SRVRPLY c1"));

  // A same-TTL refresh at 8 s re-arms c1 to 18 s without invalidating.
  ASSERT_TRUE(dir.record_advertisement(
      SdpId::kMdns, advert_stream("clock", "service:clock://c1", 10),
      at_s(8)));
  EXPECT_TRUE(replay(dir, query, at_s(12)))
      << "every answered record is still fresh";
  EXPECT_FALSE(replay(dir, query, at_s(18)));
}

// --- The answer cache keys on the question, not the transaction -------------

namespace idblind {

Bytes slp_query(std::uint16_t xid, std::string_view type = "service:clock",
                std::string_view scopes = "DEFAULT",
                std::string_view prlist = "") {
  slp::SrvRqst request;
  request.header.xid = xid;
  request.service_type = std::string(type);
  request.scope_list = std::string(scopes);
  request.previous_responders = std::string(prlist);
  return slp::encode(slp::Message(request));
}

Bytes mdns_query(std::uint16_t id,
                 std::string_view qname = "_clock._tcp.local") {
  mdns::DnsMessage query;
  query.id = id;
  mdns::DnsQuestion question;
  question.name = std::string(qname);
  question.qtype = mdns::kTypePtr;
  question.unicast_response = true;
  query.questions.push_back(std::move(question));
  return mdns::encode(query);
}

Bytes ssdp_search(std::string_view device) {
  upnp::SearchRequest search;
  search.st = "urn:schemas-upnp-org:device:" + std::string(device) + ":1";
  return upnp::encode(search);
}

std::string service_url(std::string_view type, std::string_view name) {
  return "service:" + std::string(type) + ":soap://10.0.0.2:4005/" +
         std::string(name);
}

Bytes slp_registration(std::string_view type, std::string_view name,
                       std::uint16_t lifetime) {
  slp::SrvReg reg;
  reg.url_entry = {lifetime, service_url(type, name)};
  reg.service_type = "service:" + std::string(type);
  reg.attr_list = "(room=" + std::string(name) + ")";
  return slp::encode(slp::Message(reg));
}

Bytes slp_deregistration(std::string_view type, std::string_view name) {
  slp::SrvDeReg dereg;
  dereg.url_entry = {0, service_url(type, name)};
  return slp::encode(slp::Message(dereg));
}

/// A directory-mode gateway wired by hand, so a test picks the answer
/// cache's bound: SLP, UPnP and mDNS units share one ServiceDirectory and
/// take native datagrams straight through on_native_message, the monitor's
/// forward path. Replies travel the sim network to the client sockets.
struct DirectoryRig {
  static constexpr int kClients = 3;

  explicit DirectoryRig(std::size_t max_answers) {
    ServiceDirectory::Config config;
    config.max_answers = max_answers;
    config.answer_queries = true;
    directory = std::make_shared<ServiceDirectory>(config);
    UnitOptions options;
    options.directory = directory;
    slp = std::make_unique<SlpUnit>(gateway, options);
    upnp = std::make_unique<UpnpUnit>(gateway, options);
    mdns = std::make_unique<MdnsUnit>(gateway, options);
    for (int c = 0; c < kClients; ++c) {
      clients.push_back(
          client.udp_socket(static_cast<std::uint16_t>(7000 + c)));
      clients.back()->set_receive_handler([this, c](const net::Datagram& d) {
        replies.emplace_back(c, d.payload);
        arrivals.push_back(scheduler.now());
      });
    }
    scheduler.run_for(sim::millis(10));
  }

  Unit& unit(SdpId sdp) {
    if (sdp == SdpId::kUpnp) return *upnp;
    if (sdp == SdpId::kMdns) return *mdns;
    return *slp;
  }

  /// Hands `payload` to the unit of `sdp` as a multicast datagram from
  /// `from`.
  void deliver(SdpId sdp, const net::Endpoint& from, Bytes payload) {
    net::Datagram datagram;
    datagram.source = from;
    datagram.destination = net::Endpoint{slp::kSlpMulticastGroup, 427};
    datagram.multicast = true;
    datagram.payload = std::move(payload);
    unit(sdp).on_native_message(datagram);
  }
  [[nodiscard]] net::Endpoint client_endpoint(int c) const {
    return clients[static_cast<std::size_t>(c)]->local_endpoint();
  }
  /// A query from client socket `c`; every (paced) reply lands.
  void ask(SdpId sdp, int c, Bytes query) {
    deliver(sdp, client_endpoint(c), std::move(query));
    scheduler.run_for(sim::millis(200));
  }
  /// An SLP registration or deregistration from the service host.
  void write(Bytes message) {
    deliver(SdpId::kSlp, net::Endpoint{service.address(), 4270},
            std::move(message));
    scheduler.run_for(sim::millis(200));
  }
  /// The one reply since the last call (empty unless exactly one came).
  Bytes take_reply() {
    Bytes reply = replies.size() == 1 ? replies.front().second : Bytes{};
    replies.clear();
    arrivals.clear();
    return reply;
  }

  sim::Scheduler scheduler;
  net::Network network{scheduler, net::LinkProfile{}, 41};
  net::Host& gateway = network.add_host("gw", net::IpAddress(10, 0, 0, 3));
  net::Host& service = network.add_host("svc", net::IpAddress(10, 0, 0, 2));
  net::Host& client = network.add_host("client", net::IpAddress(10, 0, 0, 9));
  std::shared_ptr<ServiceDirectory> directory;
  std::unique_ptr<SlpUnit> slp;
  std::unique_ptr<UpnpUnit> upnp;
  std::unique_ptr<MdnsUnit> mdns;
  std::vector<std::shared_ptr<net::UdpSocket>> clients;
  std::vector<std::pair<int, Bytes>> replies;
  std::vector<sim::SimTime> arrivals;  // when each of `replies` landed
};

constexpr std::size_t kDefaultAnswers = ServiceDirectory::Config{}.max_answers;

std::uint16_t id_at(BytesView wire, IdSpan id) {
  return static_cast<std::uint16_t>(wire[id.offset] << 8 |
                                    wire[id.offset + 1]);
}

}  // namespace idblind

/// A query that differs only in its transaction id replays the stored
/// answer with the new id written in, and the result is byte-equal to what
/// a gateway without an answer cache composes for that id.
TEST(AnswerCacheIdBlind, NewIdReplaysByteEqualToAFreshCompose) {
  using namespace idblind;
  struct Case {
    SdpId sdp;
    IdSpan id;
    Bytes (*query)(std::uint16_t);
  };
  const Case cases[] = {
      {SdpId::kSlp, slp::kXidSpan,
       [](std::uint16_t id) { return slp_query(id); }},
      {SdpId::kMdns, mdns::kIdSpan,
       [](std::uint16_t id) { return mdns_query(id); }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(sdp_name(c.sdp)));
    DirectoryRig cached(kDefaultAnswers);
    DirectoryRig fresh(0);
    for (DirectoryRig* rig : {&cached, &fresh}) {
      rig->write(slp_registration("clock", "c1", 600));
      rig->write(slp_registration("clock", "c2", 600));
    }

    cached.ask(c.sdp, 0, c.query(100));
    Bytes first = cached.take_reply();
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(id_at(first, c.id), 100);
    ASSERT_EQ(cached.directory->answer_replays(), 0u);

    for (std::uint16_t id : {0x1234, 0xBEEF, 100, 7}) {
      cached.ask(c.sdp, 0, c.query(id));
      Bytes replayed = cached.take_reply();
      fresh.ask(c.sdp, 0, c.query(id));
      Bytes composed = fresh.take_reply();
      ASSERT_FALSE(composed.empty());
      EXPECT_EQ(id_at(replayed, c.id), id);
      EXPECT_EQ(replayed, composed) << "id " << id;
    }
    EXPECT_EQ(cached.directory->answer_replays(), 4u);
    EXPECT_EQ(fresh.directory->answer_replays(), 0u);
  }
}

/// Everything but the id stays in the key: another PRList, scope or question
/// gets an answer of its own instead of a replay. The requester is not in
/// the key: the same question from another requester replays.
TEST(AnswerCacheIdBlind, QueriesThatDifferBeyondTheIdDoNotReplay) {
  using namespace idblind;
  DirectoryRig rig(kDefaultAnswers);
  rig.write(slp_registration("clock", "c1", 600));
  rig.write(slp_registration("printer", "p1", 600));

  rig.ask(SdpId::kSlp, 0, slp_query(1));
  rig.ask(SdpId::kMdns, 0, mdns_query(1));
  ASSERT_EQ(rig.replies.size(), 2u);
  rig.ask(SdpId::kSlp, 0, slp_query(2));
  rig.ask(SdpId::kMdns, 0, mdns_query(2));
  ASSERT_EQ(rig.directory->answer_replays(), 2u);

  rig.ask(SdpId::kSlp, 0, slp_query(3, "service:clock", "DEFAULT", "10.0.0.3"));
  rig.ask(SdpId::kSlp, 0, slp_query(4, "service:clock", "LAB"));
  rig.ask(SdpId::kSlp, 0, slp_query(5, "service:printer"));
  rig.ask(SdpId::kMdns, 0, mdns_query(6, "_printer._tcp.local"));
  EXPECT_EQ(rig.directory->answer_replays(), 2u)
      << "a different PRList, scope or question must not replay";
  // No reply byte depends on who asked: another requester's same question
  // replays (it used to be composed afresh).
  rig.ask(SdpId::kSlp, 1, slp_query(7));
  rig.ask(SdpId::kMdns, 1, mdns_query(8));
  EXPECT_EQ(rig.directory->answer_replays(), 4u);
}

/// Requester A asks; requester B asks the same bytes 10 ms later, while A's
/// answer still waits out its pacing. B's answer is a replay, byte-equal to
/// what a gateway without an answer cache composes for B, sent to B, and
/// paced by B's own arrival.
TEST(AnswerCacheIdBlind, AnotherRequesterGetsAReplayAddressedAndPacedForIt) {
  using namespace idblind;
  struct Case {
    SdpId sdp;
    Bytes query;
    sim::SimDuration pacing;
  };
  const Case cases[] = {
      {SdpId::kMdns, mdns_query(9), sim::millis(20)},
      {SdpId::kUpnp, ssdp_search("clock"), sim::millis(30)},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(sdp_name(c.sdp)));
    DirectoryRig cached(kDefaultAnswers);
    DirectoryRig fresh(0);
    sim::SimTime b_asked{};
    for (DirectoryRig* rig : {&cached, &fresh}) {
      rig->write(slp_registration("clock", "c1", 600));
      rig->deliver(c.sdp, rig->client_endpoint(0), c.query);
      rig->scheduler.run_for(sim::millis(10));
      b_asked = rig->scheduler.now();
      rig->deliver(c.sdp, rig->client_endpoint(1), c.query);
      rig->scheduler.run_for(sim::millis(200));
    }
    EXPECT_EQ(cached.directory->answer_replays(), 1u)
        << "B's question must replay A's answer";
    EXPECT_EQ(fresh.directory->answer_replays(), 0u);
    ASSERT_EQ(cached.replies.size(), 2u);
    EXPECT_EQ(cached.replies[1].first, 1) << "the replay must go to B";
    EXPECT_EQ(cached.replies, fresh.replies);
    ASSERT_EQ(cached.arrivals.size(), 2u);
    EXPECT_EQ(cached.arrivals, fresh.arrivals);
    EXPECT_EQ(cached.arrivals[1] - cached.arrivals[0], sim::millis(10))
        << "B's answer must be paced from B's arrival, not A's";
    EXPECT_GE(cached.arrivals[1] - b_asked, c.pacing);
  }
}

/// The seeded differential: one history of queries (mostly fresh ids, three
/// requesters, three SDPs) and index writes (registrations, refreshes with
/// and without a new TTL, deregistrations, expiry) runs through a gateway
/// that caches answers and one that composes every answer. The requesters
/// must receive the same bytes in the same order.
TEST(AnswerCacheIdBlind, CachedAndUncachedGatewaysSendIdenticalReplies) {
  using namespace idblind;
  for (unsigned seed : {3u, 19u, 71u}) {
    SCOPED_TRACE(seed);
    DirectoryRig cached(kDefaultAnswers);
    DirectoryRig fresh(0);
    std::mt19937 rng(seed);
    struct Live {
      std::string type;
      std::string name;
    };
    std::vector<Live> live;
    const std::string types[] = {"clock", "printer"};
    for (int step = 0; step < 400; ++step) {
      unsigned op = rng() % 20;
      const std::string& type = types[rng() % 2];
      std::function<void(DirectoryRig&)> act;
      if (op < 2) {
        Live added{type, type + std::to_string(step)};
        auto lifetime = static_cast<std::uint16_t>(rng() % 2 == 0 ? 600 : 30);
        live.push_back(added);
        act = [=](DirectoryRig& rig) {
          rig.write(slp_registration(added.type, added.name, lifetime));
        };
      } else if (op < 4 && !live.empty()) {
        std::size_t pick = rng() % live.size();
        Live known = live[pick];
        if (op == 2) {
          auto lifetime =
              static_cast<std::uint16_t>(rng() % 2 == 0 ? 600 : 30);
          act = [=](DirectoryRig& rig) {
            rig.write(slp_registration(known.type, known.name, lifetime));
          };
        } else {
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
          act = [=](DirectoryRig& rig) {
            rig.write(slp_deregistration(known.type, known.name));
          };
        }
      } else if (op == 4) {
        act = [](DirectoryRig& rig) {
          rig.scheduler.run_for(sim::seconds(20));  // 30 s records expire
        };
      } else {
        int c = static_cast<int>(rng() % DirectoryRig::kClients);
        auto id = static_cast<std::uint16_t>(rng() % 4 == 0 ? 42 : rng());
        unsigned via = rng() % 3;
        SdpId sdp = via == 0 ? SdpId::kSlp
                    : via == 1 ? SdpId::kMdns
                               : SdpId::kUpnp;
        Bytes query = sdp == SdpId::kSlp ? slp_query(id, "service:" + type)
                      : sdp == SdpId::kMdns
                          ? mdns_query(id, "_" + type + "._tcp.local")
                          : ssdp_search(type);
        act = [=](DirectoryRig& rig) { rig.ask(sdp, c, query); };
      }
      act(cached);
      act(fresh);
    }
    EXPECT_GT(cached.replies.size(), 100u);
    EXPECT_GT(cached.directory->answer_replays(), 50u);
    EXPECT_EQ(fresh.directory->answer_replays(), 0u);
    ASSERT_EQ(cached.replies.size(), fresh.replies.size());
    for (std::size_t i = 0; i < cached.replies.size(); ++i) {
      ASSERT_EQ(cached.replies[i], fresh.replies[i]) << "reply " << i;
    }
  }
}

/// The warm hit path — id-blind hash, byte verify, id patch into the reused
/// buffer — allocates nothing. Each payload goes to a sender that only
/// reads it, so the send's own payload copy (UdpSocket::send_to takes Bytes
/// by value) stays out of the count.
TEST_F(AnswerCacheFixture, WarmIdVaryingReplayAllocatesNothing) {
  ServiceDirectory dir;
  ASSERT_TRUE(dir.record_advertisement(
      SdpId::kMdns, advert_stream("clock", "service:clock://c1", 600),
      at_s(0)));
  dir.open_answer(SdpId::kSlp, "clock", idblind::slp_query(1), 11, at_s(0),
                  slp::kXidSpan);
  // Any payload with the XID where an SrvRply carries it will do.
  dir.add_answer_payload(SdpId::kSlp, 11,
                         idblind::slp_query(1, "service:clock-reply"));

  std::vector<Bytes> queries;
  for (std::uint16_t xid = 2; xid < 2 + 64; ++xid) {
    queries.push_back(idblind::slp_query(xid));
  }
  std::uint64_t ids = 0;
  auto read_id = [&ids](BytesView bytes) {
    ids += idblind::id_at(bytes, slp::kXidSpan);
  };
  for (const Bytes& query : queries) {
    ASSERT_TRUE(
        dir.replay_answer(SdpId::kSlp, query, slp::kXidSpan, at_s(1), read_id));
  }
  ids = 0;
  std::uint64_t before = indiss::testing::g_heap_allocs;
  for (int round = 0; round < 4; ++round) {
    for (const Bytes& query : queries) {
      ASSERT_TRUE(dir.replay_answer(SdpId::kSlp, query, slp::kXidSpan, at_s(2),
                                    read_id));
    }
  }
  EXPECT_EQ(indiss::testing::g_heap_allocs - before, 0u)
      << "a warm id-varying replay must not allocate";
  std::uint64_t expected = 0;
  for (std::uint16_t xid = 2; xid < 2 + 64; ++xid) expected += xid;
  EXPECT_EQ(ids, 4 * expected) << "every replay must carry its query's XID";
}

// --- End-to-end --------------------------------------------------------------

/// Regression: bridged state used to expire only on sweep-on-touch — a
/// unit that never received another message after the deadline kept its
/// foreign-service mirror forever. The gateway's timer sweep must age it out
/// with NO inbound traffic after the advertisement, in the default
/// configuration.
TEST(DirectoryEndToEnd, IdleUnitBridgedStateExpiresWithoutFurtherTraffic) {
  sim::Scheduler scheduler;
  net::Network network{scheduler, net::LinkProfile{}, 17};
  net::Host& gateway = network.add_host("gw", net::IpAddress(10, 0, 0, 3));
  net::Host& service = network.add_host("svc", net::IpAddress(10, 0, 0, 2));

  IndissConfig config;
  config.enabled_sdps = {SdpId::kSlp, SdpId::kMdns};
  Indiss indiss(gateway, config);
  indiss.start();
  scheduler.run_for(sim::millis(10));

  // One SLP registration with a 30-second lifetime, bridged into the mDNS
  // unit's foreign-service mirror...
  slp::SrvReg reg;
  reg.url_entry = {30, "service:clock:soap://10.0.0.2:4005/idle-clock"};
  reg.service_type = "service:clock";
  reg.attr_list = "(friendlyName=Idle Clock)";
  auto announcer = service.udp_socket(0);
  announcer->send_to(net::Endpoint{slp::kSlpMulticastGroup, slp::kSlpPort},
                     slp::encode(slp::Message(reg)));
  scheduler.run_for(sim::seconds(2));

  auto* mdns_unit = indiss.unit_as<MdnsUnit>(SdpId::kMdns);
  ASSERT_NE(mdns_unit, nullptr);
  ASSERT_EQ(mdns_unit->foreign_services().size(), 1u);

  // ...then total silence. Only the scheduler advances: past the 30s
  // lifetime plus the sweep period the mirror must be empty.
  scheduler.run_for(sim::seconds(60));
  EXPECT_TRUE(mdns_unit->foreign_services().empty())
      << "idle unit kept TTL-expired bridged state: the timer sweep did not "
         "run";
  EXPECT_GE(mdns_unit->stats().bridged_state_expired, 1u);
  indiss.stop();
}

namespace e2e {

constexpr std::string_view kClockUrl = "soap://10.0.0.2:4005/mdns-clock";
/// What the SLP composer puts on the wire: it always prefixes
/// "service:<type>:" — bridged and directory-answered replies alike.
constexpr std::string_view kSlpReplyUrl =
    "service:clock:soap://10.0.0.2:4005/mdns-clock";

mdns::ServiceInstance clock_instance() {
  mdns::ServiceInstance instance;
  instance.instance = "clock1";
  instance.service_type = "_clock._tcp";
  instance.port = 4005;
  instance.txt = {{"url", std::string(kClockUrl)}};
  return instance;
}

Bytes clock_query(std::uint16_t xid) {
  slp::SrvRqst request;
  request.header.xid = xid;
  request.service_type = "service:clock";
  return slp::encode(slp::Message(request));
}

/// URLs listed in a captured SrvRply, empty when the bytes are not one.
std::vector<std::string> rply_urls(const Bytes& payload) {
  std::vector<std::string> urls;
  auto message = slp::decode(payload);
  if (!message.has_value()) return urls;
  if (const auto* rply = std::get_if<slp::SrvRply>(&*message)) {
    for (const auto& entry : rply->url_entries) urls.push_back(entry.url);
  }
  return urls;
}

}  // namespace e2e

/// A native mDNS announcement indexes the service; an SLP browse is answered
/// by the gateway (SLP DA role) from the index; the goodbye tombstones the
/// record so the withdrawn service is never answered again.
TEST(DirectoryEndToEnd, SlpBrowseAnsweredFromIndexUntilByebyeTombstones) {
  sim::Scheduler scheduler;
  net::Network network{scheduler, net::LinkProfile{}, 23};
  net::Host& gateway = network.add_host("gw", net::IpAddress(10, 0, 0, 3));
  net::Host& service = network.add_host("svc", net::IpAddress(10, 0, 0, 2));
  net::Host& client = network.add_host("client", net::IpAddress(10, 0, 0, 9));

  IndissConfig config;
  config.enabled_sdps = {SdpId::kSlp, SdpId::kMdns};
  config.enable_directory = true;
  Indiss indiss(gateway, config);
  indiss.start();
  scheduler.run_for(sim::millis(10));

  mdns::MdnsResponder responder(service);
  responder.publish(e2e::clock_instance());
  scheduler.run_for(sim::seconds(3));
  ASSERT_NE(indiss.directory()->find(e2e::kClockUrl), nullptr)
      << "the bridged announcement must populate the index";

  auto requester = client.udp_socket(0);
  std::vector<Bytes> replies;
  requester->set_receive_handler(
      [&](const net::Datagram& d) { replies.push_back(d.payload); });
  requester->send_to(net::Endpoint{slp::kSlpMulticastGroup, slp::kSlpPort},
                     e2e::clock_query(77));
  scheduler.run_for(sim::seconds(2));

  ASSERT_EQ(replies.size(), 1u);
  auto urls = e2e::rply_urls(replies[0]);
  ASSERT_EQ(urls.size(), 1u);
  EXPECT_EQ(urls[0], e2e::kSlpReplyUrl);
  EXPECT_EQ(indiss.directory()->stats(SdpId::kSlp).answered, 1u);

  // Goodbye: TTL-0 records withdraw the instance everywhere at once.
  responder.goodbye();
  scheduler.run_for(sim::seconds(2));
  EXPECT_EQ(indiss.directory()->find(e2e::kClockUrl), nullptr);
  EXPECT_GE(indiss.directory()->stats(SdpId::kMdns).withdrawals, 1u);

  // The repeat browse must not be answered from the index: whatever the
  // bridged path now produces, the withdrawn URL never appears.
  replies.clear();
  requester->send_to(net::Endpoint{slp::kSlpMulticastGroup, slp::kSlpPort},
                     e2e::clock_query(78));
  scheduler.run_for(sim::seconds(3));
  for (const auto& payload : replies) {
    for (const auto& url : e2e::rply_urls(payload)) {
      EXPECT_EQ(url.find("mdns-clock"), std::string::npos)
          << "withdrawn service answered after byebye: " << url;
    }
  }
  EXPECT_EQ(indiss.directory()->stats(SdpId::kSlp).answered, 1u)
      << "only the pre-byebye browse may be answered from the index";
  indiss.stop();
}

/// Successive answers each list exactly the records indexed at that moment,
/// each URL with its own attributes, whether the answer grows or shrinks.
TEST(DirectoryEndToEnd, SuccessiveAnswersListExactlyTheCurrentRecords) {
  sim::Scheduler scheduler;
  net::Network network{scheduler, net::LinkProfile{}, 31};
  net::Host& gateway = network.add_host("gw", net::IpAddress(10, 0, 0, 3));
  net::Host& service = network.add_host("svc", net::IpAddress(10, 0, 0, 2));
  net::Host& client = network.add_host("client", net::IpAddress(10, 0, 0, 9));

  IndissConfig config;
  config.enabled_sdps = {SdpId::kSlp, SdpId::kMdns};
  config.enable_directory = true;
  Indiss indiss(gateway, config);
  indiss.start();
  scheduler.run_for(sim::millis(10));

  auto announcer = service.udp_socket(0);
  const net::Endpoint slp_group{slp::kSlpMulticastGroup, slp::kSlpPort};
  auto url_of = [](std::string_view name) {
    return "service:clock:soap://10.0.0.2:4005/" + std::string(name);
  };
  auto reg = [&](std::string_view name, std::string_view attrs) {
    slp::SrvReg message;
    message.url_entry = {600, url_of(name)};
    message.service_type = "service:clock";
    message.attr_list = std::string(attrs);
    announcer->send_to(slp_group, slp::encode(slp::Message(message)));
    scheduler.run_for(sim::millis(500));
  };
  auto dereg = [&](std::string_view name) {
    slp::SrvDeReg message;
    message.url_entry = {0, url_of(name)};
    announcer->send_to(slp_group, slp::encode(slp::Message(message)));
    scheduler.run_for(sim::millis(500));
  };
  auto requester = client.udp_socket(0);
  std::vector<Bytes> replies;
  requester->set_receive_handler(
      [&](const net::Datagram& d) { replies.push_back(d.payload); });
  std::uint16_t xid = 100;
  auto browse = [&]() {
    replies.clear();
    requester->send_to(slp_group, e2e::clock_query(xid++));
    scheduler.run_for(sim::seconds(1));
    EXPECT_EQ(replies.size(), 1u);
    std::vector<std::string> urls =
        replies.empty() ? std::vector<std::string>{}
                        : e2e::rply_urls(replies[0]);
    std::sort(urls.begin(), urls.end());
    return urls;
  };
  // The index keeps the access URL; the reply prefixes the type once.
  auto listed = [&](std::string_view name, std::string_view attrs) {
    return url_of(name) + std::string(attrs);
  };

  reg("a", "(room=hall)");
  reg("b", "");
  reg("c", "(room=lab),(floor=2)");
  EXPECT_EQ(browse(), (std::vector<std::string>{
                          listed("a", ";room:\"hall\""), listed("b", ""),
                          listed("c", ";room:\"lab\";floor:\"2\"")}));
  dereg("a");
  dereg("c");
  EXPECT_EQ(browse(), (std::vector<std::string>{listed("b", "")}));
  reg("d", "(friendlyName=Long Named Corridor Clock)");
  reg("a", "(room=hall)");
  EXPECT_EQ(browse(),
            (std::vector<std::string>{
                listed("a", ";room:\"hall\""), listed("b", ""),
                listed("d", ";friendlyName:\"Long Named Corridor Clock\"")}));
  EXPECT_EQ(indiss.directory()->stats(SdpId::kSlp).answered, 3u);
  indiss.stop();
}

/// The acceptance storm: repeated identical browses are answered from the
/// index (>=95%) with zero query frames reaching the origin mDNS network.
TEST(DirectoryEndToEnd, RepeatedBrowseStormIsAnsweredWithZeroOriginFrames) {
  sim::Scheduler scheduler;
  net::Network network{scheduler, net::LinkProfile{}, 29};
  net::Host& gateway = network.add_host("gw", net::IpAddress(10, 0, 0, 3));
  net::Host& service = network.add_host("svc", net::IpAddress(10, 0, 0, 2));
  net::Host& client = network.add_host("client", net::IpAddress(10, 0, 0, 9));
  net::Host& observer = network.add_host("obs", net::IpAddress(10, 0, 0, 8));

  IndissConfig config;
  config.enabled_sdps = {SdpId::kSlp, SdpId::kMdns};
  config.enable_directory = true;
  Indiss indiss(gateway, config);
  indiss.start();
  scheduler.run_for(sim::millis(10));

  mdns::MdnsResponder responder(service);
  responder.publish(e2e::clock_instance());
  scheduler.run_for(sim::seconds(3));
  ASSERT_NE(indiss.directory()->find(e2e::kClockUrl), nullptr);

  // Every DNS *question* on the origin group from here on is an escape: a
  // browse the gateway translated out instead of answering.
  auto origin_listener = observer.udp_socket(5353);
  origin_listener->join_group(net::IpAddress(224, 0, 0, 251));
  std::size_t origin_queries = 0;
  origin_listener->set_receive_handler([&](const net::Datagram& d) {
    auto message = mdns::decode(d.payload);
    if (message.has_value() && !message->is_response()) origin_queries += 1;
  });

  auto requester = client.udp_socket(0);
  std::vector<Bytes> replies;
  requester->set_receive_handler(
      [&](const net::Datagram& d) { replies.push_back(d.payload); });

  const int kQueries = 40;
  Bytes query = e2e::clock_query(1234);  // byte-identical repeats
  for (int i = 0; i < kQueries; ++i) {
    requester->send_to(net::Endpoint{slp::kSlpMulticastGroup, slp::kSlpPort},
                       query);
    scheduler.run_for(sim::millis(500));
  }

  ASSERT_EQ(replies.size(), static_cast<std::size_t>(kQueries));
  for (const auto& payload : replies) {
    EXPECT_EQ(payload, replies.front())
        << "replayed answers must be byte-identical to the composed one";
  }
  auto urls = e2e::rply_urls(replies.front());
  ASSERT_EQ(urls.size(), 1u);
  EXPECT_EQ(urls[0], e2e::kSlpReplyUrl);

  const auto& stats = indiss.directory()->stats(SdpId::kSlp);
  EXPECT_GE(stats.answered, static_cast<std::uint64_t>(kQueries * 95 / 100));
  EXPECT_EQ(stats.answered + stats.bridged,
            static_cast<std::uint64_t>(kQueries));
  EXPECT_EQ(origin_queries, 0u)
      << "an answered browse must cost the origin network zero frames";
  // All repeats after the first replay straight from the answer cache —
  // no session, no parse, no compose.
  EXPECT_GE(indiss.directory()->answer_replays(),
            static_cast<std::uint64_t>(kQueries - 1));
  EXPECT_LE(indiss.unit(SdpId::kSlp)->stats().messages_composed, 2u);
  indiss.stop();
}

/// A replayed answer keeps the pacing of the composed one: a browse that
/// crossed the shared medium is answered the SDP's pacing after it reached
/// the gateway, whether the answer is composed or replayed with a new id, and
/// whichever requester the stored answer was composed for. A requester on the
/// gateway's own host is answered at once either way.
TEST(DirectoryEndToEnd, ReplayedNetworkBrowseIsPacedLikeTheComposedOne) {
  sim::Scheduler scheduler;
  net::Network network{scheduler, net::LinkProfile{}, 37};
  net::Host& gateway = network.add_host("gw", net::IpAddress(10, 0, 0, 3));
  net::Host& service = network.add_host("svc", net::IpAddress(10, 0, 0, 2));
  net::Host& client = network.add_host("client", net::IpAddress(10, 0, 0, 9));
  net::Host& other_client =
      network.add_host("client2", net::IpAddress(10, 0, 0, 10));

  IndissConfig config;
  config.enabled_sdps = {SdpId::kSlp, SdpId::kUpnp, SdpId::kMdns};
  config.enable_directory = true;
  Indiss indiss(gateway, config);
  indiss.start();
  scheduler.run_for(sim::millis(10));
  auto announcer = service.udp_socket(0);
  for (const char* type : {"clock", "printer"}) {
    announcer->send_to(net::Endpoint{slp::kSlpMulticastGroup, slp::kSlpPort},
                       idblind::slp_registration(type, type, 600));
  }
  scheduler.run_for(sim::seconds(1));

  /// Sends `query` from `from` to `group` and returns how long the one
  /// reply took to arrive.
  auto answer_delay = [&](net::UdpSocket& from, const net::Endpoint& group,
                          const Bytes& query) {
    sim::SimTime sent = scheduler.now();
    std::vector<sim::SimTime> arrivals;
    from.set_receive_handler(
        [&](const net::Datagram&) { arrivals.push_back(scheduler.now()); });
    from.send_to(group, query);
    scheduler.run_for(sim::seconds(1));
    EXPECT_EQ(arrivals.size(), 1u);
    return arrivals.empty() ? sim::SimTime::max() - sent
                            : arrivals.front() - sent;
  };
  const net::Endpoint mdns_group{mdns::kMdnsGroup, mdns::kMdnsPort};
  const net::Endpoint ssdp_group{upnp::kSsdpMulticastGroup, upnp::kSsdpPort};
  auto remote = client.udp_socket(7000);
  auto local = gateway.udp_socket(7001);
  auto second = other_client.udp_socket(7002);

  auto browse = answer_delay(*remote, mdns_group, idblind::mdns_query(1));
  EXPECT_GE(browse, sim::millis(20));
  EXPECT_EQ(answer_delay(*remote, mdns_group, idblind::mdns_query(2)), browse);
  EXPECT_EQ(answer_delay(*second, mdns_group, idblind::mdns_query(3)), browse)
      << "a second requester's replay is paced by its own arrival";

  auto search =
      answer_delay(*remote, ssdp_group, idblind::ssdp_search("clock"));
  EXPECT_GE(search, sim::millis(30));
  EXPECT_EQ(answer_delay(*remote, ssdp_group, idblind::ssdp_search("clock")),
            search);
  EXPECT_EQ(answer_delay(*second, ssdp_group, idblind::ssdp_search("clock")),
            search);

  // The clock answer was composed for a paced requester; the printer one is
  // composed for the local requester.
  EXPECT_LT(answer_delay(*local, mdns_group, idblind::mdns_query(4)),
            sim::millis(20));
  const std::string printer = "_printer._tcp.local";
  EXPECT_LT(answer_delay(*local, mdns_group, idblind::mdns_query(5, printer)),
            sim::millis(20));
  EXPECT_GE(answer_delay(*remote, mdns_group, idblind::mdns_query(6, printer)),
            sim::millis(20));
  EXPECT_EQ(indiss.directory()->answer_replays(), 6u);
  indiss.stop();
}

/// Directory mode announces the gateway as an SLP DA so native UAs can
/// switch to unicast repository lookups (paper's DA role).
TEST(DirectoryEndToEnd, DirectoryModeMulticastsAnSlpDaAdvert) {
  sim::Scheduler scheduler;
  net::Network network{scheduler, net::LinkProfile{}, 31};
  net::Host& gateway = network.add_host("gw", net::IpAddress(10, 0, 0, 3));
  net::Host& observer = network.add_host("obs", net::IpAddress(10, 0, 0, 8));

  auto slp_listener = observer.udp_socket(slp::kSlpPort);
  slp_listener->join_group(slp::kSlpMulticastGroup);
  std::size_t da_adverts = 0;
  slp_listener->set_receive_handler([&](const net::Datagram& d) {
    auto message = slp::decode(d.payload);
    if (message.has_value() &&
        std::holds_alternative<slp::DAAdvert>(*message)) {
      da_adverts += 1;
    }
  });

  IndissConfig config;
  config.enabled_sdps = {SdpId::kSlp, SdpId::kMdns};
  config.enable_directory = true;
  Indiss indiss(gateway, config);
  indiss.start();
  scheduler.run_for(sim::seconds(2));
  EXPECT_GE(da_adverts, 1u);
  indiss.stop();

  // Without directory mode the gateway must stay silent on the SLP group.
  da_adverts = 0;
  IndissConfig off_config;
  off_config.enabled_sdps = {SdpId::kSlp, SdpId::kMdns};
  Indiss off(gateway, off_config);
  off.start();
  scheduler.run_for(sim::seconds(2));
  EXPECT_EQ(da_adverts, 0u);
  off.stop();
}

/// RFC 2608 §8.1: an agent named in a SrvRqst's previous-responder list
/// must not answer it again. A list naming the gateway (10.0.0.3) gets no
/// reply, from the directory or over the bridge; a list naming another
/// address still gets one.
TEST(DirectoryEndToEnd, SrvRqstListingTheGatewayGetsNoReply) {
  using idblind::slp_query;
  {
    SCOPED_TRACE("directory path");
    idblind::DirectoryRig rig(idblind::kDefaultAnswers);
    rig.write(idblind::slp_registration("clock", "c1", 600));
    rig.ask(SdpId::kSlp, 0,
            slp_query(1, "service:clock", "DEFAULT", "10.0.0.3"));
    rig.ask(SdpId::kSlp, 0,
            slp_query(2, "service:clock", "DEFAULT", "10.0.0.7, 10.0.0.3"));
    EXPECT_TRUE(rig.replies.empty());
    rig.ask(SdpId::kSlp, 0,
            slp_query(3, "service:clock", "DEFAULT", "10.0.0.7"));
    EXPECT_EQ(rig.replies.size(), 1u);
    EXPECT_EQ(rig.directory->stats(SdpId::kSlp).answered, 1u);
  }
  {
    SCOPED_TRACE("bridged path");
    sim::Scheduler scheduler;
    net::Network network{scheduler, net::LinkProfile{}, 29};
    net::Host& gateway = network.add_host("gw", net::IpAddress(10, 0, 0, 3));
    net::Host& service = network.add_host("svc", net::IpAddress(10, 0, 0, 2));
    net::Host& client = network.add_host("client", net::IpAddress(10, 0, 0, 9));
    IndissConfig config;
    config.enabled_sdps = {SdpId::kSlp, SdpId::kMdns};
    Indiss indiss(gateway, config);
    indiss.start();
    mdns::MdnsResponder responder(service);
    responder.publish(e2e::clock_instance());
    scheduler.run_for(sim::seconds(3));

    auto requester = client.udp_socket(0);
    std::vector<Bytes> replies;
    requester->set_receive_handler(
        [&](const net::Datagram& d) { replies.push_back(d.payload); });
    auto ask = [&](std::uint16_t xid, std::string_view prlist) {
      replies.clear();
      requester->send_to(net::Endpoint{slp::kSlpMulticastGroup, slp::kSlpPort},
                         slp_query(xid, "service:clock", "DEFAULT", prlist));
      scheduler.run_for(sim::seconds(2));
      return replies.size();
    };
    EXPECT_EQ(ask(1, "10.0.0.3"), 0u);
    EXPECT_EQ(ask(2, "10.0.0.3,10.0.0.7"), 0u);
    ASSERT_EQ(ask(3, "10.0.0.7"), 1u);
    EXPECT_EQ(e2e::rply_urls(replies[0]),
              std::vector<std::string>{std::string(e2e::kSlpReplyUrl)});
    indiss.stop();
  }
}

/// A UPnP device announces itself as a burst of NOTIFYs, one per NT, all
/// naming one LOCATION: one store record. A cache hit on each variant
/// re-arms that record, so repeats of only the rootdevice and uuid: variants,
/// which come before the device-type NOTIFY that creates the record, keep it
/// alive (and answerable) past its first deadline.
TEST(DirectoryEndToEnd, CacheHitsOnEveryAliveVariantReArmTheOneRecord) {
  sim::Scheduler scheduler;
  net::Network network{scheduler, net::LinkProfile{}, 37};
  net::Host& gateway = network.add_host("gw", net::IpAddress(10, 0, 0, 3));
  net::Host& device = network.add_host("dev", net::IpAddress(10, 0, 0, 2));

  IndissConfig config;
  config.enabled_sdps = {SdpId::kSlp, SdpId::kUpnp};
  config.enable_directory = true;
  Indiss indiss(gateway, config);
  indiss.start();
  scheduler.run_for(sim::millis(10));

  const std::string location = "http://10.0.0.2:4004/description.xml";
  std::vector<Bytes> burst;
  for (const char* nt :
       {"upnp:rootdevice", "uuid:burst-clock",
        "urn:schemas-upnp-org:device:clock:1",
        "urn:schemas-upnp-org:service:timer:1"}) {
    upnp::Notify alive;
    alive.nt = nt;
    alive.usn = std::string("uuid:burst-clock::") + nt;
    alive.location = location;
    alive.max_age_seconds = 60;
    burst.push_back(upnp::encode(alive));
  }
  auto socket = device.udp_socket(0);
  auto announce = [&](std::size_t variants) {
    for (std::size_t i = 0; i < variants; ++i) {
      socket->send_to(net::Endpoint{upnp::kSsdpMulticastGroup, upnp::kSsdpPort},
                      burst[i]);
    }
  };
  // The first burst creates the record; the variants ahead of the
  // device-type one found none to carry, so the second burst translates
  // them again, and from the third on every variant replays.
  for (int round = 0; round < 2; ++round) {
    announce(burst.size());
    scheduler.run_for(sim::seconds(1));
  }
  ASSERT_NE(indiss.directory()->find(location), nullptr);
  const std::uint64_t warm =
      indiss.monitor().translation_stats(SdpId::kUpnp).hits;
  announce(burst.size());
  scheduler.run_for(sim::seconds(1));
  const std::uint64_t hits =
      indiss.monitor().translation_stats(SdpId::kUpnp).hits;
  ASSERT_EQ(hits, warm + burst.size()) << "every variant must replay";

  // Three minutes of only the rootdevice and uuid: NOTIFYs, every 30 s:
  // three times the record's 60 s lifetime.
  constexpr std::size_t kLeading = 2;
  for (int period = 0; period < 6; ++period) {
    scheduler.run_for(sim::seconds(30));
    announce(kLeading);
  }
  scheduler.run_for(sim::seconds(1));
  EXPECT_EQ(indiss.monitor().translation_stats(SdpId::kUpnp).hits,
            hits + 6 * kLeading)
      << "every repeat must be a cache hit";
  EXPECT_NE(indiss.directory()->find(location), nullptr)
      << "the record expired under its live device";
  EXPECT_TRUE(indiss.directory()->has_fresh("clock", gateway.now()));
  EXPECT_EQ(indiss.unit(SdpId::kSlp)->foreign_services().size(), 1u);
  indiss.stop();
}

/// A directory answer is composed from the store, so it is no sign of life:
/// an SLP service that registers once and falls silent leaves the store at
/// its lifetime, however often fresh UPnP control points search its type
/// meanwhile, and searches after that get no answer.
TEST(DirectoryEndToEnd, DirectoryAnswersDoNotKeepASilentServiceAlive) {
  sim::Scheduler scheduler;
  net::Network network{scheduler, net::LinkProfile{}, 43};
  net::Host& gateway = network.add_host("gw", net::IpAddress(10, 0, 0, 3));
  net::Host& service = network.add_host("svc", net::IpAddress(10, 0, 0, 2));
  net::Host& client = network.add_host("client", net::IpAddress(10, 0, 0, 9));

  IndissConfig config;
  config.enabled_sdps = {SdpId::kSlp, SdpId::kUpnp};
  config.enable_directory = true;
  Indiss indiss(gateway, config);
  indiss.start();
  scheduler.run_for(sim::millis(10));

  // The SLP unit keys the record on the URL without its "service:clock:".
  const std::string url = "soap://10.0.0.2:4005/silent";
  auto announcer = service.udp_socket(0);
  announcer->send_to(net::Endpoint{slp::kSlpMulticastGroup, slp::kSlpPort},
                     idblind::slp_registration("clock", "silent", 60));
  scheduler.run_for(sim::seconds(1));
  ASSERT_NE(indiss.directory()->find(url), nullptr);

  // A fresh control point every 20 s, so no search replays a cached
  // answer: each one that finds the record re-composes from it.
  std::vector<std::shared_ptr<net::UdpSocket>> control_points;
  auto search = [&]() {
    auto& socket = control_points.emplace_back(client.udp_socket(0));
    std::size_t replies = 0;
    socket->set_receive_handler([&replies](const net::Datagram&) {
      replies += 1;
    });
    socket->send_to(net::Endpoint{upnp::kSsdpMulticastGroup, upnp::kSsdpPort},
                    idblind::ssdp_search("clock"));
    scheduler.run_for(sim::seconds(5));
    socket->set_receive_handler(nullptr);
    scheduler.run_for(sim::seconds(15));
    return replies;
  };
  for (int i = 0; i < 3; ++i) {  // t = 1, 21, 41: within the lifetime
    EXPECT_EQ(search(), 1u) << "search " << i;
  }
  EXPECT_EQ(indiss.directory()->stats(SdpId::kUpnp).answered, 3u);
  for (int i = 3; i < 9; ++i) {  // t = 61 .. 161
    EXPECT_EQ(search(), 0u) << "search " << i << " answered a dead service";
  }
  EXPECT_EQ(indiss.directory()->find(url), nullptr)
      << "the directory's own answers re-armed the record";
  EXPECT_GT(indiss.directory()->records_expired(), 0u);
  indiss.stop();
}

}  // namespace
}  // namespace indiss::core
