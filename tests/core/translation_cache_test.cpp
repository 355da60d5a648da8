// TranslationCache tests: hit/miss and the settle window, byte verification,
// negative entries, first-pass protection, LRU eviction, generation-based
// invalidation, and the end-to-end short-circuit — a storm of byte-identical
// SSDP alives through a gateway Indiss replays the bridged mDNS announcement
// without re-running the translation pipeline. A differential test pins the
// O(1) LRU-list eviction to the linear scan it replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>

#include "core/indiss.hpp"
#include "core/translation_cache.hpp"
#include "mdns/dns.hpp"
#include "net/host.hpp"
#include "net/udp.hpp"
#include "net/network.hpp"
#include "sim/scheduler.hpp"
#include "slp/agents.hpp"
#include "slp/wire.hpp"
#include "upnp/ssdp.hpp"

namespace indiss::core {
namespace {

Bytes wire_bytes(std::string_view text) {
  return Bytes(text.begin(), text.end());
}

sim::SimTime at_ms(std::int64_t ms) { return sim::SimTime(sim::millis(ms)); }

struct CacheFixture : ::testing::Test {
  sim::Scheduler scheduler;
  net::Network network{scheduler, net::LinkProfile{}, 3};
  net::Host& host = network.add_host("gw", net::IpAddress(10, 0, 0, 5));

  TranslationCache::Frame frame_to(std::shared_ptr<net::UdpSocket> socket,
                                   const net::Endpoint& to,
                                   std::string_view payload) {
    TranslationCache::Frame frame;
    frame.socket = std::move(socket);
    frame.to = to;
    frame.payload = std::make_shared<const Bytes>(wire_bytes(payload));
    return frame;
  }
};

TEST_F(CacheFixture, MissThenHitAfterSettle) {
  TranslationCache cache({.max_entries = 8, .settle = sim::millis(200)});
  Bytes wire = wire_bytes("NOTIFY alive #1");

  EXPECT_EQ(cache.lookup(SdpId::kUpnp, wire, at_ms(0)), nullptr);
  EXPECT_EQ(cache.stats(SdpId::kUpnp).misses, 1u);

  cache.open_bundle(SdpId::kUpnp, wire, /*origin_session=*/7, at_ms(0));
  auto socket = host.udp_socket(0);
  cache.add_frame(SdpId::kUpnp, 7,
                  frame_to(socket, net::Endpoint{net::IpAddress(224, 0, 0, 251),
                                                 5353},
                           "composed mdns announce"));

  // Inside the settle window the bundle is not replayable yet.
  EXPECT_EQ(cache.lookup(SdpId::kUpnp, wire, at_ms(100)), nullptr);
  EXPECT_EQ(cache.stats(SdpId::kUpnp).misses, 2u);

  const auto* bundle = cache.lookup(SdpId::kUpnp, wire, at_ms(300));
  ASSERT_NE(bundle, nullptr);
  EXPECT_EQ(bundle->frames.size(), 1u);
  EXPECT_EQ(cache.stats(SdpId::kUpnp).hits, 1u);

  cache.replay(SdpId::kUpnp, *bundle);
  EXPECT_EQ(cache.stats(SdpId::kUpnp).frames_replayed, 1u);
}

TEST_F(CacheFixture, DifferentBytesOfSameSourceMiss) {
  TranslationCache cache({.max_entries = 8, .settle = sim::millis(0)});
  Bytes alive = wire_bytes("NOTIFY alive");
  cache.open_bundle(SdpId::kUpnp, alive, 1, at_ms(0));
  ASSERT_NE(cache.lookup(SdpId::kUpnp, alive, at_ms(1)), nullptr);
  // Same length, different bytes: must not collide.
  EXPECT_EQ(cache.lookup(SdpId::kUpnp, wire_bytes("NOTIFY ALIVE"), at_ms(1)),
            nullptr);
  // Same bytes, different source SDP: a distinct key.
  EXPECT_EQ(cache.lookup(SdpId::kSlp, alive, at_ms(1)), nullptr);
}

TEST_F(CacheFixture, EmptyBundleIsANegativeHit) {
  TranslationCache cache({.max_entries = 8, .settle = sim::millis(0)});
  Bytes wire = wire_bytes("advert nobody translated");
  cache.open_bundle(SdpId::kSlp, wire, 1, at_ms(0));
  const auto* bundle = cache.lookup(SdpId::kSlp, wire, at_ms(1));
  ASSERT_NE(bundle, nullptr);
  EXPECT_TRUE(bundle->frames.empty());
  cache.replay(SdpId::kSlp, *bundle);  // replaying silence is a no-op
  EXPECT_EQ(cache.stats(SdpId::kSlp).frames_replayed, 0u);
}

TEST_F(CacheFixture, ReopeningInsideGenerationKeepsFirstPassFrames) {
  TranslationCache cache({.max_entries = 8, .settle = sim::millis(0)});
  Bytes wire = wire_bytes("NOTIFY alive");
  auto socket = host.udp_socket(0);
  net::Endpoint to{net::IpAddress(224, 0, 0, 251), 5353};

  cache.open_bundle(SdpId::kUpnp, wire, 1, at_ms(0));
  cache.add_frame(SdpId::kUpnp, 1, frame_to(socket, to, "first"));

  // A repeat parsed before the settle deadline re-opens the same bundle; the
  // collected frame must survive and the second session must not duplicate.
  cache.open_bundle(SdpId::kUpnp, wire, 2, at_ms(1));
  cache.add_frame(SdpId::kUpnp, 2, frame_to(socket, to, "second"));

  const auto* bundle = cache.lookup(SdpId::kUpnp, wire, at_ms(10));
  ASSERT_NE(bundle, nullptr);
  ASSERT_EQ(bundle->frames.size(), 1u);
  EXPECT_EQ(to_string(*bundle->frames[0].payload), "first");
}

TEST_F(CacheFixture, GenerationBumpInvalidatesAndRecyclesSlots) {
  TranslationCache cache({.max_entries = 8, .settle = sim::millis(0)});
  Bytes wire = wire_bytes("NOTIFY alive");
  auto socket = host.udp_socket(0);
  net::Endpoint to{net::IpAddress(224, 0, 0, 251), 5353};

  cache.open_bundle(SdpId::kUpnp, wire, 1, at_ms(0));
  cache.add_frame(SdpId::kUpnp, 1, frame_to(socket, to, "old world"));
  ASSERT_NE(cache.lookup(SdpId::kUpnp, wire, at_ms(1)), nullptr);

  cache.bump_generation();  // e.g. a byebye or unit attach/detach
  EXPECT_EQ(cache.lookup(SdpId::kUpnp, wire, at_ms(2)), nullptr);
  // Late frames tagged for the stale bundle must not land.
  cache.add_frame(SdpId::kUpnp, 1, frame_to(socket, to, "stale straggler"));

  // Re-translation under the new generation starts a fresh bundle in place.
  cache.open_bundle(SdpId::kUpnp, wire, 9, at_ms(3));
  cache.add_frame(SdpId::kUpnp, 9, frame_to(socket, to, "new world"));
  const auto* bundle = cache.lookup(SdpId::kUpnp, wire, at_ms(4));
  ASSERT_NE(bundle, nullptr);
  ASSERT_EQ(bundle->frames.size(), 1u);
  EXPECT_EQ(to_string(*bundle->frames[0].payload), "new world");
}

TEST_F(CacheFixture, LruEvictionDropsTheColdestBundle) {
  TranslationCache cache({.max_entries = 2, .settle = sim::millis(0)});
  Bytes a = wire_bytes("advert A");
  Bytes b = wire_bytes("advert B");
  Bytes c = wire_bytes("advert C");

  cache.open_bundle(SdpId::kUpnp, a, 1, at_ms(0));
  cache.open_bundle(SdpId::kUpnp, b, 2, at_ms(0));
  ASSERT_EQ(cache.size(), 2u);

  // Touch A so B becomes the LRU victim.
  ASSERT_NE(cache.lookup(SdpId::kUpnp, a, at_ms(1)), nullptr);
  cache.open_bundle(SdpId::kUpnp, c, 3, at_ms(2));

  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_NE(cache.lookup(SdpId::kUpnp, a, at_ms(3)), nullptr);
  EXPECT_NE(cache.lookup(SdpId::kUpnp, c, at_ms(3)), nullptr);
  EXPECT_EQ(cache.lookup(SdpId::kUpnp, b, at_ms(3)), nullptr);
}

TEST_F(CacheFixture, DiscardDropsTheBundlesOpenSession) {
  // A bundle discarded before its session settled (its store record left)
  // takes the session with it: a late frame of that session must not land
  // in the bundle the same wire re-opens for its next translation.
  TranslationCache cache({.max_entries = 8, .settle = sim::millis(0)});
  Bytes wire = wire_bytes("advert 0");
  auto socket = host.udp_socket(0);
  const net::Endpoint group{net::IpAddress(224, 0, 0, 251), 5353};

  cache.open_bundle(SdpId::kUpnp, wire, /*origin_session=*/1, at_ms(0));
  const auto* bundle = cache.lookup(SdpId::kUpnp, wire, at_ms(0));
  ASSERT_NE(bundle, nullptr);
  cache.discard(SdpId::kUpnp, *bundle);
  cache.open_bundle(SdpId::kUpnp, wire, /*origin_session=*/2, at_ms(0));
  cache.add_frame(SdpId::kUpnp, 1, frame_to(socket, group, "late frame"));
  cache.add_frame(SdpId::kUpnp, 2, frame_to(socket, group, "fresh frame"));

  bundle = cache.lookup(SdpId::kUpnp, wire, at_ms(1));
  ASSERT_NE(bundle, nullptr);
  ASSERT_EQ(bundle->frames.size(), 1u);
  EXPECT_EQ(*bundle->frames[0].payload, wire_bytes("fresh frame"));
}

TEST_F(CacheFixture, ABurstAsLargeAsTheCacheKeepsEveryBundle) {
  // The open-session ring is as large as the cache: a burst of max_entries
  // distinct adverts in one instant keeps every session, so every bundle
  // gets its frame and replays it.
  TranslationCache cache({.max_entries = 256, .settle = sim::millis(200)});
  auto socket = host.udp_socket(0);
  const net::Endpoint group{net::IpAddress(224, 0, 0, 251), 5353};
  for (int i = 0; i < 256; ++i) {
    cache.open_bundle(SdpId::kUpnp, wire_bytes("advert " + std::to_string(i)),
                      static_cast<std::uint64_t>(i), at_ms(0));
  }
  for (int i = 0; i < 256; ++i) {
    cache.add_frame(SdpId::kUpnp, static_cast<std::uint64_t>(i),
                    frame_to(socket, group, "frame " + std::to_string(i)));
  }
  for (int i = 0; i < 256; ++i) {
    const auto* bundle = cache.lookup(
        SdpId::kUpnp, wire_bytes("advert " + std::to_string(i)), at_ms(300));
    ASSERT_NE(bundle, nullptr) << i;
    ASSERT_EQ(bundle->frames.size(), 1u) << i;
  }
}

TEST_F(CacheFixture, SustainedMissCyclesAfterGenerationBumpRecover) {
  // Regression: open sessions used to be retired only by a 64-slot ring's
  // overflow, which erased the session's cache entry with it. One full-miss
  // re-translation cycle after a generation bump then pushed fleet-many new
  // sessions on top of the fleet-many stale ones, wrapped the ring, and the
  // overflow erased the freshly re-opened *live* bundles — whose repeats
  // missed and pushed again: permanent cache collapse for any fleet with
  // more than 32 distinct wires. Settled/stale sessions are pruned instead.
  TranslationCache cache({.max_entries = 256, .settle = sim::millis(200)});
  const int kWires = 40;
  std::uint64_t session = 0;
  auto cycle = [&](std::int64_t t_ms) {
    int hits = 0;
    for (int i = 0; i < kWires; ++i) {
      Bytes wire = wire_bytes("advert " + std::to_string(i));
      if (cache.lookup(SdpId::kUpnp, wire, at_ms(t_ms)) != nullptr) {
        ++hits;
      } else {
        cache.open_bundle(SdpId::kUpnp, wire, ++session, at_ms(t_ms));
      }
    }
    return hits;
  };

  EXPECT_EQ(cycle(0), 0);           // cold: every wire translates
  EXPECT_EQ(cycle(30000), kWires);  // steady state: every wire replays

  cache.bump_generation();  // e.g. a newly learned Jini registrar
  EXPECT_EQ(cycle(60000), 0);  // one full re-translation cycle, by design
  EXPECT_EQ(cycle(90000), kWires);   // ...and the cache must recover
  EXPECT_EQ(cycle(120000), kWires);  // ...permanently
}

TEST_F(CacheFixture, FleetLargerThanTheSessionRingStillCaches) {
  // 70 distinct advertisements in one scheduler instant: the open-session
  // ring is as large as the cache, so every session keeps its bundle and
  // the whole fleet replays from the second period.
  TranslationCache cache({.max_entries = 256, .settle = sim::millis(200)});
  const int kWires = 70;
  std::uint64_t session = 0;
  auto cycle = [&](std::int64_t t_ms) {
    int hits = 0;
    for (int i = 0; i < kWires; ++i) {
      Bytes wire = wire_bytes("advert " + std::to_string(i));
      if (cache.lookup(SdpId::kUpnp, wire, at_ms(t_ms)) != nullptr) {
        ++hits;
      } else {
        cache.open_bundle(SdpId::kUpnp, wire, ++session, at_ms(t_ms));
      }
    }
    return hits;
  };

  EXPECT_EQ(cycle(0), 0);
  EXPECT_EQ(cycle(30000), kWires);  // whole fleet cached
  EXPECT_EQ(cycle(60000), kWires);
}

TEST_F(CacheFixture, AddFrameWithoutOpenBundleIsANoOp) {
  TranslationCache cache;
  auto socket = host.udp_socket(0);
  cache.add_frame(SdpId::kUpnp, 42,
                  frame_to(socket, net::Endpoint{net::IpAddress(224, 0, 0, 1),
                                                 1},
                           "orphan"));
  EXPECT_EQ(cache.size(), 0u);
}

// --- Differential: the LRU list against the linear-scan eviction -----------
//
// A reference model of the cache as it was before the LRU list: the same
// bookkeeping, with eviction as a full scan that picks a stale-generation
// entry first and otherwise the smallest last-used tick. Seeded histories
// drive it and the real cache through opens, lookups, frame adds,
// generation bumps and same-instant bursts; every step must agree on hit or
// miss, frame count, eviction count and the exact set of stored keys, so
// both pick the same victims in the same order.
class ScanEvictionCache {
 public:
  ScanEvictionCache(std::size_t max_entries, sim::SimDuration settle)
      : max_entries_(max_entries), settle_(settle) {}

  /// Frames in the hit bundle, or -1 on a miss.
  int lookup(SdpId source, const Bytes& wire, sim::SimTime now) {
    auto it = entries_.find(Key{source, wire});
    if (it == entries_.end() || it->second.generation != generation_ ||
        now - it->second.created_at < settle_) {
      misses += 1;
      return -1;
    }
    it->second.last_used = ++tick_;
    hits += 1;
    return it->second.frames;
  }

  void open_bundle(SdpId source, const Bytes& wire, std::uint64_t session,
                   sim::SimTime now) {
    if (max_entries_ == 0) return;
    Key key{source, wire};
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      if (it->second.generation == generation_) return;
      it->second = Entry{0, generation_, ++tick_, now};
    } else {
      evict_if_needed();
      entries_.emplace(key, Entry{0, generation_, ++tick_, now});
    }
    std::erase_if(open_, [&](const Open& s) {
      auto entry = entries_.find(s.key);
      return entry == entries_.end() ||
             entry->second.generation != generation_ ||
             now - entry->second.created_at > settle_;
    });
    open_.push_back(Open{source, session, key});
  }

  void add_frame(SdpId origin_sdp, std::uint64_t origin_session) {
    auto open = std::find_if(open_.rbegin(), open_.rend(), [&](const Open& s) {
      return s.origin_sdp == origin_sdp && s.origin_session == origin_session;
    });
    if (open == open_.rend()) return;
    auto it = entries_.find(open->key);
    if (it == entries_.end() || it->second.generation != generation_) return;
    it->second.frames += 1;
  }

  // A bump empties the ring: no session opened before it may add frames to
  // a bundle recycled after it.
  void bump_generation() {
    generation_ += 1;
    open_.clear();
  }

  [[nodiscard]] bool contains(SdpId source, const Bytes& wire) const {
    return entries_.contains(Key{source, wire});
  }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;

 private:
  using Key = std::pair<SdpId, Bytes>;
  struct Entry {
    int frames = 0;
    std::uint64_t generation = 0;
    std::uint64_t last_used = 0;
    sim::SimTime created_at{0};
  };
  struct Open {
    SdpId origin_sdp;
    std::uint64_t origin_session;
    Key key;
  };

  void evict_if_needed() {
    if (entries_.empty() || entries_.size() < max_entries_) return;
    auto victim = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      bool it_stale = it->second.generation != generation_;
      bool victim_stale = victim->second.generation != generation_;
      if (it_stale != victim_stale
              ? it_stale
              : it->second.last_used < victim->second.last_used) {
        victim = it;
      }
    }
    std::erase_if(open_,
                  [&](const Open& s) { return s.key == victim->first; });
    entries_.erase(victim);
    evictions += 1;
  }

  std::size_t max_entries_;
  sim::SimDuration settle_;
  std::map<Key, Entry> entries_;
  std::vector<Open> open_;
  std::uint64_t generation_ = 0;
  std::uint64_t tick_ = 0;
};

// A late frame from a session opened before a generation bump must not land
// in the bundle the same wire re-opened after it: the bump empties the ring.
TEST_F(CacheFixture, SessionOpenedBeforeABumpCannotFeedTheRecycledBundle) {
  TranslationCache cache({.max_entries = 8, .settle = sim::millis(200)});
  Bytes wire = wire_bytes("NOTIFY alive #1");
  auto socket = host.udp_socket(0);
  const net::Endpoint group{net::IpAddress(224, 0, 0, 251), 5353};

  cache.open_bundle(SdpId::kUpnp, wire, /*origin_session=*/1, at_ms(0));
  cache.bump_generation();
  cache.open_bundle(SdpId::kUpnp, wire, /*origin_session=*/2, at_ms(10));
  cache.add_frame(SdpId::kUpnp, 1, frame_to(socket, group, "stale frame"));
  cache.add_frame(SdpId::kUpnp, 2, frame_to(socket, group, "fresh frame"));

  const auto* bundle = cache.lookup(SdpId::kUpnp, wire, at_ms(300));
  ASSERT_NE(bundle, nullptr);
  ASSERT_EQ(bundle->frames.size(), 1u);
  EXPECT_EQ(*bundle->frames[0].payload, wire_bytes("fresh frame"));
}

TEST_F(CacheFixture, LruListEvictsExactlyWhatTheLinearScanEvicted) {
  struct Shape {
    std::size_t max_entries;
    int wires;
  };
  auto socket = host.udp_socket(0);
  const net::Endpoint group{net::IpAddress(224, 0, 0, 251), 5353};
  for (Shape shape : {Shape{8, 24}, Shape{32, 48}, Shape{96, 160}}) {
    for (std::uint32_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE("max_entries=" + std::to_string(shape.max_entries) +
                   " wires=" + std::to_string(shape.wires) +
                   " seed=" + std::to_string(seed));
      const sim::SimDuration settle = sim::millis(200);
      TranslationCache cache({.max_entries = shape.max_entries,
                              .settle = settle});
      ScanEvictionCache model(shape.max_entries, settle);
      std::vector<std::pair<SdpId, Bytes>> universe;
      for (int i = 0; i < shape.wires; ++i) {
        universe.emplace_back(i % 2 == 0 ? SdpId::kUpnp : SdpId::kSlp,
                              wire_bytes("advert " + std::to_string(i)));
      }
      std::mt19937 rng(seed);
      auto pick = [&](int n) {
        return static_cast<int>(rng() % static_cast<std::uint32_t>(n));
      };
      std::int64_t now_ms = 0;
      std::uint64_t next_session = 1;
      std::vector<std::pair<SdpId, std::uint64_t>> opened;

      auto open = [&](const std::pair<SdpId, Bytes>& wire) {
        std::uint64_t session = next_session++;
        cache.open_bundle(wire.first, wire.second, session, at_ms(now_ms));
        model.open_bundle(wire.first, wire.second, session, at_ms(now_ms));
        opened.emplace_back(wire.first, session);
      };

      for (int step = 0; step < 1000; ++step) {
        int op = pick(100);
        if (op < 55) {
          // A unit's arrival: probe, and translate (open) on a miss.
          const auto& wire = universe[pick(shape.wires)];
          const auto* bundle =
              cache.lookup(wire.first, wire.second, at_ms(now_ms));
          int frames = model.lookup(wire.first, wire.second, at_ms(now_ms));
          ASSERT_EQ(bundle != nullptr, frames >= 0) << "step " << step;
          if (bundle != nullptr) {
            ASSERT_EQ(static_cast<int>(bundle->frames.size()), frames);
          } else {
            open(wire);
          }
        } else if (op < 75) {
          // A target unit's composed frame for a recently opened session.
          if (!opened.empty()) {
            auto [sdp, session] =
                opened[opened.size() - 1 -
                       static_cast<std::size_t>(
                           pick(std::min<int>(8, static_cast<int>(
                                                     opened.size()))))];
            cache.add_frame(sdp, session, frame_to(socket, group, "frame"));
            model.add_frame(sdp, session);
          }
        } else if (op < 80) {
          cache.bump_generation();
          model.bump_generation();
        } else if (op < 82) {
          // A burst of adverts in one instant.
          for (int i = 0; i < 70; ++i) open(universe[pick(shape.wires)]);
        } else if (op < 97) {
          now_ms += pick(150);
        } else {
          now_ms += 30000;
        }

        ASSERT_EQ(cache.size(), model.size()) << "step " << step;
        ASSERT_EQ(cache.evictions(), model.evictions) << "step " << step;
        for (const auto& wire : universe) {
          ASSERT_EQ(cache.contains(wire.first, wire.second),
                    model.contains(wire.first, wire.second))
              << "step " << step << ": " << to_string(wire.second);
        }
      }
      std::uint64_t hits = cache.stats(SdpId::kUpnp).hits +
                           cache.stats(SdpId::kSlp).hits;
      std::uint64_t misses = cache.stats(SdpId::kUpnp).misses +
                             cache.stats(SdpId::kSlp).misses;
      EXPECT_EQ(hits, model.hits);
      EXPECT_EQ(misses, model.misses);
      EXPECT_GT(model.evictions, 0u) << "the history must exercise eviction";
      EXPECT_GT(model.hits, 0u);
    }
  }
}

// --- End-to-end: the announcement-storm short-circuit -----------------------

TEST(TranslationCacheEndToEnd, RepeatedRegistrationShortCircuitsAndReplays) {
  sim::Scheduler scheduler;
  net::Network network{scheduler, net::LinkProfile{}, 11};
  net::Host& gateway = network.add_host("gw", net::IpAddress(10, 0, 0, 3));
  net::Host& service = network.add_host("svc", net::IpAddress(10, 0, 0, 2));
  net::Host& observer = network.add_host("obs", net::IpAddress(10, 0, 0, 8));

  IndissConfig config;
  config.enabled_sdps.insert(SdpId::kMdns);
  Indiss indiss(gateway, config);
  indiss.start();
  scheduler.run_for(sim::millis(10));

  // A native Bonjour listener counts the bridged announcements.
  auto mdns_listener = observer.udp_socket(5353);
  mdns_listener->join_group(net::IpAddress(224, 0, 0, 251));
  std::size_t bridged_announcements = 0;
  mdns_listener->set_receive_handler([&](const net::Datagram& d) {
    std::string error;
    auto message = mdns::decode(d.payload, &error);
    if (message.has_value() && message->is_response()) {
      bridged_announcements += 1;
    }
  });

  // The same SLP service re-registers with byte-identical SrvRegs (the SLP
  // re-advert class of periodic traffic).
  slp::SrvReg reg;
  reg.url_entry = {300, "service:clock:soap://10.0.0.2:4005/slp-clock"};
  reg.service_type = "service:clock";
  reg.attr_list = "(friendlyName=Storm Clock)";
  Bytes wire = slp::encode(slp::Message(reg));

  auto announcer = service.udp_socket(0);
  const int kPeriods = 6;
  for (int i = 0; i < kPeriods; ++i) {
    announcer->send_to(net::Endpoint{slp::kSlpMulticastGroup, slp::kSlpPort},
                       wire);
    scheduler.run_for(sim::seconds(30));
  }

  const auto stats = indiss.monitor().translation_stats(SdpId::kSlp);
  EXPECT_GE(stats.hits, static_cast<std::uint64_t>(kPeriods - 2))
      << "every settled repeat must short-circuit";
  EXPECT_GE(stats.frames_replayed, stats.hits)
      << "each hit replays the bridged mDNS announcement";
  EXPECT_GE(bridged_announcements, static_cast<std::size_t>(kPeriods - 1))
      << "the bridge must keep re-announcing on replay, not just on first "
         "translation";
  EXPECT_EQ(indiss.monitor().translation_stats(SdpId::kMdns).hits, 0u);
  // The mDNS unit translated the registration exactly once; replays bypassed
  // it entirely.
  EXPECT_EQ(indiss.unit_as<MdnsUnit>(SdpId::kMdns)->stats().messages_composed, 0u);
  EXPECT_EQ(indiss.unit_as<MdnsUnit>(SdpId::kMdns)->announcements_sent(), 1u);
}

// The missed-goodbye probe: a registration with a 60 s lifetime is
// refreshed by twelve byte-identical SrvRegs, then deregistered. A cache hit
// re-arms the one store record every target unit holds, so the gateway
// sends the same goodbyes — an mDNS TTL-0 response and an ssdp:byebye —
// with the translation cache on and off.
TEST(TranslationCacheEndToEnd,
     CachedRefreshesKeepTheGoodbyesOfTheUncachedPath) {
  struct Outcome {
    std::size_t mdns_goodbyes = 0;
    std::size_t ssdp_byebyes = 0;
    std::uint64_t hits = 0;
  };
  auto run = [](bool cache) {
    sim::Scheduler scheduler;
    net::Network network{scheduler, net::LinkProfile{}, 17};
    net::Host& gateway = network.add_host("gw", net::IpAddress(10, 0, 0, 3));
    net::Host& service = network.add_host("svc", net::IpAddress(10, 0, 0, 2));
    net::Host& observer = network.add_host("obs", net::IpAddress(10, 0, 0, 8));

    IndissConfig config;
    config.enabled_sdps = {SdpId::kSlp, SdpId::kUpnp, SdpId::kMdns};
    config.enable_translation_cache = cache;
    Indiss indiss(gateway, config);
    indiss.start();
    scheduler.run_for(sim::millis(10));

    Outcome outcome;
    auto mdns_listener = observer.udp_socket(5353);
    mdns_listener->join_group(net::IpAddress(224, 0, 0, 251));
    mdns_listener->set_receive_handler([&](const net::Datagram& d) {
      auto message = mdns::decode(d.payload);
      if (!message.has_value() || !message->is_response() ||
          message->answers.empty()) {
        return;
      }
      bool goodbye = std::all_of(
          message->answers.begin(), message->answers.end(),
          [](const mdns::DnsRecord& record) { return record.ttl == 0; });
      if (goodbye) outcome.mdns_goodbyes += 1;
    });
    auto ssdp_listener = observer.udp_socket(upnp::kSsdpPort);
    ssdp_listener->join_group(upnp::kSsdpMulticastGroup);
    ssdp_listener->set_receive_handler([&](const net::Datagram& d) {
      std::string_view text(reinterpret_cast<const char*>(d.payload.data()),
                            d.payload.size());
      if (text.find("ssdp:byebye") != std::string_view::npos) {
        outcome.ssdp_byebyes += 1;
      }
    });

    slp::SrvReg reg;
    reg.url_entry = {60, "service:clock:soap://10.0.0.2:4005/probe-clock"};
    reg.service_type = "service:clock";
    reg.attr_list = "(friendlyName=Probe Clock)";
    slp::SrvDeReg dereg;
    dereg.url_entry = {0, "service:clock:soap://10.0.0.2:4005/probe-clock"};
    auto announcer = service.udp_socket(0);
    net::Endpoint group{slp::kSlpMulticastGroup, slp::kSlpPort};
    Bytes wire = slp::encode(slp::Message(reg));
    for (int i = 0; i <= 12; ++i) {
      announcer->send_to(group, wire);
      scheduler.run_for(sim::seconds(30));
    }
    // One record, held by both target units, without directory mode.
    EXPECT_EQ(indiss.store().size(), 1u);
    EXPECT_EQ(indiss.unit(SdpId::kMdns)->foreign_services().size(), 1u);
    EXPECT_EQ(indiss.unit(SdpId::kUpnp)->foreign_services().size(), 1u);
    announcer->send_to(group, slp::encode(slp::Message(dereg)));
    scheduler.run_for(sim::seconds(10));
    outcome.hits = indiss.monitor().translation_stats(SdpId::kSlp).hits;
    indiss.stop();
    return outcome;
  };

  Outcome uncached = run(false);
  Outcome cached = run(true);
  EXPECT_EQ(uncached.hits, 0u);
  EXPECT_EQ(cached.hits, 12u) << "every refresh must be a cache hit";
  EXPECT_EQ(uncached.mdns_goodbyes, 1u);
  EXPECT_EQ(uncached.ssdp_byebyes, 1u);
  EXPECT_EQ(cached.mdns_goodbyes, uncached.mdns_goodbyes)
      << "the cached refreshes let the bridged mDNS record expire";
  EXPECT_EQ(cached.ssdp_byebyes, uncached.ssdp_byebyes)
      << "the cached refreshes let the impersonated UPnP device expire";
}

// Byebyes must never be served from the cache: a second, byte-identical
// withdrawal (after a re-announcement) still has to run every per-unit
// state change, not just replay old goodbye frames.
TEST(TranslationCacheEndToEnd, RepeatedWithdrawalAlwaysRunsStateChanges) {
  sim::Scheduler scheduler;
  net::Network network{scheduler, net::LinkProfile{}, 13};
  net::Host& gateway = network.add_host("gw", net::IpAddress(10, 0, 0, 3));
  net::Host& service = network.add_host("svc", net::IpAddress(10, 0, 0, 2));

  IndissConfig config;
  config.enabled_sdps.insert(SdpId::kMdns);
  Indiss indiss(gateway, config);
  indiss.start();
  scheduler.run_for(sim::millis(10));

  slp::SrvReg reg;
  reg.url_entry = {300, "service:clock:soap://10.0.0.2:4005/flap-clock"};
  reg.service_type = "service:clock";
  Bytes reg_wire = slp::encode(slp::Message(reg));
  slp::SrvDeReg dereg;
  dereg.url_entry = {0, "service:clock:soap://10.0.0.2:4005/flap-clock"};
  Bytes dereg_wire = slp::encode(slp::Message(dereg));

  auto announcer = service.udp_socket(0);
  net::Endpoint group{slp::kSlpMulticastGroup, slp::kSlpPort};
  for (int flap = 0; flap < 2; ++flap) {
    announcer->send_to(group, reg_wire);
    scheduler.run_for(sim::seconds(30));
    EXPECT_EQ(indiss.unit_as<MdnsUnit>(SdpId::kMdns)->foreign_services().size(), 1u)
        << "flap " << flap << ": announcement must register";
    announcer->send_to(group, dereg_wire);
    scheduler.run_for(sim::seconds(30));
    EXPECT_TRUE(indiss.unit_as<MdnsUnit>(SdpId::kMdns)->foreign_services().empty())
        << "flap " << flap
        << ": a (repeated) byebye must always run the withdrawal";
  }
  // Two announcements + two goodbyes crossed the mDNS wire.
  EXPECT_EQ(indiss.unit_as<MdnsUnit>(SdpId::kMdns)->announcements_sent(), 4u);
}

// After a generation bump forces a re-parse of an already-bridged alive,
// the deduplicated pass must still hand its composed frame to the fresh
// bundle, so later replays keep re-announcing (refresh keeps Bonjour
// caches alive) instead of settling into permanent silence.
TEST(TranslationCacheEndToEnd, RefreshSurvivesGenerationBump) {
  sim::Scheduler scheduler;
  net::Network network{scheduler, net::LinkProfile{}, 13};
  net::Host& gateway = network.add_host("gw", net::IpAddress(10, 0, 0, 3));
  net::Host& service = network.add_host("svc", net::IpAddress(10, 0, 0, 2));
  net::Host& observer = network.add_host("obs", net::IpAddress(10, 0, 0, 8));

  IndissConfig config;
  config.enabled_sdps.insert(SdpId::kMdns);
  Indiss indiss(gateway, config);
  indiss.start();
  scheduler.run_for(sim::millis(10));

  auto mdns_listener = observer.udp_socket(5353);
  mdns_listener->join_group(net::IpAddress(224, 0, 0, 251));
  std::size_t bridged = 0;
  mdns_listener->set_receive_handler([&](const net::Datagram& d) {
    auto message = mdns::decode(d.payload);
    if (message.has_value() && message->is_response()) bridged += 1;
  });

  slp::SrvReg reg;
  reg.url_entry = {300, "service:clock:soap://10.0.0.2:4005/steady-clock"};
  reg.service_type = "service:clock";
  Bytes wire = slp::encode(slp::Message(reg));
  auto announcer = service.udp_socket(0);
  net::Endpoint group{slp::kSlpMulticastGroup, slp::kSlpPort};

  for (int i = 0; i < 3; ++i) {
    announcer->send_to(group, wire);
    scheduler.run_for(sim::seconds(30));
  }
  EXPECT_EQ(bridged, 3u);  // first translation + two replays

  // Any invalidation (a byebye elsewhere, attach/detach, ...).
  ASSERT_NE(indiss.translation_cache(), nullptr);
  indiss.translation_cache()->bump_generation();

  for (int i = 0; i < 3; ++i) {
    announcer->send_to(group, wire);
    scheduler.run_for(sim::seconds(30));
  }
  // The post-bump re-parse deduplicates (no wire send) but refills the
  // bundle; the two repeats after it replay again.
  EXPECT_EQ(bridged, 5u);
}

// A misbehaving device defeats the cache on purpose: every datagram varies
// by a byte, so none ever repeats — each is a miss that costs a parse. The
// defense is that only frames which *parse to an advertisement* ever open a
// bundle (unit.cpp), so garbage creates no entries: the cache cannot be
// grown, the legit advert cannot be evicted, and replays resume unharmed
// once the flood stops.
TEST(TranslationCacheEndToEnd, ByteVaryingMalformedFloodCannotGrowOrPoisonTheCache) {
  sim::Scheduler scheduler;
  net::Network network{scheduler, net::LinkProfile{}, 17};
  net::Host& gateway = network.add_host("gw", net::IpAddress(10, 0, 0, 3));
  net::Host& service = network.add_host("svc", net::IpAddress(10, 0, 0, 2));
  net::Host& flooder = network.add_host("bad", net::IpAddress(10, 0, 0, 66));

  IndissConfig config;
  config.enabled_sdps.insert(SdpId::kMdns);
  Indiss indiss(gateway, config);
  indiss.start();
  scheduler.run_for(sim::millis(10));

  slp::SrvReg reg;
  reg.url_entry = {300, "service:clock:soap://10.0.0.2:4005/steady-clock"};
  reg.service_type = "service:clock";
  Bytes wire = slp::encode(slp::Message(reg));
  auto announcer = service.udp_socket(0);
  net::Endpoint group{slp::kSlpMulticastGroup, slp::kSlpPort};

  // Steady state first: the legit advert caches and replays.
  for (int i = 0; i < 3; ++i) {
    announcer->send_to(group, wire);
    scheduler.run_for(sim::seconds(30));
  }
  ASSERT_GE(indiss.monitor().translation_stats(SdpId::kSlp).hits, 2u);

  // The flood: 600 distinct malformed datagrams — far more than the cache
  // holds — interleaved with the legit advert's periods.
  std::size_t entries_before_flood = indiss.translation_cache()->size();
  auto flood_socket = flooder.udp_socket(0);
  for (int i = 0; i < 600; ++i) {
    flood_socket->send_to(group, to_bytes("malformed-" + std::to_string(i)));
    if (i % 100 == 99) {
      announcer->send_to(group, wire);
      scheduler.run_for(sim::seconds(30));
    } else {
      scheduler.run_for(sim::millis(5));
    }
  }

  ASSERT_NE(indiss.translation_cache(), nullptr);
  EXPECT_EQ(indiss.translation_cache()->size(), entries_before_flood)
      << "garbage frames must not open cache bundles";
  EXPECT_EQ(indiss.translation_cache()->evictions(), 0u)
      << "the flood must not churn the legit advert out of the cache";

  // Replays resume unharmed: every post-flood repeat is still a hit.
  std::uint64_t hits_before =
      indiss.monitor().translation_stats(SdpId::kSlp).hits;
  for (int i = 0; i < 3; ++i) {
    announcer->send_to(group, wire);
    scheduler.run_for(sim::seconds(30));
  }
  EXPECT_EQ(indiss.monitor().translation_stats(SdpId::kSlp).hits,
            hits_before + 3)
      << "the storm must not poison the legit advert";
  // And the bridged state survived the whole ordeal.
  EXPECT_EQ(indiss.unit_as<MdnsUnit>(SdpId::kMdns)->foreign_services().size(),
            1u);
}

}  // namespace
}  // namespace indiss::core
