// core::OwnEndpoints (core/types.hpp): the loop-filter set every unit and
// per-query socket registers in, and every inbound datagram is checked
// against — from the front monitor's thread while shard threads insert.
// Pins that an insert costs O(1) allocations (the set is written in place,
// not copied per generation), that erase undoes one insert and, under the
// TSan job's `shard` label, that concurrent insert/contains is race-free.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/types.hpp"
#include "tests/support/alloc_meter.hpp"

namespace indiss::core {
namespace {

net::Endpoint endpoint(std::uint32_t i) {
  return net::Endpoint{net::IpAddress(10, 0, static_cast<std::uint8_t>(i >> 8),
                                      static_cast<std::uint8_t>(i)),
                       static_cast<std::uint16_t>(40000 + (i % 20000))};
}

TEST(OwnEndpoints, InsertAllocatesAConstantAmountWhateverTheSize) {
  constexpr std::uint32_t kInserts = 1024;
  OwnEndpoints own;
  std::uint64_t before = indiss::testing::g_heap_allocs;
  for (std::uint32_t i = 0; i < kInserts; ++i) own.insert(endpoint(i));
  std::uint64_t allocs = indiss::testing::g_heap_allocs - before;

  EXPECT_EQ(own.size(), kInserts);
  // One node per endpoint plus the bucket array's geometric regrowth
  // (a dozen rehashes up to 1024 entries). Copying the set on every insert
  // would cost ~kInserts^2 / 2 allocations.
  EXPECT_LE(allocs, kInserts + 32) << allocs << " allocations";

  // Re-registering a known endpoint changes nothing.
  before = indiss::testing::g_heap_allocs;
  own.insert(endpoint(7));
  EXPECT_EQ(indiss::testing::g_heap_allocs - before, 0u);
  EXPECT_EQ(own.size(), kInserts);
}

// An endpoint registered twice (a recycled port bound again before the old
// socket's endpoint retired) stays filtered until both registrations are
// undone; erasing an unknown endpoint changes nothing.
TEST(OwnEndpoints, EraseUndoesOneInsert) {
  OwnEndpoints own;
  own.insert(endpoint(1));
  own.insert(endpoint(2));
  own.insert(endpoint(2));
  own.erase(endpoint(3));
  EXPECT_EQ(own.size(), 2u);

  own.erase(endpoint(1));
  EXPECT_FALSE(own.contains(endpoint(1)));
  own.erase(endpoint(2));
  EXPECT_TRUE(own.contains(endpoint(2)));
  own.erase(endpoint(2));
  EXPECT_FALSE(own.contains(endpoint(2)));
  EXPECT_EQ(own.size(), 0u);
}

// Two shard-like writers register endpoints while two monitor-like readers
// filter against the set. Readers must always see the endpoints registered
// before they started, and never see one that is never registered.
TEST(OwnEndpoints, ConcurrentInsertAndContainsAreConsistent) {
  constexpr std::uint32_t kPreloaded = 64;
  constexpr std::uint32_t kPerWriter = 1000;
  OwnEndpoints own;
  for (std::uint32_t i = 0; i < kPreloaded; ++i) own.insert(endpoint(i));

  std::atomic<bool> writers_done{false};
  std::atomic<std::uint64_t> misses{0};
  std::atomic<std::uint64_t> phantoms{0};

  std::vector<std::thread> threads;
  for (std::uint32_t w = 0; w < 2; ++w) {
    threads.emplace_back([&own, w]() {
      std::uint32_t base = kPreloaded + w * kPerWriter;
      for (std::uint32_t i = 0; i < kPerWriter; ++i) {
        own.insert(endpoint(base + i));
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&]() {
      // Port 1 is never registered: endpoint() ports start at 40000.
      const net::Endpoint never{net::IpAddress(10, 0, 0, 1), 1};
      std::uint32_t i = 0;
      while (!writers_done.load(std::memory_order_acquire)) {
        if (!own.contains(endpoint(i % kPreloaded))) misses.fetch_add(1);
        if (own.contains(never)) phantoms.fetch_add(1);
        (void)own.contains(endpoint(kPreloaded + (i % (2 * kPerWriter))));
        (void)own.size();
        ++i;
      }
    });
  }
  threads[0].join();
  threads[1].join();
  writers_done.store(true, std::memory_order_release);
  threads[2].join();
  threads[3].join();

  EXPECT_EQ(misses.load(), 0u);
  EXPECT_EQ(phantoms.load(), 0u);
  EXPECT_EQ(own.size(), kPreloaded + 2 * kPerWriter);
  for (std::uint32_t i = 0; i < kPreloaded + 2 * kPerWriter; ++i) {
    ASSERT_TRUE(own.contains(endpoint(i))) << i;
  }
}

}  // namespace
}  // namespace indiss::core
