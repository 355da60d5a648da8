// Threaded shard lanes for core::Gateway (docs/sharding.md).
//
// Each shard gets its own EventLoop (epoll + timer wheel), LiveTransport
// (egress sockets, traffic stats, RNG), MPSC ingress ring, eventfd and
// thread. The gateway's front monitor runs on the caller's loop (indissd's
// main loop); deliver() offers each routed datagram into the shard's ring and
// the eventfd write wakes the shard thread, which drains the ring into its
// scan-less Indiss. A shard's egress goes straight out its own sockets, so
// there is no egress funnel to contend on.
//
// Threading contract:
//   - Construction, start(), deliver() and stop() run on the caller's thread.
//     Every shard-loop fd registration happens before the thread spawns.
//   - Cross-thread communication is ring + eventfd, nothing else.
//   - stop() joins the threads; the join is the happens-before edge that
//     makes the shards' plain counters safe to read.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "core/gateway.hpp"
#include "core/shard/ingress_ring.hpp"
#include "live/event_loop.hpp"
#include "live/transport.hpp"

namespace indiss::live {

class ShardThreads : public core::ShardLanes {
 public:
  /// Shard i's transport copies `front`'s config with name "<name>#i" and
  /// seed+1+i. Lanes are created on first use, so a gateway that never asks
  /// (shards=1) costs nothing.
  explicit ShardThreads(const LiveTransport& front,
                        std::size_t ring_capacity = 4096);
  ~ShardThreads() override;

  transport::Transport& transport(std::size_t index) override;
  void start(std::span<const std::unique_ptr<core::Indiss>> shards) override;
  void deliver(std::size_t index, core::SdpId sdp,
               const net::Datagram& datagram) override;
  void stop() override;
  [[nodiscard]] std::uint64_t dropped() const override;

  /// Ring entries accepted / picked up by shard threads so far, summed. Safe
  /// while running: accepted == consumed means every queued item was taken.
  [[nodiscard]] std::uint64_t accepted() const;
  [[nodiscard]] std::uint64_t consumed() const;

 private:
  /// One queued datagram plus the SDP the front monitor detected (the source
  /// endpoint survives for the shard-side loop filter).
  struct Item {
    core::SdpId sdp = core::SdpId::kSlp;
    net::Datagram datagram;
  };

  struct Lane {
    // Destroyed in reverse: the thread is joined by stop() before any of
    // these die.
    std::unique_ptr<EventLoop> loop;
    std::unique_ptr<LiveTransport> transport;
    core::shard::IngressRing<Item> ring;
    int wake_fd = -1;
    std::thread thread;

    explicit Lane(std::size_t ring_capacity) : ring(ring_capacity) {}
  };

  static void wake(Lane& lane);

  LiveConfig front_config_;
  std::size_t ring_capacity_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  bool running_ = false;
};

}  // namespace indiss::live
