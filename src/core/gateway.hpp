// The INDISS gateway at any shard count (docs/sharding.md).
//
// The paper's INDISS is one monitor in front of a set of units (§2.1,
// Fig 5a). A sharded gateway is the same shape with N unit sets: one front
// Monitor scans the IANA ports and carries the node's ingress defenses
// (per-source rate limits), and its detection handler classifies each
// datagram (core/shard/router.hpp) and hands it to the shard owning its
// wire hash, or to every shard for control traffic. Each shard is a
// scan-less Indiss with its own units, EventBus, sessions and
// TranslationCache; shards share only the OwnEndpoints loop filter.
//
// At shards=1 the gateway is exactly one scanning Indiss on the caller's
// transport: no front monitor, no router, no ring, no thread.
//
// Only two things differ between the sim and the live backend — how a routed
// datagram reaches shard i, and which transport shard i runs on — and
// ShardLanes is that seam:
//   - no lanes (inline, the sim): shard i runs on the caller's transport and
//     receives Indiss::ingest() directly, in shard order. Sim delivery is
//     always scheduler-queued, so routing is never re-entered and the order
//     is deterministic run to run.
//   - live::ShardThreads: shard i runs on its own event loop thread behind
//     an MPSC ingress ring (src/live/shard_threads.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/bytes.hpp"
#include "core/indiss.hpp"
#include "core/monitor.hpp"
#include "core/shard/router.hpp"
#include "core/types.hpp"
#include "transport/transport.hpp"

namespace indiss::core {

/// How shards are hosted when they do not run inline on the caller's
/// transport. Every call comes from the gateway's (caller's) thread.
class ShardLanes {
 public:
  ShardLanes() = default;
  virtual ~ShardLanes() = default;
  ShardLanes(const ShardLanes&) = delete;
  ShardLanes& operator=(const ShardLanes&) = delete;

  /// The transport shard `index` runs on. Called once per shard, in index
  /// order, while the gateway is constructed.
  virtual transport::Transport& transport(std::size_t index) = 0;
  /// Begins delivery into the shards, which are already started.
  virtual void start(std::span<const std::unique_ptr<Indiss>> shards) = 0;
  /// Hands one routed datagram to shard `index`.
  virtual void deliver(std::size_t index, SdpId sdp,
                       const net::Datagram& datagram) = 0;
  /// Stops delivery. When it returns no shard code runs anywhere, so the
  /// shards' plain counters are safe to read (the quiesce edge).
  virtual void stop() = 0;
  /// Datagrams dropped on the way to a shard (ring overflow).
  [[nodiscard]] virtual std::uint64_t dropped() const = 0;
};

struct GatewayConfig {
  std::size_t shards = 1;
  /// The whole gateway at shards=1. At shards>1 its `monitor` limits and
  /// `scan_ports` apply to the front monitor, and it is the template for
  /// every shard (scan-less, MonitorConfig{}, shared OwnEndpoints).
  IndissConfig indiss;
};

class Gateway {
 public:
  /// `lanes` is used only when config.shards > 1; null runs the shards
  /// inline on `transport`.
  Gateway(transport::Transport& transport, GatewayConfig config = {},
          std::unique_ptr<ShardLanes> lanes = nullptr);
  ~Gateway();

  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;

  void start();
  /// Stops ingress and quiesces the shards (joins shard threads). The
  /// shards' units stay constructed, so the merged statistics are readable
  /// afterwards; destruction tears the shards down.
  void stop();
  [[nodiscard]] bool running() const { return running_; }

  /// Feeds one datagram as if it had arrived on a scanned port: the
  /// scanning monitor filters, rate-limits and detects it, then it is routed
  /// (tests and benches with scan_ports=false).
  void ingest(SdpId sdp, const net::Datagram& datagram);

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  /// Where a wire would hash-route.
  [[nodiscard]] std::size_t shard_for(BytesView wire) const {
    return shard::shard_for(wire, shards_.size());
  }
  /// A shard's gateway. With threaded lanes only safe to touch while the
  /// shards are quiescent (before start() or after stop()).
  [[nodiscard]] Indiss& shard(std::size_t index) { return *shards_[index]; }
  /// The scanning monitor: detections, seen/filtered/rate_limited counts.
  [[nodiscard]] Monitor& monitor() { return *monitor_; }

  /// Runs one active probe sweep on every shard (state gating keeps the
  /// re-advertisement single per service).
  void trigger_active_probe();

  // --- Merged statistics ----------------------------------------------------
  //
  // Per-shard counters are plain members owned by each shard's thread; these
  // accessors sum them at read time without locks. Inline: valid any time on
  // the caller's thread. Threaded: valid only after stop().

  [[nodiscard]] Unit::Stats unit_stats(SdpId sdp) const;
  [[nodiscard]] TranslationCache::SdpStats translation_stats(SdpId sdp) const;
  /// Zeroed when directory mode is off. Adverts land in their hash-owning
  /// shard's directory, so the sum is the gateway-wide answered-vs-bridged
  /// picture (docs/directory.md).
  [[nodiscard]] ServiceDirectory::SdpStats directory_stats(SdpId sdp) const;
  /// Zeroed when probing is off.
  [[nodiscard]] mdns::ProbeStats probe_stats() const;
  /// Datagrams routed (each broadcast counts once); 0 at shards=1.
  [[nodiscard]] std::uint64_t datagrams_dispatched() const {
    return dispatched_;
  }
  /// Extra deliveries created by broadcasts beyond the first copy.
  [[nodiscard]] std::uint64_t datagrams_replicated() const {
    return replicated_;
  }
  [[nodiscard]] std::uint64_t ring_dropped() const {
    return lanes_ == nullptr ? 0 : lanes_->dropped();
  }

 private:
  void route(SdpId sdp, const net::Datagram& datagram);
  void deliver(std::size_t index, SdpId sdp, const net::Datagram& datagram);

  GatewayConfig config_;
  // Declared before shards_: the shards die first, while the transports the
  // lanes own are still alive.
  std::unique_ptr<ShardLanes> lanes_;
  std::unique_ptr<Monitor> front_;  // null at shards=1
  std::vector<std::unique_ptr<Indiss>> shards_;
  Monitor* monitor_ = nullptr;  // front_, or the lone shard's own monitor
  std::uint64_t dispatched_ = 0;
  std::uint64_t replicated_ = 0;
  bool running_ = false;
};

}  // namespace indiss::core
