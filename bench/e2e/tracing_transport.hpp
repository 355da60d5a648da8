// TracingTransport: a transport::Transport decorator that records spans at
// the gateway's layer boundaries without changing what the gateway does.
//
// It wraps live::LiveTransport and is handed to core::Indiss in its place.
// Every boundary the pipeline crosses goes through this interface, so spans
// are taken from outside the program:
//
//   monitor            a receive on a well-known SDP port (monitor filter,
//                      detection, forward to the unit: the first hop)
//   unit.response_rx   a receive on an ephemeral unit socket (a native
//                      answer to a query the gateway translated)
//   unit.ingress       a task scheduled by a monitor receive (cache probe,
//                      parse, FSM, publish)
//   unit.peer          any later task (compose, encode, replay, reply)
//   transport.tx       a send_to
//
// Each span names its parent, so a transaction forms a chain that starts at
// its receive. A chain's *internal latency* runs from that receive to the
// first send_to the chain causes; it splits exactly into receive time, wait
// time (schedule() to fire, which includes the units' translate_delay) and
// task time along the path.
//
// Zero allocation per operation: task wrappers live in a preallocated slab
// (the scheduled InlineTask only captures {this, slot}), socket wrappers and
// their shared_ptr control blocks come from a block pool, and spans, waits
// and chains are written into fixed arrays. The allocation counts the
// traced run reports are therefore the gateway's own; bench/e2e's
// tracing_check pins that.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "live/transport.hpp"
#include "transport/transport.hpp"

namespace indiss::bench_e2e {

enum class SpanKind : std::uint8_t {
  kMonitorRx = 0,
  kResponseRx = 1,
  kIngress = 2,
  kPeer = 3,
  kTx = 4,
};
inline constexpr int kSpanKinds = 5;
const char* span_name(SpanKind kind);

/// Fixed-size block pool behind std::allocate_shared for socket wrappers.
class BlockPool {
 public:
  static constexpr std::size_t kBlockSize = 256;
  explicit BlockPool(std::size_t blocks);
  void* allocate(std::size_t bytes);
  void release(void* p);
  [[nodiscard]] std::uint64_t overflows() const { return overflows_; }

 private:
  std::vector<unsigned char> storage_;
  std::vector<void*> free_;
  std::uint64_t overflows_ = 0;
};

/// Shares ownership of the pool: a socket wrapper still held by a task the
/// event loop destroys after the tracer keeps its block valid.
template <typename T>
struct PoolAllocator {
  using value_type = T;
  std::shared_ptr<BlockPool> pool;
  explicit PoolAllocator(std::shared_ptr<BlockPool> p) : pool(std::move(p)) {}
  template <typename U>
  PoolAllocator(const PoolAllocator<U>& other) : pool(other.pool) {}
  T* allocate(std::size_t n) {
    return static_cast<T*>(pool->allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t) { pool->release(p); }
  template <typename U>
  bool operator==(const PoolAllocator<U>& o) const { return pool == o.pool; }
};

/// Totals of everything recorded while enabled.
struct TraceTotals {
  std::uint64_t self_ns[kSpanKinds] = {};
  std::uint64_t self_allocs[kSpanKinds] = {};
  std::uint64_t count[kSpanKinds] = {};
  std::uint64_t sockets_opened = 0;
  std::uint64_t untraced_tasks = 0;  // slab exhausted
};

struct Chain {
  std::int64_t internal_ns = 0;
  std::int64_t rx_ns = 0;
  std::int64_t wait_ns = 0;
  std::int64_t task_ns = 0;
};

class TracingTransport : public transport::Transport {
 public:
  /// `alloc_counter`: the allocation counter spans attribute deltas of (the
  /// alloc meter's counter of the gateway thread); null = no attribution.
  TracingTransport(live::LiveTransport& inner,
                   const std::uint64_t* alloc_counter);
  ~TracingTransport() override;
  TracingTransport(const TracingTransport&) = delete;
  TracingTransport& operator=(const TracingTransport&) = delete;

  [[nodiscard]] const std::string& name() const override {
    return inner_.name();
  }
  [[nodiscard]] net::IpAddress address() const override {
    return inner_.address();
  }
  std::shared_ptr<transport::UdpSocket> open_udp(
      std::uint16_t port = 0) override;
  std::shared_ptr<transport::TcpListener> listen_tcp(
      std::uint16_t port = 0) override {
    return inner_.listen_tcp(port);
  }
  std::shared_ptr<transport::TcpSocket> connect_tcp(
      const net::Endpoint& to) override {
    return inner_.connect_tcp(to);
  }
  [[nodiscard]] transport::TimePoint now() const override {
    return inner_.now();
  }
  transport::TaskHandle schedule(transport::Duration delay,
                                 transport::InlineTask task) override;
  transport::TaskHandle schedule_periodic(transport::Duration period,
                                          transport::InlineTask task) override {
    return inner_.schedule_periodic(period, std::move(task));
  }
  [[nodiscard]] const net::TrafficStats& stats() const override {
    return inner_.stats();
  }
  [[nodiscard]] transport::Random& random() override {
    return inner_.random();
  }

  /// Recording window (the benchmark's fixed-rate phase).
  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  [[nodiscard]] const TraceTotals& totals() const { return totals_; }
  /// Wait samples (ns), schedule() to fire, of traced hops.
  [[nodiscard]] const std::vector<std::int32_t>& waits() const {
    return waits_;
  }
  [[nodiscard]] const std::vector<Chain>& chains() const { return chains_; }
  [[nodiscard]] std::uint64_t pool_overflows() const {
    return pool_->overflows();
  }

  /// Writes the kept spans as Chrome trace JSON (chrome://tracing,
  /// Perfetto). Returns false when the file cannot be written.
  bool write_chrome_trace(const std::string& path) const;

  // --- Hooks for the socket wrapper and the task wrapper ---------------------
  void begin_rx(SpanKind kind);
  void end_span();
  void begin_tx();
  void fire(std::uint32_t slot);
  void release(std::uint32_t slot);

 private:
  struct Parts {
    std::int64_t rx = 0;
    std::int64_t wait = 0;
    std::int64_t task = 0;
  };
  /// An executing span.
  struct Frame {
    std::uint32_t id = 0;
    std::uint32_t parent = 0;
    std::uint32_t root = 0;  // 0 = not part of a chain
    SpanKind kind = SpanKind::kTx;
    std::int64_t start = 0;
    std::int64_t root_start = 0;
    std::int64_t child_ns = 0;
    std::uint64_t alloc_start = 0;
    std::uint64_t child_allocs = 0;
    Parts acc;  // chain time before this span started
  };
  /// A scheduled hop waiting to fire.
  struct Slot {
    transport::InlineTask task;
    std::uint32_t parent = 0;
    std::uint32_t root = 0;
    SpanKind parent_kind = SpanKind::kPeer;
    std::int64_t scheduled_at = 0;
    std::int64_t root_start = 0;
    Parts acc;
    std::uint32_t next_free = 0;
  };
  struct SpanRecord {
    std::uint32_t id;
    std::uint32_t parent;
    SpanKind kind;
    std::int64_t start;
    std::int64_t end;
  };

  void push(SpanKind kind, std::uint32_t parent, std::uint32_t root,
            std::int64_t root_start, const Parts& acc);
  [[nodiscard]] std::int64_t clock() const { return inner_.now().count(); }
  [[nodiscard]] std::uint64_t allocs() const {
    return alloc_counter_ != nullptr ? *alloc_counter_ : 0;
  }
  [[nodiscard]] static std::int64_t& bucket(Parts& parts, SpanKind kind) {
    return kind == SpanKind::kMonitorRx || kind == SpanKind::kResponseRx
               ? parts.rx
               : parts.task;
  }

  // Preallocated capacities: in-flight hops, socket wrappers, and what a
  // fixed phase of a few seconds records.
  static constexpr std::size_t kTaskSlots = 1 << 14;
  static constexpr std::size_t kSocketBlocks = 1 << 15;
  static constexpr std::size_t kSpanCapacity = 1 << 18;  // for the trace file
  static constexpr std::size_t kWaitCapacity = 1 << 21;
  static constexpr std::size_t kChainCapacity = 1 << 18;
  /// Tasks deferred at least this long (session timeouts) are timers, not
  /// pipeline hops: they pass through untraced.
  static constexpr transport::Duration kHopLimit = transport::millis(100);

  live::LiveTransport& inner_;
  const std::uint64_t* alloc_counter_;
  bool enabled_ = false;
  std::shared_ptr<BlockPool> pool_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = 0;  // 1-based; 0 = slab exhausted
  Frame stack_[4];
  int depth_ = 0;
  std::uint32_t next_id_ = 1;
  std::vector<std::uint8_t> root_done_;  // ring indexed by root id
  std::vector<SpanRecord> spans_;
  std::vector<std::int32_t> waits_;
  std::vector<Chain> chains_;
  TraceTotals totals_;
};

}  // namespace indiss::bench_e2e
