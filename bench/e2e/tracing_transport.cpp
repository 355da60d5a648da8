#include "tracing_transport.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <utility>

namespace indiss::bench_e2e {

namespace {

// The one live tracer and its incarnation: scheduled hops can outlive the
// tracer (the event loop that holds them is destroyed after it), so a hop
// only touches a tracer that is still the live one it was scheduled on.
TracingTransport* g_live = nullptr;
std::uint32_t g_epoch = 0;

/// The task the inner scheduler actually holds: 16 bytes, stored inline.
struct Hop {
  TracingTransport* self;
  std::uint32_t slot;
  std::uint32_t epoch;

  Hop(TracingTransport* s, std::uint32_t i, std::uint32_t e)
      : self(s), slot(i), epoch(e) {}
  Hop(Hop&& other) noexcept
      : self(std::exchange(other.self, nullptr)),
        slot(other.slot),
        epoch(other.epoch) {}
  Hop& operator=(Hop&&) = delete;
  Hop(const Hop&) = delete;
  ~Hop() {
    if (self != nullptr && self == g_live && epoch == g_epoch) {
      self->release(slot);
    }
  }
  void operator()() {
    if (self == g_live && epoch == g_epoch) self->fire(slot);
  }
};

bool well_known(std::uint16_t port) {
  return port == 427 || port == 1900 || port == 4160 || port == 5353;
}

class TracingUdpSocket final : public transport::UdpSocket {
 public:
  TracingUdpSocket(TracingTransport& owner,
                   std::shared_ptr<transport::UdpSocket> inner, SpanKind kind)
      : owner_(owner), inner_(std::move(inner)), kind_(kind) {}
  ~TracingUdpSocket() override { inner_->set_receive_handler({}); }

  [[nodiscard]] net::Endpoint local_endpoint() const override {
    return inner_->local_endpoint();
  }
  void join_group(net::IpAddress group) override { inner_->join_group(group); }
  void leave_group(net::IpAddress group) override {
    inner_->leave_group(group);
  }
  void send_to(const net::Endpoint& to, Bytes payload) override {
    owner_.begin_tx();
    inner_->send_to(to, std::move(payload));
    owner_.end_span();
  }
  void set_receive_handler(ReceiveHandler handler) override {
    handler_ = std::move(handler);
    // Two pointers: small enough for std::function's inline buffer, so
    // re-wiring a per-query socket allocates nothing extra. The handler may
    // destroy this wrapper, so nothing of `self` is touched after it.
    inner_->set_receive_handler(
        [self = this, owner = &owner_](const net::Datagram& datagram) {
          owner->begin_rx(self->kind_);
          if (self->handler_) self->handler_(datagram);
          owner->end_span();
        });
  }
  void close() override { inner_->close(); }
  [[nodiscard]] bool closed() const override { return inner_->closed(); }

 private:
  TracingTransport& owner_;
  std::shared_ptr<transport::UdpSocket> inner_;
  SpanKind kind_;
  ReceiveHandler handler_;
};

}  // namespace

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kMonitorRx:
      return "monitor";
    case SpanKind::kResponseRx:
      return "unit.response_rx";
    case SpanKind::kIngress:
      return "unit.ingress";
    case SpanKind::kPeer:
      return "unit.peer";
    case SpanKind::kTx:
      return "transport.tx";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// BlockPool
// ---------------------------------------------------------------------------

BlockPool::BlockPool(std::size_t blocks) : storage_(blocks * kBlockSize) {
  free_.reserve(blocks);
  for (std::size_t i = blocks; i > 0; --i) {
    free_.push_back(storage_.data() + (i - 1) * kBlockSize);
  }
}

void* BlockPool::allocate(std::size_t bytes) {
  if (bytes > kBlockSize || free_.empty()) {
    overflows_ += 1;
    return ::operator new(bytes);
  }
  void* p = free_.back();
  free_.pop_back();
  return p;
}

void BlockPool::release(void* p) {
  auto* byte = static_cast<unsigned char*>(p);
  if (byte >= storage_.data() && byte < storage_.data() + storage_.size()) {
    free_.push_back(p);
  } else {
    ::operator delete(p);
  }
}

// ---------------------------------------------------------------------------
// TracingTransport
// ---------------------------------------------------------------------------

TracingTransport::TracingTransport(live::LiveTransport& inner,
                                   const std::uint64_t* alloc_counter)
    : inner_(inner),
      alloc_counter_(alloc_counter),
      pool_(std::make_shared<BlockPool>(kSocketBlocks)),
      slots_(kTaskSlots),
      root_done_(1 << 20, 0) {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    slots_[i].next_free = i + 1 < slots_.size()
                              ? static_cast<std::uint32_t>(i + 2)
                              : 0;
  }
  free_head_ = slots_.empty() ? 0 : 1;
  spans_.reserve(kSpanCapacity);
  waits_.reserve(kWaitCapacity);
  chains_.reserve(kChainCapacity);
  g_live = this;
  g_epoch += 1;
}

TracingTransport::~TracingTransport() {
  if (g_live == this) g_live = nullptr;
}

std::shared_ptr<transport::UdpSocket> TracingTransport::open_udp(
    std::uint16_t port) {
  auto inner = inner_.open_udp(port);
  if (enabled_) totals_.sockets_opened += 1;
  SpanKind kind = well_known(port) ? SpanKind::kMonitorRx
                                   : SpanKind::kResponseRx;
  return std::allocate_shared<TracingUdpSocket>(
      PoolAllocator<TracingUdpSocket>(pool_), *this, std::move(inner), kind);
}

transport::TaskHandle TracingTransport::schedule(transport::Duration delay,
                                                 transport::InlineTask task) {
  if (!enabled_ || delay >= kHopLimit) {
    return inner_.schedule(delay, std::move(task));
  }
  if (free_head_ == 0) {
    totals_.untraced_tasks += 1;
    return inner_.schedule(delay, std::move(task));
  }
  std::uint32_t index = free_head_;
  Slot& slot = slots_[index - 1];
  free_head_ = slot.next_free;
  slot.task = std::move(task);
  std::int64_t now = clock();
  if (depth_ > 0) {
    const Frame& parent = stack_[depth_ - 1];
    slot.parent = parent.id;
    slot.root = parent.root;
    slot.root_start = parent.root_start;
    slot.parent_kind = parent.kind;
    slot.acc = parent.acc;
    bucket(slot.acc, parent.kind) += now - parent.start;
  } else {
    slot.parent = 0;
    slot.root = 0;
    slot.root_start = 0;
    slot.parent_kind = SpanKind::kPeer;
    slot.acc = Parts{};
  }
  slot.scheduled_at = now;
  return inner_.schedule(delay, Hop(this, index, g_epoch));
}

void TracingTransport::fire(std::uint32_t index) {
  Slot& slot = slots_[index - 1];
  std::int64_t now = clock();
  std::int64_t wait = now - slot.scheduled_at;
  if (enabled_ && waits_.size() < kWaitCapacity) {
    constexpr std::int64_t kMax = std::numeric_limits<std::int32_t>::max();
    waits_.push_back(static_cast<std::int32_t>(std::min(wait, kMax)));
  }
  Parts acc = slot.acc;
  acc.wait += wait;
  SpanKind kind = slot.parent_kind == SpanKind::kMonitorRx ? SpanKind::kIngress
                                                           : SpanKind::kPeer;
  push(kind, slot.parent, slot.root, slot.root_start, acc);
  slot.task();
  end_span();
}

void TracingTransport::release(std::uint32_t index) {
  Slot& slot = slots_[index - 1];
  slot.task.reset();
  slot.next_free = free_head_;
  free_head_ = index;
}

void TracingTransport::push(SpanKind kind, std::uint32_t parent,
                            std::uint32_t root, std::int64_t root_start,
                            const Parts& acc) {
  if (depth_ >= 4) return;  // cannot happen: rx|task -> tx is the deepest
  Frame& f = stack_[depth_++];
  f.id = next_id_++;
  f.parent = parent;
  f.root = root;
  f.kind = kind;
  f.start = clock();
  f.root_start = root_start;
  f.child_ns = 0;
  f.alloc_start = allocs();
  f.child_allocs = 0;
  f.acc = acc;
}

void TracingTransport::begin_rx(SpanKind kind) {
  std::uint32_t root = enabled_ ? next_id_ : 0;
  if (root != 0) root_done_[root % root_done_.size()] = 0;
  push(kind, 0, root, clock(), Parts{});
}

void TracingTransport::begin_tx() {
  std::int64_t now = clock();
  std::uint32_t parent = 0;
  if (depth_ > 0) {
    const Frame& f = stack_[depth_ - 1];
    parent = f.id;
    std::uint8_t& done = root_done_[f.root % root_done_.size()];
    if (enabled_ && f.root != 0 && done == 0) {
      done = 1;
      if (chains_.size() < kChainCapacity) {
        Chain chain;
        chain.internal_ns = now - f.root_start;
        Parts parts = f.acc;
        bucket(parts, f.kind) += now - f.start;
        chain.rx_ns = parts.rx;
        chain.wait_ns = parts.wait;
        chain.task_ns = parts.task;
        chains_.push_back(chain);
      }
    }
  }
  push(SpanKind::kTx, parent, 0, 0, Parts{});
}

void TracingTransport::end_span() {
  if (depth_ == 0) return;
  Frame f = stack_[--depth_];
  std::int64_t end = clock();
  std::int64_t duration = end - f.start;
  std::uint64_t allocated = allocs() - f.alloc_start;
  if (depth_ > 0) {
    stack_[depth_ - 1].child_ns += duration;
    stack_[depth_ - 1].child_allocs += allocated;
  }
  if (!enabled_) return;
  auto k = static_cast<std::size_t>(f.kind);
  totals_.self_ns[k] += static_cast<std::uint64_t>(duration - f.child_ns);
  totals_.self_allocs[k] += allocated - f.child_allocs;
  totals_.count[k] += 1;
  if (spans_.size() < kSpanCapacity) {
    spans_.push_back(SpanRecord{f.id, f.parent, f.kind, f.start, end});
  }
}

bool TracingTransport::write_chrome_trace(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  bool first = true;
  for (const SpanRecord& s : spans_) {
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,"
                 "\"parent\":%u}}",
                 first ? "" : ",\n", span_name(s.kind),
                 static_cast<double>(s.start) / 1e3,
                 static_cast<double>(s.end - s.start) / 1e3, s.id, s.parent);
    first = false;
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

}  // namespace indiss::bench_e2e
