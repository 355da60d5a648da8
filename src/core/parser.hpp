// Parser and composer component interfaces (paper §2.2, Fig 3).
//
// A parser "extracts semantic concepts as events from syntactic details of
// the SDP detected"; a composer does the reverse. Both are dumb about
// coordination — the unit's FSM decides where events go. Parsers must at
// least generate the mandatory events; composers must understand them and are
// free to ignore anything else.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "core/event.hpp"
#include "net/address.hpp"

namespace indiss::core {

/// Transport facts about the message being parsed; parsers turn these into
/// SDP Network Events.
struct MessageContext {
  net::Endpoint source;
  net::Endpoint destination;
  bool multicast = false;
  /// Source host is the unit's own host (loopback interception).
  bool from_local_host = false;
  /// This parse continues an in-progress event stream after a parser switch:
  /// the parser must not emit SDP_C_START.
  bool continuation = false;
};

class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void emit(Event event) = 0;

  /// Hands out an event to fill and emit. Pooling sinks override this to
  /// return a recycled event whose SmallRecord value strings keep their
  /// capacity, so a parser that fills it with set() and emits it performs no
  /// heap allocation in steady state (the mDNS hot path is pinned on this).
  [[nodiscard]] virtual Event scratch(EventType type) { return Event(type); }
};

/// Emits the SDP Network Events every parser opens a native message with:
/// SDP_NET_TYPE naming `sdp`, SDP_NET_MULTICAST or SDP_NET_UNICAST, and
/// SDP_NET_SOURCE_ADDR. Scratch events keep it allocation-free.
inline void emit_net_events(EventSink& sink, const MessageContext& ctx,
                            std::string_view sdp) {
  Event net = sink.scratch(EventType::kNetType);
  net.set("sdp", sdp);
  sink.emit(std::move(net));
  sink.emit(sink.scratch(ctx.multicast ? EventType::kNetMulticast
                                       : EventType::kNetUnicast));
  Event src = sink.scratch(EventType::kNetSourceAddr);
  src.set("addr", ctx.source.address.to_string());
  src.set("port", std::to_string(ctx.source.port));
  src.set("local", ctx.from_local_host ? "1" : "0");
  sink.emit(std::move(src));
}

class SdpParser {
 public:
  virtual ~SdpParser() = default;
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Translates one native message into events. Well-formed input yields a
  /// START .. STOP framed stream (unless ctx.continuation). Malformed input
  /// yields SDP_RES_ERR inside the framing — never an exception.
  virtual void parse(BytesView raw, const MessageContext& ctx,
                     EventSink& sink) = 0;
};

/// Recycles EventStream buffers across messages: release() keeps the
/// vector's element storage, acquire() hands it back cleared. Parsing N
/// messages through one pool settles into zero buffer (re)allocations once
/// the high-water capacity is reached.
class StreamPool {
 public:
  [[nodiscard]] EventStream acquire() {
    if (free_.empty()) return EventStream{};
    EventStream stream = std::move(free_.back());
    free_.pop_back();
    return stream;
  }

  void release(EventStream&& stream) {
    stream.clear();  // destroys the events, keeps the element buffer
    free_.push_back(std::move(stream));
  }

  [[nodiscard]] std::size_t pooled() const { return free_.size(); }

 private:
  std::vector<EventStream> free_;
};

/// Collects events into an EventStream (the trivial sink). Bind it to a
/// StreamPool to reuse one buffer across many parses: reset() clears without
/// freeing, and the destructor returns the buffer to the pool.
class CollectingSink : public EventSink {
 public:
  CollectingSink() = default;
  explicit CollectingSink(StreamPool& pool)
      : pool_(&pool), stream_(pool.acquire()) {}
  ~CollectingSink() override {
    if (pool_ != nullptr) pool_->release(std::move(stream_));
  }
  CollectingSink(const CollectingSink&) = delete;
  CollectingSink& operator=(const CollectingSink&) = delete;

  void emit(Event event) override { stream_.push_back(std::move(event)); }
  [[nodiscard]] const EventStream& stream() const { return stream_; }
  [[nodiscard]] EventStream take() { return std::move(stream_); }

  /// Recycles the events retired by reset(): the returned event is cleared
  /// but its record's value-string capacity survives, so re-filling it with
  /// same-shaped data allocates nothing.
  [[nodiscard]] Event scratch(EventType type) override {
    if (recycled_.empty()) return Event(type);
    Event event = std::move(recycled_.back());
    recycled_.pop_back();
    event.type = type;
    event.data.clear();
    return event;
  }

  /// Ready the sink for the next message without releasing storage; the
  /// retired events feed scratch().
  void reset() {
    for (auto& event : stream_) recycled_.push_back(std::move(event));
    stream_.clear();
  }

 private:
  StreamPool* pool_ = nullptr;
  EventStream stream_;
  std::vector<Event> recycled_;
};

}  // namespace indiss::core
