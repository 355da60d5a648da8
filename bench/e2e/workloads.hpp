// The four traffic mixes. Each builds its ops ahead of a phase from a seeded
// RNG: open loop, Poisson arrivals, every payload encoded before timing
// starts. Types offered in SDP Y are only ever queried through an SDP X != Y,
// so no answer can bypass the gateway.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "engine.hpp"

namespace indiss::bench_e2e {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}
  double uniform() { return std::uniform_real_distribution<double>()(engine_); }
  int below(int n) {
    return static_cast<int>(
        std::uniform_int_distribution<std::int64_t>(0, n - 1)(engine_));
  }

 private:
  std::mt19937_64 engine_;
};

/// Collects one phase's ops. Payloads live in a store shared across phases
/// so byte-identical re-announcements reuse one encoded wire.
struct Plan {
  Engine& engine;
  std::vector<Op>& ops;
  std::vector<Bytes>& store;
  bool measured;

  std::uint32_t payload(Bytes bytes) {
    store.push_back(std::move(bytes));
    return static_cast<std::uint32_t>(store.size() - 1);
  }
  void send(std::int64_t due, int socket, Sdp dest, std::uint32_t payload,
            std::uint32_t retry_of = kNoTxn) {
    ops.push_back(Op{due, payload, static_cast<std::uint8_t>(socket),
                     static_cast<std::uint8_t>(dest), retry_of});
  }
  /// A device's advertisement from the device socket of its SDP.
  void advert(std::int64_t due, Sdp sdp, std::uint32_t payload) {
    send(due, static_cast<int>(sdp), sdp, payload);
  }
  std::uint32_t txn(std::int64_t due, int type, bool measure = true) {
    return engine.new_txn(due, type, measured && measure);
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  /// indissd arguments beyond --loopback.
  [[nodiscard]] virtual std::vector<std::string> gateway_args() const {
    return {"--sdps", "slp,upnp,mdns"};
  }
  /// Mean offered ops/s of the whole mix in the fixed-rate phase.
  [[nodiscard]] virtual double fixed_rate() const = 0;
  /// Fresh generator state for a fresh gateway process.
  virtual void reset(Engine& engine, std::vector<Bytes>& store) = 0;
  [[nodiscard]] virtual std::size_t prime_count() const { return 0; }
  /// Priming pace: batches of `prime_batch()` adverts, each sent once the
  /// previous one's bridged frames arrived and `prime_gap_ns()` passed.
  [[nodiscard]] virtual std::size_t prime_batch() const { return 128; }
  [[nodiscard]] virtual std::int64_t prime_gap_ns() const { return 0; }
  virtual void prime(Plan&, std::size_t, std::int64_t) {}

  /// One op of the mix, due at `due`.
  virtual void next(Plan& plan, std::int64_t due, Rng& rng) = 0;
};

// ---------------------------------------------------------------------------

namespace detail {

inline std::string announce_key(const Service& s) { return "A" + s.url; }

/// Expects the frames the gateway emits for a withdrawal of `s` (see
/// README.md's workload table): mDNS goodbyes for SLP/SSDP origins, an
/// ssdp:byebye for SLP/mDNS origins.
inline void expect_withdrawal(Engine& engine, std::uint32_t txn,
                              const Service& s) {
  if (s.origin != Sdp::kMdns) engine.expect(txn, "G" + s.url);
  if (s.origin != Sdp::kSsdp) engine.expect(txn, "B" + upnp_type(s.type));
}

}  // namespace detail

/// The whole-mix rescale factors calibrated on the gateway this benchmark
/// was introduced with (4-vCPU x86 VM, loopback), so each fixed phase runs
/// at 10-30% of the highest rate of the whole mix that met a p90 latency
/// limit (2 ms for adverts, 5 ms for queries) with at most 0.1% failed, in a
/// one-time ramp-and-bisect search: adv-refresh ~20-50k ops/s,
/// adv-churn ~10k, query-bridged ~800, query-directory ~2.2k. adv-refresh
/// stays lower: at 10k/s a host vCPU stall of ~20 ms overflows the gateway's
/// default socket buffer and drops refreshes.
inline constexpr double kAdvRefreshScale = 2.0;
inline constexpr double kAdvChurnScale = 0.9;
inline constexpr double kQueryBridgedScale = 1.0;
inline constexpr double kQueryDirectoryScale = 0.3;

/// adv-refresh: 192 devices re-announce byte-identical wires (the
/// translation cache replays them) plus a trickle of new services.
class AdvRefresh final : public Workload {
 public:
  static constexpr int kDevices = 192;
  static constexpr int kTypes = 8;
  static constexpr double kRefreshRate = 2000;
  static constexpr double kNewRate = 50;

  [[nodiscard]] std::string name() const override { return "adv-refresh"; }
  [[nodiscard]] double fixed_rate() const override {
    return (kRefreshRate + kNewRate) * kAdvRefreshScale;
  }

  void reset(Engine&, std::vector<Bytes>& store) override {
    devices_.clear();
    payloads_.clear();
    order_.clear();
    next_id_ = 1'000'000;
    for (int i = 0; i < kDevices; ++i) {
      Service s = make_service(static_cast<Sdp>(i % 3), i % kTypes, i);
      store.push_back(advert(s, 0, false));
      payloads_.push_back(static_cast<std::uint32_t>(store.size() - 1));
      devices_.push_back(std::move(s));
      order_.push_back(i);
    }
    next_device_ = order_.size();  // shuffle before the first cycle
  }
  [[nodiscard]] std::size_t prime_count() const override { return kDevices; }
  // The cache's open-bundle ring holds 64 bundles still inside their 200 ms
  // settle window; a 65th erases the oldest, whose device would then
  // re-translate to silence. So: 48 at a time, 220 ms apart once confirmed
  // (the last pause lets the last batch settle before the warm-up).
  [[nodiscard]] std::size_t prime_batch() const override { return 48; }
  [[nodiscard]] std::int64_t prime_gap_ns() const override {
    return 220'000'000;
  }
  void prime(Plan& plan, std::size_t i, std::int64_t due) override {
    announce(plan, devices_[i], payloads_[i], due, false);
  }

  void next(Plan& plan, std::int64_t due, Rng& rng) override {
    if (rng.uniform() < kNewRate / (kRefreshRate + kNewRate)) {
      Service s = make_service(rng.below(2) == 0 ? Sdp::kSlp : Sdp::kSsdp,
                               rng.below(kTypes), next_id_++);
      announce(plan, s, plan.payload(advert(s, 0, false)), due, true);
      return;
    }
    // Each device re-announces once per cycle of kDevices refreshes, in a
    // fresh random order each cycle, as periodic announcers do. A device
    // left idle for a long random gap would drop out of the cache's LRU
    // window and re-translate: a repeat that misses the cache is silent.
    if (next_device_ == order_.size()) {
      for (std::size_t i = order_.size(); i > 1; --i) {
        std::swap(order_[i - 1], order_[static_cast<std::size_t>(
                                     rng.below(static_cast<int>(i)))]);
      }
      next_device_ = 0;
    }
    int d = order_[next_device_++];
    announce(plan, devices_[d], payloads_[d], due, true);
  }

 private:
  /// An mDNS device's advertisement translates to silence (the SLP and
  /// UPnP units only remember it), so only SLP/SSDP adverts are timed.
  static void announce(Plan& plan, const Service& s, std::uint32_t payload,
                       std::int64_t due, bool measure) {
    if (s.origin != Sdp::kMdns) {
      plan.engine.expect(plan.txn(due, s.type, measure),
                         detail::announce_key(s));
    }
    plan.advert(due, s.origin, payload);
  }

  std::vector<Service> devices_;
  std::vector<std::uint32_t> payloads_;
  std::vector<int> order_;
  std::size_t next_device_ = 0;
  std::uint64_t next_id_ = 0;
};

/// adv-churn: every wire unique — new services, changed adverts of live
/// ones, and byebyes of live ones over a ~4,096-service live set.
class AdvChurn final : public Workload {
 public:
  static constexpr int kLive = 4096;
  static constexpr int kTypes = 16;
  static constexpr double kRate = 2000;

  [[nodiscard]] std::string name() const override { return "adv-churn"; }
  [[nodiscard]] double fixed_rate() const override {
    return kRate * kAdvChurnScale;
  }

  void reset(Engine&, std::vector<Bytes>&) override {
    live_.clear();
    next_id_ = 1;
    for (int i = 0; i < kLive; ++i) live_.push_back({fresh(i % 3), 0});
  }
  [[nodiscard]] std::size_t prime_count() const override { return kLive; }
  void prime(Plan& plan, std::size_t i, std::int64_t due) override {
    announce(plan, live_[i].service, due, false);
  }

  void next(Plan& plan, std::int64_t due, Rng& rng) override {
    double u = rng.uniform();
    if (u < 0.25 || live_.empty()) {
      live_.push_back({fresh(rng.below(3)), 0});
      announce(plan, live_.back().service, due, true);
    } else if (u < 0.75) {
      // A changed advert of a live service: a new wire for a service the
      // gateway already bridges translates to silence.
      Live& l = live_[static_cast<std::size_t>(rng.below(
          static_cast<int>(live_.size())))];
      l.revision += 1;
      plan.advert(due, l.service.origin,
                  plan.payload(advert(l.service, l.revision, false)));
    } else {
      Service s = std::move(live_.front().service);
      live_.pop_front();
      std::uint32_t t = plan.txn(due, s.type);
      detail::expect_withdrawal(plan.engine, t, s);
      plan.advert(due, s.origin, plan.payload(advert(s, 0, true)));
    }
  }

 private:
  struct Live {
    Service service;
    int revision = 0;
  };

  Service fresh(int origin) {
    std::uint64_t id = next_id_++;
    return make_service(static_cast<Sdp>(origin),
                        static_cast<int>(id % kTypes), id);
  }
  static void announce(Plan& plan, const Service& s, std::int64_t due,
                       bool measure) {
    if (s.origin != Sdp::kMdns) {
      plan.engine.expect(plan.txn(due, s.type, measure),
                         detail::announce_key(s));
    }
    plan.advert(due, s.origin, plan.payload(advert(s, 0, false)));
  }

  std::deque<Live> live_;
  std::uint64_t next_id_ = 1;
};

/// Shared requester bookkeeping for the two query mixes.
class QueryMix : public Workload {
 protected:
  /// Adds a query op from requester `r`, its retransmission should the
  /// answer not come within kRetryNs, and the answer the transaction waits
  /// for.
  static void ask(Plan& plan, std::int64_t due, int r, Sdp via, int type,
                  std::uint16_t id, std::uint32_t payload) {
    std::uint32_t t = plan.txn(due, type);
    const std::string who = std::to_string(r) + "|";
    std::string key;
    switch (via) {
      case Sdp::kSlp:
        key = "S" + who + std::to_string(id);
        break;
      case Sdp::kMdns:
        key = "M" + who + std::to_string(id);
        break;
      case Sdp::kSsdp:
        key = "U" + who + upnp_type(type);
        break;
    }
    plan.engine.expect(t, key);
    plan.engine.allow_retry(t, key);
    const int socket = Engine::kRequesterBase + r;
    plan.send(due, socket, via, payload);
    plan.send(due + kRetryNs, socket, via, payload, t);
  }
};

/// query-bridged: the paper's request/reply path. Three directed pairs —
/// SLP SrvRqst, mDNS browse and M-SEARCH, each for its own four types —
/// fanned out by the gateway to the two other SDPs. The generator offers
/// every queried type in both of them and answers each translated query at
/// once (the UPnP leg through the description GET of the paper's §2.4), so
/// every per-query session closes promptly instead of holding its socket
/// until the 10 s session timeout.
class QueryBridged final : public QueryMix {
 public:
  static constexpr int kTypesPerPair = 4;
  static constexpr double kRate = 200;

  [[nodiscard]] std::string name() const override { return "query-bridged"; }
  [[nodiscard]] double fixed_rate() const override {
    return kRate * kQueryBridgedScale;
  }

  /// Pair p queries through this SDP; its types are offered in the others.
  static Sdp via_of(int pair) {
    return pair == 0 ? Sdp::kSlp : pair == 1 ? Sdp::kMdns : Sdp::kSsdp;
  }

  void reset(Engine& engine, std::vector<Bytes>&) override {
    for (int pair = 0; pair < 3; ++pair) {
      for (int k = 0; k < kTypesPerPair; ++k) {
        int type = pair * kTypesPerPair + k;
        for (Sdp origin : {Sdp::kSlp, Sdp::kSsdp, Sdp::kMdns}) {
          if (origin == via_of(pair)) continue;
          Service s = make_service(origin, type, 500 + 3 * type +
                                                     static_cast<int>(origin));
          if (origin != Sdp::kSsdp) {
            engine.offer(s);
            engine.know(s);
            continue;
          }
          // A UPnP device: the search answer names a description whose
          // controlURL is the service endpoint the gateway hands back.
          const std::string path = "/d" + std::to_string(s.id) + ".xml";
          const std::string control =
              "soap://" + host_for(s.id) + ":4004/u" + std::to_string(s.id);
          engine.serve(path, description_response(s, control));
          const std::string location =
              "http://127.0.0.1:" + std::to_string(engine.http_port()) + path;
          engine.offer(s, ssdp_answer(s, location));
          engine.know(Service{Sdp::kSsdp, type, s.id, control});
        }
      }
    }
  }

  void next(Plan& plan, std::int64_t due, Rng& rng) override {
    int pair = rng.below(3);
    int r = static_cast<int>(next_id_ % Engine::kRequesters);
    auto id = static_cast<std::uint16_t>(next_id_++);
    Sdp via = via_of(pair);
    int type = pair * kTypesPerPair + rng.below(kTypesPerPair);
    for (Sdp target : {Sdp::kSlp, Sdp::kSsdp, Sdp::kMdns}) {
      if (target != via) plan.engine.expect_translated(target, type);
    }
    ask(plan, due, r, via, type, id, plan.payload(query(via, type, id)));
  }

 private:
  std::uint64_t next_id_ = 1;
};

/// query-directory: --directory answers from the service index. 1,024
/// services primed over 16 types; queries repeat byte-identical mDNS and
/// SSDP wires (answer-cache hits) and fresh-XID SLP requests (full answer
/// composition), mixed with index writes that invalidate the answer cache.
class QueryDirectory final : public QueryMix {
 public:
  static constexpr int kServices = 1024;
  static constexpr int kTypes = 16;
  static constexpr double kQueryRate = 2000;
  static constexpr double kWriteRate = 20;
  static constexpr auto kWriteEvery =
      static_cast<std::uint64_t>((kQueryRate + kWriteRate) / kWriteRate);

  [[nodiscard]] std::string name() const override { return "query-directory"; }
  [[nodiscard]] std::vector<std::string> gateway_args() const override {
    return {"--sdps", "slp,upnp,mdns", "--directory"};
  }
  [[nodiscard]] double fixed_rate() const override {
    return (kQueryRate + kWriteRate) * kQueryDirectoryScale;
  }

  /// Type t is offered only in SDP t % 3.
  static Sdp origin_of(int type) { return static_cast<Sdp>(type % 3); }

  void reset(Engine& engine, std::vector<Bytes>& store) override {
    engine.expect_da_advert();
    primed_.clear();
    written_.clear();
    next_id_ = 100'000;
    next_xid_ = 1;
    writes_ = 0;
    ops_ = 0;
    for (int i = 0; i < kServices; ++i) {
      int type = i % kTypes;
      Service s = make_service(origin_of(type), type, i);
      engine.know(s);
      primed_.push_back(std::move(s));
    }
    // Byte-identical repeats: one mDNS/SSDP wire per (requester, type).
    repeat_.assign(Engine::kRequesters * kTypes * 3, 0);
    for (int r = 0; r < Engine::kRequesters; ++r) {
      for (int t = 0; t < kTypes; ++t) {
        for (Sdp via : {Sdp::kSsdp, Sdp::kMdns}) {
          auto id = static_cast<std::uint16_t>(r * kTypes + t + 1);
          store.push_back(query(via, t, id));
          repeat_[index(r, t, via)] =
              static_cast<std::uint32_t>(store.size() - 1);
        }
      }
    }
  }
  [[nodiscard]] std::size_t prime_count() const override { return kServices; }
  void prime(Plan& plan, std::size_t i, std::int64_t due) override {
    const Service& s = primed_[i];
    if (s.origin != Sdp::kMdns) {
      plan.engine.expect(plan.txn(due, s.type, false),
                         detail::announce_key(s));
    }
    plan.advert(due, s.origin, plan.payload(advert(s, 0, false)));
  }

  void next(Plan& plan, std::int64_t due, Rng& rng) override {
    // Every kWriteEvery-th op is an index write, so each round makes the
    // same number of writes whatever the seed.
    if (++ops_ % kWriteEvery == 0) {
      write(plan, due);
      return;
    }
    int type = rng.below(kTypes);
    int other = rng.below(2);
    Sdp via = static_cast<Sdp>((type % 3 + 1 + other) % 3);
    int r = rng.below(Engine::kRequesters);
    if (via == Sdp::kSlp) {
      auto xid = static_cast<std::uint16_t>(next_xid_++);
      ask(plan, due, r, via, type, xid, plan.payload(query(via, type, xid)));
    } else {
      auto id = static_cast<std::uint16_t>(r * kTypes + type + 1);
      ask(plan, due, r, via, type, id, repeat_[index(r, type, via)]);
    }
  }

 private:
  static std::size_t index(int r, int t, Sdp via) {
    return static_cast<std::size_t>((r * kTypes + t) * 3 +
                                    static_cast<int>(via));
  }

  /// Index writes alternate: register a new SLP service of an SLP-offered
  /// type, then deregister the oldest one this mix registered. Their
  /// bridged frames are verified but not timed.
  void write(Plan& plan, std::int64_t due) {
    if (writes_++ % 2 == 0 || written_.empty()) {
      int type = 3 * static_cast<int>(next_id_ % (kTypes / 3 + 1));
      Service s = make_service(Sdp::kSlp, type, next_id_++);
      plan.engine.know(s);
      plan.engine.expect(plan.txn(due, type, false), detail::announce_key(s));
      plan.advert(due, Sdp::kSlp, plan.payload(advert(s, 0, false)));
      written_.push_back(std::move(s));
      return;
    }
    Service s = std::move(written_.front());
    written_.pop_front();
    detail::expect_withdrawal(plan.engine, plan.txn(due, s.type, false), s);
    plan.advert(due, Sdp::kSlp, plan.payload(advert(s, 0, true)));
  }

  std::vector<Service> primed_;
  std::deque<Service> written_;
  std::vector<std::uint32_t> repeat_;
  std::uint64_t next_id_ = 0;
  std::uint64_t next_xid_ = 1;
  std::uint64_t writes_ = 0;
  std::uint64_t ops_ = 0;
};


inline std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "adv-refresh") return std::make_unique<AdvRefresh>();
  if (name == "adv-churn") return std::make_unique<AdvChurn>();
  if (name == "query-bridged") return std::make_unique<QueryBridged>();
  if (name == "query-directory") return std::make_unique<QueryDirectory>();
  return nullptr;
}

}  // namespace indiss::bench_e2e
