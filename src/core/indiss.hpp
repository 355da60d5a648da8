// The INDISS system: a monitor plus a dynamically composed set of units
// deployed on one host (client side, service side, or a dedicated gateway —
// paper §4.2: "it is not mandatory for INDISS to be deployed on the client or
// service host").
//
// Configuration mirrors the paper's design-time specification (Fig 5a):
//
//   System SDP = {
//     Component Monitor = { ScanPort = { 1900; 1846; 4160; 427 } }
//     Component Unit SLP(port=...); Component Unit UPnP(port=...); ...
//   }
//
// while composition happens at run time: units are instantiated and wired
// all-to-all as event listeners, and the ContextManager reshapes behaviour
// (passive interception vs active re-advertisement) as traffic conditions
// evolve (Fig 6).
//
// Indiss runs against transport::Transport, so the same object bridges the
// simulated testbed (net::Host) and real multicast networks
// (live::LiveTransport inside indissd) without a line of difference.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/event_bus.hpp"
#include "core/monitor.hpp"
#include "core/types.hpp"
#include "core/unit.hpp"
#include "core/units/jini_unit.hpp"
#include "core/units/mdns_unit.hpp"
#include "core/units/slp_unit.hpp"
#include "core/units/upnp_unit.hpp"
#include "transport/transport.hpp"

namespace indiss::core {

/// Fig 6 adaptation policy: when observed wire traffic drops below the
/// threshold, INDISS switches from passive interception to actively probing
/// local services and re-advertising them in every peer SDP.
struct ContextPolicy {
  bool enabled = false;
  double traffic_threshold_bytes_per_sec = 500.0;
  transport::Duration sample_interval = transport::seconds(5);
  /// Canonical service types probed in active mode.
  std::vector<std::string> probe_types = {"clock"};
};

struct IndissConfig {
  /// SDPs bridged from start(). Units exist exactly for this set; the
  /// paper's prototype shipped SLP + UPnP. Iteration (and therefore bus
  /// subscription) order is SdpId order: slp, upnp, jini, mdns.
  std::set<SdpId> enabled_sdps = {SdpId::kSlp, SdpId::kUpnp};
  /// Ingress defenses (per-source rate limiting) for the monitor. A sharded
  /// core::Gateway applies them once, at its front monitor.
  MonitorConfig monitor;
  /// Options every unit runs with; make_unit fills in the shared
  /// own-endpoint set, translation cache and service store.
  UnitOptions unit_options;
  UpnpUnit::Config upnp;
  MdnsUnit::Config mdns;
  ContextPolicy context;
  /// Bridged-translation cache: byte-identical repeated advertisements
  /// short-circuit to their previously composed outbound frames instead of
  /// re-running the translation pipeline (docs/events.md).
  bool enable_translation_cache = true;
  /// Directory mode (docs/directory.md): the gateway answers browse/lookup
  /// queries from its service store, which the bridged advertisements
  /// populate either way (SLP DA / Jini-registrar front / mDNS-SSDP cache
  /// roles), instead of translating every query out to the origin network.
  /// Off by default so calibrated and zero-fault runs stay bit-identical.
  bool enable_directory = false;
  /// When false, start() skips binding the IANA well-known ports — inbound
  /// traffic arrives through ingest() instead. This is how shard instances
  /// run behind a gateway's front monitor (docs/sharding.md): only the front
  /// scans; units still open their ephemeral send sockets.
  bool scan_ports = true;
  /// Loop-prevention set shared with other Indiss instances on the same
  /// wire (every shard's sends must be invisible to the front monitor).
  /// Null: the instance makes its own private set.
  std::shared_ptr<OwnEndpoints> own_endpoints;
};

class Indiss {
 public:
  explicit Indiss(transport::Transport& transport, IndissConfig config = {});
  ~Indiss();

  Indiss(const Indiss&) = delete;
  Indiss& operator=(const Indiss&) = delete;

  /// Instantiates a unit per enabled SDP, subscribes them to the event bus,
  /// points the monitor at the IANA table entries of the enabled SDPs, and
  /// (when configured) starts the context manager.
  void start();
  void stop();
  [[nodiscard]] bool running() const { return running_; }

  [[nodiscard]] Monitor& monitor() { return *monitor_; }
  /// Feeds one datagram through the monitor's filter/detect/forward path as
  /// if it had arrived on a scanned port. The ingress side of a scan-less
  /// shard instance (docs/sharding.md); must run on this instance's
  /// scheduler thread.
  void ingest(SdpId sdp, const net::Datagram& datagram);
  /// The node's bridged-translation cache, or nullptr when disabled.
  [[nodiscard]] TranslationCache* translation_cache() {
    return translation_cache_.get();
  }
  /// The node's service store, or nullptr when directory mode is off.
  [[nodiscard]] ServiceDirectory* directory() {
    return config_.enable_directory ? store_.get() : nullptr;
  }
  /// The node's service store: every service the gateway bridges, in any
  /// mode (docs/directory.md).
  [[nodiscard]] ServiceDirectory& store() { return *store_; }
  /// mDNS probe/conflict counters (zeroed until an mDNS unit with probing
  /// enabled attaches; the monitor keeps the view across unit detach).
  [[nodiscard]] mdns::ProbeStats probe_stats() const {
    return monitor_->probe_stats();
  }
  /// The bus all inter-unit event delivery goes through.
  [[nodiscard]] EventBus& bus() { return bus_; }
  [[nodiscard]] const EventBus& bus() const { return bus_; }

  /// The unit bridging `sdp`, or nullptr while that SDP is disabled. This is
  /// the only lookup path — units are registry entries, not named members.
  [[nodiscard]] Unit* unit(SdpId sdp);

  /// Registry lookup downcast to a concrete unit type (tests and the
  /// context manager poking SDP-specific surface). Nullptr when the SDP is
  /// disabled or U is not that unit's type.
  template <typename U>
  [[nodiscard]] U* unit_as(SdpId sdp) {
    return dynamic_cast<U*>(unit(sdp));
  }

  /// SDPs with a live unit right now (start()-time config plus dynamic
  /// enable/disable edits).
  [[nodiscard]] const std::set<SdpId>& enabled_sdps() const {
    return enabled_sdps_;
  }

  [[nodiscard]] transport::Transport& transport() { return host_; }

  /// Dynamic composition (Fig 5's evolution of the INDISS configuration):
  /// adds a unit for an SDP that was not part of the initial configuration.
  /// The new unit is one bus subscription away from full participation.
  void enable_unit(SdpId sdp);
  /// The inverse: detaches and destroys a running unit. The bus stops
  /// delivering to it immediately; everything else keeps running.
  void disable_unit(SdpId sdp);

  // --- Context manager ------------------------------------------------------

  /// True once the traffic threshold pushed INDISS into active mode.
  [[nodiscard]] bool active_mode() const { return active_mode_; }
  /// Runs one active probe sweep immediately (also used by tests/benches).
  void trigger_active_probe();

  /// Total footprint proxy: bytes of live unit/session state (Table 2's
  /// runtime companion measurement).
  [[nodiscard]] std::size_t unit_count() const { return units_.size(); }

 private:
  void sample_traffic();
  void subscribe_units();
  [[nodiscard]] std::unique_ptr<Unit> make_unit(SdpId sdp);
  void attach_unit(SdpId sdp);

  transport::Transport& host_;
  IndissConfig config_;
  std::set<SdpId> enabled_sdps_;
  std::shared_ptr<OwnEndpoints> own_endpoints_;
  std::shared_ptr<TranslationCache> translation_cache_;
  std::shared_ptr<ServiceDirectory> store_;
  EventBus bus_;
  std::unique_ptr<Monitor> monitor_;
  /// SdpId-keyed unit registry; map order = SdpId order = bus subscription
  /// order (fig6-9 determinism depends on it).
  std::map<SdpId, std::unique_ptr<Unit>> units_;
  bool running_ = false;
  bool active_mode_ = false;
  std::uint64_t last_sample_bytes_ = 0;
  transport::TaskHandle sample_task_;
  transport::TaskHandle sweep_task_;
};

}  // namespace indiss::core
