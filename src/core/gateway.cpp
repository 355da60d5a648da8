#include "core/gateway.hpp"

#include <utility>

#include "common/logging.hpp"

namespace indiss::core {

Gateway::Gateway(transport::Transport& transport, GatewayConfig config,
                 std::unique_ptr<ShardLanes> lanes)
    : config_(std::move(config)) {
  if (config_.shards <= 1) {
    shards_.push_back(std::make_unique<Indiss>(transport, config_.indiss));
    monitor_ = &shards_.front()->monitor();
    return;
  }
  lanes_ = std::move(lanes);
  auto own_endpoints = config_.indiss.own_endpoints != nullptr
                           ? config_.indiss.own_endpoints
                           : std::make_shared<OwnEndpoints>();
  // The front monitor carries the node's ingress defenses: a flooding source
  // is rate-limited once, here, whichever shards its datagrams hash to.
  front_ = std::make_unique<Monitor>(transport, own_endpoints,
                                     config_.indiss.monitor);
  monitor_ = front_.get();
  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    IndissConfig shard_config = config_.indiss;
    shard_config.scan_ports = false;
    shard_config.own_endpoints = own_endpoints;
    shard_config.monitor = MonitorConfig{};
    transport::Transport& host =
        lanes_ != nullptr ? lanes_->transport(i) : transport;
    shards_.push_back(std::make_unique<Indiss>(host, std::move(shard_config)));
  }
}

Gateway::~Gateway() { stop(); }

void Gateway::start() {
  if (running_) return;
  running_ = true;
  for (auto& shard : shards_) shard->start();
  if (front_ == nullptr) return;

  if (lanes_ != nullptr) lanes_->start(shards_);
  front_->set_detection_handler(
      [this](SdpId sdp, const net::Datagram& datagram) {
        route(sdp, datagram);
      });
  if (config_.indiss.scan_ports) {
    for (const auto& entry : iana_table()) {
      if (config_.indiss.enabled_sdps.contains(entry.sdp)) {
        front_->scan(entry);
      }
    }
  }
  log::info("gateway", "started ", shards_.size(), " shards (",
            lanes_ != nullptr ? "threaded" : "inline", ")");
}

void Gateway::stop() {
  if (!running_) return;
  running_ = false;
  for (SdpId sdp : {SdpId::kSlp, SdpId::kUpnp, SdpId::kJini, SdpId::kMdns}) {
    monitor_->stop_scanning(sdp);
  }
  if (front_ != nullptr) front_->set_detection_handler(nullptr);
  if (lanes_ != nullptr) lanes_->stop();
}

void Gateway::ingest(SdpId sdp, const net::Datagram& datagram) {
  if (!running_) return;
  monitor_->ingest(sdp, datagram);
}

void Gateway::route(SdpId sdp, const net::Datagram& datagram) {
  dispatched_ += 1;
  if (shard::classify(sdp, datagram) == shard::Route::kHashed) {
    BytesView wire(datagram.payload.data(), datagram.payload.size());
    deliver(shard_for(wire), sdp, datagram);
    return;
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (i > 0) replicated_ += 1;
    deliver(i, sdp, datagram);
  }
}

void Gateway::deliver(std::size_t index, SdpId sdp,
                      const net::Datagram& datagram) {
  if (lanes_ != nullptr) {
    lanes_->deliver(index, sdp, datagram);
  } else {
    shards_[index]->ingest(sdp, datagram);
  }
}

void Gateway::trigger_active_probe() {
  for (auto& shard : shards_) shard->trigger_active_probe();
}

Unit::Stats Gateway::unit_stats(SdpId sdp) const {
  Unit::Stats merged;
  for (const auto& shard : shards_) {
    if (const Unit* unit = shard->unit(sdp)) merged += unit->stats();
  }
  return merged;
}

TranslationCache::SdpStats Gateway::translation_stats(SdpId sdp) const {
  TranslationCache::SdpStats merged;
  for (const auto& shard : shards_) {
    if (const TranslationCache* cache = shard->translation_cache()) {
      merged += cache->stats(sdp);
    }
  }
  return merged;
}

ServiceDirectory::SdpStats Gateway::directory_stats(SdpId sdp) const {
  ServiceDirectory::SdpStats merged;
  for (const auto& shard : shards_) {
    if (const ServiceDirectory* dir = shard->directory()) {
      merged += dir->stats(sdp);
    }
  }
  return merged;
}

mdns::ProbeStats Gateway::probe_stats() const {
  mdns::ProbeStats merged;
  for (const auto& shard : shards_) merged += shard->probe_stats();
  return merged;
}

}  // namespace indiss::core
