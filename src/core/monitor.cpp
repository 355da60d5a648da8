#include "core/monitor.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "core/unit.hpp"
#include "jini/discovery.hpp"
#include "mdns/dns.hpp"
#include "slp/agents.hpp"
#include "upnp/ssdp.hpp"

namespace indiss::core {

const std::vector<IanaEntry>& iana_table() {
  static const std::vector<IanaEntry> kTable = {
      {SdpId::kSlp, slp::kSlpMulticastGroup, slp::kSlpPort},
      {SdpId::kUpnp, upnp::kSsdpMulticastGroup, upnp::kSsdpPort},
      {SdpId::kJini, jini::kRequestGroup, jini::kJiniPort},
      {SdpId::kJini, jini::kAnnouncementGroup, jini::kJiniPort},
      {SdpId::kMdns, mdns::kMdnsGroup, mdns::kMdnsPort},
  };
  return kTable;
}

Monitor::Monitor(transport::Transport& transport,
                 std::shared_ptr<OwnEndpoints> own_endpoints,
                 MonitorConfig config)
    : host_(transport),
      own_endpoints_(std::move(own_endpoints)),
      config_(config) {
  if (config_.rate_limit_per_sec > 0.0 && config_.rate_limit_burst <= 0.0) {
    config_.rate_limit_burst = 2.0 * config_.rate_limit_per_sec;
  }
}

Monitor::~Monitor() {
  for (auto& [sdp, socket] : sockets_) socket->close();
}

void Monitor::scan(const IanaEntry& entry) {
  auto socket = host_.open_udp(entry.port);
  socket->join_group(entry.group);
  SdpId sdp = entry.sdp;
  socket->set_receive_handler([this, sdp](const net::Datagram& datagram) {
    on_datagram(sdp, datagram);
  });
  sockets_.emplace_back(sdp, std::move(socket));
}

void Monitor::scan_all() {
  for (const auto& entry : iana_table()) scan(entry);
}

void Monitor::stop_scanning(SdpId sdp) {
  for (auto& [id, socket] : sockets_) {
    if (id == sdp) socket->close();
  }
  std::erase_if(sockets_, [sdp](const auto& kv) { return kv.first == sdp; });
}

void Monitor::forward_to(SdpId sdp, Unit* unit) { forwards_[sdp] = unit; }

// Token-bucket admission, keyed by source address. Buckets refill lazily at
// arrival time; a new source starts with a full bucket. The tracked-source
// map is bounded: at capacity the stalest bucket (oldest refill) is
// recycled, so an address-spoofing flood can rotate buckets but never grow
// monitor state.
bool Monitor::admit(net::IpAddress source) {
  transport::TimePoint now = host_.now();
  auto it = buckets_.find(source);
  if (it == buckets_.end()) {
    if (buckets_.size() >= config_.max_tracked_sources &&
        !buckets_.empty()) {
      auto stalest = buckets_.begin();
      for (auto b = buckets_.begin(); b != buckets_.end(); ++b) {
        if (b->second.last_refill < stalest->second.last_refill) stalest = b;
      }
      buckets_.erase(stalest);
    }
    it = buckets_.emplace(source, SourceBucket{config_.rate_limit_burst, now})
             .first;
    stats_.sources_tracked = buckets_.size();
  } else {
    double elapsed_sec =
        static_cast<double>((now - it->second.last_refill).count()) / 1e9;
    it->second.tokens =
        std::min(config_.rate_limit_burst,
                 it->second.tokens + elapsed_sec * config_.rate_limit_per_sec);
    it->second.last_refill = now;
  }
  if (it->second.tokens < 1.0) return false;
  it->second.tokens -= 1.0;
  return true;
}

void Monitor::on_datagram(SdpId sdp, const net::Datagram& datagram) {
  // Never re-ingest INDISS's own traffic.
  if (own_endpoints_ != nullptr &&
      own_endpoints_->contains(datagram.source)) {
    stats_.filtered += 1;
    return;
  }
  // Shed floods before spending any translation work on them (forward
  // queues a per-unit parse hop for each; an advert storm from one source
  // must not starve the rest of the fleet).
  if (config_.rate_limit_per_sec > 0.0 && !admit(datagram.source.address)) {
    stats_.rate_limited += 1;
    return;
  }
  stats_.seen += 1;

  // Detection is data *arrival*, not data content (paper §2.1).
  if (!detected_.contains(sdp)) {
    detected_[sdp] = host_.now();
    log::info("monitor", "detected ", sdp_name(sdp), " on port ",
              datagram.destination.port);
  }
  if (detection_handler_) detection_handler_(sdp, datagram);

  auto it = forwards_.find(sdp);
  if (it != forwards_.end() && it->second != nullptr) {
    it->second->on_native_message(datagram);
  }
}

}  // namespace indiss::core
