// Core identifiers: the SDPs INDISS bridges and the IANA correspondence
// table the monitor component scans (paper §2.1: "a static correspondence
// table between the IANA-registered permanent ports and their associated
// SDP").
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "net/address.hpp"

namespace indiss::core {

/// Shared registry of endpoints INDISS itself sends from; the monitor
/// filters against it so the system never re-ingests its own traffic.
///
/// Its endpoints are the units' reply sockets, which also send the
/// translated queries: none is per query, retired or inserted twice.
///
/// Internally synchronized: in a threaded gateway (docs/sharding.md) units
/// on shard threads register their socket endpoints while the front monitor
/// filters inbound traffic against the same set. One hash set is written in
/// place under the exclusive lock, so an insert costs one node; contains()
/// runs once per inbound datagram under the shared lock, so readers never
/// block each other.
class OwnEndpoints {
 public:
  void insert(const net::Endpoint& endpoint) {
    std::unique_lock lock(mu_);
    endpoints_.insert(endpoint);
  }
  [[nodiscard]] bool contains(const net::Endpoint& endpoint) const {
    std::shared_lock lock(mu_);
    return endpoints_.contains(endpoint);
  }
  [[nodiscard]] std::size_t size() const {
    std::shared_lock lock(mu_);
    return endpoints_.size();
  }

 private:
  mutable std::shared_mutex mu_;
  std::unordered_set<net::Endpoint> endpoints_;
};

enum class SdpId : std::uint8_t { kSlp, kUpnp, kJini, kMdns };

[[nodiscard]] constexpr std::string_view sdp_name(SdpId sdp) {
  switch (sdp) {
    case SdpId::kSlp: return "slp";
    case SdpId::kUpnp: return "upnp";
    case SdpId::kJini: return "jini";
    case SdpId::kMdns: return "mdns";
  }
  return "?";
}

struct IanaEntry {
  SdpId sdp;
  net::IpAddress group;
  std::uint16_t port;
};

/// The monitor's permanent identification tags: (group, port) -> SDP.
[[nodiscard]] const std::vector<IanaEntry>& iana_table();

}  // namespace indiss::core
