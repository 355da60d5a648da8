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
#include <unordered_map>
#include <vector>

#include "net/address.hpp"

namespace indiss::core {

/// Shared registry of endpoints INDISS itself sends from; the monitor
/// filters against it so the system never re-ingests its own traffic.
///
/// Internally synchronized: in a threaded gateway (docs/sharding.md) units
/// on shard threads register their socket endpoints while the front monitor
/// filters inbound traffic against the same set. One hash map is written in
/// place under the exclusive lock, so an insert (every unit and per-query
/// socket makes one) costs one node; contains() runs once per inbound
/// datagram under the shared lock, so readers never block each other.
///
/// Each endpoint counts its inserts and leaves the set when as many erases
/// have followed: a per-query socket's endpoint is erased some time after
/// the socket closes (Unit::open_query_socket), and a recycled port bound
/// again meanwhile stays filtered for as long as the new socket needs it.
class OwnEndpoints {
 public:
  void insert(const net::Endpoint& endpoint) {
    std::unique_lock lock(mu_);
    counts_[endpoint] += 1;
  }
  /// Undoes one insert of `endpoint`; unknown endpoints are ignored.
  void erase(const net::Endpoint& endpoint) {
    std::unique_lock lock(mu_);
    auto it = counts_.find(endpoint);
    if (it != counts_.end() && --it->second == 0) counts_.erase(it);
  }
  [[nodiscard]] bool contains(const net::Endpoint& endpoint) const {
    std::shared_lock lock(mu_);
    return counts_.contains(endpoint);
  }
  [[nodiscard]] std::size_t size() const {
    std::shared_lock lock(mu_);
    return counts_.size();
  }

 private:
  mutable std::shared_mutex mu_;
  std::unordered_map<net::Endpoint, std::uint32_t> counts_;
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
