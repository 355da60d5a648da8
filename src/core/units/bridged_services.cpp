#include "core/units/bridged_services.hpp"

#include <algorithm>

namespace indiss::core {

ForeignService* BridgedServiceTable::find(std::string_view url) {
  auto it = by_url_.find(url);
  return it == by_url_.end() ? nullptr : &services_[it->second];
}

const ForeignService* BridgedServiceTable::oldest_with_usn(
    std::string_view usn) const {
  if (usn.empty()) return nullptr;
  auto it = by_usn_.find(usn);
  return it == by_usn_.end() ? nullptr : &services_[it->second.front()];
}

ForeignService& BridgedServiceTable::insert(ForeignService service) {
  std::size_t index = services_.size();
  by_url_.emplace(service.url, index);
  if (!service.usn.empty()) by_usn_[service.usn].push_back(index);
  return services_.emplace_back(std::move(service));
}

bool BridgedServiceTable::erase_url(std::string_view url) {
  auto it = by_url_.find(url);
  if (it == by_url_.end()) return false;
  erase_at(it->second);
  return true;
}

void BridgedServiceTable::erase_at(std::size_t index) {
  ForeignService& victim = services_[index];
  by_url_.erase(victim.url);
  if (!victim.usn.empty()) {
    auto bucket = by_usn_.find(victim.usn);
    auto& indexes = bucket->second;
    indexes.erase(std::find(indexes.begin(), indexes.end(), index));
    if (indexes.empty()) by_usn_.erase(bucket);
  }

  // Swap-and-pop: the last entry takes the hole and its index entries are
  // repointed in place, which keeps each USN bucket in arrival order.
  std::size_t last = services_.size() - 1;
  if (index != last) {
    victim = std::move(services_[last]);
    by_url_.find(victim.url)->second = index;
    if (!victim.usn.empty()) {
      auto& indexes = by_usn_.find(victim.usn)->second;
      *std::find(indexes.begin(), indexes.end(), last) = index;
    }
  }
  services_.pop_back();
}

}  // namespace indiss::core
