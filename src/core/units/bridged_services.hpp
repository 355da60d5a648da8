// The bridged-service table: the foreign services a unit learned about from
// peer advertisements and re-exposes in its own SDP. core::Unit holds one
// per unit and applies the one refresh, withdrawal and expiry rule to it
// (docs/protocols.md); the units only react to what it records and forgets.
//
// Every alive refresh, byebye and TTL sweep of the advertisement path lands
// here, so the per-message operations are hash lookups instead of scans over
// the live set:
//  - one entry per URL, found by URL in O(1) through a transparent
//    string_view hash, so refreshing a known URL allocates nothing;
//  - withdrawal by URL erases in O(1) (the vector swaps the last entry into
//    the hole), withdrawal by USN in O(entries carrying that USN);
//  - per USN the index keeps its entries oldest first, so a withdrawal that
//    names only a USN can still resolve to the oldest match;
//  - the TTL expiry sweep stays one linear pass.
// Erasing reorders the vector: entries() is a set, not an arrival log.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "transport/time.hpp"

namespace indiss::core {

/// A foreign service a unit learned about from peer advertisements.
struct ForeignService {
  /// The type it was first learned under; refreshes never rewrite it.
  std::string canonical_type;
  std::string url;
  /// Origin identity when the advertisement carried one (UPnP USN) — the
  /// withdrawal key for byebyes that name no URL.
  std::string usn;
  /// TTL-derived expiry instant (enforced only when the unit runs with
  /// expire_bridged_state — docs/chaos.md).
  transport::TimePoint expires_at{0};
  /// What the unit put in its own SDP for this service, 0 until then: the
  /// Jini unit's registrar lease, the UPnP unit's impersonated-device index.
  std::uint64_t handle = 0;
};

class BridgedServiceTable {
 public:
  [[nodiscard]] const std::vector<ForeignService>& entries() const {
    return services_;
  }

  /// The entry for `url`, or nullptr. Allocation-free.
  [[nodiscard]] ForeignService* find(std::string_view url);
  /// The oldest entry carrying `usn`, or nullptr (always for an empty USN).
  [[nodiscard]] const ForeignService* oldest_with_usn(
      std::string_view usn) const;

  /// Adds `service`, whose URL must not be in the table yet.
  ForeignService& insert(ForeignService service);
  /// Erases the entry for `url`; returns whether there was one.
  bool erase_url(std::string_view url);

  /// Linear sweep: erases every entry `pred` selects and returns how many.
  /// `pred` sees each entry once and must not modify the table.
  template <typename Pred>
  std::size_t erase_if(Pred pred) {
    std::size_t erased = 0;
    for (std::size_t i = 0; i < services_.size();) {
      if (pred(std::as_const(services_[i]))) {
        erase_at(i);  // the last entry moved into slot i: look at it next
        erased += 1;
      } else {
        i += 1;
      }
    }
    return erased;
  }

 private:
  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  template <typename Value>
  using Index =
      std::unordered_map<std::string, Value, StringHash, std::equal_to<>>;

  void erase_at(std::size_t index);

  std::vector<ForeignService> services_;
  Index<std::size_t> by_url_;
  /// Per USN, the indexes of the entries carrying it, oldest first.
  Index<std::vector<std::size_t>> by_usn_;
};

}  // namespace indiss::core
