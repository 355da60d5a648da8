// Shard routing for the dispatcher (docs/sharding.md).
//
// The keying rule is the TranslationCache's own wire hash — fnv1a64 over the
// raw datagram bytes — so byte-identical repeats of an advertisement always
// land on the same shard and hit that shard's cache, sessions, and
// per-source bundles with no shared mutable state.
//
// Hashing alone is not enough, though: a service's withdrawal is a
// *different* byte string from its advertisement (ssdp:byebye vs ssdp:alive,
// TTL-0 vs TTL>0), and request answering depends on the foreign-service
// state of whichever shard absorbed the advertisement. The dispatcher
// therefore classifies each wire before routing:
//
//   kHashed     advertisements — the storm hot path — go to exactly the
//               shard_for() shard.
//   kBroadcast  control traffic every shard needs: requests, withdrawals,
//               and Jini registrar announcements are replicated to ALL
//               shards. This is safe precisely because every unit's answer
//               and withdrawal path is state-gated (no matching local state
//               means a silent no-op), so only the one shard owning the
//               service's state ever produces wire output.
//
// Anything the classifier cannot confidently identify defaults to
// kBroadcast: replication costs duplicate no-op parses, misrouting a
// withdrawal would strand impersonated state forever.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/bytes.hpp"
#include "core/types.hpp"
#include "net/packet.hpp"

namespace indiss::core::shard {

enum class Route : std::uint8_t {
  /// Advertisement: deliver to shard_for(payload, shards) only.
  kHashed,
  /// Requests / withdrawals / registrar announcements: deliver to every
  /// shard; state gating keeps the wire-level response single.
  kBroadcast,
};

/// The keying rule: fnv1a64(wire) mod shard count. Deterministic across
/// runs and processes — the hash has no seed.
[[nodiscard]] std::size_t shard_for(BytesView wire, std::size_t shard_count);

/// Classifies one monitor-detected datagram. `sdp` comes from the port the
/// datagram arrived on (the monitor's IANA correspondence), which scopes
/// the byte inspection per protocol.
[[nodiscard]] Route classify(SdpId sdp, const net::Datagram& datagram);

}  // namespace indiss::core::shard
