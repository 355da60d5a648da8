// The SLP unit: event-based parser and composer for SLPv2 plus the FSM that
// coordinates them (one of the two units in the paper's prototype).
#pragma once

#include <memory>
#include <string>

#include "core/unit.hpp"
#include "core/units/standard_fsm.hpp"
#include "slp/service.hpp"
#include "slp/wire.hpp"

namespace indiss::core {

/// Translates SLP wire messages into semantic event streams. Emits the
/// mandatory events plus the SLP-specific SDP_REQ_VERSION / SDP_REQ_SCOPE /
/// SDP_REQ_PREDICATE / SDP_REQ_ID from the paper's Fig 4.
///
/// Follows the scratch recipe (docs/events.md): the wire message decodes
/// into a reused member scratch and every event comes from sink.scratch(),
/// so a warm parser performs zero heap allocations per message.
class SlpEventParser : public SdpParser {
 public:
  /// `self`: the gateway's own address. A SrvRqst whose previous-responder
  /// list names it carries the bridge stamp in its head event, so the unit
  /// drops it (RFC 2608 §8.1: a listed agent must not answer again).
  explicit SlpEventParser(std::string self = {}) : self_(std::move(self)) {}
  [[nodiscard]] std::string_view name() const override { return "slp"; }
  void parse(BytesView raw, const MessageContext& ctx,
             EventSink& sink) override;

 private:
  std::string self_;
  slp::Message scratch_;
  std::string error_;
};

/// Builds the Fig-4 SrvRply from a translated reply stream the way
/// SlpUnit::compose_native_reply sends it (lifetime 65535, attributes in
/// the URL): one URL entry per SDP_RES_SERV_URL, each item's own attributes
/// folded into its URL after ';' when `attrs_in_url`. An item runs from one
/// SDP_SERVICE_TYPE / SDP_MDNS_INSTANCE / SDP_MDNS_SRV event to the next;
/// its attributes may come before or after its URL. Reuses the caller's
/// storage (slot-reused URL entries, scratch attribute-suffix string) so a
/// warm composer allocates nothing.
/// Returns the number of URL entries composed (0 = stay silent).
std::size_t compose_slp_reply(const EventStream& stream, std::string_view type,
                              std::uint16_t xid, std::uint16_t lifetime,
                              bool attrs_in_url, slp::SrvRply& out,
                              std::string& attr_scratch);

class SlpUnit : public Unit {
 public:
  explicit SlpUnit(transport::Transport& transport, UnitOptions options = {});

  /// Directory mode: multicast an unsolicited DAAdvert so native SLP agents
  /// discover the gateway as their Directory Agent (RFC 2608 §12.1) — UAs
  /// then query it unicast and SAs register with it, both of which feed and
  /// are answered from the service directory.
  void announce_directory_agent();

 protected:
  void compose_native_request(Session& session) override;
  void compose_native_reply(Session& session) override;
  [[nodiscard]] IdSpan query_id_span() const override { return slp::kXidSpan; }

 private:
  std::uint16_t next_xid_ = 0x4000;  // distinct from native agents' ranges
  // Compose-side scratch (slot-reused across replies; docs/events.md).
  slp::Message compose_scratch_ = slp::SrvRply{};
  std::string attr_scratch_;
  ByteWriter writer_;
};

}  // namespace indiss::core
