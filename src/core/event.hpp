// The INDISS event model (paper §2.3, Table 1).
//
// Parsers translate native SDP messages into streams of semantic events;
// composers assemble events back into native messages. The *mandatory* event
// alphabet ∑m — the greatest common denominator of SDP functionality — is the
// union of five sets (Control, Network, Service, Request, Response). Three
// open extension sets (Registration, Discovery, Advertisement) and per-SDP
// specific events enrich it; composers silently ignore events they do not
// understand, which is how the richest SDPs can interact through INDISS
// without being "misunderstood by the poorest".
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/interning.hpp"
#include "transport/time.hpp"

namespace indiss::core {

enum class EventType : std::uint16_t {
  // --- SDP Control Events (mandatory) ---------------------------------
  kControlStart,         // SDP_C_START: begins a message's event stream
  kControlStop,          // SDP_C_STOP: ends it
  kControlParserSwitch,  // SDP_C_PARSER_SWITCH: unit must swap parsers
  kControlSocketSwitch,  // SDP_C_SOCKET_SWITCH: unit must re-wire transport

  // --- SDP Network Events (mandatory) ----------------------------------
  kNetUnicast,     // SDP_NET_UNICAST
  kNetMulticast,   // SDP_NET_MULTICAST
  kNetSourceAddr,  // SDP_NET_SOURCE_ADDR: data "addr", "port"
  kNetDestAddr,    // SDP_NET_DEST_ADDR:   data "addr", "port"
  kNetType,        // SDP_NET_TYPE:        data "sdp" (slp/upnp/jini)

  // --- SDP Service Events (mandatory) -----------------------------------
  kServiceRequest,   // SDP_SERVICE_REQUEST
  kServiceResponse,  // SDP_SERVICE_RESPONSE
  kServiceAlive,     // SDP_SERVICE_ALIVE:  advertisement (alive)
  kServiceByeBye,    // SDP_SERVICE_BYEBYE: advertisement (departure)
  kServiceTypeIs,    // SDP_SERVICE_TYPE:   data "type" (canonical form)
  kServiceAttr,      // SDP_SERVICE_ATTR:   data "key", "value"

  // --- SDP Request Events (mandatory) -----------------------------------
  kReqLang,  // SDP_REQ_LANG: data "lang"

  // --- SDP Response Events (mandatory) -----------------------------------
  kResOk,       // SDP_RES_OK
  kResErr,      // SDP_RES_ERR:      data "code"
  kResTtl,      // SDP_RES_TTL:      data "seconds"
  kResServUrl,  // SDP_RES_SERV_URL: data "url" — the paper's pivotal event

  // --- Registration Events (extension set) ------------------------------
  kRegRegister,    // SDP_REG_REGISTER:   service registration seen/needed
  kRegDeregister,  // SDP_REG_DEREGISTER
  kRegAck,         // SDP_REG_ACK

  // --- Discovery Events (extension set) ----------------------------------
  kDiscRepositoryFound,  // SDP_DISC_REPOSITORY: a DA/registrar was located
  kDiscRepositoryQuery,  // SDP_DISC_REPO_QUERY: unicast repository lookup

  // --- Advertisement Events (extension set) -------------------------------
  kAdvInterval,  // SDP_ADV_INTERVAL: data "seconds"

  // --- SLP-specific -------------------------------------------------------
  kSlpReqVersion,    // SDP_REQ_VERSION
  kSlpReqScope,      // SDP_REQ_SCOPE:     data "scopes"
  kSlpReqPredicate,  // SDP_REQ_PREDICATE: data "predicate"
  kSlpReqId,         // SDP_REQ_ID:        data "xid"

  // --- UPnP-specific --------------------------------------------------------
  kUpnpDeviceUrlDesc,  // SDP_DEVICE_URL_DESC: data "url" (description.xml)
  kUpnpUsn,            // SDP_UPNP_USN:        data "usn"
  kUpnpServerHeader,   // SDP_UPNP_SERVER:     data "server"
  kUpnpSearchTarget,   // SDP_UPNP_ST:         data "st" (raw search target)

  // --- Jini-specific ---------------------------------------------------------
  kJiniRegistrarId,  // SDP_JINI_REGISTRAR: data "id"
  kJiniGroups,       // SDP_JINI_GROUPS:    data "groups"
  kJiniProxy,        // SDP_JINI_PROXY:     data "proxy" (hex)

  // --- mDNS/DNS-SD-specific --------------------------------------------------
  kMdnsQuestion,  // SDP_MDNS_QUESTION: data "name" (qname), "qtype"
  kMdnsInstance,  // SDP_MDNS_INSTANCE: data "instance" (first label), "name"
  kMdnsSrv,       // SDP_MDNS_SRV:      data "target", "port", "priority",
                  //                    "weight"
};

/// Number of EventType enumerators (the enum is contiguous from 0). New
/// events must be added before this sentinel stays correct — the exhaustive
/// alphabet test iterates [0, kEventTypeCount).
inline constexpr std::uint16_t kEventTypeCount =
    static_cast<std::uint16_t>(EventType::kMdnsSrv) + 1;

/// Which of the paper's event sets a type belongs to.
enum class EventSet {
  kControl,
  kNetwork,
  kService,
  kRequest,
  kResponse,
  kRegistration,
  kDiscovery,
  kAdvertisement,
  kSdpSpecific,
};

[[nodiscard]] EventSet event_set(EventType type);

/// True for members of the mandatory alphabet ∑m (the five Table 1 sets).
[[nodiscard]] bool is_mandatory(EventType type);

/// Wire name as used in the paper ("SDP_C_START", "SDP_RES_SERV_URL", ...).
[[nodiscard]] std::string_view event_name(EventType type);

/// An event: a type plus a small string-keyed data record (interned keys,
/// inline storage — see common/interning.hpp). Events are the only currency
/// between parsers, FSMs and composers, so get/has are allocation-free.
struct Event {
  EventType type;
  SmallRecord data;

  Event() : type(EventType::kControlStart) {}
  explicit Event(EventType t) : type(t) {}
  Event(EventType t,
        std::initializer_list<std::pair<std::string_view, std::string_view>> kv)
      : type(t), data(kv) {}

  void set(std::string_view key, std::string_view value) {
    data.set(key, value);
  }
  /// The returned view aliases the event's storage; copy it if it must
  /// outlive the event.
  [[nodiscard]] std::string_view get(std::string_view key,
                                     std::string_view fallback = "") const {
    return data.get(key, fallback);
  }
  [[nodiscard]] bool has(std::string_view key) const { return data.has(key); }

  [[nodiscard]] std::string to_string() const;
};

/// The events of one message, bracketed by SDP_C_START .. SDP_C_STOP.
using EventStream = std::vector<Event>;

/// A parsed stream shared between units without copying: the bus hands the
/// same immutable buffer to every subscriber and every deferred delivery.
using SharedStream = std::shared_ptr<const EventStream>;

/// True when `stream` is well-framed: starts with SDP_C_START, ends with
/// SDP_C_STOP, and contains no other control-start/stop in between.
[[nodiscard]] bool well_framed(const EventStream& stream);

/// Convenience: first event of the given type, or nullptr.
[[nodiscard]] const Event* find_event(const EventStream& stream,
                                      EventType type);

/// Lifetime of an advertisement that carries no positive SDP_RES_TTL
/// (the service store's TTL rule, docs/directory.md).
inline constexpr transport::Duration kDefaultAdvertTtl =
    transport::seconds(300);

/// The identity an advertisement stream carries, as views into the stream.
/// Every field takes the *first* matching event. Only the mDNS parser can
/// emit several URL, type or TTL events in one stream (one per PTR/TXT
/// record of a multi-instance response); SDP_DEVICE_URL_DESC comes from
/// the SSDP parser alone, at most once per stream.
struct AdvertView {
  /// First SDP_RES_SERV_URL, else the UPnP description LOCATION.
  std::string_view url;
  /// First SDP_UPNP_USN.
  std::string_view usn;
  /// First SDP_SERVICE_TYPE.
  std::string_view type;
  /// The first non-zero SDP_RES_TTL's seconds (0 when there is none). An
  /// mDNS response whose first PTR carries TTL 0 and a later one 120 s
  /// reads 120 (pinned by tests/core/bridged_services_test.cpp).
  long ttl_seconds = 0;
};

/// One pass over an advertisement stream: the shared extraction rule of the
/// service directory and the units' bridged state.
[[nodiscard]] AdvertView scan_advert(const EventStream& stream);

}  // namespace indiss::core
