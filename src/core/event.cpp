#include "core/event.hpp"

#include "common/strings.hpp"

namespace indiss::core {

EventSet event_set(EventType type) {
  switch (type) {
    case EventType::kControlStart:
    case EventType::kControlStop:
    case EventType::kControlParserSwitch:
    case EventType::kControlSocketSwitch:
      return EventSet::kControl;
    case EventType::kNetUnicast:
    case EventType::kNetMulticast:
    case EventType::kNetSourceAddr:
    case EventType::kNetDestAddr:
    case EventType::kNetType:
      return EventSet::kNetwork;
    case EventType::kServiceRequest:
    case EventType::kServiceResponse:
    case EventType::kServiceAlive:
    case EventType::kServiceByeBye:
    case EventType::kServiceTypeIs:
    case EventType::kServiceAttr:
      return EventSet::kService;
    case EventType::kReqLang:
      return EventSet::kRequest;
    case EventType::kResOk:
    case EventType::kResErr:
    case EventType::kResTtl:
    case EventType::kResServUrl:
      return EventSet::kResponse;
    case EventType::kRegRegister:
    case EventType::kRegDeregister:
    case EventType::kRegAck:
      return EventSet::kRegistration;
    case EventType::kDiscRepositoryFound:
    case EventType::kDiscRepositoryQuery:
      return EventSet::kDiscovery;
    case EventType::kAdvInterval:
      return EventSet::kAdvertisement;
    default:
      return EventSet::kSdpSpecific;
  }
}

bool is_mandatory(EventType type) {
  switch (event_set(type)) {
    case EventSet::kControl:
    case EventSet::kNetwork:
    case EventSet::kService:
    case EventSet::kRequest:
    case EventSet::kResponse:
      return true;
    default:
      return false;
  }
}

std::string_view event_name(EventType type) {
  switch (type) {
    case EventType::kControlStart: return "SDP_C_START";
    case EventType::kControlStop: return "SDP_C_STOP";
    case EventType::kControlParserSwitch: return "SDP_C_PARSER_SWITCH";
    case EventType::kControlSocketSwitch: return "SDP_C_SOCKET_SWITCH";
    case EventType::kNetUnicast: return "SDP_NET_UNICAST";
    case EventType::kNetMulticast: return "SDP_NET_MULTICAST";
    case EventType::kNetSourceAddr: return "SDP_NET_SOURCE_ADDR";
    case EventType::kNetDestAddr: return "SDP_NET_DEST_ADDR";
    case EventType::kNetType: return "SDP_NET_TYPE";
    case EventType::kServiceRequest: return "SDP_SERVICE_REQUEST";
    case EventType::kServiceResponse: return "SDP_SERVICE_RESPONSE";
    case EventType::kServiceAlive: return "SDP_SERVICE_ALIVE";
    case EventType::kServiceByeBye: return "SDP_SERVICE_BYEBYE";
    case EventType::kServiceTypeIs: return "SDP_SERVICE_TYPE";
    case EventType::kServiceAttr: return "SDP_SERVICE_ATTR";
    case EventType::kReqLang: return "SDP_REQ_LANG";
    case EventType::kResOk: return "SDP_RES_OK";
    case EventType::kResErr: return "SDP_RES_ERR";
    case EventType::kResTtl: return "SDP_RES_TTL";
    case EventType::kResServUrl: return "SDP_RES_SERV_URL";
    case EventType::kRegRegister: return "SDP_REG_REGISTER";
    case EventType::kRegDeregister: return "SDP_REG_DEREGISTER";
    case EventType::kRegAck: return "SDP_REG_ACK";
    case EventType::kDiscRepositoryFound: return "SDP_DISC_REPOSITORY";
    case EventType::kDiscRepositoryQuery: return "SDP_DISC_REPO_QUERY";
    case EventType::kAdvInterval: return "SDP_ADV_INTERVAL";
    case EventType::kSlpReqVersion: return "SDP_REQ_VERSION";
    case EventType::kSlpReqScope: return "SDP_REQ_SCOPE";
    case EventType::kSlpReqPredicate: return "SDP_REQ_PREDICATE";
    case EventType::kSlpReqId: return "SDP_REQ_ID";
    case EventType::kUpnpDeviceUrlDesc: return "SDP_DEVICE_URL_DESC";
    case EventType::kUpnpUsn: return "SDP_UPNP_USN";
    case EventType::kUpnpServerHeader: return "SDP_UPNP_SERVER";
    case EventType::kUpnpSearchTarget: return "SDP_UPNP_ST";
    case EventType::kJiniRegistrarId: return "SDP_JINI_REGISTRAR";
    case EventType::kJiniGroups: return "SDP_JINI_GROUPS";
    case EventType::kJiniProxy: return "SDP_JINI_PROXY";
    case EventType::kMdnsQuestion: return "SDP_MDNS_QUESTION";
    case EventType::kMdnsInstance: return "SDP_MDNS_INSTANCE";
    case EventType::kMdnsSrv: return "SDP_MDNS_SRV";
  }
  return "SDP_UNKNOWN";
}

std::string Event::to_string() const {
  std::string out(event_name(type));
  if (!data.empty()) {
    out += "{";
    bool first = true;
    data.for_each([&](std::string_view k, std::string_view v) {
      if (!first) out += ", ";
      first = false;
      out += k;
      out += "=";
      out += v;
    });
    out += "}";
  }
  return out;
}

bool well_framed(const EventStream& stream) {
  if (stream.size() < 2) return false;
  if (stream.front().type != EventType::kControlStart) return false;
  if (stream.back().type != EventType::kControlStop) return false;
  for (std::size_t i = 1; i + 1 < stream.size(); ++i) {
    if (stream[i].type == EventType::kControlStart ||
        stream[i].type == EventType::kControlStop) {
      return false;
    }
  }
  return true;
}

const Event* find_event(const EventStream& stream, EventType type) {
  for (const auto& e : stream) {
    if (e.type == type) return &e;
  }
  return nullptr;
}

AdvertView scan_advert(const EventStream& stream) {
  AdvertView v;
  std::string_view desc_url;
  for (const auto& event : stream) {
    switch (event.type) {
      case EventType::kResServUrl:
        if (v.url.empty()) v.url = event.get("url");
        break;
      case EventType::kUpnpDeviceUrlDesc:
        if (desc_url.empty()) desc_url = event.get("url");
        break;
      case EventType::kUpnpUsn:
        if (v.usn.empty()) v.usn = event.get("usn");
        break;
      case EventType::kServiceTypeIs:
        if (v.type.empty()) v.type = event.get("type");
        break;
      case EventType::kResTtl:
        if (v.ttl_seconds == 0) {
          v.ttl_seconds = str::parse_long(event.get("seconds"), 0);
        }
        break;
      default:
        break;
    }
  }
  if (v.url.empty()) v.url = desc_url;
  return v;
}

}  // namespace indiss::core
