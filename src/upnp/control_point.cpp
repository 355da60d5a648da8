#include "transport/transport.hpp"
#include "upnp/control_point.hpp"

#include "common/logging.hpp"
#include "common/strings.hpp"
#include "upnp/http_client.hpp"

namespace indiss::upnp {

namespace {

/// The description a fetched response carries: read by the one SSDP reader,
/// only a description response (no ST or NT) with status 200 has one.
std::optional<DeviceDescription> description_of(
    const std::optional<Bytes>& response) {
  if (!response.has_value()) return std::nullopt;
  SsdpReader reader;
  if (reader.read(*response) != SsdpReader::Kind::kHttpResponse ||
      reader.status() != 200) {
    return std::nullopt;
  }
  return DeviceDescription::from_xml(reader.body());
}

}  // namespace

ControlPoint::ControlPoint(transport::Transport& host, ControlPointConfig config)
    : host_(host), config_(config) {
  search_socket_ = host_.open_udp(0);
  search_socket_->set_receive_handler(
      [this](const net::Datagram& d) { on_search_datagram(d); });
}

ControlPoint::~ControlPoint() {
  if (search_socket_) search_socket_->close();
  if (group_socket_) group_socket_->close();
}

void ControlPoint::search(const std::string& st, ResponseHandler on_response,
                          DeviceHandler on_device,
                          CompleteHandler on_complete) {
  std::uint64_t id = next_session_id_++;
  SearchSession session;
  session.id = id;
  session.st = st;
  session.on_response = std::move(on_response);
  session.on_device = std::move(on_device);
  session.on_complete = std::move(on_complete);
  sessions_.emplace(id, std::move(session));

  SearchRequest request;
  request.st = st;
  request.mx = config_.mx;
  searches_sent_ += 1;
  search_socket_->send_to(net::Endpoint{kSsdpMulticastGroup, kSsdpPort},
                          encode(request));

  schedule_guarded(host_, alive_, config_.search_window, [this, id]() {
    auto it = sessions_.find(id);
    if (it == sessions_.end()) return;
    it->second.window_closed = true;
    maybe_complete(id);
  });
}

void ControlPoint::enable_passive_listening(DeviceHandler on_alive,
                                            ByeByeHandler on_bye) {
  on_alive_ = std::move(on_alive);
  on_byebye_ = std::move(on_bye);
  if (group_socket_) return;
  group_socket_ = host_.open_udp(kSsdpPort);
  group_socket_->join_group(kSsdpMulticastGroup);
  group_socket_->set_receive_handler(
      [this](const net::Datagram& d) { on_group_datagram(d); });
}

void ControlPoint::on_search_datagram(const net::Datagram& datagram) {
  auto message = parse_ssdp(datagram.payload);
  if (!message.has_value()) return;
  const auto* response = std::get_if<SearchResponse>(&*message);
  if (response == nullptr) return;

  // Client-side stack cost before the response is acted upon.
  schedule_guarded(
      host_, alive_, config_.stack_handling,
      [this, response = *response, datagram]() {
        // Route to every session whose target the response satisfies.
        for (auto& [id, session] : sessions_) {
          if (session.window_closed) continue;
          bool st_match = str::iequals(session.st, response.st) ||
                          str::iequals(session.st, kSearchTargetAll) ||
                          str::istarts_with(response.st, session.st);
          if (!st_match) continue;
          if (!session.seen_usns.insert(response.usn).second) continue;
          if (session.on_response) session.on_response(response);
          DiscoveredDevice device;
          device.response = response;
          device.source = datagram.source;
          if (config_.fetch_descriptions && !response.location.empty()) {
            session.fetches_in_flight += 1;
            fetch_description(id, std::move(device));
          } else {
            session.devices.push_back(device);
            if (session.on_device) session.on_device(session.devices.back());
          }
        }
      });
}

void ControlPoint::fetch_description(std::uint64_t session_id,
                                     DiscoveredDevice device) {
  auto uri = Uri::parse(device.response.location);
  if (!uri.has_value()) {
    log::warn("upnp.cp", "bad LOCATION: ", device.response.location);
    auto it = sessions_.find(session_id);
    if (it != sessions_.end()) {
      it->second.fetches_in_flight -= 1;
      maybe_complete(session_id);
    }
    return;
  }
  http_get(host_, *uri,
           [this, session_id, device = std::move(device)](
               std::optional<Bytes> response) mutable {
             auto it = sessions_.find(session_id);
             if (it == sessions_.end()) return;
             SearchSession& session = it->second;
             session.fetches_in_flight -= 1;
             device.description = description_of(response);
             session.devices.push_back(std::move(device));
             if (session.on_device) session.on_device(session.devices.back());
             maybe_complete(session_id);
           });
}

void ControlPoint::maybe_complete(std::uint64_t session_id) {
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return;
  SearchSession& session = it->second;
  if (!session.window_closed || session.fetches_in_flight > 0) return;
  auto devices = std::move(session.devices);
  auto handler = std::move(session.on_complete);
  sessions_.erase(it);
  if (handler) handler(devices);
}

void ControlPoint::on_group_datagram(const net::Datagram& datagram) {
  auto message = parse_ssdp(datagram.payload);
  if (!message.has_value()) return;
  const auto* notify = std::get_if<Notify>(&*message);
  if (notify == nullptr) return;

  if (notify->kind == Notify::Kind::kByeBye) {
    if (on_byebye_) on_byebye_(*notify);
    return;
  }
  if (!on_alive_) return;
  DiscoveredDevice device;
  device.response.st = notify->nt;
  device.response.usn = notify->usn;
  device.response.location = notify->location;
  device.response.max_age_seconds = notify->max_age_seconds;
  device.source = datagram.source;
  if (config_.fetch_descriptions && !notify->location.empty()) {
    auto uri = Uri::parse(notify->location);
    if (!uri.has_value()) return;
    http_get(host_, *uri,
             [this, device = std::move(device)](
                 std::optional<Bytes> response) mutable {
               device.description = description_of(response);
               if (on_alive_) on_alive_(device);
             });
  } else {
    on_alive_(device);
  }
}

}  // namespace indiss::upnp
