#include "transport/transport.hpp"
#include "upnp/device.hpp"

#include "common/logging.hpp"
#include "common/strings.hpp"

namespace indiss::upnp {

RootDevice::RootDevice(transport::Transport& host, DeviceDescription description,
                       std::uint16_t http_port, UpnpStackProfile profile)
    : host_(host),
      description_(std::move(description)),
      profile_(profile),
      http_port_(http_port) {}

RootDevice::~RootDevice() {
  if (running_) stop();
}

std::string RootDevice::location() const {
  return "http://" + host_.address().to_string() + ":" +
         std::to_string(http_port_) + "/description.xml";
}

void RootDevice::start() {
  if (running_) return;
  running_ = true;

  http_server_ = std::make_unique<HttpServer>(host_, http_port_,
                                              profile_.description_handling);
  http_server_->route("/description.xml", [this]() {
    return http_response("200 OK", "INDISS-sim/1.0 UPnP/1.0",
                         description_.to_xml());
  });
  // Sample control endpoint so examples can invoke the clock service.
  for (const auto& service : description_.services) {
    http_server_->route(service.control_url, []() {
      return http_response(
          "200 OK", {},
          "<?xml version=\"1.0\"?>\n"
          "<s:Envelope xmlns:s=\"http://schemas.xmlsoap.org/soap/envelope/\">"
          "<s:Body><u:GetTimeResponse><CurrentTime>00:00:00"
          "</CurrentTime></u:GetTimeResponse></s:Body></s:Envelope>\n");
    });
  }

  ssdp_socket_ = host_.open_udp(kSsdpPort);
  ssdp_socket_->join_group(kSsdpMulticastGroup);
  ssdp_socket_->set_receive_handler(
      [this](const net::Datagram& d) { on_datagram(d); });

  send_alive();
  notify_task_ = host_.schedule_periodic(
      profile_.notify_interval, [this]() { send_alive(); });
}

void RootDevice::stop() {
  if (!running_) return;
  send_byebye();
  running_ = false;
  notify_task_.cancel();
  if (ssdp_socket_) ssdp_socket_->close();
  http_server_.reset();
}

void RootDevice::on_datagram(const net::Datagram& datagram) {
  auto message = parse_ssdp(datagram.payload);
  if (!message.has_value()) return;
  if (const auto* search = std::get_if<SearchRequest>(&*message)) {
    handle_search(*search, datagram.source);
  }
  // Devices ignore responses and other devices' notifications.
}

bool RootDevice::matches_target(const std::string& st, std::string* nt) const {
  if (str::iequals(st, kSearchTargetAll) ||
      str::iequals(st, description_.device_type)) {
    *nt = description_.device_type;
    return true;
  }
  if (str::iequals(st, kSearchTargetRoot)) {
    *nt = std::string(kSearchTargetRoot);
    return true;
  }
  if (str::iequals(st, description_.udn)) {
    *nt = description_.udn;
    return true;
  }
  for (const auto& service : description_.services) {
    if (str::iequals(st, service.service_type)) {
      *nt = service.service_type;
      return true;
    }
  }
  // Version-less device-type searches (the paper's example omits ":1").
  if (str::istarts_with(description_.device_type, st)) {
    *nt = description_.device_type;
    return true;
  }
  return false;
}

void RootDevice::handle_search(const SearchRequest& request,
                               const net::Endpoint& from) {
  msearches_seen_ += 1;
  std::string nt;
  if (!matches_target(request.st, &nt)) return;

  SearchResponse response;
  response.st = nt;
  response.usn = description_.usn_for(nt);
  response.location = location();
  response.max_age_seconds = profile_.max_age_seconds;

  // Device-stack response scheduling (MX pacing + processing).
  auto delay = profile_.msearch_handling;
  if (profile_.mx_jitter && request.mx > 0) {
    delay += host_.random().uniform_duration(
        transport::Duration::zero(), transport::seconds(request.mx));
  }
  schedule_guarded(host_, alive_, delay, [this, response, from]() {
    if (!running_) return;
    responses_sent_ += 1;
    ssdp_socket_->send_to(from, encode(response));
  });
}

void RootDevice::send_alive() {
  notify(Notify::Kind::kAlive, std::string(kSearchTargetRoot));
  notify(Notify::Kind::kAlive, description_.udn);
  notify(Notify::Kind::kAlive, description_.device_type);
  for (const auto& service : description_.services) {
    notify(Notify::Kind::kAlive, service.service_type);
  }
}

void RootDevice::send_byebye() {
  notify(Notify::Kind::kByeBye, std::string(kSearchTargetRoot));
  notify(Notify::Kind::kByeBye, description_.udn);
  notify(Notify::Kind::kByeBye, description_.device_type);
  for (const auto& service : description_.services) {
    notify(Notify::Kind::kByeBye, service.service_type);
  }
}

void RootDevice::notify(Notify::Kind kind, const std::string& nt) {
  if (ssdp_socket_ == nullptr || ssdp_socket_->closed()) return;
  Notify message;
  message.kind = kind;
  message.nt = nt;
  message.usn = description_.usn_for(nt);
  message.location = location();
  message.max_age_seconds = profile_.max_age_seconds;
  notifies_sent_ += 1;
  ssdp_socket_->send_to(net::Endpoint{kSsdpMulticastGroup, kSsdpPort},
                        encode(message));
}

}  // namespace indiss::upnp
