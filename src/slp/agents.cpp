#include "slp/agents.hpp"

#include "common/logging.hpp"
#include "common/strings.hpp"
#include "common/uri.hpp"

namespace indiss::slp {

namespace {

bool scope_lists_intersect(const std::string& a, const std::string& b) {
  auto as = str::split_trimmed(a, ',');
  auto bs = str::split_trimmed(b, ',');
  if (as.empty() || bs.empty()) return true;  // empty = any scope
  for (const auto& x : as) {
    for (const auto& y : bs) {
      if (str::iequals(x, y)) return true;
    }
  }
  return false;
}

}  // namespace

using transport::schedule_guarded;

// ---------------------------------------------------------------------------
// ServiceAgent
// ---------------------------------------------------------------------------

ServiceAgent::ServiceAgent(transport::Transport& host, SlpConfig config)
    : host_(host), config_(config) {
  socket_ = host_.open_udp(config_.port);
  socket_->join_group(config_.multicast_group);
  socket_->set_receive_handler(
      [this](const net::Datagram& d) { on_datagram(d); });
}

ServiceAgent::~ServiceAgent() {
  if (socket_) socket_->close();
}

void ServiceAgent::register_service(ServiceRegistration registration) {
  if (registration.type.full().empty()) {
    auto parsed = ServiceUrl::parse(registration.url);
    if (parsed.has_value()) registration.type = parsed->type;
  }
  // Replace an existing registration with the same URL (re-registration).
  for (auto& existing : registrations_) {
    if (existing.url == registration.url) {
      existing = registration;
      if (directory_agent_.has_value()) register_with_da(registration);
      return;
    }
  }
  registrations_.push_back(registration);
  if (directory_agent_.has_value()) register_with_da(registration);
}

bool ServiceAgent::deregister_service(const std::string& url) {
  auto before = registrations_.size();
  std::erase_if(registrations_,
                [&](const ServiceRegistration& r) { return r.url == url; });
  bool removed = registrations_.size() != before;
  if (removed) {
    SrvDeReg dereg;
    dereg.header.xid = next_xid_++;
    dereg.url_entry = UrlEntry{0, url};
    if (directory_agent_.has_value()) {
      send(Message(dereg), *directory_agent_);
    } else {
      // DA-less deployments announce the withdrawal on the multicast group
      // so interested listeners (notably an INDISS bridge) can retract the
      // service — the SLP spelling of a byebye.
      send(Message(dereg),
           net::Endpoint{config_.multicast_group, config_.port});
    }
  }
  return removed;
}

bool ServiceAgent::in_previous_responders(const std::string& pr_list) const {
  return pr_list_names(pr_list, host_.address().to_string());
}

bool ServiceAgent::scopes_intersect(const std::string& scopes) const {
  return scope_lists_intersect(scopes, "DEFAULT");
}

void ServiceAgent::on_datagram(const net::Datagram& datagram) {
  std::string error;
  auto message = decode(datagram.payload, &error);
  if (!message.has_value()) {
    log::debug("slp.sa", "dropping malformed datagram: ", error);
    return;
  }
  // Processing-cost model: the native stack takes `handling` to act on a
  // request.
  schedule_guarded(host_, alive_, config_.profile.handling,
                   [this, m = std::move(*message), datagram]() {
    std::visit(
        [&](const auto& msg) {
          using T = std::decay_t<decltype(msg)>;
          if constexpr (std::is_same_v<T, SrvRqst>) {
            handle_srv_rqst(msg, datagram.source, datagram.multicast);
          } else if constexpr (std::is_same_v<T, AttrRqst>) {
            handle_attr_rqst(msg, datagram.source, datagram.multicast);
          } else if constexpr (std::is_same_v<T, SrvTypeRqst>) {
            handle_srv_type_rqst(msg, datagram.source, datagram.multicast);
          } else if constexpr (std::is_same_v<T, DAAdvert>) {
            handle_da_advert(msg);
          }
          // Other message kinds (replies, acks) are not for an SA.
        },
        m);
  });
}

void ServiceAgent::handle_srv_rqst(const SrvRqst& request,
                                   const net::Endpoint& from,
                                   bool was_multicast) {
  requests_seen_ += 1;
  if (in_previous_responders(request.previous_responders)) return;
  if (!scopes_intersect(request.scope_list)) return;

  // Active DA discovery requests are not for an SA.
  ServiceType requested(request.service_type);
  if (requested.abstract_type() == "service:directory-agent") return;

  auto predicate = Predicate::parse(request.predicate);
  SrvRply reply;
  reply.header.xid = request.header.xid;
  reply.header.language = request.header.language;
  if (!predicate.has_value()) {
    reply.error = ErrorCode::kParseError;
  } else {
    for (const auto& reg : registrations_) {
      if (!reg.type.matches_request(requested)) continue;
      if (!scope_lists_intersect(reg.scope_list, request.scope_list)) continue;
      if (!predicate->matches(reg.attributes)) continue;
      reply.url_entries.push_back(UrlEntry{reg.lifetime_seconds, reg.url});
    }
  }
  // RFC 2608 §7: multicast requests with no results are answered by silence.
  if (was_multicast && reply.url_entries.empty()) return;
  replies_sent_ += 1;
  send(Message(reply), from);
}

void ServiceAgent::handle_attr_rqst(const AttrRqst& request,
                                    const net::Endpoint& from,
                                    bool was_multicast) {
  requests_seen_ += 1;
  if (in_previous_responders(request.previous_responders)) return;

  AttrRply reply;
  reply.header.xid = request.header.xid;
  bool found = false;
  for (const auto& reg : registrations_) {
    bool url_match = reg.url == request.url;
    bool type_match = reg.type.matches_request(ServiceType(request.url));
    if (url_match || type_match) {
      reply.attr_list = reg.attributes.serialize();
      found = true;
      break;
    }
  }
  if (was_multicast && !found) return;
  send(Message(reply), from);
}

void ServiceAgent::handle_srv_type_rqst(const SrvTypeRqst& request,
                                        const net::Endpoint& from,
                                        bool was_multicast) {
  requests_seen_ += 1;
  if (in_previous_responders(request.previous_responders)) return;

  std::vector<std::string> types;
  for (const auto& reg : registrations_) {
    const std::string& t = reg.type.full();
    bool seen = false;
    for (const auto& existing : types) seen = seen || existing == t;
    if (!seen) types.push_back(t);
  }
  if (was_multicast && types.empty()) return;
  SrvTypeRply reply;
  reply.header.xid = request.header.xid;
  reply.type_list = str::join(types, ",");
  send(Message(reply), from);
}

void ServiceAgent::handle_da_advert(const DAAdvert& advert) {
  auto uri = Uri::parse(advert.url);
  net::Endpoint da;
  if (uri.has_value()) {
    auto addr = net::IpAddress::parse(uri->host);
    if (!addr.has_value()) return;
    da = net::Endpoint{*addr, uri->port == 0 ? config_.port : uri->port};
  } else {
    return;
  }
  bool is_new = !directory_agent_.has_value() || *directory_agent_ != da ||
                advert.boot_timestamp > da_boot_timestamp_;
  directory_agent_ = da;
  da_boot_timestamp_ = advert.boot_timestamp;
  if (is_new) {
    // RFC 2608 §12.2.2: SAs register all services with a newly seen DA.
    for (const auto& reg : registrations_) register_with_da(reg);
  }
}

void ServiceAgent::register_with_da(const ServiceRegistration& registration) {
  if (!directory_agent_.has_value()) return;
  SrvReg msg;
  msg.header.xid = next_xid_++;
  msg.header.flags = kFlagFresh;
  msg.url_entry = UrlEntry{registration.lifetime_seconds, registration.url};
  msg.service_type = registration.type.full();
  msg.scope_list = registration.scope_list;
  msg.attr_list = registration.attributes.serialize();
  send(Message(msg), *directory_agent_);
}

void ServiceAgent::send(const Message& message, const net::Endpoint& to) {
  socket_->send_to(to, encode(message));
}

// ---------------------------------------------------------------------------
// UserAgent
// ---------------------------------------------------------------------------

UserAgent::UserAgent(transport::Transport& host, SlpConfig config)
    : host_(host), config_(config) {
  socket_ = host_.open_udp(0);  // ephemeral; replies come back here
  socket_->set_receive_handler(
      [this](const net::Datagram& d) { on_datagram(d); });
}

UserAgent::~UserAgent() {
  if (socket_) socket_->close();
  if (da_listener_) da_listener_->close();
}

void UserAgent::set_directory_agent(const net::Endpoint& da) {
  directory_agent_ = da;
}

void UserAgent::enable_da_listening() {
  if (da_listener_) return;
  da_listener_ = host_.open_udp(config_.port);
  da_listener_->join_group(config_.multicast_group);
  da_listener_->set_receive_handler([this](const net::Datagram& d) {
    std::string error;
    auto message = decode(d.payload, &error);
    if (!message.has_value()) return;
    if (const auto* advert = std::get_if<DAAdvert>(&*message)) {
      auto uri = Uri::parse(advert->url);
      if (!uri.has_value()) return;
      auto addr = net::IpAddress::parse(uri->host);
      if (!addr.has_value()) return;
      directory_agent_ =
          net::Endpoint{*addr, uri->port == 0 ? config_.port : uri->port};
    }
  });
}

void UserAgent::find_services(const std::string& service_type,
                              const std::string& predicate,
                              FirstResultHandler on_first,
                              CompleteHandler on_complete) {
  find_services(service_type, predicate, "DEFAULT", std::move(on_first),
                std::move(on_complete));
}

void UserAgent::find_services(const std::string& service_type,
                              const std::string& predicate,
                              const std::string& scopes,
                              FirstResultHandler on_first,
                              CompleteHandler on_complete) {
  std::uint16_t xid = next_xid_++;
  PendingSearch search;
  search.xid = xid;
  search.request.header.xid = xid;
  search.request.service_type = service_type;
  search.request.scope_list = scopes;
  search.request.predicate = predicate;
  search.on_first = std::move(on_first);
  search.on_complete = std::move(on_complete);
  search.sends_remaining = 1 + config_.retransmissions;

  auto [it, inserted] = searches_.emplace(xid, std::move(search));
  // Native-stack cost: building and serializing the request.
  schedule_guarded(host_, alive_, config_.profile.request_prep,
                   [this, xid]() {
                     auto sit = searches_.find(xid);
                     if (sit == searches_.end()) return;
                     transmit_search(sit->second);
                   });
  it->second.deadline_task = schedule_guarded(
      host_, alive_, config_.profile.request_prep + config_.multicast_wait,
      [this, xid]() { finish_search(xid); });
}

void UserAgent::transmit_search(PendingSearch& search) {
  requests_sent_ += 1;
  search.sends_remaining -= 1;
  search.request.previous_responders =
      str::join(std::vector<std::string>(search.responders.begin(),
                                         search.responders.end()),
                ",");
  if (directory_agent_.has_value()) {
    search.request.header.flags &= static_cast<std::uint16_t>(~kFlagRequestMcast);
    send(Message(search.request), *directory_agent_);
  } else {
    search.request.header.flags |= kFlagRequestMcast;
    send(Message(search.request),
         net::Endpoint{config_.multicast_group, config_.port});
  }
  if (search.sends_remaining > 0) {
    std::uint16_t xid = search.xid;
    search.retry_task = schedule_guarded(
        host_, alive_, config_.retry_interval, [this, xid]() {
          auto it = searches_.find(xid);
          if (it == searches_.end()) return;
          transmit_search(it->second);
        });
  }
}

void UserAgent::finish_search(std::uint16_t xid) {
  auto it = searches_.find(xid);
  if (it == searches_.end()) return;
  PendingSearch search = std::move(it->second);
  search.retry_task.cancel();
  searches_.erase(it);
  if (search.on_complete) search.on_complete(search.results);
}

void UserAgent::find_attributes(const std::string& url,
                                AttributesHandler handler) {
  std::uint16_t xid = next_xid_++;
  AttrRqst request;
  request.header.xid = xid;
  request.url = url;
  attr_requests_[xid] = PendingAttrRqst{xid, std::move(handler)};

  schedule_guarded(host_, alive_, config_.profile.request_prep,
                   [this, request]() {
                     if (directory_agent_.has_value()) {
                       send(Message(request), *directory_agent_);
                     } else {
                       send(Message(request),
                            net::Endpoint{config_.multicast_group,
                                          config_.port});
                     }
                   });
}

void UserAgent::on_datagram(const net::Datagram& datagram) {
  std::string error;
  auto message = decode(datagram.payload, &error);
  if (!message.has_value()) {
    log::debug("slp.ua", "dropping malformed datagram: ", error);
    return;
  }

  if (const auto* reply = std::get_if<SrvRply>(&*message)) {
    auto it = searches_.find(reply->header.xid);
    if (it == searches_.end()) return;
    PendingSearch& search = it->second;
    search.responders.insert(datagram.source.address.to_string());
    for (const auto& entry : reply->url_entries) {
      if (!search.seen_urls.insert(entry.url).second) continue;
      SearchResult result{entry, datagram.source};
      search.results.push_back(result);
      if (!search.first_delivered && search.on_first) {
        search.first_delivered = true;
        // Native-stack cost: parsing the reply before the app sees it.
        host_.schedule(
            config_.profile.reply_parse,
            [handler = search.on_first, result]() { handler(result); });
      }
    }
    return;
  }
  if (const auto* reply = std::get_if<AttrRply>(&*message)) {
    auto it = attr_requests_.find(reply->header.xid);
    if (it == attr_requests_.end()) return;
    auto pending = std::move(it->second);
    attr_requests_.erase(it);
    auto attrs = AttributeList::parse(reply->attr_list);
    host_.schedule(
        config_.profile.reply_parse,
        [handler = std::move(pending.handler), error_code = reply->error,
         attrs]() {
          if (handler) handler(error_code, attrs);
        });
    return;
  }
}

void UserAgent::send(const Message& message, const net::Endpoint& to) {
  socket_->send_to(to, encode(message));
}

// ---------------------------------------------------------------------------
// DirectoryAgent
// ---------------------------------------------------------------------------

DirectoryAgent::DirectoryAgent(transport::Transport& host, SlpConfig config)
    : host_(host),
      config_(config),
      boot_timestamp_(static_cast<std::uint32_t>(
          host.now().count() / 1'000'000'000 + 1)) {
  socket_ = host_.open_udp(config_.port);
  socket_->join_group(config_.multicast_group);
  socket_->set_receive_handler(
      [this](const net::Datagram& d) { on_datagram(d); });

  advertise();  // boot-time unsolicited DAAdvert (RFC 2608 §12.1)
  advert_task_ = host_.schedule_periodic(
      config_.da_advert_interval, [this]() { advertise(); });
  sweep_task_ = host_.schedule_periodic(
      config_.da_expiry_sweep, [this]() { sweep_expired(); });
}

DirectoryAgent::~DirectoryAgent() {
  advert_task_.cancel();
  sweep_task_.cancel();
  if (socket_) socket_->close();
}

net::Endpoint DirectoryAgent::endpoint() const {
  return net::Endpoint{host_.address(), config_.port};
}

void DirectoryAgent::advertise() {
  DAAdvert advert;
  advert.header.xid = next_xid_++;
  advert.boot_timestamp = boot_timestamp_;
  advert.url = "service:directory-agent://" + host_.address().to_string();
  send(Message(advert), net::Endpoint{config_.multicast_group, config_.port});
}

void DirectoryAgent::sweep_expired() {
  auto now = host_.now();
  std::erase_if(store_, [now](const auto& kv) {
    return kv.second.expires_at <= now;
  });
}

void DirectoryAgent::on_datagram(const net::Datagram& datagram) {
  std::string error;
  auto message = decode(datagram.payload, &error);
  if (!message.has_value()) return;

  schedule_guarded(host_, alive_, config_.profile.handling,
                   [this, m = std::move(*message), datagram]() {
    std::visit(
        [&](const auto& msg) {
          using T = std::decay_t<decltype(msg)>;
          if constexpr (std::is_same_v<T, SrvReg>) {
            registrations_received_ += 1;
            StoredRegistration stored;
            stored.registration = msg;
            stored.attributes = AttributeList::parse(msg.attr_list);
            stored.expires_at =
                host_.now() +
                transport::seconds(msg.url_entry.lifetime_seconds);
            store_[msg.service_type + "|" + msg.url_entry.url] = stored;
            SrvAck ack;
            ack.header.xid = msg.header.xid;
            send(Message(ack), datagram.source);
          } else if constexpr (std::is_same_v<T, SrvDeReg>) {
            std::erase_if(store_, [&](const auto& kv) {
              return kv.second.registration.url_entry.url ==
                     msg.url_entry.url;
            });
            SrvAck ack;
            ack.header.xid = msg.header.xid;
            send(Message(ack), datagram.source);
          } else if constexpr (std::is_same_v<T, SrvRqst>) {
            ServiceType requested(msg.service_type);
            // Active DA discovery: answer with a DAAdvert.
            if (requested.abstract_type() == "service:directory-agent") {
              DAAdvert advert;
              advert.header.xid = msg.header.xid;
              advert.boot_timestamp = boot_timestamp_;
              advert.url = "service:directory-agent://" +
                           host_.address().to_string();
              send(Message(advert), datagram.source);
              return;
            }
            auto predicate = Predicate::parse(msg.predicate);
            SrvRply reply;
            reply.header.xid = msg.header.xid;
            if (!predicate.has_value()) {
              reply.error = ErrorCode::kParseError;
            } else {
              for (const auto& [key, stored] : store_) {
                ServiceType stored_type(stored.registration.service_type);
                if (!stored_type.matches_request(requested)) continue;
                if (!scope_lists_intersect(stored.registration.scope_list,
                                           msg.scope_list)) {
                  continue;
                }
                if (!predicate->matches(stored.attributes)) continue;
                reply.url_entries.push_back(stored.registration.url_entry);
              }
            }
            if (datagram.multicast && reply.url_entries.empty()) return;
            send(Message(reply), datagram.source);
          } else if constexpr (std::is_same_v<T, AttrRqst>) {
            AttrRply reply;
            reply.header.xid = msg.header.xid;
            for (const auto& [key, stored] : store_) {
              if (stored.registration.url_entry.url == msg.url) {
                reply.attr_list = stored.registration.attr_list;
                break;
              }
            }
            if (datagram.multicast && reply.attr_list.empty()) return;
            send(Message(reply), datagram.source);
          }
        },
        m);
  });
}

void DirectoryAgent::send(const Message& message, const net::Endpoint& to) {
  socket_->send_to(to, encode(message));
}

}  // namespace indiss::slp
