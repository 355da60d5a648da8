#include "mdns/dnssd.hpp"
#include "transport/transport.hpp"


namespace indiss::mdns {

namespace {

Bytes to_payload(BytesView view) { return Bytes(view.begin(), view.end()); }

}  // namespace

// ---------------------------------------------------------------------------
// MdnsResponder
// ---------------------------------------------------------------------------

MdnsResponder::MdnsResponder(transport::Transport& host, MdnsConfig config)
    : host_(host), config_(config), rng_(config.seed) {
  socket_ = host.open_udp(config_.port);
  socket_->join_group(config_.group);
  socket_->set_receive_handler(
      [this](const net::Datagram& datagram) { on_datagram(datagram); });
  if (config_.probe) {
    ProbeEngine::Callbacks callbacks;
    callbacks.send = [this](const DnsMessage& message) {
      if (closed_) return;
      socket_->send_to(net::Endpoint{config_.group, config_.port},
                       to_payload(encoder_.encode(message)));
    };
    callbacks.on_established = [this](const std::string& name) {
      on_probe_established(name);
    };
    callbacks.on_renamed = [this](const std::string& old_name,
                                  const std::string& new_name) {
      on_probe_renamed(old_name, new_name);
    };
    probe_ = std::make_unique<ProbeEngine>(host_, std::move(callbacks));
  }
}

MdnsResponder::~MdnsResponder() {
  closed_ = true;
  for (auto& [name, task] : pending_answers_) task.cancel();
  if (socket_) socket_->close();
}

void MdnsResponder::publish(ServiceInstance service) {
  services_.push_back(std::move(service));
  const ServiceInstance& stored = services_.back();
  if (probe_) {
    // RFC 6762 §8.1: probe for the instance's unique records (SRV + TXT)
    // before announcing; announce fires from on_probe_established.
    std::string instance_name = stored.instance_name();
    std::vector<DnsRecord> records;
    DnsRecord srv;
    srv.name = instance_name;
    srv.type = kTypeSrv;
    srv.ttl = config_.record_ttl;
    srv.port = stored.port;
    srv.target = host_.name() + ".local";
    records.push_back(std::move(srv));
    DnsRecord txt;
    txt.name = instance_name;
    txt.type = kTypeTxt;
    txt.ttl = config_.record_ttl;
    txt.txt = stored.txt;
    records.push_back(std::move(txt));
    probe_->claim(std::move(instance_name), std::move(records));
    return;
  }
  announce(stored, config_.announce_repeats);
}

void MdnsResponder::goodbye() {
  for (auto& [name, task] : pending_answers_) task.cancel();
  pending_answers_.clear();
  DnsMessage message;
  for (const auto& service : services_) {
    if (probe_) {
      bool was_established = probe_->established(service.instance_name());
      probe_->release(service.instance_name());
      // A name still probing was never announced: a TTL-0 goodbye for it
      // would be noise.
      if (!was_established) continue;
    }
    message.clear();
    message.flags = kFlagResponse | kFlagAuthoritative;
    build_answer(service, /*announce=*/true, /*ttl=*/0, message);
    send(message, net::Endpoint{config_.group, config_.port});
  }
  services_.clear();
}

bool MdnsResponder::answerable(const ServiceInstance& service) const {
  return !probe_ || probe_->established(service.instance_name());
}

void MdnsResponder::on_probe_established(const std::string& name) {
  for (const auto& service : services_) {
    if (service.instance_name() == name) {
      announce(service, config_.announce_repeats);
      return;
    }
  }
}

void MdnsResponder::on_probe_renamed(const std::string& old_name,
                                     const std::string& new_name) {
  for (auto& service : services_) {
    if (service.instance_name() == old_name) {
      service.instance = std::string(instance_label(new_name));
      return;
    }
  }
}

void MdnsResponder::announce(const ServiceInstance& service,
                             int repeats_left) {
  if (closed_ || repeats_left <= 0) return;
  DnsMessage message;
  message.flags = kFlagResponse | kFlagAuthoritative;
  build_answer(service, /*announce=*/true, config_.record_ttl, message);
  send(message, net::Endpoint{config_.group, config_.port});
  if (repeats_left > 1) {
    std::string instance_name = service.instance_name();
    host_.schedule(
        config_.announce_interval,
        [this, alive = std::weak_ptr<char>(alive_), instance_name,
         repeats_left]() {
          if (alive.expired() || closed_) return;
          for (const auto& service : services_) {
            if (service.instance_name() == instance_name) {
              announce(service, repeats_left - 1);
              return;
            }
          }
        });
  }
}

bool MdnsResponder::matches(const DnsQuestion& question,
                            const ServiceInstance& service) const {
  if (question.qtype != kTypePtr && question.qtype != kTypeAny) return false;
  if (question.name == service.type_name()) return true;
  // Service enumeration (RFC 6763 §9) is answered with the full bundle.
  return question.name == "_services._dns-sd._udp.local";
}

void MdnsResponder::on_datagram(const net::Datagram& datagram) {
  if (closed_) return;
  DnsMessage message;
  if (!decode_into(datagram.payload, message)) return;
  if (message.is_response()) {
    if (probe_) probe_->handle_response(message);
    handle_response(message);
  } else if (!message.questions.empty()) {
    if (probe_) probe_->handle_query(message);
    handle_query(message, datagram.source);
  }
}

void MdnsResponder::handle_query(const DnsMessage& query,
                                 const net::Endpoint& from) {
  queries_seen_ += 1;
  const bool legacy = from.port != config_.port;  // RFC 6762 §6.7
  for (const auto& service : services_) {
    // A still-probing instance does not own its name yet and must stay
    // silent (§8.1); the probe engine handles tiebreaks and defenses.
    if (!answerable(service)) continue;
    bool wanted = false;
    for (const auto& question : query.questions) {
      if (matches(question, service)) wanted = true;
    }
    if (!wanted) continue;

    // Known-answer suppression (§7.1): the querier already holds our PTR
    // with at least half its TTL left — stay silent.
    bool known = false;
    for (const auto& answer : query.answers) {
      if (answer.type == kTypePtr && answer.name == service.type_name() &&
          answer.target == service.instance_name() &&
          answer.ttl >= config_.record_ttl / 2) {
        known = true;
      }
    }
    if (known) {
      known_answer_suppressed_ += 1;
      continue;
    }

    if (legacy) {
      // One-shot querier: unicast back, echoing the query id, after only
      // the stack's processing delay.
      DnsMessage response;
      response.id = query.id;
      response.flags = kFlagResponse | kFlagAuthoritative;
      build_answer(service, /*announce=*/false, config_.record_ttl, response);
      host_.schedule(
          config_.handling,
          [this, alive = std::weak_ptr<char>(alive_), response, from]() {
            if (!alive.expired() && !closed_) send(response, from);
          });
      continue;
    }

    // Shared-record etiquette (§6): pace the multicast answer into the
    // 20-120 ms window; duplicate-answer suppression may cancel it.
    std::string key = service.instance_name();
    if (pending_answers_.contains(key)) continue;
    DnsMessage response;
    response.flags = kFlagResponse | kFlagAuthoritative;
    build_answer(service, /*announce=*/false, config_.record_ttl, response);
    auto delay = rng_.uniform_duration(config_.response_delay_min,
                                       config_.response_delay_max);
    pending_answers_[key] = host_.schedule(
        delay, [this, alive = std::weak_ptr<char>(alive_), response, key]() {
          if (alive.expired()) return;
          pending_answers_.erase(key);
          if (!closed_) {
            send(response, net::Endpoint{config_.group, config_.port});
          }
        });
  }
}

void MdnsResponder::handle_response(const DnsMessage& response) {
  // Duplicate-answer suppression (§7.4): someone else multicast the record
  // we were waiting to send with at least our TTL/2 — cancel the pending
  // task (a live slot-arena cancel on the hot path).
  for (const auto& answer : response.answers) {
    if (answer.type != kTypePtr) continue;
    if (answer.ttl < config_.record_ttl / 2) continue;
    for (const auto& service : services_) {
      if (answer.name == service.type_name() &&
          answer.target == service.instance_name()) {
        auto it = pending_answers_.find(service.instance_name());
        if (it != pending_answers_.end()) {
          it->second.cancel();
          pending_answers_.erase(it);
          duplicates_cancelled_ += 1;
        }
      }
    }
  }
}

void MdnsResponder::build_answer(const ServiceInstance& service,
                                 bool announce, std::uint32_t ttl,
                                 DnsMessage& out) const {
  std::string host_name = host_.name() + ".local";
  std::string instance_name = service.instance_name();

  DnsRecord ptr;
  ptr.name = service.type_name();
  ptr.type = kTypePtr;
  ptr.ttl = ttl;
  ptr.target = instance_name;
  out.answers.push_back(std::move(ptr));

  DnsRecord srv;
  srv.name = instance_name;
  srv.type = kTypeSrv;
  srv.cache_flush = true;
  srv.ttl = ttl;
  srv.port = service.port;
  srv.target = host_name;

  DnsRecord txt;
  txt.name = instance_name;
  txt.type = kTypeTxt;
  txt.cache_flush = true;
  txt.ttl = ttl;
  txt.txt = service.txt;

  DnsRecord a;
  a.name = host_name;
  a.type = kTypeA;
  a.cache_flush = true;
  a.ttl = ttl;
  a.address = host_.address();

  // Announcements carry everything as answers (§8.3); query responses put
  // the resolution records in additionals (§12.1).
  auto& rest = announce ? out.answers : out.additionals;
  rest.push_back(std::move(srv));
  rest.push_back(std::move(txt));
  rest.push_back(std::move(a));
}

void MdnsResponder::send(const DnsMessage& message, const net::Endpoint& to) {
  socket_->send_to(to, to_payload(encoder_.encode(message)));
  responses_sent_ += 1;
}

// ---------------------------------------------------------------------------
// MdnsBrowser
// ---------------------------------------------------------------------------

std::string BrowseResult::url() const {
  for (const auto& [key, value] : txt) {
    if (key == "url" && !value.empty()) return value;
  }
  std::string synthesized = "mdns://";
  synthesized += address.is_unspecified() ? target_host : address.to_string();
  synthesized += ":";
  synthesized += std::to_string(port);
  return synthesized;
}

MdnsBrowser::MdnsBrowser(transport::Transport& host, MdnsConfig config)
    : host_(host), config_(config) {
  socket_ = host.open_udp(0);  // legacy one-shot querier (§6.7)
  socket_->set_receive_handler(
      [this](const net::Datagram& datagram) { on_datagram(datagram); });
}

MdnsBrowser::~MdnsBrowser() {
  for (auto& [id, browse] : browses_) {
    for (auto& task : browse.retry_tasks) task.cancel();
    browse.deadline_task.cancel();
  }
  if (socket_) socket_->close();
}

void MdnsBrowser::browse(const std::string& service_type,
                         CompleteHandler handler,
                         const std::vector<std::string>& known_answers) {
  std::uint16_t id = next_id_++;
  if (id == 0) id = next_id_++;
  PendingBrowse browse;
  browse.type_name = service_type + ".local";
  browse.handler = std::move(handler);
  browse.query.id = id;
  DnsQuestion question;
  question.name = browse.type_name;
  question.qtype = kTypePtr;
  question.unicast_response = true;
  browse.query.questions.push_back(std::move(question));
  for (const auto& instance : known_answers) {
    DnsRecord known;
    known.name = browse.type_name;
    known.type = kTypePtr;
    known.ttl = config_.record_ttl;
    known.target = instance + "." + browse.type_name;
    browse.query.answers.push_back(std::move(known));
  }

  auto [it, inserted] = browses_.emplace(id, std::move(browse));
  transmit(it->second);
  // Retransmissions spread evenly across the collection window.
  for (int retry = 1; retry <= config_.browse_retransmits; ++retry) {
    it->second.retry_tasks.push_back(host_.schedule(
        config_.browse_window * retry / (config_.browse_retransmits + 1),
        [this, id]() {
          auto found = browses_.find(id);
          if (found != browses_.end()) transmit(found->second);
        }));
  }
  it->second.deadline_task = host_.schedule(
      config_.browse_window, [this, id]() { finish(id); });
}

void MdnsBrowser::transmit(PendingBrowse& browse) {
  socket_->send_to(net::Endpoint{config_.group, config_.port},
                   to_payload(encoder_.encode(browse.query)));
  queries_sent_ += 1;
}

void MdnsBrowser::on_datagram(const net::Datagram& datagram) {
  DnsMessage message;
  if (!decode_into(datagram.payload, message)) return;
  if (!message.is_response()) return;
  auto it = browses_.find(message.id);
  if (it == browses_.end()) return;
  PendingBrowse& browse = it->second;

  // First pass: PTR answers name the instances.
  for (const auto& answer : message.answers) {
    if (answer.type != kTypePtr || answer.name != browse.type_name) continue;
    BrowseResult& result = browse.results[answer.target];
    result.instance = instance_label(answer.target);
    result.type = type_of_instance(answer.target);
  }
  // Second pass: SRV/TXT/A resolve them (whatever section they came in).
  for (const auto* section : {&message.answers, &message.additionals}) {
    for (const auto& record : *section) {
      if (record.type == kTypeSrv) {
        auto found = browse.results.find(record.name);
        if (found != browse.results.end()) {
          found->second.target_host = record.target;
          found->second.port = record.port;
        }
      } else if (record.type == kTypeTxt) {
        auto found = browse.results.find(record.name);
        if (found != browse.results.end()) found->second.txt = record.txt;
      } else if (record.type == kTypeA) {
        for (auto& [name, result] : browse.results) {
          if (result.target_host == record.name) {
            result.address = record.address;
          }
        }
      }
    }
  }
}

void MdnsBrowser::finish(std::uint16_t id) {
  auto it = browses_.find(id);
  if (it == browses_.end()) return;
  for (auto& task : it->second.retry_tasks) task.cancel();
  it->second.deadline_task.cancel();
  std::vector<BrowseResult> results;
  results.reserve(it->second.results.size());
  for (auto& [name, result] : it->second.results) {
    results.push_back(std::move(result));
  }
  CompleteHandler handler = std::move(it->second.handler);
  browses_.erase(it);
  if (handler) handler(results);
}

}  // namespace indiss::mdns
