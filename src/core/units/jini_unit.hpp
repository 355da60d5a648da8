// The Jini unit: extends the paper's prototype (which shipped SLP + UPnP) to
// a third, repository-based SDP, exercising INDISS's extensibility claim.
//
// Roles:
//  - Parses Jini discovery datagrams (multicast requests / announcements)
//    into events; announcements teach the unit where registrars live.
//  - Translates foreign request streams into unicast registrar lookups.
//  - Translates foreign advertisements into registrar registrations, making
//    foreign services visible to native Jini clients through their own
//    lookup protocol, and renews their leases while it holds the services.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/unit.hpp"
#include "core/units/standard_fsm.hpp"
#include "jini/lookup.hpp"

namespace indiss::core {

/// Translates Jini discovery datagrams into events. Follows the scratch
/// recipe (docs/events.md): decode_into member scratch + sink.scratch()
/// events, so a warm parser performs zero heap allocations per message.
class JiniEventParser : public SdpParser {
 public:
  [[nodiscard]] std::string_view name() const override { return "jini"; }
  void parse(BytesView raw, const MessageContext& ctx,
             EventSink& sink) override;

 private:
  jini::MulticastRequest request_scratch_;
  jini::MulticastAnnouncement announcement_scratch_;
  std::string groups_csv_;
};

/// Rebuilds the registrar announcement a SDP_DISC_REPOSITORY event stream
/// describes, reusing caller storage (the compose half of the Jini round
/// trip; groups split into slot-reused strings). Returns false when the
/// stream carries no repository event.
bool compose_jini_announcement(const EventStream& stream,
                               jini::MulticastAnnouncement& out);

class JiniUnit : public Unit {
 public:
  explicit JiniUnit(transport::Transport& transport, UnitOptions options = {});
  ~JiniUnit() override;

  [[nodiscard]] std::optional<net::Endpoint> known_registrar() const {
    return registrar_;
  }
  [[nodiscard]] std::uint64_t foreign_registrations() const {
    return foreign_registrations_;
  }
  [[nodiscard]] std::uint64_t foreign_deregistrations() const {
    return foreign_deregistrations_;
  }

 protected:
  void compose_native_request(Session& session) override;
  void compose_native_reply(Session& session) override;
  void on_bridged(Session& session, const ServiceDirectory::Record& service,
                  std::uint64_t& handle, bool fresh) override;
  void forget_bridged(const ServiceDirectory::Record& service,
                      std::uint64_t handle, Forget why) override;
  /// Native Jini clients resolve services through a registrar, never by
  /// multicast query, so there is no request for the directory to answer.
  [[nodiscard]] bool answers_from_directory() const override { return false; }
  /// Learns the registrar an announcement names (kNoteRegistrar).
  void note_registrar(const Event& event) override;

 private:
  /// One-shot unicast registrar op; hands raw reply bytes to the handler.
  void registrar_op(Bytes request, std::function<void(Bytes)> handler);
  /// Keeps the renewal timer armed while the unit holds a granted lease:
  /// every half lease it renews each one (renew).
  void arm_renewal();
  /// Renews `lease`, granted for `url`; a refused renewal clears it.
  void renew(const std::string& url, std::uint64_t lease);

  std::optional<net::Endpoint> registrar_;
  std::uint64_t foreign_registrations_ = 0;
  std::uint64_t foreign_deregistrations_ = 0;
  std::uint64_t next_service_id_ = 0x1D155;
  bool renewal_armed_ = false;
};

}  // namespace indiss::core
