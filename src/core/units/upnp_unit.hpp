// The UPnP unit (the second unit of the paper's prototype, and the richer
// one): an SSDP/HTTPU parser that switches to an XML parser for description
// documents (SDP_C_PARSER_SWITCH), a composer that can act as a UPnP control
// point on behalf of foreign clients — including the recursive description
// GET of the paper's §2.4 — and an SSDP responder + description server that
// impersonates a UPnP device for foreign services.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/unit.hpp"
#include "core/units/standard_fsm.hpp"
#include "upnp/description.hpp"
#include "upnp/http_server.hpp"
#include "upnp/ssdp.hpp"

namespace indiss::core {

/// SSDP + HTTP parser. SSDP datagrams produce full event streams; HTTP
/// description responses produce RES_OK followed by SDP_C_PARSER_SWITCH
/// carrying the XML body for the description parser.
///
/// Maps the fields of the one SSDP reader (upnp::SsdpReader, layered on the
/// incremental HttpParser — the paper's event-based parsing reuse) to SDP
/// events drawn from sink.scratch(), so a warm parser performs zero heap
/// allocations per SSDP datagram (the scratch recipe, docs/events.md).
class SsdpEventParser : public SdpParser {
 public:
  [[nodiscard]] std::string_view name() const override { return "ssdp"; }
  void parse(BytesView raw, const MessageContext& ctx,
             EventSink& sink) override;

 private:
  upnp::SsdpReader reader_;
};

/// UPnP description-document parser (the parser-switch target): walks the
/// XML with the SAX substrate and emits SERVICE_ATTR events for device
/// properties plus SDP_RES_SERV_URL for the first service's control URL.
/// Always a continuation parser: never emits SDP_C_START.
class UpnpDescriptionParser : public SdpParser {
 public:
  [[nodiscard]] std::string_view name() const override { return "upnp-xml"; }
  void parse(BytesView raw, const MessageContext& ctx,
             EventSink& sink) override;
};

struct UpnpUnitConfig {
  /// Port for the unit's description server (0 = ephemeral).
  std::uint16_t http_port = 0;
  /// SSDP responders pace replies to multicast searches from the shared
  /// medium (MX-derived scheduling). Loopback searches from a co-located
  /// client are answered immediately — this asymmetry is what produces the
  /// paper's 40 ms (Fig 8) vs 0.12 ms (Fig 9b) split.
  transport::Duration search_response_pacing = transport::millis(30);
  /// Re-announce foreign services as NOTIFY alive when the context manager
  /// switches the unit to active advertising (Fig 6).
  bool active_advertising = false;
};

class UpnpUnit : public Unit {
 public:
  using Config = UpnpUnitConfig;

  explicit UpnpUnit(transport::Transport& transport, UnitOptions options = {},
                    Config config = {});

  /// Foreign services currently impersonated as UPnP devices: every
  /// bridged record has one.
  [[nodiscard]] std::size_t impersonated_devices() const {
    return foreign_services().size();
  }
  /// Description documents the unit's HTTP server currently serves (one per
  /// impersonated device).
  [[nodiscard]] std::size_t description_routes() const {
    return http_server_ ? http_server_->route_count() : 0;
  }

  void set_active_advertising(bool on) { config_.active_advertising = on; }
  [[nodiscard]] const Config& config() const { return config_; }

 protected:
  void compose_native_request(Session& session) override;
  void compose_native_reply(Session& session) override;
  void compose_follow_up(Session& session, const Event& event) override;
  void on_bridged(Session& session, const ServiceDirectory::Record& service,
                  std::uint64_t& handle, bool fresh) override;
  void forget_bridged(const ServiceDirectory::Record& service,
                      std::uint64_t handle, Forget why) override;
  [[nodiscard]] transport::Duration network_reply_pacing() const override {
    return config_.search_response_pacing;
  }

 private:
  /// Impersonates `service` as a UPnP device the first time it is seen:
  /// numbers the device (the unit's `handle` slot) and routes its generated
  /// description, built from `session`'s events.
  void serve(const Session& session, const ServiceDirectory::Record& service,
             std::uint64_t& handle);
  /// The LOCATION URL of the description of the device numbered `handle`.
  [[nodiscard]] std::string location_of(std::uint64_t handle);
  /// Multicasts NOTIFY ssdp:alive for an impersonated device; the frame
  /// stays in ssdp_scratch_ until the next compose.
  void notify_alive(const ServiceDirectory::Record& service,
                    std::uint64_t handle);
  void ensure_http_server();
  /// Rewrites session.collected into a clean, absolute reply stream before
  /// it is sent back to the origin unit (the finalize step of §2.4).
  static Action finalize_reply();
  void do_finalize_reply(Session& session);

  Config config_;
  std::unique_ptr<upnp::HttpServer> http_server_;
  std::uint64_t next_device_index_ = 1;
  // Compose-side scratch: SSDP messages serialize into this reused buffer
  // (docs/events.md scratch recipe) before the one unavoidable payload copy.
  std::string ssdp_scratch_;
};

}  // namespace indiss::core
