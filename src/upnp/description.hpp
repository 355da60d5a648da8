// UPnP device description documents (UPnP Device Architecture 1.0, §2).
//
// A root device advertises a LOCATION URL in its SSDP messages; control
// points GET that URL to obtain this XML document, which carries the friendly
// name, vendor information and the per-service control/event URLs. The
// paper's §2.4 walk-through hinges on this indirection: an SLP client expects
// a direct service URL, so INDISS must chase LOCATION -> description.xml ->
// controlURL before it can compose a SrvRply.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace indiss::upnp {

struct ServiceDescription {
  std::string service_type;  // "urn:schemas-upnp-org:service:timer:1"
  std::string service_id;    // "urn:upnp-org:serviceId:timer"
  std::string scpd_url;      // "/timer/scpd.xml"
  std::string control_url;   // "/service/timer/control"
  std::string event_sub_url; // "/service/timer/event"

  bool operator==(const ServiceDescription&) const = default;
};

struct DeviceDescription {
  std::string device_type;  // "urn:schemas-upnp-org:device:clock:1"
  std::string friendly_name;
  std::string manufacturer;
  std::string manufacturer_url;
  std::string model_description;
  std::string model_name;
  std::string model_number;
  std::string model_url;
  std::string udn;  // "uuid:ClockDevice"
  std::string presentation_url;
  int spec_major = 1;
  int spec_minor = 0;
  std::vector<ServiceDescription> services;

  bool operator==(const DeviceDescription&) const = default;

  /// Serializes the UDA 1.0 <root> document.
  [[nodiscard]] std::string to_xml() const;

  /// Parses a description document; nullopt when the XML is malformed or the
  /// required elements (deviceType, UDN) are missing. Which elements count is
  /// documented at the reader in description.cpp.
  static std::optional<DeviceDescription> from_xml(std::string_view xml);

  /// The USN for this device: "uuid:X::urn:...". `nt` selects the suffix.
  [[nodiscard]] std::string usn_for(const std::string& nt) const;
};

/// A ready-made clock device mirroring the paper's running example
/// ("CyberGarage Clock Device" with a timer control service).
[[nodiscard]] DeviceDescription make_clock_device(
    const std::string& udn = "uuid:ClockDevice");

}  // namespace indiss::upnp
