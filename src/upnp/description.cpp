#include "upnp/description.hpp"

#include <cstdint>
#include <iterator>

#include "common/strings.hpp"
#include "xml/sax.hpp"

namespace indiss::upnp {

namespace {

// The text fields of <device> and <service>, in document order. An
// `optional` device field is left out of a written description when empty.
template <typename T>
struct Field {
  std::string_view name;
  std::string T::*member;
  bool optional = false;
};

constexpr Field<DeviceDescription> kDeviceFields[] = {
    {"deviceType", &DeviceDescription::device_type},
    {"friendlyName", &DeviceDescription::friendly_name},
    {"manufacturer", &DeviceDescription::manufacturer},
    {"manufacturerURL", &DeviceDescription::manufacturer_url, true},
    {"modelDescription", &DeviceDescription::model_description, true},
    {"modelName", &DeviceDescription::model_name},
    {"modelNumber", &DeviceDescription::model_number, true},
    {"modelURL", &DeviceDescription::model_url, true},
    {"UDN", &DeviceDescription::udn},
    {"presentationURL", &DeviceDescription::presentation_url, true},
};

constexpr Field<ServiceDescription> kServiceFields[] = {
    {"serviceType", &ServiceDescription::service_type},
    {"serviceId", &ServiceDescription::service_id},
    {"SCPDURL", &ServiceDescription::scpd_url},
    {"controlURL", &ServiceDescription::control_url},
    {"eventSubURL", &ServiceDescription::event_sub_url},
};

/// One indented leaf line; `<name/>` when the text is empty.
void leaf(std::string& out, std::string_view indent, std::string_view name,
          std::string_view text) {
  out += indent;
  out += '<';
  out += name;
  if (text.empty()) {
    out += "/>\n";
    return;
  }
  out += '>';
  xml::escape_into(out, text);
  out += "</";
  out += name;
  out += ">\n";
}

// Which elements of a description count. The root element must be <root>.
// Under it only the first <specVersion> and the first <device> count, and of
// that device only its direct children (an embedded <deviceList> is
// ignored). Only the <service> children of the first <serviceList> count.
// Within each counted element the first child of each name wins, and a
// field's text is its own trimmed text segments concatenated; text inside
// its child elements is not part of it.
class DescriptionReader : public xml::SaxHandler {
 public:
  explicit DescriptionReader(DeviceDescription& out) : out_(out) {}

  /// After a well-formed parse: true when the document held a counted
  /// <device> with a deviceType and a UDN. Fills in the spec version, where
  /// an empty or missing <major>/<minor> reads as 1 and 0.
  bool finish() {
    if ((seen_[0] & kDeviceBit) == 0 || out_.device_type.empty() ||
        out_.udn.empty()) {
      return false;
    }
    out_.spec_major = static_cast<int>(str::parse_long(major_, 1));
    out_.spec_minor = static_cast<int>(str::parse_long(minor_, 0));
    return true;
  }

  void on_start_element(std::string_view name,
                        const xml::Attributes&) override {
    // Only a direct child of the innermost counted element can count.
    if (depth_++ != open_) return;
    switch (open_ == 0 ? Scope::kDocument : scopes_[open_ - 1]) {
      case Scope::kDocument:
        if (name == "root") enter(Scope::kRoot);
        break;
      case Scope::kRoot:
        if (name == "specVersion" && first(kSpecBit)) {
          enter(Scope::kSpec);
        } else if (name == "device" && first(kDeviceBit)) {
          enter(Scope::kDevice);
        }
        break;
      case Scope::kSpec:
        if (name == "major" && first(kMajorBit)) text_ = &major_;
        if (name == "minor" && first(kMinorBit)) text_ = &minor_;
        break;
      case Scope::kDevice:
        if (name == "serviceList" && first(kServiceListBit)) {
          enter(Scope::kServiceList);
        } else {
          capture(out_, kDeviceFields, name);
        }
        break;
      case Scope::kServiceList:
        if (name == "service") {
          out_.services.emplace_back();
          enter(Scope::kService);
        }
        break;
      case Scope::kService:
        capture(out_.services.back(), kServiceFields, name);
        break;
    }
  }

  void on_text(std::string_view text) override {
    if (text_ != nullptr && depth_ == open_ + 1) text_->append(text);
  }

  void on_end_element(std::string_view) override {
    if (depth_ == open_ + 1) {
      text_ = nullptr;
    } else if (depth_ == open_) {
      --open_;
    }
    --depth_;
  }

 private:
  enum class Scope { kDocument, kRoot, kSpec, kDevice, kServiceList, kService };
  // Child-name bits per counted element. Under <device> the fields take the
  // bits of their table index and <serviceList> the next one.
  static constexpr std::uint32_t kSpecBit = 1;    // under <root>
  static constexpr std::uint32_t kDeviceBit = 2;  // under <root>
  static constexpr std::uint32_t kMajorBit = 1;   // under <specVersion>
  static constexpr std::uint32_t kMinorBit = 2;   // under <specVersion>
  static constexpr auto kServiceListBit = 1u << std::size(kDeviceFields);

  void enter(Scope scope) {
    scopes_[open_] = scope;
    seen_[open_] = 0;
    ++open_;
  }

  /// Marks a child name of the innermost counted element as seen; true the
  /// first time.
  bool first(std::uint32_t bit) {
    std::uint32_t& seen = seen_[open_ - 1];
    bool fresh = (seen & bit) == 0;
    seen |= bit;
    return fresh;
  }

  template <typename T, std::size_t N>
  void capture(T& target, const Field<T> (&fields)[N], std::string_view name) {
    for (std::size_t i = 0; i < N; ++i) {
      if (fields[i].name == name && first(1u << i)) {
        text_ = &(target.*fields[i].member);
      }
    }
  }

  DeviceDescription& out_;
  // The counted elements now open, outermost first: at most root, device,
  // serviceList and service, so seen_[0] belongs to <root>. Each holds the
  // child names it has seen.
  Scope scopes_[4] = {};
  std::uint32_t seen_[4] = {};
  std::size_t open_ = 0;
  std::size_t depth_ = 0;
  std::string major_;
  std::string minor_;
  std::string* text_ = nullptr;
};

}  // namespace

std::string DeviceDescription::to_xml() const {
  std::string out =
      "<?xml version=\"1.0\"?>\n"
      "<root xmlns=\"urn:schemas-upnp-org:device-1-0\">\n"
      "  <specVersion>\n";
  leaf(out, "    ", "major", std::to_string(spec_major));
  leaf(out, "    ", "minor", std::to_string(spec_minor));
  out += "  </specVersion>\n  <device>\n";
  for (const auto& field : kDeviceFields) {
    const std::string& text = this->*field.member;
    if (!field.optional || !text.empty()) leaf(out, "    ", field.name, text);
  }
  if (!services.empty()) {
    out += "    <serviceList>\n";
    for (const auto& service : services) {
      out += "      <service>\n";
      for (const auto& field : kServiceFields) {
        leaf(out, "        ", field.name, service.*field.member);
      }
      out += "      </service>\n";
    }
    out += "    </serviceList>\n";
  }
  out += "  </device>\n</root>\n";
  return out;
}

std::optional<DeviceDescription> DeviceDescription::from_xml(
    std::string_view document) {
  DeviceDescription out;
  DescriptionReader reader(out);
  if (!xml::parse(document, reader).ok || !reader.finish()) {
    return std::nullopt;
  }
  return out;
}

std::string DeviceDescription::usn_for(const std::string& nt) const {
  if (nt == udn) return udn;
  return udn + "::" + nt;
}

DeviceDescription make_clock_device(const std::string& udn) {
  DeviceDescription d;
  d.device_type = "urn:schemas-upnp-org:device:clock:1";
  d.friendly_name = "CyberGarage Clock Device";
  d.manufacturer = "CyberGarage";
  d.manufacturer_url = "http://www.cybergarage.org";
  d.model_description = "CyberUPnP Clock Device";
  d.model_name = "Clock";
  d.model_number = "1.0";
  d.model_url = "http://www.cybergarage.org";
  d.udn = udn;

  ServiceDescription timer;
  timer.service_type = "urn:schemas-upnp-org:service:timer:1";
  timer.service_id = "urn:upnp-org:serviceId:timer";
  timer.scpd_url = "/service/timer/scpd.xml";
  timer.control_url = "/service/timer/control";
  timer.event_sub_url = "/service/timer/event";
  d.services.push_back(std::move(timer));
  return d;
}

}  // namespace indiss::upnp
