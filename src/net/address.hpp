// IPv4 addresses and endpoints for the simulated network.
//
// SDP detection in INDISS rests on IANA-assigned (multicast group, port)
// pairs, so multicast classification (224.0.0.0/4) is a first-class property
// here.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

namespace indiss::net {

class IpAddress {
 public:
  constexpr IpAddress() = default;
  constexpr explicit IpAddress(std::uint32_t bits) : bits_(bits) {}
  constexpr IpAddress(std::uint8_t a, std::uint8_t b, std::uint8_t c,
                      std::uint8_t d)
      : bits_((std::uint32_t{a} << 24) | (std::uint32_t{b} << 16) |
              (std::uint32_t{c} << 8) | d) {}

  static std::optional<IpAddress> parse(std::string_view dotted);

  [[nodiscard]] constexpr std::uint32_t bits() const { return bits_; }
  [[nodiscard]] constexpr bool is_multicast() const {
    return (bits_ >> 28) == 0xE;  // 224.0.0.0/4
  }
  [[nodiscard]] constexpr bool is_unspecified() const { return bits_ == 0; }
  [[nodiscard]] std::string to_string() const;

  constexpr auto operator<=>(const IpAddress&) const = default;

 private:
  std::uint32_t bits_ = 0;
};

struct Endpoint {
  IpAddress address;
  std::uint16_t port = 0;

  [[nodiscard]] std::string to_string() const;
  constexpr auto operator<=>(const Endpoint&) const = default;
};

}  // namespace indiss::net

template <>
struct std::hash<indiss::net::IpAddress> {
  std::size_t operator()(const indiss::net::IpAddress& a) const noexcept {
    return std::hash<std::uint32_t>{}(a.bits());
  }
};

template <>
struct std::hash<indiss::net::Endpoint> {
  std::size_t operator()(const indiss::net::Endpoint& e) const noexcept {
    return std::hash<std::uint64_t>{}(
        (std::uint64_t{e.address.bits()} << 16) | e.port);
  }
};
