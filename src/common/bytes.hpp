// Byte-buffer primitives shared by the binary wire formats (SLP, Jini).
//
// SLPv2 (RFC 2608) and our Jini discovery substitute are big-endian binary
// protocols; ByteWriter/ByteReader provide bounds-checked big-endian encoding
// over a growable byte vector. Decoding errors are reported via DecodeError so
// malformed network input never turns into UB.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace indiss {

using Bytes = std::vector<std::uint8_t>;
using BytesView = std::span<const std::uint8_t>;

/// Thrown by ByteReader when a read would run past the end of the buffer or a
/// length field is inconsistent. Protocol decoders translate this into a
/// decode failure rather than crashing on malformed input.
class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& what) : std::runtime_error(what) {}
};

/// Appends big-endian integers and length-prefixed strings to a byte vector.
class ByteWriter {
 public:
  ByteWriter() = default;

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u24(std::uint32_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);

  /// Raw bytes, no length prefix.
  void raw(BytesView bytes);
  void raw(std::string_view s);

  /// RFC 2608 style: 16-bit length followed by the string bytes.
  void str16(std::string_view s);

  [[nodiscard]] const Bytes& bytes() const { return buf_; }
  [[nodiscard]] Bytes take() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

  /// Pre-sizes the buffer so typical messages encode with one allocation.
  void reserve(std::size_t n) { buf_.reserve(n); }

  /// Overwrites previously written bytes (used to patch SLP's length field
  /// once the full message has been encoded).
  void patch_u24(std::size_t offset, std::uint32_t v);

  /// Same, for 16-bit fields (DNS RDLENGTH patching).
  void patch_u16(std::size_t offset, std::uint16_t v);

  /// Drops the contents but keeps the buffer's capacity, so a writer reused
  /// across messages settles into zero allocations.
  void clear() { buf_.clear(); }

 private:
  Bytes buf_;
};

/// Bounds-checked big-endian reads over an immutable byte span.
class ByteReader {
 public:
  explicit ByteReader(BytesView view) : view_(view) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint16_t u16();
  [[nodiscard]] std::uint32_t u24();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();

  /// Reads a 16-bit length prefix then that many bytes as a string.
  [[nodiscard]] std::string str16();

  /// Same wire format, but assigns into `out` so its capacity is reused —
  /// the decode half of the zero-steady-state-allocation scratch recipe.
  void str16_into(std::string& out);

  [[nodiscard]] Bytes raw(std::size_t n);

  [[nodiscard]] std::size_t remaining() const { return view_.size() - pos_; }
  [[nodiscard]] std::size_t position() const { return pos_; }
  [[nodiscard]] bool empty() const { return remaining() == 0; }

 private:
  void require(std::size_t n) const;

  BytesView view_;
  std::size_t pos_ = 0;
};

/// Where a wire format carries its transaction id: `length` bytes at
/// `offset` (empty when it carries none). A reply echoes the id of its query
/// at the same offset, so one query's reply answers another that differs
/// only there once the id is patched in.
struct IdSpan {
  std::size_t offset = 0;
  std::size_t length = 0;

  [[nodiscard]] constexpr bool empty() const { return length == 0; }
  /// Whether `wire` is long enough to hold the id.
  [[nodiscard]] constexpr bool fits(BytesView wire) const {
    return !empty() && wire.size() >= offset + length;
  }
};

/// Convenience conversions between text and bytes.
[[nodiscard]] Bytes to_bytes(std::string_view s);
[[nodiscard]] std::string to_string(BytesView b);

}  // namespace indiss
