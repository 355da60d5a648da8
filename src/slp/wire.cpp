#include "slp/wire.hpp"

#include <stdexcept>

#include "common/reuse.hpp"
#include "common/strings.hpp"

namespace indiss::slp {

namespace {

constexpr std::uint8_t kVersion = 2;
constexpr std::size_t kLengthOffset = 2;  // version(1) + function(1)

/// Reuses the scratch message's current alternative when it matches (string
/// capacity survives); switches the variant otherwise.
template <typename T>
T& as_alternative(Message& message) {
  if (auto* held = std::get_if<T>(&message)) return *held;
  return message.emplace<T>();
}

void encode_header(ByteWriter& w, const Header& h, FunctionId function) {
  w.u8(kVersion);
  w.u8(static_cast<std::uint8_t>(function));
  w.u24(0);  // length, patched afterwards
  w.u16(h.flags);
  w.u24(0);  // next extension offset (none)
  w.u16(h.xid);
  w.str16(h.language);
}

void decode_header_into(ByteReader& r, Header& h, FunctionId* function,
                        std::uint32_t* length) {
  std::uint8_t version = r.u8();
  if (version != kVersion) {
    throw DecodeError("unsupported SLP version " + std::to_string(version));
  }
  std::uint8_t fn = r.u8();
  if (fn < 1 || fn > 10) {
    throw DecodeError("unknown SLP function id " + std::to_string(fn));
  }
  *function = static_cast<FunctionId>(fn);
  *length = r.u24();
  h.function = *function;
  h.flags = r.u16();
  (void)r.u24();  // next extension offset, ignored
  h.xid = r.u16();
  r.str16_into(h.language);
}

void encode_url_entry(ByteWriter& w, const UrlEntry& entry) {
  w.u8(0);  // reserved
  w.u16(entry.lifetime_seconds);
  w.str16(entry.url);
  w.u8(0);  // number of auth blocks
}

void decode_url_entry_into(ByteReader& r, UrlEntry& e) {
  (void)r.u8();  // reserved
  e.lifetime_seconds = r.u16();
  r.str16_into(e.url);
  std::uint8_t auths = r.u8();
  if (auths != 0) throw DecodeError("auth blocks not supported");
}

}  // namespace

FunctionId function_of(const Message& message) {
  return header_of(message).function;
}

const Header& header_of(const Message& message) {
  return std::visit([](const auto& m) -> const Header& { return m.header; },
                    message);
}

Header& header_of(Message& message) {
  return std::visit([](auto& m) -> Header& { return m.header; }, message);
}

Bytes encode(const Message& message) {
  ByteWriter w;
  encode_into(message, w);
  return w.take();
}

BytesView encode_into(const Message& message, ByteWriter& w) {
  w.clear();
  w.reserve(128);  // covers every fixture message; one growth for big replies
  std::visit(
      [&w](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, SrvRqst>) {
          encode_header(w, m.header, FunctionId::kSrvRqst);
          w.str16(m.previous_responders);
          w.str16(m.service_type);
          w.str16(m.scope_list);
          w.str16(m.predicate);
          w.str16(m.spi);
        } else if constexpr (std::is_same_v<T, SrvRply>) {
          encode_header(w, m.header, FunctionId::kSrvRply);
          w.u16(static_cast<std::uint16_t>(m.error));
          w.u16(static_cast<std::uint16_t>(m.url_entries.size()));
          for (const auto& e : m.url_entries) encode_url_entry(w, e);
        } else if constexpr (std::is_same_v<T, SrvReg>) {
          encode_header(w, m.header, FunctionId::kSrvReg);
          encode_url_entry(w, m.url_entry);
          w.str16(m.service_type);
          w.str16(m.scope_list);
          w.str16(m.attr_list);
          w.u8(0);  // attr auth blocks
        } else if constexpr (std::is_same_v<T, SrvDeReg>) {
          encode_header(w, m.header, FunctionId::kSrvDeReg);
          w.str16(m.scope_list);
          encode_url_entry(w, m.url_entry);
          w.str16(m.tag_list);
        } else if constexpr (std::is_same_v<T, SrvAck>) {
          encode_header(w, m.header, FunctionId::kSrvAck);
          w.u16(static_cast<std::uint16_t>(m.error));
        } else if constexpr (std::is_same_v<T, AttrRqst>) {
          encode_header(w, m.header, FunctionId::kAttrRqst);
          w.str16(m.previous_responders);
          w.str16(m.url);
          w.str16(m.scope_list);
          w.str16(m.tag_list);
          w.str16(m.spi);
        } else if constexpr (std::is_same_v<T, AttrRply>) {
          encode_header(w, m.header, FunctionId::kAttrRply);
          w.u16(static_cast<std::uint16_t>(m.error));
          w.str16(m.attr_list);
          w.u8(0);  // auth blocks
        } else if constexpr (std::is_same_v<T, DAAdvert>) {
          encode_header(w, m.header, FunctionId::kDAAdvert);
          w.u16(static_cast<std::uint16_t>(m.error));
          w.u32(m.boot_timestamp);
          w.str16(m.url);
          w.str16(m.scope_list);
          w.str16(m.attr_list);
          w.str16(m.spi);
          w.u8(0);  // auth blocks
        } else if constexpr (std::is_same_v<T, SrvTypeRqst>) {
          encode_header(w, m.header, FunctionId::kSrvTypeRqst);
          w.str16(m.previous_responders);
          w.str16(m.naming_authority);
          w.str16(m.scope_list);
        } else if constexpr (std::is_same_v<T, SrvTypeRply>) {
          encode_header(w, m.header, FunctionId::kSrvTypeRply);
          w.u16(static_cast<std::uint16_t>(m.error));
          w.str16(m.type_list);
        }
      },
      message);
  w.patch_u24(kLengthOffset, static_cast<std::uint32_t>(w.size()));
  return w.bytes();
}

std::optional<Message> decode(BytesView bytes, std::string* error) {
  Message message;
  if (!decode_into(bytes, message, error)) return std::nullopt;
  return message;
}

bool decode_into(BytesView bytes, Message& scratch, std::string* error) {
  try {
    ByteReader r(bytes);
    FunctionId function;
    std::uint32_t length = 0;
    Header h;
    decode_header_into(r, h, &function, &length);
    if (length != bytes.size()) {
      throw DecodeError("length field " + std::to_string(length) +
                        " does not match datagram size " +
                        std::to_string(bytes.size()));
    }
    // Every branch assigns all fields of its alternative, so whatever a
    // recycled scratch slot held before is fully overwritten. The header
    // language string moves into place (h is a fresh local, so its capacity
    // was grown this parse; acceptable because the header is tiny).
    switch (function) {
      case FunctionId::kSrvRqst: {
        auto& m = as_alternative<SrvRqst>(scratch);
        m.header = std::move(h);
        r.str16_into(m.previous_responders);
        r.str16_into(m.service_type);
        r.str16_into(m.scope_list);
        r.str16_into(m.predicate);
        r.str16_into(m.spi);
        return true;
      }
      case FunctionId::kSrvRply: {
        auto& m = as_alternative<SrvRply>(scratch);
        m.header = std::move(h);
        m.error = static_cast<ErrorCode>(r.u16());
        std::uint16_t count = r.u16();
        for (std::uint16_t i = 0; i < count; ++i) {
          decode_url_entry_into(r, slot(m.url_entries, i));
        }
        m.url_entries.resize(count);
        return true;
      }
      case FunctionId::kSrvReg: {
        auto& m = as_alternative<SrvReg>(scratch);
        m.header = std::move(h);
        decode_url_entry_into(r, m.url_entry);
        r.str16_into(m.service_type);
        r.str16_into(m.scope_list);
        r.str16_into(m.attr_list);
        if (r.u8() != 0) throw DecodeError("attr auth blocks not supported");
        return true;
      }
      case FunctionId::kSrvDeReg: {
        auto& m = as_alternative<SrvDeReg>(scratch);
        m.header = std::move(h);
        r.str16_into(m.scope_list);
        decode_url_entry_into(r, m.url_entry);
        r.str16_into(m.tag_list);
        return true;
      }
      case FunctionId::kSrvAck: {
        auto& m = as_alternative<SrvAck>(scratch);
        m.header = std::move(h);
        m.error = static_cast<ErrorCode>(r.u16());
        return true;
      }
      case FunctionId::kAttrRqst: {
        auto& m = as_alternative<AttrRqst>(scratch);
        m.header = std::move(h);
        r.str16_into(m.previous_responders);
        r.str16_into(m.url);
        r.str16_into(m.scope_list);
        r.str16_into(m.tag_list);
        r.str16_into(m.spi);
        return true;
      }
      case FunctionId::kAttrRply: {
        auto& m = as_alternative<AttrRply>(scratch);
        m.header = std::move(h);
        m.error = static_cast<ErrorCode>(r.u16());
        r.str16_into(m.attr_list);
        if (r.u8() != 0) throw DecodeError("auth blocks not supported");
        return true;
      }
      case FunctionId::kDAAdvert: {
        auto& m = as_alternative<DAAdvert>(scratch);
        m.header = std::move(h);
        m.error = static_cast<ErrorCode>(r.u16());
        m.boot_timestamp = r.u32();
        r.str16_into(m.url);
        r.str16_into(m.scope_list);
        r.str16_into(m.attr_list);
        r.str16_into(m.spi);
        if (r.u8() != 0) throw DecodeError("auth blocks not supported");
        return true;
      }
      case FunctionId::kSrvTypeRqst: {
        auto& m = as_alternative<SrvTypeRqst>(scratch);
        m.header = std::move(h);
        r.str16_into(m.previous_responders);
        r.str16_into(m.naming_authority);
        r.str16_into(m.scope_list);
        return true;
      }
      case FunctionId::kSrvTypeRply: {
        auto& m = as_alternative<SrvTypeRply>(scratch);
        m.header = std::move(h);
        m.error = static_cast<ErrorCode>(r.u16());
        r.str16_into(m.type_list);
        return true;
      }
    }
    throw DecodeError("unreachable function id");
  } catch (const DecodeError& e) {
    if (error != nullptr) *error = e.what();
    return false;
  }
}

bool pr_list_names(std::string_view pr_list, std::string_view address) {
  while (!pr_list.empty()) {
    std::size_t comma = pr_list.find(',');
    if (str::trim(pr_list.substr(0, comma)) == address) return true;
    if (comma == std::string_view::npos) break;
    pr_list.remove_prefix(comma + 1);
  }
  return false;
}

}  // namespace indiss::slp
