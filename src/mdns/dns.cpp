#include "mdns/dns.hpp"

#include <algorithm>
#include <cstring>

#include "common/logging.hpp"
#include "common/reuse.hpp"

namespace indiss::mdns {

namespace {

constexpr std::size_t kHeaderBytes = 12;
constexpr std::size_t kMaxNameBytes = 255;

bool fail(std::string* error, const char* what) {
  if (error != nullptr) *error = what;
  return false;
}

std::uint16_t read_u16(BytesView w, std::size_t pos) {
  return static_cast<std::uint16_t>((w[pos] << 8) | w[pos + 1]);
}

std::uint32_t read_u32(BytesView w, std::size_t pos) {
  return (static_cast<std::uint32_t>(w[pos]) << 24) |
         (static_cast<std::uint32_t>(w[pos + 1]) << 16) |
         (static_cast<std::uint32_t>(w[pos + 2]) << 8) | w[pos + 3];
}

/// Decompresses the name starting at *pos into `out` (cleared first) and
/// advances *pos past it. Compression pointers must point strictly
/// backwards, and every hop must target an offset below the previous one:
/// that single rule rejects self-referencing pointers, forward references
/// and loops, and bounds the walk.
bool read_name(BytesView w, std::size_t* pos, std::string& out,
               std::string* error) {
  out.clear();
  std::size_t cur = *pos;
  std::size_t limit = w.size();  // next pointer target must be < this
  bool jumped = false;
  while (true) {
    if (cur >= w.size()) return fail(error, "name runs past end of message");
    std::uint8_t len = w[cur];
    if ((len & 0xC0) == 0xC0) {
      if (cur + 1 >= w.size()) return fail(error, "truncated pointer");
      std::size_t target =
          (static_cast<std::size_t>(len & 0x3F) << 8) | w[cur + 1];
      if (target >= cur || target >= limit) {
        return fail(error, "compression pointer must point backwards");
      }
      if (!jumped) {
        *pos = cur + 2;
        jumped = true;
      }
      limit = target;
      cur = target;
      continue;
    }
    if ((len & 0xC0) != 0) return fail(error, "reserved label type");
    if (len == 0) {
      if (!jumped) *pos = cur + 1;
      return true;
    }
    if (cur + 1 + len > w.size()) return fail(error, "truncated label");
    if (out.size() + len + 1 > kMaxNameBytes) {
      return fail(error, "name longer than 255 bytes");
    }
    if (!out.empty()) out.push_back('.');
    out.append(reinterpret_cast<const char*>(w.data() + cur + 1), len);
    cur += 1 + len;
  }
}

bool read_question(BytesView w, std::size_t* pos, DnsQuestion& q,
                   std::string* error) {
  if (!read_name(w, pos, q.name, error)) return false;
  if (*pos + 4 > w.size()) return fail(error, "truncated question");
  q.qtype = read_u16(w, *pos);
  std::uint16_t qclass = read_u16(w, *pos + 2);
  q.unicast_response = (qclass & kClassTopBit) != 0;
  *pos += 4;
  return true;
}

bool read_record(BytesView w, std::size_t* pos, DnsRecord& r,
                 std::string* error) {
  if (!read_name(w, pos, r.name, error)) return false;
  if (*pos + 10 > w.size()) return fail(error, "truncated record header");
  r.type = read_u16(w, *pos);
  std::uint16_t rclass = read_u16(w, *pos + 2);
  r.cache_flush = (rclass & kClassTopBit) != 0;
  r.ttl = read_u32(w, *pos + 4);
  std::uint16_t rdlen = read_u16(w, *pos + 8);
  *pos += 10;
  if (*pos + rdlen > w.size()) return fail(error, "rdata runs past message");
  std::size_t end = *pos + rdlen;

  // Reset what the previous occupant of a recycled slot may have left in
  // fields this record's type does not fill.
  r.priority = 0;
  r.weight = 0;
  r.port = 0;

  switch (r.type) {
    case kTypePtr:
      if (!read_name(w, pos, r.target, error)) return false;
      if (*pos != end) return fail(error, "PTR rdata length mismatch");
      break;
    case kTypeSrv: {
      if (rdlen < 6) return fail(error, "SRV rdata too short");
      r.priority = read_u16(w, *pos);
      r.weight = read_u16(w, *pos + 2);
      r.port = read_u16(w, *pos + 4);
      *pos += 6;
      if (!read_name(w, pos, r.target, error)) return false;
      if (*pos != end) return fail(error, "SRV rdata length mismatch");
      break;
    }
    case kTypeTxt: {
      std::size_t count = 0;
      while (*pos < end) {
        std::uint8_t len = w[*pos];
        if (*pos + 1 + len > end) {
          return fail(error, "TXT string runs past rdata");
        }
        if (len > 0) {
          std::string_view entry(
              reinterpret_cast<const char*>(w.data() + *pos + 1), len);
          auto eq = entry.find('=');
          auto& kv = slot(r.txt, count++);
          kv.first.assign(entry.substr(0, eq));
          kv.second.assign(eq == std::string_view::npos
                               ? std::string_view{}
                               : entry.substr(eq + 1));
        }
        *pos += 1 + static_cast<std::size_t>(len);
      }
      r.txt.resize(count);
      break;
    }
    case kTypeA:
      if (rdlen != 4) return fail(error, "A rdata must be 4 bytes");
      r.address = net::IpAddress(w[*pos], w[*pos + 1], w[*pos + 2],
                                 w[*pos + 3]);
      *pos = end;
      break;
    default:
      r.raw.assign(w.begin() + static_cast<std::ptrdiff_t>(*pos),
                   w.begin() + static_cast<std::ptrdiff_t>(end));
      *pos = end;
      break;
  }
  if (r.type != kTypeTxt) r.txt.resize(0);
  if (r.type != kTypeA) r.address = net::IpAddress();
  if (r.type != kTypePtr && r.type != kTypeSrv) r.target.clear();
  if (r.type == kTypePtr || r.type == kTypeSrv || r.type == kTypeTxt ||
      r.type == kTypeA) {
    r.raw.clear();
  }
  return true;
}

bool read_section(BytesView w, std::size_t* pos, std::size_t count,
                  std::vector<DnsRecord>& out, std::string* error) {
  for (std::size_t i = 0; i < count; ++i) {
    if (!read_record(w, pos, slot(out, i), error)) return false;
  }
  out.resize(count);
  return true;
}

}  // namespace

void DnsMessage::clear() {
  id = 0;
  flags = 0;
  questions.clear();
  answers.clear();
  authorities.clear();
  additionals.clear();
}

bool decode_into(BytesView wire, DnsMessage& out, std::string* error) {
  if (wire.size() < kHeaderBytes) return fail(error, "truncated header");
  out.id = read_u16(wire, 0);
  out.flags = read_u16(wire, 2);
  std::size_t qdcount = read_u16(wire, 4);
  std::size_t ancount = read_u16(wire, 6);
  std::size_t nscount = read_u16(wire, 8);
  std::size_t arcount = read_u16(wire, 10);

  std::size_t pos = kHeaderBytes;
  for (std::size_t i = 0; i < qdcount; ++i) {
    if (!read_question(wire, &pos, slot(out.questions, i), error)) {
      return false;
    }
  }
  out.questions.resize(qdcount);
  if (!read_section(wire, &pos, ancount, out.answers, error)) return false;
  if (!read_section(wire, &pos, nscount, out.authorities, error)) return false;
  if (!read_section(wire, &pos, arcount, out.additionals, error)) return false;
  if (pos != wire.size()) return fail(error, "trailing bytes after message");
  return true;
}

std::optional<DnsMessage> decode(BytesView wire, std::string* error) {
  DnsMessage message;
  if (!decode_into(wire, message, error)) return std::nullopt;
  return message;
}

// --- Encoding ---------------------------------------------------------------

bool DnsEncoder::name_at_equals(std::size_t offset,
                                std::string_view dotted) const {
  const Bytes& b = writer_.bytes();
  std::size_t pos = offset;
  std::size_t limit = b.size();
  std::size_t s = 0;
  while (true) {
    if (pos >= b.size()) return false;
    std::uint8_t len = b[pos];
    if ((len & 0xC0) == 0xC0) {
      if (pos + 1 >= b.size()) return false;
      std::size_t target =
          (static_cast<std::size_t>(len & 0x3F) << 8) | b[pos + 1];
      if (target >= pos || target >= limit) return false;
      limit = target;
      pos = target;
      continue;
    }
    if ((len & 0xC0) != 0) return false;
    if (len == 0) return s == dotted.size();
    if (pos + 1 + len > b.size()) return false;
    auto dot = dotted.find('.', s);
    std::size_t label_len = (dot == std::string_view::npos ? dotted.size()
                                                           : dot) - s;
    if (label_len != len) return false;
    if (std::memcmp(b.data() + pos + 1, dotted.data() + s, len) != 0) {
      return false;
    }
    s = dot == std::string_view::npos ? dotted.size() : dot + 1;
    pos += 1 + static_cast<std::size_t>(len);
  }
}

namespace {

constexpr std::size_t kMaxLabelBytes = 63;
constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// Prepends one label to a suffix hash: FNV-1a over the length byte and the
/// label bytes, seeded with the hash of the labels that follow.
std::uint64_t hash_label(std::uint64_t rest, std::string_view label) {
  std::uint64_t h = (rest ^ label.size()) * kFnvPrime;
  for (char c : label) {
    h = (h ^ static_cast<std::uint8_t>(c)) * kFnvPrime;
  }
  return h;
}

/// Fibonacci hashing: the key's well-mixed middle bits pick the home slot.
std::size_t home_slot(std::uint64_t key, std::size_t mask) {
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> 32) & mask;
}

}  // namespace

bool DnsEncoder::find_suffix(std::uint64_t key, std::string_view suffix,
                             std::uint16_t* offset) const {
  if (used_.empty()) return false;
  std::size_t mask = table_.size() - 1;
  // Linear probing with no deletions inside one message: entries sharing a
  // key sit on one probe chain in insertion order, so the first verified
  // hit is the first-written matching name, as a linear scan would find.
  for (std::size_t i = home_slot(key, mask);; i = (i + 1) & mask) {
    const Slot& slot = table_[i];
    if (slot.offset == kNoOffset) return false;
    if (slot.key == key && name_at_equals(slot.offset, suffix)) {
      *offset = slot.offset;
      return true;
    }
  }
}

void DnsEncoder::remember(std::uint64_t key, std::uint16_t offset) {
  if ((used_.size() + 1) * 2 > table_.size()) grow_table();
  std::size_t mask = table_.size() - 1;
  std::size_t i = home_slot(key, mask);
  while (table_[i].offset != kNoOffset) i = (i + 1) & mask;
  table_[i] = Slot{key, offset};
  used_.push_back(static_cast<std::uint32_t>(i));
}

void DnsEncoder::grow_table() {
  std::vector<Slot> old;
  old.swap(table_);
  table_.assign(old.empty() ? 64 : old.size() * 2, Slot{});
  std::vector<std::uint32_t> order;
  order.swap(used_);
  used_.reserve(table_.size() / 2);
  // Re-inserting in insertion order keeps every probe chain's order.
  for (std::uint32_t i : order) remember(old[i].key, old[i].offset);
}

void DnsEncoder::write_name(std::string_view name) {
  labels_.clear();
  for (std::size_t start = 0; start < name.size();) {
    auto dot = name.find('.', start);
    std::size_t end = dot == std::string_view::npos ? name.size() : dot;
    Label& label = labels_.emplace_back();
    label.start = start;
    label.size = end - start;
    start = dot == std::string_view::npos ? name.size() : dot + 1;
  }

  // Suffix keys, right to left. A label's key hashes the name that will sit
  // on the wire from that label on: labels capped at 63 bytes, ended by the
  // first empty label (its zero byte terminates the name there). One
  // trailing dot never forms a label. So when a dotted suffix spells an
  // earlier wire name, both carry the same key; name_at_equals() settles
  // every key match.
  std::uint64_t key = kFnvBasis;
  for (std::size_t i = labels_.size(); i-- > 0;) {
    Label& label = labels_[i];
    if (label.size == 0) {
      key = kFnvBasis;
    } else {
      std::size_t bytes = std::min(label.size, kMaxLabelBytes);
      key = hash_label(key, name.substr(label.start, bytes));
    }
    label.key = key;
  }

  // A target is remembered as soon as its first label is written: until
  // its name is complete on the wire, name_at_equals() rejects it.
  for (const Label& label : labels_) {
    std::uint16_t at = 0;
    if (find_suffix(label.key, name.substr(label.start), &at)) {
      writer_.u16(static_cast<std::uint16_t>(0xC000 | at));
      return;
    }
    if (label.size > kMaxLabelBytes) {
      // RFC 1035 caps labels at 63 bytes; composed names are under our
      // control, so an oversized one is a composer bug worth surfacing
      // (the truncated spelling will not match on the peer side).
      log::warn("mdns", "truncating oversized DNS label in '", name, "'");
    }
    std::string_view text =
        name.substr(label.start, std::min(label.size, kMaxLabelBytes));
    if (!text.empty() && writer_.size() < 0x3FFF) {
      remember(label.key, static_cast<std::uint16_t>(writer_.size()));
    }
    writer_.u8(static_cast<std::uint8_t>(text.size()));
    writer_.raw(text);
  }
  writer_.u8(0);
}

void DnsEncoder::write_question(const DnsQuestion& question) {
  write_name(question.name);
  writer_.u16(question.qtype);
  writer_.u16(question.unicast_response ? (kClassIn | kClassTopBit)
                                        : kClassIn);
}

void DnsEncoder::write_record(const DnsRecord& record) {
  write_name(record.name);
  writer_.u16(record.type);
  writer_.u16(record.cache_flush ? (kClassIn | kClassTopBit) : kClassIn);
  writer_.u32(record.ttl);
  std::size_t rdlen_at = writer_.size();
  writer_.u16(0);  // RDLENGTH, patched below
  std::size_t rdata_start = writer_.size();
  switch (record.type) {
    case kTypePtr:
      write_name(record.target);
      break;
    case kTypeSrv:
      writer_.u16(record.priority);
      writer_.u16(record.weight);
      writer_.u16(record.port);
      write_name(record.target);
      break;
    case kTypeTxt:
      for (const auto& [key, value] : record.txt) {
        std::size_t len = key.size() + (value.empty() ? 0 : 1 + value.size());
        if (len == 0 || len > 255) continue;  // unencodable entry: drop
        writer_.u8(static_cast<std::uint8_t>(len));
        writer_.raw(key);
        if (!value.empty()) {
          writer_.raw("=");
          writer_.raw(value);
        }
      }
      break;
    case kTypeA: {
      std::uint32_t bits = record.address.bits();
      writer_.u32(bits);
      break;
    }
    default:
      writer_.raw(record.raw);
      break;
  }
  writer_.patch_u16(rdlen_at,
                    static_cast<std::uint16_t>(writer_.size() - rdata_start));
}

BytesView DnsEncoder::encode(const DnsMessage& message) {
  writer_.clear();
  for (std::uint32_t i : used_) table_[i].offset = kNoOffset;
  used_.clear();
  writer_.u16(message.id);
  writer_.u16(message.flags);
  writer_.u16(static_cast<std::uint16_t>(message.questions.size()));
  writer_.u16(static_cast<std::uint16_t>(message.answers.size()));
  writer_.u16(static_cast<std::uint16_t>(message.authorities.size()));
  writer_.u16(static_cast<std::uint16_t>(message.additionals.size()));
  for (const auto& question : message.questions) write_question(question);
  for (const auto& record : message.answers) write_record(record);
  for (const auto& record : message.authorities) write_record(record);
  for (const auto& record : message.additionals) write_record(record);
  return writer_.bytes();
}

Bytes encode(const DnsMessage& message) {
  DnsEncoder encoder;
  encoder.encode(message);
  return Bytes(encoder.bytes());
}

// --- DNS-SD name helpers ----------------------------------------------------

std::string_view instance_label(std::string_view name) {
  auto dot = name.find('.');
  return dot == std::string_view::npos ? name : name.substr(0, dot);
}

std::string_view type_of_instance(std::string_view name) {
  auto dot = name.find('.');
  return dot == std::string_view::npos ? std::string_view{}
                                       : name.substr(dot + 1);
}

}  // namespace indiss::mdns
