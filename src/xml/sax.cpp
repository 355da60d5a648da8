#include "xml/sax.hpp"

#include <cctype>
#include <charconv>

#include "common/strings.hpp"

namespace indiss::xml {

namespace {

bool is_name_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-' ||
         c == ':' || c == '.';
}

class Cursor {
 public:
  explicit Cursor(std::string_view doc) : doc_(doc) {}

  [[nodiscard]] bool eof() const { return pos_ >= doc_.size(); }
  [[nodiscard]] char peek() const { return doc_[pos_]; }
  [[nodiscard]] std::size_t pos() const { return pos_; }
  char take() { return doc_[pos_++]; }
  void skip(std::size_t n) { pos_ += n; }

  /// Takes the longest run of name characters (possibly empty) as a view.
  [[nodiscard]] std::string_view take_name() {
    std::size_t start = pos_;
    while (!eof() && is_name_char(peek())) ++pos_;
    return doc_.substr(start, pos_ - start);
  }

  /// Takes everything up to (not including) `stop` or the end as a view.
  [[nodiscard]] std::string_view take_until_char(char stop) {
    std::size_t start = pos_;
    while (!eof() && peek() != stop) ++pos_;
    return doc_.substr(start, pos_ - start);
  }

  [[nodiscard]] bool starts_with(std::string_view s) const {
    return doc_.substr(pos_, s.size()) == s;
  }

  void skip_whitespace() {
    while (!eof() && std::isspace(static_cast<unsigned char>(peek()))) take();
  }

  /// Advances past `needle`, returning the text before it; npos on miss.
  [[nodiscard]] bool take_until(std::string_view needle,
                                std::string_view* out) {
    auto found = doc_.find(needle, pos_);
    if (found == std::string_view::npos) return false;
    *out = doc_.substr(pos_, found - pos_);
    pos_ = found + needle.size();
    return true;
  }

 private:
  std::string_view doc_;
  std::size_t pos_ = 0;
};

// "#65" / "#x41" (the text between '&' and ';'): one or more decimal or hex
// digits and nothing else, naming a character XML 1.0 allows within ASCII —
// tab, LF, CR or 32-127. SDP documents carry ASCII payloads only.
bool decode_char_ref(std::string_view ref, char* out) {
  ref.remove_prefix(1);  // '#'
  int base = 10;
  if (!ref.empty() && (ref[0] == 'x' || ref[0] == 'X')) {
    base = 16;
    ref.remove_prefix(1);
  }
  unsigned code = 0;
  const char* end = ref.data() + ref.size();
  auto [ptr, ec] = std::from_chars(ref.data(), end, code, base);
  if (ec != std::errc{} || ptr != end) return false;
  if (code != '\t' && code != '\n' && code != '\r' &&
      (code < 32 || code > 127)) {
    return false;
  }
  *out = static_cast<char>(code);
  return true;
}

/// Appends `text` with its entity references decoded; false on a bad one.
bool unescape_into(std::string_view text, std::string& out) {
  for (std::size_t i = 0; i < text.size();) {
    if (text[i] != '&') {
      out += text[i++];
      continue;
    }
    auto end = text.find(';', i);
    if (end == std::string_view::npos) return false;
    std::string_view entity = text.substr(i + 1, end - i - 1);
    char decoded = 0;
    if (entity == "amp") out += '&';
    else if (entity == "lt") out += '<';
    else if (entity == "gt") out += '>';
    else if (entity == "quot") out += '"';
    else if (entity == "apos") out += '\'';
    else if (!entity.empty() && entity[0] == '#' &&
             decode_char_ref(entity, &decoded)) {
      out += decoded;
    } else {
      return false;
    }
    i = end + 1;
  }
  return true;
}

}  // namespace

void escape_into(std::string& out, std::string_view text) {
  for (char c : text) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      case '\'': out += "&apos;"; break;
      default: out += c;
    }
  }
}

ParseResult parse(std::string_view document, SaxHandler& handler) {
  Cursor cur(document);
  std::vector<std::string_view> stack;
  std::string pending_text;

  auto error = [&](std::string what) {
    return ParseResult{false, std::move(what), cur.pos()};
  };
  auto flush_text = [&] {
    auto trimmed = str::trim(pending_text);
    if (!trimmed.empty()) handler.on_text(trimmed);
    pending_text.clear();
  };

  bool seen_root = false;
  while (!cur.eof()) {
    if (cur.peek() != '<') {
      if (stack.empty()) {
        if (!std::isspace(static_cast<unsigned char>(cur.peek()))) {
          return error("text outside root element");
        }
        cur.take();
        continue;
      }
      // Collect character data until the next markup.
      if (!unescape_into(cur.take_until_char('<'), pending_text)) {
        return error("bad entity reference");
      }
      continue;
    }

    // Markup.
    if (cur.starts_with("<?")) {
      std::string_view ignored;
      if (!cur.take_until("?>", &ignored)) return error("unterminated <?");
      continue;
    }
    if (cur.starts_with("<!--")) {
      std::string_view ignored;
      cur.skip(4);
      if (!cur.take_until("-->", &ignored)) return error("unterminated comment");
      continue;
    }
    if (cur.starts_with("<![CDATA[")) {
      if (stack.empty()) return error("CDATA outside root element");
      cur.skip(9);
      std::string_view cdata;
      if (!cur.take_until("]]>", &cdata)) return error("unterminated CDATA");
      pending_text += cdata;
      continue;
    }
    if (cur.starts_with("<!")) {
      return error("DOCTYPE/markup declarations are not supported");
    }
    if (cur.starts_with("</")) {
      cur.skip(2);
      std::string_view name = cur.take_name();
      cur.skip_whitespace();
      if (cur.eof() || cur.take() != '>') return error("malformed end tag");
      if (stack.empty() || stack.back() != name) {
        return error("mismatched end tag </" + std::string(name) + ">");
      }
      flush_text();
      stack.pop_back();
      handler.on_end_element(name);
      continue;
    }

    // Start tag.
    cur.take();  // '<'
    std::string_view name = cur.take_name();
    if (name.empty()) return error("empty element name");
    if (stack.empty() && seen_root) return error("multiple root elements");

    Attributes attributes;
    bool self_closing = false;
    while (true) {
      cur.skip_whitespace();
      if (cur.eof()) return error("unterminated start tag");
      if (cur.peek() == '>') {
        cur.take();
        break;
      }
      if (cur.starts_with("/>")) {
        cur.skip(2);
        self_closing = true;
        break;
      }
      std::string_view attr_name = cur.take_name();
      if (attr_name.empty()) return error("malformed attribute");
      cur.skip_whitespace();
      if (cur.eof() || cur.take() != '=') return error("attribute missing =");
      cur.skip_whitespace();
      if (cur.eof()) return error("attribute missing value");
      char quote = cur.take();
      if (quote != '"' && quote != '\'') return error("unquoted attribute");
      std::string_view raw_value = cur.take_until_char(quote);
      if (cur.eof()) return error("unterminated attribute value");
      cur.take();  // closing quote
      std::string& value =
          attributes.emplace_back(std::string(attr_name), std::string()).second;
      if (!unescape_into(raw_value, value)) {
        return error("bad entity in attribute");
      }
    }

    flush_text();
    seen_root = true;
    handler.on_start_element(name, attributes);
    if (self_closing) {
      handler.on_end_element(name);
    } else {
      stack.push_back(name);
    }
  }

  if (!stack.empty()) {
    return error("unclosed element <" + std::string(stack.back()) + ">");
  }
  if (!seen_root) return error("no root element");
  return ParseResult{};
}

}  // namespace indiss::xml
