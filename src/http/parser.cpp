#include "http/parser.hpp"

#include "common/strings.hpp"

namespace indiss::http {

void HttpParser::reset() {
  state_ = State::kStartLine;
  buffer_.clear();
  consumed_ = 0;
  remaining_body_ = 0;
  body_until_close_ = false;
  current_is_response_ = false;
  have_length_ = false;
}

void HttpParser::fail(std::string_view reason) {
  state_ = State::kFailed;
  handler_.on_parse_error(reason);
}

void HttpParser::feed(std::string_view bytes) {
  if (state_ == State::kFailed) return;
  buffer_.append(bytes);

  while (state_ != State::kFailed) {
    if (state_ == State::kBody) {
      if (body_until_close_) {
        if (!buffer_.empty()) {
          consumed_ += buffer_.size();
          handler_.on_body(buffer_);
          buffer_.clear();
        }
        return;  // completed by finish()
      }
      if (remaining_body_ > 0) {
        std::size_t take = std::min(buffer_.size(),
                                    static_cast<std::size_t>(remaining_body_));
        if (take == 0) return;  // need more data
        consumed_ += take;
        handler_.on_body(std::string_view(buffer_).substr(0, take));
        buffer_.erase(0, take);
        remaining_body_ -= static_cast<long>(take);
      }
      if (remaining_body_ == 0) complete_message();
      continue;
    }

    // Line-oriented states. Tolerate bare LF as a line terminator. The line
    // is processed as a view into buffer_ (no per-line string copy) and the
    // consumed prefix erased afterwards; handler callbacks receive views that
    // die with the call, which is the documented EventHandler contract.
    auto eol = buffer_.find('\n');
    if (eol == std::string::npos) return;  // need more data
    std::string_view line(buffer_.data(), eol);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    consumed_ += eol + 1;  // counted before a message can complete
    process_line(line);
    buffer_.erase(0, eol + 1);
  }
}

void HttpParser::process_line(std::string_view line) {
  switch (state_) {
    case State::kStartLine: {
      if (line.empty()) return;  // skip stray blank lines between messages
      if (str::istarts_with(line, "HTTP/")) {
        // Status line: HTTP/1.1 200 OK
        auto first_sp = line.find(' ');
        if (first_sp == std::string_view::npos) return fail("bad status line");
        auto second_sp = line.find(' ', first_sp + 1);
        std::string_view version = line.substr(0, first_sp);
        std::string_view code =
            second_sp == std::string_view::npos
                ? line.substr(first_sp + 1)
                : line.substr(first_sp + 1, second_sp - first_sp - 1);
        std::string_view reason = second_sp == std::string_view::npos
                                      ? std::string_view{}
                                      : line.substr(second_sp + 1);
        long status = str::parse_long(code, -1);
        if (status < 100 || status > 599) return fail("bad status code");
        current_is_response_ = true;
        handler_.on_status_line(static_cast<int>(status), reason, version);
      } else {
        // Request line: M-SEARCH * HTTP/1.1
        auto first_sp = line.find(' ');
        auto last_sp = line.rfind(' ');
        if (first_sp == std::string_view::npos || last_sp <= first_sp) {
          return fail("bad request line");
        }
        std::string_view method = line.substr(0, first_sp);
        std::string_view target =
            line.substr(first_sp + 1, last_sp - first_sp - 1);
        std::string_view version = line.substr(last_sp + 1);
        if (!str::istarts_with(version, "HTTP/")) {
          return fail("bad request version");
        }
        current_is_response_ = false;
        handler_.on_request_line(method, target, version);
      }
      state_ = State::kHeaders;
      return;
    }
    case State::kHeaders: {
      if (line.empty()) {
        handler_.on_headers_complete();
        // Responses without Content-Length use read-until-close framing;
        // requests without one carry no body (RFC 2616 §4.4).
        body_until_close_ = current_is_response_ && !have_length_;
        if (body_until_close_ || remaining_body_ > 0) {
          state_ = State::kBody;
        } else {
          complete_message();
        }
        return;
      }
      auto colon = line.find(':');
      if (colon == std::string_view::npos) return fail("bad header line");
      std::string_view name = str::trim(line.substr(0, colon));
      std::string_view value = str::trim(line.substr(colon + 1));
      if (str::iequals(name, "Content-Length")) {
        long n = str::parse_long(value, -1);
        if (n < 0) return fail("bad Content-Length");
        remaining_body_ = n;
        have_length_ = true;
      } else if (str::iequals(name, "Transfer-Encoding")) {
        return fail("chunked transfer encoding not supported");
      }
      handler_.on_header(name, value);
      return;
    }
    case State::kBody:
    case State::kFailed:
      return;  // unreachable from feed()
  }
}

void HttpParser::complete_message() {
  handler_.on_message_complete();
  state_ = State::kStartLine;
  remaining_body_ = 0;
  body_until_close_ = false;
  have_length_ = false;
}

void HttpParser::finish() {
  if (state_ == State::kBody && body_until_close_) {
    complete_message();
    return;
  }
  if (state_ == State::kBody && remaining_body_ > 0) {
    fail("stream ended mid-body");
  }
}

}  // namespace indiss::http
