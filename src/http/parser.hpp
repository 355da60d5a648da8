// Incremental, event-based HTTP/1.1 parser: the one HTTP reader.
//
// This is the concrete realization of the "event-based parsing" technique the
// paper builds on (Ryan & Wolf, ICSE'04): raw bytes are pushed in and the
// parser emits fine-grained syntactic events (start line, header, body,
// message complete) to a handler. INDISS's SSDP reader layers *semantic* SDP
// events on top of these syntactic ones; the same parser frames the TCP
// description exchange on both ends (upnp/http_client.hpp,
// upnp/http_server.hpp) — precisely the component reuse across units that §3
// of the paper calls out. HTTP is written directly, never through a message
// model.
//
// Framing: Content-Length when present, otherwise an empty body. Chunked
// transfer encoding is not needed by any SDP here and is rejected explicitly.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "common/bytes.hpp"

namespace indiss::http {

/// Receiver of syntactic HTTP events. Every event defaults to a no-op: a
/// reader overrides the ones it reads.
class HttpEventHandler {
 public:
  virtual ~HttpEventHandler() = default;

  virtual void on_request_line(std::string_view /*method*/,
                               std::string_view /*target*/,
                               std::string_view /*version*/) {}
  virtual void on_status_line(int /*status*/, std::string_view /*reason*/,
                              std::string_view /*version*/) {}
  virtual void on_header(std::string_view /*name*/,
                         std::string_view /*value*/) {}
  virtual void on_headers_complete() {}
  virtual void on_body(std::string_view /*chunk*/) {}
  virtual void on_message_complete() {}
  virtual void on_parse_error(std::string_view /*reason*/) {}
};

class HttpParser {
 public:
  explicit HttpParser(HttpEventHandler& handler) : handler_(handler) {}

  /// Pushes bytes; events fire synchronously as message parts complete.
  /// Multiple messages back-to-back in the stream are handled (HTTP/1.1
  /// keep-alive).
  void feed(std::string_view bytes);
  void feed(BytesView bytes) {
    feed(std::string_view(reinterpret_cast<const char*>(bytes.data()),
                          bytes.size()));
  }

  /// Signals end-of-stream. A message with no Content-Length that is still
  /// collecting a body is completed (read-until-close semantics).
  void finish();

  [[nodiscard]] bool failed() const { return state_ == State::kFailed; }
  /// Bytes of the stream consumed since construction or reset(). Inside
  /// on_message_complete it is the offset just past that message, so a
  /// reader can cut one message out of the bytes it fed.
  [[nodiscard]] std::size_t consumed() const { return consumed_; }

  /// Drops any partially parsed message and resumes at start-line state.
  void reset();

 private:
  enum class State { kStartLine, kHeaders, kBody, kFailed };

  void process_line(std::string_view line);
  void fail(std::string_view reason);
  void complete_message();

  HttpEventHandler& handler_;
  State state_ = State::kStartLine;
  std::string buffer_;
  std::size_t consumed_ = 0;
  long remaining_body_ = 0;
  bool body_until_close_ = false;
  bool current_is_response_ = false;
  bool have_length_ = false;
};

}  // namespace indiss::http
