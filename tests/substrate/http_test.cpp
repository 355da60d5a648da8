// Unit tests for the event-based HTTP parser and message model.
#include <gtest/gtest.h>

#include <optional>
#include <string_view>

#include "http/message.hpp"
#include "http/parser.hpp"

namespace indiss::http {
namespace {

/// Parses `text` as exactly one complete message; nullopt otherwise.
std::optional<HttpMessage> parse_one(std::string_view text) {
  MessageCollector collector;
  HttpParser parser(collector);
  parser.feed(text);
  parser.finish();
  if (parser.failed() || collector.messages().size() != 1) return std::nullopt;
  return collector.messages().front();
}

TEST(Headers, CaseInsensitiveAccessPreservingOrder) {
  Headers h;
  h.set("HOST", "239.255.255.250:1900");
  h.set("ST", "ssdp:all");
  EXPECT_EQ(h.get("host").value(), "239.255.255.250:1900");
  EXPECT_FALSE(h.get("missing").has_value());
  h.set("st", "upnp:rootdevice");  // overwrite, case-insensitively
  EXPECT_EQ(h.get("ST").value(), "upnp:rootdevice");
  EXPECT_EQ(h.size(), 2u);
  EXPECT_EQ(h.all()[0].first, "HOST");
}

TEST(HttpMessage, SerializeRequestMatchesSsdpShape) {
  auto m = HttpMessage::request("M-SEARCH", "*");
  m.headers.set("HOST", "239.255.255.250:1900");
  m.headers.set("MAN", "\"ssdp:discover\"");
  m.headers.set("MX", "0");
  m.headers.set("ST", "urn:schemas-upnp-org:device:clock:1");
  auto text = m.serialize();
  EXPECT_TRUE(text.starts_with("M-SEARCH * HTTP/1.1\r\n"));
  EXPECT_NE(text.find("ST: urn:schemas-upnp-org:device:clock:1\r\n"),
            std::string::npos);
  EXPECT_TRUE(text.ends_with("\r\n\r\n"));
}

TEST(HttpMessage, ParseRoundTripRequest) {
  auto m = HttpMessage::request("GET", "/description.xml");
  m.headers.set("HOST", "10.0.0.2:4004");
  auto parsed = parse_one(m.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->is_request());
  EXPECT_EQ(parsed->method, "GET");
  EXPECT_EQ(parsed->target, "/description.xml");
  EXPECT_EQ(parsed->headers.get("Host").value(), "10.0.0.2:4004");
}

TEST(HttpMessage, ParseRoundTripResponseWithBody) {
  auto m = HttpMessage::response(200, "OK");
  m.headers.set("CONTENT-TYPE", "text/xml");
  m.body = "<root><device/></root>";
  auto parsed = parse_one(m.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->is_request());
  EXPECT_EQ(parsed->status, 200);
  EXPECT_EQ(parsed->body, "<root><device/></root>");
}

TEST(HttpParser, IncrementalFeedingByteByByte) {
  MessageCollector collector;
  HttpParser parser(collector);
  std::string text =
      "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello";
  for (char c : text) parser.feed(std::string_view(&c, 1));
  ASSERT_EQ(collector.messages().size(), 1u);
  EXPECT_EQ(collector.messages()[0].body, "hello");
}

TEST(HttpParser, MultipleMessagesInOneStream) {
  MessageCollector collector;
  HttpParser parser(collector);
  parser.feed(
      "GET /a HTTP/1.1\r\n\r\n"
      "GET /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nxy"
      "GET /c HTTP/1.1\r\n\r\n");
  ASSERT_EQ(collector.messages().size(), 3u);
  EXPECT_EQ(collector.messages()[0].target, "/a");
  EXPECT_EQ(collector.messages()[1].body, "xy");
  EXPECT_EQ(collector.messages()[2].target, "/c");
}

TEST(HttpParser, ResponseWithoutContentLengthReadsUntilClose) {
  MessageCollector collector;
  HttpParser parser(collector);
  parser.feed("HTTP/1.1 200 OK\r\nServer: x\r\n\r\npartial body");
  EXPECT_TRUE(collector.messages().empty());  // still open
  parser.feed(" more");
  parser.finish();  // connection closed
  ASSERT_EQ(collector.messages().size(), 1u);
  EXPECT_EQ(collector.messages()[0].body, "partial body more");
}

TEST(HttpParser, EmitsFineGrainedEvents) {
  struct Recorder : HttpEventHandler {
    std::vector<std::string> events;
    void on_request_line(std::string_view m, std::string_view t,
                         std::string_view) override {
      events.push_back("request:" + std::string(m) + ":" + std::string(t));
    }
    void on_status_line(int s, std::string_view, std::string_view) override {
      events.push_back("status:" + std::to_string(s));
    }
    void on_header(std::string_view n, std::string_view v) override {
      events.push_back("header:" + std::string(n) + "=" + std::string(v));
    }
    void on_headers_complete() override { events.push_back("headers-done"); }
    void on_body(std::string_view b) override {
      events.push_back("body:" + std::string(b));
    }
    void on_message_complete() override { events.push_back("done"); }
    void on_parse_error(std::string_view r) override {
      events.push_back("error:" + std::string(r));
    }
  } recorder;
  HttpParser parser(recorder);
  parser.feed("NOTIFY * HTTP/1.1\r\nNT: upnp:rootdevice\r\n\r\n");
  ASSERT_EQ(recorder.events.size(), 4u);
  EXPECT_EQ(recorder.events[0], "request:NOTIFY:*");
  EXPECT_EQ(recorder.events[1], "header:NT=upnp:rootdevice");
  EXPECT_EQ(recorder.events[2], "headers-done");
  EXPECT_EQ(recorder.events[3], "done");
}

TEST(HttpParser, RejectsMalformedStartLine) {
  MessageCollector collector;
  HttpParser parser(collector);
  parser.feed("NONSENSE\r\n\r\n");
  EXPECT_TRUE(parser.failed());
  EXPECT_FALSE(collector.last_error().empty());
}

TEST(HttpParser, RejectsChunkedEncoding) {
  MessageCollector collector;
  HttpParser parser(collector);
  parser.feed("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n");
  EXPECT_TRUE(parser.failed());
}

TEST(HttpParser, RejectsNegativeContentLength) {
  MessageCollector collector;
  HttpParser parser(collector);
  parser.feed("HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n");
  EXPECT_TRUE(parser.failed());
}

TEST(HttpParser, ToleratesBareLfLineEndings) {
  MessageCollector collector;
  HttpParser parser(collector);
  parser.feed("GET / HTTP/1.1\nHost: x\n\n");
  ASSERT_EQ(collector.messages().size(), 1u);
}

TEST(HttpParser, ResetRecoversFromFailure) {
  MessageCollector collector;
  HttpParser parser(collector);
  parser.feed("garbage line\r\n");
  EXPECT_TRUE(parser.failed());
  parser.reset();
  parser.feed("GET / HTTP/1.1\r\n\r\n");
  EXPECT_FALSE(parser.failed());
  EXPECT_EQ(collector.messages().size(), 1u);
}

TEST(HttpMessage, ParseRejectsTrailingGarbage) {
  EXPECT_FALSE(parse_one("not http at all").has_value());
}

}  // namespace
}  // namespace indiss::http
