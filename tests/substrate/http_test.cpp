// Unit tests for the event-based HTTP parser, the one HTTP reader.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "http/parser.hpp"

namespace indiss::http {
namespace {

/// One complete message as the parser's events described it.
struct Message {
  std::string method;  // empty for a response
  std::string target;
  int status = 0;  // 0 for a request
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
  std::size_t end = 0;  // HttpParser::consumed() at completion
};

/// Assembles whole messages from the parser's events.
struct Collector : HttpEventHandler {
  HttpParser* parser = nullptr;
  Message current;
  std::vector<Message> messages;
  std::string last_error;

  void on_request_line(std::string_view method, std::string_view target,
                       std::string_view) override {
    current = Message{};
    current.method = method;
    current.target = target;
  }
  void on_status_line(int status, std::string_view,
                      std::string_view) override {
    current = Message{};
    current.status = status;
  }
  void on_header(std::string_view name, std::string_view value) override {
    current.headers.emplace_back(name, value);
  }
  void on_body(std::string_view chunk) override { current.body += chunk; }
  void on_message_complete() override {
    if (parser != nullptr) current.end = parser->consumed();
    messages.push_back(std::move(current));
  }
  void on_parse_error(std::string_view reason) override {
    last_error = reason;
  }
};

/// Parses `text` as exactly one complete message; nullopt otherwise.
std::optional<Message> parse_one(std::string_view text) {
  Collector collector;
  HttpParser parser(collector);
  parser.feed(text);
  parser.finish();
  if (parser.failed() || collector.messages.size() != 1) return std::nullopt;
  return collector.messages.front();
}

TEST(HttpParser, ParsesRequest) {
  auto parsed =
      parse_one("GET /description.xml HTTP/1.1\r\nHOST: 10.0.0.2:4004\r\n\r\n");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->method, "GET");
  EXPECT_EQ(parsed->target, "/description.xml");
  ASSERT_EQ(parsed->headers.size(), 1u);
  EXPECT_EQ(parsed->headers[0].first, "HOST");
  EXPECT_EQ(parsed->headers[0].second, "10.0.0.2:4004");
}

TEST(HttpParser, ParsesResponseWithBody) {
  auto parsed = parse_one(
      "HTTP/1.1 200 OK\r\nCONTENT-TYPE: text/xml\r\nContent-Length: 22\r\n"
      "\r\n<root><device/></root>");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->method.empty());
  EXPECT_EQ(parsed->status, 200);
  EXPECT_EQ(parsed->body, "<root><device/></root>");
}

TEST(HttpParser, TrimsHeaderNamesAndValues) {
  auto parsed =
      parse_one("NOTIFY * HTTP/1.1\r\n  NT :  upnp:rootdevice \r\n\r\n");
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->headers.size(), 1u);
  EXPECT_EQ(parsed->headers[0].first, "NT");
  EXPECT_EQ(parsed->headers[0].second, "upnp:rootdevice");
}

TEST(HttpParser, IncrementalFeedingByteByByte) {
  Collector collector;
  HttpParser parser(collector);
  std::string text =
      "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello";
  for (char c : text) parser.feed(std::string_view(&c, 1));
  ASSERT_EQ(collector.messages.size(), 1u);
  EXPECT_EQ(collector.messages[0].body, "hello");
}

TEST(HttpParser, MultipleMessagesInOneStream) {
  Collector collector;
  HttpParser parser(collector);
  parser.feed(
      "GET /a HTTP/1.1\r\n\r\n"
      "GET /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nxy"
      "GET /c HTTP/1.1\r\n\r\n");
  ASSERT_EQ(collector.messages.size(), 3u);
  EXPECT_EQ(collector.messages[0].target, "/a");
  EXPECT_EQ(collector.messages[1].body, "xy");
  EXPECT_EQ(collector.messages[2].target, "/c");
}

// consumed() at completion is where each message ends in the stream,
// however the bytes were split: a reader can cut one message out of what it
// fed.
TEST(HttpParser, ConsumedMarksTheEndOfEachMessage) {
  const std::string first = "\r\nGET /a HTTP/1.1\nHost: x\n\n";
  const std::string second = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nxy";
  const std::string text = first + second + "GET /c";
  for (std::size_t split = 0; split <= text.size(); ++split) {
    Collector collector;
    HttpParser parser(collector);
    collector.parser = &parser;
    parser.feed(std::string_view(text).substr(0, split));
    parser.feed(std::string_view(text).substr(split));
    ASSERT_EQ(collector.messages.size(), 2u) << "split " << split;
    EXPECT_EQ(collector.messages[0].end, first.size()) << "split " << split;
    EXPECT_EQ(collector.messages[1].end, first.size() + second.size())
        << "split " << split;
    EXPECT_EQ(parser.consumed(), first.size() + second.size());
  }
}

TEST(HttpParser, ResponseWithoutContentLengthReadsUntilClose) {
  Collector collector;
  HttpParser parser(collector);
  collector.parser = &parser;
  parser.feed("HTTP/1.1 200 OK\r\nServer: x\r\n\r\npartial body");
  EXPECT_TRUE(collector.messages.empty());  // still open
  parser.feed(" more");
  parser.finish();  // connection closed
  ASSERT_EQ(collector.messages.size(), 1u);
  EXPECT_EQ(collector.messages[0].body, "partial body more");
  EXPECT_EQ(collector.messages[0].end, parser.consumed());
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
  Collector collector;
  HttpParser parser(collector);
  parser.feed("NONSENSE\r\n\r\n");
  EXPECT_TRUE(parser.failed());
  EXPECT_FALSE(collector.last_error.empty());
}

TEST(HttpParser, RejectsChunkedEncoding) {
  Collector collector;
  HttpParser parser(collector);
  parser.feed("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n");
  EXPECT_TRUE(parser.failed());
}

TEST(HttpParser, RejectsNegativeContentLength) {
  Collector collector;
  HttpParser parser(collector);
  parser.feed("HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n");
  EXPECT_TRUE(parser.failed());
}

TEST(HttpParser, ToleratesBareLfLineEndings) {
  Collector collector;
  HttpParser parser(collector);
  parser.feed("GET / HTTP/1.1\nHost: x\n\n");
  ASSERT_EQ(collector.messages.size(), 1u);
}

TEST(HttpParser, ResetRecoversFromFailure) {
  Collector collector;
  HttpParser parser(collector);
  parser.feed("garbage line\r\n");
  EXPECT_TRUE(parser.failed());
  parser.reset();
  EXPECT_EQ(parser.consumed(), 0u);
  parser.feed("GET / HTTP/1.1\r\n\r\n");
  EXPECT_FALSE(parser.failed());
  EXPECT_EQ(collector.messages.size(), 1u);
}

TEST(HttpParser, RejectsNonHttp) {
  EXPECT_FALSE(parse_one("not http at all").has_value());
}

}  // namespace
}  // namespace indiss::http
