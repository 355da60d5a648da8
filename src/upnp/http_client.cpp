#include "upnp/http_client.hpp"

#include <memory>
#include <string>

#include "http/parser.hpp"
#include "net/address.hpp"

namespace indiss::upnp {

namespace {

/// Per-request state. The in-flight request owns itself (`self`) until
/// finish(); the socket's handlers hold only weak references, so the socket
/// never keeps the request alive and the request never outlives its result.
struct GetContext : http::HttpEventHandler {
  explicit GetContext(HttpResponseHandler h)
      : handler(std::move(h)), parser(*this) {}

  HttpResponseHandler handler;
  http::HttpParser parser;
  std::shared_ptr<transport::TcpSocket> socket;
  std::shared_ptr<GetContext> self;
  /// Every byte read so far; the response is its first response_size.
  Bytes received;
  std::size_t response_size = 0;  // 0 until the first message completes
  bool done = false;

  void on_message_complete() override {
    if (response_size == 0) response_size = parser.consumed();
  }

  /// Every caller holds its own reference for the rest of its frame, so
  /// dropping `self` here never destroys the context (or a running socket
  /// handler) under the caller.
  void finish(std::optional<Bytes> result) {
    if (done) return;
    done = true;
    if (socket) socket->close();
    if (handler) handler(std::move(result));
    self.reset();
  }

  /// Hands over the first complete message, or nullopt when none completed.
  void finish_with_response() {
    if (response_size == 0) {
      finish(std::nullopt);
      return;
    }
    received.resize(response_size);
    finish(std::move(received));
  }
};

}  // namespace

void http_get(transport::Transport& host, const Uri& uri,
              HttpResponseHandler handler) {
  auto context = std::make_shared<GetContext>(std::move(handler));

  auto addr = net::IpAddress::parse(uri.host);
  if (!addr.has_value()) {
    context->finish(std::nullopt);
    return;
  }
  auto socket = host.connect_tcp(net::Endpoint{*addr, uri.port});
  if (socket == nullptr) {
    context->finish(std::nullopt);  // connection refused
    return;
  }
  context->socket = socket;
  context->self = context;

  std::weak_ptr<GetContext> weak = context;
  socket->set_data_handler([weak](BytesView data) {
    auto context = weak.lock();
    if (context == nullptr) return;
    context->received.insert(context->received.end(), data.begin(),
                             data.end());
    context->parser.feed(data);
    if (context->parser.failed()) {
      context->finish(std::nullopt);
      return;
    }
    if (context->response_size != 0) context->finish_with_response();
  });
  socket->set_close_handler([weak]() {
    auto context = weak.lock();
    if (context == nullptr) return;
    // Server closed: complete read-until-close responses.
    context->parser.finish();
    context->finish_with_response();
  });

  std::string request = "GET ";
  request += uri.path.empty() ? "/" : uri.path;
  request += " HTTP/1.1\r\nHOST: ";
  request += uri.host;
  request += ':';
  request += std::to_string(uri.port);
  request += "\r\n\r\n";
  socket->send(to_bytes(request));
}

}  // namespace indiss::upnp
