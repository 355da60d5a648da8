#include "upnp/http_client.hpp"

#include "http/parser.hpp"
#include "net/address.hpp"

namespace indiss::upnp {

namespace {

/// Per-request state. The in-flight request owns itself (`self`) until
/// finish(); the socket's handlers hold only weak references, so the socket
/// never keeps the request alive and the request never outlives its result.
struct GetContext {
  explicit GetContext(HttpResponseHandler h) : handler(std::move(h)) {}

  HttpResponseHandler handler;
  http::MessageCollector collector;
  std::unique_ptr<http::HttpParser> parser;
  std::shared_ptr<transport::TcpSocket> socket;
  std::shared_ptr<GetContext> self;
  bool done = false;

  /// Every caller holds its own reference for the rest of its frame, so
  /// dropping `self` here never destroys the context (or a running socket
  /// handler) under the caller.
  void finish(std::optional<http::HttpMessage> result) {
    if (done) return;
    done = true;
    if (socket) socket->close();
    if (handler) handler(std::move(result));
    self.reset();
  }
};

}  // namespace

void http_request(transport::Transport& host, const Uri& uri,
                  http::HttpMessage request,
                  HttpResponseHandler handler) {
  auto context = std::make_shared<GetContext>(std::move(handler));
  context->parser = std::make_unique<http::HttpParser>(context->collector);

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
    context->parser->feed(data);
    if (context->parser->failed()) {
      context->finish(std::nullopt);
      return;
    }
    if (!context->collector.messages().empty()) {
      context->finish(std::move(context->collector.messages().front()));
    }
  });
  socket->set_close_handler([weak]() {
    auto context = weak.lock();
    if (context == nullptr) return;
    // Server closed: complete read-until-close responses.
    context->parser->finish();
    if (!context->collector.messages().empty()) {
      context->finish(std::move(context->collector.messages().front()));
    } else {
      context->finish(std::nullopt);
    }
  });

  if (!request.headers.contains("HOST")) {
    request.headers.set("HOST",
                        uri.host + ":" + std::to_string(uri.port));
  }
  socket->send(request.serialize_bytes());
}

void http_get(transport::Transport& host, const Uri& uri,
              HttpResponseHandler handler) {
  auto request = http::HttpMessage::request(
      "GET", uri.path.empty() ? "/" : uri.path);
  http_request(host, uri, std::move(request), std::move(handler));
}

}  // namespace indiss::upnp
