#include "upnp/http_server.hpp"

#include <vector>

#include "http/parser.hpp"

namespace indiss::upnp {

Bytes http_response(std::string_view status, std::string_view server,
                    std::string_view body) {
  std::string out = "HTTP/1.1 ";
  out += status;
  out += "\r\n";
  if (!body.empty()) out += "CONTENT-TYPE: text/xml\r\n";
  if (!server.empty()) {
    out += "SERVER: ";
    out += server;
    out += "\r\n";
  }
  out += "Content-Length: ";
  out += std::to_string(body.size());
  out += "\r\n\r\n";
  out += body;
  return to_bytes(out);
}

/// One accepted connection: its parser collects the target of every complete
/// request, and each is answered once the bytes that completed it are
/// parsed.
struct HttpServer::Connection : http::HttpEventHandler {
  explicit Connection(std::shared_ptr<transport::TcpSocket> s)
      : socket(std::move(s)), parser(*this) {}

  std::shared_ptr<transport::TcpSocket> socket;
  http::HttpParser parser;
  std::string target;                // of the message being parsed
  std::vector<std::string> pending;  // targets of complete messages

  void on_request_line(std::string_view, std::string_view request_target,
                       std::string_view) override {
    target.assign(request_target);
  }
  // A response sent to the server has no target: it is answered as one
  // for an unknown path.
  void on_status_line(int, std::string_view, std::string_view) override {
    target.clear();
  }
  void on_message_complete() override { pending.push_back(target); }
};

HttpServer::HttpServer(transport::Transport& host, std::uint16_t port,
                       transport::Duration handling_delay)
    : host_(host), handling_delay_(handling_delay) {
  listener_ = host_.listen_tcp(port);
  listener_->set_accept_handler(
      [this](std::shared_ptr<transport::TcpSocket> socket) {
        on_accept(std::move(socket));
      });
}

HttpServer::~HttpServer() {
  if (listener_) listener_->close();
}

std::uint16_t HttpServer::port() const { return listener_->port(); }

void HttpServer::route(const std::string& path, RouteHandler handler) {
  routes_[path] = std::move(handler);
}

void HttpServer::unroute(const std::string& path) { routes_.erase(path); }

void HttpServer::on_accept(std::shared_ptr<transport::TcpSocket> socket) {
  auto connection = std::make_shared<Connection>(std::move(socket));
  connection->socket->set_data_handler([this, connection](BytesView data) {
    connection->parser.feed(data);
    if (connection->parser.failed()) {
      connection->socket->close();
      return;
    }
    for (const std::string& target : connection->pending) {
      respond(connection, target);
    }
    connection->pending.clear();
  });
}

void HttpServer::respond(const std::shared_ptr<Connection>& connection,
                         const std::string& target) {
  auto it = routes_.find(target);
  Bytes response = it == routes_.end() ? http_response("404 Not Found", {}, {})
                                       : it->second();
  // Device-stack processing cost before the response hits the wire.
  host_.schedule(handling_delay_,
                 [connection, response = std::move(response)]() {
                   if (connection->socket->open()) {
                     connection->socket->send(response);
                   }
                 });
}

}  // namespace indiss::upnp
