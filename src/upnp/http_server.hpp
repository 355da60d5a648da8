// Minimal HTTP server over a transport's TCP: a route table mapping request
// paths to handlers, with a per-request handling delay that models the
// 2005-era device stack cost of serving description documents (part of the
// Fig 8/9 calibration). Requests are framed by http::HttpParser; responses
// are written by http_response.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "common/bytes.hpp"
#include "transport/transport.hpp"

namespace indiss::upnp {

/// The one HTTP response writer: the status line (`status` is e.g.
/// "200 OK"), CONTENT-TYPE: text/xml when there is a body (every body served
/// here is XML: descriptions and SOAP envelopes), SERVER when given,
/// Content-Length and the body.
[[nodiscard]] Bytes http_response(std::string_view status,
                                  std::string_view server,
                                  std::string_view body);

class HttpServer {
 public:
  /// Returns the whole response, written by http_response.
  using RouteHandler = std::function<Bytes()>;

  /// Starts listening on `port` (0 = ephemeral).
  HttpServer(transport::Transport& host, std::uint16_t port,
             transport::Duration handling_delay = transport::Duration::zero());
  ~HttpServer();

  /// Registers a handler for an exact path. Any method routes here.
  void route(const std::string& path, RouteHandler handler);
  /// Removes the handler for `path`; later requests for it get a 404.
  void unroute(const std::string& path);
  [[nodiscard]] std::size_t route_count() const { return routes_.size(); }

  [[nodiscard]] std::uint16_t port() const;

 private:
  struct Connection;
  void on_accept(std::shared_ptr<transport::TcpSocket> socket);
  void respond(const std::shared_ptr<Connection>& connection,
               const std::string& target);

  transport::Transport& host_;
  std::shared_ptr<transport::TcpListener> listener_;
  std::map<std::string, RouteHandler> routes_;
  transport::Duration handling_delay_;
};

}  // namespace indiss::upnp
