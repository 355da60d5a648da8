// Minimal HTTP server over the simulated TCP layer: a route table mapping
// request paths to handlers, with a configurable per-request handling delay
// that models the 2005-era device stack cost of serving description
// documents (part of the Fig 8/9 calibration).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "http/message.hpp"
#include "transport/transport.hpp"

namespace indiss::upnp {

class HttpServer {
 public:
  using RouteHandler =
      std::function<http::HttpMessage(const http::HttpMessage&)>;

  /// Starts listening on `port` (0 = ephemeral).
  HttpServer(transport::Transport& host, std::uint16_t port,
             transport::Duration handling_delay = transport::Duration::zero());
  ~HttpServer();

  /// Registers a handler for an exact path. GET/POST both route here.
  void route(const std::string& path, RouteHandler handler);
  /// Removes the handler for `path`; later requests for it get a 404.
  void unroute(const std::string& path);
  [[nodiscard]] std::size_t route_count() const { return routes_.size(); }

  [[nodiscard]] std::uint16_t port() const;
  [[nodiscard]] std::uint64_t requests_served() const {
    return requests_served_;
  }
  void set_handling_delay(transport::Duration delay) {
    handling_delay_ = delay;
  }

 private:
  struct Connection;
  void on_accept(std::shared_ptr<transport::TcpSocket> socket);
  void respond(const std::shared_ptr<Connection>& connection,
               const http::HttpMessage& request);

  transport::Transport& host_;
  std::shared_ptr<transport::TcpListener> listener_;
  std::map<std::string, RouteHandler> routes_;
  transport::Duration handling_delay_;
  std::uint64_t requests_served_ = 0;
};

}  // namespace indiss::upnp
