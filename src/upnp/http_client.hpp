// Asynchronous HTTP GET over a transport's TCP.
//
// Used by the UPnP control point to fetch device descriptions, and reused by
// INDISS's UPnP unit when it chases LOCATION URLs on behalf of a foreign
// client — an instance of the component reuse across units the paper calls
// out (HTTP parsers developed for one SDP reused by another). The request is
// written directly; the one response is framed by http::HttpParser and handed
// over as the bytes received, for upnp::SsdpReader to read (its
// kHttpResponse kind).
#pragma once

#include <functional>
#include <optional>

#include "common/bytes.hpp"
#include "common/uri.hpp"
#include "transport/transport.hpp"

namespace indiss::upnp {

/// Fires exactly once: with the bytes of the one response, exactly as
/// received, or nullopt on connection refusal / connection loss / malformed
/// response.
using HttpResponseHandler = std::function<void(std::optional<Bytes>)>;

/// Issues `GET <uri.path>` to uri.host:uri.port from `host`. The connection
/// is closed after the response.
void http_get(transport::Transport& host, const Uri& uri,
              HttpResponseHandler handler);

}  // namespace indiss::upnp
