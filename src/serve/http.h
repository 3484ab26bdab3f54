#ifndef XSDF_SERVE_HTTP_H_
#define XSDF_SERVE_HTTP_H_

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"

namespace xsdf::serve {

/// A parsed HTTP/1.1 request. Header names are lowercased at parse
/// time; `path` and `query` are the request target split at '?'.
struct HttpRequest {
  std::string method;
  std::string target;
  std::string path;
  std::string query;
  std::map<std::string, std::string> headers;
  std::string body;
  bool keep_alive = true;

  /// Header value by lowercase name, or `fallback` when absent.
  /// Returns a copy: a reference could alias a caller's temporary
  /// fallback and dangle at the end of the full expression.
  std::string Header(const std::string& name,
                     std::string fallback = {}) const {
    auto it = headers.find(name);
    return it == headers.end() ? std::move(fallback) : it->second;
  }

  /// Value of `key` in the query string ("" when absent). Supports the
  /// %XX escapes the serve endpoints need (paths in swap requests).
  std::string QueryParam(const std::string& key) const;
};

struct HttpResponse {
  int status = 200;
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
  std::string content_type = "text/plain; charset=utf-8";
};

/// Standard reason phrase for the status codes the server emits.
const char* HttpReason(int status);

/// Reads one request from `fd` (a blocking socket with I/O timeouts
/// already set). Returns:
///  - Ok: `*out` holds a complete request;
///  - NotFound: the peer closed the connection cleanly before sending
///    anything (the keep-alive loop's normal exit — not an error);
///  - Corruption: malformed request (the caller answers 400);
///  - OutOfRange: body larger than `max_body_bytes` (413);
///  - IoError: socket error or timeout mid-request.
/// Bodies require Content-Length; Transfer-Encoding is rejected.
Status ReadHttpRequest(int fd, HttpRequest* out, size_t max_body_bytes);

/// Serializes and writes `response` (adding Content-Length, Connection
/// and Content-Type headers).
Status WriteHttpResponse(int fd, const HttpResponse& response,
                         bool keep_alive);

/// Minimal blocking client: one request/response against
/// host:port. Used by `xsdf client`, the serve tests, and the CI smoke
/// job — speaking to the server through the same parser it uses.
struct ClientResponse {
  int status = 0;
  std::map<std::string, std::string> headers;  ///< lowercase names
  std::string body;
};
Result<ClientResponse> HttpCall(
    const std::string& host, int port, const std::string& method,
    const std::string& target,
    const std::vector<std::pair<std::string, std::string>>& headers,
    const std::string& body, int timeout_ms);

}  // namespace xsdf::serve

#endif  // XSDF_SERVE_HTTP_H_
