#include "serve/http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "common/strings.h"

namespace xsdf::serve {

namespace {

/// Caps on the request head (request line + headers): a client that
/// streams an unbounded header section is cut off, not buffered.
constexpr size_t kMaxHeadBytes = 64 * 1024;
constexpr size_t kMaxHeaderCount = 100;

std::string ToLower(std::string s) {
  for (char& c : s) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return s;
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

Status WriteAll(int fd, const char* data, size_t size) {
  size_t done = 0;
  while (done < size) {
    ssize_t n = ::send(fd, data + done, size - done, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("send: ") + std::strerror(errno));
    }
    done += static_cast<size_t>(n);
  }
  return Status::Ok();
}

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::string HttpRequest::QueryParam(const std::string& key) const {
  std::string_view rest = query;
  while (!rest.empty()) {
    size_t amp = rest.find('&');
    std::string_view pair = rest.substr(0, amp);
    rest = amp == std::string_view::npos ? std::string_view()
                                         : rest.substr(amp + 1);
    size_t eq = pair.find('=');
    if (pair.substr(0, eq) != key) continue;
    std::string_view raw =
        eq == std::string_view::npos ? std::string_view() : pair.substr(eq + 1);
    std::string value;
    value.reserve(raw.size());
    for (size_t i = 0; i < raw.size(); ++i) {
      if (raw[i] == '+') {
        value.push_back(' ');
      } else if (raw[i] == '%' && i + 2 < raw.size() &&
                 HexValue(raw[i + 1]) >= 0 && HexValue(raw[i + 2]) >= 0) {
        value.push_back(static_cast<char>(HexValue(raw[i + 1]) * 16 +
                                          HexValue(raw[i + 2])));
        i += 2;
      } else {
        value.push_back(raw[i]);
      }
    }
    return value;
  }
  return std::string();
}

const char* HttpReason(int status) {
  switch (status) {
    case 200: return "OK";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default: return "Unknown";
  }
}

Status ReadHttpRequest(int fd, HttpRequest* out, size_t max_body_bytes) {
  std::string head;
  size_t head_end = std::string::npos;
  char buffer[4096];
  while (head_end == std::string::npos) {
    if (head.size() > kMaxHeadBytes) {
      return Status::Corruption("request head too large");
    }
    ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("recv: ") + std::strerror(errno));
    }
    if (n == 0) {
      if (head.empty()) return Status::NotFound("connection closed");
      return Status::Corruption("connection closed mid-request");
    }
    size_t scan_from = head.size() < 3 ? 0 : head.size() - 3;
    head.append(buffer, static_cast<size_t>(n));
    head_end = head.find("\r\n\r\n", scan_from);
  }
  std::string body = head.substr(head_end + 4);
  head.resize(head_end);

  // Request line.
  size_t line_end = head.find("\r\n");
  std::string_view request_line =
      std::string_view(head).substr(0, line_end);
  size_t sp1 = request_line.find(' ');
  size_t sp2 = sp1 == std::string_view::npos
                   ? std::string_view::npos
                   : request_line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos) {
    return Status::Corruption("malformed request line");
  }
  out->method = std::string(request_line.substr(0, sp1));
  out->target = std::string(request_line.substr(sp1 + 1, sp2 - sp1 - 1));
  std::string_view version = request_line.substr(sp2 + 1);
  if (version != "HTTP/1.1" && version != "HTTP/1.0") {
    return Status::Corruption("unsupported HTTP version");
  }
  if (out->method.empty() || out->target.empty() ||
      out->target[0] != '/') {
    return Status::Corruption("malformed request target");
  }
  size_t question = out->target.find('?');
  out->path = out->target.substr(0, question);
  out->query = question == std::string::npos
                   ? std::string()
                   : out->target.substr(question + 1);
  out->keep_alive = version == "HTTP/1.1";

  // Headers.
  out->headers.clear();
  size_t pos = line_end == std::string::npos ? head.size() : line_end + 2;
  while (pos < head.size()) {
    size_t end = head.find("\r\n", pos);
    if (end == std::string::npos) end = head.size();
    std::string_view line = std::string_view(head).substr(pos, end - pos);
    pos = end + 2;
    size_t colon = line.find(':');
    if (colon == std::string_view::npos) {
      return Status::Corruption("malformed header line");
    }
    if (out->headers.size() >= kMaxHeaderCount) {
      return Status::Corruption("too many headers");
    }
    out->headers[ToLower(std::string(line.substr(0, colon)))] =
        std::string(Trim(line.substr(colon + 1)));
  }
  std::string connection = ToLower(out->Header("connection"));
  if (connection == "close") out->keep_alive = false;
  if (connection == "keep-alive") out->keep_alive = true;

  // Body: Content-Length only (chunked requests are refused rather
  // than half-implemented).
  if (out->headers.count("transfer-encoding") != 0) {
    return Status::Corruption("transfer-encoding is not supported");
  }
  size_t content_length = 0;
  auto it = out->headers.find("content-length");
  if (it != out->headers.end()) {
    errno = 0;
    char* end = nullptr;
    unsigned long long parsed = std::strtoull(it->second.c_str(), &end, 10);
    if (errno != 0 || end == it->second.c_str() || *end != '\0') {
      return Status::Corruption("malformed content-length");
    }
    content_length = static_cast<size_t>(parsed);
  }
  if (content_length > max_body_bytes) {
    return Status::OutOfRange("request body too large");
  }
  if (body.size() > content_length) {
    // Pipelined extra bytes would desynchronize the keep-alive loop.
    return Status::Corruption("unexpected bytes after request body");
  }
  while (body.size() < content_length) {
    size_t want = std::min(sizeof(buffer), content_length - body.size());
    ssize_t n = ::recv(fd, buffer, want, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("recv: ") + std::strerror(errno));
    }
    if (n == 0) return Status::Corruption("connection closed mid-body");
    body.append(buffer, static_cast<size_t>(n));
  }
  out->body = std::move(body);
  return Status::Ok();
}

Status WriteHttpResponse(int fd, const HttpResponse& response,
                         bool keep_alive) {
  std::string head = StrFormat("HTTP/1.1 %d %s\r\n", response.status,
                               HttpReason(response.status));
  head += StrFormat("Content-Type: %s\r\n", response.content_type.c_str());
  head += StrFormat("Content-Length: %zu\r\n", response.body.size());
  head += keep_alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
  for (const auto& [name, value] : response.headers) {
    head += StrFormat("%s: %s\r\n", name.c_str(), value.c_str());
  }
  head += "\r\n";
  XSDF_RETURN_IF_ERROR(WriteAll(fd, head.data(), head.size()));
  return WriteAll(fd, response.body.data(), response.body.size());
}

Result<ClientResponse> HttpCall(
    const std::string& host, int port, const std::string& method,
    const std::string& target,
    const std::vector<std::pair<std::string, std::string>>& headers,
    const std::string& body, int timeout_ms) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  struct timeval timeout{};
  timeout.tv_sec = timeout_ms / 1000;
  timeout.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));

  struct sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("not an IPv4 address: " + host);
  }
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    int err = errno;
    ::close(fd);
    return Status::IoError(StrFormat("connect %s:%d: %s", host.c_str(),
                                     port, std::strerror(err)));
  }

  std::string request =
      StrFormat("%s %s HTTP/1.1\r\nHost: %s:%d\r\nContent-Length: %zu\r\n"
                "Connection: close\r\n",
                method.c_str(), target.c_str(), host.c_str(), port,
                body.size());
  for (const auto& [name, value] : headers) {
    request += StrFormat("%s: %s\r\n", name.c_str(), value.c_str());
  }
  request += "\r\n";
  request += body;
  Status sent = WriteAll(fd, request.data(), request.size());
  if (!sent.ok()) {
    ::close(fd);
    return sent;
  }

  // Read to EOF (we sent Connection: close), then parse.
  std::string raw;
  char buffer[4096];
  for (;;) {
    ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      int err = errno;
      ::close(fd);
      return Status::IoError(std::string("recv: ") + std::strerror(err));
    }
    if (n == 0) break;
    raw.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);

  size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos) {
    return Status::Corruption("incomplete HTTP response");
  }
  ClientResponse response;
  std::string_view head = std::string_view(raw).substr(0, head_end);
  size_t line_end = head.find("\r\n");
  std::string_view status_line = head.substr(0, line_end);
  if (status_line.size() < 12 || status_line.substr(0, 5) != "HTTP/") {
    return Status::Corruption("malformed status line");
  }
  response.status = std::atoi(std::string(status_line.substr(9, 3)).c_str());
  size_t pos = line_end == std::string_view::npos ? head.size() : line_end + 2;
  while (pos < head.size()) {
    size_t end = head.find("\r\n", pos);
    if (end == std::string_view::npos) end = head.size();
    std::string_view line = head.substr(pos, end - pos);
    pos = end + 2;
    size_t colon = line.find(':');
    if (colon == std::string_view::npos) continue;
    response.headers[ToLower(std::string(line.substr(0, colon)))] =
        std::string(Trim(line.substr(colon + 1)));
  }
  response.body = raw.substr(head_end + 4);
  auto it = response.headers.find("content-length");
  if (it != response.headers.end()) {
    size_t expected = static_cast<size_t>(std::atoll(it->second.c_str()));
    if (response.body.size() != expected) {
      return Status::Corruption("response body length mismatch");
    }
  }
  return response;
}

}  // namespace xsdf::serve
