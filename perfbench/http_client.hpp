// Minimal blocking HTTP/1.1 GET client for the scrape generator: one
// keep-alive connection per client thread, Content-Length bodies only
// (all the serve plane's non-streaming routes send one).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace pb {

class HttpConnection {
 public:
  HttpConnection(std::uint16_t port, long timeout_ms)
      : port_(port), timeout_ms_(timeout_ms) {}
  ~HttpConnection() { close(); }
  HttpConnection(const HttpConnection&) = delete;
  HttpConnection& operator=(const HttpConnection&) = delete;

  /// Sends GET `path` (connecting first if needed) and reads the whole
  /// response. Returns the HTTP status, or -1 on a transport error (the
  /// connection is then closed and `error` says why). `body_bytes` is the
  /// response body length.
  int get(const char* path, std::size_t& body_bytes, std::string& error);
  void close() noexcept;

 private:
  bool connect(std::string& error);

  std::uint16_t port_;
  long timeout_ms_;
  int fd_ = -1;
  std::string buf_;
};

}  // namespace pb
