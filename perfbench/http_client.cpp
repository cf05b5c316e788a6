#include "http_client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string_view>

namespace pb {

namespace {

/// Case-insensitive "Content-Length:" lookup inside a header block.
bool content_length(std::string_view headers, std::size_t& out) {
  constexpr std::string_view kName = "content-length:";
  constexpr std::size_t kMaxBody = std::size_t{1} << 30;
  for (std::size_t pos = 0; pos < headers.size();) {
    std::size_t eol = headers.find("\r\n", pos);
    if (eol == std::string_view::npos) eol = headers.size();
    const std::string_view line = headers.substr(pos, eol - pos);
    if (line.size() > kName.size()) {
      bool match = true;
      for (std::size_t i = 0; i < kName.size() && match; ++i) {
        const char c = line[i];
        match = (c >= 'A' && c <= 'Z' ? static_cast<char>(c + 32) : c) ==
                kName[i];
      }
      if (match) {
        std::size_t v = 0;
        std::size_t i = kName.size();
        while (i < line.size() && line[i] == ' ') ++i;
        if (i == line.size()) return false;
        for (; i < line.size() && line[i] >= '0' && line[i] <= '9'; ++i) {
          v = v * 10 + static_cast<std::size_t>(line[i] - '0');
          if (v > kMaxBody) return false;
        }
        out = v;
        return true;
      }
    }
    pos = eol + 2;
  }
  return false;
}

}  // namespace

bool HttpConnection::connect(std::string& error) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  timeval tv{};
  tv.tv_sec = timeout_ms_ / 1000;
  tv.tv_usec = (timeout_ms_ % 1000) * 1000;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  int rc;
  do {
    rc = ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    error = std::string("connect: ") + std::strerror(errno);
    close();
    return false;
  }
  return true;
}

void HttpConnection::close() noexcept {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buf_.clear();
}

int HttpConnection::get(const char* path, std::size_t& body_bytes,
                        std::string& error) {
  body_bytes = 0;
  if (fd_ < 0 && !connect(error)) return -1;
  const std::string req = std::string("GET ") + path +
                          " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
  for (std::size_t sent = 0; sent < req.size();) {
    const ssize_t n =
        ::send(fd_, req.data() + sent, req.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      error = std::string("send: ") + std::strerror(errno);
      close();
      return -1;
    }
    sent += static_cast<std::size_t>(n);
  }

  // Read until the header block is complete, then until the body is.
  char chunk[65536];
  std::size_t header_end = std::string::npos;
  std::size_t need = 0;
  for (;;) {
    if (header_end == std::string::npos) {
      header_end = buf_.find("\r\n\r\n");
      if (header_end != std::string::npos) {
        std::size_t len = 0;
        if (!content_length(std::string_view(buf_).substr(0, header_end),
                            len)) {
          error = "response without a valid Content-Length";
          close();
          return -1;
        }
        need = header_end + 4 + len;
      }
    }
    if (header_end != std::string::npos && buf_.size() >= need) break;
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      error = n == 0 ? std::string("connection closed by server")
                     : std::string("recv: ") + std::strerror(errno);
      close();
      return -1;
    }
    buf_.append(chunk, static_cast<std::size_t>(n));
  }

  // "HTTP/1.1 200 OK"
  int status = -1;
  if (buf_.size() > 12 && buf_.compare(0, 5, "HTTP/") == 0) {
    const std::size_t sp = buf_.find(' ');
    if (sp != std::string::npos && sp + 3 < buf_.size()) {
      status = (buf_[sp + 1] - '0') * 100 + (buf_[sp + 2] - '0') * 10 +
               (buf_[sp + 3] - '0');
    }
  }
  body_bytes = need - header_end - 4;
  buf_.erase(0, need);  // keep any pipelined remainder (none expected)
  if (status < 100 || status > 599) {
    error = "malformed status line";
    close();
    return -1;
  }
  return status;
}

}  // namespace pb
