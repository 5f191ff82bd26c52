#include "serve/transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace rcr::serve {

// --- FrameDecoder -----------------------------------------------------------

void FrameDecoder::feed(std::span<const std::uint8_t> bytes) {
  // Reclaim handed-out bytes before growing (amortized O(1) per byte).
  if (consumed_ > 0 && consumed_ == buffer_.size()) {
    buffer_.clear();
    consumed_ = 0;
  } else if (consumed_ > 4096 && consumed_ > buffer_.size() / 2) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
  if (buffer_.size() - consumed_ >= sizeof(std::uint32_t)) {
    std::uint32_t len;
    std::memcpy(&len, buffer_.data() + consumed_, sizeof len);
    if (len > kMaxFrameBytes)
      throw InvalidInputError("serve: frame length " + std::to_string(len) +
                              " exceeds the " +
                              std::to_string(kMaxFrameBytes) + "-byte cap");
  }
}

bool FrameDecoder::has_frame() const {
  const std::size_t avail = buffer_.size() - consumed_;
  if (avail < sizeof(std::uint32_t)) return false;
  std::uint32_t len;
  std::memcpy(&len, buffer_.data() + consumed_, sizeof len);
  return avail >= sizeof len + len;
}

std::vector<std::uint8_t> FrameDecoder::take() {
  RCR_CHECK_MSG(has_frame(), "serve: no complete frame buffered");
  std::uint32_t len;
  std::memcpy(&len, buffer_.data() + consumed_, sizeof len);
  const auto* begin = buffer_.data() + consumed_ + sizeof len;
  consumed_ += sizeof len + len;
  return std::vector<std::uint8_t>(begin, begin + len);
}

// --- LocalTransport ---------------------------------------------------------

std::vector<std::uint8_t> LocalTransport::roundtrip_frame(
    std::span<const std::uint8_t> frame) {
  FrameDecoder decoder;
  decoder.feed(frame);
  RCR_CHECK_MSG(decoder.has_frame(), "serve: incomplete request frame");
  const auto payload = decoder.take();
  const auto response_payload = server_.handle_payload(payload);
  std::vector<std::uint8_t> out;
  append_frame(out, response_payload);
  return out;
}

Response LocalTransport::query(std::uint64_t epoch, const QuerySpec& spec) {
  std::vector<std::uint8_t> frame;
  append_frame(frame, encode_request({epoch, spec}));
  const auto reply = roundtrip_frame(frame);
  FrameDecoder decoder;
  decoder.feed(reply);
  RCR_CHECK_MSG(decoder.has_frame(), "serve: incomplete response frame");
  return decode_response(decoder.take());
}

// --- TcpServer --------------------------------------------------------------

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw Error("serve: " + what + ": " + std::strerror(errno));
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
    throw_errno("fcntl(O_NONBLOCK)");
}

// Writes the whole buffer, polling for writability on EAGAIN (the socket
// is nonblocking). Returns false if the peer went away.
bool write_all(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      struct pollfd pfd{fd, POLLOUT, 0};
      if (::poll(&pfd, 1, -1) < 0 && errno != EINTR) return false;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

}  // namespace

struct TcpServer::Connection {
  int fd = -1;
  FrameDecoder decoder;
};

struct TcpServer::Worker {
  int epoll_fd = -1;
  int wake_fd = -1;
  std::thread thread;
  std::mutex mutex;                 // guards handoff
  std::vector<int> handoff;         // fds assigned by the acceptor
  std::unordered_map<int, Connection> connections;
};

TcpServer::TcpServer(Server& server, std::uint16_t port, std::size_t workers)
    : server_(server),
      port_(port),
      worker_count_(workers > 0 ? workers
                                : std::max(1u, std::thread::hardware_concurrency())) {}

TcpServer::~TcpServer() { stop(); }

void TcpServer::start() {
  RCR_CHECK_MSG(!running_, "serve: TcpServer already started");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) throw_errno("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port_);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0)
    throw_errno("bind");
  if (::listen(listen_fd_, SOMAXCONN) < 0) throw_errno("listen");

  socklen_t addr_len = sizeof addr;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) < 0)
    throw_errno("getsockname");
  port_ = ntohs(addr.sin_port);
  set_nonblocking(listen_fd_);

  accept_wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (accept_wake_fd_ < 0) throw_errno("eventfd");

  workers_.clear();
  for (std::size_t i = 0; i < worker_count_; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (worker->epoll_fd < 0) throw_errno("epoll_create1");
    worker->wake_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (worker->wake_fd < 0) throw_errno("eventfd");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = worker->wake_fd;
    if (::epoll_ctl(worker->epoll_fd, EPOLL_CTL_ADD, worker->wake_fd, &ev) < 0)
      throw_errno("epoll_ctl(wake)");
    workers_.push_back(std::move(worker));
  }

  running_ = true;
  for (auto& worker : workers_)
    worker->thread = std::thread([this, w = worker.get()] { worker_loop(*w); });
  acceptor_ = std::thread([this] { accept_loop(); });
  obs::registry().gauge("serve.tcp.workers")
      .set(static_cast<std::int64_t>(worker_count_));
}

void TcpServer::stop() {
  if (!running_) return;
  running_ = false;

  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t r = ::write(accept_wake_fd_, &one, sizeof one);
  for (auto& worker : workers_)
    r = ::write(worker->wake_fd, &one, sizeof one);

  if (acceptor_.joinable()) acceptor_.join();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
    for (auto& [fd, conn] : worker->connections) ::close(fd);
    for (int fd : worker->handoff) ::close(fd);
    ::close(worker->epoll_fd);
    ::close(worker->wake_fd);
  }
  workers_.clear();
  ::close(listen_fd_);
  ::close(accept_wake_fd_);
  listen_fd_ = accept_wake_fd_ = -1;
}

void TcpServer::accept_loop() {
  const int epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd < 0) return;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = accept_wake_fd_;
  ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, accept_wake_fd_, &ev);

  obs::Counter& accepted = obs::registry().counter("serve.tcp.accepted");
  std::size_t next_worker = 0;
  while (running_) {
    epoll_event events[16];
    const int n = ::epoll_wait(epoll_fd, events, 16, -1);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) break;
    for (int i = 0; i < n && running_; ++i) {
      if (events[i].data.fd != listen_fd_) continue;  // wake eventfd
      for (;;) {
        const int conn_fd = ::accept4(listen_fd_, nullptr, nullptr,
                                      SOCK_CLOEXEC | SOCK_NONBLOCK);
        if (conn_fd < 0) break;  // EAGAIN drained (or transient error)
        const int one = 1;
        ::setsockopt(conn_fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        accepted.add();
        // Round-robin handoff; the eventfd write makes the worker pick the
        // connection up on its next epoll_wait return.
        Worker& worker = *workers_[next_worker];
        next_worker = (next_worker + 1) % workers_.size();
        {
          std::lock_guard<std::mutex> lock(worker.mutex);
          worker.handoff.push_back(conn_fd);
        }
        const std::uint64_t tick = 1;
        [[maybe_unused]] ssize_t r =
            ::write(worker.wake_fd, &tick, sizeof tick);
      }
    }
  }
  ::close(epoll_fd);
}

void TcpServer::worker_loop(Worker& worker) {
  while (running_) {
    epoll_event events[32];
    const int n = ::epoll_wait(worker.epoll_fd, events, 32, -1);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) break;

    // Drain the wake eventfd before adopting. A connection queued after the
    // drain rearms it for the next epoll_wait; one queued between an adopt
    // and a later drain would lose its wake-up and wait forever.
    for (int i = 0; i < n; ++i) {
      if (events[i].data.fd != worker.wake_fd) continue;
      std::uint64_t drain;
      while (::read(worker.wake_fd, &drain, sizeof drain) > 0) {
      }
    }

    // Adopt connections the acceptor handed off.
    {
      std::lock_guard<std::mutex> lock(worker.mutex);
      for (int fd : worker.handoff) {
        epoll_event ev{};
        ev.events = EPOLLIN | EPOLLRDHUP;
        ev.data.fd = fd;
        if (::epoll_ctl(worker.epoll_fd, EPOLL_CTL_ADD, fd, &ev) == 0) {
          worker.connections.emplace(fd, Connection{fd, {}});
        } else {
          ::close(fd);
        }
      }
      worker.handoff.clear();
    }

    for (int i = 0; i < n && running_; ++i) {
      const int fd = events[i].data.fd;
      if (fd != worker.wake_fd) serve_connection(worker, fd);
    }
  }
}

void TcpServer::serve_connection(Worker& worker, int fd) {
  const auto it = worker.connections.find(fd);
  if (it == worker.connections.end()) return;
  Connection& conn = it->second;

  bool closed = false;
  std::uint8_t chunk[16384];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n > 0) {
      try {
        conn.decoder.feed(
            std::span<const std::uint8_t>(chunk, static_cast<std::size_t>(n)));
        while (conn.decoder.has_frame()) {
          const auto payload = conn.decoder.take();
          const auto reply_payload = server_.handle_payload(payload);
          std::vector<std::uint8_t> reply;
          append_frame(reply, reply_payload);
          if (!write_all(fd, reply.data(), reply.size())) {
            closed = true;
            break;
          }
        }
      } catch (const Error&) {
        closed = true;  // oversized/corrupt framing: drop the connection
      }
      if (closed) break;
      continue;
    }
    if (n == 0) {
      closed = true;  // orderly EOF
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    closed = true;  // hard error
    break;
  }

  if (closed) {
    ::epoll_ctl(worker.epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
    worker.connections.erase(it);
  }
}

}  // namespace rcr::serve
