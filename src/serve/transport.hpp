// Transports for the rcr::serve core.
//
// Two ways into Server::handle_payload, sharing the same length-prefixed
// framing (protocol.hpp):
//
//   * LocalTransport — in-process. A caller hands in request frames and
//     gets response frames back, exercising the complete encode -> frame ->
//     decode -> pipeline -> encode path with no sockets. Tests and the
//     in-process perfbench workloads drive the full stack through this, so
//     the serving numbers measure the server, not the kernel's loopback.
//
//   * TcpServer — the real thing: a listening socket on 127.0.0.1 with a
//     thread-per-core worker group. The acceptor thread epoll-waits on the
//     listen socket and deals accepted connections round-robin onto the
//     workers; each worker epoll-waits on its own connection set (plus an
//     eventfd for shutdown wakeups), reassembles frames from nonblocking
//     reads, answers each request synchronously through the server core,
//     and writes the response frame back. A worker blocking in an engine
//     pass stalls only its own connections — that is the thread-per-core
//     trade, and the batching layer means a stalled worker's concurrent
//     misses were usually riding that very pass anyway.
//
// FrameDecoder is the shared reassembly buffer: feed() bytes as they
// arrive, take() complete payloads as they become available. Oversized
// length prefixes are rejected immediately (kMaxFrameBytes) so a corrupt
// peer cannot request a giant allocation.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace rcr::serve {

// Incremental length-prefix frame reassembly (one peer's byte stream).
class FrameDecoder {
 public:
  // Appends raw bytes from the stream; throws InvalidInputError on an
  // oversized frame length.
  void feed(std::span<const std::uint8_t> bytes);

  // True when at least one complete payload is buffered.
  bool has_frame() const;

  // Pops the next complete payload (call has_frame() first).
  std::vector<std::uint8_t> take();

 private:
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;  // bytes of buffer_ already handed out
};

// In-process transport: the full framing path with no sockets.
class LocalTransport {
 public:
  explicit LocalTransport(Server& server) : server_(server) {}

  // One request frame in -> one response frame out (both length-prefixed).
  std::vector<std::uint8_t> roundtrip_frame(
      std::span<const std::uint8_t> frame);

  // Convenience: encode the request, frame it, round-trip, unframe and
  // decode the response.
  Response query(std::uint64_t epoch, const QuerySpec& spec);

 private:
  Server& server_;
};

// epoll TCP server on 127.0.0.1. start() spawns the acceptor and workers;
// stop() (or destruction) shuts them down and closes every connection.
class TcpServer {
 public:
  // port 0 picks an ephemeral port (read it back with port());
  // workers == 0 sizes the group to hardware_concurrency.
  TcpServer(Server& server, std::uint16_t port = 0, std::size_t workers = 0);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  void start();
  void stop();

  bool running() const { return running_; }
  std::uint16_t port() const { return port_; }

 private:
  struct Connection;
  struct Worker;

  void accept_loop();
  void worker_loop(Worker& worker);
  void serve_connection(Worker& worker, int fd);

  Server& server_;
  std::uint16_t port_;
  std::size_t worker_count_;
  std::atomic<bool> running_{false};

  int listen_fd_ = -1;
  int accept_wake_fd_ = -1;
  std::thread acceptor_;
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace rcr::serve
