#include "loadgen.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "transport/frame.hpp"
#include "wire/crc32c.hpp"

namespace perfbench {

namespace tp = fedbiad::transport;

namespace {

constexpr std::size_t kLenBytes = 4;  // frame.hpp: [u32 len][u8 type]...

struct Conn {
  int fd = -1;
  ReplayClient replay;
  tp::FrameParser parser{tp::TransportLimits{}.max_frame_bytes};
  const std::vector<std::uint8_t>* out = nullptr;  ///< frame being sent
  std::size_t out_off = 0;
  bool upload_outstanding = false;
  std::uint64_t outstanding_index = 0;
  double upload_started = 0.0;  ///< probe clock
  bool finished = false;
};

int dial(std::uint16_t port, std::string& error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    error = std::string("connect: ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  const int buf = 4 << 20;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &buf, sizeof buf);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &buf, sizeof buf);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

}  // namespace

void patch_upload_frame(std::vector<std::uint8_t>& frame,
                        std::uint64_t dispatch_index) {
  // Body starts after len and type; the Upload body starts with the index.
  for (std::size_t i = 0; i < 8; ++i) {
    frame[kLenBytes + 1 + i] = static_cast<std::uint8_t>(dispatch_index >> (8 * i));
  }
  const std::size_t crc_at = frame.size() - 4;
  const std::uint32_t crc = fedbiad::wire::crc32c(
      std::span<const std::uint8_t>(frame.data() + kLenBytes, crc_at - kLenBytes));
  for (std::size_t i = 0; i < 4; ++i) {
    frame[crc_at + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
}

LoadgenResult run_loadgen(std::uint16_t port, std::vector<ReplayClient> clients,
                          Probe& probe, double stall_seconds) {
  LoadgenResult res;
  Tracer* tracer = probe.tracer();
  const double cpu0 = thread_cpu_seconds();
  const double wall0 = probe.elapsed();
  std::vector<Conn> conns(clients.size());
  for (std::size_t i = 0; i < clients.size(); ++i) {
    conns[i].replay = std::move(clients[i]);
    conns[i].fd = dial(port, res.error);
    if (conns[i].fd < 0) break;
    conns[i].out = &conns[i].replay.hello_frame;
  }

  std::vector<pollfd> fds(conns.size());
  std::vector<std::uint8_t> rx(1 << 20);
  tp::Frame frame;
  double last_progress = probe.elapsed();
  std::size_t finished = 0;

  auto fail = [&](std::size_t c, const std::string& why) {
    if (res.error.empty()) res.error = "client " + std::to_string(c) + ": " + why;
  };

  auto handle = [&](std::size_t c, Conn& conn, tp::Frame& f) {
    switch (f.type) {
      case tp::FrameType::kWelcome:
        return;
      case tp::FrameType::kDispatch: {
        ++res.dispatches;
        if (conn.upload_outstanding || conn.out != nullptr || f.body.size() < 16) {
          fail(c, "dispatch while the previous upload is unanswered");
          return;
        }
        Tracer::Scope span(tracer, "loadgen.encode_upload");
        conn.outstanding_index = leading_u64(f.body);
        // DispatchMsg: dispatch_index, then the 1-based round.
        const std::uint64_t round =
            leading_u64(std::span<const std::uint8_t>(f.body).subspan(8));
        std::vector<std::vector<std::uint8_t>>& frames = conn.replay.upload_frames;
        std::vector<std::uint8_t>& frame = frames[(round - 1) % frames.size()];
        patch_upload_frame(frame, conn.outstanding_index);
        conn.out = &frame;
        conn.out_off = 0;
        conn.upload_outstanding = true;
        conn.upload_started = probe.elapsed();
        ++res.uploads;
        return;
      }
      case tp::FrameType::kUploadAck: {
        if (!conn.upload_outstanding ||
            leading_u64(f.body) != conn.outstanding_index) {
          fail(c, "ack for an upload that is not outstanding");
          return;
        }
        const double now = probe.elapsed();
        probe.add_ack(now - conn.upload_started);
        if (tracer != nullptr) {
          const double offset = tracer->now() - now;
          tracer->record("loadgen.upload_to_ack", conn.upload_started + offset,
                         now + offset, conn.outstanding_index);
        }
        conn.upload_outstanding = false;
        ++res.acks;
        return;
      }
      case tp::FrameType::kReject:
        ++res.rejects;
        fail(c, "upload rejected");
        return;
      case tp::FrameType::kFin:
        ++res.fins;
        conn.finished = true;
        return;
      default:
        fail(c, std::string("unexpected ") + tp::to_string(f.type) + " frame");
        return;
    }
  };

  // Writes as much of the pending frame as the socket takes now.
  auto send_some = [&](std::size_t c, Conn& conn) {
    if (conn.out == nullptr) return;
    Tracer::Scope span(tracer, "loadgen.send");
    const std::vector<std::uint8_t>& buf = *conn.out;
    const ssize_t n = ::send(conn.fd, buf.data() + conn.out_off,
                             buf.size() - conn.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_off += static_cast<std::size_t>(n);
      if (conn.out_off == buf.size()) {
        conn.out = nullptr;
        conn.out_off = 0;
      }
    } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
      fail(c, std::string("send: ") + std::strerror(errno));
    }
  };

  while (res.error.empty() && finished < conns.size()) {
    for (std::size_t i = 0; i < conns.size(); ++i) {
      fds[i].fd = conns[i].finished ? -1 : conns[i].fd;
      fds[i].events = static_cast<short>(POLLIN | (conns[i].out ? POLLOUT : 0));
      fds[i].revents = 0;
    }
    int ready = 0;
    {
      Tracer::Scope span(tracer, "loadgen.poll");
      ready = ::poll(fds.data(), fds.size(), 100);
    }
    if (ready < 0 && errno != EINTR) {
      res.error = std::string("poll: ") + std::strerror(errno);
      break;
    }
    if (ready <= 0) {
      if (probe.elapsed() - last_progress > stall_seconds) {
        res.error = "no progress for " + std::to_string(stall_seconds) + " s";
      }
      continue;
    }
    last_progress = probe.elapsed();
    for (std::size_t i = 0; i < conns.size() && res.error.empty(); ++i) {
      Conn& conn = conns[i];
      if (fds[i].fd < 0) continue;
      if ((fds[i].revents & POLLOUT) != 0) send_some(i, conn);
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Tracer::Scope span(tracer, "loadgen.recv");
      const ssize_t n = ::recv(conn.fd, rx.data(), rx.size(), 0);
      if (n == 0) {
        fail(i, "server closed the connection before Fin");
        continue;
      }
      if (n < 0) {
        if (errno != EAGAIN && errno != EWOULDBLOCK) {
          fail(i, std::string("recv: ") + std::strerror(errno));
        }
        continue;
      }
      conn.parser.feed(std::span<const std::uint8_t>(rx.data(), static_cast<std::size_t>(n)));
      for (;;) {
        const tp::FrameParser::Status st = conn.parser.next(frame);
        if (st == tp::FrameParser::Status::kNeedMore) break;
        if (st == tp::FrameParser::Status::kError) {
          fail(i, "framing: " + conn.parser.error());
          break;
        }
        handle(i, conn, frame);
        if (conn.finished) {
          ++finished;
          break;
        }
      }
      // A Dispatch just queued an upload: start it without another poll.
      if (!conn.finished) send_some(i, conn);
    }
  }
  for (Conn& conn : conns) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
  res.cpu_seconds = thread_cpu_seconds() - cpu0;
  res.wall_seconds = probe.elapsed() - wall0;
  return res;
}

}  // namespace perfbench
