// Long-lived neighbor-validation daemon: owns a service::ValidationService
// and speaks the length-prefixed binary protocol of service/wire.h over an
// AF_UNIX socket (--socket PATH, clients served one at a time) or its own
// stdin/stdout (--stdio, for pipe-based harnesses and the CI smoke job).
//
//   ./snd_serve --socket /tmp/snd.sock --nodes 10000 --seed 7
//   ./snd_serve --stdio < requests.bin > responses.bin
//
// The bootstrap flags deploy a seeded uniform-random topology before
// serving, so a load generator can connect to a populated service; clients
// grow or shrink it afterwards with kEvent requests. A bootstrap position
// the service cannot index (see SpatialGrid::indexable) exits 2. A kShutdown request
// (or EOF in --stdio mode) stops the daemon. See docs/SERVICE.md for the
// frame layouts and epoch semantics.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/config.h"
#include "service/validation_service.h"
#include "service/wire.h"
#include "util/driver_spec.h"
#include "util/rng.h"

namespace {

using namespace snd;

bool read_exact(int fd, std::uint8_t* data, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::read(fd, data + done, size - done);
    if (n == 0) return false;  // clean EOF
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

bool write_exact(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

/// Serves one connection until EOF or kShutdown; returns false when the
/// daemon should stop accepting (shutdown requested).
bool serve_connection(service::ValidationService& service, int in_fd, int out_fd) {
  std::vector<std::uint8_t> payload;
  for (;;) {
    std::uint8_t header[4];
    if (!read_exact(in_fd, header, sizeof(header))) return true;
    const std::uint32_t length = (std::uint32_t{header[0]} << 24) |
                                 (std::uint32_t{header[1]} << 16) |
                                 (std::uint32_t{header[2]} << 8) | header[3];
    if (length > service::wire::kMaxFrameBytes) {
      std::fprintf(stderr, "snd_serve: oversized frame (%u bytes), dropping client\n",
                   length);
      return true;
    }
    payload.resize(length);
    if (!read_exact(in_fd, payload.data(), payload.size())) return true;

    util::Bytes reply;
    const bool keep_serving = service::wire::handle_request(service, payload, reply);
    const util::Bytes framed = service::wire::frame(reply);
    if (!write_exact(out_fd, framed.data(), framed.size())) return true;
    if (!keep_serving) return false;
  }
}

int serve_socket(service::ValidationService& service, const std::string& path) {
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) {
    std::perror("snd_serve: socket");
    return 1;
  }
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  if (path.size() >= sizeof(address.sun_path)) {
    std::fprintf(stderr, "snd_serve: socket path too long: %s\n", path.c_str());
    ::close(listener);
    return 1;
  }
  std::strncpy(address.sun_path, path.c_str(), sizeof(address.sun_path) - 1);
  ::unlink(path.c_str());
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&address), sizeof(address)) < 0 ||
      ::listen(listener, 8) < 0) {
    std::perror("snd_serve: bind/listen");
    ::close(listener);
    return 1;
  }
  std::fprintf(stderr, "snd_serve: listening on %s (%zu nodes, epoch %llu)\n",
               path.c_str(), service.node_count(),
               static_cast<unsigned long long>(service.snapshot()->epoch()));

  bool keep_serving = true;
  while (keep_serving) {
    const int client = ::accept(listener, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR) continue;
      std::perror("snd_serve: accept");
      break;
    }
    keep_serving = serve_connection(service, client, client);
    ::close(client);
  }
  ::close(listener);
  ::unlink(path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  obs::ObsConfig obs_config;
  util::cli::DriverSpec spec(
      "snd_serve",
      "Neighbor-validation service daemon: maintains a functional topology\n"
      "incrementally and answers F(u, v) queries over the binary protocol\n"
      "described in docs/SERVICE.md.");
  spec.string_flag("socket", "", "PATH", "serve clients on an AF_UNIX socket at PATH")
      .bool_flag("stdio", "serve a single session on stdin/stdout")
      .int_flag("nodes", 0, "N", "bootstrap: deploy N uniform-random nodes", 0)
      .double_flag("field", 1000.0, "W", "bootstrap: field is W x W meters", 1.0)
      .double_flag("radius", 50.0, "R", "radio range R in meters", 1e-9)
      .int_flag("threshold", 2, "T", "security threshold t", 0)
      .int_flag("seed", 1, "S", "bootstrap topology seed", 0)
      .group(obs::obs_flag_group(&obs_config));
  const util::cli::Driver cli = spec.parse(argc, argv);
  if (!cli.ok()) return cli.exit_code();
  if (!obs::apply_obs(obs_config, std::cerr)) return 2;

  // A client that disconnects before reading its replies must cost only
  // its own connection: with SIGPIPE ignored, write_exact sees EPIPE and the
  // daemon drops that client instead of dying.
  std::signal(SIGPIPE, SIG_IGN);

  const std::string socket_path = cli.get("socket");
  const bool stdio = cli.get_bool("stdio");
  if (socket_path.empty() == !stdio) {
    std::cerr << "snd_serve: pass exactly one of --socket PATH or --stdio\n";
    return 2;
  }

  service::ServiceConfig config;
  config.radio_range = cli.get_double("radius");
  config.threshold_t = static_cast<std::size_t>(cli.get_int("threshold"));
  service::ValidationService service(config);

  const auto nodes = static_cast<std::size_t>(cli.get_int("nodes"));
  if (nodes > 0) {
    const double width = cli.get_double("field");
    util::Rng rng(static_cast<std::uint64_t>(cli.get_int("seed")));
    std::vector<std::pair<NodeId, util::Vec2>> bootstrap;
    bootstrap.reserve(nodes);
    for (std::size_t i = 0; i < nodes; ++i) {
      bootstrap.emplace_back(static_cast<NodeId>(i),
                             util::Vec2{rng.uniform(0.0, width), rng.uniform(0.0, width)});
    }
    const service::ApplyResult seeded = service.seed_topology(bootstrap);
    if (!seeded.ok) {
      std::cerr << "snd_serve: " << seeded.error << "\n";
      return 2;
    }
  }

  if (stdio) {
    (void)serve_connection(service, STDIN_FILENO, STDOUT_FILENO);
    return 0;
  }
  return serve_socket(service, socket_path);
}
