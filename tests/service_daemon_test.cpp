// The snd_serve daemon outlives clients that fail. It is launched on a
// temporary socket and meets, in turn, a client that pipelines requests and
// vanishes without reading a reply, one that stops mid-header, one that
// stops mid-payload, and one that announces an oversized frame. After each,
// a fresh client must still get a well-formed kStats reply; kShutdown then
// stops the daemon with status 0 and removes its socket file.
#include <gtest/gtest.h>

#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "service/wire.h"
#include "util/bytes.h"

#ifndef SND_SERVE_BINARY
#error "SND_SERVE_BINARY must name the snd_serve executable"
#endif

extern char** environ;

namespace snd::service {
namespace {

using Clock = std::chrono::steady_clock;
constexpr auto kTimeout = std::chrono::seconds(30);
constexpr std::uint64_t kBootstrapNodes = 1000;

/// A fresh directory under $TMPDIR (or /tmp), removed with its socket file.
class TempDir {
 public:
  TempDir() {
    const char* base = std::getenv("TMPDIR");
    std::string pattern = std::string(base != nullptr ? base : "/tmp") + "/snd_daemon_XXXXXX";
    if (::mkdtemp(pattern.data()) != nullptr) path_ = pattern;
  }
  ~TempDir() {
    if (path_.empty()) return;
    ::unlink(socket().c_str());
    ::rmdir(path_.c_str());
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] bool ok() const { return !path_.empty(); }
  [[nodiscard]] std::string socket() const { return path_ + "/snd.sock"; }

 private:
  std::string path_;
};

/// A connected client socket, closed on destruction.
class Client {
 public:
  explicit Client(const std::string& path) : fd_(::socket(AF_UNIX, SOCK_STREAM, 0)) {
    sockaddr_un address{};
    address.sun_family = AF_UNIX;
    std::strncpy(address.sun_path, path.c_str(), sizeof(address.sun_path) - 1);
    if (fd_ >= 0 &&
        ::connect(fd_, reinterpret_cast<const sockaddr*>(&address), sizeof(address)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  [[nodiscard]] bool connected() const { return fd_ >= 0; }

  /// Sends every byte; MSG_NOSIGNAL keeps a closed peer from raising
  /// SIGPIPE in the test itself.
  bool send_all(const util::Bytes& bytes) {
    std::size_t done = 0;
    while (done < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + done, bytes.size() - done, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      done += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Reads exactly `size` bytes, giving up at EOF, on error, or when the
  /// daemon stays silent for kTimeout.
  bool receive_exact(std::uint8_t* data, std::size_t size) {
    std::size_t done = 0;
    while (done < size) {
      pollfd ready{fd_, POLLIN, 0};
      const int polled = ::poll(&ready, 1, static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(kTimeout).count()));
      if (polled < 0 && errno == EINTR) continue;
      if (polled <= 0) return false;
      const ssize_t n = ::read(fd_, data + done, size - done);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      done += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// One framed request and its framed reply's payload.
  std::optional<util::Bytes> round_trip(const util::Bytes& payload) {
    if (!send_all(wire::frame(payload))) return std::nullopt;
    std::uint8_t header[4];
    if (!receive_exact(header, sizeof(header))) return std::nullopt;
    const std::uint32_t length = (std::uint32_t{header[0]} << 24) |
                                 (std::uint32_t{header[1]} << 16) |
                                 (std::uint32_t{header[2]} << 8) | header[3];
    util::Bytes reply(length);
    if (!receive_exact(reply.data(), reply.size())) return std::nullopt;
    return reply;
  }

 private:
  int fd_;
};

/// The daemon process, killed and reaped on destruction unless it has
/// already been seen to exit.
class Daemon {
 public:
  explicit Daemon(const std::string& socket_path) {
    const std::string nodes = std::to_string(kBootstrapNodes);
    std::vector<std::string> args = {SND_SERVE_BINARY, "--socket", socket_path,
                                     "--nodes", nodes, "--seed", "7"};
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    if (::posix_spawn(&pid_, SND_SERVE_BINARY, nullptr, nullptr, argv.data(), environ) != 0) {
      pid_ = -1;
    }
  }
  ~Daemon() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] bool started() const { return pid_ > 0; }

  /// The daemon's wait status once it exits, or nullopt if it is still
  /// running after kTimeout.
  std::optional<int> wait_exit() {
    const Clock::time_point deadline = Clock::now() + kTimeout;
    while (Clock::now() < deadline) {
      if (const std::optional<int> status = poll_exit()) return status;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return std::nullopt;
  }

  /// The wait status if the daemon has exited, without blocking.
  std::optional<int> poll_exit() {
    int status = 0;
    if (pid_ <= 0 || ::waitpid(pid_, &status, WNOHANG) != pid_) return std::nullopt;
    pid_ = -1;
    return status;
  }

 private:
  pid_t pid_ = -1;
};

/// Waits until the daemon accepts connections (it seeds its topology
/// first). The probe connection closes at once, which the daemon must
/// shrug off like any client that sends nothing.
bool wait_until_listening(Daemon& daemon, const std::string& path) {
  const Clock::time_point deadline = Clock::now() + kTimeout;
  while (Clock::now() < deadline) {
    if (daemon.poll_exit()) return false;
    if (Client(path).connected()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

/// A fresh client gets a well-formed kStats reply for the bootstrap epoch.
void expect_served(const std::string& path, const char* context) {
  Client client(path);
  ASSERT_TRUE(client.connected()) << context << ": connect failed: " << std::strerror(errno);
  const std::optional<util::Bytes> reply = client.round_trip(wire::encode_stats());
  ASSERT_TRUE(reply.has_value()) << context << ": no kStats reply";
  const std::optional<wire::StatsReply> stats = wire::decode_stats_reply(*reply);
  ASSERT_TRUE(stats.has_value()) << context << ": malformed kStats reply";
  EXPECT_EQ(stats->epoch, 1u) << context;
  EXPECT_EQ(stats->nodes, kBootstrapNodes) << context;
}

/// The u32 big-endian frame header announcing `length` payload bytes.
util::Bytes header_for(std::uint32_t length) {
  util::Bytes header;
  util::put_u32(header, length);
  return header;
}

TEST(ServiceDaemonTest, OutlivesFailingClients) {
  TempDir dir;
  ASSERT_TRUE(dir.ok());
  const std::string path = dir.socket();
  Daemon daemon(path);
  ASSERT_TRUE(daemon.started());
  ASSERT_TRUE(wait_until_listening(daemon, path));
  ASSERT_NO_FATAL_FAILURE(expect_served(path, "first client"));

  {
    // Pipelined requests, then gone before reading any reply: the daemon's
    // writes now fail with EPIPE.
    Client client(path);
    ASSERT_TRUE(client.connected());
    util::Bytes burst;
    for (int i = 0; i < 2000; ++i) util::put_bytes(burst, wire::frame(wire::encode_stats()));
    ASSERT_TRUE(client.send_all(burst));
  }
  ASSERT_NO_FATAL_FAILURE(expect_served(path, "after a client vanished with replies pending"));

  {
    Client client(path);
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.send_all(util::Bytes{0, 0}));
  }
  ASSERT_NO_FATAL_FAILURE(expect_served(path, "after a client sent half a header"));

  {
    const util::Bytes event = wire::encode_event(TopologyEvent::deploy(5000, {1.0, 2.0}));
    util::Bytes partial = header_for(static_cast<std::uint32_t>(event.size()));
    partial.insert(partial.end(), event.begin(), event.begin() + event.size() / 2);
    Client client(path);
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.send_all(partial));
  }
  ASSERT_NO_FATAL_FAILURE(expect_served(path, "after a client sent half a payload"));

  {
    Client client(path);
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.send_all(header_for(wire::kMaxFrameBytes + 1)));
  }
  ASSERT_NO_FATAL_FAILURE(expect_served(path, "after an oversized frame"));

  {
    Client client(path);
    ASSERT_TRUE(client.connected());
    const std::optional<util::Bytes> reply = client.round_trip(wire::encode_shutdown());
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(*reply, util::Bytes{wire::kOk});
  }
  const std::optional<int> status = daemon.wait_exit();
  ASSERT_TRUE(status.has_value()) << "daemon still running after kShutdown";
  ASSERT_TRUE(WIFEXITED(*status)) << "daemon killed by signal " << WTERMSIG(*status);
  EXPECT_EQ(WEXITSTATUS(*status), 0);
  struct stat info {};
  EXPECT_NE(::stat(path.c_str(), &info), 0) << "socket file left behind";
}

}  // namespace
}  // namespace snd::service
