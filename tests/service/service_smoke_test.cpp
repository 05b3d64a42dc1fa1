// Process-spawning smoke test for the service front-end: fork/execs the
// real `sfl_auction_server` binary, parses its advertised port, then runs
// the real `sfl_load_gen` against it with --verify=1 — the full
// client-process -> TCP -> server-process -> engine -> TCP -> verification
// loop, exactly what a user runs. The load generator writes
// BENCH_service.json into the working directory (the build dir under
// ctest), which CI uploads as the service benchmark artifact.
//
// Environments that forbid fork/exec or binding localhost sockets skip
// instead of failing. Binaries are located through $SFL_AUCTION_SERVER_BIN
// / $SFL_LOAD_GEN_BIN, falling back to build-time paths baked in by
// tests/CMakeLists.txt.
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <thread>

#include "service/rpc_messages.h"

#ifndef SFL_AUCTION_SERVER_BIN_PATH
#define SFL_AUCTION_SERVER_BIN_PATH ""
#endif
#ifndef SFL_LOAD_GEN_BIN_PATH
#define SFL_LOAD_GEN_BIN_PATH ""
#endif

namespace sfl::service {
namespace {

std::string server_binary_path() {
  if (const char* env = std::getenv("SFL_AUCTION_SERVER_BIN")) return env;
  return SFL_AUCTION_SERVER_BIN_PATH;
}

std::string load_gen_binary_path() {
  if (const char* env = std::getenv("SFL_LOAD_GEN_BIN")) return env;
  return SFL_LOAD_GEN_BIN_PATH;
}

struct ServerProcess {
  pid_t pid = -1;
  int stdout_fd = -1;
  std::uint16_t port = 0;

  ~ServerProcess() { stop(SIGKILL); }

  void stop(int signal) {
    if (stdout_fd >= 0) {
      ::close(stdout_fd);
      stdout_fd = -1;
    }
    if (pid > 0) {
      ::kill(pid, signal);
      int status = 0;
      ::waitpid(pid, &status, 0);
      pid = -1;
    }
  }
};

/// Spawns sfl_auction_server and parses the startup banner. Returns
/// nullptr (with `why` filled) when the environment forbids any step.
std::unique_ptr<ServerProcess> spawn_server(
    const std::vector<std::string>& extra_flags, std::string& why) {
  const std::string path = server_binary_path();
  if (path.empty() || ::access(path.c_str(), X_OK) != 0) {
    why = "server binary not found/executable at '" + path + "'";
    return nullptr;
  }
  int pipe_fds[2] = {-1, -1};
  if (::pipe(pipe_fds) != 0) {
    why = "pipe() failed";
    return nullptr;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    why = "fork() is forbidden here";
    return nullptr;
  }
  if (pid == 0) {
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    std::vector<const char*> argv = {path.c_str(), "--port=0"};
    for (const std::string& flag : extra_flags) argv.push_back(flag.c_str());
    argv.push_back(nullptr);
    ::execv(path.c_str(), const_cast<char* const*>(argv.data()));
    _exit(127);
  }
  ::close(pipe_fds[1]);

  auto server = std::make_unique<ServerProcess>();
  server->pid = pid;
  server->stdout_fd = pipe_fds[0];

  std::string banner;
  for (int spins = 0; spins < 200; ++spins) {  // <= 10 s total
    pollfd pfd{.fd = server->stdout_fd, .events = POLLIN, .revents = 0};
    const int ready = ::poll(&pfd, 1, 50);
    if (ready <= 0) continue;
    char buffer[256];
    const ssize_t got = ::read(server->stdout_fd, buffer, sizeof(buffer));
    if (got <= 0) break;  // EOF: server exited (bind forbidden?)
    banner.append(buffer, static_cast<std::size_t>(got));
    const std::size_t mark = banner.find("listening on 127.0.0.1:");
    if (mark == std::string::npos) continue;
    const std::size_t eol = banner.find('\n', mark);
    if (eol == std::string::npos) continue;
    const long port = std::strtol(
        banner.c_str() + mark + std::string("listening on 127.0.0.1:").size(),
        nullptr, 10);
    if (port <= 0 || port > 65535) break;
    server->port = static_cast<std::uint16_t>(port);
    return server;
  }
  why = "server process did not advertise a port (bind/exec forbidden?)";
  return nullptr;
}

/// Runs the load generator to completion; returns its exit code, or -1
/// when it cannot be spawned. When `stderr_out` is non-null the child's
/// stderr is captured into it.
int run_load_gen(const std::vector<std::string>& flags,
                 std::string* stderr_out = nullptr) {
  const std::string path = load_gen_binary_path();
  if (path.empty() || ::access(path.c_str(), X_OK) != 0) return -1;
  int err_pipe[2] = {-1, -1};
  if (stderr_out != nullptr && ::pipe(err_pipe) != 0) return -1;
  const pid_t pid = ::fork();
  if (pid < 0) {
    if (stderr_out != nullptr) {
      ::close(err_pipe[0]);
      ::close(err_pipe[1]);
    }
    return -1;
  }
  if (pid == 0) {
    if (stderr_out != nullptr) {
      ::dup2(err_pipe[1], STDERR_FILENO);
      ::close(err_pipe[0]);
      ::close(err_pipe[1]);
    }
    std::vector<const char*> argv = {path.c_str()};
    for (const std::string& flag : flags) argv.push_back(flag.c_str());
    argv.push_back(nullptr);
    ::execv(path.c_str(), const_cast<char* const*>(argv.data()));
    _exit(127);
  }
  if (stderr_out != nullptr) {
    ::close(err_pipe[1]);
    char buffer[1024];
    ssize_t got = 0;
    while ((got = ::read(err_pipe[0], buffer, sizeof(buffer))) > 0) {
      stderr_out->append(buffer, static_cast<std::size_t>(got));
    }
    ::close(err_pipe[0]);
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// A fake auction server that greets every connection with a ServerHello
/// whose wire-version byte is patched to an OLDER revision (legal to patch:
/// the 24-byte header is outside the payload checksum). Connections stay
/// open so the only failure the generator can report is the version itself.
class OldWireVersionServer {
 public:
  bool start() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
            0 ||
        ::listen(listen_fd_, 16) != 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      return false;
    }
    socklen_t len = sizeof(addr);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
        0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      return false;
    }
    port_ = ntohs(addr.sin_port);

    ServerHello hello;
    hello.bids_per_round = 8;
    hello.max_winners = 3;
    hello.max_pending_rounds = 64;
    hello.mechanism = "lto-vcg-dist-pipe";
    encode(hello, stale_hello_);
    stale_hello_[4] = std::byte{0};  // an older wire revision

    thread_ = std::thread([this] {
      while (!stop_.load()) {
        pollfd pfd{.fd = listen_fd_, .events = POLLIN, .revents = 0};
        if (::poll(&pfd, 1, 50) <= 0) continue;
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) continue;
        (void)!::send(fd, stale_hello_.data(), stale_hello_.size(),
                      MSG_NOSIGNAL);
        accepted_.push_back(fd);  // hold open; closed in stop()
      }
    });
    return true;
  }

  void stop() {
    if (listen_fd_ < 0) return;
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    for (const int fd : accepted_) ::close(fd);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  ~OldWireVersionServer() { stop(); }

  [[nodiscard]] std::uint16_t port() const { return port_; }

 private:
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  Frame stale_hello_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
  std::vector<int> accepted_;
};

TEST(ServiceSmokeTest, LoadGenAgainstRealServerVerifiesAndWritesBenchJson) {
  std::string why;
  auto server = spawn_server({"--bids-per-round=8", "--winners=3"}, why);
  if (server == nullptr) GTEST_SKIP() << why;

  const std::string json_path = "BENCH_service.json";
  std::remove(json_path.c_str());
  const int exit_code = run_load_gen(
      {"--port=" + std::to_string(server->port), "--clients=64,256",
       "--connections=4", "--markets=2", "--rounds=8", "--bids-per-round=8",
       "--winners=3", "--verify=1", "--json=" + json_path});
  if (exit_code == -1) GTEST_SKIP() << "load generator could not be spawned";
  EXPECT_EQ(exit_code, 0) << "load gen must verify bit-exactly and exit 0";

  // The benchmark artifact must exist and carry the tail-latency fields CI
  // publishes.
  std::ifstream file(json_path);
  ASSERT_TRUE(file.good()) << json_path << " was not written";
  std::stringstream contents;
  contents << file.rdbuf();
  const std::string json = contents.str();
  EXPECT_NE(json.find("\"bench\": \"service\""), std::string::npos);
  EXPECT_NE(json.find("p50_us"), std::string::npos);
  EXPECT_NE(json.find("p99_us"), std::string::npos);
  EXPECT_NE(json.find("p999"), std::string::npos);
  EXPECT_NE(json.find("rounds_per_sec"), std::string::npos);
  EXPECT_NE(json.find("\"verified\": true"), std::string::npos);
  // Two client tiers -> two entries.
  EXPECT_NE(json.find("\"clients\": 64"), std::string::npos);
  EXPECT_NE(json.find("\"clients\": 256"), std::string::npos);

  server->stop(SIGTERM);
}

TEST(ServiceSmokeTest, LargeGeometryTierVerifiesBitExactly) {
  // The svc-large shape: 2,048-bid rounds with m = 64, where per-bid
  // bucket work and per-winner settlement lookups dominate. The real
  // server must clear every round bit-identically to the in-process engine.
  std::string why;
  auto server = spawn_server({"--bids-per-round=2048", "--winners=64"}, why);
  if (server == nullptr) GTEST_SKIP() << why;

  const int exit_code = run_load_gen(
      {"--port=" + std::to_string(server->port), "--clients=4096",
       "--connections=4", "--markets=2", "--rounds=4",
       "--bids-per-round=2048", "--winners=64", "--verify=1"});
  if (exit_code == -1) GTEST_SKIP() << "load generator could not be spawned";
  EXPECT_EQ(exit_code, 0) << "load gen must verify bit-exactly and exit 0";

  server->stop(SIGTERM);
}

TEST(ServiceSmokeTest, MismatchedKnobsFailFastInsteadOfHangingSilently) {
  // The PR-8 bugfix regression: server clearing at 8 bids/round vs a
  // generator sending 16 used to hang until the 30 s window-guard timeout.
  // With the config echo the generator must now exit 1 quickly, before
  // sending any bid (so the run completes in seconds, not after timeouts).
  std::string why;
  auto server = spawn_server({"--bids-per-round=8", "--winners=3"}, why);
  if (server == nullptr) GTEST_SKIP() << why;

  const auto start = std::chrono::steady_clock::now();
  const int exit_code = run_load_gen(
      {"--port=" + std::to_string(server->port), "--clients=64",
       "--connections=2", "--markets=1", "--rounds=2", "--bids-per-round=16",
       "--winners=3", "--verify=0"});
  const auto elapsed = std::chrono::steady_clock::now() - start;
  if (exit_code == -1) GTEST_SKIP() << "load generator could not be spawned";
  EXPECT_EQ(exit_code, 1) << "a knob mismatch must be a hard failure";
  EXPECT_LT(elapsed, std::chrono::seconds(20))
      << "the mismatch must be detected up front, not via hang timeouts";

  // Same for a mechanism-key disagreement.
  const int mechanism_exit = run_load_gen(
      {"--port=" + std::to_string(server->port), "--clients=64",
       "--connections=2", "--markets=1", "--rounds=2", "--bids-per-round=8",
       "--winners=3", "--mechanism=lto-vcg", "--verify=0"});
  if (mechanism_exit == -1) GTEST_SKIP() << "load generator could not be spawned";
  EXPECT_EQ(mechanism_exit, 1);

  server->stop(SIGTERM);
}

TEST(ServiceSmokeTest, OlderWireVersionServerFailsFastWithActionableMessage) {
  // A server built from an older wire revision used to surface as a
  // generic condemned-header error. The version byte is checked the moment
  // the hello's header is buffered, so the generator must exit 1 within
  // seconds carrying the version-naming, fix-naming message — the same
  // fail-fast lane as a ServerHello knob mismatch, not a hang or a
  // cryptic WireError.
  OldWireVersionServer server;
  if (!server.start()) {
    GTEST_SKIP() << "cannot bind a localhost socket here";
  }

  std::string captured;
  const auto start = std::chrono::steady_clock::now();
  const int exit_code = run_load_gen(
      {"--port=" + std::to_string(server.port()), "--clients=64",
       "--connections=2", "--markets=1", "--rounds=2", "--bids-per-round=8",
       "--winners=3", "--verify=0"},
      &captured);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  server.stop();
  if (exit_code == -1) GTEST_SKIP() << "load generator could not be spawned";

  EXPECT_EQ(exit_code, 1) << "a wire-version mismatch must be a hard failure";
  EXPECT_LT(elapsed, std::chrono::seconds(20))
      << "the mismatch must be detected up front, not via hang timeouts";
  EXPECT_NE(captured.find("wire version 0"), std::string::npos) << captured;
  EXPECT_NE(captured.find("rebuild"), std::string::npos) << captured;
}

TEST(ServiceSmokeTest, BinariesPrintUsageOnHelp) {
  // --help must exit 0 for both new binaries (checked here through the
  // same fork/exec path; skips where exec is forbidden).
  const std::string server_path = server_binary_path();
  const std::string gen_path = load_gen_binary_path();
  if (server_path.empty() || ::access(server_path.c_str(), X_OK) != 0 ||
      gen_path.empty() || ::access(gen_path.c_str(), X_OK) != 0) {
    GTEST_SKIP() << "binaries not found";
  }
  for (const std::string& path : {server_path, gen_path}) {
    const pid_t pid = ::fork();
    if (pid < 0) GTEST_SKIP() << "fork() is forbidden here";
    if (pid == 0) {
      // Quiet: usage text goes to /dev/null.
      ::freopen("/dev/null", "w", stdout);
      ::execl(path.c_str(), path.c_str(), "--help",
              static_cast<char*>(nullptr));
      _exit(127);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0) << path;
  }
}

}  // namespace
}  // namespace sfl::service
