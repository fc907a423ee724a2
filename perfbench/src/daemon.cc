#include "daemon.h"

#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

extern char** environ;

namespace perfbench {

namespace {

// Live daemon pids, for the watchdog (a lock-free slot table, since the
// watchdog must not wait on a lock another thread may hold).
constexpr int kMaxDaemons = 16;
std::atomic<pid_t> g_live[kMaxDaemons];

void Track(pid_t pid) {
  for (auto& slot : g_live) {
    pid_t empty = 0;
    if (slot.compare_exchange_strong(empty, pid)) return;
  }
}

void Untrack(pid_t pid) {
  for (auto& slot : g_live) {
    pid_t p = pid;
    if (slot.compare_exchange_strong(p, 0)) return;
  }
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

Daemon::~Daemon() { Kill(); }

bool Daemon::Start(const std::string& binary,
                   const std::vector<std::string>& args, double timeout_s,
                   std::string* error) {
  int fds[2];
  if (pipe(fds) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);

  std::vector<std::string> all = {binary};
  all.insert(all.end(), args.begin(), args.end());
  all.push_back("--port");
  all.push_back("0");
  std::vector<char*> argv;
  for (std::string& a : all) argv.push_back(a.data());
  argv.push_back(nullptr);

  pid_t pid = -1;
  int rc = posix_spawn(&pid, binary.c_str(), &actions, nullptr, argv.data(),
                       environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (rc != 0) {
    close(fds[0]);
    *error = "spawn " + binary + ": " + std::strerror(rc);
    return false;
  }
  pid_ = pid;
  Track(pid_);
  out_fd_ = fds[0];

  // Readiness line: "mufuzzd listening on port N (W workers)".
  auto t0 = std::chrono::steady_clock::now();
  std::string line;
  while (true) {
    double left = timeout_s - SecondsSince(t0);
    if (left <= 0) {
      *error = "no readiness line within the timeout";
      Kill();
      return false;
    }
    pollfd p{out_fd_, POLLIN, 0};
    int ready = poll(&p, 1, static_cast<int>(left * 1000) + 1);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) continue;
    char c = 0;
    ssize_t n = read(out_fd_, &c, 1);
    if (n <= 0) {
      *error = "daemon exited before its readiness line";
      Kill();
      return false;
    }
    if (c != '\n') {
      line.push_back(c);
      continue;
    }
    const char* key = "listening on port ";
    size_t at = line.find(key);
    if (at == std::string::npos) {
      line.clear();
      continue;
    }
    port_ = std::atoi(line.c_str() + at + std::strlen(key));
    if (port_ <= 0) {
      *error = "unparsable readiness line: " + line;
      Kill();
      return false;
    }
    return true;
  }
}

bool Daemon::Stop(double timeout_s) {
  if (pid_ <= 0) return false;
  kill(pid_, SIGTERM);
  auto t0 = std::chrono::steady_clock::now();
  while (SecondsSince(t0) < timeout_s) {
    int status = 0;
    pid_t r = waitpid(pid_, &status, WNOHANG);
    if (r == pid_) {
      Untrack(pid_);
      pid_ = -1;
      if (out_fd_ >= 0) close(out_fd_);
      out_fd_ = -1;
      return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  Kill();
  return false;
}

void Daemon::Kill() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    int status = 0;
    waitpid(pid_, &status, 0);
    Untrack(pid_);
    pid_ = -1;
  }
  if (out_fd_ >= 0) close(out_fd_);
  out_fd_ = -1;
}

double Daemon::PeakRssMb() const {
  if (pid_ <= 0) return 0;
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      status >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

void KillAllDaemons() {
  for (auto& slot : g_live) {
    pid_t pid = slot.exchange(0);
    if (pid > 0) kill(pid, SIGKILL);
  }
}

}  // namespace perfbench
