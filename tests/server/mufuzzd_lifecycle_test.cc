// The mufuzzd binary as an operator runs it: a supervisor that sends
// SIGTERM the moment the readiness line appears must get a clean shutdown
// (the shutdown line and exit status 0), never a signal death.

#include <gtest/gtest.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <string>

extern char** environ;

namespace {

/// Appends whatever the child wrote to `fd` within `timeout_ms` to `out`;
/// false on EOF or timeout.
bool ReadSome(int fd, std::string* out, int timeout_ms) {
  pollfd p{fd, POLLIN, 0};
  if (::poll(&p, 1, timeout_ms) <= 0) return false;
  char buf[512];
  ssize_t n = ::read(fd, buf, sizeof(buf));
  if (n <= 0) return false;
  out->append(buf, static_cast<size_t>(n));
  return true;
}

TEST(MufuzzdLifecycleTest, SigtermRightAfterReadinessShutsDownCleanly) {
  constexpr int kRuns = 20;
  constexpr int kTimeoutMs = 10000;
  for (int run = 0; run < kRuns; ++run) {
    int out[2];
    ASSERT_EQ(::pipe(out), 0);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, out[0]);
    posix_spawn_file_actions_addclose(&actions, out[1]);
    char* argv[] = {const_cast<char*>("mufuzzd"),
                    const_cast<char*>("--port"),
                    const_cast<char*>("0"),
                    const_cast<char*>("--workers"),
                    const_cast<char*>("1"),
                    const_cast<char*>("--metrics-interval-ms"),
                    const_cast<char*>("0"),
                    nullptr};
    pid_t pid = -1;
    int spawned =
        posix_spawn(&pid, MUFUZZD_PATH, &actions, nullptr, argv, environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(out[1]);
    ASSERT_EQ(spawned, 0) << "cannot spawn " << MUFUZZD_PATH;

    std::string output;
    while (output.find("listening on port") == std::string::npos) {
      if (!ReadSome(out[0], &output, kTimeoutMs)) break;
    }
    ASSERT_NE(output.find("listening on port"), std::string::npos)
        << "run " << run << ": no readiness line: " << output;
    ASSERT_EQ(::kill(pid, SIGTERM), 0);
    while (ReadSome(out[0], &output, kTimeoutMs)) {
    }
    ::close(out[0]);

    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status))
        << "run " << run << ": killed by signal "
        << (WIFSIGNALED(status) ? WTERMSIG(status) : 0);
    EXPECT_EQ(WEXITSTATUS(status), 0) << "run " << run;
    EXPECT_NE(output.find("mufuzzd: shutting down"), std::string::npos)
        << "run " << run << ": " << output;
  }
}

}  // namespace
