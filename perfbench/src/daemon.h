// A mufuzzd child process on loopback: spawned on an ephemeral port read
// back from its readiness line, stopped with SIGTERM, and killed by the
// destructor on every path that did not stop it cleanly, so no run leaves a
// daemon behind.
#ifndef PERFBENCH_DAEMON_H_
#define PERFBENCH_DAEMON_H_

#include <sys/types.h>

#include <string>
#include <vector>

namespace perfbench {

class Daemon {
 public:
  Daemon() = default;
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Spawns `binary` with `args` plus `--port 0` and waits up to
  /// `timeout_s` for the readiness line. False (with the child killed) on
  /// failure; `error` says why.
  bool Start(const std::string& binary, const std::vector<std::string>& args,
             double timeout_s, std::string* error);

  /// SIGTERM, then waits up to `timeout_s`. True when the daemon exited
  /// with status 0 in time; otherwise it is killed and false is returned.
  bool Stop(double timeout_s);

  /// The daemon's peak resident set (VmHWM) in MB; 0 if unreadable.
  double PeakRssMb() const;

  int port() const { return port_; }
  pid_t pid() const { return pid_; }

 private:
  void Kill();

  pid_t pid_ = -1;
  int out_fd_ = -1;  ///< read end of the daemon's stdout
  int port_ = 0;
};

/// SIGKILLs every daemon still running (the hard-time-limit path).
void KillAllDaemons();

}  // namespace perfbench

#endif  // PERFBENCH_DAEMON_H_
