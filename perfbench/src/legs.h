// The ways the harness drives jobs into the library:
//  - RunOpenLoop: a schedule of (due time, job) submitted on time by one
//    thread while a second thread POLLs outstanding tickets and fetches the
//    finished ones, over a Transport — an in-process engine::FuzzService or
//    a mufuzzd daemon on loopback. A closed batch is the schedule whose due
//    times are all 0.
//  - RunDirect: the same jobs driven through fuzzer::Campaign on benchmark
//    threads, with forwarding wrappers around the execution backend and the
//    seed scheduler, recording spans (the traced legs' only seam into the
//    evm and fuzzer layers: FuzzService takes no backend).
#ifndef PERFBENCH_LEGS_H_
#define PERFBENCH_LEGS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "engine/fuzz_service.h"
#include "fuzzer/campaign.h"
#include "lang/codegen.h"
#include "server/client.h"
#include "trace.h"

namespace perfbench {

/// One job of a workload.
struct BenchJob {
  std::string name;
  std::string tenant;
  int source_id = 0;  ///< index into the workload's distinct sources
  const std::string* source = nullptr;
  /// When set, in-process submissions skip compilation (the batch
  /// workloads compile every source once, in set-up).
  const mufuzz::lang::ContractArtifact* artifact = nullptr;
  mufuzz::fuzzer::CampaignConfig config;
  double due_ms = 0;  ///< offset from the schedule start
};

/// What one job did on one leg.
struct JobRecord {
  bool done = false;  ///< a POLL saw it finished and its outcome came back
  std::string error;  ///< why it failed: refused, lost, not finished
  double gen_lag_ms = 0;   ///< how late the generator sent it
  double latency_ms = 0;   ///< due time -> first POLL that saw it done
  int64_t submit_ns = 0;
  int64_t done_ns = 0;
  int rounds = 0;          ///< POLL round_index when seen done
  double active_ms = -1;   ///< JobOutcome::elapsed_ms (in-process only)
  size_t outcome_bytes = 0;  ///< EncodeOutcome size (wire only)
  std::optional<mufuzz::fuzzer::CampaignResult> result;
};

/// A submission channel. Submit is called from the generator thread only;
/// Poll, Fetch and Stats from the poller thread only.
class Transport {
 public:
  virtual ~Transport() = default;
  virtual bool Submit(const BenchJob& job, uint64_t* ticket,
                      std::string* error) = 0;
  struct PollResult {
    bool ok = false;  ///< false = the transport is gone
    bool done = false;
    int rounds = 0;
  };
  virtual PollResult Poll(uint64_t ticket) = 0;
  /// Fetches a finished job's outcome into `rec`; false = transport gone.
  virtual bool Fetch(uint64_t ticket, JobRecord* rec) = 0;
  virtual bool Stats(mufuzz::engine::ServiceStats* stats) = 0;
};

class InProcessTransport final : public Transport {
 public:
  explicit InProcessTransport(mufuzz::engine::FuzzService* service)
      : service_(service) {}
  bool Submit(const BenchJob& job, uint64_t* ticket,
              std::string* error) override;
  PollResult Poll(uint64_t ticket) override;
  bool Fetch(uint64_t ticket, JobRecord* rec) override;
  bool Stats(mufuzz::engine::ServiceStats* stats) override;

 private:
  mufuzz::engine::FuzzService* service_;
};

/// Two connections to one daemon: one submits, the other POLLs and WAITs.
/// When `log` is set every RPC is recorded as a `server.rpc` span and its
/// round trip kept per verb.
class WireTransport final : public Transport {
 public:
  explicit WireTransport(SpanLog* log) : log_(log) {}
  bool Connect(int port, std::string* error);
  bool Submit(const BenchJob& job, uint64_t* ticket,
              std::string* error) override;
  PollResult Poll(uint64_t ticket) override;
  bool Fetch(uint64_t ticket, JobRecord* rec) override;
  bool Stats(mufuzz::engine::ServiceStats* stats) override;

  std::vector<double> submit_rtt_us, poll_rtt_us, wait_ms;

 private:
  SpanLog* log_;
  mufuzz::server::MufuzzClient submitter_;
  mufuzz::server::MufuzzClient poller_;
};

struct OpenLoopOptions {
  double poll_period_ms = 0.5;  ///< minimum time between POLL sweeps
  double deadline_s = 60;       ///< unfinished jobs count as failed after
  double stats_period_ms = 0;   ///< > 0: sample STATS this often
};

struct LegResult {
  std::vector<JobRecord> jobs;  ///< parallel to the schedule
  double wall_ms = 0;           ///< schedule start -> last job seen done
  double poll_interval_ms = 0;  ///< mean POLL sweep period (resolution)
  std::vector<mufuzz::engine::ServiceStats> stats;
  bool transport_lost = false;
};

/// Submits `jobs` on their due times and collects every outcome. Never
/// hangs on a dead transport: a failed POLL fails every unfinished job.
LegResult RunOpenLoop(Transport* transport, const std::vector<BenchJob>& jobs,
                      const OpenLoopOptions& options);

/// Submits one job and blocks in Fetch (WAIT) until it is done; the
/// latency runs from Submit to the outcome (a closed loop of one).
JobRecord RunOne(Transport* transport, const BenchJob& job);

/// Counters the direct leg's wrappers collect.
struct LayerCounters {
  uint64_t execs = 0;
  uint64_t txs = 0;
  uint64_t reverted_txs = 0;
  uint64_t instructions = 0;
  uint64_t prefix_reused_txs = 0;
  uint64_t select_calls = 0;
  uint64_t add_kept = 0;  ///< Add calls the queue accepted
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  void Merge(const LayerCounters& o);
};

struct DirectResult {
  std::vector<std::optional<mufuzz::fuzzer::CampaignResult>> results;
  std::vector<std::string> errors;  ///< per job; empty = ok
  /// Distinct sources compiled (each under a `lang.compile` span).
  std::vector<size_t> code_bytes;  ///< runtime size per compiled source
  std::vector<std::unique_ptr<SpanLog>> logs;  ///< one per thread
  LayerCounters counters;
  double wall_ms = 0;
};

/// Compiles each distinct source once and runs every job through
/// fuzzer::Campaign (SeedCorpus, StepRound to budget, Finalize: the same
/// schedule FuzzService streams) on `threads` threads.
DirectResult RunDirect(const std::vector<BenchJob>& jobs,
                       const std::vector<std::string>& sources, int threads);

/// Nearest-rank percentile (p in [0, 100]) of `v`; 0 when empty.
double Percentile(std::vector<double> v, double p);

}  // namespace perfbench

#endif  // PERFBENCH_LEGS_H_
