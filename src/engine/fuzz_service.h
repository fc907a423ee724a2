#ifndef MUFUZZ_ENGINE_FUZZ_SERVICE_H_
#define MUFUZZ_ENGINE_FUZZ_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "evm/async_backend.h"
#include "evm/execution_backend.h"
#include "fuzzer/campaign.h"
#include "fuzzer/sharded_seed_scheduler.h"
#include "lang/codegen.h"

namespace mufuzz::engine {

/// Inclusive ranges Submit enforces on a job's CampaignConfig. Each knob
/// arrives unchecked in a wire SUBMIT and sizes something the daemon
/// allocates or runs: a reserve (initial_seeds), a thread pool
/// (async_workers), plans in flight (wave_size x fanout), children per
/// parent (base_energy; below 1 a campaign never executes and never
/// finishes), the coverage curve (coverage_samples), mask probes
/// (mask_stride_divisor). Every workload in this repo sits far inside them.
inline constexpr int kMaxInitialSeeds = 4096;
inline constexpr int kMaxAsyncWorkers = 64;
inline constexpr int kMaxWaveSize = 1024;
inline constexpr int kMaxFanout = 64;
inline constexpr int kMaxBaseEnergy = 4096;
inline constexpr int kMaxCoverageSamples = 100000;
inline constexpr int kMaxMaskStrideDivisor = 4096;

/// Longest FuzzJob::source Submit accepts. A source is compiled by a
/// worker, so this bounds what one SUBMIT makes the daemon parse, apart
/// from the wire's 8 MiB frame cap. The largest builtin or generated
/// contract is under 3 KB, so 1 MiB leaves more than 300x headroom.
inline constexpr size_t kMaxSourceBytes = size_t{1} << 20;

/// One unit of fuzzing work: fuzz one contract with one (strategy, seed)
/// configuration. Either `artifact` is set (pre-compiled, caller keeps
/// ownership and must outlive the job) or `source` is compiled by the
/// worker that picks the job up — which parallelizes compilation too.
struct FuzzJob {
  std::string name;    ///< label carried through to the outcome
  std::string source;  ///< compiled when `artifact` is null
  const lang::ContractArtifact* artifact = nullptr;
  fuzzer::CampaignConfig config;
  /// Jobs sharing a non-negative group id form an island archipelago: when
  /// `RunnerOptions::exchange_interval` > 0 their campaigns run in lockstep
  /// rounds and exchange top seeds between rounds (see ShardedSeedScheduler).
  /// Group members should fuzz the same contract — migrated sequences index
  /// into the destination's ABI. -1 (default) = standalone job. Only the
  /// ParallelRunner compat shim reads this tag; the FuzzService API forms
  /// groups explicitly via SubmitIslandGroup and ignores it on Submit.
  int island_group = -1;

  // ------------------------------------------------------- Multi-tenancy --
  /// Accounting identity for admission control, fair-share scheduling, and
  /// the per-tenant metrics plane. Empty maps to "default". Tenancy is
  /// scheduling-only: it decides *when* a job's slices run and whether the
  /// job is admitted at all, never what its campaign computes.
  std::string tenant;
  /// Order among a tenant's own ready jobs (higher runs first; ties fall
  /// back to ticket order). Does not buy a tenant more aggregate share —
  /// that is the fair-share deficit's job.
  int priority = 0;
  /// Wall-clock budget in milliseconds, measured from admission. 0 = none.
  /// Expiry rides the Cancel path: the job stops at its next slice boundary
  /// with a partial-but-valid result flagged `cancelled` (or an empty
  /// result if the campaign never started), and the expiry is counted in
  /// ServiceStats::deadline_hits and flagged on the job's progress.
  uint64_t deadline_ms = 0;
};

/// What came back for one job. `result` is empty exactly when the job never
/// ran a campaign (compile failure, or cancelled before it started) — a
/// failed job can never be mistaken for a zero-coverage row. A job
/// cancelled mid-run has a partial-but-valid result with
/// `result->cancelled` set.
struct JobOutcome {
  std::string name;
  std::optional<fuzzer::CampaignResult> result;
  std::string error;  ///< compile diagnostics when `result` is empty
  /// Per-job *active* time: the sum of the job's setup, step-slice and
  /// finalize units on whichever workers ran them. Time the job spent
  /// queued, or ready while other jobs' slices held every worker, is
  /// excluded, so this is NOT wall-clock between admission and completion.
  /// A standalone job of a single tenant usually runs its units back to
  /// back on one worker, where the two nearly coincide.
  double elapsed_ms = 0;
};

/// Handle for one submitted job. Tickets are issued densely from 1 per
/// service and are never reused.
using JobTicket = uint64_t;

/// Handle for one island archipelago: the member jobs' tickets, in
/// submission order (which is also island-id order).
struct GroupTicket {
  std::vector<JobTicket> members;
};

/// Where a job is in its service lifecycle.
enum class JobState {
  kUnknown,     ///< ticket was never issued by this service
  kQueued,      ///< admitted; compile/deploy has not finished yet
  kRunning,     ///< stepping (or finalizing) on the worker pool
  kCancelling,  ///< cancel requested; stops at the next slice boundary
  kDone,        ///< outcome available; Wait() will not block
};

/// A progress snapshot for one job, taken between its slices (never
/// mid-slice — a slice boundary is the job's consistency point). On a
/// finished ticket, Poll keeps returning the final snapshot.
struct JobProgress {
  JobState state = JobState::kUnknown;
  uint64_t executions = 0;
  uint64_t transactions = 0;
  /// Branch-coverage fraction so far (final figure once done).
  double coverage = 0;
  /// Distinct (bug, pc) oracle findings so far.
  size_t bugs_found = 0;
  /// Completed step slices for a standalone job, migration rounds for an
  /// island member.
  int round_index = 0;
  /// Effective speculative fan-out (K) the job's campaign runs with —
  /// parents expanded per selection round (service override applied).
  int fanout = 1;
  /// Parents in the campaign's parked speculative set at snapshot time
  /// (streamed standalone jobs park the whole set across slices; 0 for
  /// island members, whose rounds drain, and once the job is done).
  int parents_in_flight = 0;
  /// Executions submitted to the backend but not yet applied at snapshot
  /// time — the speculative waves in flight, so progress keeps moving on
  /// large waves instead of stalling at slice boundaries. 0 once done.
  uint64_t inflight_executions = 0;
  /// Set once the job finished via the cancel path.
  bool cancelled = false;
  /// Set when the job's `deadline_ms` expired (the cancellation — counted
  /// in ServiceStats::deadline_hits — was deadline-initiated).
  bool deadline_expired = false;
  /// ServiceStats::rounds (settled step slices, all jobs) when the job's
  /// first slice was picked (-1 until then). With one worker it is
  /// deterministic given submission order and service options — what the
  /// fair-share and scheduling tests pin.
  int64_t first_step_round = -1;
  /// Code-cache counters of the job's backend at snapshot time (process-wide
  /// cache by default — diagnostics, not part of any reproducibility key).
  evm::CodeCacheStats code_cache;
  /// Transactions the job's backend executed vs. served from its
  /// transaction memo (diagnostics, like `code_cache`).
  evm::PrefixCacheStats prefix_cache;
  /// MUFUZZ_ALLOC_STATS counters (all zero when the hook is compiled out):
  /// heap allocations since the campaign reached steady state, and the most
  /// recent pipeline sweep's allocation / execution deltas. Process-wide
  /// counters — diagnostics, not part of any reproducibility key.
  uint64_t heap_allocs = 0;
  uint64_t wave_allocs = 0;
  uint64_t wave_executions = 0;
};

/// FuzzService knobs. The execution-semantics knobs (`wave_size`,
/// `fanout`, `exchange_interval`, `migration_top_k`) are part of each
/// job's reproducibility key; the scheduling knobs (`workers`,
/// `round_quantum`, `backend_workers`, `share_backend`, `reuse_sessions`)
/// never influence results.
struct ServiceOptions {
  /// Worker threads, and so the number of units (slices) that run at once;
  /// <= 0 means DefaultWorkerCount().
  int workers = 0;
  /// Lease execution sessions from the service's shared pool instead of
  /// allocating per campaign.
  bool reuse_sessions = true;
  /// Retained for RunnerOptions compatibility. Worker-local randomness
  /// never influences job results.
  uint64_t worker_seed = 0x5eed;
  /// > 0 overrides every job's CampaignConfig::wave_size — the pipelined
  /// mode's wave width W (part of the reproducibility key).
  int wave_size = 0;
  /// > 0 overrides every job's CampaignConfig::fanout — the speculative
  /// multi-parent expansion width K (part of the reproducibility key,
  /// exactly like wave_size; 1 = the serial parent chain).
  int fanout = 0;
  /// > 0 runs every campaign over async execution workers. With
  /// `share_backend` (default) one AsyncExecutionHub with this many
  /// threads serves all campaigns; otherwise each campaign owns a private
  /// AsyncBackendAdapter with this many threads.
  int backend_workers = 0;
  /// One shared execution hub for all pipelined campaigns (vs. a private
  /// adapter per campaign). Scheduling-only: results are identical either
  /// way.
  bool share_backend = true;
  /// Sequence executions each island runs between migration rounds —
  /// SubmitIslandGroup requires it > 0.
  int exchange_interval = 0;
  /// Seeds each island exports per migration round.
  int migration_top_k = 2;
  /// Executions a standalone job advances per slice — the progress,
  /// cancel and fair-share granularity. Scheduling-only: the streamed
  /// campaign suspends (never drains) at slice boundaries, so results are
  /// identical for any quantum (unlike islands' exchange_interval, which is
  /// a real round barrier and part of the semantics). Clamped to >= 1.
  int round_quantum = 128;

  // -------------------------------------------- Admission & multi-tenancy --
  /// Upper bound on *live* (admitted, not yet done) jobs across all
  /// tenants; a Submit past the bound is rejected with ResourceExhausted
  /// instead of buffering unboundedly. 0 = unbounded.
  size_t max_live_jobs = 0;
  /// Same bound per tenant. 0 = unbounded.
  size_t max_live_jobs_per_tenant = 0;
  /// Emit a one-line metrics summary (executions/s, live jobs, queue
  /// depths, rejects, deadline hits) to stderr roughly this often, at
  /// slice boundaries. 0 = never.
  int metrics_log_interval_ms = 0;
  /// Construct the service paused: jobs are admitted (and admission
  /// bounds enforced) but no worker picks a unit until Resume(). Lets
  /// tests build a deterministic backlog before scheduling starts.
  bool start_paused = false;
};

/// Point-in-time metrics for one tenant (ServiceStats::tenants entry).
struct TenantStats {
  std::string tenant;
  uint64_t submitted = 0;      ///< admission attempts (valid configs only)
  uint64_t admitted = 0;
  uint64_t rejected = 0;       ///< admission-control rejections
  uint64_t completed = 0;      ///< jobs that reached kDone
  uint64_t cancelled = 0;      ///< completions via the cancel path
  uint64_t deadline_hits = 0;  ///< cancellations initiated by a deadline
  uint64_t executions = 0;     ///< finished + live snapshot executions
  /// Executions' worth of step slices charged to the tenant over its
  /// lifetime (standalone quanta + island intervals). The fair-share
  /// ordering key is kept separately (see FuzzService's scheduling model).
  uint64_t stepped_quanta = 0;
  size_t live_jobs = 0;    ///< admitted, not yet done (queue depth now)
  size_t queued_jobs = 0;  ///< live jobs whose campaign is not stepping yet
};

/// Point-in-time service metrics — the metrics plane the STATS verb and the
/// periodic log line serve. Counters are monotone over the service's
/// lifetime; depths/rates are snapshots.
struct ServiceStats {
  uint64_t submitted = 0;        ///< admission attempts (valid configs only)
  uint64_t admitted = 0;
  uint64_t rejected_global = 0;  ///< rejected by the global live-job bound
  uint64_t rejected_tenant = 0;  ///< rejected by a per-tenant bound
  uint64_t completed = 0;
  uint64_t cancelled = 0;
  uint64_t deadline_hits = 0;
  uint64_t rounds = 0;  ///< step slices settled (standalone + island)
  size_t live_jobs = 0;
  size_t queued_jobs = 0;
  uint64_t executions = 0;  ///< finished jobs + live progress snapshots
  /// Throughput over the recent window: up to 64 samples taken at slice
  /// boundaries at least 1 ms apart (0 until two samples exist).
  double executions_per_sec = 0;
  // Shared execution hub utilization (all zero without a shared hub).
  int hub_workers = 0;
  size_t hub_queue_depth = 0;
  size_t hub_queue_capacity = 0;
  size_t sessions_created = 0;  ///< session-pool diagnostics
  std::vector<TenantStats> tenants;  ///< sorted by tenant name
};

/// Worker threads to use by default: $MUFUZZ_WORKERS when set to a positive
/// integer, otherwise the hardware concurrency (min 1). A malformed value
/// (non-numeric, trailing garbage, zero/negative, out of range) is reported
/// once on stderr and ignored instead of silently falling through.
int DefaultWorkerCount();

/// A long-lived streaming fuzzing engine: submit jobs at any time, watch
/// their progress, cancel them, and collect outcomes — the service's
/// worker threads pull whatever campaign work is ready, standalone jobs
/// and island archipelagos alike (and, in pipelined mode, share one
/// AsyncExecutionHub across every campaign).
///
/// ## Scheduling model
///
/// Each of the `workers` threads loops: under the service lock it picks the
/// best ready *unit*, runs it outside the lock, then settles it and picks
/// again in the same lock hold. A unit is a standalone setup (compile,
/// construct, seed corpus), a step slice (`round_quantum` executions of the
/// campaign's suspended-pipeline stream), an island member's compile,
/// construct or step round (`exchange_interval` executions, drained), or a
/// finalize. A job with a unit running is never picked.
///
/// Pick order: a pending finalize first; otherwise deficit fair share per
/// slice. The tenant with the smallest ordering key wins, and its ready job
/// with the highest priority, then the lowest ticket, runs (that job also
/// breaks a tie between tenants). A step slice charges its executions to
/// the tenant's key and to the lifetime `stepped_quanta` STATS reports;
/// setup and finalize are free. A tenant going from no live job to one
/// starts at the smallest key among live tenants: idle time banks no
/// credit. So within one tenant a worker's next slice is usually the job it
/// just ran (keeping that thread's transaction memo), jobs of equal
/// priority complete in ticket order, and at most `workers` of the
/// tenant's campaigns exist at once.
///
/// An island group advances in phases: all compiles, all constructs, then
/// step rounds. The worker that settles a phase's last unit runs the
/// group's seed migration (after a step phase) and opens the next phase.
///
/// Poll() serves the snapshot from the job's last slice boundary. Cancel()
/// completes a never-started job at once; a running job stops at its next
/// slice boundary and finalizes a partial-but-valid result flagged
/// `cancelled`. Deadlines are checked at picks, at most once per
/// millisecond and only while some live job has one.
///
/// ## Determinism contract
///
/// A job's result is a pure function of its own `(config, seed, wave_size,
/// fanout)` — independent of submission order, what else is running, worker
/// count, scheduling, `round_quantum`, and other jobs being cancelled
/// around it. A streamed job parks its whole speculative parent set (all K
/// parents and their in-flight waves) across slice boundaries, and Cancel
/// drains that set — applying every submitted child in (parent rank, child
/// index) order — before finalizing the partial result.
/// An island member's result is a pure function of its *group's* jobs and
/// the (exchange_interval, migration_top_k) pair — members are coupled by
/// seed migration, by design, but never coupled to jobs outside the group.
/// Streamed standalone jobs reproduce the batch path (and a plain
/// RunCampaign call) bit for bit. CI checks all of this differentially.
///
/// ## Threads
///
/// Submit/Poll/Wait/Cancel are safe from any thread. Destruction cancels
/// whatever is still running (at its slice boundary) and joins.
class FuzzService {
 public:
  explicit FuzzService(ServiceOptions options = ServiceOptions());
  ~FuzzService();

  FuzzService(const FuzzService&) = delete;
  FuzzService& operator=(const FuzzService&) = delete;

  /// Admits one standalone job (FuzzJob::island_group is ignored). Fails —
  /// without admitting anything — on out-of-range config knobs: a job's
  /// `initial_seeds`, `async_workers`, `wave_size`, `fanout`, `base_energy`,
  /// `coverage_samples` or `mask_stride_divisor` outside its range (the
  /// kMax* limits above), negative `max_executions`, a
  /// `call_failure_probability` that is not a number in [0, 1], a `source`
  /// longer than kMaxSourceBytes, or negative `wave_size` /
  /// `backend_workers` / `migration_top_k` on the service options.
  Result<JobTicket> Submit(FuzzJob job);

  /// Admits `jobs` as one island archipelago: members run in lockstep
  /// rounds of `exchange_interval` executions and exchange their top
  /// `migration_top_k` seeds between rounds, with island ids assigned in
  /// submission order. All-or-nothing: validation failure (everything
  /// Submit checks, plus `exchange_interval` must be > 0 and the group
  /// non-empty) admits no member.
  Result<GroupTicket> SubmitIslandGroup(std::vector<FuzzJob> jobs);

  /// The job's latest between-slices snapshot (final one once done;
  /// `state == kUnknown` for a ticket this service never issued).
  JobProgress Poll(JobTicket ticket) const;

  /// Blocks until the job finished and returns its outcome. Idempotent —
  /// outcomes are retained for the service's lifetime, so waiting twice
  /// returns the same outcome again.
  JobOutcome Wait(JobTicket ticket);

  /// Blocks until every job submitted so far finished; returns all their
  /// outcomes in ticket order (idempotent, like Wait).
  std::vector<JobOutcome> WaitAll();

  /// Requests cancellation: the job stops at its next slice boundary and
  /// finalizes a partial-but-valid result flagged `cancelled`. A job
  /// cancelled before its campaign ever started completes with an *empty*
  /// result and an explanatory error instead (the JobOutcome contract:
  /// never-ran jobs can't be mistaken for zero-coverage rows). No-op on a
  /// finished (or unknown) ticket. Cancelling an island member removes it
  /// from stepping but keeps its seed queue in the group's migration
  /// rounds (exactly like a member that exhausted its budget), so the
  /// survivors' schedule stays well-formed.
  void Cancel(JobTicket ticket);

  /// Cancels every member of a group.
  void CancelGroup(const GroupTicket& group);

  /// Requests cancellation of every live job (the server-shutdown path:
  /// unblocks Wait()ers bounded by one slice and a finalize per job).
  void CancelAll();

  /// Starts the workers after a `start_paused` construction. Idempotent;
  /// no-op on a service that never paused.
  void Resume();

  /// Snapshot of the metrics plane (safe from any thread).
  ServiceStats Stats() const;

  /// Resolved worker-thread count.
  int workers() const { return workers_; }

  /// Session backends created so far (pool diagnostics).
  size_t sessions_created() const { return session_pool_.created(); }

 private:
  /// Internal job lifecycle (JobState is the public view).
  enum class Stage {
    kAdmitted,    ///< setup (standalone) or compile (island) pending
    kCompiled,    ///< island member compiled; waiting for the group sharder
    kConstruct,   ///< island member: construct + seed corpus pending
    kActive,      ///< stepping
    kFinalizing,  ///< queued for (or running) its finalize
    kDone,
  };

  struct GroupRecord;
  struct TenantRecord;

  struct JobRecord {
    JobTicket ticket = 0;
    FuzzJob job;
    fuzzer::CampaignConfig config;  ///< effective (service overrides applied)
    Stage stage = Stage::kAdmitted;
    bool cancel_requested = false;
    bool finalize_cancelled = false;  ///< finalize via the cancel path
    bool running = false;  ///< a worker holds one of its units
    JobProgress progress;
    JobOutcome outcome;
    double active_ms = 0;
    int rounds = 0;  ///< completed standalone step slices
    std::string tenant;  ///< resolved ("" mapped to "default")
    TenantRecord* tenant_record = nullptr;
    std::chrono::steady_clock::time_point admitted_at;
    bool deadline_hit = false;  ///< deadline expiry already counted

    // Filled by setup units.
    std::optional<lang::ContractArtifact> compiled;
    const lang::ContractArtifact* artifact = nullptr;
    std::unique_ptr<evm::SessionBackend> session;       ///< pooled lease
    std::unique_ptr<evm::AsyncBackendAdapter> adapter;  ///< hub binding
    std::unique_ptr<fuzzer::Campaign> campaign;

    // Island members only.
    GroupRecord* group = nullptr;
    fuzzer::SeedScheduler* queue = nullptr;  ///< owned by group->sharder
    int island_id = -1;
  };

  /// A tenant's ready jobs in pick order: higher priority, then lower
  /// ticket.
  struct ReadyOrder {
    bool operator()(const JobRecord* a, const JobRecord* b) const {
      return a->job.priority != b->job.priority
                 ? a->job.priority > b->job.priority
                 : a->ticket < b->ticket;
    }
  };

  struct GroupRecord {
    std::vector<JobRecord*> members;  ///< submission order
    std::unique_ptr<fuzzer::ShardedSeedScheduler> sharder;
    bool built = false;
    bool finished = false;
    bool stepped = false;  ///< a member stepped in the current phase
    int pending = 0;       ///< members owing a unit in the current phase
    int migration_rounds = 0;
    int open_members = 0;  ///< members not yet kDone
  };

  /// Per-tenant accounting: admission counters for the metrics plane, the
  /// fair-share ordering key, and the tenant's ready jobs.
  struct TenantRecord {
    uint64_t submitted = 0;
    uint64_t admitted = 0;
    uint64_t rejected = 0;
    uint64_t completed = 0;
    uint64_t cancelled = 0;
    uint64_t deadline_hits = 0;
    uint64_t completed_executions = 0;
    uint64_t stepped_quanta = 0;  ///< lifetime charge (STATS)
    uint64_t share_key = 0;       ///< fair-share ordering key
    size_t live = 0;
    std::set<JobRecord*, ReadyOrder> ready;
  };

  /// One worker thread: pick, run, settle, repeat until stopped and idle.
  void WorkerMain();
  /// Picks the job whose next unit runs and marks it running (requires
  /// mu_); null when paused or nothing is ready. The job's stage names the
  /// unit: kAdmitted a setup (standalone) or compile (island member),
  /// kConstruct a construct, kActive a step slice, kFinalizing a finalize.
  JobRecord* PickLocked();
  /// Runs the job's unit with no lock held; touches only its own record.
  void RunUnit(JobRecord* r);
  /// Applies a finished unit (requires mu_): snapshots, stage changes,
  /// group phases, completion.
  void SettleLocked(JobRecord* r);

  // Unit bodies (no lock held).
  /// Adopts the job's pre-compiled artifact or compiles its source; on
  /// failure leaves `artifact` null with the diagnostics in
  /// `outcome.error`.
  void ResolveArtifact(JobRecord* r);
  /// Binds a backend, constructs the campaign and runs its seed corpus.
  void StartCampaign(JobRecord* r);
  void FinalizeJob(JobRecord* r);

  // Ready bookkeeping (all require mu_).
  void MakeReadyLocked(JobRecord* r);
  void QueueFinalizeLocked(JobRecord* r, bool cancelled);
  /// After a standalone setup or slice: finalize if finished or
  /// cancelled, else ready for its next slice.
  void ContinueStandaloneLocked(JobRecord* r);
  /// Marks one of the group's current-phase units settled; the last one
  /// advances the group.
  void PhaseUnitDoneLocked(GroupRecord* group);
  /// Ends a group phase: builds the sharder or runs a migration, then
  /// opens the next phase or finishes the group.
  void AdvanceGroupLocked(GroupRecord* group);
  void BuildSharderLocked(GroupRecord* group);
  /// Sets cancel_requested and applies it at once when no unit of the job
  /// is running; a running job applies it when the unit settles.
  void RequestCancelLocked(JobRecord* r);

  void SnapshotProgressLocked(JobRecord* r);
  void MarkDoneLocked(JobRecord* r);
  /// Completes a job that was cancelled before its campaign ever ran:
  /// empty-but-valid result, flagged cancelled.
  void CancelBeforeStartLocked(JobRecord* r);
  Status ValidateSubmission(const FuzzJob& job) const;
  fuzzer::CampaignConfig EffectiveConfig(const FuzzJob& job) const;
  /// All-or-nothing admission gate: checks the global and per-tenant
  /// live-job bounds for `per_tenant` more jobs, counting the attempts
  /// (and any rejection) in the metrics plane.
  Status AdmitLocked(const std::map<std::string, size_t>& per_tenant);
  /// Counts `incoming` admitted jobs live for `tenant`; a tenant going
  /// from none to some starts at the smallest live tenant's share key.
  void GoLiveLocked(TenantRecord* tenant, size_t incoming);
  /// Builds, registers and readies one admitted job's record.
  JobRecord* AddRecordLocked(FuzzJob job, std::string tenant,
                             GroupRecord* group);
  /// Cancels every live job whose deadline has expired.
  void SweepDeadlinesLocked(std::chrono::steady_clock::time_point now);
  /// Finished + live-snapshot executions across all jobs.
  uint64_t TotalExecutionsLocked() const {
    return completed_executions_ + live_executions_;
  }
  /// Appends a throughput sample (at most one per millisecond) and emits
  /// the periodic metrics log line.
  void SampleLocked(std::chrono::steady_clock::time_point now);
  ServiceStats StatsLocked() const;

  ServiceOptions options_;
  int workers_ = 1;
  evm::SessionPool session_pool_;
  std::unique_ptr<evm::AsyncExecutionHub> hub_;  ///< shared pipelined mode

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  ///< idle workers: new ready work / stop
  std::condition_variable done_cv_;  ///< waiters: a job reached kDone
  std::map<JobTicket, std::unique_ptr<JobRecord>> jobs_;
  std::vector<std::unique_ptr<GroupRecord>> groups_;
  /// Records not yet kDone (jobs_ retains outcomes for Wait-idempotence).
  std::map<JobTicket, JobRecord*> live_jobs_;
  /// Tenants with live jobs: what a pick scans.
  std::vector<TenantRecord*> live_tenants_;
  /// Jobs whose next unit is a finalize, picked before any slice.
  std::deque<JobRecord*> finals_;
  size_t ready_units_ = 0;  ///< ready-set entries + finals_
  int idle_workers_ = 0;    ///< workers waiting on work_cv_
  JobTicket next_ticket_ = 1;
  bool stop_ = false;
  bool paused_ = false;  ///< start_paused and Resume() not called yet
  /// Live jobs whose deadline has not fired; deadlines are swept only
  /// while this is non-zero.
  size_t deadline_jobs_ = 0;
  std::chrono::steady_clock::time_point last_deadline_sweep_;

  // Metrics plane (all guarded by mu_). tenants_ is insert-only: a tenant's
  // counters survive its last job so STATS stays a lifetime view.
  std::map<std::string, TenantRecord> tenants_;
  uint64_t submitted_total_ = 0;
  uint64_t admitted_total_ = 0;
  uint64_t rejected_global_ = 0;
  uint64_t rejected_tenant_ = 0;
  uint64_t completed_total_ = 0;
  uint64_t cancelled_total_ = 0;
  uint64_t deadline_hits_ = 0;
  uint64_t completed_executions_ = 0;
  uint64_t live_executions_ = 0;  ///< sum of live jobs' snapshots
  uint64_t slices_ = 0;           ///< settled step slices
  /// (time, total executions) ring for the executions/s window.
  std::deque<std::pair<std::chrono::steady_clock::time_point, uint64_t>>
      rate_samples_;
  std::chrono::steady_clock::time_point last_metrics_log_;

  std::vector<std::thread> threads_;
};

}  // namespace mufuzz::engine

#endif  // MUFUZZ_ENGINE_FUZZ_SERVICE_H_
