#ifndef MUFUZZ_EVM_ASYNC_BACKEND_H_
#define MUFUZZ_EVM_ASYNC_BACKEND_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/worker_pool.h"
#include "evm/execution_backend.h"

namespace mufuzz::evm {

class AsyncBackendAdapter;

/// The shared half of asynchronous execution: a bounded plan queue drained
/// by a fixed set of worker threads. Hubs carry no campaign state — each
/// queued job names the AsyncBackendAdapter (the per-campaign binding) it
/// belongs to, and worker `w` executes it on that adapter's `w`-th session
/// replica. One hub can therefore serve any number of concurrently
/// pipelined campaigns with a single set of execution threads, instead of
/// every campaign spawning its own (the FuzzService path); an adapter
/// constructed without a hub owns a private one, which is exactly the
/// pre-hub per-campaign behavior.
///
/// Determinism: a plan's outcome depends only on the plan and its adapter's
/// replicas (which start identical — see AsyncBackendAdapter), never on
/// which worker runs it or how jobs from different adapters interleave in
/// the queue. Adapters return outcomes in submission order. This holds
/// with any number of batches outstanding per adapter: a campaign running
/// a speculative K-parent round keeps K tickets in flight at once, and the
/// hub freely interleaves their jobs (and other campaigns') across its
/// workers — every plan executes on its replica as if rewound to the
/// deployed journal mark, so per-child state is an isolated journal fork
/// and cross-wave ordering can never leak into outcomes.
///
/// Lifetime: the hub must outlive every adapter bound to it, and all
/// adapters must be idle (every ticket redeemed) at destruction.
class AsyncExecutionHub {
 public:
  struct Options {
    int workers = 2;
    /// Plans the queue holds before SubmitBatch blocks (shared across all
    /// adapters — concurrent campaigns backpressure each other instead of
    /// growing the queue without bound). <= 0 picks 4 * workers.
    int queue_capacity = 0;
  };

  /// `pool` (optional, caller-owned, must outlive the hub) supplies the
  /// adapters' SessionBackends; without it adapters own fresh sessions.
  explicit AsyncExecutionHub(Options options, SessionPool* pool = nullptr);
  ~AsyncExecutionHub();

  AsyncExecutionHub(const AsyncExecutionHub&) = delete;
  AsyncExecutionHub& operator=(const AsyncExecutionHub&) = delete;

  int worker_count() const { return options_.workers; }
  SessionPool* session_pool() const { return session_pool_; }

  /// Plans queued but not yet picked up by a worker — the metrics plane's
  /// backlog view (a full queue means submitters are backpressured).
  size_t queue_depth() const;
  /// Resolved submission-queue capacity bound.
  size_t queue_capacity() const { return static_cast<size_t>(options_.queue_capacity); }

 private:
  friend class AsyncBackendAdapter;

  /// One in-flight batch: plans are pinned here (jobs point into them)
  /// until WaitBatch collects the outcomes. `completed` is guarded by the
  /// hub mutex.
  struct Batch {
    std::vector<SequencePlan> plans;
    std::vector<SequenceOutcome> outcomes;
    size_t completed = 0;
  };

  struct Job {
    const SequencePlan* plan = nullptr;
    SequenceOutcome* slot = nullptr;
    Batch* batch = nullptr;
    AsyncBackendAdapter* owner = nullptr;  ///< replica lookup per worker
  };

  void WorkerLoop(size_t index);
  /// Enqueues every job of `batch` for `owner` under the capacity bound.
  void SubmitJobs(AsyncBackendAdapter* owner, Batch* batch);
  /// Blocks until `batch` completed; hub mutex held by caller via `lock`.
  void AwaitBatch(std::unique_lock<std::mutex>& lock, Batch* batch);

  Options options_;
  SessionPool* session_pool_;
  WorkerPool threads_;

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;     ///< workers: job available / stop
  std::condition_variable capacity_cv_;  ///< submitters: queue has room
  std::condition_variable done_cv_;      ///< waiters: batch / adapter idle
  std::condition_variable exited_cv_;    ///< destructor: loops drained
  std::deque<Job> queue_;
  int running_loops_ = 0;
  bool stop_ = false;
};

/// An ExecutionBackend that ships plans to an AsyncExecutionHub's worker
/// threads. The adapter owns one SessionBackend replica per hub worker
/// (leased from the hub's optional shared SessionPool), each bound to its
/// own Host replica (Host::CloneForWorker) with the same contract deployed
/// and rewound per sequence — so any worker produces the identical outcome
/// for a given SequencePlan and results are bit-for-bit independent of the
/// worker count and of completion order (WaitBatch returns submission
/// order).
///
/// This is the in-process stand-in for the ROADMAP's out-of-process /
/// accelerator-hosted EVM: the campaign already speaks plans and tickets,
/// so swapping the transport later is a backend-only change.
///
/// Threading contract: Bind/Unbind/DeployContract/FundAccount/MarkDeployed/
/// Rewind/state() are setup-phase calls — they must not race SubmitBatch
/// and may only run while no batch is in flight (the adapter aborts on
/// violations it can detect). SubmitBatch/WaitBatch belong to a single
/// client thread per adapter (the campaign that owns the binding); distinct
/// adapters on one hub may submit concurrently. SubmitBatch blocks while
/// the hub queue is at capacity, which backpressures a planner that outruns
/// execution.
///
/// Multi-ticket contract (what the speculative fan-out loop relies on):
/// one client thread may hold any number of unredeemed tickets — a
/// K-parent campaign submits one wave per parent before redeeming any —
/// and WaitBatch may redeem them in any order; each ticket is redeemable
/// exactly once and returns that batch's outcomes in its own submission
/// order. Setup calls remain forbidden until every ticket is redeemed
/// (CheckIdle counts all of them).
class AsyncBackendAdapter : public ExecutionBackend {
 public:
  using Options = AsyncExecutionHub::Options;

  /// Private-hub mode: the adapter owns an AsyncExecutionHub with these
  /// options — the one-campaign-one-backend path. `pool` (optional,
  /// caller-owned, must outlive the adapter) supplies the session replicas.
  explicit AsyncBackendAdapter(Options options, SessionPool* pool = nullptr);
  AsyncBackendAdapter();

  /// Shared-hub mode: execution threads, queue, and session pool all come
  /// from `hub` (caller-owned, must outlive the adapter) — the FuzzService
  /// path, where one hub serves every pipelined campaign.
  explicit AsyncBackendAdapter(AsyncExecutionHub* hub);

  ~AsyncBackendAdapter() override;

  /// Creates the per-worker replicas: each gets host->CloneForWorker()
  /// (aborts if the host is not clonable — async execution requires
  /// sequence-pure hosts) and a freshly bound session.
  void Bind(Host* host, BlockContext block = BlockContext(),
            EvmConfig config = EvmConfig()) override;
  void Unbind() override;

  /// Deploys on every worker session and verifies they agree on the
  /// resulting address (they must — deployment is deterministic and the
  /// replicas start identical).
  Result<Address> DeployContract(const Bytes& runtime_code,
                                 const Bytes& ctor_code,
                                 const Bytes& ctor_args,
                                 const Address& deployer,
                                 const U256& value) override;

  void FundAccount(const Address& addr, const U256& balance) override;
  void MarkDeployed() override;
  void Rewind() override;

  SequenceOutcome ExecuteSequence(const SequencePlan& plan) override;
  std::vector<SequenceOutcome> ExecuteSequenceBatch(
      std::span<const SequencePlan> plans) override;
  BatchTicket SubmitBatch(std::vector<SequencePlan> plans) override;
  std::vector<SequenceOutcome> WaitBatch(BatchTicket ticket) override;

  int worker_count() const override {
    return static_cast<int>(workers_.size());
  }

  /// Aggregates over the distinct caches behind the replicas. Typically all
  /// replicas share the process-wide cache and this degenerates to one
  /// snapshot — but a config that gives workers private caches used to have
  /// every non-worker-0 counter silently dropped here.
  CodeCacheStats code_cache_stats() const override;
  /// Summed over the replicas (each caches the plans it executed).
  PrefixCacheStats prefix_cache_stats() const override;

  /// Worker 0's world state. Setup ops fan out identically, but after
  /// execution each worker carries the residue of the last plan it
  /// happened to run — call Rewind() first (as Campaign::Finalize does)
  /// for a canonical, scheduling-independent view.
  const WorldState& state() const override;

  bool bound() const { return bound_; }

  /// Unredeemed batch tickets — the speculative waves currently in flight.
  /// Client-thread view (the same thread that submits and waits), so it
  /// needs no lock.
  size_t inflight_batches() const { return batches_.size(); }

 private:
  friend class AsyncExecutionHub;

  struct Worker {
    std::unique_ptr<Host> host;
    std::unique_ptr<SessionBackend> backend;
  };

  /// Aborts unless idle (no queued jobs, no in-flight batches).
  void CheckIdle(const char* op) const;
  void CheckBound(const char* op) const;

  std::unique_ptr<AsyncExecutionHub> owned_hub_;  ///< private-hub mode
  AsyncExecutionHub* hub_;

  std::vector<Worker> workers_;
  bool bound_ = false;

  /// Unredeemed batches. Mutated only by the adapter's client thread;
  /// Batch::completed (and `in_flight_`) are guarded by the hub mutex.
  std::map<BatchTicket, std::unique_ptr<AsyncExecutionHub::Batch>> batches_;
  /// Redeemed Batch shells kept warm for the next SubmitBatch (their plan /
  /// outcome vector capacity survives). Client-thread only, bounded.
  std::vector<std::unique_ptr<AsyncExecutionHub::Batch>> batch_pool_;
  BatchTicket next_async_ticket_ = 1;
  size_t in_flight_ = 0;  ///< this adapter's jobs queued or executing
};

}  // namespace mufuzz::evm

#endif  // MUFUZZ_EVM_ASYNC_BACKEND_H_
