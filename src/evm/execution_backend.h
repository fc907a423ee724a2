#ifndef MUFUZZ_EVM_EXECUTION_BACKEND_H_
#define MUFUZZ_EVM_EXECUTION_BACKEND_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "evm/code_cache.h"
#include "evm/executor.h"
#include "evm/trace.h"

namespace mufuzz::evm {

/// One transaction of a planned sequence. `tag` is an opaque caller label
/// carried through to the matching TxOutcome (the fuzzer stores the
/// transaction's position in the un-encoded sequence, so feedback indexes
/// stay correct when unencodable entries were skipped at planning time).
struct PreparedTx {
  TransactionRequest request;
  int tag = 0;
};

/// A fully encoded, self-contained unit of execution work: every transaction
/// of one sequence plus the per-sequence environment seed the backend passes
/// to Host::OnSequenceStart. Plans carry no pointers into fuzzer state, so
/// they can be queued, shipped to worker threads, and executed in any order.
struct SequencePlan {
  uint64_t host_seed = 0;
  std::vector<PreparedTx> txs;
};

/// What one transaction of a sequence produced. A self-contained value: the
/// full event trace and the comparison records BranchEvent::cmp_id indexes
/// into are copied out of the interpreter, so outcomes survive the backend
/// moving on to other work (unlike the retired trace()-accessor contract,
/// which exposed a mutable accumulator valid only until the next Execute).
struct TxOutcome {
  int tag = 0;
  bool success = false;
  Outcome outcome = Outcome::kSuccess;
  uint64_t gas_used = 0;
  TraceRecorder trace;
  std::vector<CmpRecord> cmps;
  /// Identity of the memo record this outcome was served from, or that its
  /// execution created; 0 when neither (see SessionBackend). Equal nonzero
  /// ids mean equal trace, cmps and success. Ids are never reused.
  uint64_t record_id = 0;

  /// One oversized sequence must not pin its peak buffers in the recycle
  /// pools forever; anything past this per-vector capacity is released.
  static constexpr size_t kMaxRetainedEvents = 1 << 14;

  /// Clears payload but keeps (bounded) heap capacity so a recycled outcome
  /// records the next transaction without reallocating.
  void ResetForReuse() {
    tag = 0;
    success = false;
    outcome = Outcome::kSuccess;
    gas_used = 0;
    record_id = 0;
    trace.Clear();
    trace.ShrinkIfOversized(kMaxRetainedEvents);
    cmps.clear();
    if (cmps.capacity() > kMaxRetainedEvents) cmps.shrink_to_fit();
  }
};

/// Everything one executed SequencePlan produced, in transaction order.
struct SequenceOutcome {
  std::vector<TxOutcome> txs;
  /// Instructions summed over all transactions.
  uint64_t instructions = 0;
  /// Warm TxOutcome slots parked when a shorter sequence reuses this
  /// outcome; ResetForReuse pulls from here before allocating fresh slots,
  /// so varying sequence lengths don't defeat recycling.
  std::vector<TxOutcome> spare_txs;

  /// Re-shapes the outcome for `tx_count` transactions, recycling every
  /// transaction slot's trace/cmp capacity.
  void ResetForReuse(size_t tx_count) {
    while (txs.size() > tx_count) {
      spare_txs.push_back(std::move(txs.back()));
      txs.pop_back();
    }
    while (txs.size() < tx_count) {
      if (!spare_txs.empty()) {
        txs.push_back(std::move(spare_txs.back()));
        spare_txs.pop_back();
      } else {
        txs.emplace_back();
      }
    }
    for (TxOutcome& t : txs) t.ResetForReuse();
    instructions = 0;
  }
};

/// Transactions a backend ran through the interpreter versus served from
/// its transaction memo (see SessionBackend). Diagnostics only: reuse
/// depends on which plans shared a thread, never on what outcomes say.
struct PrefixCacheStats {
  uint64_t executed_txs = 0;
  /// Outcomes served from the memo instead of executing.
  uint64_t served_txs = 0;

  PrefixCacheStats& operator+=(const PrefixCacheStats& o) {
    executed_txs += o.executed_txs;
    served_txs += o.served_txs;
    return *this;
  }
};

/// The execution substrate a fuzzing campaign drives: deploy once, mark the
/// deployed state, then execute arbitrarily many sequence plans, each as if
/// from a fresh rewind of the mark. Pulling this behind an interface keeps the
/// fuzzer layer ignorant of how state is hosted (an in-process ChainSession,
/// a pool of worker sessions behind a queue, or an out-of-process EVM later)
/// and lets worker pools recycle sessions between jobs.
///
/// Execution is plan-in / outcome-out: callers hand over self-contained
/// SequencePlans and receive self-contained SequenceOutcomes. The mutable
/// "trace of the most recent Execute (and anything since)" accessors are
/// gone from this interface — that contract cannot survive concurrency.
///
/// Ordering contract: ExecuteSequenceBatch and SubmitBatch/WaitBatch return
/// outcomes in submission order, and every plan is executed as if rewound
/// to the MarkDeployed point (host re-armed via OnSequenceStart), so the
/// outcome of plan i is independent of the other plans in the batch, of
/// batch boundaries, and of which worker executes it.
class ExecutionBackend {
 public:
  virtual ~ExecutionBackend() = default;

  /// Rebinds the backend to `host` and discards all session state. A backend
  /// must be bound before any other call; rebinding starts a fresh
  /// deploy-once/rewind-many cycle (the pool-reuse path).
  virtual void Bind(Host* host, BlockContext block = BlockContext(),
                    EvmConfig config = EvmConfig()) = 0;

  /// Drops the session and every reference to the host it was bound to.
  /// Campaigns unbind non-owned backends on destruction (their host dies
  /// with them), and the pool unbinds on Release, so a recycled backend can
  /// never reach a dead host.
  virtual void Unbind() = 0;

  /// Deploys a contract (see ChainSession::Deploy).
  virtual Result<Address> DeployContract(const Bytes& runtime_code,
                                         const Bytes& ctor_code,
                                         const Bytes& ctor_args,
                                         const Address& deployer,
                                         const U256& value) = 0;

  virtual void FundAccount(const Address& addr, const U256& balance) = 0;

  /// Marks the current session state (world state + block context) as the
  /// point every sequence plan starts from. Typically called right after
  /// deployment. O(1) in the in-process backend (a journal mark).
  virtual void MarkDeployed() = 0;

  /// Rewinds to the MarkDeployed() point. Sequence execution rewinds
  /// implicitly per plan; this exists for setup code and tests. Cost is
  /// proportional to the state touched since the mark (journal unwind).
  virtual void Rewind() = 0;

  /// Executes one plan as if from a fresh rewind: arms the host
  /// (OnSequenceStart(plan.host_seed), then OnTransactionStart per tx) and
  /// applies each transaction, collecting a self-contained outcome.
  /// Executing before MarkDeployed marks the current state implicitly.
  virtual SequenceOutcome ExecuteSequence(const SequencePlan& plan) = 0;

  /// Executes one plan into a caller-provided outcome slot, reusing its heap
  /// capacity. Semantically identical to `*out = ExecuteSequence(plan)`; the
  /// in-process backend overrides it with a swap-based implementation that
  /// makes the steady-state hot path allocation-free.
  virtual void ExecuteSequenceInto(const SequencePlan& plan,
                                   SequenceOutcome* out) {
    *out = ExecuteSequence(plan);
  }

  /// Executes `plans` and returns their outcomes in submission order.
  /// Default: a serial loop over ExecuteSequence; concurrent backends
  /// override (or inherit via SubmitBatch) and may execute out of order —
  /// the returned vector is always in submission order.
  virtual std::vector<SequenceOutcome> ExecuteSequenceBatch(
      std::span<const SequencePlan> plans);

  /// Handle for an in-flight batch.
  using BatchTicket = uint64_t;

  /// Submits a batch for (possibly asynchronous) execution and returns a
  /// ticket to redeem with WaitBatch. Any number of tickets may be
  /// outstanding at once — the speculative fan-out loop keeps one wave per
  /// parent in flight — and implementations must not require redemption in
  /// submission order. The default implementation executes synchronously at
  /// submit time and stashes the outcomes, which makes the pipelined
  /// campaign loop run unmodified — and bit-for-bit identically — over a
  /// plain in-process backend.
  virtual BatchTicket SubmitBatch(std::vector<SequencePlan> plans);

  /// Blocks until the ticket's batch completed and returns its outcomes in
  /// submission order. Each ticket may be redeemed exactly once, in any
  /// order relative to other outstanding tickets.
  virtual std::vector<SequenceOutcome> WaitBatch(BatchTicket ticket);

  /// Returns redeemed outcome buffers to the backend's reuse pool; the next
  /// SubmitBatch draws warm buffers from it instead of allocating. Client
  /// thread only (the thread that calls SubmitBatch/WaitBatch), so the pools
  /// need no locking. Pools are bounded; excess buffers are simply freed.
  void RecycleOutcomes(std::vector<SequenceOutcome> outcomes);

  /// Hands back the plans of a recently redeemed batch so the planner can
  /// reuse their encoded-calldata capacity. Empty when none are stashed.
  /// Client thread only.
  std::vector<SequencePlan> TakeSpentPlans();

  /// Execution workers behind this backend (1 for in-process backends);
  /// callers may use it to size waves.
  virtual int worker_count() const { return 1; }

  /// Counters of the code cache this backend decodes through (zeros when
  /// unbound). Observability only: the cache is typically the process-wide
  /// one, so hits/misses aggregate across every session sharing it.
  virtual CodeCacheStats code_cache_stats() const { return {}; }

  /// Transaction-memo counters since Bind (zeros for backends without one).
  virtual PrefixCacheStats prefix_cache_stats() const { return {}; }

  virtual const WorldState& state() const = 0;

 protected:
  /// Draws a warm outcome buffer of exactly `n` elements from the recycle
  /// pool (allocating only what the pool can't supply). Client thread only.
  std::vector<SequenceOutcome> AcquireOutcomeBuffer(size_t n);
  /// Parks a redeemed batch's plans for TakeSpentPlans. Client thread only.
  void StashSpentPlans(std::vector<SequencePlan> plans);

  /// Stash for the synchronous SubmitBatch/WaitBatch default.
  struct PendingBatch {
    BatchTicket ticket = 0;
    std::vector<SequencePlan> plans;
    std::vector<SequenceOutcome> outcomes;
  };
  std::vector<PendingBatch> pending_;
  BatchTicket next_ticket_ = 1;

 private:
  /// Caps every recycle pool; beyond this, buffers are dropped on the floor
  /// (correctness never depends on recycling).
  static constexpr size_t kMaxPooledBuffers = 16;

  std::vector<std::vector<SequenceOutcome>> outcome_pool_;
  std::vector<SequenceOutcome> spare_outcomes_;
  std::vector<std::vector<SequencePlan>> spent_plans_;
};

/// In-process backend: a ChainSession plus a TraceRecorder wired as its
/// observer (both internal — outcomes are copied out per transaction).
/// Bind() reconstructs the session in place, so one SessionBackend can serve
/// many campaigns back to back without reallocation churn at the call sites
/// that hold it.
///
/// Transaction memo. Mutated siblings and mask probes run the same
/// transaction on the same state again and again, whatever ran before it,
/// so every transaction is looked up before it executes:
///  - The key is what the outcome depends on within one Bind: the world
///    state's 128-bit fingerprint (WorldState::fingerprint), the block
///    number and timestamp, and the full request. A key seen twice is
///    recorded, with its TxOutcome and a redo delta of its state writes
///    (most keys never recur, and recording costs a copy). Serving it
///    copies the outcome and replays the writes through the journaled
///    setters, so the next restore undoes them like executed writes; the
///    host still sees OnSequenceStart and one OnTransactionStart per
///    transaction.
///  - Each record has an id, (memo generation, heap offset), that the
///    outcome which created it and every outcome served from it carry in
///    TxOutcome::record_id, so consumers can skip work they already did
///    for it.
///  - A transaction that reached the host (a CallEvent with `to_external`)
///    is never recorded: its outcome depends on the plan's host seed. The
///    transactions after it still are, since their keys carry the state
///    the host call left behind. Nor is one whose writes install code.
///  - Entries live in a per-thread memo of 256 KB (a 4096-slot index
///    holding at most 2048 keys, and a 192 KB record heap) that is flushed
///    when full. A backend owns it by a generation id, bumped on Bind/
///    Unbind/DeployContract/FundAccount/MarkDeployed/Rewind and on every
///    claim, so a stale memo never matches. Memory scales with executing
///    threads, not with leased backends.
class SessionBackend : public ExecutionBackend {
 public:
  /// Constructs an unbound backend (the pool path); call Bind() before use.
  SessionBackend() = default;

  /// Convenience: constructs and binds in one step.
  explicit SessionBackend(Host* host, BlockContext block = BlockContext(),
                          EvmConfig config = EvmConfig());

  void Bind(Host* host, BlockContext block = BlockContext(),
            EvmConfig config = EvmConfig()) override;
  void Unbind() override;

  Result<Address> DeployContract(const Bytes& runtime_code,
                                 const Bytes& ctor_code,
                                 const Bytes& ctor_args,
                                 const Address& deployer,
                                 const U256& value) override;

  void FundAccount(const Address& addr, const U256& balance) override;
  void MarkDeployed() override;
  void Rewind() override;
  SequenceOutcome ExecuteSequence(const SequencePlan& plan) override;
  /// The allocation-free primitive: trace buffers ping-pong between the
  /// internal recorder and the outcome slot via swap, and comparison records
  /// are stolen from the interpreter instead of copied.
  void ExecuteSequenceInto(const SequencePlan& plan,
                           SequenceOutcome* out) override;

  CodeCacheStats code_cache_stats() const override;
  PrefixCacheStats prefix_cache_stats() const override;

  const WorldState& state() const override;

  bool bound() const { return session_.has_value(); }
  /// Escape hatch for callers that need the raw session (tests, tooling).
  ChainSession& session() { return *session_; }
  /// The cache this backend's interpreter decodes (and JIT-compiles)
  /// through; nullptr when unbound. Adapters aggregating stats across
  /// replicas use the identity to avoid double-counting a shared cache.
  const CodeCache* code_cache() const;

 private:
  /// Aborts with a diagnostic when used before Bind() — a contract
  /// violation that must not degrade to silent UB in release builds.
  void CheckBound() const;
  /// Forgets the transaction memo: the next plan claims a flushed one.
  void InvalidateMemo();

  TraceRecorder trace_;
  Host* host_ = nullptr;
  std::optional<ChainSession> session_;
  ChainSession::SessionSnapshot deployed_{};
  bool marked_ = false;  ///< MarkDeployed ran since Bind

  WorldState::Delta delta_;  ///< scratch: the last executed tx's writes
  std::vector<WorldState::Delta::Write> writes_;  ///< scratch: a replay
  uint64_t generation_ = 0;  ///< id this backend claims its memo by
  /// Atomic: progress snapshots may read them while an async worker
  /// executes a parked wave.
  std::atomic<uint64_t> executed_txs_{0};
  std::atomic<uint64_t> served_txs_{0};
};

/// Thread-safe pool of reusable SessionBackends. Workers lease a backend for
/// the lifetime of a job (or a whole job stream) and return it afterwards;
/// leased backends come back unbound-in-spirit — the next campaign's Bind()
/// wipes them — so recycling never leaks state across jobs.
class SessionPool {
 public:
  SessionPool() = default;

  /// Leases a backend: a recycled one when available, otherwise fresh.
  /// `rng` (optional, worker-local) picks among free slots; it never
  /// influences execution results.
  std::unique_ptr<SessionBackend> Acquire(Rng* rng = nullptr);

  /// Returns a leased backend to the pool.
  void Release(std::unique_ptr<SessionBackend> backend);

  size_t created() const;
  size_t pooled() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SessionBackend>> free_;
  size_t created_ = 0;
};

}  // namespace mufuzz::evm

#endif  // MUFUZZ_EVM_EXECUTION_BACKEND_H_
