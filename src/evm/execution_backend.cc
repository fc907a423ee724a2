#include "evm/execution_backend.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <type_traits>
#include <utility>

namespace mufuzz::evm {

namespace {

/// Source of the generation ids backends claim arenas by; ids are never
/// reused, and 0 is never handed out.
std::atomic<uint64_t> g_next_generation{1};

uint64_t NextGeneration() { return g_next_generation++; }

/// Word-at-a-time hash of every request field: the cheap pre-check that
/// keeps probes from touching record payloads.
uint64_t RequestHash(const TransactionRequest& r) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  auto word = [&h](uint64_t w) {
    h = (h ^ w) * 0xff51afd7ed558ccdULL;
    h ^= h >> 32;
  };
  auto bytes = [&word](const uint8_t* p, size_t n) {
    word(n);
    for (; n >= 8; p += 8, n -= 8) {
      uint64_t w;
      std::memcpy(&w, p, 8);
      word(w);
    }
    if (n != 0) {
      uint64_t w = 0;
      std::memcpy(&w, p, n);
      word(w);
    }
  };
  bytes(r.to.bytes.data(), r.to.bytes.size());
  bytes(r.sender.bytes.data(), r.sender.bytes.size());
  for (int i = 0; i < 4; ++i) word(r.value.limb(i));
  word(r.gas);
  bytes(r.data.data(), r.data.size());
  return h;
}

/// True when the transaction called out to the host. Such a transaction's
/// outcome depends on the plan's host seed, so it is never memoized.
bool ReachedHost(const TraceRecorder& trace) {
  for (const CallEvent& ev : trace.calls()) {
    if (ev.to_external) return true;
  }
  return false;
}

/// Everything a transaction's outcome depends on within one backend
/// generation (which fixes the host, the EvmConfig and the rest of the
/// block context): the world state it starts from, the block it runs in,
/// and the request. The request itself is compared byte for byte on a
/// hit; `request_hash` only steers the probe.
struct TxKey {
  StateFingerprint state;
  uint64_t block_number = 0;
  uint64_t timestamp = 0;
  uint64_t request_hash = 0;

  /// The 64 bits the index probes with.
  uint64_t Summary() const {
    uint64_t h = request_hash;
    for (uint64_t w : {state.lo, state.hi, block_number, timestamp}) {
      h = (h ^ w) * 0xff51afd7ed558ccdULL;
      h ^= h >> 32;
    }
    return h;
  }
};

/// The per-thread transaction memo: an open-addressing index of
/// transactions keyed by TxKey. An entry is first only an index slot (the
/// key was sighted once); recording packs the key, request, outcome and
/// redo writes into one fixed heap, so an entry costs exactly its bytes,
/// the steady state never allocates, and a flush just bumps an epoch and
/// resets the bump pointer.
///
/// Only the state fingerprint is probabilistic: block and request are
/// compared exactly on a hit. With at most kMaxEntries recorded keys in an
/// arena and the 128-bit fingerprint behaving as a random function of the
/// state, a lookup falsely matches a different state with probability
/// below 2048 * 2^-128 < 2^-100. An arena belongs to one backend
/// generation at a time, so a job only ever meets its own entries.
class TxMemo {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;
  static constexpr size_t kMaxEntries = 2048;
  static constexpr size_t kSlots = 2 * kMaxEntries;  ///< load stays <= 1/2
  static constexpr size_t kHeapBytes = 192 << 10;
  /// A transaction bigger than this is not recorded at all.
  static constexpr size_t kMaxRecordBytes = kHeapBytes / 16;

  static TxMemo& ForThisThread() {
    thread_local TxMemo memo;
    return memo;
  }

  uint64_t owner() const { return owner_; }
  /// Set once Sight or Record found no room; the next plan flushes.
  bool full() const { return full_; }

  /// Flushes every entry and hands the memo to `owner`.
  void Claim(uint64_t owner) {
    if (heap_ == nullptr) {
      heap_ = std::make_unique_for_overwrite<std::byte[]>(kHeapBytes);
      slots_ = std::make_unique<Slot[]>(kSlots);
    }
    if (++epoch_ == 0) {  // wrapped: stale slots could look live again
      std::fill_n(slots_.get(), kSlots, Slot{});
      epoch_ = 1;
    }
    owner_ = owner;
    full_ = false;
    top_ = 0;
    entries_ = 0;
  }

  /// Where a key lives in the index: its slot when `found`, otherwise the
  /// empty slot Sight would claim.
  struct Probe {
    uint32_t slot = 0;
    bool found = false;
  };

  Probe Find(const TxKey& key, const TransactionRequest& request) const {
    const uint64_t summary = key.Summary();
    for (size_t i = summary & (kSlots - 1);; i = (i + 1) & (kSlots - 1)) {
      const Slot& s = slots_[i];
      if (s.epoch != epoch_) return {static_cast<uint32_t>(i), false};
      // A sighted-only slot matches on the summary: a false match only
      // records a transaction on its first run.
      if (s.summary == summary &&
          (s.offset == kNone || SameKey(s.offset, key, request))) {
        return {static_cast<uint32_t>(i), true};
      }
    }
  }

  /// Whether the slot holds an outcome (else it was only sighted once).
  bool recorded(uint32_t slot) const { return slots_[slot].offset != kNone; }

  /// The recorded slot's TxOutcome::record_id: the owner generation above
  /// the record's 8-byte heap offset, plus one so it is never 0. Records
  /// never move and generations are never reused, so no two records ever
  /// share an id (a generation would need 2^48 claims to reach the top).
  uint64_t RecordId(uint32_t slot) const {
    static_assert(kHeapBytes / 8 < (1 << kOffsetBits));
    return (owner_ << kOffsetBits) | ((slots_[slot].offset >> 3) + 1);
  }

  /// Notes a first sighting of `key` in the empty slot a Find returned.
  void Sight(uint32_t slot, const TxKey& key) {
    if (entries_ == kMaxEntries) {
      full_ = true;
      return;
    }
    slots_[slot] = Slot{key.Summary(), epoch_, kNone};
    ++entries_;
  }

  /// Copies the slot's outcome into `out`, reusing out's buffers.
  void LoadOutcome(uint32_t slot, TxOutcome* out) const {
    const RecordHead rec = Load<RecordHead>(slots_[slot].offset);
    size_t pos = slots_[slot].offset + Padded(sizeof(RecordHead)) +
                 Padded(rec.data_size);
    size_t k = 0;
    out->trace.ForEachBuffer(
        [&](auto& buffer) { pos = Get(pos, rec.counts[k++], &buffer); });
    Get(pos, rec.counts[k], &out->cmps);
    out->trace.set_instruction_count(rec.instructions);
    out->success = rec.success;
    out->outcome = rec.outcome;
    out->gas_used = rec.gas_used;
  }

  /// Copies the slot's redo writes (code-free by construction) into `out`.
  void LoadWrites(uint32_t slot,
                  std::vector<WorldState::Delta::Write>* out) const {
    const RecordHead rec = Load<RecordHead>(slots_[slot].offset);
    Get(rec.writes_offset, rec.writes_count, out);
  }

  /// Records the just-executed transaction of a sighted slot: its key,
  /// request, outcome and writes, and returns true. Leaves the slot
  /// sighted when the record is too big or the delta writes code; flags
  /// the memo full when the heap is.
  bool Record(uint32_t slot, const TxKey& key,
              const TransactionRequest& request, const TxOutcome& outcome,
              const WorldState::Delta& delta) {
    if (!delta.codes().empty()) return false;
    size_t bytes = Padded(sizeof(RecordHead)) + Padded(request.data.size());
    outcome.trace.ForEachBuffer(
        [&bytes](const auto& buffer) { bytes += PaddedSize(buffer); });
    bytes += PaddedSize(outcome.cmps);
    bytes += Padded(delta.writes().size_bytes());
    if (bytes > kMaxRecordBytes) return false;
    if (top_ + bytes > kHeapBytes) {
      full_ = true;
      return false;
    }

    RecordHead rec;
    rec.state = key.state;
    rec.block_number = key.block_number;
    rec.timestamp = key.timestamp;
    rec.to = request.to;
    rec.sender = request.sender;
    rec.value = request.value;
    rec.gas = request.gas;
    rec.data_size = static_cast<uint32_t>(request.data.size());
    rec.success = outcome.success;
    rec.outcome = outcome.outcome;
    rec.gas_used = outcome.gas_used;
    rec.instructions = outcome.trace.instruction_count();
    size_t pos = Put(top_ + Padded(sizeof(RecordHead)), request.data.data(),
                     request.data.size());
    size_t k = 0;
    outcome.trace.ForEachBuffer([&](const auto& buffer) {
      rec.counts[k++] = static_cast<uint32_t>(buffer.size());
      pos = Put(pos, buffer.data(), buffer.size());
    });
    rec.counts[k] = static_cast<uint32_t>(outcome.cmps.size());
    pos = Put(pos, outcome.cmps.data(), outcome.cmps.size());
    rec.writes_offset = static_cast<uint32_t>(pos);
    rec.writes_count = static_cast<uint32_t>(delta.writes().size());
    pos = Put(pos, delta.writes().data(), delta.writes().size());
    std::memcpy(heap_.get() + top_, &rec, sizeof(RecordHead));
    slots_[slot].offset = static_cast<uint32_t>(top_);
    top_ = pos;
    return true;
  }

 private:
  /// One index slot; live only while `epoch` is the memo's.
  struct Slot {
    uint64_t summary = 0;  ///< TxKey::Summary of the entry's key
    uint32_t epoch = 0;
    uint32_t offset = kNone;  ///< the entry's RecordHead; kNone if sighted
  };

  /// Low bits of a record id: the record's heap offset in 8-byte units.
  static constexpr int kOffsetBits = 16;

  /// Fixed-size head of an entry's bytes. Then, each padded to 8 bytes:
  /// the calldata, the trace buffers in ForEachBuffer order, the
  /// comparison records and the redo writes.
  struct RecordHead {
    StateFingerprint state;
    uint64_t block_number = 0;
    uint64_t timestamp = 0;
    Address to;
    Address sender;
    U256 value;
    uint64_t gas = 0;
    uint64_t gas_used = 0;
    uint64_t instructions = 0;
    uint32_t data_size = 0;
    uint32_t writes_offset = 0;
    uint32_t writes_count = 0;
    uint32_t counts[TraceRecorder::kBufferCount + 1] = {};  ///< + cmps
    bool success = false;
    Outcome outcome = Outcome::kSuccess;
  };

  static constexpr size_t Padded(size_t bytes) { return (bytes + 7) & ~7; }
  template <typename T>
  static size_t PaddedSize(const std::vector<T>& v) {
    return Padded(v.size() * sizeof(T));
  }

  template <typename T>
  T Load(size_t pos) const {
    T value;
    std::memcpy(&value, heap_.get() + pos, sizeof(T));
    return value;
  }

  /// The exact key and request of the entry at `offset` equal these.
  bool SameKey(uint32_t offset, const TxKey& key,
               const TransactionRequest& r) const {
    const RecordHead rec = Load<RecordHead>(offset);
    return rec.state == key.state && rec.block_number == key.block_number &&
           rec.timestamp == key.timestamp && rec.to == r.to &&
           rec.sender == r.sender && rec.gas == r.gas &&
           rec.value == r.value && rec.data_size == r.data.size() &&
           (r.data.empty() ||
            std::memcmp(heap_.get() + offset + Padded(sizeof(RecordHead)),
                        r.data.data(), r.data.size()) == 0);
  }

  /// Copies `count` trivially copyable values to `pos`; returns the padded
  /// end.
  template <typename T>
  size_t Put(size_t pos, const T* values, size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (count != 0) std::memcpy(heap_.get() + pos, values, count * sizeof(T));
    return pos + Padded(count * sizeof(T));
  }

  /// Copies `count` values at `pos` into `out` (its capacity reused).
  template <typename T>
  size_t Get(size_t pos, size_t count, std::vector<T>* out) const {
    out->resize(count);
    if (count != 0) {
      std::memcpy(out->data(), heap_.get() + pos, count * sizeof(T));
    }
    return pos + Padded(count * sizeof(T));
  }

  std::unique_ptr<std::byte[]> heap_;  ///< kHeapBytes, made on first claim
  std::unique_ptr<Slot[]> slots_;      ///< kSlots, made on first claim
  size_t top_ = 0;                     ///< bump pointer into heap_
  size_t entries_ = 0;                 ///< slots live in this epoch
  uint32_t epoch_ = 0;
  uint64_t owner_ = 0;
  bool full_ = false;
};

}  // namespace

std::vector<SequenceOutcome> ExecutionBackend::ExecuteSequenceBatch(
    std::span<const SequencePlan> plans) {
  std::vector<SequenceOutcome> outcomes;
  outcomes.reserve(plans.size());
  for (const SequencePlan& plan : plans) {
    outcomes.push_back(ExecuteSequence(plan));
  }
  return outcomes;
}

ExecutionBackend::BatchTicket ExecutionBackend::SubmitBatch(
    std::vector<SequencePlan> plans) {
  BatchTicket ticket = next_ticket_++;
  PendingBatch pb;
  pb.ticket = ticket;
  pb.outcomes = AcquireOutcomeBuffer(plans.size());
  for (size_t i = 0; i < plans.size(); ++i) {
    ExecuteSequenceInto(plans[i], &pb.outcomes[i]);
  }
  pb.plans = std::move(plans);
  pending_.push_back(std::move(pb));
  return ticket;
}

std::vector<SequenceOutcome> ExecutionBackend::WaitBatch(BatchTicket ticket) {
  for (size_t i = 0; i < pending_.size(); ++i) {
    if (pending_[i].ticket != ticket) continue;
    std::vector<SequenceOutcome> outcomes = std::move(pending_[i].outcomes);
    StashSpentPlans(std::move(pending_[i].plans));
    pending_.erase(pending_.begin() + static_cast<ptrdiff_t>(i));
    return outcomes;
  }
  std::fprintf(stderr,
               "fatal: WaitBatch(%llu) for an unknown or already-redeemed "
               "ticket\n",
               static_cast<unsigned long long>(ticket));
  std::abort();
}

std::vector<SequenceOutcome> ExecutionBackend::AcquireOutcomeBuffer(size_t n) {
  std::vector<SequenceOutcome> buf;
  if (!outcome_pool_.empty()) {
    buf = std::move(outcome_pool_.back());
    outcome_pool_.pop_back();
  }
  while (buf.size() > n) {
    if (spare_outcomes_.size() < kMaxPooledBuffers * 4) {
      spare_outcomes_.push_back(std::move(buf.back()));
    }
    buf.pop_back();
  }
  if (buf.capacity() < n) buf.reserve(n);
  while (buf.size() < n) {
    if (!spare_outcomes_.empty()) {
      buf.push_back(std::move(spare_outcomes_.back()));
      spare_outcomes_.pop_back();
    } else {
      buf.emplace_back();
    }
  }
  return buf;
}

void ExecutionBackend::RecycleOutcomes(std::vector<SequenceOutcome> outcomes) {
  if (outcome_pool_.size() >= kMaxPooledBuffers) return;
  outcome_pool_.push_back(std::move(outcomes));
}

void ExecutionBackend::StashSpentPlans(std::vector<SequencePlan> plans) {
  if (plans.empty() || spent_plans_.size() >= kMaxPooledBuffers) return;
  spent_plans_.push_back(std::move(plans));
}

std::vector<SequencePlan> ExecutionBackend::TakeSpentPlans() {
  if (spent_plans_.empty()) return {};
  std::vector<SequencePlan> plans = std::move(spent_plans_.back());
  spent_plans_.pop_back();
  return plans;
}

SessionBackend::SessionBackend(Host* host, BlockContext block,
                               EvmConfig config) {
  Bind(host, block, config);
}

void SessionBackend::Bind(Host* host, BlockContext block, EvmConfig config) {
  host_ = host;
  session_.emplace(host, block, config);
  session_->interpreter().set_observer(&trace_);
  trace_.Clear();
  deployed_ = {};
  marked_ = false;
  InvalidateMemo();
  executed_txs_ = 0;
  served_txs_ = 0;
}

void SessionBackend::Unbind() {
  session_.reset();
  host_ = nullptr;
  trace_.Clear();
  deployed_ = {};
  marked_ = false;
  InvalidateMemo();
}

void SessionBackend::InvalidateMemo() { generation_ = NextGeneration(); }

void SessionBackend::CheckBound() const {
  if (!session_.has_value()) {
    std::fprintf(stderr,
                 "fatal: SessionBackend used before Bind() / after Unbind()\n");
    std::abort();
  }
}

Result<Address> SessionBackend::DeployContract(const Bytes& runtime_code,
                                               const Bytes& ctor_code,
                                               const Bytes& ctor_args,
                                               const Address& deployer,
                                               const U256& value) {
  CheckBound();
  InvalidateMemo();
  return session_->Deploy(runtime_code, ctor_code, ctor_args, deployer,
                          value);
}

void SessionBackend::FundAccount(const Address& addr, const U256& balance) {
  CheckBound();
  InvalidateMemo();
  session_->FundAccount(addr, balance);
}

void SessionBackend::MarkDeployed() {
  CheckBound();
  InvalidateMemo();
  deployed_ = session_->Snapshot();
  marked_ = true;
}

void SessionBackend::Rewind() {
  CheckBound();
  InvalidateMemo();
  session_->Restore(deployed_);
}

SequenceOutcome SessionBackend::ExecuteSequence(const SequencePlan& plan) {
  SequenceOutcome out;
  ExecuteSequenceInto(plan, &out);
  return out;
}

void SessionBackend::ExecuteSequenceInto(const SequencePlan& plan,
                                         SequenceOutcome* out) {
  CheckBound();
  if (!marked_) MarkDeployed();
  TxMemo& memo = TxMemo::ForThisThread();
  if (memo.owner() != generation_ || memo.full()) {
    generation_ = NextGeneration();
    memo.Claim(generation_);
  }
  const size_t n = plan.txs.size();
  out->ResetForReuse(n);
  session_->Restore(deployed_);
  host_->OnSequenceStart(plan.host_seed);
  trace_.Clear();
  uint64_t served = 0;
  for (size_t i = 0; i < n; ++i) {
    const PreparedTx& ptx = plan.txs[i];
    host_->OnTransactionStart(ptx.request.data);
    TxOutcome& txo = out->txs[i];
    const TxKey key{session_->state().fingerprint(), session_->block().number,
                    session_->block().timestamp, RequestHash(ptx.request)};
    const TxMemo::Probe probe = memo.Find(key, ptx.request);
    if (probe.found && memo.recorded(probe.slot)) {
      memo.LoadOutcome(probe.slot, &txo);
      txo.record_id = memo.RecordId(probe.slot);
      memo.LoadWrites(probe.slot, &writes_);
      session_->Replay(writes_);
      ++served;
    } else {
      const size_t journal_pos = session_->state().journal_size();
      ExecResult result = session_->Apply(ptx.request);
      txo.success = result.Success();
      txo.outcome = result.outcome;
      txo.gas_used = result.gas_used;
      session_->interpreter().TakeCmpRecords(&txo.cmps);
      // The recorded events land in the outcome slot; the slot's warm
      // (cleared) buffers come back to record the next transaction.
      trace_.Swap(&txo.trace);
      // A first sighting leaves only an index slot; the second records
      // the outcome, since most keys are never seen again and recording
      // costs a copy.
      if (!ReachedHost(txo.trace)) {
        if (!probe.found) {
          memo.Sight(probe.slot, key);
        } else {
          session_->state().CaptureDelta(journal_pos, &delta_);
          if (memo.Record(probe.slot, key, ptx.request, txo, delta_)) {
            txo.record_id = memo.RecordId(probe.slot);
          }
        }
      }
    }
    txo.tag = ptx.tag;
    out->instructions += txo.trace.instruction_count();
  }
  served_txs_ += served;
  executed_txs_ += n - served;
}

CodeCacheStats SessionBackend::code_cache_stats() const {
  if (!session_.has_value()) return {};
  return session_->interpreter().code_cache()->stats();
}

PrefixCacheStats SessionBackend::prefix_cache_stats() const {
  PrefixCacheStats stats;
  stats.executed_txs = executed_txs_;
  stats.served_txs = served_txs_;
  return stats;
}

const CodeCache* SessionBackend::code_cache() const {
  if (!session_.has_value()) return nullptr;
  return session_->interpreter().code_cache();
}

const WorldState& SessionBackend::state() const {
  CheckBound();
  return session_->state();
}

std::unique_ptr<SessionBackend> SessionPool::Acquire(Rng* rng) {
  std::lock_guard<std::mutex> lock(mu_);
  if (free_.empty()) {
    ++created_;
    return std::make_unique<SessionBackend>();
  }
  size_t pick = rng != nullptr ? rng->NextBelow(free_.size())
                               : free_.size() - 1;
  std::unique_ptr<SessionBackend> backend = std::move(free_[pick]);
  free_[pick] = std::move(free_.back());
  free_.pop_back();
  return backend;
}

void SessionPool::Release(std::unique_ptr<SessionBackend> backend) {
  if (backend == nullptr) return;
  // The host the session was bound to belongs to the last campaign and may
  // already be gone; never keep a reachable reference to it in the pool.
  backend->Unbind();
  std::lock_guard<std::mutex> lock(mu_);
  free_.push_back(std::move(backend));
}

size_t SessionPool::created() const {
  std::lock_guard<std::mutex> lock(mu_);
  return created_;
}

size_t SessionPool::pooled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return free_.size();
}

}  // namespace mufuzz::evm
