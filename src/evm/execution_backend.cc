#include "evm/execution_backend.h"

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
/// keeps sibling scans from touching node payloads.
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
/// outcome depends on the plan's host seed, so it and everything after it
/// are never cached.
bool ReachedHost(const TraceRecorder& trace) {
  for (const CallEvent& ev : trace.calls()) {
    if (ev.to_external) return true;
  }
  return false;
}

/// The per-thread store of cached transactions: a trie whose node 0 is the
/// deployed state and whose children hang off singly linked sibling lists
/// (lookup is O(children) over compact headers). A node is first only a
/// header (the chain was sighted once); recording packs its request,
/// outcome and redo writes into one fixed heap, so a node costs exactly
/// its bytes, the steady state never allocates, and a flush just resets
/// the bump pointer.
class PrefixArena {
 public:
  static constexpr uint32_t kRoot = 0;
  static constexpr uint32_t kNone = UINT32_MAX;
  static constexpr size_t kMaxNodes = 2048;
  static constexpr size_t kHeapBytes = 192 << 10;
  /// A transaction bigger than this is not cached at all.
  static constexpr size_t kMaxRecordBytes = kHeapBytes / 16;

  static PrefixArena& ForThisThread() {
    thread_local PrefixArena arena;
    return arena;
  }

  uint64_t owner() const { return owner_; }
  /// Set once Sight or Record found no room; the next plan flushes.
  bool full() const { return full_; }

  /// Flushes every node and hands the arena to `owner`.
  void Claim(uint64_t owner) {
    if (heap_ == nullptr) {
      heap_ = std::make_unique_for_overwrite<std::byte[]>(kHeapBytes);
      nodes_.reserve(kMaxNodes);
    }
    owner_ = owner;
    full_ = false;
    top_ = 0;
    nodes_.assign(1, Node{});
  }

  /// The child of `parent` for `request` (whose RequestHash is `hash`):
  /// recorded, or only sighted; kNone if absent. A found child moves to
  /// the front of its siblings, since siblings of one parent ask for the
  /// same prefix again and again.
  uint32_t FindChild(uint32_t parent, const TransactionRequest& request,
                     uint64_t hash) {
    uint32_t prev = kNone;
    for (uint32_t c = nodes_[parent].first_child; c != kNone;
         prev = c, c = nodes_[c].next_sibling) {
      if (nodes_[c].hash != hash ||
          (recorded(c) &&
           !SameRequest(Load<RecordHead>(nodes_[c].offset), c, request))) {
        continue;
      }
      if (prev != kNone) {
        nodes_[prev].next_sibling = nodes_[c].next_sibling;
        nodes_[c].next_sibling = nodes_[parent].first_child;
        nodes_[parent].first_child = c;
      }
      return c;
    }
    return kNone;
  }

  /// Whether the node holds an outcome (else it was only sighted once).
  bool recorded(uint32_t index) const {
    return nodes_[index].offset != kNone;
  }

  /// Notes a first sighting of a transaction under `parent`: a header with
  /// no record. Returns it, or kNone when the headers are exhausted.
  uint32_t Sight(uint32_t parent, uint64_t hash) {
    if (nodes_.size() == kMaxNodes) {
      full_ = true;
      return kNone;
    }
    Node node;
    node.hash = hash;
    node.next_sibling = nodes_[parent].first_child;
    const uint32_t index = static_cast<uint32_t>(nodes_.size());
    nodes_[parent].first_child = index;
    nodes_.push_back(node);
    return index;
  }

  /// Copies the node's outcome into `out`, reusing out's buffers.
  void LoadOutcome(uint32_t index, TxOutcome* out) const {
    const RecordHead rec = Load<RecordHead>(nodes_[index].offset);
    size_t pos = nodes_[index].offset + Padded(sizeof(RecordHead)) +
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

  /// Copies the node's redo writes (code-free by construction) into `out`.
  void LoadWrites(uint32_t index,
                  std::vector<WorldState::Delta::Write>* out) const {
    Get(nodes_[index].writes_offset, nodes_[index].writes_count, out);
  }

  /// Records a sighted node's just-executed transaction: its request, its
  /// outcome and its writes. False when the heap is full (or the record
  /// too big, or the delta writes code).
  bool Record(uint32_t index, const TransactionRequest& request,
              const TxOutcome& outcome, const WorldState::Delta& delta) {
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
    rec.to = request.to;
    rec.sender = request.sender;
    rec.value = request.value;
    rec.gas = request.gas;
    rec.data_size = static_cast<uint32_t>(request.data.size());
    rec.success = outcome.success;
    rec.outcome = outcome.outcome;
    rec.gas_used = outcome.gas_used;
    rec.instructions = outcome.trace.instruction_count();
    Node& node = nodes_[index];
    node.offset = static_cast<uint32_t>(top_);
    size_t pos = Put(top_ + Padded(sizeof(RecordHead)), request.data.data(),
                     request.data.size());
    size_t k = 0;
    outcome.trace.ForEachBuffer([&](const auto& buffer) {
      rec.counts[k++] = static_cast<uint32_t>(buffer.size());
      pos = Put(pos, buffer.data(), buffer.size());
    });
    rec.counts[k] = static_cast<uint32_t>(outcome.cmps.size());
    pos = Put(pos, outcome.cmps.data(), outcome.cmps.size());
    node.writes_offset = static_cast<uint32_t>(pos);
    node.writes_count = static_cast<uint32_t>(delta.writes().size());
    pos = Put(pos, delta.writes().data(), delta.writes().size());
    std::memcpy(heap_.get() + top_, &rec, sizeof(RecordHead));
    top_ = pos;
    return true;
  }

 private:
  /// Trie structure plus where the node's bytes live in the heap.
  struct Node {
    uint64_t hash = 0;  ///< RequestHash of the node's request
    uint32_t first_child = kNone;
    uint32_t next_sibling = kNone;
    uint32_t offset = kNone;  ///< the node's RecordHead; kNone if unrecorded
    uint32_t writes_offset = 0;
    uint32_t writes_count = 0;
  };

  /// Fixed-size head of a node's bytes. Then, each padded to 8 bytes: the
  /// calldata, the trace buffers in ForEachBuffer order, the comparison
  /// records and the redo writes.
  struct RecordHead {
    Address to;
    Address sender;
    U256 value;
    uint64_t gas = 0;
    uint64_t gas_used = 0;
    uint64_t instructions = 0;
    uint32_t data_size = 0;
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

  bool SameRequest(const RecordHead& rec, uint32_t index,
                   const TransactionRequest& r) const {
    return rec.to == r.to && rec.sender == r.sender && rec.gas == r.gas &&
           rec.value == r.value && rec.data_size == r.data.size() &&
           (r.data.empty() ||
            std::memcmp(heap_.get() + nodes_[index].offset +
                            Padded(sizeof(RecordHead)),
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
  size_t top_ = 0;                     ///< bump pointer into heap_
  std::vector<Node> nodes_;            ///< [0] is the deployed state
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
  InvalidatePrefixCache();
  executed_txs_ = 0;
  served_txs_ = 0;
  replayed_txs_ = 0;
}

void SessionBackend::Unbind() {
  session_.reset();
  host_ = nullptr;
  trace_.Clear();
  deployed_ = {};
  marked_ = false;
  InvalidatePrefixCache();
}

void SessionBackend::InvalidatePrefixCache() {
  generation_ = NextGeneration();
  path_.clear();
}

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
  InvalidatePrefixCache();
  return session_->Deploy(runtime_code, ctor_code, ctor_args, deployer,
                          value);
}

void SessionBackend::FundAccount(const Address& addr, const U256& balance) {
  CheckBound();
  InvalidatePrefixCache();
  session_->FundAccount(addr, balance);
}

void SessionBackend::MarkDeployed() {
  CheckBound();
  InvalidatePrefixCache();
  deployed_ = session_->Snapshot();
  marked_ = true;
}

void SessionBackend::Rewind() {
  CheckBound();
  InvalidatePrefixCache();
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
  PrefixArena& arena = PrefixArena::ForThisThread();
  if (arena.owner() != generation_ || arena.full()) {
    generation_ = NextGeneration();
    arena.Claim(generation_);
    path_.clear();
  }
  const size_t n = plan.txs.size();
  out->ResetForReuse(n);

  // The deepest cached prefix of the plan, then the part of it the journal
  // already holds; restore there and replay the rest from deltas.
  hits_.clear();
  uint32_t node = PrefixArena::kRoot;
  while (hits_.size() < n) {
    const TransactionRequest& request = plan.txs[hits_.size()].request;
    node = arena.FindChild(node, request, RequestHash(request));
    if (node == PrefixArena::kNone || !arena.recorded(node)) break;
    hits_.push_back(node);
  }
  size_t common = 0;
  while (common < hits_.size() && common < path_.size() &&
         path_[common].node == hits_[common]) {
    ++common;
  }
  session_->Restore(common == 0 ? deployed_ : path_[common - 1].after);
  path_.resize(common);
  for (size_t i = common; i < hits_.size(); ++i) {
    arena.LoadWrites(hits_[i], &writes_);
    session_->Replay(writes_);
    path_.push_back({hits_[i], session_->Snapshot()});
  }
  served_txs_ += hits_.size();
  replayed_txs_ += hits_.size() - common;
  executed_txs_ += n - hits_.size();

  host_->OnSequenceStart(plan.host_seed);
  trace_.Clear();
  // Executed transactions extend the trie. A first sighting leaves only a
  // header; the second records the outcome, since most transactions are
  // never seen again and recording costs a copy. Past a first sighting the
  // plan records nothing more: deeper nodes are unreachable until that one
  // is recorded, and the journal path must stay contiguous.
  uint32_t parent = hits_.empty() ? PrefixArena::kRoot : hits_.back();
  bool recording = true;
  for (size_t i = 0; i < n; ++i) {
    const PreparedTx& ptx = plan.txs[i];
    host_->OnTransactionStart(ptx.request.data);
    TxOutcome& txo = out->txs[i];
    if (i < hits_.size()) {
      arena.LoadOutcome(hits_[i], &txo);
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
      if (parent != PrefixArena::kNone && !ReachedHost(txo.trace)) {
        const uint64_t hash = RequestHash(ptx.request);
        uint32_t child = arena.FindChild(parent, ptx.request, hash);
        if (child == PrefixArena::kNone) {
          child = arena.Sight(parent, hash);
          recording = false;
        } else if (recording) {
          session_->state().CaptureDelta(journal_pos, &delta_);
          recording = arena.Record(child, ptx.request, txo, delta_);
          if (recording) path_.push_back({child, session_->Snapshot()});
        }
        parent = child;
      } else {
        parent = PrefixArena::kNone;
      }
    }
    txo.tag = ptx.tag;
    out->instructions += txo.trace.instruction_count();
    for (const BranchEvent& ev : txo.trace.branches()) {
      out->touched_pcs.push_back(ev.pc);
    }
  }
}

CodeCacheStats SessionBackend::code_cache_stats() const {
  if (!session_.has_value()) return {};
  return session_->interpreter().code_cache()->stats();
}

PrefixCacheStats SessionBackend::prefix_cache_stats() const {
  PrefixCacheStats stats;
  stats.executed_txs = executed_txs_;
  stats.served_txs = served_txs_;
  stats.replayed_txs = replayed_txs_;
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
