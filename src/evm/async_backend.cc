#include "evm/async_backend.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace mufuzz::evm {

// ------------------------------------------------------ AsyncExecutionHub --

AsyncExecutionHub::AsyncExecutionHub(Options options, SessionPool* pool)
    : options_(options),
      session_pool_(pool),
      threads_(std::max(1, options.workers)) {
  options_.workers = std::max(1, options_.workers);
  if (options_.queue_capacity <= 0) {
    options_.queue_capacity = 4 * options_.workers;
  }
  running_loops_ = options_.workers;
  for (int w = 0; w < options_.workers; ++w) {
    threads_.Post([this, w] { WorkerLoop(static_cast<size_t>(w)); });
  }
}

size_t AsyncExecutionHub::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

AsyncExecutionHub::~AsyncExecutionHub() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!queue_.empty()) {
      std::fprintf(stderr,
                   "fatal: AsyncExecutionHub destroyed with jobs still "
                   "queued (unbind every adapter first)\n");
      std::abort();
    }
    stop_ = true;
  }
  queue_cv_.notify_all();
  std::unique_lock<std::mutex> lock(mu_);
  exited_cv_.wait(lock, [this] { return running_loops_ == 0; });
}

void AsyncExecutionHub::WorkerLoop(size_t index) {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        // stop_ is set and the queue drained: exit.
        --running_loops_;
        if (running_loops_ == 0) exited_cv_.notify_all();
        return;
      }
      job = queue_.front();
      queue_.pop_front();
    }
    capacity_cv_.notify_one();
    // Worker `index` always executes on the owning adapter's `index`-th
    // replica, so replicas never race and any worker yields the identical
    // outcome for a plan.
    SessionBackend* backend = job.owner->workers_[index].backend.get();
    backend->ExecuteSequenceInto(*job.plan, job.slot);
    bool batch_done;
    {
      std::lock_guard<std::mutex> lock(mu_);
      --job.owner->in_flight_;
      batch_done = ++job.batch->completed == job.batch->plans.size();
    }
    // AwaitBatch is the only done_cv_ waiter and its predicate turns true
    // exactly at batch completion — per-job notifies would wake every
    // campaign parked on a shared hub once per execution.
    if (batch_done) done_cv_.notify_all();
  }
}

void AsyncExecutionHub::SubmitJobs(AsyncBackendAdapter* owner, Batch* batch) {
  // Enqueue under the capacity bound: a planner that outruns the workers
  // blocks here instead of growing the queue without limit. The bound is
  // hub-wide, so concurrent campaigns backpressure each other too.
  const size_t capacity = static_cast<size_t>(options_.queue_capacity);
  for (size_t i = 0; i < batch->plans.size(); ++i) {
    std::unique_lock<std::mutex> lock(mu_);
    capacity_cv_.wait(lock, [this, capacity] {
      return queue_.size() < capacity;
    });
    queue_.push_back(Job{&batch->plans[i], &batch->outcomes[i], batch, owner});
    ++owner->in_flight_;
    lock.unlock();
    queue_cv_.notify_one();
  }
}

void AsyncExecutionHub::AwaitBatch(std::unique_lock<std::mutex>& lock,
                                   Batch* batch) {
  done_cv_.wait(lock,
                [batch] { return batch->completed == batch->plans.size(); });
}

// ----------------------------------------------------- AsyncBackendAdapter --

AsyncBackendAdapter::AsyncBackendAdapter(Options options, SessionPool* pool)
    : owned_hub_(std::make_unique<AsyncExecutionHub>(options, pool)),
      hub_(owned_hub_.get()) {}

AsyncBackendAdapter::AsyncBackendAdapter()
    : AsyncBackendAdapter(Options()) {}

AsyncBackendAdapter::AsyncBackendAdapter(AsyncExecutionHub* hub)
    : hub_(hub) {}

AsyncBackendAdapter::~AsyncBackendAdapter() { Unbind(); }

void AsyncBackendAdapter::CheckBound(const char* op) const {
  if (!bound_) {
    std::fprintf(stderr, "fatal: AsyncBackendAdapter::%s before Bind()\n", op);
    std::abort();
  }
}

void AsyncBackendAdapter::CheckIdle(const char* op) const {
  size_t in_flight;
  {
    std::lock_guard<std::mutex> lock(hub_->mu_);
    in_flight = in_flight_;
  }
  if (in_flight != 0 || !batches_.empty()) {
    std::fprintf(stderr,
                 "fatal: AsyncBackendAdapter::%s while batches are in "
                 "flight (setup ops require an idle backend)\n",
                 op);
    std::abort();
  }
}

void AsyncBackendAdapter::Bind(Host* host, BlockContext block,
                               EvmConfig config) {
  CheckIdle("Bind");
  Unbind();
  const int workers = hub_->worker_count();
  workers_.reserve(workers);
  for (int w = 0; w < workers; ++w) {
    Worker worker;
    worker.host = host->CloneForWorker();
    if (worker.host == nullptr) {
      std::fprintf(stderr,
                   "fatal: AsyncBackendAdapter requires a host that "
                   "implements CloneForWorker (a sequence-pure host); use a "
                   "SessionBackend for non-replicable hosts\n");
      std::abort();
    }
    worker.backend = hub_->session_pool() != nullptr
                         ? hub_->session_pool()->Acquire()
                         : std::make_unique<SessionBackend>();
    worker.backend->Bind(worker.host.get(), block, config);
    workers_.push_back(std::move(worker));
  }
  bound_ = true;
}

void AsyncBackendAdapter::Unbind() {
  CheckIdle("Unbind");
  for (Worker& worker : workers_) {
    if (hub_->session_pool() != nullptr && worker.backend != nullptr) {
      hub_->session_pool()->Release(std::move(worker.backend));
    } else if (worker.backend != nullptr) {
      worker.backend->Unbind();
    }
  }
  workers_.clear();
  bound_ = false;
}

Result<Address> AsyncBackendAdapter::DeployContract(const Bytes& runtime_code,
                                                    const Bytes& ctor_code,
                                                    const Bytes& ctor_args,
                                                    const Address& deployer,
                                                    const U256& value) {
  CheckBound("DeployContract");
  CheckIdle("DeployContract");
  std::optional<Result<Address>> first;
  for (Worker& worker : workers_) {
    Result<Address> result = worker.backend->DeployContract(
        runtime_code, ctor_code, ctor_args, deployer, value);
    if (!first.has_value()) {
      first = std::move(result);
    } else if (first->ok() != result.ok() ||
               (first->ok() && !(first->value() == result.value()))) {
      std::fprintf(stderr,
                   "fatal: worker sessions diverged during deployment — the "
                   "bound host's CloneForWorker is not sequence-pure\n");
      std::abort();
    }
  }
  return *first;
}

void AsyncBackendAdapter::FundAccount(const Address& addr,
                                      const U256& balance) {
  CheckBound("FundAccount");
  CheckIdle("FundAccount");
  for (Worker& worker : workers_) worker.backend->FundAccount(addr, balance);
}

void AsyncBackendAdapter::MarkDeployed() {
  CheckBound("MarkDeployed");
  CheckIdle("MarkDeployed");
  for (Worker& worker : workers_) worker.backend->MarkDeployed();
}

void AsyncBackendAdapter::Rewind() {
  CheckBound("Rewind");
  CheckIdle("Rewind");
  for (Worker& worker : workers_) worker.backend->Rewind();
}

SequenceOutcome AsyncBackendAdapter::ExecuteSequence(
    const SequencePlan& plan) {
  std::vector<SequencePlan> plans;
  plans.push_back(plan);
  return std::move(WaitBatch(SubmitBatch(std::move(plans))).front());
}

std::vector<SequenceOutcome> AsyncBackendAdapter::ExecuteSequenceBatch(
    std::span<const SequencePlan> plans) {
  return WaitBatch(
      SubmitBatch(std::vector<SequencePlan>(plans.begin(), plans.end())));
}

ExecutionBackend::BatchTicket AsyncBackendAdapter::SubmitBatch(
    std::vector<SequencePlan> plans) {
  CheckBound("SubmitBatch");
  BatchTicket ticket = next_async_ticket_++;
  std::unique_ptr<AsyncExecutionHub::Batch> owned;
  if (!batch_pool_.empty()) {
    owned = std::move(batch_pool_.back());
    batch_pool_.pop_back();
  } else {
    owned = std::make_unique<AsyncExecutionHub::Batch>();
  }
  owned->plans = std::move(plans);
  // Warm outcome slots from the recycle pool: workers ResetForReuse each
  // slot, so traces record into already-sized buffers.
  owned->outcomes = AcquireOutcomeBuffer(owned->plans.size());
  owned->completed = 0;
  AsyncExecutionHub::Batch* batch = owned.get();
  batches_.emplace(ticket, std::move(owned));
  hub_->SubmitJobs(this, batch);
  return ticket;
}

std::vector<SequenceOutcome> AsyncBackendAdapter::WaitBatch(
    BatchTicket ticket) {
  auto it = batches_.find(ticket);
  if (it == batches_.end()) {
    std::fprintf(stderr,
                 "fatal: WaitBatch(%llu) for an unknown or already-redeemed "
                 "ticket\n",
                 static_cast<unsigned long long>(ticket));
    std::abort();
  }
  AsyncExecutionHub::Batch* batch = it->second.get();
  {
    std::unique_lock<std::mutex> lock(hub_->mu_);
    hub_->AwaitBatch(lock, batch);
  }
  std::vector<SequenceOutcome> outcomes = std::move(batch->outcomes);
  // The spent plans go back to the planner (calldata capacity), the Batch
  // shell goes back to the batch pool — both client-thread-only stashes.
  StashSpentPlans(std::move(batch->plans));
  std::unique_ptr<AsyncExecutionHub::Batch> shell = std::move(it->second);
  batches_.erase(it);
  shell->plans.clear();
  shell->outcomes.clear();
  shell->completed = 0;
  if (batch_pool_.size() < 16) batch_pool_.push_back(std::move(shell));
  return outcomes;
}

CodeCacheStats AsyncBackendAdapter::code_cache_stats() const {
  CodeCacheStats total;
  std::vector<const CodeCache*> seen;
  for (const Worker& w : workers_) {
    const CodeCache* cache = w.backend->code_cache();
    if (cache == nullptr) continue;
    if (std::find(seen.begin(), seen.end(), cache) != seen.end()) continue;
    seen.push_back(cache);
    CodeCacheStats s = w.backend->code_cache_stats();
    total.entries += s.entries;
    total.hits += s.hits;
    total.misses += s.misses;
    total.decode_ns += s.decode_ns;
    total.jit_compiled += s.jit_compiled;
    total.jit_compile_ns += s.jit_compile_ns;
    total.jit_bailouts += s.jit_bailouts;
    total.jit_frames += s.jit_frames;
    total.interp_frames += s.interp_frames;
  }
  return total;
}

PrefixCacheStats AsyncBackendAdapter::prefix_cache_stats() const {
  PrefixCacheStats total;
  for (const Worker& w : workers_) total += w.backend->prefix_cache_stats();
  return total;
}

const WorldState& AsyncBackendAdapter::state() const {
  CheckBound("state");
  return workers_.front().backend->state();
}

}  // namespace mufuzz::evm
