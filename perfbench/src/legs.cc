#include "legs.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_set>

#include "evm/code_cache.h"
#include "evm/execution_backend.h"
#include "lang/compiler.h"
#include "server/protocol.h"

namespace perfbench {

using mufuzz::engine::JobState;
namespace evm = mufuzz::evm;
namespace fuzzer = mufuzz::fuzzer;

namespace {

double MsBetween(int64_t a_ns, int64_t b_ns) {
  return static_cast<double>(b_ns - a_ns) / 1e6;
}

void SleepUntilNs(int64_t t_ns) {
  int64_t now = NowNs();
  if (t_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(t_ns - now));
  }
}

// ---------------------------------------------------------------------------
// Forwarding wrappers for the direct leg. Both forward every call unchanged,
// so the campaign's schedule (and its CampaignResult) is exactly what it is
// over a plain SessionBackend and SeedScheduler; the harness checks that
// with operator== against the untraced results.
// ---------------------------------------------------------------------------

uint64_t Mix(uint64_t h, const uint8_t* data, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Times ExecuteSequence(Into) and DeployContract around a SessionBackend
/// and counts what each executed sequence did.
/// One per benchmark thread, re-bound by each campaign like FuzzService's
/// pooled sessions, so warm session buffers carry over between jobs.
class TracingBackend final : public evm::ExecutionBackend {
 public:
  TracingBackend(SpanLog* log, LayerCounters* counters)
      : log_(log), counters_(counters) {}

  /// Starts the next job: its spans carry `job`, and prefix reuse is
  /// counted within that job's campaign only.
  void BeginJob(int64_t job) {
    job_ = job;
    prefixes_.clear();
  }

  void Bind(evm::Host* host, evm::BlockContext block,
            evm::EvmConfig config) override {
    inner_.Bind(host, block, config);
  }
  void Unbind() override { inner_.Unbind(); }
  mufuzz::Result<mufuzz::Address> DeployContract(
      const mufuzz::Bytes& runtime_code, const mufuzz::Bytes& ctor_code,
      const mufuzz::Bytes& ctor_args, const mufuzz::Address& deployer,
      const mufuzz::U256& value) override {
    ScopedSpan span(log_, "evm.deploy", job_);
    return inner_.DeployContract(runtime_code, ctor_code, ctor_args,
                                 deployer, value);
  }
  void FundAccount(const mufuzz::Address& addr,
                   const mufuzz::U256& balance) override {
    inner_.FundAccount(addr, balance);
  }
  void MarkDeployed() override { inner_.MarkDeployed(); }
  void Rewind() override { inner_.Rewind(); }
  evm::SequenceOutcome ExecuteSequence(
      const evm::SequencePlan& plan) override {
    evm::SequenceOutcome out;
    {
      ScopedSpan span(log_, "evm.exec", job_);
      out = inner_.ExecuteSequence(plan);
    }
    Count(plan, out);
    return out;
  }
  void ExecuteSequenceInto(const evm::SequencePlan& plan,
                           evm::SequenceOutcome* out) override {
    {
      ScopedSpan span(log_, "evm.exec", job_);
      inner_.ExecuteSequenceInto(plan, out);
    }
    Count(plan, *out);
  }
  evm::CodeCacheStats code_cache_stats() const override {
    return inner_.code_cache_stats();
  }
  const evm::WorldState& state() const override { return inner_.state(); }

 private:
  // Counting runs outside the evm.exec span, so it lands in the caller's
  // (fuzzer) self time; it is the harness's own overhead, reported through
  // bench.trace_overhead_frac.
  void Count(const evm::SequencePlan& plan, const evm::SequenceOutcome& out) {
    counters_->execs++;
    counters_->instructions += out.instructions;
    uint64_t h = 0xcbf29ce484222325ULL;
    for (size_t i = 0; i < out.txs.size(); ++i) {
      counters_->txs++;
      if (!out.txs[i].success) counters_->reverted_txs++;
      if (i < plan.txs.size()) {
        const evm::TransactionRequest& r = plan.txs[i].request;
        h = Mix(h, r.sender.bytes.data(), r.sender.bytes.size());
        auto value = r.value.ToBytesBE();
        h = Mix(h, value.data(), value.size());
        h = Mix(h, r.data.data(), r.data.size());
        h = Mix(h, reinterpret_cast<const uint8_t*>("|"), 1);
      }
      if (!prefixes_.insert(h).second) counters_->prefix_reused_txs++;
    }
  }

  SpanLog* log_;
  int64_t job_ = -1;
  LayerCounters* counters_;
  evm::SessionBackend inner_;
  /// Chained hashes of every (tx 0..i) request prefix executed so far.
  std::unordered_set<uint64_t> prefixes_;
};

/// Times selection and admission on the campaign's seed queue.
class TracingScheduler final : public fuzzer::SeedScheduler {
 public:
  TracingScheduler(bool distance_feedback, SpanLog* log, int64_t job,
                   LayerCounters* counters)
      : SeedScheduler(distance_feedback),
        log_(log),
        job_(job),
        counters_(counters) {}

  fuzzer::SeedId SelectExcluding(
      mufuzz::Rng* rng, std::span<const fuzzer::SeedId> exclude) override {
    ScopedSpan span(log_, "fuzzer.select", job_);
    counters_->select_calls++;
    return SeedScheduler::SelectExcluding(rng, exclude);
  }
  bool Add(fuzzer::FuzzSeed seed) override {
    ScopedSpan span(log_, "fuzzer.add", job_);
    bool kept = SeedScheduler::Add(std::move(seed));
    if (kept) counters_->add_kept++;
    return kept;
  }

 private:
  SpanLog* log_;
  int64_t job_;
  LayerCounters* counters_;
};

}  // namespace

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

void LayerCounters::Merge(const LayerCounters& o) {
  execs += o.execs;
  txs += o.txs;
  reverted_txs += o.reverted_txs;
  instructions += o.instructions;
  prefix_reused_txs += o.prefix_reused_txs;
  select_calls += o.select_calls;
  add_kept += o.add_kept;
  cache_hits += o.cache_hits;
  cache_misses += o.cache_misses;
}

// --------------------------------------------------------------- Transports --

bool InProcessTransport::Submit(const BenchJob& job, uint64_t* ticket,
                                std::string* error) {
  mufuzz::engine::FuzzJob fj;
  fj.name = job.name;
  fj.tenant = job.tenant;
  fj.config = job.config;
  if (job.artifact != nullptr) {
    fj.artifact = job.artifact;
  } else {
    fj.source = *job.source;
  }
  auto t = service_->Submit(std::move(fj));
  if (!t.ok()) {
    *error = t.status().ToString();
    return false;
  }
  *ticket = t.value();
  return true;
}

Transport::PollResult InProcessTransport::Poll(uint64_t ticket) {
  mufuzz::engine::JobProgress p = service_->Poll(ticket);
  return {p.state != JobState::kUnknown, p.state == JobState::kDone,
          p.round_index};
}

bool InProcessTransport::Fetch(uint64_t ticket, JobRecord* rec) {
  mufuzz::engine::JobOutcome outcome = service_->Wait(ticket);
  rec->result = std::move(outcome.result);
  rec->error = outcome.error;
  rec->active_ms = outcome.elapsed_ms;
  return true;
}

bool InProcessTransport::Stats(mufuzz::engine::ServiceStats* stats) {
  *stats = service_->Stats();
  return true;
}

bool WireTransport::Connect(int port, std::string* error) {
  for (auto* c : {&submitter_, &poller_}) {
    mufuzz::Status st = c->Connect("127.0.0.1", port);
    if (!st.ok()) {
      *error = st.ToString();
      return false;
    }
  }
  return true;
}

bool WireTransport::Submit(const BenchJob& job, uint64_t* ticket,
                           std::string* error) {
  mufuzz::server::SubmitRequest req;
  req.tenant = job.tenant;
  req.name = job.name;
  req.source = *job.source;
  req.config = job.config;
  int64_t t0 = NowNs();
  auto t = submitter_.Submit(req);
  int64_t t1 = NowNs();
  if (log_ != nullptr) {
    log_->AddComplete("server.rpc", -1, t0, t1);
    submit_rtt_us.push_back(static_cast<double>(t1 - t0) / 1e3);
  }
  if (!t.ok()) {
    *error = t.status().ToString();
    return false;
  }
  *ticket = t.value();
  return true;
}

Transport::PollResult WireTransport::Poll(uint64_t ticket) {
  int64_t t0 = NowNs();
  auto p = poller_.Poll(ticket);
  int64_t t1 = NowNs();
  if (log_ != nullptr) {
    log_->AddComplete("server.rpc", static_cast<int64_t>(ticket), t0, t1);
    poll_rtt_us.push_back(static_cast<double>(t1 - t0) / 1e3);
  }
  if (!p.ok()) return {};
  return {true, p.value().state == JobState::kDone, p.value().round_index};
}

bool WireTransport::Fetch(uint64_t ticket, JobRecord* rec) {
  int64_t t0 = NowNs();
  auto w = poller_.Wait(ticket);
  int64_t t1 = NowNs();
  if (log_ != nullptr) {
    log_->AddComplete("server.rpc", static_cast<int64_t>(ticket), t0, t1);
    wait_ms.push_back(MsBetween(t0, t1));
  }
  if (!w.ok()) {
    rec->error = w.status().ToString();
    return poller_.connected();
  }
  mufuzz::engine::JobOutcome outcome;
  outcome.name = w.value().name;
  outcome.error = w.value().error;
  if (w.value().has_result) outcome.result = w.value().result;
  rec->outcome_bytes = mufuzz::server::EncodeOutcome(outcome).size();
  rec->result = std::move(outcome.result);
  rec->error = outcome.error;
  return true;
}

bool WireTransport::Stats(mufuzz::engine::ServiceStats* stats) {
  auto s = poller_.Stats();
  if (!s.ok()) return false;
  *stats = std::move(s).value();
  return true;
}

// ---------------------------------------------------------------- Open loop --

LegResult RunOpenLoop(Transport* transport, const std::vector<BenchJob>& jobs,
                      const OpenLoopOptions& options) {
  LegResult leg;
  leg.jobs.resize(jobs.size());
  std::mutex mu;
  std::deque<std::pair<size_t, uint64_t>> submitted;  // (job, ticket)
  size_t handed_off = 0;  // jobs the generator is done with
  std::atomic<bool> abort{false};

  const int64_t start_ns = NowNs();
  const int64_t deadline_ns =
      start_ns + static_cast<int64_t>(options.deadline_s * 1e9);

  std::thread generator([&] {
    for (size_t i = 0; i < jobs.size() && !abort.load(); ++i) {
      int64_t due = start_ns + static_cast<int64_t>(jobs[i].due_ms * 1e6);
      SleepUntilNs(due);
      JobRecord& rec = leg.jobs[i];
      rec.submit_ns = NowNs();
      rec.gen_lag_ms = MsBetween(due, rec.submit_ns);
      uint64_t ticket = 0;
      bool ok = transport->Submit(jobs[i], &ticket, &rec.error);
      std::lock_guard<std::mutex> lock(mu);
      if (ok) submitted.emplace_back(i, ticket);
      ++handed_off;
    }
    std::lock_guard<std::mutex> lock(mu);
    handed_off = jobs.size();
  });

  std::vector<std::pair<size_t, uint64_t>> outstanding;
  int64_t last_stats_ns = 0;
  uint64_t sweeps = 0;
  int64_t first_sweep_ns = 0, last_sweep_ns = 0;
  while (true) {
    bool generator_done = false;
    {
      std::lock_guard<std::mutex> lock(mu);
      while (!submitted.empty()) {
        outstanding.push_back(submitted.front());
        submitted.pop_front();
      }
      generator_done = handed_off == jobs.size();
    }
    if (generator_done && outstanding.empty()) break;
    int64_t sweep_start = NowNs();
    if (sweep_start > deadline_ns) {
      for (auto& [i, t] : outstanding) leg.jobs[i].error = "not finished";
      abort = true;
      break;
    }
    if (first_sweep_ns == 0) first_sweep_ns = sweep_start;
    last_sweep_ns = sweep_start;
    ++sweeps;
    for (size_t k = 0; k < outstanding.size();) {
      auto [i, ticket] = outstanding[k];
      Transport::PollResult p = transport->Poll(ticket);
      if (!p.ok) {
        leg.transport_lost = true;
        break;
      }
      if (!p.done) {
        ++k;
        continue;
      }
      JobRecord& rec = leg.jobs[i];
      rec.done_ns = NowNs();
      int64_t due = start_ns + static_cast<int64_t>(jobs[i].due_ms * 1e6);
      rec.latency_ms = MsBetween(due, rec.done_ns);
      rec.rounds = p.rounds;
      if (!transport->Fetch(ticket, &rec)) {
        leg.transport_lost = true;
        break;
      }
      rec.done = true;
      outstanding[k] = outstanding.back();
      outstanding.pop_back();
    }
    if (leg.transport_lost) {
      for (auto& [i, t] : outstanding) leg.jobs[i].error = "transport lost";
      abort = true;
      break;
    }
    if (options.stats_period_ms > 0 &&
        MsBetween(last_stats_ns, NowNs()) >= options.stats_period_ms) {
      mufuzz::engine::ServiceStats s;
      if (transport->Stats(&s)) leg.stats.push_back(std::move(s));
      last_stats_ns = NowNs();
    }
    SleepUntilNs(sweep_start +
                 static_cast<int64_t>(options.poll_period_ms * 1e6));
  }
  generator.join();
  for (JobRecord& r : leg.jobs) {
    if (!r.done && r.error.empty()) r.error = "not submitted";
  }
  int64_t last_done = start_ns;
  for (const JobRecord& r : leg.jobs) {
    last_done = std::max(last_done, r.done_ns);
  }
  leg.wall_ms = MsBetween(start_ns, last_done);
  leg.poll_interval_ms =
      sweeps > 1 ? MsBetween(first_sweep_ns, last_sweep_ns) /
                       static_cast<double>(sweeps - 1)
                 : options.poll_period_ms;
  return leg;
}

JobRecord RunOne(Transport* transport, const BenchJob& job) {
  JobRecord rec;
  uint64_t ticket = 0;
  rec.submit_ns = NowNs();
  if (!transport->Submit(job, &ticket, &rec.error)) return rec;
  rec.done = transport->Fetch(ticket, &rec);
  rec.done_ns = NowNs();
  rec.latency_ms = MsBetween(rec.submit_ns, rec.done_ns);
  return rec;
}

// ------------------------------------------------------------------- Direct --

DirectResult RunDirect(const std::vector<BenchJob>& jobs,
                       const std::vector<std::string>& sources, int threads) {
  DirectResult out;
  out.results.resize(jobs.size());
  out.errors.resize(jobs.size());
  out.code_bytes.assign(sources.size(), 0);
  std::vector<std::optional<mufuzz::lang::ContractArtifact>> artifacts(
      sources.size());
  std::vector<std::string> compile_errors(sources.size());
  std::vector<LayerCounters> counters(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    out.logs.push_back(std::make_unique<SpanLog>());
  }
  evm::CodeCacheStats cache_before = evm::CodeCache::Global()->stats();
  int64_t t0 = NowNs();

  std::vector<std::unique_ptr<TracingBackend>> backends;
  for (int t = 0; t < threads; ++t) {
    backends.push_back(std::make_unique<TracingBackend>(
        out.logs[static_cast<size_t>(t)].get(),
        &counters[static_cast<size_t>(t)]));
  }
  auto run_phase = [&](size_t n, auto body) {
    std::atomic<size_t> next{0};
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        size_t k = static_cast<size_t>(t);
        for (size_t i = next++; i < n; i = next++) {
          body(out.logs[k].get(), &counters[k], backends[k].get(), i);
        }
      });
    }
    for (std::thread& th : pool) th.join();
  };

  run_phase(sources.size(), [&](SpanLog* log, LayerCounters*,
                                TracingBackend*, size_t s) {
    ScopedSpan span(log, "lang.compile", -1);
    auto compiled = mufuzz::lang::CompileContract(sources[s]);
    if (compiled.ok()) {
      artifacts[s] = std::move(compiled).value();
      out.code_bytes[s] = artifacts[s]->runtime_code.size();
    } else {
      compile_errors[s] = compiled.status().ToString();
    }
  });

  run_phase(jobs.size(), [&](SpanLog* log, LayerCounters* c,
                             TracingBackend* backend, size_t j) {
    const BenchJob& job = jobs[j];
    size_t s = static_cast<size_t>(job.source_id);
    if (!artifacts[s].has_value()) {
      out.errors[j] = "compile failed: " + compile_errors[s];
      return;
    }
    int64_t id = static_cast<int64_t>(j);
    backend->BeginJob(id);
    TracingScheduler scheduler(job.config.strategy.distance_feedback, log, id,
                               c);
    std::optional<fuzzer::Campaign> campaign;
    {
      ScopedSpan span(log, "fuzzer.campaign.construct", id);
      campaign.emplace(&*artifacts[s], job.config, backend, &scheduler);
    }
    {
      ScopedSpan span(log, "fuzzer.campaign.seed_corpus", id);
      campaign->SeedCorpus();
    }
    {
      ScopedSpan span(log, "fuzzer.campaign.step", id);
      campaign->StepRound(static_cast<uint64_t>(job.config.max_executions));
    }
    {
      ScopedSpan span(log, "fuzzer.campaign.finalize", id);
      out.results[j] = campaign->Finalize();
    }
  });

  out.wall_ms = MsBetween(t0, NowNs());
  evm::CodeCacheStats cache_after = evm::CodeCache::Global()->stats();
  for (const LayerCounters& c : counters) out.counters.Merge(c);
  out.counters.cache_hits = cache_after.hits - cache_before.hits;
  out.counters.cache_misses = cache_after.misses - cache_before.misses;
  return out;
}

}  // namespace perfbench
