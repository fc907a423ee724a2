// Differential test for SessionBackend's transaction memo: plans whose
// transactions ran before on the same state (served from recorded outcomes
// and replayed deltas) must produce exactly what the same plan produces
// right after Rewind(), which runs it cold. Streams mimic the fuzzer's
// children — tail mutations, swaps, exact repeats, extensions — interleaved
// with unrelated plans, two backends taking the thread's memo from each
// other, and Rewind/FundAccount calls between plans; further streams put
// the repeats behind transactions that differ, which only a state key can
// serve.
//
// The WorldState case checks the delta primitives the memo replays:
// CaptureDelta, unwind, ApplyDelta must rebuild the captured state, over
// random op streams checked against the copy-based oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "copy_state_backstop.h"
#include "corpus/builtin.h"
#include "evm/async_backend.h"
#include "evm/execution_backend.h"
#include "fuzzer/abi_codec.h"
#include "fuzzer/fuzzing_host.h"
#include "lang/compiler.h"

namespace mufuzz::evm {
namespace {

using AccountMap = std::unordered_map<Address, Account, Address::Hasher>;

// --------------------------------------------------------- Outcome oracle --

void ExpectSameTrace(const TraceRecorder& got, const TraceRecorder& want) {
  EXPECT_EQ(got.instruction_count(), want.instruction_count());
  EXPECT_EQ(got.branches(), want.branches());
  EXPECT_EQ(got.jumps(), want.jumps());
  EXPECT_EQ(got.calls(), want.calls());
  EXPECT_EQ(got.stores(), want.stores());
  EXPECT_EQ(got.overflows(), want.overflows());
  EXPECT_EQ(got.selfdestructs(), want.selfdestructs());
  EXPECT_EQ(got.balance_reads(), want.balance_reads());
  EXPECT_EQ(got.block_reads(), want.block_reads());
  EXPECT_EQ(got.checked_calls(), want.checked_calls());
}

/// Branch pcs executed, flattened across transactions (trace order).
std::vector<uint32_t> TouchedPcs(const SequenceOutcome& outcome) {
  std::vector<uint32_t> pcs;
  for (const TxOutcome& txo : outcome.txs) {
    for (const BranchEvent& ev : txo.trace.branches()) pcs.push_back(ev.pc);
  }
  return pcs;
}

/// Every field of the outcome, transaction by transaction.
void ExpectSameOutcome(const SequenceOutcome& got, const SequenceOutcome& want,
                       const std::string& where) {
  SCOPED_TRACE(where);
  EXPECT_EQ(got.instructions, want.instructions);
  EXPECT_EQ(TouchedPcs(got), TouchedPcs(want));
  ASSERT_EQ(got.txs.size(), want.txs.size());
  for (size_t i = 0; i < got.txs.size(); ++i) {
    SCOPED_TRACE("tx " + std::to_string(i));
    const TxOutcome& g = got.txs[i];
    const TxOutcome& w = want.txs[i];
    EXPECT_EQ(g.tag, w.tag);
    EXPECT_EQ(g.success, w.success);
    EXPECT_EQ(g.outcome, w.outcome);
    EXPECT_EQ(g.gas_used, w.gas_used);
    EXPECT_EQ(g.cmps, w.cmps);
    ExpectSameTrace(g.trace, w.trace);
  }
}

// ---------------------------------------------------------- Plan streams --

/// FuzzingHost that logs the arming hooks: a served transaction must still
/// arm the host exactly as an executed one does.
class RecordingHost : public fuzzer::FuzzingHost {
 public:
  using FuzzingHost::FuzzingHost;

  void OnSequenceStart(uint64_t seed) override {
    log_.push_back("seq " + std::to_string(seed));
    FuzzingHost::OnSequenceStart(seed);
  }
  void OnTransactionStart(const Bytes& calldata) override {
    log_.push_back("tx " + HexEncode0x(calldata));
    FuzzingHost::OnTransactionStart(calldata);
  }

  /// Hook calls since the last TakeLog.
  std::vector<std::string> TakeLog() { return std::exchange(log_, {}); }

 private:
  std::vector<std::string> log_;
};

/// One contract deployed on a backend the way a campaign sets it up.
class Target {
 public:
  Target(const corpus::CorpusEntry& entry, double failure_probability,
         EvmConfig config)
      : config_(config),
        host_(/*seed=*/0xfeed, failure_probability, /*max_reentries=*/2) {
    auto compiled = lang::CompileContract(entry.source);
    EXPECT_TRUE(compiled.ok()) << entry.name << ": "
                               << compiled.status().ToString();
    artifact_ = std::move(compiled).value();
    for (uint64_t i = 0; i < 3; ++i) {
      senders_.push_back(Address::FromUint(0xa11ce0 + i));
    }
    codec_ = std::make_unique<fuzzer::AbiCodec>(&artifact_.abi, senders_);
  }

  /// Binds, funds, deploys, and marks `backend`; false if deployment failed.
  /// Deployment addresses are deterministic, so every backend a Target
  /// prepares holds the contract where Stream's plans send their calls.
  bool Prepare(ExecutionBackend* backend) {
    if (!Deploy(backend)) return false;
    backend->MarkDeployed();
    return true;
  }

  /// Prepare without the MarkDeployed.
  bool Deploy(ExecutionBackend* backend) {
    backend->Bind(&host_, BlockContext(), config_);
    for (const Address& sender : senders_) {
      backend->FundAccount(sender, U256::PowerOfTen(24));
    }
    auto addr = backend->DeployContract(artifact_.runtime_code,
                                        artifact_.ctor_code, {}, senders_[0],
                                        U256(0));
    if (!addr.ok()) return false;
    contract_ = addr.value();
    backend->FundAccount(contract_, U256::PowerOfTen(19));
    return true;
  }

  PreparedTx RandomTx(Rng* rng) const {
    const int fns = static_cast<int>(artifact_.abi.functions.size());
    fuzzer::Tx tx = codec_->RandomTx(static_cast<int>(rng->NextBelow(fns)),
                                     rng);
    PreparedTx prepared;
    prepared.request.to = contract_;
    prepared.request.sender = senders_[tx.sender_index % senders_.size()];
    prepared.request.value = tx.value;
    prepared.request.data = codec_->EncodeCalldata(tx);
    return prepared;
  }

  /// `count` plans shaped like a fuzzer's children: most derive from one of
  /// the last few plans (siblings share their parent's prefix), some are
  /// unrelated. Every plan gets a fresh host seed, as every child does.
  std::vector<SequencePlan> Stream(int count, Rng* rng) const {
    std::vector<SequencePlan> stream;
    for (int n = 0; n < count; ++n) {
      SequencePlan plan;
      const uint64_t shape = stream.empty() ? 0 : rng->NextBelow(7);
      if (shape != 0) {
        plan = stream[stream.size() - 1 -
                      rng->NextBelow(std::min<size_t>(stream.size(), 4))];
      }
      const size_t len = plan.txs.size();
      switch (shape) {
        case 0: {  // unrelated
          const size_t fresh = 1 + rng->NextBelow(6);
          for (size_t i = 0; i < fresh; ++i) plan.txs.push_back(RandomTx(rng));
          break;
        }
        case 1: {  // tail mutation: keep a prefix, redraw from one position
          const size_t from = rng->NextBelow(len);
          plan.txs.resize(from);
          const size_t fresh = 1 + rng->NextBelow(3);
          for (size_t i = 0; i < fresh; ++i) plan.txs.push_back(RandomTx(rng));
          break;
        }
        case 2:  // swap two transactions
          std::swap(plan.txs[rng->NextBelow(len)],
                    plan.txs[rng->NextBelow(len)]);
          break;
        case 3:  // exact repeat
          break;
        case 4:  // extension
          plan.txs.push_back(RandomTx(rng));
          break;
        case 5:  // truncation
          plan.txs.resize(1 + rng->NextBelow(len));
          break;
        case 6: {  // same calldata, another value or sender
          TransactionRequest& r = plan.txs[rng->NextBelow(len)].request;
          if (rng->NextBelow(2) == 0) {
            r.value = r.value + U256(1 + rng->NextBelow(3));
          } else {
            r.sender = senders_[rng->NextBelow(senders_.size())];
          }
          break;
        }
      }
      plan.host_seed = rng->NextU64();
      for (size_t i = 0; i < plan.txs.size(); ++i) {
        plan.txs[i].tag = static_cast<int>(100 * n + i);
      }
      stream.push_back(std::move(plan));
    }
    return stream;
  }

  /// A call with an unknown selector: the dispatcher reverts, so the
  /// state is left as it was. `variant` makes each one a new request.
  PreparedTx RevertingTx(Rng* rng, uint8_t variant) const {
    PreparedTx prepared = RandomTx(rng);
    prepared.request.value = U256(0);
    prepared.request.data = {0xff, 0xff, 0xff, 0xff, variant};
    return prepared;
  }

  /// A zero-value call to a sender, which has no code: it succeeds and
  /// writes nothing.
  PreparedTx NoOpTx(uint8_t variant) const {
    PreparedTx prepared;
    prepared.request.to = senders_[2];
    prepared.request.sender = senders_[0];
    prepared.request.data = {variant};
    return prepared;
  }

  const Address& sender(size_t i) const { return senders_[i]; }
  RecordingHost& host() { return host_; }

 private:
  EvmConfig config_;
  RecordingHost host_;
  lang::ContractArtifact artifact_;
  std::vector<Address> senders_;
  std::unique_ptr<fuzzer::AbiCodec> codec_;
  Address contract_;
};

/// What one plan produces when run cold, right after Rewind().
struct ColdRun {
  SequenceOutcome outcome;
  AccountMap state;
  std::vector<std::string> host_log;
};

std::vector<ColdRun> ColdRuns(Target* target,
                              const std::vector<SequencePlan>& stream) {
  SessionBackend backend;
  EXPECT_TRUE(target->Prepare(&backend));
  std::vector<ColdRun> runs;
  for (const SequencePlan& plan : stream) {
    backend.Rewind();
    ColdRun run;
    target->host().TakeLog();
    run.outcome = backend.ExecuteSequence(plan);
    run.state = backend.state().accounts();
    run.host_log = target->host().TakeLog();
    runs.push_back(std::move(run));
  }
  return runs;
}

/// Plain bytes only, with no padding: gtest lists an unprintable parameter
/// byte by byte in the test's name, so a pointer here (a std::string's
/// buffer) would give the tests a different name in every build.
struct DiffCase {
  double failure_probability;
  DispatchMode dispatch;
  char name[39];
};
static_assert(sizeof(DiffCase) == 48, "DiffCase must have no padding");

EvmConfig ConfigFor(const DiffCase& c) {
  EvmConfig config;
  config.dispatch = c.dispatch;
  config.jit_threshold = 0;  // compile eagerly so kJit runs native code
  return config;
}

/// Corpus contracts for the streams: the paper's two examples and the
/// vulnerable suite's templates (re-entrant calls, value transfers, block
/// reads, failing callees).
std::vector<corpus::CorpusEntry> Contracts() {
  return corpus::VulnerableSuite(24);  // starts with Crowdsale and Game
}

class PrefixCacheDiffTest : public ::testing::TestWithParam<DiffCase> {};

TEST_P(PrefixCacheDiffTest, WarmStreamsMatchColdRuns) {
  const std::vector<corpus::CorpusEntry> contracts = Contracts();
  Rng rng(0x9e3779b97f4a7c15ULL);
  PrefixCacheStats stats;
  // Two backends on this thread, each fuzzing its own contract, take the
  // memo from each other in bursts.
  for (size_t c = 0; c + 1 < contracts.size(); c += 2) {
    Target targets[2] = {
        Target(contracts[c], GetParam().failure_probability,
               ConfigFor(GetParam())),
        Target(contracts[c + 1], GetParam().failure_probability,
               ConfigFor(GetParam()))};
    SessionBackend backends[2];
    if (!targets[0].Prepare(&backends[0]) ||
        !targets[1].Prepare(&backends[1])) {
      continue;  // a constructor needs arguments the fixture doesn't pass
    }
    std::vector<SequencePlan> streams[2];
    std::vector<ColdRun> cold[2];
    for (int b = 0; b < 2; ++b) {
      streams[b] = targets[b].Stream(60, &rng);
      cold[b] = ColdRuns(&targets[b], streams[b]);
    }

    size_t next[2] = {0, 0};
    SequenceOutcome slots[2];  // reused: served outcomes land in warm slots
    int turn = 0;
    while (next[0] < streams[0].size() || next[1] < streams[1].size()) {
      if (next[turn] == streams[turn].size()) turn ^= 1;
      const uint64_t burst = 1 + rng.NextBelow(16);
      for (uint64_t k = 0; k < burst && next[turn] < streams[turn].size();
           ++k) {
        SessionBackend& backend = backends[turn];
        const uint64_t between = rng.NextBelow(10);
        if (between == 0) backend.Rewind();
        if (between == 1) {
          backend.FundAccount(targets[turn].sender(1), U256::PowerOfTen(24));
        }
        const size_t i = next[turn]++;
        targets[turn].host().TakeLog();
        backend.ExecuteSequenceInto(streams[turn][i], &slots[turn]);
        const std::string where = contracts[c + turn].name + " plan " +
                                  std::to_string(i);
        ExpectSameOutcome(slots[turn], cold[turn][i].outcome, where);
        EXPECT_TRUE(backend.state().accounts() == cold[turn][i].state)
            << where << ": final world state differs from the cold run";
        EXPECT_EQ(targets[turn].host().TakeLog(), cold[turn][i].host_log)
            << where << ": the host was armed differently";
      }
      turn ^= 1;
    }
    for (const SessionBackend& backend : backends) {
      stats += backend.prefix_cache_stats();
    }
  }
  // The streams are built to share prefixes: the memo must serve.
  EXPECT_GT(stats.served_txs, stats.executed_txs / 10)
      << "served " << stats.served_txs << ", executed " << stats.executed_txs;
}

/// Whether the cold run's transaction `i` called out to the host.
bool ReachedHost(const TxOutcome& txo) {
  for (const CallEvent& ev : txo.trace.calls()) {
    if (ev.to_external) return true;
  }
  return false;
}

/// Per plan of `stream`, the transactions a cache keyed by the request
/// chain could serve at most: those whose whole chain up to them ran in an
/// earlier plan and never reached the host there.
std::vector<uint64_t> ChainServableBound(const std::vector<SequencePlan>& stream,
                                         const std::vector<ColdRun>& cold) {
  auto same_request = [](const TransactionRequest& a,
                         const TransactionRequest& b) {
    return a.to == b.to && a.sender == b.sender && a.value == b.value &&
           a.data == b.data && a.gas == b.gas;
  };
  std::vector<uint64_t> bound(stream.size(), 0);
  for (size_t p = 0; p < stream.size(); ++p) {
    const std::vector<PreparedTx>& txs = stream[p].txs;
    for (size_t i = 0; i < txs.size(); ++i) {
      if (ReachedHost(cold[p].outcome.txs[i])) break;
      bool seen = false;
      for (size_t q = 0; q < p && !seen; ++q) {
        const std::vector<PreparedTx>& earlier = stream[q].txs;
        if (earlier.size() <= i) continue;
        seen = true;
        for (size_t k = 0; k <= i && seen; ++k) {
          seen = same_request(earlier[k].request, txs[k].request);
        }
      }
      if (!seen) break;
      ++bound[p];
    }
  }
  return bound;
}

/// The three shapes of StateKeyedStream, in stream order.
enum Shape { kReverted, kInserted, kAfterHost, kShapes };
const char* const kShapeNames[kShapes] = {"reverted", "inserted", "after-host"};

/// Plans only a state key can serve past their first difference, each
/// tagged with its shape:
///  - kReverted: [A, R_k, B, C] with every R_k reverting, so B and C run on
///    A's post-state each time;
///  - kInserted: [A, N_k, B, C] with N_k writing nothing (reverting, or a
///    call to a code-less account);
///  - kAfterHost: a prefix whose last transaction reached the host (found
///    by running random candidates cold), then B and C, under fresh host
///    seeds. Empty when no candidate of the contract reaches the host.
std::vector<std::pair<SequencePlan, Shape>> StateKeyedStream(Target* target,
                                                             Rng* rng) {
  std::vector<std::pair<SequencePlan, Shape>> stream;
  auto add = [&](std::vector<PreparedTx> txs, Shape shape) {
    SequencePlan plan;
    plan.txs = std::move(txs);
    plan.host_seed = rng->NextU64();
    for (size_t i = 0; i < plan.txs.size(); ++i) {
      plan.txs[i].tag = static_cast<int>(100 * stream.size() + i);
    }
    stream.push_back({std::move(plan), shape});
  };
  const PreparedTx a = target->RandomTx(rng), b = target->RandomTx(rng),
                   c = target->RandomTx(rng);
  for (uint8_t k = 0; k < 6; ++k) {
    add({a, target->RevertingTx(rng, k), b, c}, kReverted);
  }
  for (uint8_t k = 0; k < 6; ++k) {
    add({a,
         k % 2 == 0 ? target->NoOpTx(k) : target->RevertingTx(rng, 0x80 + k),
         b, c},
        kInserted);
  }
  std::vector<SequencePlan> candidates(24);
  for (SequencePlan& plan : candidates) {
    for (int i = 0; i < 3; ++i) plan.txs.push_back(target->RandomTx(rng));
  }
  const std::vector<ColdRun> probes = ColdRuns(target, candidates);
  for (size_t p = 0; p < candidates.size(); ++p) {
    size_t h = 0;
    while (h < 3 && !ReachedHost(probes[p].outcome.txs[h])) ++h;
    if (h == 3) continue;
    std::vector<PreparedTx> txs(candidates[p].txs.begin(),
                                candidates[p].txs.begin() + h + 1);
    txs.push_back(b);
    txs.push_back(c);
    for (int k = 0; k < 8; ++k) add(txs, kAfterHost);
    break;
  }
  return stream;
}

TEST_P(PrefixCacheDiffTest, StateKeyedStreamsMatchColdRuns) {
  const std::vector<corpus::CorpusEntry> contracts = Contracts();
  Rng rng(0x57a7e);
  uint64_t served[kShapes] = {}, txs[kShapes] = {}, chain[kShapes] = {};
  for (const corpus::CorpusEntry& contract : contracts) {
    Target target(contract, GetParam().failure_probability,
                  ConfigFor(GetParam()));
    SessionBackend backend;
    if (!target.Prepare(&backend)) continue;
    const auto shaped = StateKeyedStream(&target, &rng);
    std::vector<SequencePlan> stream;
    for (const auto& [plan, shape] : shaped) stream.push_back(plan);
    const std::vector<ColdRun> cold = ColdRuns(&target, stream);
    const std::vector<uint64_t> bound = ChainServableBound(stream, cold);
    SequenceOutcome slot;
    for (size_t i = 0; i < stream.size(); ++i) {
      const Shape shape = shaped[i].second;
      const uint64_t before = backend.prefix_cache_stats().served_txs;
      target.host().TakeLog();
      backend.ExecuteSequenceInto(stream[i], &slot);
      served[shape] += backend.prefix_cache_stats().served_txs - before;
      txs[shape] += stream[i].txs.size();
      chain[shape] += bound[i];
      const std::string where = contract.name + " " + kShapeNames[shape] +
                                " plan " + std::to_string(i);
      ExpectSameOutcome(slot, cold[i].outcome, where);
      EXPECT_TRUE(backend.state().accounts() == cold[i].state)
          << where << ": final world state differs from the cold run";
      EXPECT_EQ(target.host().TakeLog(), cold[i].host_log)
          << where << ": the host was armed differently";
    }
  }
  // Chain keys stop at the first transaction that differs or reached the
  // host; the state key serves what follows whenever the state repeats.
  for (int shape = 0; shape < kShapes; ++shape) {
    EXPECT_GT(served[shape], chain[shape] + chain[shape] / 2)
        << kShapeNames[shape] << ": served " << served[shape] << " of "
        << txs[shape] << "; chain keys could serve at most " << chain[shape];
  }
}

TEST_P(PrefixCacheDiffTest, AsyncReplicasMatchColdRuns) {
  const std::vector<corpus::CorpusEntry> contracts = Contracts();
  Rng rng(0x51ed);
  for (size_t c = 0; c < 6; ++c) {
    Target target(contracts[c], GetParam().failure_probability,
                  ConfigFor(GetParam()));
    AsyncBackendAdapter::Options options;
    options.workers = 2;
    AsyncBackendAdapter backend(options);
    if (!target.Prepare(&backend)) continue;
    std::vector<SequencePlan> stream = target.Stream(48, &rng);
    std::vector<ColdRun> cold = ColdRuns(&target, stream);
    for (size_t start = 0; start < stream.size(); start += 8) {
      std::vector<SequencePlan> wave(stream.begin() + start,
                                     stream.begin() + start + 8);
      std::vector<SequenceOutcome> outcomes =
          backend.WaitBatch(backend.SubmitBatch(std::move(wave)));
      for (size_t i = 0; i < outcomes.size(); ++i) {
        ExpectSameOutcome(outcomes[i], cold[start + i].outcome,
                          contracts[c].name + " plan " +
                              std::to_string(start + i));
      }
      backend.RecycleOutcomes(std::move(outcomes));
    }
    const PrefixCacheStats stats = backend.prefix_cache_stats();
    uint64_t txs = 0;
    for (const SequencePlan& plan : stream) txs += plan.txs.size();
    EXPECT_EQ(stats.executed_txs + stats.served_txs, txs);
  }
}

TEST_P(PrefixCacheDiffTest, ExecutingBeforeMarkDeployedMarksImplicitly) {
  // Every plan restores the deployed mark, so a backend that never got one
  // takes it at its first plan: every plan then runs as if rewound to the
  // state it found there.
  Target target(Contracts()[0], GetParam().failure_probability,
                ConfigFor(GetParam()));
  SessionBackend marked;
  ASSERT_TRUE(target.Prepare(&marked));
  Rng rng(0x3a9);
  std::vector<SequencePlan> stream = target.Stream(12, &rng);
  std::vector<ColdRun> cold = ColdRuns(&target, stream);

  SessionBackend unmarked;
  ASSERT_TRUE(target.Deploy(&unmarked));
  for (size_t i = 0; i < stream.size(); ++i) {
    ExpectSameOutcome(unmarked.ExecuteSequence(stream[i]), cold[i].outcome,
                      "plan " + std::to_string(i));
  }
}

/// A thread that runs one task at a time on request, so a test can move a
/// backend between threads and back.
class Lane {
 public:
  Lane() : thread_([this] { Loop(); }) {}
  Lane(const Lane&) = delete;
  Lane& operator=(const Lane&) = delete;
  ~Lane() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  /// Runs `task` on this lane's thread and waits for it.
  void Run(std::function<void()> task) {
    std::unique_lock<std::mutex> lock(mu_);
    task_ = std::move(task);
    cv_.notify_all();
    cv_.wait(lock, [this] { return task_ == nullptr; });
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      cv_.wait(lock, [this] { return stop_ || task_ != nullptr; });
      if (stop_) return;
      task_();
      task_ = nullptr;
      cv_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::function<void()> task_;
  bool stop_ = false;
  std::thread thread_;  // last: starts after the members it uses
};

TEST_P(PrefixCacheDiffTest, BackendMovingBetweenThreadsMatchesColdRuns) {
  // A backend that leaves a thread and comes back must not trust the memo
  // it left there, which another backend may have claimed since.
  // Each round runs P twice on one thread (the second run records it), an
  // unrelated Q twice on the other, then an extension of P back on the
  // first.
  const std::vector<corpus::CorpusEntry> contracts = Contracts();
  Rng rng(0x7ead);
  Lane lanes[2];
  for (size_t c = 0; c < 8; ++c) {
    Target target(contracts[c], GetParam().failure_probability,
                  ConfigFor(GetParam()));
    SessionBackend backend;
    if (!target.Prepare(&backend)) continue;
    std::vector<SequencePlan> stream;
    std::vector<int> lane_of;
    for (int round = 0; round < 8; ++round) {
      const int home = static_cast<int>(rng.NextBelow(2));
      SequencePlan p, q;
      for (uint64_t i = 0, n = 1 + rng.NextBelow(4); i < n; ++i) {
        p.txs.push_back(target.RandomTx(&rng));
        q.txs.push_back(target.RandomTx(&rng));
      }
      SequencePlan extended = p;
      extended.txs.push_back(target.RandomTx(&rng));
      for (SequencePlan* plan : {&p, &p, &q, &q, &extended}) {
        plan->host_seed = rng.NextU64();
        stream.push_back(*plan);
      }
      lane_of.insert(lane_of.end(), {home, home, 1 - home, 1 - home, home});
    }
    std::vector<ColdRun> cold = ColdRuns(&target, stream);
    SequenceOutcome slot;
    for (size_t i = 0; i < stream.size(); ++i) {
      lanes[lane_of[i]].Run([&] {
        backend.ExecuteSequenceInto(stream[i], &slot);
        const std::string where =
            contracts[c].name + " plan " + std::to_string(i);
        ExpectSameOutcome(slot, cold[i].outcome, where);
        EXPECT_TRUE(backend.state().accounts() == cold[i].state)
            << where << ": final world state differs from the cold run";
      });
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Hosts, PrefixCacheDiffTest,
    ::testing::Values(DiffCase{0.0, DispatchMode::kDecoded, "decoded_p0"},
                      DiffCase{0.3, DispatchMode::kDecoded, "decoded_p03"},
                      DiffCase{0.0, DispatchMode::kJit, "jit_p0"},
                      DiffCase{0.3, DispatchMode::kJit, "jit_p03"}),
    [](const ::testing::TestParamInfo<DiffCase>& info) {
      return std::string(info.param.name);
    });

// ------------------------------------------------------ WorldState deltas --

/// Random journaled ops over a small address/key pool, mirrored onto the
/// copy-based oracle. Nested snapshots revert or commit inside the span,
/// as a transaction's call frames do.
void RandomOps(WorldState* ws, CopyStateBackstop* oracle, Rng* rng,
               int count) {
  std::vector<std::pair<size_t, size_t>> nested;  // (ws id, oracle id)
  auto addr = [&] { return Address::FromUint(0x100 + rng->NextBelow(5)); };
  for (int n = 0; n < count; ++n) {
    switch (rng->NextBelow(9)) {
      case 0: {
        Address a = addr();
        ws->Touch(a);
        oracle->Touch(a);
        break;
      }
      case 1: {
        Address a = addr();
        U256 v(rng->NextBelow(4) * 1000);
        ws->SetBalance(a, v);
        oracle->SetBalance(a, v);
        break;
      }
      case 2: {
        Address from = addr(), to = addr();
        U256 v(rng->NextBelow(500));
        EXPECT_EQ(ws->Transfer(from, to, v), oracle->Transfer(from, to, v));
        break;
      }
      case 3:
      case 4: {
        Address a = addr();
        U256 key(rng->NextBelow(12));
        U256 v(rng->NextBelow(3));
        uint32_t taint = static_cast<uint32_t>(rng->NextBelow(3));
        ws->SetStorage(a, key, v, taint);
        oracle->SetStorage(a, key, v, taint);
        break;
      }
      case 5: {
        Address a = addr();
        Bytes code(rng->NextBelow(3), static_cast<uint8_t>(n));
        ws->SetCode(a, code);
        oracle->SetCode(a, code);
        break;
      }
      case 6: {
        Address a = addr();
        ws->MarkSelfDestructed(a);
        oracle->MarkSelfDestructed(a);
        break;
      }
      case 7:
        nested.push_back({ws->Snapshot(), oracle->Snapshot()});
        break;
      case 8:
        if (!nested.empty()) {
          auto [ws_id, oracle_id] = nested.back();
          nested.pop_back();
          if (rng->NextBelow(2) == 0) {
            ws->RevertTo(ws_id);
            oracle->RevertTo(oracle_id);
          } else {
            ws->Commit(ws_id);
            oracle->Commit(oracle_id);
          }
        }
        break;
    }
  }
  while (!nested.empty()) {
    ws->Commit(nested.back().first);
    oracle->Commit(nested.back().second);
    nested.pop_back();
  }
}

TEST(WorldStateDeltaTest, CaptureUnwindApplyRebuildsTheState) {
  Rng rng(0xde17a);
  for (int trial = 0; trial < 200; ++trial) {
    WorldState ws;
    CopyStateBackstop oracle;
    RandomOps(&ws, &oracle, &rng, 10);  // pre-existing, unjournaled state
    const size_t base = ws.Snapshot();
    const size_t oracle_base = oracle.Snapshot();
    // A chain of spans, each captured from its own start mark.
    std::vector<WorldState::Delta> deltas(1 + rng.NextBelow(4));
    std::vector<AccountMap> after;
    for (WorldState::Delta& delta : deltas) {
      const size_t start = ws.journal_size();
      RandomOps(&ws, &oracle, &rng, static_cast<int>(rng.NextBelow(40)));
      ASSERT_TRUE(SameObservableState(ws, oracle));
      ws.CaptureDelta(start, &delta);
      after.push_back(ws.accounts());
    }

    ws.RestoreKeep(base);
    oracle.RestoreKeep(oracle_base);
    ASSERT_TRUE(SameObservableState(ws, oracle)) << "trial " << trial;
    for (size_t i = 0; i < deltas.size(); ++i) {
      ws.ApplyDelta(deltas[i]);
      ASSERT_TRUE(ws.accounts() == after[i])
          << "trial " << trial << ": replaying delta " << i
          << " did not rebuild the captured state";
    }
    // Replayed writes are journaled: the next restore undoes them.
    ws.RestoreKeep(base);
    EXPECT_TRUE(SameObservableState(ws, oracle)) << "trial " << trial;
  }
}

}  // namespace
}  // namespace mufuzz::evm
