// Differential test for FeedbackEngine's processed-record fast path: an
// outcome whose memo record the engine already processed in full takes a
// short path that only replays the per-sequence signals. Real campaigns'
// outcome streams (in the order the campaign redeemed them, and reversed)
// run through two engines, one given each outcome's record id and one given
// 0 everywhere, which is the full path; after every sequence the signals,
// the oracle results, coverage, best distances, the constants dictionary
// and the energy weights must be equal.
//
// The record-id tests pin what the fast path relies on from the backend:
// a served outcome carries the id of the executed outcome that created its
// record, unrecorded and host-reaching transactions carry 0, equal ids mean
// equal outcomes, and ids are never shared between backends or reused.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "corpus/builtin.h"
#include "corpus/datasets.h"
#include "evm/async_backend.h"
#include "evm/execution_backend.h"
#include "fuzzer/abi_codec.h"
#include "fuzzer/campaign.h"
#include "fuzzer/feedback_engine.h"
#include "lang/compiler.h"

namespace mufuzz::fuzzer {
namespace {

using evm::TxOutcome;

bool ReachedHost(const TxOutcome& txo) {
  for (const evm::CallEvent& ev : txo.trace.calls()) {
    if (ev.to_external) return true;
  }
  return false;
}

/// Forwards to an inner backend and keeps a copy of every sequence outcome
/// the campaign redeems, in redemption order, which is the order the
/// campaign applies them in.
class RecordingBackend : public evm::ExecutionBackend {
 public:
  explicit RecordingBackend(std::unique_ptr<evm::ExecutionBackend> inner)
      : inner_(std::move(inner)) {}

  void Bind(evm::Host* host, evm::BlockContext block = evm::BlockContext(),
            evm::EvmConfig config = evm::EvmConfig()) override {
    inner_->Bind(host, block, config);
  }
  void Unbind() override { inner_->Unbind(); }
  Result<Address> DeployContract(const Bytes& runtime_code,
                                 const Bytes& ctor_code,
                                 const Bytes& ctor_args,
                                 const Address& deployer,
                                 const U256& value) override {
    return inner_->DeployContract(runtime_code, ctor_code, ctor_args,
                                  deployer, value);
  }
  void FundAccount(const Address& addr, const U256& balance) override {
    inner_->FundAccount(addr, balance);
  }
  void MarkDeployed() override { inner_->MarkDeployed(); }
  void Rewind() override { inner_->Rewind(); }
  evm::SequenceOutcome ExecuteSequence(
      const evm::SequencePlan& plan) override {
    return Log(inner_->ExecuteSequence(plan));
  }
  BatchTicket SubmitBatch(std::vector<evm::SequencePlan> plans) override {
    return inner_->SubmitBatch(std::move(plans));
  }
  std::vector<evm::SequenceOutcome> WaitBatch(BatchTicket ticket) override {
    std::vector<evm::SequenceOutcome> outcomes = inner_->WaitBatch(ticket);
    for (const evm::SequenceOutcome& outcome : outcomes) Log(outcome);
    return outcomes;
  }
  int worker_count() const override { return inner_->worker_count(); }
  evm::PrefixCacheStats prefix_cache_stats() const override {
    return inner_->prefix_cache_stats();
  }
  const evm::WorldState& state() const override { return inner_->state(); }

  const std::vector<std::vector<TxOutcome>>& sequences() const {
    return sequences_;
  }

 private:
  const evm::SequenceOutcome& Log(const evm::SequenceOutcome& outcome) {
    sequences_.push_back(outcome.txs);
    return outcome;
  }

  std::unique_ptr<evm::ExecutionBackend> inner_;
  std::vector<std::vector<TxOutcome>> sequences_;
};

/// One FeedbackEngine with its own constants dictionary and result, fed
/// the way Campaign::ApplyOutcome feeds it.
struct EngineReplica {
  EngineReplica(const lang::ContractArtifact* artifact,
                const StrategyConfig& strategy)
      : engine(artifact, strategy, &constants) {}

  void Apply(const std::vector<TxOutcome>& txs, bool with_ids) {
    signals = ExecSignals();
    engine.BeginSequence();
    for (const TxOutcome& txo : txs) {
      engine.ProcessTx(txo.tag, txo.trace, txo.cmps, txo.success,
                       with_ids ? txo.record_id : 0, &result, &signals);
    }
  }

  ByteMutator constants;
  FeedbackEngine engine;
  CampaignResult result;
  ExecSignals signals;
};

/// Everything ProcessTx can change, compared between the two replicas.
void ExpectSameFeedback(const lang::ContractArtifact& artifact,
                        const EngineReplica& fast, const EngineReplica& full) {
  EXPECT_EQ(fast.signals.new_branches, full.signals.new_branches);
  EXPECT_EQ(fast.signals.improved_distance, full.signals.improved_distance);
  EXPECT_EQ(fast.signals.hits_nested, full.signals.hits_nested);
  EXPECT_EQ(fast.signals.saw_overflow, full.signals.saw_overflow);
  EXPECT_EQ(fast.signals.touched_pcs, full.signals.touched_pcs);
  EXPECT_EQ(fast.signals.best_tx, full.signals.best_tx);
  EXPECT_TRUE(fast.result == full.result) << "oracle results differ";
  EXPECT_EQ(fast.engine.coverage().CoveredIds(),
            full.engine.coverage().CoveredIds());
  EXPECT_EQ(fast.constants.interesting(), full.constants.interesting());
  const EnergyScheduler& fast_energy = fast.engine.energy();
  const EnergyScheduler& full_energy = full.engine.energy();
  EXPECT_EQ(fast_energy.weighted_branches(), full_energy.weighted_branches());
  for (const lang::BranchMapEntry& entry : artifact.branch_map) {
    const uint32_t pc = entry.jumpi_pc;
    for (bool taken : {false, true}) {
      EXPECT_EQ(fast.engine.coverage().BestDistance(pc, taken),
                full.engine.coverage().BestDistance(pc, taken))
          << "pc " << pc << " taken " << taken;
    }
    EXPECT_EQ(fast_energy.BranchWeight(pc), full_energy.BranchWeight(pc))
        << "pc " << pc;
    EXPECT_EQ(fast_energy.VulnerabilityBonus({pc}),
              full_energy.VulnerabilityBonus({pc}))
        << "pc " << pc;
  }
}

/// The two paper examples and the vulnerable suite's first templates (IO,
/// RE, UE among them), plus generated fig6 contracts; the D1-large ones
/// have the nested branches a served transaction reaches.
std::vector<corpus::CorpusEntry> DiffCorpus() {
  std::vector<corpus::CorpusEntry> entries = corpus::VulnerableSuite(16);
  for (auto* build : {&corpus::BuildD1Small, &corpus::BuildD1Large}) {
    for (corpus::CorpusEntry& entry : build(3, 42)) {
      entries.push_back(std::move(entry));
    }
  }
  return entries;
}

struct StreamTotals {
  uint64_t txs = 0;
  uint64_t with_id = 0;
  uint64_t repeats = 0;
};

/// Equal record ids carry equal outcomes; host-reaching transactions
/// carry none.
void CheckRecordIds(const std::vector<std::vector<TxOutcome>>& sequences,
                    StreamTotals* totals) {
  std::map<uint64_t, const TxOutcome*> first_with_id;
  for (const std::vector<TxOutcome>& txs : sequences) {
    for (const TxOutcome& txo : txs) {
      ++totals->txs;
      if (ReachedHost(txo)) {
        EXPECT_EQ(txo.record_id, 0u) << "a host-reaching tx has an id";
      }
      if (txo.record_id == 0) continue;
      ++totals->with_id;
      auto [it, fresh] = first_with_id.emplace(txo.record_id, &txo);
      if (fresh) continue;
      const TxOutcome& first = *it->second;
      EXPECT_EQ(txo.success, first.success);
      EXPECT_EQ(txo.gas_used, first.gas_used);
      EXPECT_EQ(txo.cmps, first.cmps);
      EXPECT_EQ(txo.trace.branches(), first.trace.branches());
      EXPECT_EQ(txo.trace.calls(), first.trace.calls());
      EXPECT_EQ(txo.trace.overflows(), first.trace.overflows());
      EXPECT_EQ(txo.trace.instruction_count(),
                first.trace.instruction_count());
    }
  }
}

/// Replays the sequences in `order` through a fast-path and a full-path
/// engine, comparing after every sequence. Returns the fast-path count.
uint64_t ReplayBoth(const lang::ContractArtifact& artifact,
                    const StrategyConfig& strategy,
                    const std::vector<const std::vector<TxOutcome>*>& order) {
  EngineReplica fast(&artifact, strategy);
  EngineReplica full(&artifact, strategy);
  for (size_t s = 0; s < order.size(); ++s) {
    fast.Apply(*order[s], /*with_ids=*/true);
    full.Apply(*order[s], /*with_ids=*/false);
    SCOPED_TRACE("sequence " + std::to_string(s));
    ExpectSameFeedback(artifact, fast, full);
    if (testing::Test::HasFailure()) return 0;
  }
  EXPECT_EQ(full.engine.repeat_txs(), 0u);
  return fast.engine.repeat_txs();
}

/// Runs one campaign over `inner` and diffs its outcome stream, in the
/// campaign's apply order and reversed. The id table claims correctness in
/// any order; reversed, served copies come before the first sighting that
/// a forward replay processes in full.
void DiffOneCampaign(const corpus::CorpusEntry& entry,
                     std::unique_ptr<evm::ExecutionBackend> inner,
                     StreamTotals* totals) {
  SCOPED_TRACE(entry.name);
  auto artifact = lang::CompileContract(entry.source);
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  CampaignConfig config;
  config.strategy = StrategyConfig::MuFuzz();
  config.seed = 5;
  config.max_executions = 300;
  config.wave_size = 4;
  config.fanout = 2;
  RecordingBackend backend(std::move(inner));
  RunCampaign(*artifact, config, &backend);

  CheckRecordIds(backend.sequences(), totals);
  std::vector<const std::vector<TxOutcome>*> order;
  for (const std::vector<TxOutcome>& txs : backend.sequences()) {
    order.push_back(&txs);
  }
  totals->repeats += ReplayBoth(*artifact, config.strategy, order);
  std::reverse(order.begin(), order.end());
  {
    SCOPED_TRACE("reversed");
    ReplayBoth(*artifact, config.strategy, order);
  }
}

void DiffCorpusStreams(int async_workers) {
  StreamTotals totals;
  for (const corpus::CorpusEntry& entry : DiffCorpus()) {
    std::unique_ptr<evm::ExecutionBackend> inner;
    if (async_workers == 0) {
      inner = std::make_unique<evm::SessionBackend>();
    } else {
      evm::AsyncBackendAdapter::Options options;
      options.workers = async_workers;
      inner = std::make_unique<evm::AsyncBackendAdapter>(options);
    }
    DiffOneCampaign(entry, std::move(inner), &totals);
    if (testing::Test::HasFailure()) return;
  }
  // A warm campaign repeats most of its transactions: the fast path must
  // carry a real share of them, not merely stay out of the way.
  EXPECT_GT(totals.with_id, totals.txs / 4)
      << totals.with_id << " of " << totals.txs << " txs carry an id";
  EXPECT_GT(totals.repeats, totals.with_id / 2)
      << totals.repeats << " fast-path txs of " << totals.with_id;
}

TEST(FeedbackFastPathDiffTest, FastPathMatchesFullPathOnCampaignStreams) {
  DiffCorpusStreams(/*async_workers=*/0);
}

TEST(FeedbackFastPathDiffTest, FastPathMatchesFullPathOverAsyncBackend) {
  DiffCorpusStreams(/*async_workers=*/2);
}

// ------------------------------------------------------------ Record ids --

constexpr char kTipJar[] = R"(
contract TipJar {
  uint256 count;
  function bump(uint256 x) public { count += x; }
  function tip(uint256 amount) public { msg.sender.transfer(amount); }
})";

class FeedbackFastPathRecordIdTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto compiled = lang::CompileContract(kTipJar);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    artifact_ = std::move(compiled).value();
  }

  /// Binds, deploys, funds and marks `backend`; returns the contract.
  Address Deploy(evm::SessionBackend* backend) {
    backend->Bind(&host_);
    backend->FundAccount(kSender, U256::PowerOfTen(24));
    auto addr = backend->DeployContract(artifact_.runtime_code,
                                        artifact_.ctor_code, {}, kSender,
                                        U256(0));
    EXPECT_TRUE(addr.ok());
    backend->FundAccount(addr.value(), U256(1000));
    backend->MarkDeployed();
    return addr.value();
  }

  /// A transaction calling `fn(arg)` on `contract`.
  evm::PreparedTx Call(const Address& contract, const std::string& fn,
                       uint64_t arg) const {
    AbiCodec codec(&artifact_.abi, {kSender});
    Tx tx;
    for (size_t i = 0; i < artifact_.abi.functions.size(); ++i) {
      if (artifact_.abi.functions[i].name == fn) {
        tx.fn_index = static_cast<int>(i);
      }
    }
    tx.args = {U256(arg)};
    evm::PreparedTx ptx;
    ptx.request.to = contract;
    ptx.request.sender = kSender;
    ptx.request.data = codec.EncodeCalldata(tx);
    return ptx;
  }

  /// The record id of every transaction of one run of `plan`.
  static std::vector<uint64_t> Ids(evm::SessionBackend* backend,
                                   const evm::SequencePlan& plan) {
    std::vector<uint64_t> ids;
    for (const TxOutcome& txo : backend->ExecuteSequence(plan).txs) {
      ids.push_back(txo.record_id);
    }
    return ids;
  }

  const Address kSender = Address::FromUint(0xd0);
  evm::AcceptingHost host_;
  lang::ContractArtifact artifact_;
};

TEST_F(FeedbackFastPathRecordIdTest, ServedOutcomeCarriesItsRecordsId) {
  evm::SessionBackend backend;
  const Address contract = Deploy(&backend);
  evm::SequencePlan plan;
  plan.txs.push_back(Call(contract, "bump", 5));

  // First sighting: executed, not recorded.
  evm::SequenceOutcome first = backend.ExecuteSequence(plan);
  EXPECT_EQ(first.txs[0].record_id, 0u);
  // Second sighting: executed and recorded; the outcome gets the id.
  evm::SequenceOutcome recorded = backend.ExecuteSequence(plan);
  const uint64_t id = recorded.txs[0].record_id;
  EXPECT_NE(id, 0u);
  EXPECT_EQ(backend.prefix_cache_stats().served_txs, 0u);
  // Third: served from that record, with the same id and outcome.
  evm::SequenceOutcome served = backend.ExecuteSequence(plan);
  EXPECT_EQ(backend.prefix_cache_stats().served_txs, 1u);
  EXPECT_EQ(served.txs[0].record_id, id);
  EXPECT_EQ(served.txs[0].trace.branches(), recorded.txs[0].trace.branches());
  EXPECT_EQ(served.txs[0].cmps, recorded.txs[0].cmps);
  EXPECT_EQ(served.txs[0].success, recorded.txs[0].success);

  // A different transaction gets a different record.
  evm::SequencePlan other;
  other.txs.push_back(Call(contract, "bump", 6));
  EXPECT_EQ(Ids(&backend, other), std::vector<uint64_t>{0});
  const std::vector<uint64_t> other_ids = Ids(&backend, other);
  ASSERT_EQ(other_ids.size(), 1u);
  EXPECT_NE(other_ids[0], 0u);
  EXPECT_NE(other_ids[0], id);
  EXPECT_EQ(Ids(&backend, plan), std::vector<uint64_t>{id});
}

TEST_F(FeedbackFastPathRecordIdTest, HostReachingTransactionsCarryNoId) {
  evm::SessionBackend backend;
  const Address contract = Deploy(&backend);
  evm::SequencePlan plan;
  plan.txs.push_back(Call(contract, "tip", 1));
  plan.txs.push_back(Call(contract, "bump", 3));
  for (int run = 0; run < 4; ++run) {
    evm::SequenceOutcome outcome = backend.ExecuteSequence(plan);
    ASSERT_EQ(outcome.txs.size(), 2u);
    ASSERT_TRUE(ReachedHost(outcome.txs[0]));
    EXPECT_EQ(outcome.txs[0].record_id, 0u) << "run " << run;
    // The transaction after the host call is recorded from its second
    // sighting on.
    if (run == 0) {
      EXPECT_EQ(outcome.txs[1].record_id, 0u);
    } else {
      EXPECT_NE(outcome.txs[1].record_id, 0u) << "run " << run;
    }
  }
}

TEST_F(FeedbackFastPathRecordIdTest, IdsAreNeverSharedOrReused) {
  evm::SessionBackend a;
  evm::SessionBackend b;
  const Address contract = Deploy(&a);
  ASSERT_EQ(Deploy(&b), contract);
  evm::SequencePlan plan;
  plan.txs.push_back(Call(contract, "bump", 5));

  // Each backend's first record lands at the start of the thread's memo,
  // so only the generation tells the ids apart.
  std::vector<uint64_t> ids;
  for (evm::SessionBackend* backend : {&a, &b, &a, &b}) {
    EXPECT_EQ(Ids(backend, plan), std::vector<uint64_t>{0});
    const uint64_t id = Ids(backend, plan)[0];
    EXPECT_NE(id, 0u);
    EXPECT_EQ(Ids(backend, plan), std::vector<uint64_t>{id});
    ids.push_back(id);
  }
  // Rewind invalidates the memo; the re-recorded transaction is new too.
  a.Rewind();
  Ids(&a, plan);
  ids.push_back(Ids(&a, plan)[0]);
  for (size_t i = 0; i < ids.size(); ++i) {
    for (size_t j = i + 1; j < ids.size(); ++j) {
      EXPECT_NE(ids[i], ids[j]) << i << " vs " << j;
    }
  }
}

}  // namespace
}  // namespace mufuzz::fuzzer
