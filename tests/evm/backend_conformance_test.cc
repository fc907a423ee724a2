// Parameterized conformance suite for the ExecutionBackend contract: every
// backend — the in-process SessionBackend and the AsyncBackendAdapter at
// 1/2/4 workers — must satisfy the same plan-in/outcome-out semantics:
//  - Bind/Deploy/MarkDeployed/Rewind round-trips leave the slate clean;
//  - outcomes are self-contained values, isolated between sequences (batch
//    neighbors and re-executions never bleed into each other);
//  - batch results equal serial results, in submission order;
//  - results are bit-for-bit identical across backends, which is the
//    foundation of the campaign-level determinism tests.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "corpus/builtin.h"
#include "evm/async_backend.h"
#include "evm/execution_backend.h"
#include "fuzzer/abi_codec.h"
#include "fuzzer/fuzzing_host.h"
#include "lang/compiler.h"

namespace mufuzz::evm {
namespace {

/// Plain bytes only, with no padding: gtest lists an unprintable parameter
/// byte by byte in the test's name, so a pointer here (a std::string's
/// buffer) would give the tests a different name in every build.
struct BackendCase {
  char name[36];
  int async_workers;  ///< 0 = SessionBackend
};
static_assert(sizeof(BackendCase) == 40, "BackendCase must have no padding");

std::unique_ptr<ExecutionBackend> MakeBackend(const BackendCase& c) {
  if (c.async_workers == 0) return std::make_unique<SessionBackend>();
  AsyncBackendAdapter::Options options;
  options.workers = c.async_workers;
  return std::make_unique<AsyncBackendAdapter>(options);
}

/// Everything observable about an outcome, flattened for EXPECT_EQ diffs.
std::string Fingerprint(const SequenceOutcome& outcome) {
  std::vector<uint32_t> touched_pcs;
  for (const TxOutcome& txo : outcome.txs) {
    for (const BranchEvent& ev : txo.trace.branches()) {
      touched_pcs.push_back(ev.pc);
    }
  }
  std::string fp = "instr=" + std::to_string(outcome.instructions) +
                   " pcs=" + std::to_string(touched_pcs.size());
  for (uint32_t pc : touched_pcs) fp += "," + std::to_string(pc);
  for (const TxOutcome& txo : outcome.txs) {
    fp += " | tag=" + std::to_string(txo.tag) +
          " ok=" + std::to_string(txo.success) +
          " out=" + std::to_string(static_cast<int>(txo.outcome)) +
          " gas=" + std::to_string(txo.gas_used) +
          " in=" + std::to_string(txo.trace.instruction_count()) +
          " cmps=" + std::to_string(txo.cmps.size()) +
          " calls=" + std::to_string(txo.trace.calls().size()) +
          " stores=" + std::to_string(txo.trace.stores().size()) + " br=";
    for (const BranchEvent& ev : txo.trace.branches()) {
      fp += std::to_string(ev.pc) + (ev.taken ? "t" : "f") + ";";
    }
  }
  return fp;
}

std::vector<std::string> Fingerprints(
    const std::vector<SequenceOutcome>& outcomes) {
  std::vector<std::string> fps;
  fps.reserve(outcomes.size());
  for (const SequenceOutcome& o : outcomes) fps.push_back(Fingerprint(o));
  return fps;
}

class BackendConformanceTest : public ::testing::TestWithParam<BackendCase> {
 protected:
  void SetUp() override {
    auto compiled = lang::CompileContract(corpus::CrowdsaleExample().source);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    artifact_ = std::move(compiled).value();
    deployer_ = Address::FromUint(0xd0);
    // A stochastic-but-sequence-pure host: the conformance suite must hold
    // under failure injection, not just the benign AcceptingHost.
    host_ = std::make_unique<fuzzer::FuzzingHost>(
        /*seed=*/0x5eedf00d, /*failure_probability=*/0.25,
        /*max_reentries=*/2);
  }

  /// Binds, funds, deploys, and marks — the setup phase every campaign runs.
  void Prepare(ExecutionBackend* backend) {
    backend->Bind(host_.get());
    backend->FundAccount(deployer_, U256::PowerOfTen(24));
    auto addr = backend->DeployContract(artifact_.runtime_code,
                                        artifact_.ctor_code, {}, deployer_,
                                        U256(0));
    ASSERT_TRUE(addr.ok());
    contract_ = addr.value();
    backend->FundAccount(contract_, U256::PowerOfTen(20));
    backend->MarkDeployed();
  }

  /// invest(amount) carrying `amount` wei, tagged with `tag`.
  PreparedTx Invest(uint64_t amount, int tag) {
    fuzzer::AbiCodec codec(&artifact_.abi, {deployer_});
    fuzzer::Tx tx;
    tx.fn_index = 0;
    tx.args = {U256(amount)};
    PreparedTx prepared;
    prepared.tag = tag;
    prepared.request.to = contract_;
    prepared.request.sender = deployer_;
    prepared.request.value = U256(amount);
    prepared.request.data = codec.EncodeCalldata(tx);
    return prepared;
  }

  /// A batch of distinct single-tx and multi-tx plans with distinct
  /// environment seeds.
  std::vector<SequencePlan> SamplePlans() {
    std::vector<SequencePlan> plans;
    for (uint64_t k = 0; k < 6; ++k) {
      SequencePlan plan;
      plan.host_seed = 0x1000 + k;
      plan.txs.push_back(Invest(10 + 7 * k, /*tag=*/0));
      if (k % 2 == 0) plan.txs.push_back(Invest(3 + k, /*tag=*/1));
      plans.push_back(std::move(plan));
    }
    return plans;
  }

  lang::ContractArtifact artifact_;
  std::unique_ptr<fuzzer::FuzzingHost> host_;
  Address deployer_;
  Address contract_;
};

TEST_P(BackendConformanceTest, BindDeployMarkRewindRoundTrip) {
  std::unique_ptr<ExecutionBackend> backend = MakeBackend(GetParam());
  Prepare(backend.get());

  const Account* account = backend->state().Find(contract_);
  ASSERT_NE(account, nullptr);
  size_t baseline_slots = account->storage.size();

  SequencePlan plan;
  plan.host_seed = 42;
  plan.txs.push_back(Invest(40, 0));
  for (int round = 0; round < 3; ++round) {
    SequenceOutcome outcome = backend->ExecuteSequence(plan);
    ASSERT_EQ(outcome.txs.size(), 1u);
    EXPECT_TRUE(outcome.txs[0].success) << "round " << round;
    backend->Rewind();
    EXPECT_EQ(backend->state().Find(contract_)->storage.size(),
              baseline_slots)
        << "round " << round;
  }
}

TEST_P(BackendConformanceTest, RebindResetsAllSessionState) {
  std::unique_ptr<ExecutionBackend> backend = MakeBackend(GetParam());
  Prepare(backend.get());
  EXPECT_GT(backend->state().account_count(), 0u);

  backend->Bind(host_.get());
  EXPECT_EQ(backend->state().account_count(), 0u);
}

TEST_P(BackendConformanceTest, MatchesSessionBackendReference) {
  // The cross-backend contract: any backend produces exactly what the
  // serial in-process reference produces, outcome for outcome.
  SessionBackend reference;
  Prepare(&reference);
  std::vector<SequencePlan> plans = SamplePlans();
  std::vector<SequenceOutcome> expected;
  for (const SequencePlan& plan : plans) {
    expected.push_back(reference.ExecuteSequence(plan));
  }

  std::unique_ptr<ExecutionBackend> backend = MakeBackend(GetParam());
  Prepare(backend.get());
  std::vector<SequenceOutcome> actual = backend->ExecuteSequenceBatch(
      std::span<const SequencePlan>(plans.data(), plans.size()));
  EXPECT_EQ(Fingerprints(actual), Fingerprints(expected));
}

TEST_P(BackendConformanceTest, BatchEqualsSerialOnSameBackend) {
  std::unique_ptr<ExecutionBackend> backend = MakeBackend(GetParam());
  Prepare(backend.get());
  std::vector<SequencePlan> plans = SamplePlans();

  std::vector<SequenceOutcome> serial;
  for (const SequencePlan& plan : plans) {
    serial.push_back(backend->ExecuteSequence(plan));
  }
  std::vector<SequenceOutcome> batch = backend->ExecuteSequenceBatch(
      std::span<const SequencePlan>(plans.data(), plans.size()));
  EXPECT_EQ(Fingerprints(batch), Fingerprints(serial));
}

TEST_P(BackendConformanceTest, OutcomesAreIsolatedBetweenSequences) {
  // Plan A's outcome must not depend on what else is in the batch or on
  // anything executed before it.
  std::vector<SequencePlan> plans = SamplePlans();
  const SequencePlan& a = plans[1];

  std::unique_ptr<ExecutionBackend> alone = MakeBackend(GetParam());
  Prepare(alone.get());
  std::string alone_fp = Fingerprint(alone->ExecuteSequence(a));

  std::unique_ptr<ExecutionBackend> crowded = MakeBackend(GetParam());
  Prepare(crowded.get());
  std::vector<SequenceOutcome> outcomes = crowded->ExecuteSequenceBatch(
      std::span<const SequencePlan>(plans.data(), plans.size()));
  EXPECT_EQ(Fingerprint(outcomes[1]), alone_fp);

  // Re-execution of the identical plan reproduces the identical outcome,
  // even under the stochastic host — sequence-purity in action.
  EXPECT_EQ(Fingerprint(crowded->ExecuteSequence(a)), alone_fp);
}

TEST_P(BackendConformanceTest, TicketsRedeemInSubmissionOrderSemantics) {
  std::unique_ptr<ExecutionBackend> backend = MakeBackend(GetParam());
  Prepare(backend.get());
  std::vector<SequencePlan> plans = SamplePlans();

  std::vector<SequencePlan> first(plans.begin(), plans.begin() + 3);
  std::vector<SequencePlan> second(plans.begin() + 3, plans.end());
  ExecutionBackend::BatchTicket t1 = backend->SubmitBatch(first);
  ExecutionBackend::BatchTicket t2 = backend->SubmitBatch(second);

  // Redeem out of submission order: outcomes still map to their own batch,
  // in their batch's submission order.
  std::vector<SequenceOutcome> out2 = backend->WaitBatch(t2);
  std::vector<SequenceOutcome> out1 = backend->WaitBatch(t1);

  SessionBackend reference;
  Prepare(&reference);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(Fingerprint(out1[i]), Fingerprint(reference.ExecuteSequence(plans[i])));
  }
  for (size_t i = 0; i < second.size(); ++i) {
    EXPECT_EQ(Fingerprint(out2[i]),
              Fingerprint(reference.ExecuteSequence(plans[3 + i])));
  }
}

TEST_P(BackendConformanceTest, SpeculativeFanOutHoldsManyTicketsInFlight) {
  // The shape the K-parent campaign loop drives: one wave per parent, all
  // submitted before any is redeemed, redeemed in an order that is not the
  // submission order. Every batch must come back intact — its own outcomes,
  // in its own submission order, equal to the serial reference.
  std::unique_ptr<ExecutionBackend> backend = MakeBackend(GetParam());
  Prepare(backend.get());
  std::vector<SequencePlan> plans = SamplePlans();

  constexpr size_t kParents = 4;
  std::vector<ExecutionBackend::BatchTicket> tickets;
  std::vector<std::vector<SequencePlan>> waves;
  for (size_t parent = 0; parent < kParents; ++parent) {
    // Parent `p` gets a wave of p+1 plans with per-parent host seeds, so
    // every wave is distinguishable and differently sized.
    std::vector<SequencePlan> wave;
    for (size_t j = 0; j <= parent; ++j) {
      SequencePlan plan = plans[(parent + j) % plans.size()];
      plan.host_seed += 0x100 * (parent + 1);
      wave.push_back(std::move(plan));
    }
    waves.push_back(wave);
    tickets.push_back(backend->SubmitBatch(std::move(wave)));
  }
  if (auto* adapter = dynamic_cast<AsyncBackendAdapter*>(backend.get())) {
    EXPECT_EQ(adapter->inflight_batches(), kParents);
  }

  // Redeem 2, 0, 3, 1 — neither submission nor reverse order.
  std::vector<std::vector<SequenceOutcome>> outcomes(kParents);
  for (size_t parent : {2u, 0u, 3u, 1u}) {
    outcomes[parent] = backend->WaitBatch(tickets[parent]);
  }
  if (auto* adapter = dynamic_cast<AsyncBackendAdapter*>(backend.get())) {
    EXPECT_EQ(adapter->inflight_batches(), 0u);
  }

  SessionBackend reference;
  Prepare(&reference);
  for (size_t parent = 0; parent < kParents; ++parent) {
    ASSERT_EQ(outcomes[parent].size(), waves[parent].size()) << parent;
    for (size_t j = 0; j < waves[parent].size(); ++j) {
      EXPECT_EQ(Fingerprint(outcomes[parent][j]),
                Fingerprint(reference.ExecuteSequence(waves[parent][j])))
          << "parent " << parent << " plan " << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, BackendConformanceTest,
    ::testing::Values(BackendCase{"session", 0}, BackendCase{"async1", 1},
                      BackendCase{"async2", 2}, BackendCase{"async4", 4}),
    [](const ::testing::TestParamInfo<BackendCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace mufuzz::evm
