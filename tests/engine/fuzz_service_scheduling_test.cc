// The worker-pulled slice scheduler: what the schedule itself promises,
// beyond the determinism contract the other engine suites check. One
// tenant's jobs run back to back on a worker and complete in ticket order,
// so at most `workers` campaigns (and leased sessions) exist at once and a
// job keeps its thread's transaction memo across slices; tenants alternate
// slices under deficit fair share, and a tenant returning from idle starts
// level instead of with banked credit.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "corpus/builtin.h"
#include "engine/fuzz_service.h"
#include "fuzzer/campaign.h"
#include "lang/compiler.h"

namespace mufuzz::engine {
namespace {

using fuzzer::CampaignResult;
using fuzzer::StrategyConfig;

FuzzJob Job(const std::string& tenant, uint64_t seed, int max_executions,
            const std::string& source = corpus::CrowdsaleExample().source) {
  FuzzJob job;
  job.name = tenant + "/seed=" + std::to_string(seed);
  job.source = source;
  job.tenant = tenant;
  job.config.strategy = StrategyConfig::MuFuzz();
  job.config.seed = seed;
  job.config.max_executions = max_executions;
  return job;
}

CampaignResult Solo(const FuzzJob& job) {
  auto artifact = lang::CompileContract(job.source);
  EXPECT_TRUE(artifact.ok());
  return fuzzer::RunCampaign(*artifact, job.config);
}

TEST(FuzzServiceSchedulingTest, OneTenantHoldsAtMostWorkersCampaigns) {
  ServiceOptions options;
  options.workers = 2;
  options.round_quantum = 32;
  FuzzService service(options);
  std::vector<JobTicket> tickets;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    auto ticket = service.Submit(Job("batch", seed, 150));
    ASSERT_TRUE(ticket.ok());
    tickets.push_back(*ticket);
  }
  std::vector<JobOutcome> outcomes = service.WaitAll();
  ASSERT_EQ(outcomes.size(), 12u);
  for (const JobOutcome& outcome : outcomes) {
    ASSERT_TRUE(outcome.result.has_value()) << outcome.error;
  }
  // A session is leased at setup and returned at finalize; a fresh job of
  // the tenant starts only when every started one holds a worker.
  EXPECT_LE(service.sessions_created(), 2u);
  EXPECT_EQ(Solo(Job("batch", 12, 150)), *outcomes.back().result);
}

TEST(FuzzServiceSchedulingTest, BackToBackSlicesKeepTheTransactionMemo) {
  // Each slice of a job runs on the thread that ran its previous one, with
  // no other job's slice in between, so the memo is never flushed by
  // another campaign: each job is served exactly what it is served alone.
  ServiceOptions options;
  options.workers = 1;
  options.round_quantum = 16;
  options.start_paused = true;
  FuzzService service(options);
  const FuzzJob first = Job("t", 3, 400);
  const FuzzJob second = Job("t", 4, 400, corpus::GameExample().source);
  auto t1 = service.Submit(first);
  auto t2 = service.Submit(second);
  ASSERT_TRUE(t1.ok() && t2.ok());
  service.Resume();

  JobOutcome o1 = service.Wait(*t1);
  JobOutcome o2 = service.Wait(*t2);
  ASSERT_TRUE(o1.result.has_value()) << o1.error;
  ASSERT_TRUE(o2.result.has_value()) << o2.error;
  const CampaignResult solo1 = Solo(first);
  const CampaignResult solo2 = Solo(second);
  EXPECT_EQ(solo1, *o1.result);
  EXPECT_EQ(solo2, *o2.result);
  EXPECT_GT(solo1.prefix_cache.served_txs, 0u);
  EXPECT_EQ(o1.result->prefix_cache.served_txs, solo1.prefix_cache.served_txs);
  EXPECT_EQ(o1.result->prefix_cache.executed_txs,
            solo1.prefix_cache.executed_txs);
  EXPECT_EQ(o2.result->prefix_cache.served_txs, solo2.prefix_cache.served_txs);
  EXPECT_EQ(o2.result->prefix_cache.executed_txs,
            solo2.prefix_cache.executed_txs);
}

TEST(FuzzServiceSchedulingTest, OneTenantCompletesInTicketOrder) {
  ServiceOptions options;
  options.workers = 1;
  options.round_quantum = 32;
  options.start_paused = true;
  FuzzService service(options);
  std::vector<JobTicket> tickets;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    auto ticket = service.Submit(Job("t", seed, 200));
    ASSERT_TRUE(ticket.ok());
    tickets.push_back(*ticket);
  }
  service.Resume();
  service.WaitAll();
  // The slice counter when job k first stepped is past every slice of job
  // k - 1: job k - 1 had completed.
  for (size_t k = 1; k < tickets.size(); ++k) {
    JobProgress previous = service.Poll(tickets[k - 1]);
    JobProgress current = service.Poll(tickets[k]);
    ASSERT_GE(previous.first_step_round, 0);
    ASSERT_GT(previous.round_index, 0);
    EXPECT_GE(current.first_step_round,
              previous.first_step_round + previous.round_index)
        << "job " << k << " started before job " << k - 1 << " completed";
  }
}

TEST(FuzzServiceSchedulingTest, ReturningTenantNeitherStarvesNorIsStarved) {
  // Tenant a runs alone for a while; then tenant b submits b1 and b2. With
  // one worker every slice is observable through the slice counter:
  //  - b starts level with a (no credit banked while idle, none owed), so
  //    a runs exactly one more slice (it wins the tie on ticket) before
  //    b1's setup and first slice;
  //  - from then on the tenants alternate, so b1's S slices interleave
  //    with S of a's, and b2 first steps exactly 2 * S slices after b1.
  ServiceOptions options;
  options.workers = 1;
  options.round_quantum = 16;
  FuzzService service(options);
  FuzzJob long_job = Job("a", 1, 50'000'000);
  long_job.deadline_ms = 120'000;  // bounds the run if b were starved
  auto a = service.Submit(long_job);
  ASSERT_TRUE(a.ok());
  constexpr int kAloneSlices = 20;
  while (service.Poll(*a).round_index < kAloneSlices) {
    std::this_thread::yield();
  }

  const int before = service.Poll(*a).round_index;
  auto b1 = service.Submit(Job("b", 2, 160));
  const int after = service.Poll(*a).round_index;
  auto b2 = service.Submit(Job("b", 3, 64));
  ASSERT_TRUE(b1.ok() && b2.ok());
  JobOutcome o1 = service.Wait(*b1);
  JobOutcome o2 = service.Wait(*b2);
  service.Cancel(*a);
  service.Wait(*a);
  ASSERT_TRUE(o1.result.has_value()) << o1.error;
  ASSERT_TRUE(o2.result.has_value()) << o2.error;

  const JobProgress p1 = service.Poll(*b1);
  const JobProgress p2 = service.Poll(*b2);
  const int64_t slices_b1 = p1.round_index;
  ASSERT_GT(slices_b1, 1);
  // Only a stepped before b1, and a had settled between `before` and
  // `after` slices when b arrived.
  EXPECT_GE(p1.first_step_round, before + 2);
  EXPECT_LE(p1.first_step_round, after + 2);
  EXPECT_EQ(p2.first_step_round, p1.first_step_round + 2 * slices_b1);
  EXPECT_EQ(Solo(Job("b", 2, 160)), *o1.result);
}

TEST(FuzzServiceSchedulingTest, QueuedJobCancelAndDeadlineLeaveResultEmpty) {
  // One worker busy with a long job: b and c sit queued behind it and
  // never start. A cancel completes b at once and c's deadline completes
  // c at a pick, both with the empty-result error.
  ServiceOptions options;
  options.workers = 1;
  options.round_quantum = 16;
  FuzzService service(options);
  auto a = service.Submit(Job("t", 1, 50'000'000));
  FuzzJob late = Job("t", 3, 100);
  late.deadline_ms = 20;
  auto b = service.Submit(Job("t", 2, 100));
  auto c = service.Submit(late);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());

  service.Cancel(*b);
  JobOutcome ob = service.Wait(*b);
  EXPECT_FALSE(ob.result.has_value());
  EXPECT_NE(ob.error.find("cancelled before the campaign started"),
            std::string::npos)
      << ob.error;
  EXPECT_TRUE(service.Poll(*b).cancelled);

  JobOutcome oc = service.Wait(*c);
  EXPECT_FALSE(oc.result.has_value());
  EXPECT_NE(oc.error.find("deadline expired before the campaign started"),
            std::string::npos)
      << oc.error;
  EXPECT_TRUE(service.Poll(*c).deadline_expired);

  service.Cancel(*a);
  JobOutcome oa = service.Wait(*a);
  ASSERT_TRUE(oa.result.has_value()) << oa.error;
  EXPECT_TRUE(oa.result->cancelled);
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.deadline_hits, 1u);
  EXPECT_EQ(stats.cancelled, 3u);
  EXPECT_EQ(stats.live_jobs, 0u);
}

}  // namespace
}  // namespace mufuzz::engine
