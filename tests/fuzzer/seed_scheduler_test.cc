#include "fuzzer/seed_scheduler.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "fuzzer/sharded_seed_scheduler.h"

namespace mufuzz::fuzzer {
namespace {

/// A seed whose priority doubles as its identity: `marker` is stored as the
/// fn_index of a one-tx sequence so tests can tell migrated clones apart.
FuzzSeed MakeSeed(double priority, int marker = 0) {
  FuzzSeed seed;
  seed.priority = priority;
  Tx tx;
  tx.fn_index = marker;
  seed.seq.push_back(tx);
  return seed;
}

int Marker(const FuzzSeed& seed) { return seed.seq.at(0).fn_index; }

// ------------------------------------------------- Eviction policy (Add) --

// The PR's regression test: a full queue must reject a strictly worse
// newcomer instead of evicting a better resident. On the pre-fix Add (which
// evicted the minimum unconditionally) the minimum drops to 1.0 and this
// test fails.
TEST(SeedSchedulerTest, FullQueueRejectsWorseNewcomer) {
  SeedScheduler scheduler(/*distance_feedback=*/true, /*max_queue=*/4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(scheduler.Add(MakeSeed(5.0, i)));

  EXPECT_FALSE(scheduler.Add(MakeSeed(1.0, 99)));

  EXPECT_EQ(scheduler.size(), 4u);
  EXPECT_DOUBLE_EQ(scheduler.MinPriority(), 5.0);
  EXPECT_EQ(scheduler.stats().rejected, 1u);
  EXPECT_EQ(scheduler.stats().evicted, 0u);
  EXPECT_EQ(scheduler.stats().admitted, 4u);
}

TEST(SeedSchedulerTest, FullQueueEvictsMinimumForBetterNewcomer) {
  SeedScheduler scheduler(true, 4);
  scheduler.Add(MakeSeed(5.0));
  scheduler.Add(MakeSeed(3.0, 1));  // the victim
  scheduler.Add(MakeSeed(9.0));
  scheduler.Add(MakeSeed(7.0));

  EXPECT_TRUE(scheduler.Add(MakeSeed(6.0)));

  EXPECT_EQ(scheduler.size(), 4u);
  EXPECT_DOUBLE_EQ(scheduler.MinPriority(), 5.0);  // the 3.0 resident left
  EXPECT_EQ(scheduler.stats().evicted, 1u);
  EXPECT_EQ(scheduler.stats().rejected, 0u);
}

TEST(SeedSchedulerTest, EqualPriorityNewcomerDisplacesOldestMinimum) {
  // Equal priority is not "strictly worse": the newcomer is admitted and
  // the oldest minimum-priority resident leaves (freshness on ties).
  SeedScheduler scheduler(true, 3);
  scheduler.Add(MakeSeed(2.0, 0));
  scheduler.Add(MakeSeed(2.0, 1));
  scheduler.Add(MakeSeed(8.0, 2));

  EXPECT_TRUE(scheduler.Add(MakeSeed(2.0, 3)));

  EXPECT_EQ(scheduler.stats().evicted, 1u);
  // Marker 0 (the oldest tie) is gone; markers 1, 2, 3 remain.
  std::set<int> markers;
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    markers.insert(Marker(*scheduler.Get(scheduler.Select(&rng))));
  }
  EXPECT_EQ(markers, (std::set<int>{1, 2, 3}));
}

// ------------------------------------------------------- Stable handles --

TEST(SeedSchedulerTest, IdsSurviveUnrelatedAddsAndEvictions) {
  SeedScheduler scheduler(true, 4);
  scheduler.Add(MakeSeed(9.0, 42));
  Rng rng(7);
  SeedId id = scheduler.Select(&rng);
  ASSERT_NE(id, kInvalidSeedId);
  EXPECT_EQ(Marker(*scheduler.Get(id)), 42);

  // Fill past capacity so low-priority residents churn; the high-priority
  // seed's id must keep resolving to the same seed.
  for (int i = 0; i < 20; ++i) scheduler.Add(MakeSeed(2.0 + i * 0.1, i));
  FuzzSeed* resolved = scheduler.Get(id);
  ASSERT_NE(resolved, nullptr);
  EXPECT_EQ(Marker(*resolved), 42);
}

TEST(SeedSchedulerTest, EvictedIdStopsResolving) {
  // Uniform selection (no decay) keeps the 1.0 seed the eviction victim.
  SeedScheduler scheduler(/*distance_feedback=*/false, /*max_queue=*/2);
  scheduler.Add(MakeSeed(1.0, 0));
  scheduler.Add(MakeSeed(5.0, 1));
  Rng rng(3);
  // Find the low-priority seed's id before it gets evicted.
  SeedId low_id = kInvalidSeedId;
  for (int i = 0; i < 100 && low_id == kInvalidSeedId; ++i) {
    SeedId id = scheduler.Select(&rng);
    if (Marker(*scheduler.Get(id)) == 0) low_id = id;
  }
  ASSERT_NE(low_id, kInvalidSeedId);

  scheduler.Add(MakeSeed(9.0, 2));  // evicts the 1.0 seed
  EXPECT_EQ(scheduler.Get(low_id), nullptr);
}

TEST(SeedSchedulerTest, SelectOnEmptyQueueIsInvalid) {
  SeedScheduler scheduler(true);
  Rng rng(1);
  EXPECT_EQ(scheduler.Select(&rng), kInvalidSeedId);
}

// -------------------------------------------- Selection / starvation-free --

// Priority decay + the uniform arm must keep every resident reachable: under
// distance feedback a dominant seed may not starve the rest of the queue.
TEST(SeedSchedulerTest, PriorityDecayPreventsStarvation) {
  SeedScheduler scheduler(/*distance_feedback=*/true, /*max_queue=*/16);
  const int kSeeds = 9;
  scheduler.Add(MakeSeed(1000.0, 0));  // would monopolize without decay
  for (int i = 1; i < kSeeds; ++i) scheduler.Add(MakeSeed(1.0 + i, i));

  Rng rng(17);
  std::set<SeedId> selected;
  for (int i = 0; i < 4000; ++i) selected.insert(scheduler.Select(&rng));
  EXPECT_EQ(selected.size(), static_cast<size_t>(kSeeds))
      << "some resident was never selected";
}

// ------------------------------------------- Multi-parent selection (K) --

TEST(SeedSchedulerTest, SelectParentsReturnsDistinctResidents) {
  SeedScheduler scheduler(/*distance_feedback=*/true, /*max_queue=*/8);
  for (int i = 0; i < 5; ++i) scheduler.Add(MakeSeed(1.0 + i, i));

  Rng rng(11);
  std::vector<SeedId> picked = scheduler.SelectParents(&rng, 5);

  // Asking for the whole queue yields a permutation of it: every pick
  // distinct, every resident covered.
  ASSERT_EQ(picked.size(), 5u);
  std::set<SeedId> unique(picked.begin(), picked.end());
  EXPECT_EQ(unique.size(), 5u);
  for (SeedId id : picked) EXPECT_NE(scheduler.Get(id), nullptr);
}

TEST(SeedSchedulerTest, SelectParentsClampsToQueueSize) {
  SeedScheduler scheduler(true, 8);
  scheduler.Add(MakeSeed(5.0, 0));
  scheduler.Add(MakeSeed(7.0, 1));
  Rng rng(3);
  EXPECT_EQ(scheduler.SelectParents(&rng, 6).size(), 2u);
  Rng empty_rng(3);
  EXPECT_TRUE(SeedScheduler(true, 8).SelectParents(&empty_rng, 4).empty());
}

TEST(SeedSchedulerTest, SelectParentsOfOneMatchesSelect) {
  // K=1 is the serial chain: same queue, same rng seed → the same draw as
  // the single-parent Select, so fanout=1 campaigns reproduce bit-for-bit.
  auto build = [] {
    SeedScheduler scheduler(true, 8);
    for (int i = 0; i < 4; ++i) scheduler.Add(MakeSeed(2.0 + i, i));
    return scheduler;
  };
  SeedScheduler a = build();
  SeedScheduler b = build();
  Rng rng_a(9);
  Rng rng_b(9);
  for (int i = 0; i < 50; ++i) {
    std::vector<SeedId> parents = b.SelectParents(&rng_b, 1);
    ASSERT_EQ(parents.size(), 1u);
    EXPECT_EQ(a.Select(&rng_a), parents[0]);
  }
}

TEST(SeedSchedulerTest, SelectParentsIsDeterministic) {
  auto run = [] {
    SeedScheduler scheduler(true, 8);
    for (int i = 0; i < 6; ++i) scheduler.Add(MakeSeed(1.0 + i, i));
    Rng rng(21);
    std::vector<std::vector<SeedId>> rounds;
    for (int r = 0; r < 10; ++r) rounds.push_back(scheduler.SelectParents(&rng, 3));
    return rounds;
  };
  EXPECT_EQ(run(), run());
}

TEST(SeedSchedulerTest, StatsTrackSelectsPerRound) {
  SeedScheduler scheduler(true, 8);
  for (int i = 0; i < 4; ++i) scheduler.Add(MakeSeed(1.0 + i, i));
  Rng rng(5);
  for (int r = 0; r < 3; ++r) {
    ASSERT_EQ(scheduler.SelectParents(&rng, 2).size(), 2u);
  }
  EXPECT_EQ(scheduler.stats().selects, 6u);
  EXPECT_EQ(scheduler.stats().select_rounds, 3u);
  EXPECT_DOUBLE_EQ(scheduler.stats().selects_per_round, 2.0);

  // The serial entry point counts as width-1 rounds and dilutes the mean.
  ASSERT_NE(scheduler.Select(&rng), kInvalidSeedId);
  EXPECT_EQ(scheduler.stats().selects, 7u);
  EXPECT_EQ(scheduler.stats().select_rounds, 4u);
  EXPECT_DOUBLE_EQ(scheduler.stats().selects_per_round, 1.75);
}

TEST(SeedSchedulerTest, EvictionBetweenRoundsNeverAliasesParents) {
  // Regression for the aliasing hazard the fan-out refactor must exclude:
  // a parent-set round picks ids, a subsequent Add evicts one of them, and
  // the next round must neither resolve the dead handle nor hand out one
  // resident twice. Uniform selection (no decay) keeps priorities put.
  SeedScheduler scheduler(/*distance_feedback=*/false, /*max_queue=*/2);
  scheduler.Add(MakeSeed(1.0, 0));
  scheduler.Add(MakeSeed(5.0, 1));
  Rng rng(13);
  std::vector<SeedId> round1 = scheduler.SelectParents(&rng, 2);
  ASSERT_EQ(round1.size(), 2u);

  scheduler.Add(MakeSeed(9.0, 2));  // evicts the 1.0 resident — a picked id

  // Exactly one of round1's handles died with the eviction.
  int dead = 0;
  for (SeedId id : round1) dead += scheduler.Get(id) == nullptr ? 1 : 0;
  EXPECT_EQ(dead, 1);

  // The next round hands out two live, distinct residents; the dead id
  // cannot reappear (ids are never reused).
  std::vector<SeedId> round2 = scheduler.SelectParents(&rng, 2);
  ASSERT_EQ(round2.size(), 2u);
  EXPECT_NE(round2[0], round2[1]);
  for (SeedId id : round2) {
    ASSERT_NE(scheduler.Get(id), nullptr);
    for (SeedId old : round1) {
      if (scheduler.Get(old) == nullptr) {
        EXPECT_NE(id, old);
      }
    }
  }
}

// A selection policy that violates the exclusion contract (a hostile or
// buggy subclass): SelectParents must reject the duplicate and truncate the
// round instead of expanding one resident as two parents.
class AliasingScheduler : public SeedScheduler {
 public:
  AliasingScheduler() : SeedScheduler(/*distance_feedback=*/true, 8) {}
  SeedId SelectExcluding(Rng*, std::span<const SeedId>) override {
    return forced;
  }
  SeedId forced = kInvalidSeedId;
};

TEST(SeedSchedulerTest, SelectParentsRejectsAliasingPolicy) {
  AliasingScheduler scheduler;
  for (int i = 0; i < 3; ++i) scheduler.Add(MakeSeed(1.0 + i, i));
  Rng rng(7);
  scheduler.forced = scheduler.SeedScheduler::SelectExcluding(&rng, {});
  ASSERT_NE(scheduler.forced, kInvalidSeedId);

  std::vector<SeedId> picked = scheduler.SelectParents(&rng, 3);

  ASSERT_EQ(picked.size(), 1u);  // the second (aliasing) pick ended the round
  EXPECT_EQ(picked[0], scheduler.forced);
  EXPECT_EQ(scheduler.stats().selects, 1u);
  EXPECT_EQ(scheduler.stats().select_rounds, 1u);
}

// --------------------------------------------------------- Export/import --

TEST(SeedSchedulerTest, ExportTopRanksByPriorityThenAge) {
  SeedScheduler scheduler(true, 8);
  scheduler.Add(MakeSeed(1.0, 0));
  scheduler.Add(MakeSeed(9.0, 1));  // older of the two 9.0s
  scheduler.Add(MakeSeed(5.0, 2));
  scheduler.Add(MakeSeed(9.0, 3));

  std::vector<FuzzSeed> top = scheduler.ExportTop(3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(Marker(top[0]), 1);  // 9.0, admitted first
  EXPECT_EQ(Marker(top[1]), 3);  // 9.0, admitted later
  EXPECT_EQ(Marker(top[2]), 2);  // 5.0
  EXPECT_EQ(scheduler.stats().exported, 3u);
  // Export clones; the queue itself is untouched.
  EXPECT_EQ(scheduler.size(), 4u);
}

TEST(SeedSchedulerTest, ExportTopClampsToQueueSize) {
  SeedScheduler scheduler(true, 8);
  scheduler.Add(MakeSeed(1.0));
  EXPECT_EQ(scheduler.ExportTop(5).size(), 1u);
  EXPECT_EQ(SeedScheduler(true, 8).ExportTop(5).size(), 0u);
}

TEST(SeedSchedulerTest, ImportCountsOnlyAdmittedMigrants) {
  SeedScheduler scheduler(true, 2);
  EXPECT_TRUE(scheduler.Import(MakeSeed(5.0)));
  EXPECT_TRUE(scheduler.Import(MakeSeed(6.0)));
  EXPECT_FALSE(scheduler.Import(MakeSeed(1.0)));  // worse than resident min
  EXPECT_EQ(scheduler.stats().imported, 2u);
  EXPECT_EQ(scheduler.stats().rejected, 1u);
}

// ------------------------------------------------ ShardedSeedScheduler --

TEST(ShardedSeedSchedulerTest, MigrationMovesTopSeedsBetweenIslands) {
  ShardedSeedScheduler sharded(/*num_islands=*/2, /*distance_feedback=*/true,
                               /*max_queue=*/8);
  sharded.island(0)->Add(MakeSeed(10.0, 0));
  sharded.island(1)->Add(MakeSeed(1.0, 1));

  uint64_t admitted = sharded.RunMigrationRound(/*top_k=*/1);

  EXPECT_EQ(admitted, 2u);
  EXPECT_EQ(sharded.rounds_completed(), 1);
  // Exports are snapshotted before any import: island 1 exported its own
  // 1.0 seed, not the freshly imported 10.0 one.
  EXPECT_EQ(sharded.island(0)->size(), 2u);
  EXPECT_EQ(sharded.island(1)->size(), 2u);
  EXPECT_DOUBLE_EQ(sharded.island(0)->MinPriority(), 1.0);
  EXPECT_DOUBLE_EQ(sharded.island(1)->MaxPriority(), 10.0);
  EXPECT_EQ(sharded.island(0)->stats().imported, 1u);
  EXPECT_EQ(sharded.island(1)->stats().imported, 1u);
  ASSERT_EQ(sharded.last_exchange().size(), 2u);
  EXPECT_EQ(Marker(sharded.last_exchange()[1].at(0)), 1);
}

TEST(ShardedSeedSchedulerTest, SingleIslandRoundIsANoop) {
  ShardedSeedScheduler sharded(1, true, 8);
  sharded.island(0)->Add(MakeSeed(5.0));
  EXPECT_EQ(sharded.RunMigrationRound(2), 0u);
  EXPECT_EQ(sharded.rounds_completed(), 0);
  EXPECT_EQ(sharded.island(0)->stats().exported, 0u);
}

TEST(ShardedSeedSchedulerTest, MigrationIsDeterministic) {
  auto build_and_run = [] {
    ShardedSeedScheduler sharded(3, true, 4);
    for (int island = 0; island < 3; ++island) {
      for (int k = 0; k < 4; ++k) {
        sharded.island(island)->Add(
            MakeSeed(1.0 + island * 3 + k, island * 10 + k));
      }
    }
    sharded.RunMigrationRound(2);
    sharded.RunMigrationRound(2);
    std::vector<std::vector<int>> markers(3);
    for (int island = 0; island < 3; ++island) {
      for (const FuzzSeed& seed : sharded.island(island)->ExportTop(4)) {
        markers[island].push_back(Marker(seed));
      }
    }
    return markers;
  };
  EXPECT_EQ(build_and_run(), build_and_run());
}

TEST(ShardedSeedSchedulerTest, RepeatedRoundsNeverAccumulateClones) {
  // The same top seeds get re-exported every round; destinations that
  // already hold a migrant's sequence must skip it, so a steady state
  // exchanges nothing instead of flooding queues with copies.
  ShardedSeedScheduler sharded(2, true, 8);
  sharded.island(0)->Add(MakeSeed(10.0, 0));
  sharded.island(1)->Add(MakeSeed(5.0, 1));

  EXPECT_EQ(sharded.RunMigrationRound(2), 2u);  // first contact: both move
  EXPECT_EQ(sharded.RunMigrationRound(2), 0u);  // steady state: all dups
  EXPECT_EQ(sharded.RunMigrationRound(2), 0u);
  EXPECT_EQ(sharded.island(0)->size(), 2u);
  EXPECT_EQ(sharded.island(1)->size(), 2u);
}

TEST(ShardedSeedSchedulerTest, MigrantsPassAdmissionPolicy) {
  // A destination full of high-priority residents rejects weak migrants —
  // migration obeys the same no-inversion rule as Add.
  ShardedSeedScheduler sharded(2, true, 2);
  sharded.island(0)->Add(MakeSeed(50.0, 0));
  sharded.island(0)->Add(MakeSeed(60.0, 1));
  sharded.island(1)->Add(MakeSeed(1.0, 2));

  sharded.RunMigrationRound(1);

  EXPECT_DOUBLE_EQ(sharded.island(0)->MinPriority(), 50.0);
  EXPECT_EQ(sharded.island(0)->stats().imported, 0u);
  EXPECT_EQ(sharded.island(0)->stats().rejected, 1u);
  // Island 1 happily accepted the strong migrant.
  EXPECT_DOUBLE_EQ(sharded.island(1)->MaxPriority(), 60.0);
}

}  // namespace
}  // namespace mufuzz::fuzzer
