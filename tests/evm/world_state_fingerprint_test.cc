// Differential test for WorldState's incremental fingerprint, the key the
// backend's transaction memo looks transactions up by. After every
// operation of random journaled streams (nested snapshots reverted,
// committed and restored; captured deltas unwound and replayed),
// fingerprint() must equal the digest recomputed from scratch over
// accounts(). States that differ in a single item must get different
// fingerprints, and equal states equal ones, however they were reached.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "evm/world_state.h"

namespace mufuzz::evm {
namespace {

std::string Hex(const StateFingerprint& fp) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(fp.hi),
                static_cast<unsigned long long>(fp.lo));
  return buf;
}

/// The incremental fingerprint equals the from-scratch one.
::testing::AssertionResult Current(const WorldState& ws) {
  const StateFingerprint want = WorldState::FingerprintOf(ws.accounts());
  if (ws.fingerprint() == want) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "incremental " << Hex(ws.fingerprint()) << " != recomputed "
         << Hex(want);
}

/// Random writes over a small address/key pool, so writes land on each
/// other: storage with value and taint (often back to (0, 0)), balances
/// (often to zero), transfers, code installs and removals, self-destructs
/// and bare account creation. Nested snapshots revert or commit inside
/// the stream, as a transaction's call frames do. Checks the fingerprint
/// after every operation.
void RandomWrites(WorldState* ws, Rng* rng, int count) {
  std::vector<size_t> nested;
  auto addr = [&] { return Address::FromUint(0x100 + rng->NextBelow(5)); };
  for (int n = 0; n < count; ++n) {
    std::string op;
    switch (rng->NextBelow(10)) {
      case 0:
        op = "touch";
        ws->Touch(addr());
        break;
      case 1:
        op = "balance";
        ws->SetBalance(addr(), U256(rng->NextBelow(3) * 1000));
        break;
      case 2:
        op = "transfer";
        ws->Transfer(addr(), addr(), U256(rng->NextBelow(500)));
        break;
      case 3:
      case 4:
      case 5:
        op = "storage";
        ws->SetStorage(addr(), U256(rng->NextBelow(12)),
                       U256(rng->NextBelow(3)),
                       static_cast<uint32_t>(rng->NextBelow(3)));
        break;
      case 6:
        op = "code";
        ws->SetCode(addr(), Bytes(rng->NextBelow(3),
                                  static_cast<uint8_t>(rng->NextBelow(2))));
        break;
      case 7:
        op = "selfdestruct";
        ws->MarkSelfDestructed(addr());
        break;
      case 8:
        op = "snapshot";
        nested.push_back(ws->Snapshot());
        break;
      case 9:
        if (nested.empty()) continue;
        if (rng->NextBelow(2) == 0) {
          op = "revert";
          ws->RevertTo(nested.back());
        } else {
          op = "commit";
          ws->Commit(nested.back());
        }
        nested.pop_back();
        break;
    }
    ASSERT_TRUE(Current(*ws)) << "after " << op << " (op " << n << ")";
  }
  while (!nested.empty()) {
    ws->Commit(nested.back());
    nested.pop_back();
  }
}

TEST(WorldStateFingerprintTest, IncrementalMatchesRecomputationOverRandomOps) {
  Rng rng(0xf1a9e7);
  for (int trial = 0; trial < 300; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    WorldState ws;
    RandomWrites(&ws, &rng, 12);  // unjournaled: no snapshot is live yet
    const size_t base = ws.Snapshot();
    for (int round = 0; round < 8; ++round) {
      switch (rng.NextBelow(4)) {
        case 0:  // plain journaled writes
          RandomWrites(&ws, &rng, static_cast<int>(rng.NextBelow(30)));
          break;
        case 1: {  // restore a kept snapshot, as every sequence run does
          RandomWrites(&ws, &rng, static_cast<int>(rng.NextBelow(30)));
          ws.RestoreKeep(base);
          ASSERT_TRUE(Current(ws)) << "after RestoreKeep";
          break;
        }
        case 2:
        case 3: {  // capture a span, unwind it, replay it
          const size_t id = ws.Snapshot();
          const size_t start = ws.journal_size();
          RandomWrites(&ws, &rng, static_cast<int>(rng.NextBelow(40)));
          WorldState::Delta delta;
          ws.CaptureDelta(start, &delta);
          const StateFingerprint after = ws.fingerprint();
          const WorldState::AccountMap accounts = ws.accounts();
          if (rng.NextBelow(2) == 0) {
            ws.RevertTo(id);
          } else {
            ws.RestoreKeep(id);
          }
          ASSERT_TRUE(Current(ws)) << "after unwinding a captured span";
          ws.ApplyDelta(delta);
          ASSERT_TRUE(Current(ws)) << "after ApplyDelta";
          ASSERT_TRUE(ws.accounts() == accounts);
          ASSERT_EQ(Hex(ws.fingerprint()), Hex(after))
              << "replaying a span must land on the captured fingerprint";
          break;
        }
      }
      if (HasFatalFailure()) return;
    }
    ws.RestoreKeep(base);
    ASSERT_TRUE(Current(ws)) << "after the final restore";
  }
}

/// A state with one account holding a balance, code and two slots.
WorldState Base() {
  WorldState ws;
  const Address a = Address::FromUint(0xa);
  ws.SetBalance(a, U256(5));
  ws.SetCode(a, Bytes{0x60, 0x00});
  ws.SetStorage(a, U256(1), U256(7), 0);
  ws.SetStorage(a, U256(2), U256(9), 1);
  return ws;
}

TEST(WorldStateFingerprintTest, SingleItemDifferencesChangeTheFingerprint) {
  const Address a = Address::FromUint(0xa);
  const Address b = Address::FromUint(0xb);
  const StateFingerprint base = Base().fingerprint();
  struct Variant {
    const char* what;
    void (*apply)(WorldState*, const Address&, const Address&);
  };
  const Variant variants[] = {
      {"one slot's taint",
       [](WorldState* ws, const Address& a, const Address&) {
         ws->SetStorage(a, U256(1), U256(7), 1);
       }},
      {"a taint-only slot",
       [](WorldState* ws, const Address& a, const Address&) {
         ws->SetStorage(a, U256(3), U256(0), 4);
       }},
      {"one slot's value",
       [](WorldState* ws, const Address& a, const Address&) {
         ws->SetStorage(a, U256(1), U256(8), 0);
       }},
      {"a slot cleared to (0, 0)",
       [](WorldState* ws, const Address& a, const Address&) {
         ws->SetStorage(a, U256(2), U256(0), 0);
       }},
      {"one balance",
       [](WorldState* ws, const Address& a, const Address&) {
         ws->SetBalance(a, U256(6));
       }},
      {"an empty account's existence",
       [](WorldState* ws, const Address&, const Address& b) { ws->Touch(b); }},
      {"the self-destructed flag",
       [](WorldState* ws, const Address& a, const Address&) {
         ws->MarkSelfDestructed(a);
       }},
      {"one code byte",
       [](WorldState* ws, const Address& a, const Address&) {
         ws->SetCode(a, Bytes{0x60, 0x01});
       }},
      {"a slot moved to another account",
       [](WorldState* ws, const Address& a, const Address& b) {
         ws->SetStorage(a, U256(1), U256(0), 0);
         ws->SetStorage(b, U256(1), U256(7), 0);
       }},
  };
  std::vector<StateFingerprint> seen = {base};
  for (const Variant& v : variants) {
    WorldState ws = Base();
    v.apply(&ws, a, b);
    EXPECT_TRUE(Current(ws)) << v.what;
    for (const StateFingerprint& other : seen) {
      EXPECT_FALSE(ws.fingerprint() == other)
          << "states differing in " << v.what
          << " share a fingerprint with an earlier state";
    }
    seen.push_back(ws.fingerprint());
  }
}

TEST(WorldStateFingerprintTest, EqualStatesReachedDifferentlyAgree) {
  const Address a = Address::FromUint(0xa);
  const StateFingerprint base = Base().fingerprint();

  WorldState rewritten = Base();  // writes that come back to the base
  const size_t id = rewritten.Snapshot();
  rewritten.SetStorage(a, U256(1), U256(3), 2);
  rewritten.SetStorage(a, U256(1), U256(7), 0);
  rewritten.SetStorage(a, U256(5), U256(1), 0);
  rewritten.SetStorage(a, U256(5), U256(0), 0);
  rewritten.SetBalance(a, U256(0));
  rewritten.SetBalance(a, U256(5));
  EXPECT_EQ(Hex(rewritten.fingerprint()), Hex(base));
  rewritten.Commit(id);
  EXPECT_EQ(Hex(rewritten.fingerprint()), Hex(base));

  WorldState reordered;  // the base's writes in another order
  reordered.SetStorage(a, U256(2), U256(9), 1);
  reordered.SetStorage(a, U256(1), U256(7), 0);
  reordered.SetCode(a, Bytes{0x60, 0x00});
  reordered.SetBalance(a, U256(5));
  EXPECT_EQ(Hex(reordered.fingerprint()), Hex(base));

  WorldState reverted = Base();
  const size_t mark = reverted.Snapshot();
  reverted.Touch(Address::FromUint(0xb));
  reverted.SetStorage(a, U256(1), U256(0), 0);
  reverted.SetCode(a, Bytes{});
  reverted.RevertTo(mark);
  EXPECT_EQ(Hex(reverted.fingerprint()), Hex(base));
  EXPECT_NE(Hex(WorldState().fingerprint()), Hex(base));
}

}  // namespace
}  // namespace mufuzz::evm
