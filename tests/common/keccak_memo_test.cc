// Keccak256's per-thread memo for 64-byte inputs must be invisible: every
// digest it serves equals the sponge's (Keccak256Uncached), whatever shares
// its slot, whatever the input length, on whichever thread.

#include <gtest/gtest.h>

#include <thread>
#include <utility>
#include <vector>

#include "common/keccak.h"
#include "common/rng.h"

namespace mufuzz {
namespace {

Bytes RandomBytes(Rng* rng, size_t n) {
  Bytes out(n);
  for (uint8_t& b : out) b = static_cast<uint8_t>(rng->NextU64());
  return out;
}

/// The mapping-slot form: a 32-byte key followed by a 32-byte base slot.
Bytes MappingInput(uint64_t key, uint64_t slot) {
  Bytes out(kKeccakMemoInputBytes, 0);
  for (int i = 0; i < 8; ++i) {
    out[31 - i] = static_cast<uint8_t>(key >> (8 * i));
    out[63 - i] = static_cast<uint8_t>(slot >> (8 * i));
  }
  return out;
}

void ExpectSponge(const Bytes& input) {
  EXPECT_EQ(Keccak256(input), Keccak256Uncached(input))
      << "length " << input.size() << ": " << HexEncode(input);
}

TEST(KeccakMemoTest, MatchesKnownMappingDigest) {
  // keccak256(abi.encode(uint256(0), uint256(0))), as Solidity computes the
  // storage slot of mapping key 0 at base slot 0.
  const Bytes zero(kKeccakMemoInputBytes, 0);
  for (int pass = 0; pass < 2; ++pass) {  // miss, then hit
    auto digest = Keccak256(zero);
    EXPECT_EQ(HexEncode(BytesView(digest.data(), digest.size())),
              "ad3228b676f7d3cd4284a5443f17f1962b36e491b30a40b2405849e597ba5fb5");
  }
}

TEST(KeccakMemoTest, InputsSharingASlotAlternate) {
  // Two mapping inputs that land in one slot evict each other on every
  // call; each call must still return its own digest.
  const Bytes first = MappingInput(1, 0);
  const size_t slot = Keccak256MemoSlot(first);
  Bytes second;
  for (uint64_t key = 2; second.empty(); ++key) {
    Bytes candidate = MappingInput(key, 0);
    if (Keccak256MemoSlot(candidate) == slot) second = std::move(candidate);
  }
  ASSERT_NE(first, second);
  for (int i = 0; i < 8; ++i) {
    ExpectSponge(first);
    ExpectSponge(second);
  }
}

TEST(KeccakMemoTest, SameSlotInputsOneWordApartNeverAlias) {
  // The hit check compares all 64 bytes: for each 8-byte word, two inputs
  // that share a slot and differ only inside that word never alias.
  Rng rng(5);
  const Bytes base = RandomBytes(&rng, kKeccakMemoInputBytes);
  for (size_t word = 0; word < kKeccakMemoInputBytes / 8; ++word) {
    std::vector<Bytes> by_slot(kKeccakMemoSlots);
    Bytes a, b;
    for (int v = 0; v < 65536 && a.empty(); ++v) {
      Bytes candidate = base;
      candidate[8 * word] = static_cast<uint8_t>(v);
      candidate[8 * word + 1] = static_cast<uint8_t>(v >> 8);
      Bytes& seen = by_slot[Keccak256MemoSlot(candidate)];
      if (seen.empty()) {
        seen = std::move(candidate);
      } else {
        a = seen;
        b = std::move(candidate);
      }
    }
    ASSERT_FALSE(a.empty()) << "no same-slot pair inside word " << word;
    for (int i = 0; i < 3; ++i) {
      ExpectSponge(a);
      ExpectSponge(b);
    }
  }
}

TEST(KeccakMemoTest, OnlyExactly64BytesAreMemoized) {
  Rng rng(11);
  const Bytes full = RandomBytes(&rng, kKeccakMemoInputBytes + 1);
  const Bytes b63(full.begin(), full.begin() + 63);
  const Bytes b64(full.begin(), full.begin() + 64);
  // Memoize the 64-byte input, then ask for its 63-byte prefix and 65-byte
  // extension: neither may be served the memoized digest.
  for (int i = 0; i < 2; ++i) {
    ExpectSponge(b64);
    ExpectSponge(b63);
    ExpectSponge(full);
  }
  EXPECT_NE(Keccak256(b63), Keccak256(b64));
  EXPECT_NE(Keccak256(full), Keccak256(b64));
}

TEST(KeccakMemoTest, ThreadsKeepTheirOwnMemo) {
  // More distinct inputs than slots, hashed in a different order on each
  // thread, so every thread's memo evicts and hits constantly.
  std::vector<Bytes> inputs;
  std::vector<std::array<uint8_t, 32>> want;
  for (uint64_t key = 0; key < 3 * kKeccakMemoSlots; ++key) {
    inputs.push_back(MappingInput(key % 97, key % 5));
    want.push_back(Keccak256Uncached(inputs.back()));
  }
  constexpr int kThreads = 4;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(100 + t);
      for (int round = 0; round < 4 * static_cast<int>(inputs.size());
           ++round) {
        size_t i = rng.NextBelow(inputs.size());
        if (Keccak256(inputs[i]) != want[i]) ++mismatches[t];
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
}

}  // namespace
}  // namespace mufuzz
