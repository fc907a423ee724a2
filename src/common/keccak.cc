#include "common/keccak.h"

#include <cstring>

namespace mufuzz {

namespace {

constexpr int kRounds = 24;
constexpr size_t kRateBytes = 136;  // 1088-bit rate for Keccak-256.

constexpr uint64_t kRoundConstants[kRounds] = {
    0x0000000000000001ULL, 0x0000000000008082ULL, 0x800000000000808aULL,
    0x8000000080008000ULL, 0x000000000000808bULL, 0x0000000080000001ULL,
    0x8000000080008081ULL, 0x8000000000008009ULL, 0x000000000000008aULL,
    0x0000000000000088ULL, 0x0000000080008009ULL, 0x000000008000000aULL,
    0x000000008000808bULL, 0x800000000000008bULL, 0x8000000000008089ULL,
    0x8000000000008003ULL, 0x8000000000008002ULL, 0x8000000000000080ULL,
    0x000000000000800aULL, 0x800000008000000aULL, 0x8000000080008081ULL,
    0x8000000000008080ULL, 0x0000000080000001ULL, 0x8000000080008008ULL,
};

constexpr int kRotations[5][5] = {
    {0, 36, 3, 41, 18},
    {1, 44, 10, 45, 2},
    {62, 6, 43, 15, 61},
    {28, 55, 25, 21, 56},
    {27, 20, 39, 8, 14},
};

inline uint64_t Rotl64(uint64_t v, int n) {
  return n == 0 ? v : (v << n) | (v >> (64 - n));
}

void KeccakF1600(uint64_t state[25]) {
  for (int round = 0; round < kRounds; ++round) {
    // Theta.
    uint64_t c[5];
    for (int x = 0; x < 5; ++x) {
      c[x] = state[x] ^ state[x + 5] ^ state[x + 10] ^ state[x + 15] ^
             state[x + 20];
    }
    uint64_t d[5];
    for (int x = 0; x < 5; ++x) {
      d[x] = c[(x + 4) % 5] ^ Rotl64(c[(x + 1) % 5], 1);
    }
    for (int x = 0; x < 5; ++x) {
      for (int y = 0; y < 5; ++y) {
        state[x + 5 * y] ^= d[x];
      }
    }
    // Rho and Pi.
    uint64_t b[25];
    for (int x = 0; x < 5; ++x) {
      for (int y = 0; y < 5; ++y) {
        b[y + 5 * ((2 * x + 3 * y) % 5)] =
            Rotl64(state[x + 5 * y], kRotations[x][y]);
      }
    }
    // Chi.
    for (int x = 0; x < 5; ++x) {
      for (int y = 0; y < 5; ++y) {
        state[x + 5 * y] =
            b[x + 5 * y] ^ ((~b[(x + 1) % 5 + 5 * y]) & b[(x + 2) % 5 + 5 * y]);
      }
    }
    // Iota.
    state[0] ^= kRoundConstants[round];
  }
}

/// One memo slot: a 64-byte input and its digest. Trivially constructible,
/// so the thread_local table below is zero-filled (every slot invalid)
/// without a per-access initialisation guard.
struct MemoEntry {
  uint8_t input[kKeccakMemoInputBytes];
  std::array<uint8_t, 32> digest;
  bool valid;
};

/// Direct-mapped, per-thread memo for 64-byte inputs — the `keccak(key .
/// slot)` form every mapping access hashes. Fixed at kKeccakMemoSlots
/// entries (~25 KB per thread); a slot is overwritten by the next input that
/// maps to it and never grows. Thread-local, so no locking: each thread only
/// ever reads and writes its own table.
thread_local MemoEntry memo[kKeccakMemoSlots];

}  // namespace

size_t Keccak256MemoSlot(BytesView data) {
  // A multiply chain over the eight words, so word order matters
  // (keccak(1 . 2) and keccak(2 . 1) are different mapping slots).
  uint64_t h = 0;
  for (size_t i = 0; i < kKeccakMemoInputBytes / 8; ++i) {
    uint64_t w;
    std::memcpy(&w, data.data() + i * 8, 8);
    h = (h ^ w) * 0x9e3779b97f4a7c15ULL;
  }
  static_assert(kKeccakMemoSlots == 256, "the slot is the hash's top byte");
  return static_cast<size_t>(h >> 56);
}

std::array<uint8_t, 32> Keccak256(BytesView data) {
  if (data.size() != kKeccakMemoInputBytes) return Keccak256Uncached(data);
  MemoEntry& entry = memo[Keccak256MemoSlot(data)];
  if (entry.valid &&
      std::memcmp(entry.input, data.data(), kKeccakMemoInputBytes) == 0) {
    return entry.digest;
  }
  entry.digest = Keccak256Uncached(data);
  std::memcpy(entry.input, data.data(), kKeccakMemoInputBytes);
  entry.valid = true;
  return entry.digest;
}

std::array<uint8_t, 32> Keccak256Uncached(BytesView data) {
  uint64_t state[25] = {0};
  uint8_t block[kRateBytes];

  size_t offset = 0;
  // Absorb full blocks.
  while (data.size() - offset >= kRateBytes) {
    for (size_t i = 0; i < kRateBytes / 8; ++i) {
      uint64_t lane = 0;
      std::memcpy(&lane, data.data() + offset + i * 8, 8);  // little-endian
      state[i] ^= lane;
    }
    KeccakF1600(state);
    offset += kRateBytes;
  }

  // Final block with Keccak (0x01 … 0x80) padding.
  size_t remaining = data.size() - offset;
  std::memset(block, 0, kRateBytes);
  if (remaining > 0) std::memcpy(block, data.data() + offset, remaining);
  block[remaining] = 0x01;
  block[kRateBytes - 1] |= 0x80;
  for (size_t i = 0; i < kRateBytes / 8; ++i) {
    uint64_t lane = 0;
    std::memcpy(&lane, block + i * 8, 8);
    state[i] ^= lane;
  }
  KeccakF1600(state);

  std::array<uint8_t, 32> digest;
  std::memcpy(digest.data(), state, 32);
  return digest;
}

std::array<uint8_t, 32> Keccak256(std::string_view data) {
  return Keccak256(BytesView(reinterpret_cast<const uint8_t*>(data.data()),
                             data.size()));
}

uint32_t AbiSelector(std::string_view signature) {
  auto digest = Keccak256(signature);
  return (static_cast<uint32_t>(digest[0]) << 24) |
         (static_cast<uint32_t>(digest[1]) << 16) |
         (static_cast<uint32_t>(digest[2]) << 8) |
         static_cast<uint32_t>(digest[3]);
}

}  // namespace mufuzz
