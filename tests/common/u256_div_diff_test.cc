// Differential test: U256 division (DIV, MOD, SDIV, SMOD, ADDMOD, MULMOD)
// against the binary long division the library used before it switched to
// single-limb steps and Knuth's Algorithm D. The bit-serial loop lives here
// as the reference: slow, but obviously correct.

#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.h"
#include "common/u256.h"

namespace mufuzz {
namespace {

using u128 = unsigned __int128;

/// Reference: n-limb numerator divided by a nonzero 256-bit denominator,
/// one numerator bit at a time.
void BitSerialDivMod(const uint64_t* num, int n, const U256& den,
                     uint64_t* quot, U256* rem) {
  uint64_t r[5] = {0, 0, 0, 0, 0};
  const uint64_t d[5] = {den.limb(0), den.limb(1), den.limb(2), den.limb(3),
                         0};
  std::memset(quot, 0, n * sizeof(uint64_t));
  for (int bit = n * 64 - 1; bit >= 0; --bit) {
    for (int i = 4; i > 0; --i) r[i] = (r[i] << 1) | (r[i - 1] >> 63);
    r[0] = (r[0] << 1) | ((num[bit >> 6] >> (bit & 63)) & 1);
    bool geq = true;
    for (int i = 4; i >= 0; --i) {
      if (r[i] != d[i]) {
        geq = r[i] > d[i];
        break;
      }
    }
    if (!geq) continue;
    u128 borrow = 0;
    for (int i = 0; i < 5; ++i) {
      u128 cur = static_cast<u128>(r[i]) - d[i] - borrow;
      r[i] = static_cast<uint64_t>(cur);
      borrow = (cur >> 64) ? 1 : 0;
    }
    quot[bit >> 6] |= 1ULL << (bit & 63);
  }
  *rem = U256(r[0], r[1], r[2], r[3]);
}

struct QR {
  U256 q, r;
};

QR RefDivMod(const U256& a, const U256& b) {
  if (b.IsZero()) return {};
  uint64_t num[4] = {a.limb(0), a.limb(1), a.limb(2), a.limb(3)};
  uint64_t quot[4];
  QR out;
  BitSerialDivMod(num, 4, b, quot, &out.r);
  out.q = U256(quot[0], quot[1], quot[2], quot[3]);
  return out;
}

U256 RefSdiv(const U256& a, const U256& b) {
  if (b.IsZero()) return U256::Zero();
  bool na = a.IsNegativeSigned(), nb = b.IsNegativeSigned();
  U256 q = RefDivMod(na ? -a : a, nb ? -b : b).q;
  return na != nb ? -q : q;
}

U256 RefSmod(const U256& a, const U256& b) {
  if (b.IsZero()) return U256::Zero();
  bool na = a.IsNegativeSigned();
  U256 r = RefDivMod(na ? -a : a, b.IsNegativeSigned() ? -b : b).r;
  return na ? -r : r;
}

U256 RefAddMod(const U256& a, const U256& b, const U256& m) {
  if (m.IsZero()) return U256::Zero();
  uint64_t sum[5];
  u128 carry = 0;
  for (int i = 0; i < 4; ++i) {
    u128 cur = static_cast<u128>(a.limb(i)) + b.limb(i) + carry;
    sum[i] = static_cast<uint64_t>(cur);
    carry = cur >> 64;
  }
  sum[4] = static_cast<uint64_t>(carry);
  uint64_t quot[5];
  U256 rem;
  BitSerialDivMod(sum, 5, m, quot, &rem);
  return rem;
}

U256 RefMulMod(const U256& a, const U256& b, const U256& m) {
  if (m.IsZero()) return U256::Zero();
  uint64_t full[8] = {};
  for (int i = 0; i < 4; ++i) {
    uint64_t carry = 0;
    for (int j = 0; j < 4; ++j) {
      u128 cur = static_cast<u128>(a.limb(i)) * b.limb(j) + full[i + j] + carry;
      full[i + j] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    full[i + 4] = carry;
  }
  uint64_t quot[8];
  U256 rem;
  BitSerialDivMod(full, 8, m, quot, &rem);
  return rem;
}

/// A value exactly `limbs` limbs wide (top limb nonzero; 0 = zero). Half of
/// the limbs come from edge values, which is where quotient-digit estimates
/// and carries go wrong.
U256 Operand(Rng* rng, int limbs) {
  static constexpr uint64_t kEdges[] = {
      0, 1, 2, 0x7fffffffffffffffULL, 0x8000000000000000ULL,
      0x8000000000000001ULL, 0xfffffffffffffffeULL, 0xffffffffffffffffULL};
  uint64_t l[4] = {0, 0, 0, 0};
  for (int i = 0; i < limbs; ++i) {
    l[i] = rng->Chance(0.5) ? kEdges[rng->NextU64() % 8] : rng->NextU64();
  }
  if (limbs > 0 && l[limbs - 1] == 0) l[limbs - 1] = 1 + rng->NextU64() % 7;
  return U256(l[0], l[1], l[2], l[3]);
}

void ExpectDivMatches(const U256& a, const U256& b) {
  QR want = RefDivMod(a, b);
  EXPECT_EQ(a / b, want.q) << a.ToHex() << " / " << b.ToHex();
  EXPECT_EQ(a % b, want.r) << a.ToHex() << " % " << b.ToHex();
  EXPECT_EQ(a.Sdiv(b), RefSdiv(a, b)) << a.ToHex() << " sdiv " << b.ToHex();
  EXPECT_EQ(a.Smod(b), RefSmod(a, b)) << a.ToHex() << " smod " << b.ToHex();
}

TEST(U256DivDiffTest, RandomOperandsOfEveryWidthMatchBitSerial) {
  Rng rng(20240917);
  for (int a_limbs = 1; a_limbs <= 4; ++a_limbs) {
    for (int b_limbs = 1; b_limbs <= 4; ++b_limbs) {
      for (int i = 0; i < 400; ++i) {
        ExpectDivMatches(Operand(&rng, a_limbs), Operand(&rng, b_limbs));
      }
    }
  }
}

TEST(U256DivDiffTest, KnuthAddBackCases) {
  // Both operand pairs make Algorithm D's corrected quotient-digit estimate
  // one too large, so the step must add the divisor back. The second also
  // has a normalisation shift of 0.
  const U256 cases[][2] = {
      {U256(0, 0, 0x8000000000000000ULL, 0x7fffffffffffffffULL),
       U256(1, 0, 0x8000000000000000ULL, 0)},
      {U256(1, 2, 0x8000000000000000ULL, 2),
       U256(0x87d750f5aca00a42ULL, 0, 0x8000000000000000ULL, 0)},
  };
  for (const auto& [a, b] : cases) {
    ExpectDivMatches(a, b);
    QR got{a / b, a % b};
    EXPECT_LT(got.r, b);
    EXPECT_EQ(got.q * b + got.r, a);
  }
}

TEST(U256DivDiffTest, NormalisationShiftOfZero) {
  // Divisors whose top limb already has its high bit set, at every width.
  Rng rng(7);
  for (int b_limbs = 1; b_limbs <= 4; ++b_limbs) {
    for (int i = 0; i < 200; ++i) {
      U256 b = Operand(&rng, b_limbs);
      b = b | (U256(1) << (64 * b_limbs - 1));
      ExpectDivMatches(Operand(&rng, 4), b);
      ExpectDivMatches(U256::Max(), b);
    }
  }
}

TEST(U256DivDiffTest, SignedMinByMinusOne) {
  const U256 int_min = U256::SignBit();
  const U256 minus_one = U256::Max();
  EXPECT_EQ(int_min.Sdiv(minus_one), int_min);
  EXPECT_EQ(int_min.Smod(minus_one), U256::Zero());
  ExpectDivMatches(int_min, minus_one);
  ExpectDivMatches(int_min, U256(1));
  ExpectDivMatches(minus_one, int_min);
}

TEST(U256DivDiffTest, ZeroAndSmallEdges) {
  const U256 values[] = {U256::Zero(), U256(1), U256(2), U256(100000),
                         U256::SignBit(), U256::Max(), U256(0, 1, 0, 0),
                         U256(~0ULL, ~0ULL, 0, 0)};
  for (const U256& a : values) {
    for (const U256& b : values) ExpectDivMatches(a, b);
  }
}

TEST(U256DivDiffTest, AddModAndMulModWithModuliOfEveryWidth) {
  Rng rng(31337);
  for (int m_limbs = 1; m_limbs <= 4; ++m_limbs) {
    for (int i = 0; i < 300; ++i) {
      U256 a = Operand(&rng, 1 + static_cast<int>(rng.NextU64() % 4));
      U256 b = Operand(&rng, 1 + static_cast<int>(rng.NextU64() % 4));
      U256 m = Operand(&rng, m_limbs);
      EXPECT_EQ(U256::AddMod(a, b, m), RefAddMod(a, b, m))
          << a.ToHex() << " + " << b.ToHex() << " mod " << m.ToHex();
      EXPECT_EQ(U256::MulMod(a, b, m), RefMulMod(a, b, m))
          << a.ToHex() << " * " << b.ToHex() << " mod " << m.ToHex();
    }
  }
  // Maximal 257- and 512-bit intermediates.
  for (int m_limbs = 1; m_limbs <= 4; ++m_limbs) {
    U256 m = Operand(&rng, m_limbs);
    EXPECT_EQ(U256::AddMod(U256::Max(), U256::Max(), m),
              RefAddMod(U256::Max(), U256::Max(), m));
    EXPECT_EQ(U256::MulMod(U256::Max(), U256::Max(), m),
              RefMulMod(U256::Max(), U256::Max(), m));
  }
  EXPECT_EQ(U256::AddMod(U256(5), U256(6), U256::Zero()), U256::Zero());
  EXPECT_EQ(U256::MulMod(U256(5), U256(6), U256::Zero()), U256::Zero());
}

}  // namespace
}  // namespace mufuzz
