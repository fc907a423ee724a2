#include "common/bytes.h"

#include <gtest/gtest.h>

#include "common/address.h"
#include "common/rng.h"
#include "common/status.h"

namespace mufuzz {
namespace {

TEST(BytesTest, HexEncodeDecodeRoundTrip) {
  Bytes data = {0x00, 0x01, 0xab, 0xff};
  EXPECT_EQ(HexEncode(data), "0001abff");
  EXPECT_EQ(HexEncode0x(data), "0x0001abff");
  auto back = HexDecode("0x0001abff");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), data);
}

TEST(BytesTest, HexDecodeRejectsOddLength) {
  EXPECT_FALSE(HexDecode("abc").ok());
}

TEST(BytesTest, HexDecodeRejectsBadDigits) {
  EXPECT_FALSE(HexDecode("zz").ok());
}

TEST(BytesTest, HexDecodeEmptyIsEmpty) {
  auto r = HexDecode("");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().empty());
}

TEST(BytesTest, HexDecodeUppercase) {
  auto r = HexDecode("ABFF");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), (Bytes{0xab, 0xff}));
}

TEST(BytesTest, AppendHelpers) {
  Bytes out;
  AppendU32BE(&out, 0x01020304);
  EXPECT_EQ(out, (Bytes{1, 2, 3, 4}));
  AppendU64BE(&out, 0x0506070809ULL);
  ASSERT_EQ(out.size(), 12u);
  EXPECT_EQ(out[11], 9);
  EXPECT_EQ(out[7], 5);
  Bytes tail = {0xaa};
  AppendBytes(&out, tail);
  EXPECT_EQ(out.back(), 0xaa);
}

TEST(BytesTest, ReadU64BEPaddedReadsZerosPastEnd) {
  Bytes data = {0x12, 0x34};
  EXPECT_EQ(ReadU64BEPadded(data, 0), 0x1234000000000000ULL);
  EXPECT_EQ(ReadU64BEPadded(data, 2), 0ULL);
  EXPECT_EQ(ReadU64BEPadded(data, 100), 0ULL);
}

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::ParseError("unexpected token");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.ToString(), "ParseError: unexpected token");
}

TEST(StatusTest, ResultValuePath) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(0), 42);
}

TEST(StatusTest, ResultErrorPath) {
  Result<int> r = Status::NotFound("gone");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(AddressTest, FromUintPlacesLowBytes) {
  Address a = Address::FromUint(0x1234);
  EXPECT_EQ(a.bytes[19], 0x34);
  EXPECT_EQ(a.bytes[18], 0x12);
  EXPECT_EQ(a.bytes[0], 0x00);
  EXPECT_FALSE(a.IsZero());
  EXPECT_TRUE(Address().IsZero());
}

TEST(AddressTest, WordRoundTrip) {
  Address a = Address::FromUint(0xdeadbeef);
  U256 w = a.ToWord();
  EXPECT_EQ(Address::FromWord(w), a);
  EXPECT_EQ(w, U256(0xdeadbeefULL));
}

TEST(AddressTest, FromWordTruncatesHighBits) {
  // Bits above 160 are dropped, as EVM address coercion does.
  U256 w = (U256(1) << 200) + U256(7);
  EXPECT_EQ(Address::FromWord(w), Address::FromUint(7));
}

TEST(AddressTest, HashDiscriminates) {
  Address::Hasher h;
  EXPECT_NE(h(Address::FromUint(1)), h(Address::FromUint(2)));
  EXPECT_EQ(h(Address::FromUint(1)), h(Address::FromUint(1)));
  // A flipped byte in each of the three hashed words changes the hash.
  for (size_t byte : {0, 7, 8, 15, 16, 19}) {
    Address a = Address::FromUint(0x1234);
    a.bytes[byte] ^= 0x40;
    EXPECT_NE(h(a), h(Address::FromUint(0x1234))) << "byte " << byte;
  }
}

TEST(RngTest, DeterministicFromSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, NextBelowStaysInBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.NextInRange(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Chance(0.0));
    EXPECT_TRUE(rng.Chance(1.0));
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(3);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

}  // namespace
}  // namespace mufuzz
