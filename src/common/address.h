#ifndef MUFUZZ_COMMON_ADDRESS_H_
#define MUFUZZ_COMMON_ADDRESS_H_

#include <array>
#include <compare>
#include <cstdint>
#include <cstring>
#include <string>

#include "common/bytes.h"
#include "common/u256.h"

namespace mufuzz {

/// A 160-bit Ethereum account address.
struct Address {
  std::array<uint8_t, 20> bytes{};

  Address() = default;

  /// Builds a deterministic address from a small integer (test/fuzzer
  /// convenience): the integer is placed big-endian in the low bytes.
  static Address FromUint(uint64_t v) {
    Address a;
    for (int i = 0; i < 8; ++i) {
      a.bytes[19 - i] = static_cast<uint8_t>(v >> (8 * i));
    }
    return a;
  }

  /// Truncates a 256-bit word to its low 160 bits (EVM address coercion).
  static Address FromWord(const U256& w) {
    auto raw = w.ToBytesBE();
    Address a;
    std::copy(raw.begin() + 12, raw.end(), a.bytes.begin());
    return a;
  }

  /// Zero-extends into a 256-bit word. Reads the bytes in place — this is
  /// on the interpreter's per-opcode path (ADDRESS/CALLER/ORIGIN and the
  /// call family), so it must not allocate.
  U256 ToWord() const {
    return U256::FromBytesBE(BytesView(bytes.data(), bytes.size())).value();
  }

  bool IsZero() const {
    for (uint8_t b : bytes) {
      if (b != 0) return false;
    }
    return true;
  }

  std::string ToHex() const {
    return HexEncode0x(BytesView(bytes.data(), bytes.size()));
  }

  bool operator==(const Address&) const = default;
  auto operator<=>(const Address&) const = default;

  /// Three word loads (bytes 0-7, 8-15, 16-19) folded by a multiply-mix.
  /// Every account lookup hashes, so this must stay word-wide.
  struct Hasher {
    size_t operator()(const Address& a) const {
      uint64_t w0, w1;
      uint32_t w2;
      std::memcpy(&w0, a.bytes.data(), 8);
      std::memcpy(&w1, a.bytes.data() + 8, 8);
      std::memcpy(&w2, a.bytes.data() + 16, 4);
      uint64_t h = w0 * 0x9e3779b97f4a7c15ULL;
      h = (h ^ w1) * 0xc2b2ae3d27d4eb4fULL;
      h = (h ^ w2) * 0x165667b19e3779f9ULL;
      return static_cast<size_t>(h ^ (h >> 32));
    }
  };
};

}  // namespace mufuzz

#endif  // MUFUZZ_COMMON_ADDRESS_H_
