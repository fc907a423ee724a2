#ifndef MUFUZZ_COMMON_KECCAK_H_
#define MUFUZZ_COMMON_KECCAK_H_

#include <array>
#include <cstdint>
#include <string_view>

#include "common/bytes.h"

namespace mufuzz {

/// Keccak-256 digest (the pre-NIST padding variant Ethereum uses).
///
/// Used for function selectors (first four bytes of the signature hash),
/// mapping storage slots, and the KECCAK256 opcode. Inputs of exactly
/// kKeccakMemoInputBytes — the `keccak(key . slot)` mapping form — are served
/// from a small per-thread memo; the digest is always Keccak256Uncached's.
std::array<uint8_t, 32> Keccak256(BytesView data);

/// The sponge itself, bypassing the memo (the memo tests' reference).
std::array<uint8_t, 32> Keccak256Uncached(BytesView data);

/// Input length Keccak256 memoizes, and the memo's (fixed) slot count.
inline constexpr size_t kKeccakMemoInputBytes = 64;
inline constexpr size_t kKeccakMemoSlots = 256;

/// Memo slot of a kKeccakMemoInputBytes-long input (exposed so tests can
/// put two inputs in one slot).
size_t Keccak256MemoSlot(BytesView data);

/// Convenience overload hashing a string (e.g. a function signature).
std::array<uint8_t, 32> Keccak256(std::string_view data);

/// First four bytes of Keccak256(signature) — the Solidity ABI selector.
uint32_t AbiSelector(std::string_view signature);

}  // namespace mufuzz

#endif  // MUFUZZ_COMMON_KECCAK_H_
