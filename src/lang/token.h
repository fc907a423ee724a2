#ifndef MUFUZZ_LANG_TOKEN_H_
#define MUFUZZ_LANG_TOKEN_H_

#include <cstdint>
#include <string_view>

namespace mufuzz::lang {

/// Token kinds of MiniSol, the Solidity-subset language the corpus is
/// written in (the stand-in for solc 0.4.x in the paper's pipeline).
enum class TokenKind {
  kEof,
  kIdent,
  kNumber,     // decimal or 0x hex
  kString,     // "..." (require messages; content ignored)

  // Keywords.
  kContract,
  kFunction,
  kConstructor,
  kIf,
  kElse,
  kWhile,
  kFor,
  kReturn,
  kReturns,
  kRequire,
  kTrue,
  kFalse,
  kMapping,
  kUint256,
  kBool,
  kAddress,
  kPublic,
  kPayable,
  kView,
  kExternal,
  kInternal,
  kPrivate,
  kMsg,
  kBlock,
  kTx,
  kThis,
  kNow,
  kSelfdestruct,
  kKeccak256,
  kAbi,
  kWei,
  kFinney,
  kEther,

  // Punctuation / operators.
  kLBrace,
  kRBrace,
  kLParen,
  kRParen,
  kLBracket,
  kRBracket,
  kSemicolon,
  kComma,
  kDot,
  kArrow,        // =>
  kAssign,       // =
  kPlusAssign,   // +=
  kMinusAssign,  // -=
  kStarAssign,   // *=
  kPlus,
  kMinus,
  kStar,
  kSlash,
  kPercent,
  kLt,
  kGt,
  kLe,
  kGe,
  kEq,   // ==
  kNe,   // !=
  kAndAnd,
  kOrOr,
  kBang,
  kPlusPlus,    // ++
  kMinusMinus,  // --
};

/// Returns a printable name for diagnostics.
const char* TokenKindName(TokenKind kind);

struct Token {
  TokenKind kind = TokenKind::kEof;
  /// Raw spelling (identifier name, number digits, string contents): a
  /// view into the tokenized source, valid only while that source lives.
  /// The parser copies what it keeps into the AST.
  std::string_view text;
  int line = 0;
  int column = 0;
};

}  // namespace mufuzz::lang

#endif  // MUFUZZ_LANG_TOKEN_H_
