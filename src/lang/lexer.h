#ifndef MUFUZZ_LANG_LEXER_H_
#define MUFUZZ_LANG_LEXER_H_

#include <string_view>
#include <vector>

#include "common/status.h"
#include "lang/token.h"

namespace mufuzz::lang {

/// Tokenizes MiniSol source. Handles //-comments and /* */-comments,
/// decimal and hex number literals, and double-quoted strings. Every
/// token's `text` views `source`, which must outlive the tokens.
Result<std::vector<Token>> Tokenize(std::string_view source);

}  // namespace mufuzz::lang

#endif  // MUFUZZ_LANG_LEXER_H_
