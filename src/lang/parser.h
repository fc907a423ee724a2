#ifndef MUFUZZ_LANG_PARSER_H_
#define MUFUZZ_LANG_PARSER_H_

#include <memory>

#include "common/status.h"
#include "lang/ast.h"
#include "lang/token.h"

namespace mufuzz::lang {

/// Deepest nesting the compiler accepts, counting parser recursion
/// (parentheses, statements, unary chains, mapping types) and the height of
/// every expression tree, left-deep binary chains included. Sema, codegen
/// and the AST destructor recurse over the tree, so an unbounded depth
/// lets a small hostile source overflow the stack; past the limit parsing
/// fails with InvalidArgument.
inline constexpr int kMaxNestingDepth = 256;

/// Parses a single MiniSol contract from source text.
Result<std::unique_ptr<ContractDecl>> ParseContract(std::string_view source);

}  // namespace mufuzz::lang

#endif  // MUFUZZ_LANG_PARSER_H_
