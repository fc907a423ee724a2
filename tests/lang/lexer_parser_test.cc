#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "corpus/builtin.h"
#include "lang/compiler.h"
#include "lang/lexer.h"
#include "lang/parser.h"
#include "lang/sema.h"

namespace mufuzz::lang {
namespace {

// ------------------------------------------------------------------ Lexer --

TEST(LexerTest, BasicTokens) {
  auto tokens = Tokenize("contract C { uint256 x = 5; }");
  ASSERT_TRUE(tokens.ok());
  const auto& t = tokens.value();
  ASSERT_GE(t.size(), 9u);
  EXPECT_EQ(t[0].kind, TokenKind::kContract);
  EXPECT_EQ(t[1].kind, TokenKind::kIdent);
  EXPECT_EQ(t[1].text, "C");
  EXPECT_EQ(t[2].kind, TokenKind::kLBrace);
  EXPECT_EQ(t[3].kind, TokenKind::kUint256);
  EXPECT_EQ(t[5].kind, TokenKind::kAssign);
  EXPECT_EQ(t[6].kind, TokenKind::kNumber);
  EXPECT_EQ(t[6].text, "5");
  EXPECT_EQ(t.back().kind, TokenKind::kEof);
}

TEST(LexerTest, UintAliasesToUint256) {
  auto tokens = Tokenize("uint x");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens.value()[0].kind, TokenKind::kUint256);
}

TEST(LexerTest, CommentsAreSkipped) {
  auto tokens = Tokenize("a // line comment\n b /* block\n comment */ c");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens.value().size(), 4u);  // a b c eof
  EXPECT_EQ(tokens.value()[0].text, "a");
  EXPECT_EQ(tokens.value()[1].text, "b");
  EXPECT_EQ(tokens.value()[2].text, "c");
}

TEST(LexerTest, UnterminatedBlockCommentFails) {
  EXPECT_FALSE(Tokenize("a /* never closed").ok());
}

TEST(LexerTest, MultiCharOperators) {
  auto tokens = Tokenize("== != <= >= && || += -= *= => ++ --");
  ASSERT_TRUE(tokens.ok());
  const auto& t = tokens.value();
  EXPECT_EQ(t[0].kind, TokenKind::kEq);
  EXPECT_EQ(t[1].kind, TokenKind::kNe);
  EXPECT_EQ(t[2].kind, TokenKind::kLe);
  EXPECT_EQ(t[3].kind, TokenKind::kGe);
  EXPECT_EQ(t[4].kind, TokenKind::kAndAnd);
  EXPECT_EQ(t[5].kind, TokenKind::kOrOr);
  EXPECT_EQ(t[6].kind, TokenKind::kPlusAssign);
  EXPECT_EQ(t[7].kind, TokenKind::kMinusAssign);
  EXPECT_EQ(t[8].kind, TokenKind::kStarAssign);
  EXPECT_EQ(t[9].kind, TokenKind::kArrow);
  EXPECT_EQ(t[10].kind, TokenKind::kPlusPlus);
  EXPECT_EQ(t[11].kind, TokenKind::kMinusMinus);
}

TEST(LexerTest, HexNumbers) {
  auto tokens = Tokenize("0xdeadBEEF");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens.value()[0].kind, TokenKind::kNumber);
  EXPECT_EQ(tokens.value()[0].text, "0xdeadBEEF");
}

TEST(LexerTest, StringsForRequireMessages) {
  auto tokens = Tokenize("require(x, \"must hold\")");
  ASSERT_TRUE(tokens.ok());
  bool found = false;
  for (const auto& tok : tokens.value()) {
    if (tok.kind == TokenKind::kString) {
      EXPECT_EQ(tok.text, "must hold");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(LexerTest, LineNumbersTracked) {
  auto tokens = Tokenize("a\nb\n  c");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens.value()[0].line, 1);
  EXPECT_EQ(tokens.value()[1].line, 2);
  EXPECT_EQ(tokens.value()[2].line, 3);
  EXPECT_EQ(tokens.value()[2].column, 3);
}

TEST(LexerTest, RejectsUnknownCharacters) {
  EXPECT_FALSE(Tokenize("a $ b").ok());
}

TEST(LexerTest, TokenTextViewsTheSource) {
  // Tokens carry no copies: every spelling, the end-of-file token's empty
  // one included, is a view into the tokenized buffer at the token's
  // position.
  const std::string source =
      "contract C {\n  uint256 x = 0x1f; // note\n"
      "  function f() public { require(x >= 2, \"msg\"); x += 1; }\n}";
  auto tokens = Tokenize(source);
  ASSERT_TRUE(tokens.ok());
  const char* begin = source.data();
  const char* end = begin + source.size();
  for (const Token& tok : tokens.value()) {
    EXPECT_GE(tok.text.data(), begin) << TokenKindName(tok.kind);
    EXPECT_LE(tok.text.data() + tok.text.size(), end)
        << TokenKindName(tok.kind);
  }
  const Token& number = tokens.value()[6];
  ASSERT_EQ(number.kind, TokenKind::kNumber);
  EXPECT_EQ(number.text.data(), begin + source.find("0x1f"));
  EXPECT_EQ(number.text, "0x1f");
  auto message = std::find_if(
      tokens.value().begin(), tokens.value().end(),
      [](const Token& t) { return t.kind == TokenKind::kString; });
  ASSERT_NE(message, tokens.value().end());
  EXPECT_EQ(message->text.data(), begin + source.find("msg"));
  EXPECT_EQ(tokens.value().back().kind, TokenKind::kEof);
  EXPECT_EQ(tokens.value().back().text.data(), end);
}

TEST(CompilerTest, ArtifactOutlivesTheSourceBuffer) {
  // The compiler reads the source through views, so everything the
  // artifact keeps must be copied out: overwriting and then freeing the
  // buffer leaves every ABI name and signature as a pristine compile has
  // them (and under ASan, a kept view would be a use-after-free).
  const std::string pristine = corpus::CrowdsaleExample().source;
  auto expected = CompileContract(pristine);
  ASSERT_TRUE(expected.ok());

  std::string buffer = pristine;
  auto artifact = CompileContract(buffer);
  ASSERT_TRUE(artifact.ok());
  std::fill(buffer.begin(), buffer.end(), '#');
  buffer.clear();
  buffer.shrink_to_fit();

  const ContractAbi& abi = artifact.value().abi;
  const ContractAbi& want = expected.value().abi;
  EXPECT_EQ(artifact.value().name, expected.value().name);
  EXPECT_EQ(abi.contract_name, want.contract_name);
  ASSERT_EQ(abi.functions.size(), want.functions.size());
  for (size_t i = 0; i < abi.functions.size(); ++i) {
    EXPECT_EQ(abi.functions[i].name, want.functions[i].name);
    EXPECT_EQ(abi.functions[i].signature, want.functions[i].signature);
    EXPECT_EQ(abi.functions[i].selector, want.functions[i].selector);
    ASSERT_EQ(abi.functions[i].inputs.size(), want.functions[i].inputs.size());
    for (size_t k = 0; k < abi.functions[i].inputs.size(); ++k) {
      EXPECT_EQ(abi.functions[i].inputs[k].name,
                want.functions[i].inputs[k].name);
    }
  }
  ASSERT_EQ(abi.constructor_inputs.size(), want.constructor_inputs.size());
  for (size_t k = 0; k < abi.constructor_inputs.size(); ++k) {
    EXPECT_EQ(abi.constructor_inputs[k].name, want.constructor_inputs[k].name);
  }
  EXPECT_EQ(artifact.value().runtime_code, expected.value().runtime_code);
  EXPECT_EQ(artifact.value().ctor_code, expected.value().ctor_code);
}

// ----------------------------------------------------------------- Parser --

TEST(ParserTest, MinimalContract) {
  auto contract = ParseContract("contract Empty { }");
  ASSERT_TRUE(contract.ok());
  EXPECT_EQ(contract.value()->name, "Empty");
  EXPECT_TRUE(contract.value()->state_vars.empty());
  EXPECT_TRUE(contract.value()->functions.empty());
  EXPECT_EQ(contract.value()->constructor, nullptr);
}

TEST(ParserTest, StateVarsWithInitializers) {
  auto contract = ParseContract(R"(
    contract C {
      uint256 phase = 0;
      uint256 goal;
      address owner;
      mapping(address => uint256) invests;
    })");
  ASSERT_TRUE(contract.ok());
  const auto& c = *contract.value();
  ASSERT_EQ(c.state_vars.size(), 4u);
  EXPECT_EQ(c.state_vars[0].name, "phase");
  EXPECT_NE(c.state_vars[0].init, nullptr);
  EXPECT_EQ(c.state_vars[1].init, nullptr);
  EXPECT_EQ(c.state_vars[2].type.kind, TypeKind::kAddress);
  EXPECT_EQ(c.state_vars[3].type.kind, TypeKind::kMapping);
  EXPECT_EQ(c.state_vars[3].type.key, TypeKind::kAddress);
  EXPECT_EQ(c.state_vars[3].type.value, TypeKind::kUint256);
}

TEST(ParserTest, ConstructorAndFunctions) {
  auto contract = ParseContract(R"(
    contract C {
      uint256 x;
      constructor() public { x = 1; }
      function f(uint256 a, address b) public payable returns (uint256) {
        return a;
      }
    })");
  ASSERT_TRUE(contract.ok());
  const auto& c = *contract.value();
  ASSERT_NE(c.constructor, nullptr);
  ASSERT_EQ(c.functions.size(), 1u);
  const auto& f = *c.functions[0];
  EXPECT_EQ(f.name, "f");
  EXPECT_TRUE(f.payable);
  ASSERT_EQ(f.params.size(), 2u);
  EXPECT_EQ(f.Signature(), "f(uint256,address)");
  ASSERT_TRUE(f.return_type.has_value());
  EXPECT_EQ(f.return_type->kind, TypeKind::kUint256);
}

TEST(ParserTest, EtherUnitsScaleLiterals) {
  auto contract = ParseContract(R"(
    contract C {
      uint256 a = 100 ether;
      uint256 b = 88 finney;
      uint256 c = 7 wei;
    })");
  ASSERT_TRUE(contract.ok());
  const auto& vars = contract.value()->state_vars;
  auto* a = static_cast<NumberExpr*>(vars[0].init.get());
  auto* b = static_cast<NumberExpr*>(vars[1].init.get());
  auto* c = static_cast<NumberExpr*>(vars[2].init.get());
  EXPECT_EQ(a->value, U256(100) * U256::PowerOfTen(18));
  EXPECT_EQ(b->value, U256(88) * U256::PowerOfTen(15));
  EXPECT_EQ(c->value, U256(7));
}

TEST(ParserTest, OperatorPrecedence) {
  auto contract = ParseContract(R"(
    contract C {
      function f(uint256 a) public {
        uint256 x = 1 + 2 * 3;
      }
    })");
  ASSERT_TRUE(contract.ok());
  const auto& body = *contract.value()->functions[0]->body;
  const auto& decl = static_cast<const VarDeclStmt&>(*body.stmts[0]);
  const auto& add = static_cast<const BinaryExpr&>(*decl.init);
  EXPECT_EQ(add.op, BinOp::kAdd);
  const auto& mul = static_cast<const BinaryExpr&>(*add.rhs);
  EXPECT_EQ(mul.op, BinOp::kMul);
}

TEST(ParserTest, MagicEnvExpressions) {
  auto contract = ParseContract(R"(
    contract C {
      address owner;
      uint256 t;
      constructor() public {
        owner = msg.sender;
        t = block.timestamp + block.number + now + msg.value;
      }
    })");
  ASSERT_TRUE(contract.ok());
}

TEST(ParserTest, TransferSendCallChains) {
  auto contract = ParseContract(R"(
    contract C {
      function f(address target, uint256 v) public {
        target.transfer(v);
        bool ok = target.send(v);
        bool ok2 = target.call.value(v)();
        bool ok3 = target.delegatecall(msg.data);
      }
    })");
  ASSERT_TRUE(contract.ok()) << contract.status().ToString();
  const auto& body = *contract.value()->functions[0]->body;
  ASSERT_EQ(body.stmts.size(), 4u);
  const auto& xfer = static_cast<const ExprStmt&>(*body.stmts[0]);
  EXPECT_EQ(xfer.expr->kind, ExprKind::kTransfer);
}

TEST(ParserTest, KeccakWithEncodePacked) {
  auto contract = ParseContract(R"(
    contract C {
      function f(uint256 n) public returns (uint256) {
        return uint256(keccak256(abi.encodePacked(block.timestamp, now))) % 200;
      }
    })");
  ASSERT_TRUE(contract.ok()) << contract.status().ToString();
}

TEST(ParserTest, IfElseWhileForRequire) {
  auto contract = ParseContract(R"(
    contract C {
      uint256 s;
      function f(uint256 n) public {
        if (n < 10) { s = 1; } else { s = 2; }
        while (n > 0) { n = n - 1; }
        for (uint256 i = 0; i < n; i++) { s += i; }
        require(s > 0, "positive");
      }
    })");
  ASSERT_TRUE(contract.ok()) << contract.status().ToString();
  const auto& body = *contract.value()->functions[0]->body;
  EXPECT_EQ(body.stmts[0]->kind, StmtKind::kIf);
  EXPECT_EQ(body.stmts[1]->kind, StmtKind::kWhile);
  EXPECT_EQ(body.stmts[2]->kind, StmtKind::kFor);
  EXPECT_EQ(body.stmts[3]->kind, StmtKind::kRequire);
}

TEST(ParserTest, SelfdestructStatement) {
  auto contract = ParseContract(R"(
    contract C {
      function kill() public { selfdestruct(msg.sender); }
    })");
  ASSERT_TRUE(contract.ok());
  EXPECT_EQ(contract.value()->functions[0]->body->stmts[0]->kind,
            StmtKind::kSelfdestruct);
}

TEST(ParserTest, RejectsDuplicateConstructor) {
  EXPECT_FALSE(ParseContract(R"(
    contract C {
      constructor() public {}
      constructor() public {}
    })")
                   .ok());
}

TEST(ParserTest, RejectsMissingSemicolon) {
  EXPECT_FALSE(ParseContract("contract C { uint256 x = 1 }").ok());
}

TEST(ParserTest, RejectsUnknownMember) {
  EXPECT_FALSE(ParseContract(R"(
    contract C { function f() public { uint256 x = msg.gas; } })")
                   .ok());
}

TEST(ParserTest, ErrorsCarryLineNumbers) {
  auto result = ParseContract("contract C {\n  uint256 x =\n}");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("line 3"), std::string::npos)
      << result.status().ToString();
}

// ------------------------------------------------------------------- Sema --

std::unique_ptr<ContractDecl> ParseOk(std::string_view src) {
  auto result = ParseContract(src);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? std::move(result).value() : nullptr;
}

TEST(SemaTest, AssignsStorageSlotsInOrder) {
  auto c = ParseOk(R"(
    contract C {
      uint256 a;
      address b;
      mapping(address => uint256) m;
      uint256 d;
    })");
  ASSERT_TRUE(AnalyzeContract(c.get()).ok());
  EXPECT_EQ(c->state_vars[0].slot, 0);
  EXPECT_EQ(c->state_vars[1].slot, 1);
  EXPECT_EQ(c->state_vars[2].slot, 2);
  EXPECT_EQ(c->state_vars[3].slot, 3);
}

TEST(SemaTest, AssignsParamAndLocalOffsets) {
  auto c = ParseOk(R"(
    contract C {
      function f(uint256 a, address b) public {
        uint256 x = a;
        uint256 y = x;
      }
    })");
  ASSERT_TRUE(AnalyzeContract(c.get()).ok());
  const auto& fn = *c->functions[0];
  EXPECT_EQ(fn.params[0].mem_offset, kLocalsBase);
  EXPECT_EQ(fn.params[1].mem_offset, kLocalsBase + 32);
  const auto& x = static_cast<const VarDeclStmt&>(*fn.body->stmts[0]);
  const auto& y = static_cast<const VarDeclStmt&>(*fn.body->stmts[1]);
  EXPECT_EQ(x.mem_offset, kLocalsBase + 64);
  EXPECT_EQ(y.mem_offset, kLocalsBase + 96);
}

TEST(SemaTest, ResolvesIdentifiers) {
  auto c = ParseOk(R"(
    contract C {
      uint256 s;
      function f(uint256 p) public {
        uint256 l = s + p;
      }
    })");
  ASSERT_TRUE(AnalyzeContract(c.get()).ok());
  const auto& decl =
      static_cast<const VarDeclStmt&>(*c->functions[0]->body->stmts[0]);
  const auto& add = static_cast<const BinaryExpr&>(*decl.init);
  const auto& s_ref = static_cast<const IdentExpr&>(*add.lhs);
  const auto& p_ref = static_cast<const IdentExpr&>(*add.rhs);
  EXPECT_EQ(s_ref.ref, RefKind::kStateVar);
  EXPECT_EQ(s_ref.slot, 0);
  EXPECT_EQ(p_ref.ref, RefKind::kParam);
}

TEST(SemaTest, RejectsUnknownIdentifier) {
  auto c = ParseOk("contract C { function f() public { x = 1; } }");
  EXPECT_FALSE(AnalyzeContract(c.get()).ok());
}

TEST(SemaTest, RejectsTypeMismatch) {
  auto c = ParseOk(R"(
    contract C {
      address a;
      function f() public { a = 5; }
    })");
  EXPECT_FALSE(AnalyzeContract(c.get()).ok());
}

TEST(SemaTest, RejectsNonBoolCondition) {
  auto c = ParseOk(R"(
    contract C {
      function f(uint256 n) public { if (n) { } }
    })");
  EXPECT_FALSE(AnalyzeContract(c.get()).ok());
}

TEST(SemaTest, RejectsArithmeticOnAddresses) {
  auto c = ParseOk(R"(
    contract C {
      function f(address a, address b) public {
        uint256 x = a + b;
      }
    })");
  EXPECT_FALSE(AnalyzeContract(c.get()).ok());
}

TEST(SemaTest, RejectsMappingKeyMismatch) {
  auto c = ParseOk(R"(
    contract C {
      mapping(address => uint256) m;
      function f(uint256 k) public { m[k] = 1; }
    })");
  EXPECT_FALSE(AnalyzeContract(c.get()).ok());
}

TEST(SemaTest, RejectsWholeMappingAssignment) {
  auto c = ParseOk(R"(
    contract C {
      mapping(address => uint256) m;
      mapping(address => uint256) n;
      function f() public { m = n; }
    })");
  EXPECT_FALSE(AnalyzeContract(c.get()).ok());
}

TEST(SemaTest, RejectsShadowing) {
  auto c = ParseOk(R"(
    contract C {
      uint256 x;
      function f() public { uint256 x = 1; }
    })");
  EXPECT_FALSE(AnalyzeContract(c.get()).ok());
}

TEST(SemaTest, RejectsDuplicateFunctions) {
  auto c = ParseOk(R"(
    contract C {
      function f() public {}
      function f() public {}
    })");
  EXPECT_FALSE(AnalyzeContract(c.get()).ok());
}

TEST(SemaTest, RejectsReturnValueInVoidFunction) {
  auto c = ParseOk("contract C { function f() public { return 5; } }");
  EXPECT_FALSE(AnalyzeContract(c.get()).ok());
}

TEST(SemaTest, AllowsEqualityOnAddressesAndBools) {
  auto c = ParseOk(R"(
    contract C {
      address owner;
      bool flag;
      function f() public {
        require(msg.sender == owner);
        require(flag == true);
      }
    })");
  EXPECT_TRUE(AnalyzeContract(c.get()).ok());
}

TEST(SemaTest, CompoundAssignRequiresUint) {
  auto c = ParseOk(R"(
    contract C {
      address a;
      function f(address b) public { a += b; }
    })");
  EXPECT_FALSE(AnalyzeContract(c.get()).ok());
}

TEST(SemaTest, MsgValueComparableToEtherLiterals) {
  auto c = ParseOk(R"(
    contract C {
      function f() public payable {
        require(msg.value == 88 finney);
      }
    })");
  EXPECT_TRUE(AnalyzeContract(c.get()).ok());
}

// --------------------------------------------------------- Nesting bound --

/// A one-function contract returning `expr`.
std::string ReturningExpr(const std::string& expr) {
  return "contract C { function f() public returns (uint256) { return " +
         expr + "; } }";
}

void ExpectNestingLimit(const std::string& source) {
  auto compiled = CompileContract(source);
  ASSERT_FALSE(compiled.ok());
  EXPECT_EQ(compiled.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(compiled.status().message().find(
                std::to_string(kMaxNestingDepth)),
            std::string::npos)
      << compiled.status().ToString();
}

TEST(NestingLimitTest, DeepParenthesesAreRejected) {
  // ~10 KB of source that used to overflow the stack in the parser.
  ExpectNestingLimit(
      ReturningExpr(std::string(5000, '(') + "1" + std::string(5000, ')')));
}

TEST(NestingLimitTest, LongBinaryChainIsRejected) {
  // The parser builds `1+1+...` in a loop; sema, codegen and the AST
  // destructor then recurse down its left spine.
  std::string chain = "1";
  for (int i = 1; i < 100000; ++i) chain += "+1";
  ExpectNestingLimit(ReturningExpr(chain));
}

TEST(NestingLimitTest, OtherDeepShapesAreRejected) {
  ExpectNestingLimit(ReturningExpr(std::string(5000, '!') + "true"));
  std::string negations;
  for (int i = 0; i < 5000; ++i) negations += "- ";  // "--" lexes as one token
  ExpectNestingLimit(ReturningExpr(negations + "1"));
  std::string blocks = std::string(5000, '{') + std::string(5000, '}');
  ExpectNestingLimit("contract C { function f() public " + blocks + " }");
  // Parenthesized chains nest chains: heights add up across levels.
  std::string nested = "1";
  for (int i = 0; i < 100; ++i) nested = "(" + nested + "+1+1+1)";
  ExpectNestingLimit(ReturningExpr(nested));
}

TEST(NestingLimitTest, NestingWithinTheLimitCompiles) {
  std::string chain = "1";
  for (int i = 1; i < 100; ++i) chain += "+1";
  EXPECT_TRUE(CompileContract(ReturningExpr(chain)).ok());
  EXPECT_TRUE(CompileContract(ReturningExpr(std::string(60, '(') + "1" +
                                            std::string(60, ')')))
                  .ok());
}

}  // namespace
}  // namespace mufuzz::lang
