#include "lang/lexer.h"

#include <unordered_map>

namespace mufuzz::lang {

namespace {

const std::unordered_map<std::string_view, TokenKind>& KeywordTable() {
  static const auto* table = new std::unordered_map<std::string_view,
                                                    TokenKind>{
      {"contract", TokenKind::kContract},
      {"function", TokenKind::kFunction},
      {"constructor", TokenKind::kConstructor},
      {"if", TokenKind::kIf},
      {"else", TokenKind::kElse},
      {"while", TokenKind::kWhile},
      {"for", TokenKind::kFor},
      {"return", TokenKind::kReturn},
      {"returns", TokenKind::kReturns},
      {"require", TokenKind::kRequire},
      {"true", TokenKind::kTrue},
      {"false", TokenKind::kFalse},
      {"mapping", TokenKind::kMapping},
      {"uint256", TokenKind::kUint256},
      {"uint", TokenKind::kUint256},  // alias
      {"bool", TokenKind::kBool},
      {"address", TokenKind::kAddress},
      {"public", TokenKind::kPublic},
      {"payable", TokenKind::kPayable},
      {"view", TokenKind::kView},
      {"external", TokenKind::kExternal},
      {"internal", TokenKind::kInternal},
      {"private", TokenKind::kPrivate},
      {"msg", TokenKind::kMsg},
      {"block", TokenKind::kBlock},
      {"tx", TokenKind::kTx},
      {"this", TokenKind::kThis},
      {"now", TokenKind::kNow},
      {"selfdestruct", TokenKind::kSelfdestruct},
      {"keccak256", TokenKind::kKeccak256},
      {"abi", TokenKind::kAbi},
      {"wei", TokenKind::kWei},
      {"finney", TokenKind::kFinney},
      {"ether", TokenKind::kEther},
  };
  return *table;
}

// ASCII classes: the <cctype> ones in the "C" locale, without a locale
// lookup per character.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
bool IsDigit(char c) { return c >= '0' && c <= '9'; }
bool IsAlpha(char c) { return (c | 0x20) >= 'a' && (c | 0x20) <= 'z'; }
bool IsIdentChar(char c) { return IsAlpha(c) || IsDigit(c) || c == '_'; }
bool IsHexDigit(char c) {
  return IsDigit(c) || ((c | 0x20) >= 'a' && (c | 0x20) <= 'f');
}

}  // namespace

const char* TokenKindName(TokenKind kind) {
  switch (kind) {
    case TokenKind::kEof: return "<eof>";
    case TokenKind::kIdent: return "identifier";
    case TokenKind::kNumber: return "number";
    case TokenKind::kString: return "string";
    case TokenKind::kContract: return "'contract'";
    case TokenKind::kFunction: return "'function'";
    case TokenKind::kConstructor: return "'constructor'";
    case TokenKind::kIf: return "'if'";
    case TokenKind::kElse: return "'else'";
    case TokenKind::kWhile: return "'while'";
    case TokenKind::kFor: return "'for'";
    case TokenKind::kReturn: return "'return'";
    case TokenKind::kReturns: return "'returns'";
    case TokenKind::kRequire: return "'require'";
    case TokenKind::kTrue: return "'true'";
    case TokenKind::kFalse: return "'false'";
    case TokenKind::kMapping: return "'mapping'";
    case TokenKind::kUint256: return "'uint256'";
    case TokenKind::kBool: return "'bool'";
    case TokenKind::kAddress: return "'address'";
    case TokenKind::kPublic: return "'public'";
    case TokenKind::kPayable: return "'payable'";
    case TokenKind::kView: return "'view'";
    case TokenKind::kExternal: return "'external'";
    case TokenKind::kInternal: return "'internal'";
    case TokenKind::kPrivate: return "'private'";
    case TokenKind::kMsg: return "'msg'";
    case TokenKind::kBlock: return "'block'";
    case TokenKind::kTx: return "'tx'";
    case TokenKind::kThis: return "'this'";
    case TokenKind::kNow: return "'now'";
    case TokenKind::kSelfdestruct: return "'selfdestruct'";
    case TokenKind::kKeccak256: return "'keccak256'";
    case TokenKind::kAbi: return "'abi'";
    case TokenKind::kWei: return "'wei'";
    case TokenKind::kFinney: return "'finney'";
    case TokenKind::kEther: return "'ether'";
    case TokenKind::kLBrace: return "'{'";
    case TokenKind::kRBrace: return "'}'";
    case TokenKind::kLParen: return "'('";
    case TokenKind::kRParen: return "')'";
    case TokenKind::kLBracket: return "'['";
    case TokenKind::kRBracket: return "']'";
    case TokenKind::kSemicolon: return "';'";
    case TokenKind::kComma: return "','";
    case TokenKind::kDot: return "'.'";
    case TokenKind::kArrow: return "'=>'";
    case TokenKind::kAssign: return "'='";
    case TokenKind::kPlusAssign: return "'+='";
    case TokenKind::kMinusAssign: return "'-='";
    case TokenKind::kStarAssign: return "'*='";
    case TokenKind::kPlus: return "'+'";
    case TokenKind::kMinus: return "'-'";
    case TokenKind::kStar: return "'*'";
    case TokenKind::kSlash: return "'/'";
    case TokenKind::kPercent: return "'%'";
    case TokenKind::kLt: return "'<'";
    case TokenKind::kGt: return "'>'";
    case TokenKind::kLe: return "'<='";
    case TokenKind::kGe: return "'>='";
    case TokenKind::kEq: return "'=='";
    case TokenKind::kNe: return "'!='";
    case TokenKind::kAndAnd: return "'&&'";
    case TokenKind::kOrOr: return "'||'";
    case TokenKind::kBang: return "'!'";
    case TokenKind::kPlusPlus: return "'++'";
    case TokenKind::kMinusMinus: return "'--'";
  }
  return "<unknown>";
}

Result<std::vector<Token>> Tokenize(std::string_view source) {
  std::vector<Token> tokens;
  // MiniSol averages well over four source bytes per token.
  tokens.reserve(source.size() / 4 + 1);
  size_t i = 0;
  int line = 1;
  int column = 1;

  auto advance = [&](size_t n = 1) {
    for (size_t k = 0; k < n && i < source.size(); ++k) {
      if (source[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
      ++i;
    }
  };
  /// Skips `n` characters known to hold no newline.
  auto skip = [&](size_t n) {
    i += n;
    column += static_cast<int>(n);
  };
  auto peek = [&](size_t off = 0) -> char {
    return (i + off < source.size()) ? source[i + off] : '\0';
  };
  auto push = [&](TokenKind kind, std::string_view text, int tok_line,
                  int tok_col) {
    tokens.push_back({kind, text, tok_line, tok_col});
  };

  while (i < source.size()) {
    char c = peek();
    // Whitespace.
    if (IsSpace(c)) {
      advance();
      continue;
    }
    // Comments.
    if (c == '/' && peek(1) == '/') {
      while (i < source.size() && peek() != '\n') skip(1);
      continue;
    }
    if (c == '/' && peek(1) == '*') {
      skip(2);
      while (i < source.size() && !(peek() == '*' && peek(1) == '/')) {
        advance();
      }
      if (i >= source.size()) {
        return Status::ParseError("unterminated block comment at line " +
                                  std::to_string(line));
      }
      skip(2);
      continue;
    }

    int tok_line = line;
    int tok_col = column;
    size_t start = i;

    // Identifiers & keywords.
    if (IsAlpha(c) || c == '_') {
      while (i < source.size() && IsIdentChar(source[i])) skip(1);
      std::string_view word = source.substr(start, i - start);
      auto it = KeywordTable().find(word);
      push(it != KeywordTable().end() ? it->second : TokenKind::kIdent, word,
           tok_line, tok_col);
      continue;
    }

    // Numbers (decimal or 0x-hex).
    if (IsDigit(c)) {
      if (c == '0' && (peek(1) == 'x' || peek(1) == 'X')) {
        skip(2);
        while (i < source.size() && IsHexDigit(source[i])) skip(1);
      } else {
        while (i < source.size() && IsDigit(source[i])) skip(1);
      }
      push(TokenKind::kNumber, source.substr(start, i - start), tok_line,
           tok_col);
      continue;
    }

    // Strings (require messages — content kept but unused downstream).
    if (c == '"') {
      skip(1);
      start = i;
      while (i < source.size() && peek() != '"' && peek() != '\n') skip(1);
      if (peek() != '"') {
        return Status::ParseError("unterminated string at line " +
                                  std::to_string(tok_line));
      }
      push(TokenKind::kString, source.substr(start, i - start), tok_line,
           tok_col);
      skip(1);
      continue;
    }

    // Operators / punctuation.
    TokenKind kind;
    size_t width = 2;
    const char next = peek(1);
    if (c == '=' && next == '>') kind = TokenKind::kArrow;
    else if (c == '=' && next == '=') kind = TokenKind::kEq;
    else if (c == '!' && next == '=') kind = TokenKind::kNe;
    else if (c == '<' && next == '=') kind = TokenKind::kLe;
    else if (c == '>' && next == '=') kind = TokenKind::kGe;
    else if (c == '&' && next == '&') kind = TokenKind::kAndAnd;
    else if (c == '|' && next == '|') kind = TokenKind::kOrOr;
    else if (c == '+' && next == '=') kind = TokenKind::kPlusAssign;
    else if (c == '-' && next == '=') kind = TokenKind::kMinusAssign;
    else if (c == '*' && next == '=') kind = TokenKind::kStarAssign;
    else if (c == '+' && next == '+') kind = TokenKind::kPlusPlus;
    else if (c == '-' && next == '-') kind = TokenKind::kMinusMinus;
    else {
      width = 1;
      switch (c) {
        case '{': kind = TokenKind::kLBrace; break;
        case '}': kind = TokenKind::kRBrace; break;
        case '(': kind = TokenKind::kLParen; break;
        case ')': kind = TokenKind::kRParen; break;
        case '[': kind = TokenKind::kLBracket; break;
        case ']': kind = TokenKind::kRBracket; break;
        case ';': kind = TokenKind::kSemicolon; break;
        case ',': kind = TokenKind::kComma; break;
        case '.': kind = TokenKind::kDot; break;
        case '=': kind = TokenKind::kAssign; break;
        case '+': kind = TokenKind::kPlus; break;
        case '-': kind = TokenKind::kMinus; break;
        case '*': kind = TokenKind::kStar; break;
        case '/': kind = TokenKind::kSlash; break;
        case '%': kind = TokenKind::kPercent; break;
        case '<': kind = TokenKind::kLt; break;
        case '>': kind = TokenKind::kGt; break;
        case '!': kind = TokenKind::kBang; break;
        default:
          return Status::ParseError("unexpected character '" +
                                    std::string(1, c) + "' at line " +
                                    std::to_string(tok_line));
      }
    }
    push(kind, source.substr(start, width), tok_line, tok_col);
    skip(width);
  }

  push(TokenKind::kEof, source.substr(source.size()), line, column);
  return tokens;
}

}  // namespace mufuzz::lang
