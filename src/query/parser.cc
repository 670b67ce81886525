#include "src/query/parser.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <optional>
#include <set>
#include <vector>

namespace topodb {

namespace {

struct Token {
  enum class Kind {
    kIdent,
    kString,  // Quoted name constant; text holds the unescaped value.
    kLParen,
    kRParen,
    kComma,
    kDot,
    kEquals,
    kEnd
  };
  Kind kind;
  std::string text;
  size_t pos;
};

Result<std::vector<Token>> Lex(const std::string& text) {
  std::vector<Token> tokens;
  size_t i = 0;
  while (i < text.size()) {
    char c = text[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '(') {
      tokens.push_back({Token::Kind::kLParen, "(", i++});
    } else if (c == ')') {
      tokens.push_back({Token::Kind::kRParen, ")", i++});
    } else if (c == ',') {
      tokens.push_back({Token::Kind::kComma, ",", i++});
    } else if (c == '.') {
      tokens.push_back({Token::Kind::kDot, ".", i++});
    } else if (c == '=') {
      tokens.push_back({Token::Kind::kEquals, "=", i++});
    } else if (c == '"') {
      // Quoted name constant: any region name ValidateRegionName accepts
      // ('1a', 'main street', 'cell', ...), with \" and \\ escapes.
      const size_t start = i++;
      std::string value;
      bool closed = false;
      while (i < text.size()) {
        const char q = text[i];
        if (q == '"') {
          ++i;
          closed = true;
          break;
        }
        if (q == '\\') {
          if (i + 1 >= text.size()) break;
          const char esc = text[i + 1];
          if (esc != '"' && esc != '\\') {
            return Status::ParseError(
                "unknown escape '\\" + std::string(1, esc) +
                "' in quoted name at position " + std::to_string(i) +
                " (only \\\" and \\\\ are recognized)");
          }
          value.push_back(esc);
          i += 2;
          continue;
        }
        value.push_back(q);
        ++i;
      }
      if (!closed) {
        return Status::ParseError("unterminated quoted name at position " +
                                  std::to_string(start));
      }
      tokens.push_back({Token::Kind::kString, std::move(value), start});
    } else if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = i;
      while (i < text.size() &&
             (std::isalnum(static_cast<unsigned char>(text[i])) ||
              text[i] == '_')) {
        ++i;
      }
      tokens.push_back(
          {Token::Kind::kIdent, text.substr(start, i - start), start});
    } else {
      return Status::ParseError("unexpected character '" +
                                std::string(1, c) + "' at position " +
                                std::to_string(i));
    }
  }
  tokens.push_back({Token::Kind::kEnd, "", text.size()});
  return tokens;
}

const std::map<std::string, Predicate>& PredicateTable() {
  static const auto* table = new std::map<std::string, Predicate>{
      {"connect", Predicate::kConnect},
      {"disjoint", Predicate::kDisjoint},
      {"intersects", Predicate::kIntersects},
      {"subset", Predicate::kSubset},
      {"boundarypart", Predicate::kBoundaryPart},
      {"overlap", Predicate::kOverlap},
      {"overlaps", Predicate::kOverlap},
      {"meet", Predicate::kMeet},
      {"meets", Predicate::kMeet},
      {"equal", Predicate::kEqual},
      {"inside", Predicate::kInside},
      {"contains", Predicate::kContains},
      {"covers", Predicate::kCovers},
      {"coveredBy", Predicate::kCoveredBy},
      {"coveredby", Predicate::kCoveredBy},
  };
  return *table;
}

bool IsKeyword(const std::string& s) { return IsQueryKeyword(s); }

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<FormulaPtr> Parse() {
    TOPODB_ASSIGN_OR_RETURN(Node node, ParseIff());
    if (Peek().kind != Token::Kind::kEnd) {
      return Err("unexpected trailing input");
    }
    return std::move(node.formula);
  }

 private:
  // A parsed subformula and the depth of its tree (a leaf is 1). Depth is
  // tracked as the tree is built so an over-deep query is refused before
  // it exists: every AST walker, and the shared_ptr destructor chain,
  // recurses once per level.
  struct Node {
    FormulaPtr formula;
    int depth = 1;
  };

  // Counts one level of parser recursion for as long as it is alive.
  class NestingGuard {
   public:
    explicit NestingGuard(int* nesting) : nesting_(nesting) { ++*nesting_; }
    ~NestingGuard() { --*nesting_; }
    NestingGuard(const NestingGuard&) = delete;
    NestingGuard& operator=(const NestingGuard&) = delete;

   private:
    int* nesting_;
  };

  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Next() { return tokens_[pos_++]; }
  bool ConsumeIdent(const std::string& word) {
    if (Peek().kind == Token::Kind::kIdent && Peek().text == word) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status Err(const std::string& message) const {
    return Status::ParseError(message + " at position " +
                              std::to_string(Peek().pos));
  }
  Status TooDeep() const {
    return Status::InvalidArgument(
        "query nests deeper than the limit of " +
        std::to_string(kMaxQueryDepth) + " at position " +
        std::to_string(Peek().pos));
  }
  // A prefix construct ('not', a quantifier, the right operand of
  // 'implies') puts one tree level above what follows it, so it is
  // refused before the parser descends, keeping the recursion bounded
  // too. Parentheses add no tree level but do recurse; they are bounded
  // separately. ToString of any tree within the limit nests at most one
  // '(' per level, so it always reparses.
  Status EnterPrefix() const {
    return prefix_levels_ >= kMaxQueryDepth ? TooDeep() : Status::OK();
  }
  Status EnterParen() const {
    return parens_ > kMaxQueryDepth ? TooDeep() : Status::OK();
  }
  // Wraps a new node over children of the given depths.
  Result<Node> Build(FormulaPtr formula, int child_depth) const {
    if (child_depth + 1 > kMaxQueryDepth) return TooDeep();
    return Node{std::move(formula), child_depth + 1};
  }

  Result<Node> ParseIff() {
    TOPODB_ASSIGN_OR_RETURN(Node left, ParseImplies());
    while (ConsumeIdent("iff")) {
      TOPODB_ASSIGN_OR_RETURN(Node right, ParseImplies());
      auto f = std::make_shared<Formula>();
      f->kind = Formula::Kind::kIff;
      f->left = std::move(left.formula);
      f->right = std::move(right.formula);
      TOPODB_ASSIGN_OR_RETURN(left, Build(f, std::max(left.depth,
                                                      right.depth)));
    }
    return left;
  }

  Result<Node> ParseImplies() {
    TOPODB_ASSIGN_OR_RETURN(Node left, ParseOr());
    if (ConsumeIdent("implies")) {
      NestingGuard guard(&prefix_levels_);
      TOPODB_RETURN_NOT_OK(EnterPrefix());
      TOPODB_ASSIGN_OR_RETURN(Node right, ParseImplies());
      return Build(MakeImplies(std::move(left.formula),
                               std::move(right.formula)),
                   std::max(left.depth, right.depth));
    }
    return left;
  }

  Result<Node> ParseOr() {
    TOPODB_ASSIGN_OR_RETURN(Node left, ParseAnd());
    while (ConsumeIdent("or")) {
      TOPODB_ASSIGN_OR_RETURN(Node right, ParseAnd());
      TOPODB_ASSIGN_OR_RETURN(
          left, Build(MakeOr(std::move(left.formula), std::move(right.formula)),
                      std::max(left.depth, right.depth)));
    }
    return left;
  }

  Result<Node> ParseAnd() {
    TOPODB_ASSIGN_OR_RETURN(Node left, ParseUnary());
    while (ConsumeIdent("and")) {
      TOPODB_ASSIGN_OR_RETURN(Node right, ParseUnary());
      TOPODB_ASSIGN_OR_RETURN(
          left,
          Build(MakeAnd(std::move(left.formula), std::move(right.formula)),
                std::max(left.depth, right.depth)));
    }
    return left;
  }

  Result<Node> ParseUnary() {
    if (ConsumeIdent("not")) {
      NestingGuard guard(&prefix_levels_);
      TOPODB_RETURN_NOT_OK(EnterPrefix());
      TOPODB_ASSIGN_OR_RETURN(Node inner, ParseUnary());
      return Build(MakeNot(std::move(inner.formula)), inner.depth);
    }
    if (Peek().kind == Token::Kind::kIdent &&
        (Peek().text == "exists" || Peek().text == "forall")) {
      return ParseQuantifier();
    }
    return ParsePrimary();
  }

  Result<Node> ParseQuantifier() {
    const bool exists = Next().text == "exists";
    Formula::VarKind var_kind;
    if (ConsumeIdent("region")) {
      var_kind = Formula::VarKind::kRegion;
    } else if (ConsumeIdent("cell")) {
      var_kind = Formula::VarKind::kCell;
    } else if (ConsumeIdent("name")) {
      var_kind = Formula::VarKind::kName;
    } else if (ConsumeIdent("rect")) {
      var_kind = Formula::VarKind::kRect;
    } else {
      return Err("expected 'region', 'cell', 'rect' or 'name' after "
                 "quantifier");
    }
    if (Peek().kind != Token::Kind::kIdent || IsKeyword(Peek().text)) {
      return Err("expected variable name");
    }
    std::string var = Next().text;
    if (bound_.count(var)) {
      return Err("variable '" + var + "' already bound");
    }
    if (Peek().kind != Token::Kind::kDot) {
      return Err("expected '.' after quantified variable");
    }
    Next();
    NestingGuard guard(&prefix_levels_);
    TOPODB_RETURN_NOT_OK(EnterPrefix());
    bound_.insert(var);
    // The body extends as far right as possible.
    Result<Node> body = ParseIff();
    bound_.erase(var);
    TOPODB_ASSIGN_OR_RETURN(Node b, std::move(body));
    return Build(
        MakeQuantifier(exists ? Formula::Kind::kExists : Formula::Kind::kForall,
                       var_kind, std::move(var), std::move(b.formula)),
        b.depth);
  }

  Result<Node> ParsePrimary() {
    if (Peek().kind == Token::Kind::kLParen) {
      Next();
      NestingGuard guard(&parens_);
      TOPODB_RETURN_NOT_OK(EnterParen());
      TOPODB_ASSIGN_OR_RETURN(Node inner, ParseIff());
      if (Peek().kind != Token::Kind::kRParen) return Err("expected ')'");
      Next();
      return inner;
    }
    // A quoted term can only start a name-equality atom ("1a" = b):
    // predicate names are identifiers, and a quoted term is always a
    // name constant. Without this branch, every NameEq whose left
    // operand needs quoting would render (ToString) but not reparse.
    if (Peek().kind == Token::Kind::kString) {
      TOPODB_ASSIGN_OR_RETURN(Term lhs, ParseTerm());
      if (Peek().kind != Token::Kind::kEquals) {
        return Err("expected '=' after quoted term");
      }
      Next();
      TOPODB_ASSIGN_OR_RETURN(Term rhs, ParseTerm());
      return Node{MakeNameEq(std::move(lhs), std::move(rhs))};
    }
    if (Peek().kind != Token::Kind::kIdent) return Err("expected formula");
    if (ConsumeIdent("true")) {
      auto f = std::make_shared<Formula>();
      f->kind = Formula::Kind::kTrue;
      return Node{f};
    }
    if (ConsumeIdent("false")) {
      auto f = std::make_shared<Formula>();
      f->kind = Formula::Kind::kFalse;
      return Node{f};
    }
    // Predicate atom?
    auto pred_it = PredicateTable().find(Peek().text);
    if (pred_it != PredicateTable().end()) {
      Next();
      if (Peek().kind != Token::Kind::kLParen) {
        return Err("expected '(' after predicate");
      }
      Next();
      TOPODB_ASSIGN_OR_RETURN(Term lhs, ParseTerm());
      if (Peek().kind != Token::Kind::kComma) return Err("expected ','");
      Next();
      TOPODB_ASSIGN_OR_RETURN(Term rhs, ParseTerm());
      if (Peek().kind != Token::Kind::kRParen) return Err("expected ')'");
      Next();
      return Node{MakeAtom(pred_it->second, std::move(lhs), std::move(rhs))};
    }
    // Name equality atom: term = term.
    TOPODB_ASSIGN_OR_RETURN(Term lhs, ParseTerm());
    if (Peek().kind != Token::Kind::kEquals) {
      return Err("expected predicate or '='");
    }
    Next();
    TOPODB_ASSIGN_OR_RETURN(Term rhs, ParseTerm());
    return Node{MakeNameEq(std::move(lhs), std::move(rhs))};
  }

  Result<Term> ParseTerm() {
    // A quoted term is always a name constant, never a variable — so
    // regions named like keywords ("cell") or non-identifiers ("1a",
    // "main street") are referenceable.
    if (Peek().kind == Token::Kind::kString) {
      return NameConstant(Next().text);
    }
    if (Peek().kind != Token::Kind::kIdent || IsKeyword(Peek().text)) {
      return Err("expected term");
    }
    std::string name = Next().text;
    return bound_.count(name) ? Var(std::move(name))
                              : NameConstant(std::move(name));
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int prefix_levels_ = 0;
  int parens_ = 0;
  std::set<std::string> bound_;
};

}  // namespace

bool IsQueryKeyword(const std::string& word) {
  static const std::set<std::string>* keywords = new std::set<std::string>{
      "exists", "forall", "and", "or", "not", "implies", "iff",
      "true", "false", "region", "cell", "name", "rect"};
  return keywords->count(word) > 0 || PredicateTable().count(word) > 0;
}

bool IsPlainQueryIdentifier(const std::string& word) {
  if (word.empty() || IsQueryKeyword(word)) return false;
  if (!std::isalpha(static_cast<unsigned char>(word[0])) && word[0] != '_') {
    return false;
  }
  for (char c : word) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') {
      return false;
    }
  }
  return true;
}

std::string QuoteQueryName(const std::string& name) {
  std::string out = "\"";
  for (char c : name) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

Result<FormulaPtr> ParseQuery(const std::string& text) {
  TOPODB_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(text));
  Parser parser(std::move(tokens));
  return parser.Parse();
}

}  // namespace topodb
