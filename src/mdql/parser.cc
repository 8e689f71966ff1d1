#include "mdql/parser.h"

#include <cctype>
#include <cmath>

#include "common/strings.h"
#include "mdql/token.h"

namespace mddc {
namespace mdql {
namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Statement> ParseStatement() {
    Statement statement;
    statement.explain = Accept(TokenKind::kExplain);
    if (Peek().kind == TokenKind::kSelect) {
      MDDC_ASSIGN_OR_RETURN(statement.select, ParseSelect());
    } else if (Peek().kind == TokenKind::kShow) {
      MDDC_ASSIGN_OR_RETURN(statement.show, ParseShow());
    } else if (Peek().kind == TokenKind::kInsert) {
      MDDC_ASSIGN_OR_RETURN(statement.insert, ParseInsert());
    } else if (Peek().kind == TokenKind::kDelete) {
      MDDC_ASSIGN_OR_RETURN(statement.del, ParseDelete());
    } else {
      return Unexpected(statement.explain
                            ? "SELECT, SHOW, INSERT or DELETE"
                            : "EXPLAIN, SELECT, SHOW, INSERT or DELETE");
    }
    if (Peek().kind != TokenKind::kEnd) {
      return Unexpected("end of query");
    }
    return statement;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Advance() { return tokens_[pos_++]; }

  bool Accept(TokenKind kind) {
    if (Peek().kind != kind) return false;
    ++pos_;
    return true;
  }

  Status Expect(TokenKind kind) {
    if (!Accept(kind)) {
      return Status::InvalidArgument(
          StrCat("expected ", TokenKindName(kind), " but found ",
                 TokenKindName(Peek().kind), " at offset ", Peek().offset));
    }
    return Status::OK();
  }

  Status Unexpected(const std::string& expected) {
    return Status::InvalidArgument(
        StrCat("expected ", expected, " but found ",
               TokenKindName(Peek().kind), " at offset ", Peek().offset));
  }

  Result<std::string> ExpectIdentifier() {
    if (Peek().kind != TokenKind::kIdentifier) {
      MDDC_RETURN_NOT_OK(Unexpected("an identifier"));
    }
    return Advance().text;
  }

  /// An identifier interned once, here at parse time — every later layer
  /// (compiler, binder, catalog) passes the 4-byte handle around.
  Result<Name> ExpectName() {
    if (Peek().kind != TokenKind::kIdentifier) {
      MDDC_RETURN_NOT_OK(Unexpected("an identifier"));
    }
    return Name::Of(Advance().text);
  }

  Result<LevelRef> ParseLevelRef() {
    LevelRef level;
    MDDC_ASSIGN_OR_RETURN(level.dimension, ExpectName());
    MDDC_RETURN_NOT_OK(Expect(TokenKind::kDot));
    MDDC_ASSIGN_OR_RETURN(level.category, ExpectName());
    return level;
  }

  Result<AggRef> ParseAgg() {
    AggRef agg;
    if (Accept(TokenKind::kCount)) {
      if (Accept(TokenKind::kLParen)) {
        agg.fn = AggRef::Fn::kCount;
        MDDC_ASSIGN_OR_RETURN(agg.dimension, ExpectName());
        MDDC_RETURN_NOT_OK(Expect(TokenKind::kRParen));
        agg.label = StrCat("COUNT(", agg.dimension, ")");
      } else {
        agg.fn = AggRef::Fn::kSetCount;
        agg.label = "COUNT";
      }
      return agg;
    }
    MDDC_ASSIGN_OR_RETURN(std::string fn, ExpectIdentifier());
    std::string upper = fn;
    for (char& c : upper) c = static_cast<char>(std::toupper(c));
    if (upper == "SUM") {
      agg.fn = AggRef::Fn::kSum;
    } else if (upper == "AVG") {
      agg.fn = AggRef::Fn::kAvg;
    } else if (upper == "MIN") {
      agg.fn = AggRef::Fn::kMin;
    } else if (upper == "MAX") {
      agg.fn = AggRef::Fn::kMax;
    } else {
      return Status::InvalidArgument(
          StrCat("unknown aggregate function '", fn, "'"));
    }
    MDDC_RETURN_NOT_OK(Expect(TokenKind::kLParen));
    MDDC_ASSIGN_OR_RETURN(agg.dimension, ExpectName());
    MDDC_RETURN_NOT_OK(Expect(TokenKind::kRParen));
    agg.label = StrCat(upper, "(", agg.dimension, ")");
    return agg;
  }

  Result<WhereAtom> ParseAtom() {
    WhereAtom atom;
    if (Accept(TokenKind::kProb)) {
      atom.kind = WhereAtom::Kind::kProbAtLeast;
      MDDC_RETURN_NOT_OK(Expect(TokenKind::kLParen));
      MDDC_ASSIGN_OR_RETURN(atom.level, ParseLevelRef());
      MDDC_RETURN_NOT_OK(Expect(TokenKind::kEq));
      if (Peek().kind != TokenKind::kString) {
        MDDC_RETURN_NOT_OK(Unexpected("a string literal"));
      }
      atom.text = Advance().text;
      MDDC_RETURN_NOT_OK(Expect(TokenKind::kRParen));
      MDDC_RETURN_NOT_OK(Expect(TokenKind::kGe));
      if (Peek().kind != TokenKind::kNumber) {
        MDDC_RETURN_NOT_OK(Unexpected("a probability"));
      }
      atom.number = Advance().number;
      return atom;
    }
    atom.negated = Accept(TokenKind::kNot);
    MDDC_ASSIGN_OR_RETURN(Name first, ExpectName());
    if (Accept(TokenKind::kDot)) {
      atom.kind = WhereAtom::Kind::kNameEquals;
      atom.level.dimension = first;
      MDDC_ASSIGN_OR_RETURN(atom.level.category, ExpectName());
      MDDC_RETURN_NOT_OK(Expect(TokenKind::kEq));
      if (Peek().kind != TokenKind::kString) {
        MDDC_RETURN_NOT_OK(Unexpected("a string literal"));
      }
      atom.text = Advance().text;
      return atom;
    }
    atom.kind = WhereAtom::Kind::kNumericCompare;
    atom.dimension = first;
    switch (Peek().kind) {
      case TokenKind::kEq:
        atom.cmp = WhereAtom::Cmp::kEq;
        break;
      case TokenKind::kNe:
        atom.cmp = WhereAtom::Cmp::kNe;
        break;
      case TokenKind::kLt:
        atom.cmp = WhereAtom::Cmp::kLt;
        break;
      case TokenKind::kLe:
        atom.cmp = WhereAtom::Cmp::kLe;
        break;
      case TokenKind::kGt:
        atom.cmp = WhereAtom::Cmp::kGt;
        break;
      case TokenKind::kGe:
        atom.cmp = WhereAtom::Cmp::kGe;
        break;
      default:
        MDDC_RETURN_NOT_OK(Unexpected("a comparison operator"));
    }
    Advance();
    if (Peek().kind != TokenKind::kNumber) {
      MDDC_RETURN_NOT_OK(Unexpected("a number"));
    }
    atom.number = Advance().number;
    return atom;
  }

  // where := and_expr (OR and_expr)* ; and_expr := primary (AND primary)* ;
  // primary := '(' where ')' | atom. OR binds looser than AND.
  Result<std::shared_ptr<const WhereExpr>> ParseWherePrimary() {
    // Atoms never start with '(' (PROB consumes its own parentheses), so
    // a leading '(' unambiguously opens a grouped expression.
    if (Peek().kind == TokenKind::kLParen) {
      if (where_depth_ == kMaxWhereNesting) {
        return Status::InvalidArgument(
            StrCat("WHERE nests parentheses deeper than ", kMaxWhereNesting,
                   " levels at offset ", Peek().offset));
      }
      Advance();
      ++where_depth_;
      MDDC_ASSIGN_OR_RETURN(auto inner, ParseWhereExpr());
      MDDC_RETURN_NOT_OK(Expect(TokenKind::kRParen));
      --where_depth_;
      return inner;
    }
    MDDC_ASSIGN_OR_RETURN(WhereAtom atom, ParseAtom());
    auto node = std::make_shared<WhereExpr>();
    node->kind = WhereExpr::Kind::kAtom;
    node->atom = std::move(atom);
    return std::shared_ptr<const WhereExpr>(node);
  }

  Result<std::shared_ptr<const WhereExpr>> ParseWhereAnd() {
    MDDC_ASSIGN_OR_RETURN(auto left, ParseWherePrimary());
    while (Accept(TokenKind::kAnd)) {
      MDDC_ASSIGN_OR_RETURN(auto right, ParseWherePrimary());
      auto node = std::make_shared<WhereExpr>();
      node->kind = WhereExpr::Kind::kAnd;
      node->left = left;
      node->right = right;
      left = node;
    }
    return left;
  }

  Result<std::shared_ptr<const WhereExpr>> ParseWhereExpr() {
    MDDC_ASSIGN_OR_RETURN(auto left, ParseWhereAnd());
    while (Accept(TokenKind::kOr)) {
      MDDC_ASSIGN_OR_RETURN(auto right, ParseWhereAnd());
      auto node = std::make_shared<WhereExpr>();
      node->kind = WhereExpr::Kind::kOr;
      node->left = left;
      node->right = right;
      left = node;
    }
    return left;
  }

  Result<SelectStatement> ParseSelect() {
    MDDC_RETURN_NOT_OK(Expect(TokenKind::kSelect));
    SelectStatement select;
    do {
      MDDC_ASSIGN_OR_RETURN(AggRef agg, ParseAgg());
      select.aggregates.push_back(std::move(agg));
    } while (Accept(TokenKind::kComma));
    MDDC_RETURN_NOT_OK(Expect(TokenKind::kFrom));
    MDDC_ASSIGN_OR_RETURN(select.mo_name, ExpectName());
    if (Accept(TokenKind::kBy)) {
      do {
        GroupRef group;
        MDDC_ASSIGN_OR_RETURN(group.level, ParseLevelRef());
        if (Accept(TokenKind::kAs)) {
          MDDC_ASSIGN_OR_RETURN(group.representation, ExpectName());
        }
        select.group_by.push_back(std::move(group));
      } while (Accept(TokenKind::kComma));
    }
    if (Accept(TokenKind::kWhere)) {
      MDDC_ASSIGN_OR_RETURN(select.where, ParseWhereExpr());
    }
    if (Accept(TokenKind::kAsOf)) {
      if (Peek().kind != TokenKind::kString) {
        MDDC_RETURN_NOT_OK(Unexpected("a date literal"));
      }
      select.as_of = Advance().text;
    }
    return select;
  }

  Result<std::uint64_t> ParseFactKey() {
    MDDC_RETURN_NOT_OK(Expect(TokenKind::kFact));
    if (Peek().kind != TokenKind::kNumber) {
      MDDC_RETURN_NOT_OK(Unexpected("a numeric fact key"));
    }
    const double key = Advance().number;
    if (key < 0.0 || key != std::floor(key)) {
      return Status::InvalidArgument(
          StrCat("fact key must be a non-negative integer, got ", key));
    }
    return static_cast<std::uint64_t>(key);
  }

  // insert := INSERT INTO mo fact (',' fact)* ;
  // fact   := FACT key '(' assignment (',' assignment)* ')'.
  // The comma both separates assignments (inside the parentheses) and
  // FACT groups (outside) — the closing ')' disambiguates.
  Result<InsertStatement> ParseInsert() {
    MDDC_RETURN_NOT_OK(Expect(TokenKind::kInsert));
    MDDC_RETURN_NOT_OK(Expect(TokenKind::kInto));
    InsertStatement insert;
    MDDC_ASSIGN_OR_RETURN(insert.mo_name, ExpectName());
    do {
      InsertFact fact;
      MDDC_ASSIGN_OR_RETURN(fact.key, ParseFactKey());
      MDDC_RETURN_NOT_OK(Expect(TokenKind::kLParen));
      do {
        InsertAssignment assign;
        MDDC_ASSIGN_OR_RETURN(assign.level, ParseLevelRef());
        MDDC_RETURN_NOT_OK(Expect(TokenKind::kEq));
        if (Peek().kind != TokenKind::kString) {
          MDDC_RETURN_NOT_OK(Unexpected("a quoted value name"));
        }
        assign.text = Advance().text;
        if (Accept(TokenKind::kProb)) {
          if (Peek().kind != TokenKind::kNumber) {
            MDDC_RETURN_NOT_OK(Unexpected("a probability"));
          }
          assign.prob = Advance().number;
        }
        fact.assignments.push_back(std::move(assign));
      } while (Accept(TokenKind::kComma));
      MDDC_RETURN_NOT_OK(Expect(TokenKind::kRParen));
      insert.facts.push_back(std::move(fact));
    } while (Accept(TokenKind::kComma));
    return insert;
  }

  Result<DeleteStatement> ParseDelete() {
    MDDC_RETURN_NOT_OK(Expect(TokenKind::kDelete));
    MDDC_RETURN_NOT_OK(Expect(TokenKind::kFrom));
    DeleteStatement del;
    MDDC_ASSIGN_OR_RETURN(del.mo_name, ExpectName());
    MDDC_ASSIGN_OR_RETURN(del.key, ParseFactKey());
    return del;
  }

  Result<ShowStatement> ParseShow() {
    MDDC_RETURN_NOT_OK(Expect(TokenKind::kShow));
    ShowStatement show;
    if (Accept(TokenKind::kDimensions)) {
      show.what = ShowStatement::What::kDimensions;
    } else if (Accept(TokenKind::kHierarchy)) {
      show.what = ShowStatement::What::kHierarchy;
      MDDC_ASSIGN_OR_RETURN(show.dimension, ExpectName());
    } else if (Accept(TokenKind::kPaths)) {
      show.what = ShowStatement::What::kPaths;
      MDDC_ASSIGN_OR_RETURN(show.dimension, ExpectName());
    } else {
      MDDC_RETURN_NOT_OK(Unexpected("DIMENSIONS, HIERARCHY or PATHS"));
    }
    MDDC_RETURN_NOT_OK(Expect(TokenKind::kFrom));
    MDDC_ASSIGN_OR_RETURN(show.mo_name, ExpectName());
    return show;
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  std::size_t where_depth_ = 0;  // open WHERE parentheses
};

}  // namespace

Result<Statement> Parse(const std::string& source) {
  MDDC_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(source));
  Parser parser(std::move(tokens));
  return parser.ParseStatement();
}

}  // namespace mdql
}  // namespace mddc
