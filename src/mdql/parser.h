#ifndef MDDC_MDQL_PARSER_H_
#define MDDC_MDQL_PARSER_H_

#include <cstddef>
#include <string>

#include "common/result.h"
#include "mdql/ast.h"

namespace mddc {
namespace mdql {

/// Parses one MDQL statement. Grammar (keywords case-insensitive,
/// identifiers bare or double-quoted, strings single-quoted):
///
///   statement  := select | show | insert
///   select     := SELECT agg (',' agg)* FROM ident
///                 (BY group (',' group)*)?
///                 (WHERE where)?
///                 (ASOF string)?
///   where      := and (OR and)*
///   and        := primary (AND primary)*
///   primary    := '(' where ')' | atom
///   agg        := COUNT | fn '(' ident ')'        fn in COUNT|SUM|AVG|
///                                                 MIN|MAX (identifiers)
///   group      := ident '.' ident (AS ident)?
///   atom       := (NOT)? ident '.' ident '=' string
///               | (NOT)? ident cmp number
///               | PROB '(' ident '.' ident '=' string ')' '>=' number
///   cmp        := '=' | '<>' | '<' | '<=' | '>' | '>='
///   show       := SHOW DIMENSIONS FROM ident
///               | SHOW HIERARCHY ident FROM ident
///   insert     := INSERT INTO ident FACT number
///                 '(' assign (',' assign)* ')'
///   assign     := ident '.' ident '=' string (PROB number)?
///
/// A WHERE nesting parentheses deeper than kMaxWhereNesting is
/// InvalidArgument.
Result<Statement> Parse(const std::string& source);

/// The deepest WHERE parenthesis nesting Parse accepts. The parser
/// recurses once per level, so the bound keeps a hostile request line
/// from exhausting a connection thread's stack.
inline constexpr std::size_t kMaxWhereNesting = 256;

}  // namespace mdql
}  // namespace mddc

#endif  // MDDC_MDQL_PARSER_H_
