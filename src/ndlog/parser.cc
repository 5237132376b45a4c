#include "src/ndlog/parser.h"

#include "src/ndlog/lexer.h"

namespace dpc {

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<std::vector<Rule>> Run() {
    std::vector<Rule> rules;
    while (!Check(TokenKind::kEof)) {
      DPC_ASSIGN_OR_RETURN(Rule rule, ParseRule(rules.size() + 1));
      rules.push_back(std::move(rule));
    }
    return rules;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = std::min(pos_ + ahead, tokens_.size() - 1);
    return tokens_[i];
  }
  const Token& Advance() { return tokens_[pos_++]; }
  bool Check(TokenKind kind) const { return Peek().kind == kind; }
  bool Match(TokenKind kind) {
    if (!Check(kind)) return false;
    Advance();
    return true;
  }

  static SourceLoc LocOf(const Token& tok) {
    return SourceLoc{tok.line, tok.column};
  }

  Status ErrorAt(const Token& tok, const std::string& msg) {
    return Status::ParseError(msg + ", got " + tok.Describe() + " at " +
                              LocOf(tok).ToString());
  }

  Result<Token> Expect(TokenKind kind, const char* what) {
    if (!Check(kind)) {
      return ErrorAt(Peek(), std::string("expected ") + what);
    }
    return Advance();
  }

  Result<Rule> ParseRule(size_t ordinal) {
    Rule rule;
    DPC_ASSIGN_OR_RETURN(Token first, Expect(TokenKind::kIdent, "rule head"));
    rule.loc = LocOf(first);
    if (Check(TokenKind::kIdent)) {
      // "r1 packet(...)": explicit rule id followed by the head relation.
      rule.id = first.text;
      DPC_ASSIGN_OR_RETURN(rule.head, ParseAtomNamed(Advance()));
    } else {
      rule.id = "r" + std::to_string(ordinal);
      DPC_ASSIGN_OR_RETURN(rule.head, ParseAtomNamed(first));
    }

    DPC_RETURN_NOT_OK(Expect(TokenKind::kImplies, "':-'").status());

    bool saw_relational_atom = false;
    while (true) {
      DPC_RETURN_NOT_OK(ParseBodyElem(rule));
      if (!rule.atoms.empty()) saw_relational_atom = true;
      if (Match(TokenKind::kPeriod)) break;
      DPC_RETURN_NOT_OK(Expect(TokenKind::kComma, "',' or '.'").status());
    }
    if (!saw_relational_atom) {
      return Status::ParseError("rule " + rule.id +
                                " has no relational body atom at " +
                                rule.loc.ToString());
    }
    rule.event_index = 0;  // DELP convention: first body atom is the event.
    return rule;
  }

  Status ParseBodyElem(Rule& rule) {
    if (Check(TokenKind::kIdent)) {
      const Token& tok = Peek();
      if (IsVariableName(tok.text) && Peek(1).kind == TokenKind::kAssign) {
        Assignment asn;
        asn.loc = LocOf(tok);
        asn.var = Advance().text;
        Advance();  // ':='
        DPC_ASSIGN_OR_RETURN(asn.expr, ParseExpr());
        rule.assignments.push_back(std::move(asn));
        return Status::OK();
      }
      if (!IsVariableName(tok.text) && !IsFunctionName(tok.text) &&
          Peek(1).kind == TokenKind::kLParen) {
        DPC_ASSIGN_OR_RETURN(Atom atom, ParseAtomNamed(Advance()));
        rule.atoms.push_back(std::move(atom));
        return Status::OK();
      }
    }
    // Everything else is a constraint expression.
    Constraint c;
    c.loc = LocOf(Peek());
    DPC_ASSIGN_OR_RETURN(c.expr, ParseExpr());
    rule.constraints.push_back(std::move(c));
    return Status::OK();
  }

  Result<Atom> ParseAtomNamed(const Token& name) {
    Atom atom;
    atom.relation = name.text;
    atom.loc = LocOf(name);
    DPC_RETURN_NOT_OK(Expect(TokenKind::kLParen, "'('").status());
    bool first = true;
    while (!Match(TokenKind::kRParen)) {
      if (!first) {
        DPC_RETURN_NOT_OK(Expect(TokenKind::kComma, "','").status());
      }
      // The location marker '@' may prefix the first argument.
      if (first) Match(TokenKind::kAt);
      DPC_ASSIGN_OR_RETURN(Term term, ParseTerm());
      atom.args.push_back(std::move(term));
      first = false;
    }
    if (atom.args.empty()) {
      return Status::ParseError("atom " + atom.relation +
                                " has no arguments at " +
                                atom.loc.ToString());
    }
    return atom;
  }

  Result<Term> ParseTerm() {
    const Token& tok = Peek();
    SourceLoc loc = LocOf(tok);
    auto located = [&loc](Term t) {
      t.loc = loc;
      return t;
    };
    switch (tok.kind) {
      case TokenKind::kIdent: {
        Advance();
        if (IsVariableName(tok.text)) return located(Term::Var(tok.text));
        if (tok.text == "true") return located(Term::Const(Value::Bool(true)));
        if (tok.text == "false") {
          return located(Term::Const(Value::Bool(false)));
        }
        // Symbolic constant, e.g. protocol names.
        return located(Term::Const(Value::Str(tok.text)));
      }
      case TokenKind::kNumber: {
        if (tok.number < 0) return ErrorAt(tok, "integer literal out of range");
        Advance();
        return located(Term::Const(Value::Int(tok.number)));
      }
      case TokenKind::kString: {
        Advance();
        return located(Term::Const(Value::Str(tok.text)));
      }
      case TokenKind::kMinus: {
        Advance();
        DPC_ASSIGN_OR_RETURN(Token num,
                             Expect(TokenKind::kNumber, "number after '-'"));
        // A magnitude of 2^63 lexes as INT64_MIN, which is its own negation.
        return located(Term::Const(
            Value::Int(num.number < 0 ? num.number : -num.number)));
      }
      default:
        return ErrorAt(tok, "expected term");
    }
  }

  // expr := additive (comparison-op additive)?
  Result<ExprPtr> ParseExpr() {
    DPC_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdditive());
    Expr::Op op;
    switch (Peek().kind) {
      case TokenKind::kEq: op = Expr::Op::kEq; break;
      case TokenKind::kNe: op = Expr::Op::kNe; break;
      case TokenKind::kLt: op = Expr::Op::kLt; break;
      case TokenKind::kLe: op = Expr::Op::kLe; break;
      case TokenKind::kGt: op = Expr::Op::kGt; break;
      case TokenKind::kGe: op = Expr::Op::kGe; break;
      default:
        return lhs;
    }
    Advance();
    DPC_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
    return Expr::MakeBinary(op, std::move(lhs), std::move(rhs));
  }

  Result<ExprPtr> ParseAdditive() {
    DPC_ASSIGN_OR_RETURN(ExprPtr lhs, ParseMultiplicative());
    while (Check(TokenKind::kPlus) || Check(TokenKind::kMinus)) {
      Expr::Op op = Match(TokenKind::kPlus) ? Expr::Op::kAdd
                                            : (Advance(), Expr::Op::kSub);
      DPC_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicative());
      lhs = Expr::MakeBinary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseMultiplicative() {
    DPC_ASSIGN_OR_RETURN(ExprPtr lhs, ParsePrimary());
    while (Check(TokenKind::kStar) || Check(TokenKind::kSlash) ||
           Check(TokenKind::kPercent)) {
      Expr::Op op;
      if (Match(TokenKind::kStar)) {
        op = Expr::Op::kMul;
      } else if (Match(TokenKind::kSlash)) {
        op = Expr::Op::kDiv;
      } else {
        Advance();
        op = Expr::Op::kMod;
      }
      DPC_ASSIGN_OR_RETURN(ExprPtr rhs, ParsePrimary());
      lhs = Expr::MakeBinary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParsePrimary() {
    const Token& tok = Peek();
    switch (tok.kind) {
      case TokenKind::kIdent: {
        Advance();
        if (IsFunctionName(tok.text)) {
          DPC_RETURN_NOT_OK(
              Expect(TokenKind::kLParen, "'(' after function name").status());
          std::vector<ExprPtr> args;
          bool first = true;
          while (!Match(TokenKind::kRParen)) {
            if (!first) {
              DPC_RETURN_NOT_OK(Expect(TokenKind::kComma, "','").status());
            }
            DPC_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
            args.push_back(std::move(arg));
            first = false;
          }
          return Expr::MakeCall(tok.text, std::move(args));
        }
        if (IsVariableName(tok.text)) return Expr::MakeVar(tok.text);
        if (tok.text == "true") return Expr::MakeConst(Value::Bool(true));
        if (tok.text == "false") return Expr::MakeConst(Value::Bool(false));
        return Expr::MakeConst(Value::Str(tok.text));
      }
      case TokenKind::kNumber:
        if (tok.number < 0) return ErrorAt(tok, "integer literal out of range");
        Advance();
        return Expr::MakeConst(Value::Int(tok.number));
      case TokenKind::kString:
        Advance();
        return Expr::MakeConst(Value::Str(tok.text));
      case TokenKind::kMinus: {
        Advance();
        DPC_ASSIGN_OR_RETURN(ExprPtr inner, ParsePrimary());
        return Expr::MakeBinary(Expr::Op::kSub,
                                Expr::MakeConst(Value::Int(0)),
                                std::move(inner));
      }
      case TokenKind::kLParen: {
        Advance();
        DPC_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
        DPC_RETURN_NOT_OK(Expect(TokenKind::kRParen, "')'").status());
        return inner;
      }
      default:
        return ErrorAt(tok, "expected expression");
    }
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<std::vector<Rule>> ParseRules(std::string_view source) {
  DPC_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(source));
  return Parser(std::move(tokens)).Run();
}

Result<Tuple> ParseTuple(std::string_view source) {
  // Reuse the rule parser by wrapping the atom as a throwaway rule body.
  std::string wrapped = "q(@0) :- " + std::string(source) + ".";
  DPC_ASSIGN_OR_RETURN(std::vector<Rule> rules, ParseRules(wrapped));
  if (rules.size() != 1 || rules[0].atoms.size() != 1 ||
      !rules[0].constraints.empty() || !rules[0].assignments.empty()) {
    return Status::ParseError("expected a single ground atom: " +
                              std::string(source));
  }
  const Atom& atom = rules[0].atoms[0];
  std::vector<Value> values;
  values.reserve(atom.args.size());
  for (const Term& term : atom.args) {
    if (term.is_var()) {
      return Status::ParseError("ground atom must not contain variables: " +
                                term.var);
    }
    values.push_back(term.constant);
  }
  if (values.empty() || !values[0].is_int()) {
    return Status::ParseError(
        "ground atom needs an integer location argument");
  }
  return Tuple(atom.relation, std::move(values));
}

}  // namespace dpc
