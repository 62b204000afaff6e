"""Test-only reference for the expression parser: the tokenizer,
``ExprParser``, ``parse_system_source`` and ``parse_expression`` as they were
when every atom, sum and product of a parse was a reduced ``RatFunc``.  They
are kept verbatim as a differential oracle for ``centerlab.parser``, which
builds ``MPoly`` values; the package does not import this module.

Two behaviours of this copy were bugs and are not part of the oracle: its
tokenizer reads any Unicode digit as a digit (so ``x^٣`` is ``x^3`` and
``x²`` a symbol), and a repeated ``xdot =``/``ydot =`` replaces the earlier
one.  Inputs with either are left out of the comparison."""

from typing import List, Optional, Tuple

from centerlab.mpoly import MPoly, merge_tables
from centerlab.parser import (
    RESERVED,
    Assumption,
    ParsedSystem,
    ParseError,
    Token,
    _collect_symbols,
)
from centerlab.ratfunc import RatFunc


def tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            tokens.append(Token("NL", "\n", line, col))
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
                col += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("NUM", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_" or ch == "ε":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_" or text[j] == "ε"):
                j += 1
            name = text[i:j]
            if name == "ε":
                name = "eps"
            tokens.append(Token("NAME", name, line, col))
            col += j - i
            i = j
            continue
        if ch in "+-*/^()=;,:><!":
            tokens.append(Token("OP", ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("END", "", line, col))
    return tokens


class ExprParser:
    """Recursive-descent parser building rational functions over a fixed table."""

    def __init__(self, tokens: List[Token], table: Tuple[str, ...], pos: int = 0):
        self.tokens = tokens
        self.table = table
        self.pos = pos

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def skip_newlines(self):
        while self.peek().kind == "NL":
            self.next()

    def error(self, message: str, tok: Optional[Token] = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def expect_op(self, op: str):
        t = self.peek()
        if t.kind != "OP" or t.text != op:
            self.error(f"expected {op!r}, found {t.text!r}" if t.text else f"expected {op!r}")
        return self.next()

    # expr := term (('+'|'-') term)*
    def parse_expr(self) -> RatFunc:
        t = self.parse_term()
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.text in "+-":
                self.next()
                rhs = self.parse_term()
                t = t + rhs if tok.text == "+" else t - rhs
            else:
                return t

    # term := factor (('*'|'/') factor)*
    def parse_term(self) -> RatFunc:
        t = self.parse_factor()
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.text in "*/":
                self.next()
                rhs = self.parse_factor()
                if tok.text == "*":
                    t = t * rhs
                else:
                    if rhs.is_zero:
                        self.error("division by zero", tok)
                    t = t / rhs
            else:
                return t

    # factor := ('+'|'-')* atom ('^' exponent)?
    def parse_factor(self) -> RatFunc:
        tok = self.peek()
        if tok.kind == "OP" and tok.text in "+-":
            self.next()
            f = self.parse_factor()
            return f if tok.text == "+" else -f
        atom = self.parse_atom()
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "^":
            self.next()
            k = self.parse_int_exponent()
            if k < 0 and atom.is_zero:
                self.error("zero to a negative power", tok)
            return atom ** k
        return atom

    def parse_int_exponent(self) -> int:
        sign = 1
        tok = self.peek()
        parens = False
        if tok.kind == "OP" and tok.text == "(":
            self.next()
            parens = True
            tok = self.peek()
        if tok.kind == "OP" and tok.text == "-":
            self.next()
            sign = -1
            tok = self.peek()
        if tok.kind != "NUM":
            self.error("expected an integer exponent")
        self.next()
        if parens:
            self.expect_op(")")
        return sign * int(tok.text)

    def parse_atom(self) -> RatFunc:
        tok = self.peek()
        if tok.kind == "NUM":
            self.next()
            return RatFunc.const(self.table, int(tok.text))
        if tok.kind == "NAME":
            self.next()
            nxt = self.peek()
            if nxt.kind == "OP" and nxt.text == "(":
                self.error(f"unknown function {tok.text!r}", tok)
            if tok.text not in self.table:
                self.error(f"undeclared symbol {tok.text!r}", tok)
            return RatFunc(MPoly.variable(tok.text, self.table))
        if tok.kind == "OP" and tok.text == "(":
            self.next()
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        self.error(f"unexpected {tok.text!r}" if tok.text.strip() else "unexpected end of expression")


def parse_system_source(text: str) -> ParsedSystem:
    tokens = tokenize(text)
    params = _collect_symbols(tokens)
    table = merge_tables(RESERVED, params)
    p = ExprParser(tokens, table)

    declared: List[str] = []
    assumptions: List[Assumption] = []
    dots = {}  # "xdot" / "ydot" -> polynomial
    while True:
        p.skip_newlines()
        tok = p.peek()
        if tok.kind == "END":
            break
        if tok.kind != "NAME":
            p.error(f"expected a declaration, found {tok.text!r}")
        if tok.text == "params":
            p.next()
            p.expect_op(":")
            while True:
                t = p.peek()
                if t.kind != "NAME":
                    p.error("expected a parameter name")
                if t.text in RESERVED:
                    p.error(f"{t.text!r} is reserved", t)
                declared.append(t.text)
                p.next()
                if p.peek().kind == "OP" and p.peek().text == ",":
                    p.next()
                    continue
                break
        elif tok.text == "assume":
            p.next()
            p.expect_op(":")
            lhs = p.parse_expr()
            op_tok = p.peek()
            if op_tok.kind != "OP" or op_tok.text not in "><!=":
                p.error("expected a comparison operator")
            p.next()
            op = op_tok.text
            if p.peek().kind == "OP" and p.peek().text == "=":
                p.next()
                op += "="
            rhs = p.parse_expr()
            diff = lhs - rhs
            if not diff.is_polynomial:
                p.error("assumption must be polynomial", op_tok)
            assumptions.append(Assumption(diff.as_poly(), op))
        elif tok.text in ("xdot", "ydot"):
            p.next()
            p.expect_op("=")
            start = p.peek()
            expr = p.parse_expr()
            if not expr.is_polynomial:
                raise ParseError("right-hand side must be polynomial (division only by constants)",
                                 start.line, start.col)
            dots[tok.text] = expr.as_poly()
            if p.peek().kind == "OP" and p.peek().text == ";":
                p.next()
        else:
            p.error(f"unexpected {tok.text!r} (expected xdot/ydot/params/assume)")
    if len(dots) < 2:
        last = tokens[-1]
        raise ParseError("both xdot and ydot must be defined", last.line, last.col)
    P, Q = dots["xdot"], dots["ydot"]
    all_params = tuple(sorted(set(params) | set(declared)))
    full = merge_tables(RESERVED, all_params)
    return ParsedSystem(P.embed(full) if P.vars != full else P,
                        Q.embed(full) if Q.vars != full else Q,
                        all_params, tuple(assumptions))


def parse_expression(text: str, table: Tuple[str, ...]) -> RatFunc:
    """Parse a standalone expression over a known variable table."""
    tokens = tokenize(text)
    p = ExprParser(tokens, table)
    p.skip_newlines()
    expr = p.parse_expr()
    p.skip_newlines()
    if p.peek().kind != "END":
        p.error(f"trailing input {p.peek().text!r}")
    return expr


def parse_polynomial(text: str, table: Tuple[str, ...]) -> MPoly:
    expr = parse_expression(text, table)
    if not expr.is_polynomial:
        raise ValueError(f"not a polynomial: {text}")
    return expr.as_poly()

