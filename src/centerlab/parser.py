"""Text format for planar systems and first-integral expressions.

System files look like::

    params: a, b
    assume: a*mu > 0
    xdot = y + x^2 + k2*x*y ; ydot = k1*x^2 - x^3

Expressions are signed sums of products of integer (or integer/integer)
literals, symbols, and ``^`` powers; ``*`` is required between factors and
whitespace is insignificant.  ``x``, ``y`` and ``eps`` are reserved; other
symbols are parameters, auto-declared on first use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from .mpoly import MPoly, Rat, merge_tables
from .ratfunc import RatFunc

RESERVED = ("x", "y", "eps")
_KEYWORDS = {"xdot", "ydot", "params", "assume"}


class ParseError(ValueError):
    """A malformed input: in a system file with its ``line`` and ``col``, or
    in a command-line option without a position."""

    def __init__(self, message: str, line: Optional[int] = None, col: Optional[int] = None):
        super().__init__(message if line is None else f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


@dataclass
class Token:
    kind: str  # NUM | NAME | OP | NL | END
    text: str
    line: int
    col: int


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


@dataclass(frozen=True)
class Assumption:
    """A side condition ``poly <op> 0`` checked on numeric specialization."""

    poly: MPoly
    op: str  # one of > < >= <= !=

    def __str__(self) -> str:
        return f"{self.poly} {self.op} 0"

    def holds(self) -> Optional[bool]:
        if not self.poly.is_constant:
            return None
        v = self.poly.constant_value()
        return {
            ">": v > 0, "<": v < 0, ">=": v >= 0, "<=": v <= 0, "!=": v != 0,
        }[self.op]


@dataclass
class ParsedSystem:
    P: MPoly
    Q: MPoly
    params: Tuple[str, ...]
    assumptions: Tuple[Assumption, ...]


def _collect_symbols(tokens: List[Token]) -> List[str]:
    return sorted({t.text for t in tokens if t.kind == "NAME"
                   and t.text not in _KEYWORDS and t.text not in RESERVED})


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


@dataclass
class DarbouxExpr:
    """A candidate first integral: product of polynomial powers, an optional
    exponential of a rational function, and an optional factor
    exp(kappa * arg(u + i v)).

    Power exponents may be rationals or polynomials in the parameters (for
    exponents like -2c).  A rational-function base f = n/d contributes
    n^lam * d^(-lam).
    """

    power_factors: List[Tuple[Union[MPoly, RatFunc], Union[int, Rat, MPoly]]] = field(default_factory=list)
    exp_factor: Optional[Tuple[MPoly, MPoly]] = None  # exp(g/h)
    arg_factor: Optional[Tuple[Rat, MPoly, MPoly]] = None  # kappa, u, v

    def __post_init__(self):
        if not self.power_factors and self.exp_factor is None and self.arg_factor is None:
            raise ValueError("empty first-integral candidate")
        for f, _ in self.power_factors:
            if f.is_zero:
                raise ValueError("zero power factor")
        if self.exp_factor is not None and self.exp_factor[1].is_zero:
            raise ValueError("zero denominator in exponential factor")


def parse_first_integral(text: str, table: Tuple[str, ...]) -> DarbouxExpr:
    """Parse ``(1+x)^(-2*c) * (x^4+y^2) * exp((g)/(h)) * argexp(2; u; v)``.

    A plain rational expression (no exp/argexp and no symbolic powers) is
    a single factor with exponent 1.
    """
    try:
        whole = parse_expression(text, table)
        return DarbouxExpr([(whole, 1)])
    except ParseError:
        pass
    tokens = tokenize(text)
    p = ExprParser(tokens, table)
    p.skip_newlines()
    powers = []
    exp_factor = None
    arg_factor = None
    while True:
        tok = p.peek()
        if tok.kind == "NAME" and tok.text == "exp":
            p.next()
            p.expect_op("(")
            inner = p.parse_expr()
            p.expect_op(")")
            if exp_factor is not None:
                raise ParseError("only one exp factor is supported", tok.line, tok.col)
            exp_factor = (inner.num, inner.den)
        elif tok.kind == "NAME" and tok.text == "argexp":
            p.next()
            p.expect_op("(")
            kappa = p.parse_expr()
            p.expect_op(";")
            u = p.parse_expr()
            p.expect_op(";")
            v = p.parse_expr()
            p.expect_op(")")
            if not (kappa.is_polynomial and kappa.num.is_constant):
                raise ParseError("argexp weight must be a rational constant", tok.line, tok.col)
            if not (u.is_polynomial and v.is_polynomial):
                raise ParseError("argexp arguments must be polynomial", tok.line, tok.col)
            if arg_factor is not None:
                raise ParseError("only one argexp factor is supported", tok.line, tok.col)
            arg_factor = (kappa.as_poly().constant_value(), u.as_poly(), v.as_poly())
        else:
            base = _parse_base(p)
            expo = 1
            nxt = p.peek()
            if nxt.kind == "OP" and nxt.text == "^":
                p.next()
                expo = _parse_symbolic_exponent(p)
            powers.append((base, expo))
        nxt = p.peek()
        if nxt.kind == "OP" and nxt.text == "*":
            p.next()
            continue
        p.skip_newlines()
        if p.peek().kind != "END":
            p.error(f"trailing input {p.peek().text!r}")
        break
    return DarbouxExpr(powers, exp_factor, arg_factor)


def _parse_base(p: ExprParser) -> RatFunc:
    tok = p.peek()
    if tok.kind == "OP" and tok.text == "(":
        p.next()
        inner = p.parse_expr()
        p.expect_op(")")
        # a parenthesized base may be followed by /( ... ) forming a quotient
        while p.peek().kind == "OP" and p.peek().text == "/":
            p.next()
            nxt = p.peek()
            if nxt.kind == "OP" and nxt.text == "(":
                p.next()
                den = p.parse_expr()
                p.expect_op(")")
            else:
                den = p.parse_atom()
            inner = inner / den
        return inner
    if tok.kind == "NUM":
        p.next()
        val = RatFunc.const(p.table, int(tok.text))
        while p.peek().kind == "OP" and p.peek().text == "/":
            p.next()
            d = p.peek()
            if d.kind != "NUM":
                p.error("expected an integer denominator")
            p.next()
            val = val / RatFunc.const(p.table, int(d.text))
        return val
    if tok.kind == "NAME":
        p.next()
        if tok.text not in p.table:
            p.error(f"undeclared symbol {tok.text!r}", tok)
        return RatFunc(MPoly.variable(tok.text, p.table))
    p.error(f"unexpected {tok.text!r} in first-integral expression")


def _parse_symbolic_exponent(p: ExprParser):
    """Integer, or a parenthesized expression that is polynomial in the
    parameters (e.g. (-2*c))."""
    tok = p.peek()
    if tok.kind == "NUM":
        p.next()
        return int(tok.text)
    if tok.kind == "OP" and tok.text == "-":
        p.next()
        n = p.peek()
        if n.kind != "NUM":
            p.error("expected an integer exponent")
        p.next()
        return -int(n.text)
    if tok.kind == "OP" and tok.text == "(":
        p.next()
        inner = p.parse_expr()
        p.expect_op(")")
        if not inner.is_polynomial:
            p.error("exponent must be polynomial in the parameters")
        poly = inner.as_poly()
        present = set(poly.variables_present())
        if present & {"x", "y", "eps"}:
            p.error("exponent may involve parameters only")
        return poly
    p.error("expected an exponent")
