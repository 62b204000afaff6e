"""Text format for planar systems and first-integral expressions.

System files look like::

    params: a, b
    assume: a*mu > 0
    xdot = y + x^2 + k2*x*y ; ydot = k1*x^2 - x^3

Expressions are signed sums of products of integer (or integer/integer)
literals, symbols, and ``^`` powers; ``*`` is required between factors and
whitespace is insignificant.  Numbers are ASCII digits; a symbol is a letter
or ``_``, then letters, ASCII digits or ``_``.  ``x``, ``y`` and ``eps``
(also ``ε``) are reserved; other symbols are parameters, auto-declared on
first use.  Values are :class:`MPoly`, or a :class:`RatFunc` while a
division by a non-constant or a negative power leaves them non-polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from .mpoly import MPoly, Rat, merge_tables
from .ratfunc import RatFunc

Value = Union[MPoly, RatFunc]  # a RatFunc value is never a polynomial

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
    line, start = 1, 0  # start: the index of the line's first character
    i, n = 0, len(text)
    while i < n:
        ch, j, col = text[i], i + 1, i - start + 1
        if ch == "#":
            while j < n and text[j] != "\n":
                j += 1
        elif "0" <= ch <= "9":
            while j < n and "0" <= text[j] <= "9":
                j += 1
            tokens.append(Token("NUM", text[i:j], line, col))
        elif ch.isalpha() or ch == "_":
            while j < n and (text[j].isalpha() or "0" <= text[j] <= "9" or text[j] == "_"):
                j += 1
            tokens.append(Token("NAME", "eps" if text[i:j] == "ε" else text[i:j], line, col))
        elif ch == "\n":
            tokens.append(Token("NL", ch, line, col))
            line, start = line + 1, j
        elif ch in "+-*/^()=;,:><!":
            tokens.append(Token("OP", ch, line, col))
        elif ch not in " \t\r":
            raise ParseError(f"unexpected character {ch!r}", line, col)
        i = j
    tokens.append(Token("END", "", line, n - start + 1))
    return tokens


def _lift(v: Value) -> RatFunc:
    return v if isinstance(v, RatFunc) else RatFunc(v)


def _lower(v: Value) -> Value:
    return v.as_poly() if isinstance(v, RatFunc) and v.is_polynomial else v


class ExprParser:
    """Recursive-descent parser building polynomials over a fixed table, and
    a :class:`RatFunc` only where a value is not a polynomial (see
    :data:`Value`): "is polynomial" is a type test."""

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

    def accept(self, op: str) -> bool:
        """Consume the operator ``op`` if it comes next (only an OP token
        has an operator's text)."""
        if self.peek().text == op:
            self.pos += 1
            return True
        return False

    def expect_op(self, op: str):
        t = self.peek()
        if t.kind != "OP" or t.text != op:
            self.error(f"expected {op!r}, found {t.text!r}" if t.text else f"expected {op!r}")
        return self.next()

    # expr := term (('+'|'-') term)*
    def parse_expr(self) -> Value:
        t = self.parse_term()
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.text in "+-":
                self.next()
                rhs = self.parse_term()
                t = _lower(t + rhs if tok.text == "+" else t - rhs)
            else:
                return t

    # term := factor (('*'|'/') factor)*
    def parse_term(self) -> Value:
        t = self.parse_factor()
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.text in "*/":
                self.next()
                rhs = self.parse_factor()
                if tok.text == "*":
                    t = _lower(t * rhs)
                elif rhs.is_zero:
                    self.error("division by zero", tok)
                elif isinstance(rhs, MPoly) and rhs.is_constant:
                    t = t * (1 / rhs.constant_value())
                else:
                    t = _lower(_lift(t) / rhs)
            else:
                return t

    # factor := ('+'|'-')* atom ('^' exponent)?
    def parse_factor(self) -> Value:
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
            if k >= 0:
                return _lower(atom ** k)
            if atom.is_zero:
                self.error("zero to a negative power", tok)
            return _lower(_lift(atom) ** k)
        return atom

    def parse_int_exponent(self) -> int:
        parens = self.accept("(")
        sign = -1 if self.accept("-") else 1
        tok = self.peek()
        if tok.kind != "NUM":
            self.error("expected an integer exponent")
        self.next()
        if parens:
            self.expect_op(")")
        return sign * int(tok.text)

    def parse_atom(self) -> Value:
        tok = self.peek()
        if tok.kind == "NUM":
            self.next()
            return MPoly.const(self.table, int(tok.text))
        if tok.kind == "NAME":
            self.next()
            nxt = self.peek()
            if nxt.kind == "OP" and nxt.text == "(":
                self.error(f"unknown function {tok.text!r}", tok)
            if tok.text not in self.table:
                self.error(f"undeclared symbol {tok.text!r}", tok)
            return MPoly.variable(tok.text, self.table)
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
                if not p.accept(","):
                    break
        elif tok.text == "assume":
            p.next()
            p.expect_op(":")
            lhs = p.parse_expr()
            op_tok = p.peek()
            if op_tok.kind != "OP" or op_tok.text not in "><!=":
                p.error("expected a comparison operator")
            p.next()
            op = op_tok.text + "=" if p.accept("=") else op_tok.text
            rhs = p.parse_expr()
            diff = _lower(lhs - rhs)
            if isinstance(diff, RatFunc):
                p.error("assumption must be polynomial", op_tok)
            assumptions.append(Assumption(diff, op))
        elif tok.text in ("xdot", "ydot"):
            if tok.text in dots:
                p.error(f"{tok.text} defined twice")
            p.next()
            p.expect_op("=")
            start = p.peek()
            expr = p.parse_expr()
            if isinstance(expr, RatFunc):
                raise ParseError("right-hand side must be polynomial (division only by constants)",
                                 start.line, start.col)
            dots[tok.text] = expr
            p.accept(";")
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


def _parse_value(text: str, table: Tuple[str, ...]) -> Value:
    p = ExprParser(tokenize(text), table)
    p.skip_newlines()
    expr = p.parse_expr()
    p.skip_newlines()
    if p.peek().kind != "END":
        p.error(f"trailing input {p.peek().text!r}")
    return expr


def parse_expression(text: str, table: Tuple[str, ...]) -> RatFunc:
    """Parse a standalone expression over a known variable table."""
    return _lift(_parse_value(text, table))


def parse_polynomial(text: str, table: Tuple[str, ...]) -> MPoly:
    expr = _parse_value(text, table)
    if isinstance(expr, RatFunc):
        raise ValueError(f"not a polynomial: {text}")
    return expr


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
    a single factor with exponent 1.  When neither form parses, the error
    raised is the one that reached further into the text (on a tie, the
    plain expression's).
    """
    try:
        return DarbouxExpr([(parse_expression(text, table), 1)])
    except ParseError as exc:
        plain = exc
    try:
        return _parse_product(text, table)
    except ParseError as exc:
        raise max(plain, exc, key=lambda e: (e.line, e.col))


def _parse_product(text: str, table: Tuple[str, ...]) -> DarbouxExpr:
    """product := factor (('*' | '/') factor)*, where a factor is a power
    ``base ^ exponent``, ``exp(...)`` or ``argexp(...)``.  A ``/`` negates
    the exponent of the power after it, and may not precede exp or argexp."""
    p = ExprParser(tokenize(text), table)
    p.skip_newlines()
    powers = []
    exp_factor = None
    arg_factor = None
    divide = False
    while True:
        tok = p.peek()
        if tok.kind == "NAME" and tok.text in ("exp", "argexp"):
            p.next()
            p.expect_op("(")
            if divide:
                p.error(f"'/' may not precede {tok.text}(...); negate its argument instead")
            if tok.text == "exp":
                inner = _lift(p.parse_expr())
                p.expect_op(")")
                if exp_factor is not None:
                    raise ParseError("only one exp factor is supported", tok.line, tok.col)
                exp_factor = (inner.num, inner.den)
            else:
                # an argument's own error sits at its first token
                args = []
                for close in (";", ";", ")"):
                    args.append((p.peek(), p.parse_expr()))
                    p.expect_op(close)
                (k_tok, kappa), (u_tok, u), (v_tok, v) = args
                if not (isinstance(kappa, MPoly) and kappa.is_constant):
                    p.error("argexp weight must be a rational constant", k_tok)
                for at, arg in ((u_tok, u), (v_tok, v)):
                    if isinstance(arg, RatFunc):
                        p.error("argexp arguments must be polynomial", at)
                if arg_factor is not None:
                    raise ParseError("only one argexp factor is supported", tok.line, tok.col)
                arg_factor = (kappa.constant_value(), u, v)
        else:
            base = _parse_base(p)
            k = _parse_symbolic_exponent(p) if p.accept("^") else 1
            powers.append((base, -k if divide else k))
        op = p.peek()
        if op.kind == "OP" and op.text in "*/":
            p.next()
            divide = op.text == "/"
            continue
        p.skip_newlines()
        if p.peek().kind != "END":
            p.error(f"trailing input {p.peek().text!r}")
        break
    return DarbouxExpr(powers, exp_factor, arg_factor)


def _parse_base(p: ExprParser) -> RatFunc:
    tok = p.peek()
    if p.accept("("):
        inner = _lift(p.parse_expr())
        p.expect_op(")")
        return inner
    if tok.kind == "NUM":
        p.next()
        return RatFunc.const(p.table, int(tok.text))
    if tok.kind == "NAME":
        p.next()
        if tok.text not in p.table:
            p.error(f"undeclared symbol {tok.text!r}", tok)
        return RatFunc(MPoly.variable(tok.text, p.table))
    if tok.kind == "END":
        p.error("unexpected end of first-integral expression")
    p.error(f"unexpected {tok.text!r} in first-integral expression")


def _parse_symbolic_exponent(p: ExprParser):
    """Integer, or a parenthesized expression that is polynomial in the
    parameters (e.g. (-2*c))."""
    tok = p.peek()
    if tok.kind == "NUM":
        p.next()
        return int(tok.text)
    if p.accept("-"):
        n = p.peek()
        if n.kind != "NUM":
            p.error("expected an integer exponent")
        p.next()
        return -int(n.text)
    if p.accept("("):
        poly = p.parse_expr()
        p.expect_op(")")
        if isinstance(poly, RatFunc):
            p.error("exponent must be polynomial in the parameters")
        if set(poly.variables_present()) & {"x", "y", "eps"}:
            p.error("exponent may involve parameters only")
        return poly
    p.error("expected an exponent")
