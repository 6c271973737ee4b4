"""Expression DSL: a small exact-arithmetic polynomial language.

Grammar (precedence low to high): `+ -` binary, `*`, unary `-`, `^` with a
nonnegative integer exponent.  Atoms are `x1..xN`, `u`, `u[i,j,...]` (jet
indices, sorted on ingest), and `theta`.  Literals are integers or rational
`p/q` with integer parts; there is no general division.  Vector fields are
given as `xi1 = <expr>; ...; xiN = <expr>; phi = <expr>` over x and u only;
omitted components default to zero.

`algebra.poly_str` and `parse_expression` are inverse on canonical forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import DEP, Poly, THETA, coord, jet, poly_str
from .jets import JetInCoefficientError, VectorField


class ParseError(ValueError):
    """Syntax error with source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class IndexOutOfRangeError(ParseError):
    """A coordinate or jet index outside 1..N."""


class DivisionNotSupportedError(ParseError):
    """`/` is only allowed inside a rational literal `p/q`."""


@dataclass(frozen=True)
class Token:
    kind: str  # "num" | "name" | "op"
    value: str
    line: int
    col: int


_OPS = set("+-*^()[],/=;")


def tokenize(text: str) -> list[Token]:
    out: list[Token] = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            out.append(Token("op", ";", line, col))
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        if ch.isdigit():
            start = i
            c0 = col
            while i < len(text) and text[i].isdigit():
                i += 1
                col += 1
            out.append(Token("num", text[start:i], line, c0))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            c0 = col
            while i < len(text) and (text[i].isalnum() or text[i] == "_"):
                i += 1
                col += 1
            out.append(Token("name", text[start:i], line, c0))
            continue
        if ch in _OPS:
            out.append(Token("op", ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    return out


class _Parser:
    def __init__(self, tokens: list[Token], n: int):
        self.tokens = tokens
        self.pos = 0
        self.n = n

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else Token("op", "", 1, 1)
            raise ParseError("unexpected end of input", last.line,
                             last.col + len(last.value))
        self.pos += 1
        return tok

    def expect_op(self, value: str) -> Token:
        tok = self.next()
        if tok.kind != "op" or tok.value != value:
            raise ParseError(f"expected {value!r}, got {tok.value!r}",
                             tok.line, tok.col)
        return tok

    def at_op(self, *values: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == "op" and tok.value in values

    # expr := term (('+'|'-') term)*
    def expr(self) -> Poly:
        out = self.term()
        while self.at_op("+", "-"):
            op = self.next().value
            rhs = self.term()
            out = out + rhs if op == "+" else out - rhs
        return out

    # term := factor ('*' factor)*  ; '/' outside a literal is an error
    def term(self) -> Poly:
        out = self.factor()
        while True:
            if self.at_op("*"):
                self.next()
                out = out * self.factor()
            elif self.at_op("/"):
                tok = self.peek()
                raise DivisionNotSupportedError(
                    "division is only supported in rational literals p/q",
                    tok.line, tok.col)
            else:
                return out

    # factor := '-' factor | power
    def factor(self) -> Poly:
        if self.at_op("-"):
            self.next()
            return -self.factor()
        return self.power()

    # power := primary ('^' integer)?
    def power(self) -> Poly:
        base = self.primary()
        if self.at_op("^"):
            self.next()
            tok = self.next()
            if tok.kind != "num":
                raise ParseError("exponent must be a nonnegative integer",
                                 tok.line, tok.col)
            return base ** int(tok.value)
        return base

    def primary(self) -> Poly:
        tok = self.next()
        if tok.kind == "num":
            value = Fraction(int(tok.value))
            # rational literal p/q
            if self.at_op("/"):
                self.next()
                den = self.next()
                if den.kind != "num":
                    raise DivisionNotSupportedError(
                        "denominator of a rational literal must be an integer",
                        den.line, den.col)
                if int(den.value) == 0:
                    raise ParseError("zero denominator", den.line, den.col)
                value /= int(den.value)
            return Poly.const(value)
        if tok.kind == "op" and tok.value == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        if tok.kind == "name":
            return self.name_atom(tok)
        raise ParseError(f"unexpected token {tok.value!r}", tok.line, tok.col)

    def name_atom(self, tok: Token) -> Poly:
        name = tok.value
        if name == "theta":
            return Poly.variable(THETA)
        if name == "u":
            if self.at_op("["):
                self.next()
                indices = [self.index_value()]
                while self.at_op(","):
                    self.next()
                    indices.append(self.index_value())
                self.expect_op("]")
                return Poly.variable(jet(*indices))
            return Poly.variable(DEP)
        if name.startswith("x") and name[1:].isdigit():
            i = int(name[1:])
            if not 1 <= i <= self.n:
                raise IndexOutOfRangeError(
                    f"coordinate index {i} outside 1..{self.n}",
                    tok.line, tok.col)
            return Poly.variable(coord(i))
        raise ParseError(f"unknown name {name!r}", tok.line, tok.col)

    def index_value(self) -> int:
        tok = self.next()
        if tok.kind != "num":
            raise ParseError("jet index must be an integer", tok.line, tok.col)
        i = int(tok.value)
        if not 1 <= i <= self.n:
            raise IndexOutOfRangeError(
                f"jet index {i} outside 1..{self.n}", tok.line, tok.col)
        return i


def _parse_all(tokens: list[Token], n: int) -> Poly:
    parser = _Parser(tokens, n)
    out = parser.expr()
    tok = parser.peek()
    if tok is not None:
        raise ParseError(f"unexpected trailing token {tok.value!r}",
                         tok.line, tok.col)
    return out


def parse_expression(text: str, n: int) -> Poly:
    """Parse one expression into a canonical polynomial."""
    return _parse_all([t for t in tokenize(text)
                       if not (t.kind == "op" and t.value == ";")], n)


def parse_vector_field(text: str, n: int) -> VectorField:
    """Parse `xi1 = ...; ...; phi = ...`; missing components are zero."""
    tokens = tokenize(text)
    statements: list[list[Token]] = [[]]
    for tok in tokens:
        if tok.kind == "op" and tok.value == ";":
            statements.append([])
        else:
            statements[-1].append(tok)
    seen: dict[str, Poly] = {}
    for stmt in statements:
        if not stmt:
            continue
        head = stmt[0]
        if head.kind != "name" or len(stmt) < 2 or \
                stmt[1].kind != "op" or stmt[1].value != "=":
            raise ParseError("expected '<name> = <expr>'", head.line, head.col)
        name = head.value
        valid = {f"xi{i}" for i in range(1, n + 1)} | {"phi"}
        if name not in valid:
            raise ParseError(f"unknown component {name!r} (allowed: "
                             f"xi1..xi{n}, phi)", head.line, head.col)
        if name in seen:
            raise ParseError(f"duplicate component {name!r}", head.line, head.col)
        p = _parse_all(stmt[2:], n)
        for a in p.atoms():
            if a[0] not in (0, 1):  # only Coord and Dep allowed
                raise JetInCoefficientError(
                    f"component {name} may only involve x1..x{n} and u")
        seen[name] = p
    xi = tuple(seen.get(f"xi{i}", Poly.zero()) for i in range(1, n + 1))
    phi = seen.get("phi", Poly.zero())
    return VectorField(n, xi, phi)


def format_vector_field(v: VectorField) -> str:
    parts = [f"xi{i} = {poly_str(v.xi[i - 1])}" for i in range(1, v.n + 1)]
    parts.append(f"phi = {poly_str(v.phi)}")
    return "; ".join(parts)
