"""Mini-language for test fields: polynomials in z_j and conj(z_j).

Grammar::

    expr    := ['+'|'-'] term (('+'|'-') term)*
    term    := factor ('*' factor)*
    factor  := atom ('^' uint)?
    atom    := '-' atom | number | var | '(' expr ')'
    number  := float | float 'i'
    var     := 'z'[digit] | 'zbar'[digit] | 'z'digit'bar'

Complex constants such as ``0.3-0.2i`` parse as a difference of a real and an
imaginary literal, which evaluates identically to a single literal.  ``^``
binds tighter than ``*``, so ``2i*z^2`` is ``2i * (z^2)``.  The grammar has
no division: every expression is a polynomial in the variables and their
conjugates, and `to_coefficients` recovers it exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import OrderTooLarge, ParseError, UnknownVariable

#: most monomial products (a*b to multiply a by b terms) one `to_coefficients`
#: forms, about 2 s: prod_j (1+z_j+zbar_j) on 9 factors forms 29,520, (z+zbar)^999 414,688
MAX_MONOMIALS = 1_000_000

_TOKEN_RE = re.compile(r"""
    (?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)(?P<imag>i)?
  | (?P<var>z[0-9]bar|zbar[0-9]?|z[0-9]?)
  | (?P<op>[-+*^()])
  | (?P<ws>\s+)
  | (?P<bad>.)
""", re.VERBOSE)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    pos: int
    value: complex = 0j


def tokenize(text: str) -> list[Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        if m.group("ws"):
            continue
        if m.group("bad"):
            raise ParseError(f"unexpected character {m.group('bad')!r}", m.start())
        if m.group("num"):
            mag = float(m.group("num"))
            value = 1j * mag if m.group("imag") else complex(mag)
            tokens.append(Token("num", m.group(0), m.start(), value))
        elif m.group("var"):
            tokens.append(Token("var", m.group("var"), m.start()))
        else:
            tokens.append(Token(m.group("op"), m.group("op"), m.start()))
    tokens.append(Token("end", "", len(text)))
    return tokens


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Lit:
    value: complex


@dataclass(frozen=True)
class Var:
    index: int | None  # None: unindexed (only valid when the domain has n == 1)
    conj: bool


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class Add:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Sub:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Mul:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int


Node = Lit | Var | Neg | Add | Sub | Mul | Pow


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def take(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text!r}", tok.pos)
        return self.take()

    def parse_expr(self) -> Node:
        if self.peek().kind in "+-":
            sign = self.take()
            node = self.parse_term()
            if sign.kind == "-":
                node = Neg(node)
        else:
            node = self.parse_term()
        while self.peek().kind in "+-":
            op = self.take()
            rhs = self.parse_term()
            node = Add(node, rhs) if op.kind == "+" else Sub(node, rhs)
        return node

    def parse_term(self) -> Node:
        node = self.parse_factor()
        while self.peek().kind == "*":
            self.take()
            node = Mul(node, self.parse_factor())
        return node

    def parse_factor(self) -> Node:
        node = self.parse_atom()
        if self.peek().kind == "^":
            caret = self.take()
            tok = self.peek()
            if tok.kind != "num" or tok.value.imag != 0 or tok.value.real != int(tok.value.real):
                raise ParseError("exponent must be an unsigned integer", tok.pos if tok.kind != "end" else caret.pos)
            self.take()
            exp = int(tok.value.real)
            if exp > 999:
                raise ParseError("exponent too large", tok.pos)
            node = Pow(node, exp)
        return node

    def parse_atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "-":
            self.take()
            return Neg(self.parse_atom())
        if tok.kind == "num":
            self.take()
            return Lit(tok.value)
        if tok.kind == "var":
            self.take()
            name = tok.text  # z, z3, zbar, zbar3, or the z3bar spelling
            conj = "bar" in name
            rest = name.replace("bar", "")[1:]
            index = int(rest) if rest else None
            if index == 0:
                raise ParseError("variable indices start at 1", tok.pos)
            return Var(index, conj)
        if tok.kind == "(":
            self.take()
            node = self.parse_expr()
            self.expect(")")
            return node
        raise ParseError(f"expected a value, found {tok.text!r}", tok.pos)


def parse_expression(text: str) -> Node:
    parser = _Parser(tokenize(text))
    node = parser.parse_expr()
    end = parser.peek()
    if end.kind != "end":
        raise ParseError(f"unexpected trailing input {end.text!r}", end.pos)
    return node


# ---------------------------------------------------------------------------
# Pretty-printing (canonical; parse(pretty(ast)) == ast for parser output)
# ---------------------------------------------------------------------------

def _format_number(value: complex) -> str:
    if value.imag == 0:
        return f"{value.real:.17g}"
    if value.real == 0:
        return f"{value.imag:.17g}i"
    return f"({value.real:.17g}+{value.imag:.17g}i)" if value.imag >= 0 \
        else f"({value.real:.17g}-{-value.imag:.17g}i)"


def pretty(node: Node) -> str:
    if isinstance(node, Lit):
        return _format_number(node.value)
    if isinstance(node, Var):
        base = "zbar" if node.conj else "z"
        return base + ("" if node.index is None else str(node.index))
    if isinstance(node, Neg):
        return "-" + _wrap(node.operand, level="atom")
    if isinstance(node, Add):
        return f"{pretty(node.left)}+{_wrap(node.right, 'term')}"
    if isinstance(node, Sub):
        return f"{pretty(node.left)}-{_wrap(node.right, 'term')}"
    if isinstance(node, Mul):
        return f"{_wrap(node.left, 'factor_l')}*{_wrap(node.right, 'factor')}"
    if isinstance(node, Pow):
        return f"{_wrap(node.base, 'atom')}^{node.exponent}"
    raise TypeError(f"not an AST node: {node!r}")


def _wrap(node: Node, level: str) -> str:
    text = pretty(node)
    if level == "term":
        needs = isinstance(node, (Add, Sub))
    elif level == "factor_l":
        needs = isinstance(node, (Add, Sub, Neg))
    elif level == "factor":
        needs = isinstance(node, (Add, Sub))
    else:  # atom position: anything compound needs parens except Neg chains
        needs = isinstance(node, (Add, Sub, Mul, Pow))
    return f"({text})" if needs else text


# ---------------------------------------------------------------------------
# Evaluation and exact polynomial extraction
# ---------------------------------------------------------------------------

def variable_indices(node: Node) -> set[int | None]:
    if isinstance(node, Var):
        return {node.index}
    if isinstance(node, Lit):
        return set()
    if isinstance(node, Neg):
        return variable_indices(node.operand)
    if isinstance(node, Pow):
        return variable_indices(node.base)
    return variable_indices(node.left) | variable_indices(node.right)


def degree(node: Node) -> int:
    """An upper bound on the total degree in every z_j and conj(z_j)."""
    if isinstance(node, (Lit, Var)):
        return int(isinstance(node, Var))
    if isinstance(node, Neg):
        return degree(node.operand)
    if isinstance(node, Pow):
        return degree(node.base) * node.exponent
    join = sum if isinstance(node, Mul) else max
    return join((degree(node.left), degree(node.right)))


def validate_variables(node: Node, factors: int) -> None:
    for index in variable_indices(node):
        if index is None:
            if factors != 1:
                raise UnknownVariable(
                    f"unindexed z/zbar is ambiguous on a polydisc with {factors} factors")
        elif not (1 <= index <= factors):
            raise UnknownVariable(f"variable index {index} exceeds factor count {factors}")


def evaluate(node: Node, factor_values) -> np.ndarray | complex:
    """Evaluate at factor_values: a sequence of (broadcastable) complex arrays."""
    if isinstance(node, Lit):
        return node.value
    if isinstance(node, Var):
        value = factor_values[0 if node.index is None else node.index - 1]
        return np.conj(value) if node.conj else value
    if isinstance(node, Neg):
        return -evaluate(node.operand, factor_values)
    if isinstance(node, Add):
        return evaluate(node.left, factor_values) + evaluate(node.right, factor_values)
    if isinstance(node, Sub):
        return evaluate(node.left, factor_values) - evaluate(node.right, factor_values)
    if isinstance(node, Mul):
        return evaluate(node.left, factor_values) * evaluate(node.right, factor_values)
    if isinstance(node, Pow):
        return evaluate(node.base, factor_values) ** node.exponent
    raise TypeError(f"not an AST node: {node!r}")


def to_coefficients(node: Node, factors: int) -> dict[tuple[tuple[int, int], ...], complex]:
    """Exact coefficients: key[j] = (power of z_j, power of conj(z_j)); forming
    more than MAX_MONOMIALS monomial products raises OrderTooLarge."""
    validate_variables(node, factors)
    zero = tuple((0, 0) for _ in range(factors))
    formed = 0

    def mul(da, db):
        nonlocal formed
        formed += len(da) * len(db)
        if formed > MAX_MONOMIALS:
            raise OrderTooLarge(f"expanding the expression forms more than {MAX_MONOMIALS} "
                                "monomial products (expressions.MAX_MONOMIALS)")
        out: dict = {}
        for ka, va in da.items():
            for kb, vb in db.items():
                key = tuple((pa + pb, qa + qb) for (pa, qa), (pb, qb) in zip(ka, kb))
                out[key] = out.get(key, 0j) + va * vb
        return out

    def go(n) -> dict:
        if isinstance(n, Lit):
            return {zero: complex(n.value)}
        if isinstance(n, Var):
            j = 0 if n.index is None else n.index - 1
            key = tuple((0, 1) if (i == j and n.conj) else (1, 0) if i == j else (0, 0)
                        for i in range(factors))
            return {key: 1.0 + 0j}
        if isinstance(n, Neg):
            return {k: -v for k, v in go(n.operand).items()}
        if isinstance(n, Add):
            out = dict(go(n.left))
            for k, v in go(n.right).items():
                out[k] = out.get(k, 0j) + v
            return out
        if isinstance(n, Sub):
            out = dict(go(n.left))
            for k, v in go(n.right).items():
                out[k] = out.get(k, 0j) - v
            return out
        if isinstance(n, Mul):
            return mul(go(n.left), go(n.right))
        if isinstance(n, Pow):
            out, square, k = {zero: 1.0 + 0j}, go(n.base), n.exponent
            while k:    # binary powering: multiply in the squares k's bits select
                out = mul(out, square) if k & 1 else out
                k >>= 1
                square = mul(square, square) if k else square
            return out
        raise TypeError(f"not an AST node: {n!r}")

    return {k: v for k, v in go(node).items() if v != 0}


def parse_complex(text: str) -> complex:
    """Parse a constant expression like '0.3-0.2i' into a complex number."""
    node = parse_expression(text)
    if variable_indices(node):
        raise ParseError("expected a constant, found variables", 0)
    return complex(evaluate(node, [np.asarray(0j)]))
