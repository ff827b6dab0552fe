"""Surface syntax for algebra elements.

Grammar (whitespace-insensitive, left-associative):

    expr     := term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := primary ('^*')*
    primary  := scalar | 'W' '[' int (',' int)* ']' | '(' expr ')'
    scalar   := rational (('+' | '-') rational 'i')? ('z' '^' int)?
    rational := '-'? DIGITS ('/' DIGITS)?
    int      := '-'? DIGITS

Scalar literals are Gaussian rationals times a power of zeta, so CLI
arithmetic stays exact.  The canonical printer emits one
"coefficient * W[...]" atom per (lattice point, zeta power), sorted
lexicographically, which makes parse-print-parse idempotent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .algebra import AlgebraElement, PhaseContext, adjoint, multiply, scalar_element, weyl
from .scalars import PhaseScalar


class ParseError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


# -- AST --------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarLit:
    re: Fraction
    im: Fraction
    zeta: int = 0


@dataclass(frozen=True)
class WeylGen:
    coords: tuple[int, ...]


@dataclass(frozen=True)
class BinOp:
    op: str  # '+', '-' or '*'
    left: "ExprAST"
    right: "ExprAST"


@dataclass(frozen=True)
class Adjoint:
    operand: "ExprAST"


ExprAST = Union[ScalarLit, WeylGen, BinOp, Adjoint]


def to_element(node: ExprAST, ctx: PhaseContext) -> AlgebraElement:
    """Evaluate an AST to an algebra element."""
    dim = ctx.dimension
    if isinstance(node, ScalarLit):
        coeff = PhaseScalar.gaussian(node.re, node.im).times_zeta(node.zeta)
        return scalar_element(coeff, dim)
    if isinstance(node, WeylGen):
        return weyl(node.coords)
    if isinstance(node, Adjoint):
        return adjoint(to_element(node.operand, ctx))
    if isinstance(node, BinOp):
        left = to_element(node.left, ctx)
        right = to_element(node.right, ctx)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        return multiply(left, right, ctx)
    raise TypeError(f"not an expression node: {node!r}")


# -- tokenizer --------------------------------------------------------------

_SYMBOLS = set("+-*/()[],^")
_LETTERS = {"W", "z", "i"}


@dataclass(frozen=True)
class _Token:
    kind: str  # 'int', a symbol, a letter, or 'end'
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(_Token("int", text[i:j], i))
            i = j
        elif c in _SYMBOLS:
            out.append(_Token(c, c, i))
            i += 1
        elif c in _LETTERS:
            out.append(_Token(c, c, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    out.append(_Token("end", "", n))
    return out


class _Parser:
    def __init__(self, text: str, ctx: PhaseContext):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.dim = ctx.dimension

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.pos)
        return self.next()

    def parse(self) -> ExprAST:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return node

    def expr(self) -> ExprAST:
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> ExprAST:
        node = self.factor()
        while self.peek().kind == "*":
            self.next()
            node = BinOp("*", node, self.factor())
        return node

    def factor(self) -> ExprAST:
        node = self.primary()
        while self.peek().kind == "^":
            mark = self.pos
            self.next()
            if self.peek().kind == "*":
                self.next()
                node = Adjoint(node)
            else:
                self.pos = mark
                break
        return node

    def primary(self) -> ExprAST:
        tok = self.peek()
        if tok.kind == "W":
            return self.weyl_gen()
        if tok.kind == "(":
            self.next()
            node = self.expr()
            self.expect(")")
            return node
        if tok.kind in ("int", "-"):
            return self.scalar()
        raise ParseError(f"expected a scalar, 'W[...]' or '(', found {tok.text or 'end of input'!r}",
                         tok.pos)

    def weyl_gen(self) -> ExprAST:
        start = self.expect("W")
        self.expect("[")
        coords = [self.signed_int()]
        while self.peek().kind == ",":
            self.next()
            coords.append(self.signed_int())
        self.expect("]")
        if len(coords) != self.dim:
            raise ParseError(
                f"generator arity {len(coords)} does not match the context dimension {self.dim}",
                start.pos)
        return WeylGen(tuple(coords))

    def signed_int(self) -> int:
        neg = False
        if self.peek().kind == "-":
            self.next()
            neg = True
        tok = self.expect("int")
        val = int(tok.text)
        return -val if neg else val

    def rational(self) -> Fraction:
        neg = False
        if self.peek().kind == "-":
            self.next()
            neg = True
        num = int(self.expect("int").text)
        den = 1
        if self.peek().kind == "/":
            self.next()
            den = int(self.expect("int").text)
            if den == 0:
                raise ParseError("zero denominator", self.tokens[self.pos - 1].pos)
        q = Fraction(num, den)
        return -q if neg else q

    def scalar(self) -> ExprAST:
        re = self.rational()
        im = Fraction(0)
        if self.peek().kind in ("+", "-"):
            mark = self.pos
            sign = -1 if self.next().kind == "-" else 1
            try:
                part = self.rational()
                self.expect("i")
                im = sign * part
            except ParseError:
                self.pos = mark
        elif self.peek().kind == "i":
            self.next()
            im, re = re, Fraction(0)
        zeta = 0
        if self.peek().kind == "z":
            self.next()
            self.expect("^")
            zeta = self.signed_int()
        return ScalarLit(re, im, zeta)


def parse_element(text: str, ctx: PhaseContext) -> ExprAST:
    """Parse an element expression; raises ParseError with a byte offset."""
    return _Parser(text, ctx).parse()


# -- canonical printer ------------------------------------------------------

def _rational_str(q: Fraction) -> str:
    return str(q)  # Fraction prints reduced 'a' or 'a/b'


def _scalar_str(re: Fraction, im: Fraction, zeta: int) -> str:
    if im == 0:
        s = _rational_str(re)
    elif im > 0:
        s = f"{_rational_str(re)}+{_rational_str(im)}i"
    else:
        s = f"{_rational_str(re)}-{_rational_str(-im)}i"
    if zeta:
        s += f"z^{zeta}"
    return s


def format_element(a: AlgebraElement) -> str:
    """Canonical text: atoms sorted by (lattice point, zeta power)."""
    atoms = []
    for m, coeff in a.items():
        parts: dict[int, list[Fraction]] = {}
        for k, r, c in coeff.terms():
            re_im = parts.setdefault(k, [Fraction(0), Fraction(0)])
            if r == 0:
                re_im[0] = c
            elif r == Fraction(1, 4):
                re_im[1] = c
            else:
                raise ValueError(f"coefficient {coeff} is not expressible in the element grammar")
        for k in sorted(parts):
            re, im = parts[k]
            atoms.append((m, k, re, im))
    if not atoms:
        return "0"
    bits = []
    for m, k, re, im in atoms:
        gen = f"W[{','.join(str(x) for x in m)}]"
        if re == 1 and im == 0 and k == 0:
            bits.append(gen)
        else:
            bits.append(f"{_scalar_str(re, im, k)} * {gen}")
    return " + ".join(bits)
