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
arithmetic stays exact.  parse_element builds the element as it reads:
each grammar rule returns an AlgebraElement, and the rules combine them by
+, -, algebra.multiply and algebra.adjoint, left to right.  The canonical
printer emits one "coefficient * W[...]" atom per (lattice point, zeta
power), sorted lexicographically, which makes parse-print-parse idempotent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import AlgebraElement, PhaseContext, adjoint, multiply, scalar_element, weyl
from .scalars import PhaseScalar


class ParseError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


# -- tokenizer --------------------------------------------------------------

_SYMBOLS = set("+-*/()[],^Wzi")


@dataclass(frozen=True)
class _Token:
    kind: str  # 'int', a symbol or letter, or 'end'
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
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    out.append(_Token("end", "", n))
    return out


class _Parser:
    def __init__(self, text: str, ctx: PhaseContext):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.ctx = ctx
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

    def parse(self) -> AlgebraElement:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return node

    def expr(self) -> AlgebraElement:
        node = self.term()
        while self.peek().kind in ("+", "-"):
            if self.next().kind == "+":
                node = node + self.term()
            else:
                node = node - self.term()
        return node

    def term(self) -> AlgebraElement:
        node = self.factor()
        while self.peek().kind == "*":
            self.next()
            node = multiply(node, self.factor(), self.ctx)
        return node

    def factor(self) -> AlgebraElement:
        node = self.primary()
        while self.peek().kind == "^":
            mark = self.pos
            self.next()
            if self.peek().kind == "*":
                self.next()
                node = adjoint(node)
            else:
                self.pos = mark
                break
        return node

    def primary(self) -> AlgebraElement:
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

    def weyl_gen(self) -> AlgebraElement:
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
        return weyl(coords)

    def signed_int(self) -> int:
        neg = False
        if self.peek().kind == "-":
            self.next()
            neg = True
        tok = self.expect("int")
        val = int(tok.text)
        return -val if neg else val

    def rational(self) -> Fraction:
        num = self.signed_int()
        den = 1
        if self.peek().kind == "/":
            self.next()
            den = int(self.expect("int").text)
            if den == 0:
                raise ParseError("zero denominator", self.tokens[self.pos - 1].pos)
        return Fraction(num, den)

    def scalar(self) -> AlgebraElement:
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
        return scalar_element(PhaseScalar.gaussian(re, im).times_zeta(zeta), self.dim)


def parse_element(text: str, ctx: PhaseContext) -> AlgebraElement:
    """The element an expression stands for; raises ParseError with a byte offset."""
    return _Parser(text, ctx).parse()


def to_element(a: AlgebraElement, ctx: PhaseContext) -> AlgebraElement:
    """The element itself, unchanged: parse_element already returns it."""
    return a


# -- canonical printer ------------------------------------------------------

def _scalar_str(re: Fraction, im: Fraction, zeta: int) -> str:
    s = str(re)  # Fraction prints reduced 'a' or 'a/b'
    if im:
        s += f"+{im}i" if im > 0 else f"-{-im}i"
    if zeta:
        s += f"z^{zeta}"
    return s


def format_element(a: AlgebraElement) -> str:
    """Canonical text: atoms sorted by (lattice point, zeta power)."""
    bits = []
    for m, coeff in a.items():
        parts: dict[int, list[Fraction]] = {}
        for k, r, c in coeff.terms():
            if r not in (0, Fraction(1, 4)):
                raise ValueError(f"coefficient {coeff} is not expressible in the element grammar")
            parts.setdefault(k, [Fraction(0), Fraction(0)])[1 if r else 0] = c
        gen = f"W[{','.join(str(x) for x in m)}]"
        for k in sorted(parts):
            re, im = parts[k]
            bits.append(gen if (re, im, k) == (1, 0, 0) else f"{_scalar_str(re, im, k)} * {gen}")
    return " + ".join(bits) or "0"
