"""Surface syntax for algebra elements.

Grammar (left-associative; whitespace between tokens is ignored):

    expr     := term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := primary ('^*')*
    primary  := scalar | 'W' '[' int (',' int)* ']' | '(' expr ')'
    scalar   := rational (('+' | '-') rational 'i')? ('z' '^' int)?
    rational := '-'? DIGITS ('/' DIGITS)?
    int      := '-'? DIGITS

DIGITS are ASCII 0-9.  One compiled regex scans the text into token
strings: a digit run, a symbol, or any other non-space character, which is
an error.  A ParseError names the character offset of its token, which is
found by scanning again, so only an error pays for offsets.  Scalar literals
are Gaussian rationals times a power of zeta, so CLI arithmetic stays exact.

parse_element builds the element as it reads, by +, -, products and
algebra.adjoint, left to right.  A scalar atom c * W_0 times a single term
c' * W_m, on either side, is placed directly as c*c' * W_m (just c * W_m
when c' is 1): W_0 is the unit and sigma(0, m) = 0.  Every other product is
algebra.multiply.  The canonical printer emits one "coefficient * W[...]"
atom per (lattice point, zeta power), sorted lexicographically, which makes
parse-print-parse idempotent.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .algebra import AlgebraElement, PhaseContext, adjoint, multiply
from .scalars import PhaseScalar


class ParseError(ValueError):
    """A syntax error; offset is the character offset (a str index) it names."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


# -- tokenizer --------------------------------------------------------------

# an ASCII digit run, a symbol, or any other non-space character (an error)
_TOKEN = re.compile(r"[0-9]+|[-+*/()\[\],^Wzi]|\S")
_SYMBOLS = frozenset("+-*/()[],^Wzi")
_ONE = PhaseScalar.one()._terms  # the terms of 1, a coefficient the product rule skips


def _offset(text: str, index: int) -> int:
    """The character offset of token `index` of text, len(text) for the end."""
    starts = [m.start() for m in _TOKEN.finditer(text)]
    return starts[index] if index < len(starts) else len(text)


def _tokenize(text: str) -> list[str]:
    """The token texts, then '' for the end; a digit run is an int, any other a symbol."""
    tokens = _TOKEN.findall(text)
    for i, tok in enumerate(tokens):
        if tok not in _SYMBOLS and not "0" <= tok[0] <= "9":
            raise ParseError(f"unexpected character {tok!r}", _offset(text, i))
    tokens.append("")
    return tokens


class _Parser:
    def __init__(self, text: str, ctx: PhaseContext):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.ctx = ctx
        self.dim = ctx.dimension
        self.origin = (0,) * self.dim

    def peek(self) -> str:
        return self.tokens[self.pos]

    def next(self) -> str:
        self.pos += 1
        return self.tokens[self.pos - 1]

    def error(self, message: str, index: int | None = None) -> ParseError:
        """A ParseError at token `index`, by default the next one."""
        return ParseError(message, _offset(self.text, self.pos if index is None else index))

    def expect(self, kind: str) -> str:  # kind is a symbol, or 'int' for a digit run
        tok = self.peek()
        if not (tok.isdigit() if kind == "int" else tok == kind):
            raise self.error(f"expected {kind!r}, found {tok or 'end of input'!r}")
        return self.next()

    def parse(self) -> AlgebraElement:
        node = self.expr()
        if self.peek():
            raise self.error(f"unexpected trailing input {self.peek()!r}")
        return node

    def expr(self) -> AlgebraElement:
        node = self.term()
        while self.peek() in ("+", "-"):
            node = node + self.term() if self.next() == "+" else node - self.term()
        return node

    def term(self) -> AlgebraElement:
        node = self.factor()
        while self.peek() == "*":
            self.next()
            node = self.product(node, self.factor())
        return node

    def product(self, a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
        """a * b: a scalar atom times a single term is placed directly (module
        docstring); any other pair goes through multiply."""
        if len(a._terms) == 1 == len(b._terms):
            if self.origin in b._terms:
                a, b = b, a
            if self.origin in a._terms:
                (c,), ((m, c2),) = a._terms.values(), b._terms.items()
                return AlgebraElement._of(self.dim, {m: c if c2._terms == _ONE else c * c2})
        return multiply(a, b, self.ctx)

    def factor(self) -> AlgebraElement:
        node = self.primary()
        while self.peek() == "^" and self.tokens[self.pos + 1] == "*":
            self.pos += 2
            node = adjoint(node)
        return node

    def primary(self) -> AlgebraElement:
        tok = self.peek()
        if tok == "W":
            return self.weyl_gen()
        if tok == "(":
            self.next()
            node = self.expr()
            self.expect(")")
            return node
        if tok == "-" or tok.isdigit():
            return self.scalar()
        raise self.error(f"expected a scalar, 'W[...]' or '(', found {tok or 'end of input'!r}")

    def weyl_gen(self) -> AlgebraElement:
        start = self.pos
        self.expect("W")
        self.expect("[")
        coords = [self.signed_int()]
        while self.peek() == ",":
            self.next()
            coords.append(self.signed_int())
        self.expect("]")
        if len(coords) != self.dim:
            raise self.error(f"generator arity {len(coords)} does not match the context "
                             f"dimension {self.dim}", start)
        return AlgebraElement._of(self.dim, {tuple(coords): PhaseScalar.one()})

    def signed_int(self) -> int:
        neg = self.peek() == "-"
        self.pos += neg
        val = int(self.expect("int"))
        return -val if neg else val

    def rational(self) -> Fraction:
        num, den = self.signed_int(), 1
        if self.peek() == "/":
            self.next()
            den = int(self.expect("int"))
            if den == 0:
                raise self.error("zero denominator", self.pos - 1)
        return Fraction(num, den)

    def imaginary(self) -> bool:
        """Whether ('+' | '-') rational 'i' follows: only the 'i' binds a '+' into a scalar."""
        toks, j = self.tokens, self.pos + 1
        j += toks[j] == "-"
        if not toks[j].isdigit():
            return False
        j += 3 if toks[j + 1] == "/" and toks[j + 2].isdigit() else 1
        return toks[j] == "i"

    def scalar(self) -> AlgebraElement:
        real, im = self.rational(), Fraction(0)
        if self.peek() in ("+", "-") and self.imaginary():
            im = self.rational() if self.next() == "+" else -self.rational()
            self.next()  # the 'i'
        elif self.peek() == "i":
            self.next()
            im, real = real, Fraction(0)
        coeff = PhaseScalar.gaussian(real, im)
        if self.peek() == "z":
            self.next()
            self.expect("^")
            coeff = coeff.times_zeta(self.signed_int())
        return AlgebraElement._of(self.dim, {self.origin: coeff} if coeff else {})


def parse_element(text: str, ctx: PhaseContext) -> AlgebraElement:
    """The element an expression stands for; raises ParseError with a character offset."""
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
