"""Surface syntax for algebra elements.

Grammar (left-associative; whitespace between tokens is ignored):

    expr     := term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := primary ('^*')*
    primary  := scalar | 'W' '[' int (',' int)* ']' | '(' expr ')'
    scalar   := rational (('+' | '-') rational 'i')? ('z' '^' int)?
    rational := '-'? DIGITS ('/' DIGITS)?
    int      := '-'? DIGITS

DIGITS are ASCII 0-9.  One regex search looks for a character that is
neither whitespace, a digit nor a symbol, which is an error; one findall
then splits the text into token strings, each a digit run or a symbol.
The literal productions (scalar, 'W[...]', rational and int) read that
token list through a local index, so a literal costs a few calls, not a
few per token.  A ParseError names the character offset of its token,
which is found by scanning again, so only an error pays for offsets; a
digit run too long for int() is a ParseError at its offset too, and so is
a '(' nested deeper than MAX_DEPTH (within Python's recursion limit).  Scalar
literals are Gaussian rationals times a power of zeta, so CLI arithmetic
stays exact.

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

from .algebra import AlgebraElement, PhaseContext, adjoint, multiply
from .scalars import ROOT_I, ROOT_ONE, Coeff, PhaseScalar, _over


class ParseError(ValueError):
    """A syntax error; offset is the character offset (a str index) it names."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


# -- tokenizer --------------------------------------------------------------

_TOKEN = re.compile(r"[0-9]+|\S")  # an ASCII digit run or a symbol, once _BAD finds nothing
_BAD = re.compile(r"[^\s0-9+\-*/()\[\],^Wzi]")
_ONE = PhaseScalar.one()._terms  # the terms of 1, a coefficient the product rule skips
MAX_DEPTH = 100  # nested parentheses; each level is four Python frames (expr to primary)


def _offset(text: str, index: int) -> int:
    """The character offset of token `index` of text, len(text) for the end."""
    starts = [m.start() for m in _TOKEN.finditer(text)]
    return starts[index] if index < len(starts) else len(text)


def _tokenize(text: str) -> list[str]:
    """The token texts, then '' for the end; a digit run is an int, any other a symbol."""
    bad = _BAD.search(text)
    if bad:
        raise ParseError(f"unexpected character {bad.group()!r}", bad.start())
    tokens = _TOKEN.findall(text)
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
        self.depth = 0  # parentheses open at self.pos

    def error(self, message: str, index: int) -> ParseError:
        """A ParseError at token `index`."""
        return ParseError(message, _offset(self.text, index))

    def expected(self, kind: str, index: int) -> ParseError:  # kind is a symbol or 'int'
        return self.error(f"expected {kind!r}, found {self.tokens[index] or 'end of input'!r}",
                          index)

    def parse(self) -> AlgebraElement:
        node = self.expr()
        if self.tokens[self.pos]:
            raise self.error(f"unexpected trailing input {self.tokens[self.pos]!r}", self.pos)
        return node

    def expr(self) -> AlgebraElement:
        node = self.term()
        while (op := self.tokens[self.pos]) in ("+", "-"):
            self.pos += 1
            node = node + self.term() if op == "+" else node - self.term()
        return node

    def term(self) -> AlgebraElement:
        node = self.factor()
        while self.tokens[self.pos] == "*":
            self.pos += 1
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
        toks = self.tokens
        while toks[self.pos] == "^" and toks[self.pos + 1] == "*":
            self.pos += 2
            node = adjoint(node)
        return node

    def primary(self) -> AlgebraElement:
        tok = self.tokens[self.pos]
        if tok == "W":
            return self.weyl_gen()
        if tok == "(":
            if self.depth == MAX_DEPTH:
                raise self.error(f"parentheses nested deeper than {MAX_DEPTH}", self.pos)
            self.pos, self.depth = self.pos + 1, self.depth + 1
            node = self.expr()
            if self.tokens[self.pos] != ")":
                raise self.expected(")", self.pos)
            self.pos, self.depth = self.pos + 1, self.depth - 1
            return node
        if tok == "-" or tok.isdigit():
            return self.scalar()
        raise self.error(f"expected a scalar, 'W[...]' or '(', found {tok or 'end of input'!r}",
                         self.pos)

    def weyl_gen(self) -> AlgebraElement:
        start = self.pos  # the 'W'
        if self.tokens[start + 1] != "[":
            raise self.expected("[", start + 1)
        x, i = self.signed_int(start + 2)
        coords = [x]
        while self.tokens[i] == ",":
            x, i = self.signed_int(i + 1)
            coords.append(x)
        if self.tokens[i] != "]":
            raise self.expected("]", i)
        self.pos = i + 1
        if len(coords) != self.dim:
            raise self.error(f"generator arity {len(coords)} does not match the context "
                             f"dimension {self.dim}", start)
        return AlgebraElement._of(self.dim, {tuple(coords): PhaseScalar.one()})

    def signed_int(self, i: int) -> tuple[int, int]:
        """The int at token i, and the index after it."""
        neg = self.tokens[i] == "-"
        i += neg
        tok = self.tokens[i]
        if not tok.isdigit():
            raise self.expected("int", i)
        try:
            val = int(tok)
        except ValueError:  # a digit run longer than sys.get_int_max_str_digits()
            raise self.error(f"integer of {len(tok)} digits is too long", i) from None
        return (-val if neg else val), i + 1

    def rational(self, i: int) -> tuple[Coeff, int]:
        """The rational at token i, an int when it is integral, and the index after it."""
        num, i = self.signed_int(i)
        if self.tokens[i] != "/":
            return num, i
        if self.tokens[i + 1] == "-":  # a denominator is DIGITS, unsigned
            raise self.expected("int", i + 1)
        den, i = self.signed_int(i + 1)
        if not den:
            raise self.error("zero denominator", i - 1)
        return _over(num, den), i

    def scalar(self) -> AlgebraElement:
        toks = self.tokens
        real, i = self.rational(self.pos)
        im = 0
        if toks[i] in ("+", "-") and (toks[i + 1] == "-" or toks[i + 1].isdigit()):
            # only a trailing 'i' binds ('+' | '-') rational into the scalar; else
            # expr reads that rational again as the next term, and raises alike
            part, j = self.rational(i + 1)
            if toks[j] == "i":
                im, i = (part if toks[i] == "+" else -part), j + 1
        elif toks[i] == "i":
            im, real = real, 0
            i += 1
        k = 0
        if toks[i] == "z":
            if toks[i + 1] != "^":
                raise self.expected("^", i + 1)
            k, i = self.signed_int(i + 2)
        self.pos = i
        terms = {(k, ROOT_ONE): real, (k, ROOT_I): im}  # PhaseScalar.gaussian(...).times_zeta(k)
        coeff = {key: c for key, c in terms.items() if c}
        return AlgebraElement._of(self.dim, {self.origin: PhaseScalar._of(coeff)} if coeff else {})


def parse_element(text: str, ctx: PhaseContext) -> AlgebraElement:
    """The element an expression stands for; raises ParseError with a character offset."""
    return _Parser(text, ctx).parse()


def to_element(a: AlgebraElement, ctx: PhaseContext) -> AlgebraElement:
    """The element itself, unchanged: parse_element already returns it."""
    return a


# -- canonical printer ------------------------------------------------------

def _scalar_str(re: Coeff, im: Coeff, zeta: int) -> str:
    s = str(re)  # an int, or a Fraction, which prints reduced 'a/b'
    if im:
        s += f"+{im}i" if im > 0 else f"-{-im}i"
    if zeta:
        s += f"z^{zeta}"
    return s


def format_element(a: AlgebraElement) -> str:
    """Canonical text: atoms sorted by (lattice point, zeta power).

    Each coefficient's stored terms are read by their root keys: the root 1
    gives the real part and the root i the imaginary part of the Gaussian
    rational at each zeta power.  Any other root raises ValueError, since the
    grammar has no literal for it."""
    bits = []
    for m, coeff in a.items():
        parts: dict[int, list[Coeff]] = {}
        for (k, r), c in coeff._terms.items():
            if r != ROOT_ONE and r != ROOT_I:
                raise ValueError(f"coefficient {coeff} is not expressible in the element grammar")
            parts.setdefault(k, [0, 0])[r == ROOT_I] = c
        gen = f"W[{','.join(map(str, m))}]"
        for k in sorted(parts):
            re, im = parts[k]
            bits.append(gen if (re, im, k) == (1, 0, 0) else f"{_scalar_str(re, im, k)} * {gen}")
    return " + ".join(bits) or "0"
