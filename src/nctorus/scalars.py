"""Exact scalar arithmetic for the twisted group algebra.

A scalar is a finite rational combination of unit phases

    sum_t  c_t * zeta^(k_t) * e(r_t),        e(r) := exp(2*pi*i*r),

with c_t rational, k_t an integer and r_t a rational in [0, 1).  Here
zeta = exp(i*h) is the deformation phase; because h/(2*pi) is irrational,
distinct powers of zeta never satisfy a rational relation, so the zeta part
is formal Laurent bookkeeping.  The root-of-unity part is kept canonical by
reduction modulo cyclotomic polynomials, which is what makes identities
such as sum_{l=1..d} e(j*l/d) = 0 hold exactly rather than to roundoff.

Gaussian rationals a + b*i embed as a + b*e(1/4).

Root keys.  Inside this module the root e(a/n) is keyed by the reduced
integer pair (a, n): 0 <= a < n and gcd(a, n) = 1, so e(0) is (0, 1) and i
is (1, 4).  Root sums, hashes and reductions then work on ints and tuples.
The public surface speaks Fraction: terms() yields the root as a Fraction,
sorted by value, and the constructors accept any rational r.

Coefficients.  A coefficient c is an int or a Fraction; both are exact.
Every constructor, every product and the quotient of / store an integral
value as an int.  Sums, negation and conjugation do not convert: int + int
stays an int, and a sum that meets a Fraction is a Fraction, possibly an
integral one (1/2 + 1/2).  An int and a Fraction of equal value compare,
hash and print alike, so the type never decides a value or a printed form.
_over, the division of the product kernels, takes one gcd g: g = den gives
the int quotient, any other g the reduced Fraction, whose _numerator and
_denominator slots (CPython 3.10-3.13) it sets directly, as 3.12's
Fraction._from_coprime_ints does.  Fraction has no
__dict__, so renamed slots would raise AttributeError, not give a wrong value.

Canonical form.  A PhaseScalar stores {(k, (a, n)): c} with no zero c, and
the roots of each zeta degree k form the bucket _reduce_roots returns:
reduced at the joint order n of the bucket's denominators, every root is
j/n with j < phi(n) (n <= 2 keeps only r = 0, n = 4 only 0 and 1/4).
Reduction is idempotent: the roots of a reduced bucket have a joint order
n' dividing n, and j/n = j'/n' with j' = j*n'/n < phi(n)*n'/n <= phi(n')
(the primes of n' are among those of n), so a second reduction leaves every
coefficient where it is.  The arithmetic relies on this: a degree that only
one operand of a sum has is copied unreduced, a bucket whose only root is 0
is already canonical, and multiplying by zeta^k only relabels degrees.

Products.  A product runs on integer numerators over common denominators,
the representation of FLINT's fmpq_poly.  Each operand is scaled once by
D, the lcm of its coefficient denominators, and each result coefficient is
divided once by D_left * D_right (_over): an exact quotient is an int, any
other one a reduced Fraction.  One gcd is paid per result term, not one
per pair, and each result coefficient is built once.
The cost moves into the width of the ints: every numerator carries the
bits of D, so operands with many coprime denominators make wide ints.

When every root of both operands is 1 or i, which holds for every
Gaussian rational times zeta^k (grammar literals, CLI eval input and
their products), the product runs on Gaussian ints: _gaussian
scales the operands and groups each scalar's terms by zeta degree into
one (re, im) int pair, _gaussian_into adds every (x + iy)(u + iv) into one
[re, im] bucket per degree, and _gaussian_terms divides each bucket once
into the terms re/D at the root 1 and im/D at i.  Q(i) has a unique
canonical form, so no bucket needs a reduction and no root key is added.
Any other root takes the general path: _integral scales each operand (D =
1 and no copy when every coefficient is already an int), _product_into
adds the int pair products, unreduced, into root buckets keyed by zeta
degree, and _canonical reduces each bucket once, after every pair is in,
then divides.  Cyclotomic reduction is linear over Q, so reducing D *
bucket and dividing by D gives the very terms that reducing the Fraction
bucket gives.  The two paths give the same terms on Q(i) operands; the
operands alone decide which one runs.  conjugate maps a Q(i) scalar
term by term as well (c*i*zeta^k goes to -c*i*zeta^(-k)).

algebra.multiply scales each of its two elements once and feeds all term
pairs of all its coefficient products into one set of buckets per
support point, so it builds no PhaseScalar per pair; _sum_of_products
does the same for a sum of scalar products, and PhaseScalar.__mul__ is
its one-pair case.  On Q(i) states.quadratic_form goes one step further:
it scales v once and the nonzero entries of H once, leaves every row total
of H v unreduced, adds conj(v_i) times each row total into one set of
Gaussian [re, im] pairs and divides once; other roots take
_sum_of_products per row and once more over the rows.  states.gram, which feeds it, reads each orbit value once and builds every
one-term entry, one gcd per unordered pair, through the trusted
PhaseScalar._of.  The matrix counterpart is states._psd_exact and
states.determinant_exact: they get their ints from _gaussian, which scales
the nonzero entries of a matrix once by the lcm of their denominators (a
zero entry is left at 0 and never read), and share one Bareiss step on
those Gaussian integers; a non-PSD witness is back-substituted on the same
ints, with exact divisions, so no GaussRat is multiplied or divided, and
only the results are built as GaussRat.

Printed form.  Equal values can have different canonical forms (1 + e(1/3)
is e(1/6)), so which operations built a scalar decides its printed form:
a bucket reduced at once is not always what reducing parts of it first and
then their sum gives.  A product's form depends only on the set of pair
products, never on the order they arrive in.  When every root lies in Q(i)
(every denominator divides 4) the canonical form is unique, so the form
does not depend on how the value was built at all.  Elsewhere it may:
with roots of order 3, say, states.quadratic_form reduces each row total
of H v first and then the sum of conj(v_i) times those totals, which can
print another form than the double sum reduced once, while the value is
the same.  Every total refute() certifies lies in Q(i).
"""
from __future__ import annotations

import numbers
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping

Root = tuple[int, int]  # (a, n) for e(a/n), reduced with 0 <= a < n
Coeff = int | Fraction  # an integral coefficient is stored as an int

ZERO = Fraction(0)
ROOT_ONE: Root = (0, 1)
ROOT_I: Root = (1, 4)


def as_fraction(value) -> Fraction:
    """The exact rational a number from outside the package stands for.

    This is the package's one rule for rationals: Fraction and int values
    are kept exactly; a float is read as its shortest decimal, so 0.1 means
    1/10 (the number its JSON text or repr shows, not its binary
    expansion); a str is parsed by Fraction ("1/3", "0.25"); another
    numbers.Integral (a numpy integer) is read as its int.  bool and every
    other type raise TypeError; a malformed string (such as "1/0"), inf or
    nan raises ValueError.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(repr(float(value)))  # float(): numpy scalars repr with their type
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return Fraction(int(value))
    raise TypeError(f"not an exact rational value: {value!r}")


def as_scalar(value) -> "PhaseScalar":
    """The exact scalar a number stands for: the package's one rule for
    scalars, which the operators follow too.  A PhaseScalar is kept; any
    other value is the Gaussian rational of GaussRat.from_number, whose parts
    follow as_fraction (0.1 is 1/10, 0.5j is i/2).  Other types raise
    TypeError; inf, nan and malformed strings raise ValueError."""
    if isinstance(value, PhaseScalar):
        return value
    g = GaussRat.from_number(value)
    return PhaseScalar.gaussian(g.re, g.im)


def _operand(value, read):
    """read(value) for an operator's other operand, or None, for which the
    operator returns NotImplemented: a str, or a type read rejects."""
    if isinstance(value, str):
        return None
    try:
        return read(value)
    except TypeError:
        return None


def _coefficient(value) -> Coeff:
    """as_fraction's rational, as an int when it is integral (the module
    docstring's coefficient rule); an int is returned as it is."""
    if type(value) is int:
        return value
    q = as_fraction(value)
    return q.numerator if q.denominator == 1 else q


# ---------------------------------------------------------------------------
# cyclotomic polynomials (ascending coefficient tuples, always monic)
# ---------------------------------------------------------------------------

def _poly_divexact(num: list[int], den: tuple[int, ...]) -> list[int]:
    # exact division by a monic integer polynomial
    num = list(num)
    dn = len(den) - 1
    quot = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c:
            quot[i - dn] = c
            for j in range(dn + 1):
                num[i - dn + j] -= c * den[j]
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return quot


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, ascending degree."""
    if n < 1:
        raise ValueError("cyclotomic order must be positive")
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_divexact(poly, cyclotomic(d))
    return tuple(poly)


def _reduce_roots(parts: dict[Root, Coeff]) -> dict[Root, Coeff]:
    """Canonicalize sum_r c_r * e(r) over root keys r = (a, n), by reduction
    mod the joint cyclotomic."""
    if len(parts) == 1:
        ((r, c),) = parts.items()
        if not r[0]:
            return {r: c} if c else {}
    dens = {m for (_, m), c in parts.items() if c}
    if not dens:
        return {}
    n = lcm(*dens)
    if n <= 2:
        # e(0) = 1, e(1/2) = -1
        total = 0
        for (a, _), c in parts.items():
            total += -c if a else c
        return {ROOT_ONE: total} if total else {}
    coeffs = [0] * n
    for (a, m), c in parts.items():
        if c:
            coeffs[a * (n // m)] = c  # distinct roots, distinct slots
    if n == 4:
        re, im = coeffs[0] - coeffs[2], coeffs[1] - coeffs[3]
        return {r: c for r, c in ((ROOT_ONE, re), (ROOT_I, im)) if c}
    phi = cyclotomic(n)
    deg = len(phi) - 1
    for i in range(n - 1, deg - 1, -1):
        c = coeffs[i]
        if c:
            coeffs[i] = 0
            for j in range(deg):
                if phi[j]:
                    coeffs[i - deg + j] -= c * phi[j]
    out = {}
    for j, c in enumerate(coeffs[:deg]):
        if c:
            g = gcd(j, n)
            out[j // g, n // g] = c
    return out


def _over(c: int, den: int) -> Coeff:
    """c / den for den >= 1, an int when den divides c (the coefficient
    rule), else the reduced Fraction, built with one gcd (module docstring)."""
    if den == 1:
        return c
    g = gcd(c, den)
    if g == den:
        return c // den
    out = object.__new__(Fraction)  # c // g and den // g are coprime, den // g > 1
    out._numerator, out._denominator = c // g, den // g
    return out


def _canonical(raw: dict[int, dict[Root, Coeff]], den: int = 1) -> dict[tuple[int, Root], Coeff]:
    """Flat canonical terms from root buckets keyed by zeta degree, each
    reduced coefficient divided by den (an int when den divides it)."""
    out: dict[tuple[int, Root], Coeff] = {}
    for k, bucket in raw.items():
        for r, c in _reduce_roots(bucket).items():
            out[k, r] = _over(c, den)
    return out


def _integral(term_dicts: list[Mapping]) -> tuple[int, list[Mapping]]:
    """(D, dicts times D): D is the lcm of every coefficient denominator, and
    each scaled dict has int coefficients only.  Dicts that are all ints
    already come back as they are, with D = 1."""
    den, scale = 1, False
    for terms in term_dicts:
        for c in terms.values():
            if type(c) is not int:
                den, scale = lcm(den, c.denominator), True
    if not scale:
        return 1, term_dicts
    return den, [{key: c.numerator * (den // c.denominator) for key, c in terms.items()}
                 for terms in term_dicts]


def _product_into(raw: dict[int, dict[Root, Coeff]], left: Mapping, right: Mapping,
                  shift: int = 0) -> dict[int, dict[Root, Coeff]]:
    """Add zeta^shift times the product of two canonical term dicts into raw.

    Every pair c1*zeta^k1*e(r1), c2*zeta^k2*e(r2) adds c1*c2 to the bucket
    of degree k1 + k2 + shift at root r1 + r2.  The callers pass dicts that
    _integral scaled, so every c1*c2 is int * int.  Nothing is reduced or
    divided here: the caller runs _canonical, with the product of the two
    scales, once all pairs are in.  Returns raw.
    """
    for (k1, (a1, n1)), c1 in left.items():
        k1 += shift
        for (k2, r2), c2 in right.items():
            if not a1:
                r = r2
            else:
                a2, n2 = r2
                if not a2:
                    r = a1, n1
                else:
                    n = lcm(n1, n2)
                    a = (a1 * (n // n1) + a2 * (n // n2)) % n
                    g = gcd(a, n)
                    r = a // g, n // g
            c = c1 * c2
            bucket = raw.get(k1 + k2)
            if bucket is None:
                raw[k1 + k2] = {r: c}
            else:
                prev = bucket.get(r)
                bucket[r] = c if prev is None else prev + c
    return raw


Gaussian = list[tuple[int, int, int]]  # (k, re, im): (re + i*im) * zeta^k, one per degree
_GAUSSIAN_ROOTS = frozenset((ROOT_ONE, ROOT_I))


def _gaussian(term_dicts: list[Mapping]) -> tuple[int, list[Gaussian]] | None:
    """(D, dicts times D as Gaussian ints) when every root is 1 or i, else None.

    D is the lcm of every coefficient denominator.  Each scaled dict becomes
    one (k, re, im) int triple per zeta degree k: its coefficient there is
    re + i*im.
    """
    den = 1
    for terms in term_dicts:
        for (_, r), c in terms.items():
            if r not in _GAUSSIAN_ROOTS:
                return None
            if type(c) is not int:
                den = lcm(den, c.denominator)
    out = []
    for terms in term_dicts:
        degrees: dict[int, list[int]] = {}
        for (k, (a, _)), c in terms.items():
            c = c * den if type(c) is int else c.numerator * (den // c.denominator)
            pair = degrees.get(k)
            if pair is None:
                degrees[k] = pair = [0, 0]
            pair[a] = c  # a is 0 for the root 1 and 1 for i
        out.append([(k, re, im) for k, (re, im) in degrees.items()])
    return den, out


def _gaussian_into(acc: dict[int, list[int]], left: Gaussian, right: Gaussian,
                   shift: int = 0) -> None:
    """Add zeta^shift times the product of two Gaussian-int scalars into the
    [re, im] buckets of acc, one per zeta degree.  Nothing is divided here:
    the caller runs _gaussian_terms once all products are in."""
    for k1, x, y in left:
        k1 += shift
        for k2, u, v in right:
            re, im = x * u - y * v, x * v + y * u
            pair = acc.get(k1 + k2)
            if pair is None:
                acc[k1 + k2] = [re, im]
            else:
                pair[0] += re
                pair[1] += im


def _gaussian_terms(acc: dict[int, list[int]], den: int) -> dict[tuple[int, Root], Coeff]:
    """The canonical terms of sum_k (re + i*im) / den * zeta^k: Q(i) has a
    unique canonical form, so no bucket needs a reduction."""
    out: dict[tuple[int, Root], Coeff] = {}
    for k, (re, im) in acc.items():
        if re:
            out[k, ROOT_ONE] = _over(re, den)
        if im:
            out[k, ROOT_I] = _over(im, den)
    return out


def _product_kernel(left: list[Mapping], right: list[Mapping]):
    """(den, left, right, into, finish) for products of left dicts by right dicts.

    Each side is scaled once by its common denominator, and den is the
    product of the two.  When every root of both sides is 1 or i, the sides
    come as _gaussian's triples, into is _gaussian_into and finish is
    _gaussian_terms; otherwise they come as _integral's dicts, into is
    _product_into and finish is _canonical.  into(buckets, x, y, shift) adds
    zeta^shift * x * y into one point's buckets, and finish(buckets, den)
    gives that point's canonical terms.
    """
    gl = _gaussian(left)
    gr = gl and _gaussian(right)
    if gr:
        return gl[0] * gr[0], gl[1], gr[1], _gaussian_into, _gaussian_terms
    (dl, left), (dr, right) = _integral(left), _integral(right)
    return dl * dr, left, right, _product_into, _canonical


def _sum_of_products(pairs: Iterable[tuple["PhaseScalar", "PhaseScalar"]]) -> "PhaseScalar":
    """sum x*y over the pairs, all in one set of buckets, each finished once
    (_product_kernel): the left and the right operands are scaled to ints by
    their own common denominators, so every pair product is int * int."""
    pairs = list(pairs)
    den, left, right, into, finish = _product_kernel([x._terms for x, _ in pairs],
                                                     [y._terms for _, y in pairs])
    raw: dict = {}
    for x, y in zip(left, right):
        into(raw, x, y)
    return PhaseScalar._of(finish(raw, den))


# ---------------------------------------------------------------------------
# PhaseScalar
# ---------------------------------------------------------------------------

class PhaseScalar:
    """Exact coefficient: a finite sum of c * zeta^k * e(r) terms.

    Instances are immutable and store no zero coefficients; the
    root-of-unity part of each zeta-degree is canonicalized on
    construction (the module docstring states the invariant).  Equality
    is decided by exact cancellation (lifting both sides to the joint
    cyclotomic field), so it is safe across mixed root orders.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, Fraction], Fraction] | Iterable = ()):
        raw: dict[int, dict[Root, Coeff]] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for (k, r), c in items:
            c = as_fraction(c)
            if not c:
                continue
            r = as_fraction(r) % 1
            r = r.numerator, r.denominator
            bucket = raw.setdefault(k, {})
            bucket[r] = bucket.get(r, ZERO) + c
        self._terms = {key: _coefficient(c) for key, c in _canonical(raw).items()}

    @classmethod
    def _of(cls, terms: dict[tuple[int, Root], Coeff]) -> "PhaseScalar":
        """Trusted constructor: terms must already be canonical, and are kept."""
        out = object.__new__(cls)
        out._terms = terms
        return out

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> "PhaseScalar":
        return _ZERO_SCALAR

    @staticmethod
    def one() -> "PhaseScalar":
        return _ONE_SCALAR

    @staticmethod
    def rational(value) -> "PhaseScalar":
        return PhaseScalar.zeta(0, value)

    @staticmethod
    def gaussian(re, im) -> "PhaseScalar":
        terms = {(0, ROOT_ONE): _coefficient(re), (0, ROOT_I): _coefficient(im)}
        return PhaseScalar._of({key: c for key, c in terms.items() if c})

    @staticmethod
    def zeta(k: int, coeff=1) -> "PhaseScalar":
        """coeff * zeta^k."""
        c = _coefficient(coeff)
        return PhaseScalar._of({(k, ROOT_ONE): c} if c else {})

    @staticmethod
    def root_of_unity(r, coeff=1) -> "PhaseScalar":
        """coeff * e(r) = coeff * exp(2*pi*i*r) for rational r."""
        return PhaseScalar({(0, r): coeff})

    # -- queries ------------------------------------------------------------

    def terms(self) -> Iterator[tuple[int, Fraction, Coeff]]:
        """Yield (zeta_exponent, root_of_unity, coefficient) triples, the root
        as a Fraction in [0, 1) and the coefficient an int or a Fraction (module
        docstring), sorted by exponent and then root value."""
        yield from sorted((k, Fraction(a, n), c) for (k, (a, n)), c in self._terms.items())

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- ring operations (the other operand is read by as_scalar) -----------

    def __add__(self, other):
        o = _operand(other, as_scalar)
        if o is None:
            return NotImplemented
        if not o._terms:
            return self
        if not self._terms:
            return o
        # only the degrees both sides have can need a new reduction
        shared = {k for k, _ in self._terms}.intersection(k for k, _ in o._terms)
        out: dict[tuple[int, Root], Coeff] = {}
        raw: dict[int, dict[Root, Coeff]] = {}
        for terms in (self._terms, o._terms):
            for key, c in terms.items():
                k, r = key
                if k in shared:
                    bucket = raw.setdefault(k, {})
                    prev = bucket.get(r)
                    bucket[r] = c if prev is None else prev + c
                else:
                    out[key] = c
        out.update(_canonical(raw))
        return PhaseScalar._of(out)

    __radd__ = __add__

    def __neg__(self):
        return PhaseScalar._of({key: -c for key, c in self._terms.items()})

    def __sub__(self, other):
        o = _operand(other, as_scalar)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = _operand(other, as_scalar)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = _operand(other, as_scalar)
        if o is None:
            return NotImplemented
        return _sum_of_products(((self, o),))

    __rmul__ = __mul__

    def times_zeta(self, k: int) -> "PhaseScalar":
        """self * zeta^k: the degrees shift by k and every bucket stays canonical."""
        if not k:
            return self
        return PhaseScalar._of({(j + k, r): c for (j, r), c in self._terms.items()})

    def __truediv__(self, other):
        """Division by a real number as_fraction reads (not a str)."""
        q = _operand(other, as_fraction)
        if q is None:
            return NotImplemented
        return PhaseScalar._of({key: _coefficient(c / q) for key, c in self._terms.items()})

    def conjugate(self) -> "PhaseScalar":
        """Complex conjugation: zeta^k -> zeta^(-k), e(r) -> e(-r).  On Q(i)
        the image is canonical already: c*zeta^k -> c*zeta^(-k), and
        c*i*zeta^k -> -c*i*zeta^(-k)."""
        if _GAUSSIAN_ROOTS.issuperset(r for _, r in self._terms):
            return PhaseScalar._of({(-k, r): -c if r[0] else c
                                    for (k, r), c in self._terms.items()})
        raw: dict[int, dict[Root, Coeff]] = {}
        for (k, (a, n)), c in self._terms.items():
            raw.setdefault(-k, {})[(n - a, n) if a else ROOT_ONE] = c
        return PhaseScalar._of(_canonical(raw))

    def __eq__(self, other) -> bool:
        try:
            o = _operand(other, as_scalar)
        except ValueError:  # inf or nan: no exact scalar equals it
            return False
        if o is None:
            return NotImplemented
        if self._terms == o._terms:
            return True
        return (self - o).is_zero

    __hash__ = None  # equal values may carry different canonical dicts

    def __repr__(self) -> str:
        return f"PhaseScalar({self})"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        bits = []
        for k, r, c in self.terms():
            factors = [str(c)]
            if k:
                factors.append(f"z^{k}")
            if r:
                factors.append(f"e({r})")
            bits.append("*".join(factors))
        return " + ".join(bits)


_ZERO_SCALAR = PhaseScalar()
_ONE_SCALAR = PhaseScalar.rational(1)


# ---------------------------------------------------------------------------
# Gaussian rationals (exact matrix entries, witnesses and determinants)
# ---------------------------------------------------------------------------

class GaussRat:
    """Gaussian rational a + b*i with exact Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = as_fraction(re)
        self.im = as_fraction(im)

    @classmethod
    def _of(cls, re: Fraction, im: Fraction) -> "GaussRat":
        """Trusted constructor: both parts are already Fractions."""
        out = object.__new__(cls)
        out.re = re
        out.im = im
        return out

    @staticmethod
    def from_number(value) -> "GaussRat":
        if isinstance(value, GaussRat):
            return value
        if isinstance(value, complex):
            return GaussRat(value.real, value.imag)
        return GaussRat(value)

    def __add__(self, other):  # the other operand is read by from_number
        o = _operand(other, GaussRat.from_number)
        if o is None:
            return NotImplemented
        return GaussRat._of(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussRat._of(-self.re, -self.im)

    def __sub__(self, other):
        o = _operand(other, GaussRat.from_number)
        if o is None:
            return NotImplemented
        return GaussRat._of(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = _operand(other, GaussRat.from_number)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = _operand(other, GaussRat.from_number)
        if o is None:
            return NotImplemented
        return GaussRat._of(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _operand(other, GaussRat.from_number)
        if o is None:
            return NotImplemented
        d = o.abs2()
        if not d:
            raise ZeroDivisionError("division by zero Gaussian rational")
        num = self * o.conjugate()
        return GaussRat._of(num.re / d, num.im / d)

    def conjugate(self) -> "GaussRat":
        return GaussRat._of(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def __eq__(self, other) -> bool:
        try:
            o = _operand(other, GaussRat.from_number)
        except ValueError:  # inf or nan: no Gaussian rational equals it
            return False
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:
        return f"GaussRat({self.re}, {self.im})"

    __hash__ = None
