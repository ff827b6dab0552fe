"""The twisted group algebra C[Z^(2g)] with Weyl generators.

The product rule on generators is W_n * W_m = zeta^sigma(n, m) * W_(n+m)
with zeta = exp(i*h); the involution is W_m^* = W_(-m).  Elements are
finitely supported maps from lattice points to exact PhaseScalar
coefficients.  Everything here is a pure function on immutable values.
"""

from __future__ import annotations

import cmath
import math
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, mul
from typing import Iterator, Mapping

from . import circle
from .lattice import SIGMA2, SkewForm, Vec, as_vector
from .scalars import (ROOT_I, ROOT_ONE, PhaseScalar, _operand, _product_kernel, as_fraction,
                      as_scalar)


@dataclass(frozen=True)
class PhaseContext:
    """Deformation phase h and the skew form; hbar = h/(2*pi) must be
    irrational, which holds for every nonzero rational (or float) h."""

    h: Fraction = Fraction(1)
    sigma: SkewForm = field(default_factory=lambda: SIGMA2)

    def __post_init__(self):
        object.__setattr__(self, "h", as_fraction(self.h))
        if self.h == 0:
            raise ValueError("phase parameter h must be nonzero")

    @property
    def dimension(self) -> int:
        return self.sigma.dimension

    @property
    def genus(self) -> int:
        return self.sigma.genus


class AlgebraElement:
    """A finite linear combination of Weyl generators; coefficients, and the
    scalars of *, are read by scalars.as_scalar."""

    __slots__ = ("_dim", "_terms")

    def __init__(self, dim: int, terms: Mapping[Vec, PhaseScalar] | None = None):
        self._dim = dim
        clean: dict[Vec, PhaseScalar] = {}
        for m, c in (terms or {}).items():
            v = as_vector(m)
            if len(v) != dim:
                raise ValueError(f"support vector {v} has length {len(v)}, expected {dim}")
            c = as_scalar(c)
            if c:
                clean[v] = clean[v] + c if v in clean else c
        self._terms = {m: c for m, c in clean.items() if c}

    @classmethod
    def _of(cls, dim: int, terms: dict[Vec, PhaseScalar]) -> "AlgebraElement":
        """Trusted constructor: keys are distinct integer tuples of length dim
        and values nonzero PhaseScalars; terms is kept as it is.  A caller
        whose coefficients can cancel drops the zeros itself."""
        out = object.__new__(cls)
        out._dim = dim
        out._terms = terms
        return out

    @property
    def dimension(self) -> int:
        return self._dim

    def support(self) -> tuple[Vec, ...]:
        return tuple(sorted(self._terms))

    def coefficient(self, m) -> PhaseScalar:
        return self._terms.get(as_vector(m), PhaseScalar.zero())

    def items(self) -> Iterator[tuple[Vec, PhaseScalar]]:
        return iter(sorted(self._terms.items()))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        if other._dim != self._dim:
            raise ValueError("dimension mismatch")
        merged = dict(self._terms)
        for m, c in other._terms.items():
            c = merged[m] + c if m in merged else c
            if c:
                merged[m] = c
            else:  # m cancelled, so it was in merged: other stores no zero
                del merged[m]
        return AlgebraElement._of(self._dim, merged)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement._of(self._dim, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, scalar) -> "AlgebraElement":
        s = _operand(scalar, as_scalar)
        if s is None:
            return NotImplemented
        # no c * s is 0 for s != 0: Laurent polynomials over a field have no zero divisors
        terms = {m: c * s for m, c in self._terms.items()} if s else {}
        return AlgebraElement._of(self._dim, terms)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        if self._dim != other._dim:
            return False
        theirs = other._terms
        if self._terms.keys() != theirs.keys():
            return False
        # equal canonical terms are equal values; only differing ones need
        # PhaseScalar's cancellation, as 1 + e(1/3) and e(1/6) do
        return all(c._terms == (d := theirs[m])._terms or c == d for m, c in self._terms.items())

    __hash__ = None

    def __repr__(self) -> str:
        if not self._terms:
            return "AlgebraElement(0)"
        bits = [f"({c})*W{list(m)}" for m, c in self.items()]
        return "AlgebraElement(" + " + ".join(bits) + ")"


def weyl(m) -> AlgebraElement:
    """The Weyl generator W_m."""
    v = as_vector(m)
    return AlgebraElement(len(v), {v: PhaseScalar.one()})


def multiply(a: AlgebraElement, b: AlgebraElement, ctx: PhaseContext) -> AlgebraElement:
    """Bilinear extension of W_n W_m = zeta^sigma(n, m) W_(n+m).

    Every term pair of every coefficient pair goes, unreduced, into the
    buckets of its support point n + m, shifted by zeta^(n^T Sigma m); each
    (support point, zeta degree) bucket is then finished once.  When every
    root of both elements is 1 or i, a bucket is one Gaussian-int pair
    [re, im] and needs no reduction; otherwise it holds roots that
    _canonical reduces.  No PhaseScalar is built per pair, and the result's
    canonical form depends only on the set of pair products (scalars module
    docstring).
    """
    d = ctx.dimension
    if a.dimension != d or b.dimension != d:
        raise ValueError(f"dimension mismatch: elements of dimension {a.dimension}, "
                         f"{b.dimension} in a {d}-dimensional context")
    sig = ctx.sigma.matrix
    den, left, right_terms, into, finish = _product_kernel(
        [c._terms for c in a._terms.values()], [c._terms for c in b._terms.values()])
    right = list(zip(b._terms, right_terms))
    raw: dict[Vec, dict] = defaultdict(dict)  # a point's buckets are made when it first occurs
    for n, cn in zip(a._terms, left):
        row = [sum(n[i] * sig[i][j] for i in range(d)) for j in range(d)]  # n^T Sigma
        for m, cm in right:
            key = tuple(map(add, n, m))
            into(raw[key], cn, cm, sum(map(mul, row, m)))
    return AlgebraElement._of(d, {key: PhaseScalar._of(terms) for key, buckets in raw.items()
                                  if (terms := finish(buckets, den))})  # a point may cancel


def adjoint(a: AlgebraElement) -> AlgebraElement:
    """The involution: coefficients conjugated, supports negated."""
    return AlgebraElement._of(a.dimension,
                              {tuple(-x for x in m): c.conjugate() for m, c in a._terms.items()})


def numeric_eval(s: PhaseScalar, ctx: PhaseContext | None) -> complex:
    """An exact scalar as a complex float at the context's h: the one place
    the package rounds an exact value.

    A term c or c*i rounds to exactly float(c) or float(c)*i.  Other phases
    are reduced to their exact 256-bit residue first (circle.zeta_residue),
    all from one hbar slice taken at the largest |k|, and circle.signed_angle
    turns each into the float circle.phase_angle gives, at any exponent size.
    The stored terms are read in the order they were stored, and a root
    other than 1 becomes a Fraction only for its phase.  Each component is
    the math.fsum of the rounded terms, which is correctly rounded, so the
    result does not depend on the term order: the same terms stored in any
    order give the same complex, bit for bit.  Conjugate terms cancel
    exactly, so a real total has imaginary part 0.0.  ctx may be None when
    no term has a zeta power.
    """
    top = max((abs(k) for k, _ in s._terms), default=0)
    if top and ctx is None:
        raise ValueError("a PhaseContext is needed to evaluate zeta powers")
    held = circle.hbar_slice(ctx.h, top) if top else None
    parts = []
    for (k, r), c in s._terms.items():
        if not k and (r == ROOT_ONE or r == ROOT_I):
            parts.append(complex(0, float(c)) if r[0] else float(c))
            continue
        fixed = circle.zeta_residue(ctx.h, k, held) if k else 0
        if r[0]:
            fixed += circle.to_fixed(Fraction(*r))
        parts.append(float(c) * cmath.exp(1j * circle.signed_angle(fixed)))
    return complex(math.fsum(z.real for z in parts), math.fsum(z.imag for z in parts))
