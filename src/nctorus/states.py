"""States on the algebra: the trace, orbit-parameterized invariant-state
candidates, Gram matrices of a |-> omega(a* a), and positivity tests.

An invariant-state candidate is determined by real values p_j on the orbit
representatives (0, j); the identity carries p_0 = 1 and unlisted orbits
default to 0.  Keys and values are read by scalars.as_fraction, so a
float means its shortest decimal (0.2 is 1/5) and a string such as a JSON
object key is parsed.  A key must then be a positive integer
(lattice.as_integer: 1.5 is rejected, not truncated), and two keys naming
the same orbit ("1" and "01") are rejected.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from math import gcd as _gcd, isqrt

import numpy as np

from .algebra import AlgebraElement, PhaseContext, numeric_eval
from .lattice import as_integer, as_vector
from .scalars import GaussRat, PhaseScalar, _sum_of_products, as_fraction, as_scalar


class StateCandidate:
    """Candidate invariant state: finite map orbit index -> real value."""

    __slots__ = ("_values",)

    def __init__(self, orbit_values=None):
        if orbit_values is None:
            orbit_values = {}
        if not isinstance(orbit_values, Mapping):
            raise ValueError("orbit_values must map orbit indices to real values, "
                             f"got {type(orbit_values).__name__}")
        vals: dict[int, Fraction] = {}
        for key, p in orbit_values.items():
            try:
                j = as_integer(as_fraction(key))  # JSON keys are strings: "2" is orbit 2
                p = as_fraction(p)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"orbit {key!r}: {exc}") from exc
            if j < 1:
                raise ValueError(f"orbit index must be a positive integer, got {j}")
            if j in vals:
                raise ValueError(f"orbit {j} is given twice (key {key!r})")
            vals[j] = p  # explicit zeros stay declared
        self._values = vals

    def value(self, j: int) -> Fraction:
        if j == 0:
            return Fraction(1)
        return self._values.get(j, Fraction(0))

    def declared_orbits(self) -> tuple[int, ...]:
        return tuple(sorted(self._values))

    def items(self):
        return iter(sorted(self._values.items()))

    def to_json(self) -> dict:
        """Values as floats where the float reads back exact, else as "a/b"."""
        return {"orbit_values": {str(j): _json_rational(p) for j, p in self.items()}}

    @classmethod
    def from_json(cls, obj: dict) -> "StateCandidate":
        if not isinstance(obj, dict) or "orbit_values" not in obj:
            raise ValueError('state JSON must be {"orbit_values": {...}}')
        return cls(obj["orbit_values"])

    @classmethod
    def loads(cls, text: str) -> "StateCandidate":
        return cls.from_json(json.loads(text, parse_float=Fraction))

    def __eq__(self, other):
        return isinstance(other, StateCandidate) and self._values == other._values

    def __repr__(self):
        return f"StateCandidate({dict(self.items())!r})"


def _json_rational(p: Fraction):
    try:
        f = float(p)
    except OverflowError:
        return str(p)
    return f if as_fraction(f) == p else str(p)


def trace_state() -> StateCandidate:
    """The trace: 1 on the identity, 0 on every other generator."""
    return StateCandidate({})


def eval_generator(state: StateCandidate, m) -> Fraction:
    """omega(W_m) = p_gcd(m); constant on SL(2, Z) orbits by construction."""
    v = as_vector(m)
    if len(v) != 2:
        raise ValueError("generator evaluation is defined for genus 1")
    if v == (0, 0):
        return Fraction(1)
    return state.value(_gcd(v[0], v[1]))


def evaluate(state: StateCandidate, a: AlgebraElement, ctx: PhaseContext) -> complex:
    """omega extended by linearity, rounded once: numeric_eval of the exact
    total evaluate_exact(state, a) at ctx."""
    return numeric_eval(evaluate_exact(state, a), ctx)


def evaluate_exact(state: StateCandidate, a: AlgebraElement) -> PhaseScalar:
    """omega extended by linearity, as an exact scalar: every p(m) * a_m term
    goes into one set of root buckets, each reduced once (the rule of
    algebra.multiply), so the result does not depend on the term order."""
    return _sum_of_products((c, PhaseScalar.rational(p)) for m, c in a._terms.items()
                            if (p := eval_generator(state, m)))


# ---------------------------------------------------------------------------
# Hermitian matrices
# ---------------------------------------------------------------------------

class HermitianMatrix:
    """Square n x n matrix, n >= 1, of exact PhaseScalar entries in a tuple of
    row tuples.  Every entry is read once by scalars.as_scalar, so a number
    is the Gaussian rational of its decimal value: 0.1 is 1/10.
    rounded(ctx) gives the numeric rows.  The exact keyword is accepted only
    as True."""

    __slots__ = ("dim", "_rows")

    def __init__(self, rows, exact: bool = True):
        if exact is not True:
            raise TypeError(f"HermitianMatrix holds exact entries only, got exact={exact!r}")
        data = tuple(tuple(map(as_scalar, row)) for row in rows)
        if not data:
            raise ValueError("matrix must have at least one row")
        if any(len(r) != len(data) for r in data):
            raise ValueError("matrix must be square")
        self.dim = len(data)
        self._rows = data

    def entry(self, i: int, j: int) -> PhaseScalar:
        return self._rows[i][j]

    def rows(self) -> tuple[tuple[PhaseScalar, ...], ...]:
        return self._rows

    def rounded(self, ctx: PhaseContext | None = None) -> tuple[tuple[complex, ...], ...]:
        """The rows with every entry through numeric_eval at ctx (which may be
        None when no entry carries a zeta power)."""
        return tuple(tuple(numeric_eval(c, ctx) for c in row) for row in self._rows)

    def to_numpy(self, ctx: PhaseContext | None = None) -> np.ndarray:
        return np.array(self.rounded(ctx), dtype=complex)

    def is_hermitian(self) -> bool:
        """H = H^dagger, exactly."""
        r, n = self._rows, self.dim
        return all(r[i][j] == r[j][i].conjugate() for i in range(n) for j in range(i, n))

    def gaussian_entries(self) -> list[list[GaussRat]] | None:
        """Entries as Gaussian rationals, or None if any entry is not one."""
        parts = [[c.as_gaussian() for c in row] for row in self._rows]
        if any(None in row for row in parts):
            return None
        return [[GaussRat._of(*g) for g in row] for row in parts]


def gram(state: StateCandidate, gens, ctx: PhaseContext) -> HermitianMatrix:
    """Exact Gram matrix H_ij = omega(W_i^* W_j) = zeta^(-sigma(m_i, m_j)) * p(m_j - m_i).

    As in algebra.multiply, m_i^T Sigma is formed once per row, and p is read
    from the orbit gcd(m_j - m_i); rounded(ctx) gives the numeric rows.
    """
    if ctx.genus != 1:
        raise ValueError("Gram matrices are built for genus 1")
    vecs = [as_vector(g) for g in gens]
    if any(len(v) != 2 for v in vecs):
        raise ValueError("generators must be lattice points of Z^2")
    if len(set(vecs)) != len(vecs):
        raise ValueError("duplicate generators give a degenerate Gram request")
    (s00, s01), (s10, s11) = ctx.sigma.matrix
    zero = PhaseScalar.zero()
    rows = []
    for x, y in vecs:
        r0, r1 = x * s00 + y * s10, x * s01 + y * s11  # m_i^T Sigma
        row = []
        for u, v in vecs:
            p = state.value(_gcd(u - x, v - y))
            row.append(PhaseScalar.zeta(-(r0 * u + r1 * v), p) if p else zero)
        rows.append(row)
    return HermitianMatrix(rows)


def quadratic_form(H: HermitianMatrix, v) -> PhaseScalar:
    """The exact total v^dagger H v; numeric_eval(total, ctx).real rounds it.

    The vector is read as the matrix is (scalars.as_scalar).  Each row total
    sum_j H_ij v_j goes into one set of root buckets, reduced once, and the
    products conj(v_i) times row total i go into another, so every entry is
    multiplied once.
    """
    if len(v) != H.dim:
        raise ValueError(f"dimension mismatch: matrix is {H.dim}x{H.dim}, vector has length {len(v)}")
    vec = list(map(as_scalar, v))
    rows = [_sum_of_products((c, vj) for c, vj in zip(row, vec) if c and vj) for row in H.rows()]
    return _sum_of_products((vi.conjugate(), r) for vi, r in zip(vec, rows) if vi and r)


# ---------------------------------------------------------------------------
# positivity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PsdVerdict:
    """Outcome of a positivity test.  Non-PSD comes with an explicit witness
    of GaussRat entries and the exact Fraction value of its quadratic form,
    which is at most -1 - tol*|w|^2 < -tol (see is_psd)."""

    is_psd: bool
    witness: tuple | None = None
    value: Fraction | None = None

    def __bool__(self):
        return self.is_psd


def as_tolerance(tol) -> Fraction:
    """A tolerance as the exact rational it stands for (scalars.as_fraction:
    1e-9 is 1/10^9).  nan, inf and negative values raise ValueError."""
    if not 0 <= tol < math.inf:
        raise ValueError(f"tolerance must be a finite number >= 0, got {tol!r}")
    return as_fraction(tol)


def is_psd(H: HermitianMatrix, tol=0) -> PsdVerdict:
    """Whether H + tol*I is positive semidefinite, decided by exact pivoted
    elimination (_psd_exact), with witness extraction.

    Entries with zeta powers raise ValueError: round them first, as in
    HermitianMatrix(H.rounded(ctx)).  H must be Hermitian within tol,
    |H_ij - conj(H_ji)| <= tol, and is read from its lower triangle with the
    real part on the diagonal; the default tol = 0 asks for H = H^dagger
    exactly and decides H itself.  A non-PSD witness w reports its value on
    the unshifted matrix, value - tol*|w|^2 <= -1 - tol*|w|^2 < -tol.  A tol
    that is nan, infinite or negative raises ValueError.
    """
    shift = as_tolerance(tol)
    entries = H.gaussian_entries()
    if entries is None:
        raise ValueError("is_psd needs Gaussian-rational entries: round zeta powers first")
    if not _hermitian_within(entries, shift):
        raise ValueError("matrix is not Hermitian")
    lower = [row[:i] + [GaussRat(row[i].re + shift)] for i, row in enumerate(entries)]
    verdict = _psd_exact(lower)
    if verdict.is_psd:
        return verdict
    value = verdict.value - shift * sum(w.abs2() for w in verdict.witness)
    return PsdVerdict(False, verdict.witness, value)


def _hermitian_within(entries: list[list[GaussRat]], tol: Fraction) -> bool:
    # |H_ij - conj(H_ji)| <= tol for i <= j; at tol = 0 compare parts, negating only nonzero ones
    n = len(entries)
    pairs = ((entries[i][j], entries[j][i]) for i in range(n) for j in range(i, n))
    if not tol:
        return all(a.re == b.re and (a.im == -b.im if a.im else not b.im) for a, b in pairs)
    bound = tol * tol
    return all((a.re - b.re) ** 2 + (a.im + b.im) ** 2 <= bound for a, b in pairs)


def _psd_exact(entries: list[list[GaussRat]]) -> PsdVerdict:
    # entries is Hermitian (is_psd checked it) and every update keeps the
    # residual s Hermitian, so only its lower triangle (j <= i) is read, and
    # entries may hold just that triangle
    n = len(entries)
    s = [list(row[:i + 1]) for i, row in enumerate(entries)]
    lcols: list[list[GaussRat]] = [[GaussRat(0)] * n for _ in range(n)]  # lcols[k][i] = L[i][k]
    for k in range(n):
        d = s[k][k]
        if d.re < 0:
            y = [GaussRat(0)] * n
            y[k] = GaussRat(1)
            return _exact_witness(lcols, y, d.re, n, k)
        if d.re == 0:
            j = next((j for j in range(k + 1, n) if s[j][k]), None)
            if j is None:
                continue
            # indefinite: a zero pivot with residual coupling s_kj = conj(s_jk)
            c = s[j][j].re
            alpha = GaussRat(-(c + 1)) / (2 * s[j][k])
            y = [GaussRat(0)] * n
            y[k] = alpha
            y[j] = GaussRat(1)
            return _exact_witness(lcols, y, Fraction(-1), n, k)
        col = lcols[k]
        for i in range(k + 1, n):
            col[i] = s[i][k] / d
        # rank-1 update s_ij -= L_ik d conj(L_jk) = s_ik conj(L_jk), zero factors skipped
        for i in range(k + 1, n):
            a = s[i][k]
            if not a:
                continue
            row = s[i]
            for j in range(k + 1, i + 1):
                if col[j]:
                    row[j] = row[j] - a * col[j].conjugate()
    return PsdVerdict(True)


def _exact_witness(lcols, y, value: Fraction, n: int, upto: int) -> PsdVerdict:
    # solve L^H v = y by back-substitution, then scale so v^H H v <= -1
    v = list(y)
    for i in range(upto - 1, -1, -1):
        acc = y[i]
        for j in range(i + 1, n):
            if v[j]:
                acc = acc - lcols[i][j].conjugate() * v[j]
        v[i] = acc
    scale = isqrt(int(math.ceil(1 / -value))) + 1
    v = [x * scale for x in v]
    return PsdVerdict(False, tuple(v), value * scale * scale)


def determinant_exact(H: HermitianMatrix) -> GaussRat:
    """Exact determinant by fraction elimination; entries must be Gaussian
    rationals (no unresolved phases)."""
    entries = H.gaussian_entries()
    if entries is None:
        raise ValueError("exact determinant requires Gaussian-rational entries")
    n = len(entries)
    a = [row[:] for row in entries]
    det = GaussRat(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return GaussRat(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det = det * a[k][k]
        inv = GaussRat(1) / a[k][k]
        for i in range(k + 1, n):
            if a[i][k]:
                f = a[i][k] * inv
                for j in range(k + 1, n):  # column k is never read again
                    a[i][j] = a[i][j] - f * a[k][j]
    return det
