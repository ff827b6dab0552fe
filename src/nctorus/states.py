"""States on the algebra: orbit-parameterized invariant-state candidates
(the trace is StateCandidate({}), with no declared orbit), Gram matrices
of a |-> omega(a* a), and positivity tests.

An invariant-state candidate is determined by real values p_j on the orbit
representatives (0, j); the identity carries p_0 = 1 and unlisted orbits
default to 0.  Keys and values are read by scalars.as_fraction, so a
float means its shortest decimal (0.2 is 1/5) and a string such as a JSON
object key is parsed.  A key must then be a positive integer
(lattice.as_integer: 1.5 is rejected, not truncated), and two keys naming
the same orbit ("1" and "01") are rejected.

gram visits each unordered generator pair once, except where the
generators after the first form an arithmetic progression, as the labels
Theta_j xi of a refutation family do: there the matrix past row 0 is
Toeplitz, and gram builds it once per distance.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from math import gcd as _gcd, isqrt, lcm

import numpy as np

from . import scalars  # quadratic_form looks its product kernels up here, where tests count them
from .algebra import AlgebraElement, PhaseContext, numeric_eval
from .lattice import as_integer, as_vector
from .scalars import (
    _GAUSSIAN_ROOTS,
    ROOT_ONE,
    ZERO,
    GaussRat,
    PhaseScalar,
    _coefficient,
    _gaussian,
    _gaussian_terms,
    _sum_of_products,
    as_fraction,
    as_scalar,
)

_ONE = Fraction(1)  # omega(W_0); Fractions are immutable, so one instance serves every call


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
            return _ONE
        return self._values.get(j, ZERO)

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


def eval_generator(state: StateCandidate, m) -> Fraction:
    """omega(W_m) = p_gcd(m); constant on SL(2, Z) orbits by construction."""
    v = as_vector(m)
    if len(v) != 2:
        raise ValueError("generator evaluation is defined for genus 1")
    if v == (0, 0):
        return _ONE
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
    row tuples.  The constructor reads every entry once by scalars.as_scalar,
    so a number is the Gaussian rational of its decimal value: 0.1 is 1/10.
    gram() builds its rows through the trusted _of, which re-reads nothing.
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

    @classmethod
    def _of(cls, rows: tuple[tuple[PhaseScalar, ...], ...]) -> "HermitianMatrix":
        """Trusted constructor: rows must already be a nonempty square tuple of
        PhaseScalar row tuples, and are kept."""
        out = object.__new__(cls)
        out.dim = len(rows)
        out._rows = rows
        return out

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


def gram(state: StateCandidate, gens, ctx: PhaseContext) -> HermitianMatrix:
    """Exact Gram matrix H_ij = omega(W_i^* W_j) = zeta^(-sigma(m_i, m_j)) * p(m_j - m_i).

    Each declared orbit value is read once, as a coefficient (an int when it
    is integral, the scalars coefficient rule).  As in algebra.multiply,
    m_i^T Sigma is formed once per row.  Each unordered pair i < j is
    visited once: the gcd is symmetric and sigma is skew (SkewForm checks
    it), so one gcd(m_j - m_i) and one exponent e = sigma(m_i, m_j) give
    c * zeta^(-e) at (i, j) and c * zeta^e at (j, i); the diagonal is
    omega(W_0) = 1 at exponent 0.  A gcd above the largest declared orbit is
    skipped before the coefficient lookup, so a wide int is never hashed.
    Each nonzero entry is the single term c * zeta^e, which is already
    canonical: the entries and the rows go through the trusted constructors
    PhaseScalar._of and HermitianMatrix._of, and nothing is read twice.
    rounded(ctx) gives the numeric rows.

    When n >= 4 and the generators after the first are an arithmetic
    progression m_j = m_1 + (j-1) s (_progression_step), as on a Theta_j
    family, only row 0 is filled by pairs.  For i, j >= 1, m_j - m_i =
    (j-i) s, so its gcd is |j-i| gcd(s), and sigma(m_i, m_j) = (j-i)
    sigma(m_1, s), as sigma is bilinear and sigma(s, s) = 0: the rest is
    Toeplitz.  Its band is built once per distance k = 1..n-2, one entry
    pair from q_(k gcd(s)) and exponent k sigma(m_1, s), stopping past the
    largest declared orbit, and row i >= 1 is H_i0 followed by a slice of
    it.  The entries are immutable, so the rows share them.  That is n gcds
    in place of n(n-1)/2.
    """
    if ctx.genus != 1:
        raise ValueError("Gram matrices are built for genus 1")
    vecs = [as_vector(g) for g in gens]
    if any(len(v) != 2 for v in vecs):
        raise ValueError("generators must be lattice points of Z^2")
    if len(set(vecs)) != len(vecs):
        raise ValueError("duplicate generators give a degenerate Gram request")
    if not vecs:
        raise ValueError("matrix must have at least one row")
    coeff = {j: _coefficient(p) for j, p in state.items() if p}
    top = max(coeff, default=0)
    (s00, s01), (s10, s11) = ctx.sigma.matrix
    zero, one = PhaseScalar.zero(), PhaseScalar._of({(0, ROOT_ONE): 1})
    n, step = len(vecs), _progression_step(vecs)
    rows = [[zero] * n for _ in vecs]
    for i, (x, y) in enumerate(vecs[:1] if step else vecs):  # a progression: row 0 alone
        r0, r1 = x * s00 + y * s10, x * s01 + y * s11  # m_i^T Sigma
        rows[i][i] = one
        for j, (u, v) in enumerate(vecs[i + 1:], i + 1):
            q = _gcd(u - x, v - y)
            c = coeff.get(q) if q <= top else None
            if c:
                e = r0 * u + r1 * v  # sigma(m_i, m_j)
                rows[i][j], rows[j][i] = (PhaseScalar._of({(-e, ROOT_ONE): c}),
                                          PhaseScalar._of({(e, ROOT_ONE): c}))
    if step:
        (x, y), (u, v) = vecs[1], step
        g, t = _gcd(u, v), (x * s00 + y * s10) * u + (x * s01 + y * s11) * v  # sigma(m_1, s)
        upper, lower = [zero] * (n - 1), [zero] * (n - 1)  # H_(i, i+k) and H_(i+k, i) at k
        for k in range(1, min(n - 1, top // g + 1)):
            if c := coeff.get(k * g):
                upper[k], lower[k] = (PhaseScalar._of({(-k * t, ROOT_ONE): c}),
                                      PhaseScalar._of({(k * t, ROOT_ONE): c}))
        band = lower[:0:-1] + [one] + upper[1:]  # distances 2-n .. n-2: H_ij at n-2+j-i
        for i in range(1, n):
            rows[i][1:] = band[n - 1 - i:2 * n - 2 - i]
    return HermitianMatrix._of(tuple(map(tuple, rows)))


def _progression_step(vecs: list[tuple[int, int]]) -> tuple[int, int] | None:
    """s when n >= 4 and vecs[1:] is m_1 + (j-1) s, j = 1..n-1, else None.
    The generators are distinct, so s is never (0, 0)."""
    if len(vecs) < 4:
        return None
    (x, y), (u, v) = vecs[1], vecs[2]
    s0, s1 = u - x, v - y
    if all(m == (x + j * s0, y + j * s1) for j, m in enumerate(vecs[3:], 2)):
        return s0, s1
    return None


def quadratic_form(H: HermitianMatrix, v) -> PhaseScalar:
    """The exact total v^dagger H v; numeric_eval(total, ctx).real rounds it.

    The vector is read as the matrix is (scalars.as_scalar).  Zero entries,
    and the rows and columns of zero v entries, are skipped.  When every
    root of v and of those entries is 1 or i, as in every refute() total,
    v is scaled to Gaussian ints once by D_v (scalars._gaussian) and the
    entries once by D_H, the lcms of their denominators.  Row by row, each
    H_ij v_j is added inline, unreduced, into one [re, im] pair per zeta
    degree, conj(v_i) times that row total goes into the total's pairs
    (scalars._gaussian_into), and the total is divided once by D_v^2 D_H
    (_gaussian_terms): every entry is multiplied once, only one row's pairs
    are held at a time, and Q(i)'s canonical form is unique, so the stored
    terms are too.  With any other root each row total is its own
    _sum_of_products, and so is the sum of conj(v_i) times the row totals:
    the per-row reduction of the scalars module's printed-form rule.
    """
    if len(v) != H.dim:
        raise ValueError(f"dimension mismatch: matrix is {H.dim}x{H.dim}, vector has length {len(v)}")
    vec = list(map(as_scalar, v))
    support = [j for j, x in enumerate(vec) if x._terms]
    rows = [(i, [(c, j) for j in support if (c := row[j])._terms])
            for i, row in enumerate(H.rows()) if vec[i]._terms]
    entries = [c._terms for _, row in rows for c, _ in row]
    gv = _gaussian([x._terms for x in vec])
    if gv and {r for terms in entries for _, r in terms} <= _GAUSSIAN_ROOTS:
        (dv, vs), dh = gv, lcm(*{c.denominator for terms in entries for c in terms.values()
                                 if type(c) is not int})
        total: dict = {}
        for i, row in rows:
            raw: dict = {}
            for entry, j in row:
                for (k1, (a, _)), c in entry._terms.items():  # c * i^a * zeta^k1, times D_H
                    c = c * dh if type(c) is int else c.numerator * (dh // c.denominator)
                    for k2, x, y in vs[j]:
                        re, im = (-c * y, c * x) if a else (c * x, c * y)
                        acc = raw.get(k1 + k2)
                        if acc is None:
                            raw[k1 + k2] = [re, im]
                        else:
                            acc[0] += re
                            acc[1] += im
            if raw:
                scalars._gaussian_into(total, [(-k, x, -y) for k, x, y in vs[i]],
                                       [(k, re, im) for k, (re, im) in raw.items()])
        return PhaseScalar._of(_gaussian_terms(total, dv * dv * dh))
    return _sum_of_products((vec[i].conjugate(), _sum_of_products((c, vec[j]) for c, j in row))
                            for i, row in rows if row)


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
    """A tolerance as the exact rational it stands for, read first by
    scalars.as_fraction (1e-9 is 1/10^9, "1/10" is 1/10).  nan, inf,
    negative values and malformed strings raise ValueError; a bool or
    another type that is no number raises as_fraction's TypeError."""
    try:
        value = as_fraction(tol)
        if value >= 0:
            return value
    except ValueError:  # nan, inf or a malformed string
        pass
    raise ValueError(f"tolerance must be a finite number >= 0, got {tol!r}")


def is_psd(H: HermitianMatrix, tol=0) -> PsdVerdict:
    """Whether H + tol*I is positive semidefinite, decided by fraction-free
    elimination on Gaussian integers (_psd_exact), with witness extraction.

    The nonzero entries go straight to the Gaussian ints of D * (H + tol*I)
    (_hermitian_ints, D also clearing tol's denominator; a zero entry is
    never read), and the witness is back-substituted on those ints: only its
    entries are built as GaussRat.  Entries with zeta powers raise
    ValueError: round them first, as in HermitianMatrix(H.rounded(ctx)).  H
    must be Hermitian within tol, |H_ij - conj(H_ji)| <= tol, checked on the
    nonzero cells of those ints, and is read from its lower triangle with
    the real part on the diagonal; the default tol = 0 asks for H = H^dagger
    exactly and decides H itself.  A non-PSD witness w reports its value on
    the unshifted matrix, value - tol*|w|^2 <= -1 - tol*|w|^2 < -tol.  tol is
    read by as_tolerance: a tol that is nan, infinite or negative raises
    ValueError.
    """
    shift = as_tolerance(tol)
    verdict = _psd_exact(*_hermitian_ints(H, shift))
    if verdict.is_psd:
        return verdict
    value = verdict.value - shift * sum(w.abs2() for w in verdict.witness)
    return PsdVerdict(False, verdict.witness, value)


def _hermitian_ints(H: HermitianMatrix, tol: Fraction = ZERO) -> tuple[int, list, list]:
    """(D, re, im): the lcm D of the entry denominators and of tol's, and the
    int real and imaginary parts of D * (H + tol*I), with a real diagonal.

    Only the nonzero entries are read, through scalars._gaussian, into rows
    of zeros; the Hermitian check runs on their cells alone.  That misses
    nothing: a pair of zero cells passes, and a pair with one nonzero cell
    (i, j) is checked there, (re_ij - re_ji, im_ij + im_ji) holding both.
    A zeta power, a root other than 1 and i, or an H that is not Hermitian
    within tol raises ValueError."""
    cells = [(i, j, c._terms) for i, row in enumerate(H.rows()) for j, c in enumerate(row)
             if c._terms]
    scaled = _gaussian([terms for _, _, terms in cells] + [{(0, ROOT_ONE): tol}])
    if scaled is None or any(k for entry in scaled[1] for k, _, _ in entry):
        raise ValueError("entries must be Gaussian rationals: round zeta powers first")
    (den, entries), n = scaled, H.dim
    re, im = [[0] * n for _ in range(n)], [[0] * n for _ in range(n)]
    for (i, j, _), ((_, x, y),) in zip(cells, entries):  # one degree-0 triple each
        re[i][j], im[i][j] = x, y
    t = tol.numerator * (den // tol.denominator)  # tol * D
    pairs = ((re[i][j] - re[j][i], im[i][j] + im[j][i]) for i, j, _ in cells)
    if not all(x * x + y * y <= t * t if t else not (x or y) for x, y in pairs):
        raise ValueError("matrix is not Hermitian")
    for i in range(n):
        re[i][i], im[i][i] = re[i][i] + t, 0
    return den, re, im


def _bareiss_step(re: list[list[int]], im: list[list[int]], k: int, prev: int) -> int:
    """Step k of Bareiss elimination of the lower triangle of a Hermitian A,
    given as the int parts re and im of its entries, on the nonzero pivot
    a_kk = re[k][k], returned as the next prev: a_ij, k < j <= i, becomes
    (a_kk a_ij - a_ik conj(a_jk)) / prev, prev the last pivot (1 at first).
    By Sylvester's identity that is a minor of A, so the division is exact."""
    d = re[k][k]
    for i in range(k + 1, len(re)):
        ar, ai, rr, ri = re[i][k], im[i][k], re[i], im[i]
        for j in range(k + 1, i + 1):
            br, bi = re[j][k], im[j][k]
            rr[j] = (d * rr[j] - ar * br - ai * bi) // prev
            ri[j] = (d * ri[j] - ai * br + ar * bi) // prev
    return d


def _psd_exact(den: int, re: list[list[int]], im: list[list[int]]) -> PsdVerdict:
    """Bareiss steps on A = D * H from _hermitian_ints, updated in place.

    After the steps on positive pivots a_ij = prev * D * s_ij, s the residual
    of LDL^H elimination of H, so a_kk has the sign of s_kk.  A zero pivot
    with a zero column is skipped and keeps prev.  A negative pivot gives the
    residual vector y = e_k, of value s_kk < 0, and a zero one with coupling
    a_jk != 0 gives y = e_j + y_k e_k, y_k = -(s_jj + 1) / (2 s_jk), of value
    -1; q y is integral for q = 1, resp. 2 |a_jk|^2.  The witness v, v_l =
    y_l for l >= k and L^H v = y (L_li = a_li / a_ii), has head -A11^-1 A12 y,
    A11 the block of A on the positive pivots, of determinant prev.  So V =
    prev q v is integral: V_i = -(sum_l conj(a_li) V_l) / a_ii (0 at a skipped
    pivot) divides exactly, and V / (prev q) times an integer has value <= -1.
    """
    n, prev = len(re), 1
    for k in range(n):
        d = re[k][k]
        if d > 0:
            prev = _bareiss_step(re, im, k, prev)
            continue
        j = k if d else next((j for j in range(k + 1, n) if re[j][k] or im[j][k]), None)
        if j is None:
            continue
        unit, vr, vi = prev * den, [0] * n, [0] * n  # a_il = unit * s_il
        if j == k:
            q, value, vr[k] = 1, Fraction(d, unit), prev
        else:
            x, y, c = re[j][k], im[j][k], -prev * (re[j][j] + unit)
            q, value = 2 * (x * x + y * y), Fraction(-1)
            vr[k], vi[k], vr[j] = c * x, -c * y, prev * q  # q y_k = -(a_jj + unit) conj(a_jk)
        for i in range(k - 1, -1, -1):
            if p := re[i][i]:
                col = [(re[l][i], im[l][i], vr[l], vi[l]) for l in range(i + 1, n)]
                vr[i] = -sum(ar * xr + ai * xi for ar, ai, xr, xi in col) // p
                vi[i] = -sum(ar * xi - ai * xr for ar, ai, xr, xi in col) // p
        scale, out = isqrt(math.ceil(1 / -value)) + 1, prev * q
        witness = (GaussRat._of(Fraction(a * scale, out), Fraction(b * scale, out))
                   for a, b in zip(vr, vi))
        return PsdVerdict(False, tuple(witness), value * scale * scale)
    return PsdVerdict(True)


def determinant_exact(H: HermitianMatrix) -> GaussRat:
    """Exact determinant by the Bareiss steps of is_psd (_bareiss_step) on
    A = D * H from _hermitian_ints (zeta powers, or an H that is not exactly
    Hermitian, raise ValueError).  The pivots are real, the last is det A,
    and the result, the one GaussRat built, is det A / D^n.

    A zero pivot with a zero column gives det 0: the residual has a zero
    row.  One with coupling a_jk != 0, j > k, is made nonzero by the
    congruence A -> T A T^H, T = I + c e_k e_j^T (row and column k += c times
    row and column j), c the first of (1, -1, i, -i) with a_kk = a_jj + 2
    Re(c a_jk) != 0 (one is, as a_jk != 0); det T = 1.  The entries below
    step k are minors of A, mapped alike, so later divisions stay exact.
    """
    den, re, im = _hermitian_ints(H)
    n, prev = H.dim, 1
    for k in range(n):
        if not re[k][k]:
            j = next((j for j in range(k + 1, n) if re[j][k] or im[j][k]), None)
            if j is None:
                return GaussRat(0)
            x, y, t = re[j][k], im[j][k], re[j][j]
            cr, ci = next((cr, ci) for cr, ci in ((1, 0), (-1, 0), (0, 1), (0, -1))
                          if t + 2 * (cr * x - ci * y))
            for i in range(k + 1, n):  # a_ik += conj(c) a_ij
                u, v = (re[i][j], im[i][j]) if i >= j else (re[j][i], -im[j][i])
                re[i][k], im[i][k] = re[i][k] + cr * u + ci * v, im[i][k] + cr * v - ci * u
            re[k][k] = t + 2 * (cr * x - ci * y)
        prev = _bareiss_step(re, im, k, prev)
    return GaussRat._of(Fraction(prev, den ** n), ZERO)
