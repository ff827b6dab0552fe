"""Reference constructions from the paper, used only as test oracles.

build_H_prime and det_P are the idealized restriction matrix H'_l and the
closed-form determinant of P_d; scan_hit is the brute-force linear scan
that the minimal-hit solver circle.first_hit must agree with, and
diophantine_fraction is the approximation clause as one Fraction
inequality on PI_200, a 200-digit pi, which certificate.satisfies_diophantine must
decide alike where that pi suffices; clause_by_reference_pi decides it on
the Machin pi of perfbench_reference, the benchmark's independent checker,
at the precision the window needs.
residue_by_fraction is the 256-bit phase residue of zeta^k, floor(|k| h 2^256 / 2pi)
with k's sign, in Fraction arithmetic for each exponent on its own against
that same reference pi; phase_angle_by_division reads it as a float by
dividing first, as fixed_to_angle does.  circle.zeta_residue and
circle.signed_angle must give the same floats, bit for bit, and so must
family_values_per_exponent, which scores the families of
certificate._family_values with every exponent reduced on its own, against
its one residue per distinct k l.
family_generators_by_theta builds each family label as the matrix
product Theta_j xi, one lattice.theta_j per generator, which the closed-form
progression of certificate.family_generators must reproduce.
relabel is the support relabelling W_m -> W_(Theta m), which the
automorphism criterion checks against algebra.multiply; is_symplectic (Theta^T Sigma
Theta = Sigma), built on mat_mul and transpose, says for which Theta it
must be multiplicative, and cocycle is the 2-cocycle identity of
lattice.pairing; mat_vec (Theta m) and scalar_element (c W_0) are the
plain helpers these oracles and the tests build with.  standard_form is
the genus-g form, g copies of the genus-1 form, that the higher-genus tests build contexts from.  int_det is the integer determinant that decides which
forms lattice.symplectic_normal_form must reject as degenerate, and
is_hermitian checks H = H^dagger exactly.  These are exact; numeric
comparisons go through HermitianMatrix.to_numpy().  min_eigenvalue is the
one floating-point reference that the exact positivity decision of
states.is_psd is checked against; the library itself uses no
eigendecomposition.

The second half keeps the exact kernel in its plain form, which the fast
paths of scalars, algebra.multiply and states._psd_exact must reproduce
term for term: reduce_roots, scalar sums and products that canonicalize
every zeta degree again through the public PhaseScalar constructor,
multiply_by_pairing with one zeta product per term pair,
multiply_reduced_once, which sums every scalar term pair of a support point
before one reduction, gram_by_pairs, the Gram matrix built pair by pair,
which states.gram must reproduce where it fills a progression by
distance, quadratic_form_per_row, which reduces every row total
of H v before the total, psd_exact_full_square, which updates the whole
residual matrix, and psd_exact_fractions and determinant_fractions, the
Fraction eliminations that the integer kernels of states.is_psd and
states.determinant_exact replace.  Both psd oracles build their witness
with _exact_witness, a GaussRat back-substitution that shares no code with
the Gaussian-int one of states._psd_exact.  as_gaussian and gaussian_entries read a
scalar and a matrix as GaussRat values, the copy those kernels no longer
make.  hermitian_ints_dense reads a matrix into Gaussian ints from every
entry, zeros included, and checks every pair i <= j; states._hermitian_ints
reads the nonzero entries only and must give the same ints and errors.

parse_by_products reads the element grammar the plain way: one character
at a time, a token record per token with its offset, and one
algebra.multiply per '*'.  nctorus.parser must return the same element,
and raise the same ParseError, for every text (a '(' nested deeper than
nctorus.parser.MAX_DEPTH among them).  format_by_terms prints an
element from PhaseScalar.terms(), each root as a Fraction; the key-level
printer nctorus.parser.format_element must give the same text, and raise
the same ValueError for a root outside Q(i).
"""

import importlib.util
import math
from fractions import Fraction
from functools import lru_cache
from math import floor, isqrt, lcm
from pathlib import Path

import numpy as np

from nctorus.algebra import AlgebraElement, adjoint, multiply, weyl
from nctorus.lattice import SkewForm, as_matrix, as_vector, pairing, theta_j
from nctorus.parser import MAX_DEPTH, ParseError
from nctorus.scalars import (ROOT_I, ROOT_ONE, GaussRat, PhaseScalar, _coefficient, _gaussian,
                             _sum_of_products, as_fraction, as_scalar, cyclotomic)
from nctorus.states import HermitianMatrix, PsdVerdict, eval_generator


def build_H_prime(p, q, d: int, l: int, N: int) -> HermitianMatrix:
    """Idealized (d+1)x(d+1) restriction [p 1 q_N e(l/d) q_2N e(2l/d) ...].

    q maps lattice-difference scales (multiples of N) to real values;
    missing entries are 0.
    """
    if not 1 <= l <= d:
        raise ValueError(f"need 1 <= l <= d, got l={l}, d={d}")
    if N < 1:
        raise ValueError("N must be positive")
    n = d + 1
    pf = as_fraction(p)
    rows = [[PhaseScalar.zero()] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = PhaseScalar.one()
    for jj in range(1, n):
        rows[0][jj] = PhaseScalar.rational(pf)
        rows[jj][0] = PhaseScalar.rational(pf)
    for j in range(1, n):
        for i in range(j + 1, n):
            qv = as_fraction(q.get((i - j) * N, 0))
            if qv:
                rows[j][i] = PhaseScalar.root_of_unity(Fraction((i - j) * l, d), qv)
                rows[i][j] = rows[j][i].conjugate()
    return HermitianMatrix(rows)


def det_P(p, d: int) -> Fraction:
    """Closed-form determinant 1 - d*p^2 of P_d = [p; 1; 0; ...; 0]."""
    if d < 1:
        raise ValueError("d must be positive")
    pf = as_fraction(p)
    return 1 - d * pf * pf


def min_eigenvalue(h: HermitianMatrix, ctx=None) -> float:
    """Smallest eigenvalue of h by numpy's eigvalsh, in floating point."""
    return float(np.linalg.eigvalsh(h.to_numpy(ctx))[0])


def scan_hit(a: int, m: int, t: int, w: int, limit: int) -> int | None:
    """Minimal k in 1..limit with ((k*a - t) mod m) <= w, by linear scan."""
    a %= m
    pos = 0
    for k in range(1, limit + 1):
        pos = (pos + a) % m
        if (pos - t) % m <= w:
            return k
    return None


PI_200 = Fraction(
    "3.14159265358979323846264338327950288419716939937510582097494459230781"
    "64062862089986280348253421170679821480865132823066470938446095505822317"
    "2535940812848111745028410270193852110555964462294895493038196"
)
TURN = 1 << 256  # one turn in the 256-bit fixed point of circle's phase residues


def diophantine_fraction(h, n: int, xi2: int, d: int, eps) -> bool:
    """|(h N xi2^2) mod 2pi - 2pi/d| < eps/(4 d^2) for N = n, in Fraction turns.

    A 200-digit oracle: 2 PI_200 is off the true 2pi by about 1e-200, so
    the residue carries an error of about |h N xi2^2| 1e-200 radians.  It
    decides the clause as the true pi does where its hypothesis draws stay,
    n <= 2^400 and eps >= 1e-15, and not where that error nears the window
    eps/(4 d^2); clause_by_reference_pi reads those.
    """
    turns = as_fraction(h) * n * xi2 * xi2 / (2 * PI_200)
    frac = turns - floor(turns)
    dev = abs(frac - Fraction(1, d))
    return dev < as_fraction(eps) / (4 * d * d) / (2 * PI_200)


@lru_cache(maxsize=None)
def perfbench_reference():
    """perfbench/reference.py, the benchmark's independent checker, loaded
    once by path: it imports nothing from nctorus."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("perfbench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def clause_by_reference_pi(h, n: int, xi2: int, d: int, eps) -> bool:
    """The approximation clause against the reference's own Machin pi, at
    bits(h n xi2^2) + bits(4 d^2/eps) + 64 bits.

    reference.approximation_holds keeps bits(h n xi2^2) + 64 bits: its residue
    is then good to about 2^-64 radians, and it cannot read a window
    eps/(4 d^2) narrower than that.  Here pi_scaled's unit error moves the
    residue by at most 2 (k + 2) units, k the turn count, and a verdict
    closer to the window's edge than that fails the assertion.
    """
    x = as_fraction(h) * n * xi2 * xi2
    eps = as_fraction(eps)
    bits = ((abs(x.numerator) // x.denominator + 1).bit_length()
            + (4 * d * d * eps.denominator // eps.numerator + 1).bit_length() + 64)
    pi_b = perfbench_reference().pi_scaled(bits)
    k, r = divmod((x.numerator << bits) // x.denominator, 2 * pi_b)
    dev = abs(r - 2 * pi_b // d)
    bound = eps / (4 * d * d) * (1 << bits)
    assert abs(dev - bound) > 2 * (abs(k) + 2), "too close to the window's edge to decide"
    return dev < bound


def fixed_to_angle(fixed: int) -> float:
    """Radians in [0, 2*pi) of a fixed-point turn fraction, dividing first."""
    return (fixed % TURN) / TURN * 2.0 * math.pi


def residue_by_fraction(h, k: int) -> int:
    """floor(|k| h 2^256 / 2pi) mod one turn, negated for k < 0, for this k alone.

    |k| h 2^256 / 2pi is bracketed in Fractions by the reference's Machin pi
    pi_scaled(b) +- 2 over 2^b, at b = bits(|k| h 2^256) + 64; both ends must
    have the same floor, and a bracket too wide to decide fails the assertion.
    """
    x = abs(k) * as_fraction(h) * TURN
    bits = (abs(x.numerator) // x.denominator + 1).bit_length() + 64
    pi_b = perfbench_reference().pi_scaled(bits)
    lo, hi = (floor(x * (1 << bits) / (2 * (pi_b + e))) for e in (2, -2))
    assert lo == hi, "too close to a residue boundary to decide"
    return -lo % TURN if k < 0 else lo % TURN


def phase_angle_by_division(h, k: int) -> float:
    """The signed angle of zeta^k, each exponent reduced on its own
    (residue_by_fraction) and the residue read through fixed_to_angle's division."""
    fixed = residue_by_fraction(h, k)
    return fixed_to_angle(fixed) if 2 * fixed < TURN else -fixed_to_angle(TURN - fixed)


def family_values_per_exponent(state, params, ctx) -> list[float]:
    """The closed-form family scores of certificate._family_values, with the
    cosine of every distinct exponent k e_1 taken once from
    phase_angle_by_division."""
    d, n_val, x = params.d, params.N, params.xi[0]
    p = eval_generator(state, params.xi)
    base = float(d - d * d * p * p)
    q = [(k, float(qk)) for k in range(1, d) if (qk := state.value(n_val * k * x))]
    cosines: dict[int, float] = {}
    values = []
    for l in range(1, d + 1):
        g1, g2 = (mat_vec(theta_j(n_val, l, j), params.xi) for j in (1, 2))
        e1 = -pairing(ctx.sigma, g1, g2)
        terms = []
        for k, qk in q:
            e = k * e1
            if e not in cosines:
                cosines[e] = math.cos(phase_angle_by_division(ctx.h, e))
            terms.append(2 * (d - k) * qk * cosines[e])
        values.append(math.fsum([base, *terms]))
    return values


def family_generators_by_theta(params, l: int) -> tuple:
    """The labels {(0,0)} u {Theta_j xi}, j = 1..d, each one the product
    mat_vec(theta_j(N, l, j), xi)."""
    gens = [(0, 0)]
    for j in range(1, params.d + 1):
        gens.append(mat_vec(theta_j(params.N, l, j), params.xi))
    return tuple(gens)


def relabel(theta, a: AlgebraElement) -> AlgebraElement:
    """The support relabelling W_m -> W_(Theta m), no contract attached.

    This is multiplicative exactly when theta preserves the form
    (is_symplectic); the library has no action, because the pipeline only
    needs the orbit representatives of lattice.orbit_rep.
    """
    t = as_matrix(theta)
    return AlgebraElement(a.dimension, {mat_vec(t, m): c for m, c in a.items()})


def mat_mul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
                 for i in range(n))


def mat_vec(m, v) -> tuple:
    if len(m) != len(v):
        raise ValueError(f"dimension mismatch: {len(m)}x{len(m)} matrix, length-{len(v)} vector")
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in m)


def transpose(m):
    return tuple(zip(*m))


def standard_form(g: int) -> SkewForm:
    """The direct sum of g copies of the canonical genus-1 form."""
    n = 2 * g
    rows = [[0] * n for _ in range(n)]
    for b in range(g):
        rows[2 * b][2 * b + 1] = 1
        rows[2 * b + 1][2 * b] = -1
    return SkewForm(tuple(tuple(r) for r in rows))


def is_symplectic(theta, form: SkewForm) -> bool:
    """True iff Theta^T * Sigma * Theta = Sigma."""
    t = as_matrix(theta)
    return mat_mul(mat_mul(transpose(t), form.matrix), t) == form.matrix


def cocycle(form: SkewForm, m, n, g) -> bool:
    """The additive 2-cocycle identity of the pairing exponents:
    sigma(m, n) + sigma(m + n, g) = sigma(m, n + g) + sigma(n, g)."""
    mn = tuple(x + y for x, y in zip(m, n))
    ng = tuple(x + y for x, y in zip(n, g))
    return (pairing(form, m, n) + pairing(form, mn, g)
            == pairing(form, m, ng) + pairing(form, n, g))


def int_det(m) -> int:
    """Exact integer determinant (Bareiss fraction-free elimination)."""
    a = [list(row) for row in m]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def is_hermitian(h: HermitianMatrix) -> bool:
    """H = H^dagger, exactly."""
    r, n = h.rows(), h.dim
    return all(r[i][j] == r[j][i].conjugate() for i in range(n) for j in range(i, n))


# ---------------------------------------------------------------------------
# the exact kernel without fast paths
# ---------------------------------------------------------------------------

ZERO, HALF, QUARTER, THREE_QUARTERS = Fraction(0), Fraction(1, 2), Fraction(1, 4), Fraction(3, 4)


def as_gaussian(x: PhaseScalar) -> tuple[Fraction, Fraction] | None:
    """The value as (re, im) Gaussian rational with Fraction parts, or None.

    The parts are Fractions even where the coefficient is an int: they feed
    GaussRat, whose division must stay exact (int / int is a float).
    """
    re = im = ZERO
    for (k, r), c in x._terms.items():
        if k != 0:
            return None
        if r == ROOT_ONE:
            re = Fraction(c)
        elif r == ROOT_I:
            im = Fraction(c)
        else:
            return None
    return re, im


def gaussian_entries(h: HermitianMatrix) -> list[list[GaussRat]] | None:
    """The entries as Gaussian rationals, or None if any entry is not one."""
    parts = [[as_gaussian(c) for c in row] for row in h.rows()]
    if any(None in row for row in parts):
        return None
    return [[GaussRat._of(*g) for g in row] for row in parts]


def hermitian_ints_dense(h: HermitianMatrix, tol: Fraction = ZERO) -> tuple[int, list, list]:
    """(D, re, im) of D * (H + tol*I) read from all n^2 entries, zeros too,
    with the Hermitian-within-tol check over every pair i <= j: the reader
    that states._hermitian_ints, which reads the nonzero entries only, must
    match, error text included."""
    scaled = _gaussian([c._terms for row in h.rows() for c in row] + [{(0, ROOT_ONE): tol}])
    if scaled is None or any(k for entry in scaled[1] for k, _, _ in entry):
        raise ValueError("entries must be Gaussian rationals: round zeta powers first")
    (den, entries), n = scaled, h.dim
    cells = [entry[0] if entry else (0, 0, 0) for entry in entries[:-1]]  # degree 0 only
    re = [[x for _, x, _ in cells[i:i + n]] for i in range(0, n * n, n)]
    im = [[y for _, _, y in cells[i:i + n]] for i in range(0, n * n, n)]
    t = tol.numerator * (den // tol.denominator)  # tol * D
    pairs = ((re[i][j] - re[j][i], im[i][j] + im[j][i]) for i in range(n) for j in range(i, n))
    if not all(x * x + y * y <= t * t if t else not (x or y) for x, y in pairs):
        raise ValueError("matrix is not Hermitian")
    for i in range(n):
        re[i][i], im[i][i] = re[i][i] + t, 0
    return den, re, im


def reduce_roots(parts: dict) -> dict:
    """Canonicalize sum_r c_r * e(r) by reduction mod the joint cyclotomic."""
    parts = {r: c for r, c in parts.items() if c}
    if not parts:
        return {}
    n = 1
    for r in parts:
        n = lcm(n, r.denominator)
    if n <= 2:
        total = ZERO
        for r, c in parts.items():
            total += c if r == 0 else -c
        return {ZERO: total} if total else {}
    if n == 4:
        re = parts.get(ZERO, ZERO) - parts.get(HALF, ZERO)
        im = parts.get(QUARTER, ZERO) - parts.get(THREE_QUARTERS, ZERO)
        out = {}
        if re:
            out[ZERO] = re
        if im:
            out[QUARTER] = im
        return out
    coeffs = [ZERO] * n
    for r, c in parts.items():
        coeffs[int(r * n)] += c
    phi = cyclotomic(n)
    deg = len(phi) - 1
    for i in range(n - 1, deg - 1, -1):
        c = coeffs[i]
        if c:
            coeffs[i] = ZERO
            for j in range(deg):
                coeffs[i - deg + j] -= c * phi[j]
    return {Fraction(j, n): c for j, c in enumerate(coeffs[:deg]) if c}


def _terms(x: PhaseScalar) -> dict:
    return {(k, r): c for k, r, c in x.terms()}


def scalar_element(coeff, dim: int = 2) -> AlgebraElement:
    """coeff * W_0 in dimension dim."""
    return AlgebraElement(dim, {(0,) * dim: coeff})


def scalar_add(x: PhaseScalar, y: PhaseScalar) -> PhaseScalar:
    merged = _terms(x)
    for key, c in _terms(y).items():
        merged[key] = merged.get(key, ZERO) + c
    return PhaseScalar(merged)


def scalar_neg(x: PhaseScalar) -> PhaseScalar:
    return PhaseScalar({key: -c for key, c in _terms(x).items()})


def scalar_mul(x: PhaseScalar, y: PhaseScalar) -> PhaseScalar:
    out = {}
    for (k1, r1), c1 in _terms(x).items():
        for (k2, r2), c2 in _terms(y).items():
            key = (k1 + k2, (r1 + r2) % 1)
            out[key] = out.get(key, ZERO) + c1 * c2
    return PhaseScalar(out)


def scalar_conjugate(x: PhaseScalar) -> PhaseScalar:
    return PhaseScalar({(-k, (-r) % 1): c for (k, r), c in _terms(x).items()})


def multiply_by_pairing(a: AlgebraElement, b: AlgebraElement, ctx) -> AlgebraElement:
    """W_n W_m = zeta^sigma(n, m) W_(n+m), one zeta product per term pair."""
    out = {}
    for n, cn in a.items():
        for m, cm in b.items():
            phase = PhaseScalar.zeta(pairing(ctx.sigma, n, m))
            key = tuple(x + y for x, y in zip(n, m))
            term = cn * cm * phase
            out[key] = out[key] + term if key in out else term
    return AlgebraElement(ctx.dimension, out)


def multiply_reduced_once(a: AlgebraElement, b: AlgebraElement, ctx) -> AlgebraElement:
    """The same product with every scalar term pair of a support point summed
    unreduced first, then canonicalized once by the public constructor."""
    raw = {}
    for n, cn in a.items():
        for m, cm in b.items():
            shift = pairing(ctx.sigma, n, m)
            point = raw.setdefault(tuple(x + y for x, y in zip(n, m)), {})
            for (k1, r1), c1 in _terms(cn).items():
                for (k2, r2), c2 in _terms(cm).items():
                    key = (k1 + k2 + shift, (r1 + r2) % 1)
                    point[key] = point.get(key, ZERO) + c1 * c2
    return AlgebraElement(ctx.dimension, {m: PhaseScalar(t) for m, t in raw.items()})


def gram_by_pairs(state, gens, ctx) -> HermitianMatrix:
    """states.gram as one loop over the unordered generator pairs, whatever
    their shape: one gcd(m_j - m_i) and one exponent sigma(m_i, m_j) per pair
    i < j.  states.gram fills a progression by distance and must give the
    same entries, coefficient types included."""
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
    rows = [[zero] * len(vecs) for _ in vecs]
    for i, (x, y) in enumerate(vecs):
        r0, r1 = x * s00 + y * s10, x * s01 + y * s11  # m_i^T Sigma
        rows[i][i] = one
        for j, (u, v) in enumerate(vecs[i + 1:], i + 1):
            q = math.gcd(u - x, v - y)
            c = coeff.get(q) if q <= top else None
            if c:
                e = r0 * u + r1 * v  # sigma(m_i, m_j)
                rows[i][j], rows[j][i] = (PhaseScalar._of({(-e, ROOT_ONE): c}),
                                          PhaseScalar._of({(e, ROOT_ONE): c}))
    return HermitianMatrix._of(tuple(map(tuple, rows)))


def quadratic_form_per_row(H: HermitianMatrix, v) -> PhaseScalar:
    """v^dagger H v with each row total sum_j H_ij v_j reduced on its own,
    then conj(v_i) times each reduced row total summed and reduced again."""
    vec = list(map(as_scalar, v))
    rows = [_sum_of_products((c, vj) for c, vj in zip(row, vec) if c and vj) for row in H.rows()]
    return _sum_of_products((vi.conjugate(), r) for vi, r in zip(vec, rows) if vi and r)


def _exact_witness(lcols, y, value: Fraction, n: int, upto: int) -> PsdVerdict:
    """Solve L^H v = y by back-substitution in GaussRat, then scale v by an
    integer so that v^H H v <= -1."""
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


def psd_exact_full_square(entries: list) -> PsdVerdict:
    """Pivoted LDL^H elimination that updates every entry of the residual."""
    n = len(entries)
    s = [[entries[i][j] for j in range(n)] for i in range(n)]
    lcols = [[GaussRat(0)] * n for _ in range(n)]
    for k in range(n):
        d = s[k][k]
        if d.im:
            raise ValueError("matrix is not Hermitian")
        if d.re < 0:
            y = [GaussRat(0)] * n
            y[k] = GaussRat(1)
            return _exact_witness(lcols, y, d.re, n, k)
        if d.re == 0:
            j = next((j for j in range(k + 1, n) if s[j][k]), None)
            if j is None:
                continue
            b = s[k][j]
            c = s[j][j].re
            alpha = GaussRat(-(c + 1)) / (2 * b.conjugate())
            y = [GaussRat(0)] * n
            y[k] = alpha
            y[j] = GaussRat(1)
            return _exact_witness(lcols, y, Fraction(-1), n, k)
        for i in range(k + 1, n):
            lcols[k][i] = s[i][k] / d
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                s[i][j] = s[i][j] - lcols[k][i] * d * lcols[k][j].conjugate()
    return PsdVerdict(True)


def psd_exact_fractions(entries: list) -> PsdVerdict:
    """Pivoted LDL^H elimination in GaussRat of the lower triangle of
    Hermitian entries (each row may hold just that triangle)."""
    n = len(entries)
    s = [list(row[:i + 1]) for i, row in enumerate(entries)]
    lcols = [[GaussRat(0)] * n for _ in range(n)]  # lcols[k][i] = L[i][k]
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
            c = s[j][j].re
            alpha = GaussRat(-(c + 1)) / (2 * s[j][k])
            y = [GaussRat(0)] * n
            y[k] = alpha
            y[j] = GaussRat(1)
            return _exact_witness(lcols, y, Fraction(-1), n, k)
        col = lcols[k]
        for i in range(k + 1, n):
            col[i] = s[i][k] / d
        for i in range(k + 1, n):
            a = s[i][k]
            if not a:
                continue
            row = s[i]
            for j in range(k + 1, i + 1):
                if col[j]:
                    row[j] = row[j] - a * col[j].conjugate()
    return PsdVerdict(True)


def determinant_fractions(entries: list) -> GaussRat:
    """Determinant by GaussRat elimination, pivoting on the first row with a
    nonzero entry in the column."""
    n = len(entries)
    a = [list(row) for row in entries]
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
                for j in range(k + 1, n):
                    a[i][j] = a[i][j] - f * a[k][j]
    return det


# ---------------------------------------------------------------------------
# the element grammar, read one character at a time
# ---------------------------------------------------------------------------

_SYMBOLS = set("+-*/()[],^Wzi")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) per token: kind is 'int', the symbol, or 'end'."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "0123456789":
            j = i
            while j < n and text[j] in "0123456789":
                j += 1
            out.append(("int", text[i:j], i))
            i = j
        elif c in _SYMBOLS:
            out.append((c, c, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    out.append(("end", "", n))
    return out


class _Parser:
    def __init__(self, text: str, ctx):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.ctx = ctx
        self.dim = ctx.dimension
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1] or 'end of input'!r}", tok[2])
        return self.next()

    def parse(self) -> AlgebraElement:
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return node

    def expr(self) -> AlgebraElement:
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            if self.next()[0] == "+":
                node = node + self.term()
            else:
                node = node - self.term()
        return node

    def term(self) -> AlgebraElement:
        node = self.factor()
        while self.peek()[0] == "*":
            self.next()
            node = multiply(node, self.factor(), self.ctx)
        return node

    def factor(self) -> AlgebraElement:
        node = self.primary()
        while self.peek()[0] == "^":
            mark = self.pos
            self.next()
            if self.peek()[0] == "*":
                self.next()
                node = adjoint(node)
            else:
                self.pos = mark
                break
        return node

    def primary(self) -> AlgebraElement:
        tok = self.peek()
        if tok[0] == "W":
            return self.weyl_gen()
        if tok[0] == "(":
            if self.depth == MAX_DEPTH:
                raise ParseError(f"parentheses nested deeper than {MAX_DEPTH}", tok[2])
            self.next()
            self.depth += 1
            node = self.expr()
            self.expect(")")
            self.depth -= 1
            return node
        if tok[0] in ("int", "-"):
            return self.scalar()
        raise ParseError(f"expected a scalar, 'W[...]' or '(', found {tok[1] or 'end of input'!r}",
                         tok[2])

    def weyl_gen(self) -> AlgebraElement:
        start = self.expect("W")
        self.expect("[")
        coords = [self.signed_int()]
        while self.peek()[0] == ",":
            self.next()
            coords.append(self.signed_int())
        self.expect("]")
        if len(coords) != self.dim:
            raise ParseError(
                f"generator arity {len(coords)} does not match the context dimension {self.dim}",
                start[2])
        return weyl(coords)

    def signed_int(self) -> int:
        neg = False
        if self.peek()[0] == "-":
            self.next()
            neg = True
        val = int(self.expect("int")[1])
        return -val if neg else val

    def rational(self) -> Fraction:
        num = self.signed_int()
        den = 1
        if self.peek()[0] == "/":
            self.next()
            den = int(self.expect("int")[1])
            if den == 0:
                raise ParseError("zero denominator", self.tokens[self.pos - 1][2])
        return Fraction(num, den)

    def scalar(self) -> AlgebraElement:
        re = self.rational()
        im = Fraction(0)
        if self.peek()[0] in ("+", "-"):
            mark = self.pos
            sign = -1 if self.next()[0] == "-" else 1
            try:
                part = self.rational()
                self.expect("i")
                im = sign * part
            except ParseError:
                self.pos = mark
        elif self.peek()[0] == "i":
            self.next()
            im, re = re, Fraction(0)
        zeta = 0
        if self.peek()[0] == "z":
            self.next()
            self.expect("^")
            zeta = self.signed_int()
        return scalar_element(PhaseScalar.gaussian(re, im).times_zeta(zeta), self.dim)


def parse_by_products(text: str, ctx) -> AlgebraElement:
    """The element grammar of nctorus.parser, tokenized one character at a
    time and with one algebra.multiply per '*', literal atoms included."""
    return _Parser(text, ctx).parse()


def format_by_terms(a: AlgebraElement) -> str:
    """The canonical text of nctorus.parser.format_element, read through
    PhaseScalar.terms(): atoms sorted by (lattice point, zeta power)."""
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
            if (re, im, k) == (1, 0, 0):
                bits.append(gen)
                continue
            s = str(re)
            if im:
                s += f"+{im}i" if im > 0 else f"-{-im}i"
            if k:
                s += f"z^{k}"
            bits.append(f"{s} * {gen}")
    return " + ".join(bits) or "0"
