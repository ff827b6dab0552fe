"""Mechanized refutation of non-trace invariant-state candidates.

Pipeline, for a candidate with p != 0 on orbit j: put xi = (j, j), choose
d with d*p^2 > 1 and a safety margin eps, find the least N = d!*k with
h*N*xi2^2 within eps/(4 d^2) of 2*pi/d mod 2*pi (a clause decided on ints
for the true pi, satisfies_diophantine), restrict the state to the spans
{W_(0,0)} u {W_(Theta_j xi)} for the families Theta_j in G_(N,l),
l = 1..d.  On xi = (a, b) the family's labels have the closed form
Theta_j xi = (a + j (N/l) s, s) with s = (l-1) a + b, an arithmetic
progression that family_generators builds by adding, with no 2x2 matrix.
The average of their Gram matrices is an eps-perturbation of
P_d = [p; 1; 0; ...; 0], whose explicit witness (-p*d, 1, ..., 1) has
quadratic value d*(1 - d*p^2) < 0, so some family l* is not positive
either.  Each family's Gram matrix is Toeplitz, so refute() scores the d
families with the closed-form witness value.  On xi = (x, x) family l's
k-th phase exponent is k l sigma_01 N x^2, so the scores need one exact
phase residue per distinct k l, all read from one hbar slice
(circle.zeta_residue).  refute() takes l* and the average's value from
those scores, and builds l*'s generators once, for the certificate.
The average only guides refute() to l*; the proof is the single element
a = sum v_i W_(g_i) on that family with omega(a* a) < 0, and refute()
certifies its exact total, the closed form below, rounded once.
verify() re-derives the parameters and the (N, l*) family, and sums
omega(a* a) on that family in closed form on Gaussian ints (_family_sums):
from W_(g_i)^* W_(g_j) = zeta^(-sigma(g_i, g_j)) W_(g_j - g_i), the pairs
(0, j) all read p and the pairs (i, i+k) all read q_(Nkx) at exponent
k l sigma_01 N x^2, so the total needs one declared orbit value (read,
as for the scores, by _family_orbits) and at most one witness correlation
per distance k, and no gcd.  It decides the sign of that exact total with
a midpoint-radius ball over one phase residue and its powers
(_family_sign), on ints with a proved radius.  It builds no Gram matrix,
algebra element or exact scalar, and evaluates no float phase; the ball's
midpoint, as a float, serves only the agreement with the certified value.
refute() and verify() share _family_sums and neither builds a Gram matrix:
the independent checks of the closed form are the tests' oracles (the bare
algebra product and the dense Gram matrix of build_H_second) and the
benchmark's own checker, perfbench/reference.py.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul

from . import circle
from .algebra import PhaseContext, numeric_eval
from .lattice import Vec, as_integer, as_vector
from .scalars import GaussRat, PhaseScalar, _gaussian_terms, as_fraction
from .states import HermitianMatrix, StateCandidate, as_tolerance, eval_generator, gram

DEFAULT_BUDGET = 10**9


class DiophantineBudgetError(RuntimeError):
    """The Diophantine search gave up."""


class DiophantinePrecisionError(DiophantineBudgetError):
    """The approximation clause stayed undecided after PI_DOUBLINGS
    doublings of the pi precision."""


class RefutationMarginError(RuntimeError):
    """No try of refute() gave a negative certified value."""


@dataclass(frozen=True)
class CertParams:
    """Parameters of a refutation: xi = (j, j), dimension d, Diophantine N,
    and the phase tolerance eps.  d = 1 encodes the 2x2 short form."""

    xi: Vec
    d: int
    N: int
    epsilon: Fraction

    def __post_init__(self):
        object.__setattr__(self, "xi", as_vector(self.xi))
        object.__setattr__(self, "epsilon", as_fraction(self.epsilon))


@dataclass(frozen=True, eq=False)
class Certificate:
    """Machine-checkable refutation payload."""

    params: CertParams
    p: Fraction
    l_star: int
    generators: tuple[Vec, ...]
    witness: tuple[GaussRat, ...]
    value: float
    avg_value: float

    def to_json(self) -> dict:
        return {
            "xi": list(self.params.xi),
            "d": self.params.d,
            "N": self.params.N,
            "epsilon": float(self.params.epsilon),
            "p": float(self.p),
            "l_star": self.l_star,
            "witness": [[float(w.re), float(w.im)] for w in self.witness],
            "value": float(self.value),
            "avg_value": float(self.avg_value),
            "generators": [list(g) for g in self.generators],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json())

    @classmethod
    def from_json(cls, obj: dict) -> "Certificate":
        """Read a certificate; malformed fields raise ValueError.

        Rationals (epsilon, p, witness parts) follow scalars.as_fraction, so
        a float means its shortest decimal and from_json(c.to_json()) equals
        loads(c.dumps()).  d, N and l_star must be integral
        (lattice.as_integer), xi and the generators integer vectors
        (lattice.as_vector): 12.5 is rejected, never truncated.
        """
        try:
            params = CertParams(xi=obj["xi"], d=as_integer(obj["d"]), N=as_integer(obj["N"]),
                                epsilon=obj["epsilon"])
            witness = tuple(GaussRat(re, im) for re, im in obj["witness"])
            generators = tuple(as_vector(g) for g in obj["generators"])
            return cls(
                params=params,
                p=as_fraction(obj["p"]),
                l_star=as_integer(obj["l_star"]),
                generators=generators,
                witness=witness,
                value=float(obj["value"]),
                avg_value=float(obj["avg_value"]),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"malformed certificate JSON: {exc}") from exc

    @classmethod
    def loads(cls, text: str) -> "Certificate":
        """from_json of the text, with every float literal read exactly as a
        Fraction.  Each distinct literal is parsed once per call: a witness
        is mostly 1.0 and 0.0."""
        return cls.from_json(json.loads(text, parse_float=lru_cache(maxsize=None)(Fraction)))


@dataclass(frozen=True)
class ConsistentWithTrace:
    """All declared orbit values vanish; trace-ness itself is not certified
    (there are infinitely many orbits)."""

    orbits_checked: tuple[int, ...]

    def to_json(self) -> dict:
        return {"consistent_with_trace": True, "orbits_checked": list(self.orbits_checked)}


# ---------------------------------------------------------------------------
# the Diophantine step
# ---------------------------------------------------------------------------

PI_DOUBLINGS = 4  # precision doublings before a clause or a sign is left undecided


def _clause_bits(h: Fraction, n: int, xi2: int, d: int, eps: Fraction) -> int:
    """Working precision for the clause at N up to n: about
    bits(h n xi2^2 d) + bits(4 d^2 / eps) + circle.GUARD_BITS, read from bit lengths."""
    angle = (abs(h.numerator * n) * xi2 * xi2 * d).bit_length() - h.denominator.bit_length()
    width = (4 * d * d * eps.denominator).bit_length() - eps.numerator.bit_length()
    return max(angle + 1, 0) + max(width + 1, 0) + circle.GUARD_BITS


def _units(h, xi2: int, d: int, eps, bits: int) -> tuple[int, int, int]:
    """(a, B, H): h xi2^2 as a, and H = ceil(eps B 2^bits / (4d)), the
    half-width eps/(4 d^2) rounded up, in units of 1/(B d 2^bits) radians,
    B the denominator of h.  h and eps are rationals (Fraction or int)."""
    den = h.denominator
    return (h.numerator * xi2 * xi2 * d << bits, den,
            -(-(eps.numerator * den << bits) // (4 * d * eps.denominator)))


def _window(h, xi2: int, d: int, eps, q: int, bits: int) -> tuple[int, int, int, int]:
    """Integers (a, m, t, w): at pi = q / 2^bits, N meets the approximation
    clause exactly when ((N*a - t) mod m) <= w; eps > 0.

    In _units, N*a is h N xi2^2 and m = 2 q B d is 2pi, both exact at that
    pi, so N*a mod m is the residue r in [0, 2pi).  With c = 2 q B, the
    units of 2pi/d, the clause |r - 2pi/d| < eps/(4 d^2) keeps the integers
    strictly inside (c - H, c + H): t..t+w are c - H + 1 .. c + H - 1.
    Clamping them to 0..m-1, where r always lies, keeps the mod from
    wrapping: d = 1's window is one-sided, below a full turn, and an eps
    wider than 2pi/d stops at zero.
    """
    a, den, half = _units(h, xi2, d, eps, bits)
    c = 2 * q * den
    m = c * d
    t = max(c - half + 1, 0)
    return a, m, t, min(c + half - 1, m - 1) - t


def _decide(h, n: int, xi2: int, d: int, eps, bits: int) -> bool | None:
    """The clause at N = n for every pi in the interval (pi_scaled(bits) -+
    PI_ERROR) / 2^bits, which holds the true pi, or None when the two ends
    of the interval disagree.

    At each end q, (k, r) = divmod(n a, m) with _window's a and m is the
    turn count floor(h n xi2^2 / 2pi) and the residue, and r's place is
    below (r <= c - H), inside or above (r >= c + H) the window; the clamps
    need no test, since r lies in 0..m-1.  k is monotone in pi, so equal k
    at both ends keep it constant on the interval; r - 2pi/d is then linear
    in pi, and each place is an interval of r - 2pi/d, so equal places at
    both ends hold at every pi between them, the true pi included.
    """
    a, den, half = _units(h, xi2, d, eps, bits)
    na, p = n * a, circle.pi_scaled(bits)
    ends = []
    for q in (p - circle.PI_ERROR, p + circle.PI_ERROR):
        c = 2 * q * den
        k, r = divmod(na, c * d)
        ends.append((k, (r > c - half) + (r >= c + half)))
    (k_lo, place), hi = ends
    return place == 1 if (k_lo, place) == hi else None


def satisfies_diophantine(h, n: int, xi2: int, d: int, eps) -> bool:
    """Decide |(h N xi2^2) mod 2pi - 2pi/d| < eps/(4 d^2) for N = n and the true pi.

    The residue lies in [0, 2pi), so the clause is one-sided at d = 1, and
    an eps wider than 2pi/d clamps at zero; eps <= 0 never holds.  _decide
    reads the clause at both ends of a pi interval of _clause_bits bits,
    bits(h n xi2^2 d) + bits(4 d^2/eps) + 64, which leaves the ends about
    2^-64 of the window apart; while they disagree the precision doubles, up
    to PI_DOUBLINGS times, and then DiophantinePrecisionError is raised.
    pi is irrational and h n xi2^2 rational, so the true pi is never on the
    window's edge and some precision decides every input.
    """
    h, eps = as_fraction(h), as_fraction(eps)
    if eps.numerator <= 0:
        return False
    bits = _clause_bits(h, n, xi2, d, eps)
    for _ in range(PI_DOUBLINGS + 1):
        verdict = _decide(h, n, xi2, d, eps, bits)
        if verdict is not None:
            return verdict
        bits *= 2
    raise DiophantinePrecisionError(
        f"the approximation clause at N = {n} stays undecided at {bits // 2} bits of pi")


def diophantine_N(ctx: PhaseContext, xi2: int, d: int, eps, *,
                  budget: int = DEFAULT_BUDGET) -> int:
    """Smallest N = d!*k with |(h N xi2^2) mod 2pi - 2pi/d| < eps/(4 d^2), for the true pi.

    The search covers k up to a span, at first `budget`, at the precision
    _clause_bits gives for N = d! span, and reads _window at the middle of
    the pi interval, p / 2^bits.  A pi of the interval is within
    PI_ERROR / 2^bits of it, which moves h N xi2^2 - 2pi k by under
    2 PI_ERROR |k| / 2^bits radians and the window's edges (2pi/d -+ eps/(4 d^2),
    clamped to [0, 2pi)) by under 2 PI_ERROR / 2^bits; k is the turn count,
    |k| <= |h| N xi2^2 / 6 + 1.  In _units that is under
    E = PI_ERROR d (|h_num| xi2^2 d! span + 4 B), so the window widened by E
    on each side holds every N of the span that meets the clause for some
    pi of the interval, the true pi included.  The precision also carries
    bits(1 / step), step = |h| xi2^2 d! the rotation per k in radians: that
    keeps E far below one step, so a step much finer than a radian does
    not walk a long run of k through the band of width E by an edge, each
    one a hit to reject.

    circle.first_hit takes the least k in the widened window, and
    satisfies_diophantine, the one decision of the clause, confirms it for
    the true pi: a confirmed k is the least, and a rejected one resumes the
    search past it.  Only a window the rational rotation never reaches
    (first_hit gives None) doubles the search precision, up to PI_DOUBLINGS
    times, then DiophantinePrecisionError.  A least widened hit past the
    span proves that no k in the span hits: the span grows to cover it, so
    the least k is found whatever the budget.  A least k above `budget`
    raises DiophantineBudgetError with that k.
    """
    eps = as_fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if d < 1 or xi2 < 1:
        raise ValueError("need d >= 1 and xi2 >= 1")
    h, fact = ctx.h, math.factorial(d)
    step_bits = (abs(h.numerator) * xi2 * xi2 * fact).bit_length() - h.denominator.bit_length()
    fine = max(1 - step_bits, 0)  # bits(1 / step)
    span, done = max(budget, 1), 0  # no k <= done hits
    bits, doublings = _clause_bits(h, fact * span, xi2, d, eps) + fine, 0
    while True:
        a, m, t, w = _window(h, xi2, d, eps, circle.pi_scaled(bits), bits)
        slack = circle.PI_ERROR * d * (abs(h.numerator) * xi2 * xi2 * fact * span
                                       + 4 * h.denominator)  # E
        step = fact * a % m
        j = circle.first_hit(step, m, t - slack - done * step, w + 2 * slack)
        if j is not None and done + j > span:
            done, span = span, max(done + j, 2 * span)
            bits = max(bits, _clause_bits(h, fact * span, xi2, d, eps) + fine)
            continue
        if j is None:
            doublings += 1
            if doublings > PI_DOUBLINGS:
                raise DiophantinePrecisionError(
                    f"the search for N = {d}! k past k = {done} stays undecided at "
                    f"{bits} bits of pi")
            bits *= 2
        elif satisfies_diophantine(h, fact * (done + j), xi2, d, eps):
            break
        else:
            done += j
    k = done + j
    if k > budget:
        raise DiophantineBudgetError(
            f"minimal k = {k} exceeds the search budget {budget}; "
            f"best candidate N = {fact * k}")
    return fact * k


# ---------------------------------------------------------------------------
# restriction matrices
# ---------------------------------------------------------------------------

def family_generators(params: CertParams, l: int) -> tuple[Vec, ...]:
    """The generator labels {(0,0)} u {Theta_j xi} for the (N, l) family.

    lattice.theta_j(N, l, j) maps xi = (a, b) to (a + j (N/l) s, s) with
    s = (l-1) a + b, so the labels after (0,0) are an arithmetic progression
    in the first coordinate: each one is the last plus (N/l) s, one int add.
    l < 1, l not dividing N and a xi of length other than 2 raise ValueError.
    """
    n_val, xi = params.N, params.xi
    if l < 1 or n_val % l:
        raise ValueError(f"invalid family parameters: need l >= 1 and l | N, got N={n_val}, l={l}")
    if len(xi) != 2:
        raise ValueError(f"the families act on Z^2, got a length-{len(xi)} xi")
    a, b = xi
    s = (l - 1) * a + b
    step = n_val // l * s
    gens = [(0, 0)]
    for _ in range(params.d):
        a += step
        gens.append((a, s))
    return tuple(gens)


def build_H_second(state: StateCandidate, params: CertParams, l: int,
                   ctx: PhaseContext) -> HermitianMatrix:
    """The true Gram matrix of the state on span{W_(0,0), W_(Theta_j xi)}.

    Neither refute() nor verify() calls it: both read the family through
    the closed-form _family_sums.  It stays as the dense form of that sum,
    for tests and callers.
    """
    if not 1 <= l <= params.d:
        raise ValueError(f"need 1 <= l <= d, got l={l}, d={params.d}")
    if params.N < 1 or params.xi[0] != params.xi[1] or params.xi[1] < 1:
        raise ValueError(f"invalid certificate parameters: {params}")
    return gram(state, family_generators(params, l), ctx)


def _family_orbits(state: StateCandidate, params: CertParams) -> list[tuple[int, Fraction]]:
    """(k, q_(kNx)), by k, for the nonzero values at k = 1..d-1, xi = (x, x): the
    orbits the family reads past p_x, taken from the declared ones alone."""
    step = params.N * params.xi[0]
    return [(k, q) for j, q in state.items()
            if q and not j % step and 0 < (k := j // step) < params.d]


def _family_values(state: StateCandidate, params: CertParams,
                   ctx: PhaseContext) -> list[float]:
    """Witness value of (-p*d, 1, ..., 1) on every family l = 1..d, in closed form.

    On {W_(0,0)} u {W_(Theta_j xi)} with xi = (x, x) the Gram matrix is
    Toeplitz: H_00 = H_jj = 1, H_0j = p and H_ij = q_(N|i-j|x) zeta^(e_(j-i)),
    so the witness value is d - d^2 p^2 + 2 sum_k (d-k) q_(Nkx) cos(e_k h).
    e_k is the exponent gram() uses for the entry (i, i+k), -sigma(g_i, g_(i+k));
    since g_(i+k) - g_i = k (g_2 - g_1) and sigma is bilinear, e_k = k e_1, and
    the labels g_j = (x + jNx, lx) give e_1 = -sigma(g_1, g_2) = sigma_01 N l x^2,
    sigma_01 read from ctx.sigma.  So e_k = k l e, e = sigma_01 N x^2, and each
    distinct m = k l is reduced once, by circle.zeta_residue from one hbar slice
    for the largest exponent (d-1) d |e|, into the float phase_angle(h, e_k)
    gives.  With no value on any orbit N k x every family scores d - d^2 p^2.
    These float scores only choose l* and avg_value; refute() certifies the exact
    total on l*'s family (_family_sums).
    """
    d, n_val, x = params.d, params.N, params.xi[0]
    p = eval_generator(state, params.xi)
    base = float(d - d * d * p * p)
    # 2 (d-k) q_(Nkx), rounded as in 2 * (d - k) * q * cos, which multiplies left to right
    weights = [(k, 2 * (d - k) * float(qk)) for k, qk in _family_orbits(state, params)]
    if not weights:
        return [base] * d
    e = ctx.sigma.matrix[0][1] * n_val * x * x
    held = circle.hbar_slice(ctx.h, (d - 1) * d * abs(e))
    cosines = {m: math.cos(circle.signed_angle(circle.zeta_residue(ctx.h, m * e, held)))
               for m in {k * l for k, _ in weights for l in range(1, d + 1)}}
    return [math.fsum([base, *[w * cosines[k * l] for k, w in weights]]) for l in range(1, d + 1)]


def average_R(matrices) -> HermitianMatrix:
    """Entrywise arithmetic mean, exact.

    refute() does not call it: by linearity the witness value on the family
    average is the mean of the closed-form family values.  It stays as the
    matrix form of the paper's averaging step, for tests and callers.
    """
    mats = list(matrices)
    if not mats:
        raise ValueError("cannot average an empty list of matrices")
    n = mats[0].dim
    if any(m.dim != n for m in mats):
        raise ValueError("dimension mismatch in matrix average")
    rows = [[sum(m.entry(i, j) for m in mats) / len(mats) for j in range(n)] for i in range(n)]
    return HermitianMatrix(rows)


def choose_parameters(p) -> tuple[int, Fraction]:
    """Smallest d with d*p^2 > 1, and eps making the witness margin survive.

    The off-diagonal perturbations contribute at most 2*eps*d^2 to the
    witness value; eps = (d*p^2 - 1)/(4*d) caps that at half the margin
    d*(d*p^2 - 1).  |p| > 1 yields d = 1, the 2x2 short form.
    """
    pf = abs(as_fraction(p))
    if pf == 0:
        raise ValueError("p = 0: nothing to refute")
    d = math.floor(1 / pf**2) + 1
    eps = (d * pf * pf - 1) / (4 * d)
    return d, eps


_ONE = GaussRat(1)  # immutable: every unit entry of a witness is this one value


def witness_vector(p, d: int) -> tuple[GaussRat, ...]:
    """v = (-p*d, 1, ..., 1); its P_d quadratic value is d*(1 - d*p^2) < 0."""
    pf = as_fraction(p)
    if d * pf * pf <= 1:
        raise ValueError(f"d*p^2 = {d * pf * pf} <= 1: no negativity witness")
    return (GaussRat(-pf * d),) + (_ONE,) * d


# ---------------------------------------------------------------------------
# refute / verify
# ---------------------------------------------------------------------------

def refute(state: StateCandidate, ctx: PhaseContext, *, budget: int = DEFAULT_BUDGET):
    """Refute a non-trace candidate, or report consistency with the trace.

    Returns a Certificate whose witness value is strictly negative, or
    ConsistentWithTrace when every declared orbit value vanishes.  The d
    families are scored in closed form (_family_values); the lowest-scoring
    family is l*, and the mean score is the informational avg_value.  The
    certified value is omega(a* a) on l*'s family in the closed form verify()
    reads, _family_sums: B_0 at zeta^0, each C_k at zeta^(ke) and its
    conjugate at zeta^(-ke), over D^2 P, rounded once, term by term
    (algebra.numeric_eval).  Those are the terms of the witness total
    v^dagger H v on l*'s Gram matrix, so the float is the one that dense
    total rounds to, bit for bit; no Gram matrix is built.  When it is not
    negative, eps halves and N is searched again, four tries in all.
    verify() decides the sign of the same exact scalar with a ball
    (_family_sign), and reads this float only for the agreement within tol
    and 2^-49 S of its own midpoint, S the sum of the term sizes, which
    covers that per-term rounding.
    """
    if ctx.genus != 1:
        raise ValueError(
            "the refutation engine works at genus 1; reduce the form with "
            "lattice.symplectic_normal_form first")
    declared = state.declared_orbits()
    nonzero = [j for j in declared if state.value(j) != 0]
    if not nonzero:
        return ConsistentWithTrace(orbits_checked=declared)
    orbit = nonzero[0]
    p = state.value(orbit)
    d, eps = choose_parameters(p)
    try:
        float(d - d * d * p * p)  # the widest float stored: |p| and |p d| are smaller
    except OverflowError:
        raise ValueError(f"orbit {orbit}: |p| is too large for a certificate, which stores "
                         "p, the witness and the value d - d^2 p^2 as floats") from None
    if d > 1000:
        raise DiophantineBudgetError(
            f"refuting p = {p} needs d = {d}; the search for N among multiples "
            f"of {d}! exceeds the engine's practical budget")
    v = witness_vector(p, d)
    for _ in range(4):
        n_val = diophantine_N(ctx, orbit, d, eps, budget=budget)
        params = CertParams(xi=(orbit, orbit), d=d, N=n_val, epsilon=eps)
        values = _family_values(state, params, ctx)
        l_star = values.index(min(values)) + 1
        gens = family_generators(params, l_star)
        e, b0, sums, den = _family_sums(state, params, l_star, v, ctx)
        acc = {0: [b0, 0]}
        for k, c_re, c_im in sums:
            acc[k * e], acc[-k * e] = [c_re, c_im], [c_re, -c_im]
        value = numeric_eval(PhaseScalar._of(_gaussian_terms(acc, den)), ctx).real
        if value < 0:
            return Certificate(
                params=params,
                p=p,
                l_star=l_star,
                generators=gens,
                witness=v,
                value=value,
                avg_value=math.fsum(values) / d,
            )
        eps = eps / 2  # shrink the phase tolerance and retry
    raise RefutationMarginError(
        f"no negative certified value after four tries for p = {p} (degenerate candidate)")


@dataclass(frozen=True)
class ClauseResult:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    accepted: bool
    clauses: tuple[ClauseResult, ...]

    @property
    def failed(self) -> str | None:
        for c in self.clauses:
            if not c.ok:
                return c.name
        return None

    def to_json(self) -> dict:
        return {
            "accepted": self.accepted,
            "failed": self.failed,
            "clauses": [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in self.clauses],
        }


def _family_sums(state: StateCandidate, params: CertParams, l: int, witness,
                 ctx: PhaseContext) -> tuple[int, int, list[tuple[int, int, int]], int]:
    """omega(a* a) for a = sum v_i W_(g_i) on the (N, l) family, exact, in closed form,
    as the ints (e, B_0, [(k, C_re, C_im), ...], D^2 P) of
        omega(a* a) = (B_0 + sum_k (C_k zeta^(ke) + conj(C_k) zeta^(-ke))) / (D^2 P).

    On xi = (x, x) the generators are g_0 = 0 and g_j = x (1 + jN, l), and
    W_(g_i)^* W_(g_j) = zeta^(-sigma(g_i, g_j)) W_(g_j - g_i), omega(W_m) = p_gcd(m).
    Since l | N, the pair (0, j) has content x gcd(1 + jN, l) = x and exponent 0;
    the pair (i, i+k), i >= 1, has the difference (kNx, 0) and the exponent k e,
    e = sigma_01 l N x^2.  The orbit values are real and sigma antisymmetric, so
    the pair (j, i) is the conjugate of (i, j) at the negated exponent, and
        omega(a* a) = sum |v_i|^2 + 2 p_x Re(conj(v_0) sum_j v_j)
                      + sum_k q_(kNx) (c_k zeta^(ke) + conj(c_k) zeta^(-ke)),
    c_k = sum_(i=1..d-k) conj(v_i) v_(i+k).  It reads p_x and the declared
    q_(kNx) != 0, k < d (_family_orbits), forms c_k for those k alone, and
    takes no gcd.  The witness is scaled to Gaussian ints by D, the lcm of
    its part denominators, and the orbit values by P, the lcm of theirs:
    B_0 is the degree-0 sum and C_k = c_k q_(kNx) at that scale, one per
    declared orbit, by k.  The total is real, (B_0 + 2 sum_k Re(C_k zeta^(ke))) / (D^2 P),
    and it is the exact scalar evaluate_exact(state, multiply(adjoint(a), a, ctx))
    gives on family_generators(params, l).
    """
    if ctx.genus != 1:
        raise ValueError(f"verify works at genus 1; the context form has genus {ctx.genus}")
    d, n_val, x = params.d, params.N, params.xi[0]
    if len(witness) != d + 1 or params.xi != (x, x) or l < 1 or n_val % l:
        raise ValueError(f"need xi = (x, x), l | N and d + 1 witness entries: {params}, l={l}")
    den = lcm(*(y.denominator for w in witness for y in (w.re, w.im)))
    re = [w.re.numerator * (den // w.re.denominator) for w in witness]
    im = [w.im.numerator * (den // w.im.denominator) for w in witness]
    imaginary = any(im)
    p = state.value(x)
    qs = _family_orbits(state, params)
    scale = lcm(p.denominator, *(q.denominator for _, q in qs))
    cross = re[0] * sum(re[1:]) + im[0] * sum(im[1:])  # Re(conj(v_0) sum_j v_j)
    diag = sum(map(mul, re, re)) + sum(map(mul, im, im))
    b0 = diag * scale + 2 * cross * (p.numerator * (scale // p.denominator))
    sums = []
    for k, q in qs:
        q = q.numerator * (scale // q.denominator)
        a, b = re[1:d + 1 - k], re[1 + k:]  # v_i and v_(i+k), i = 1..d-k
        c_re, c_im = sum(map(mul, a, b)), 0
        if imaginary:
            s, t = im[1:d + 1 - k], im[1 + k:]
            c_re += sum(map(mul, s, t))
            c_im = sum(map(mul, a, t)) - sum(map(mul, s, b))
        sums.append((k, c_re * q, c_im * q))
    return ctx.sigma.matrix[0][1] * l * n_val * x * x, b0, sums, den * den * scale


def _family_ball(h: Fraction, e: int, b0: int, sums, bits: int) -> tuple[int, int]:
    """(M, rad), ints with |M - 2^bits den T| <= rad, for
    T = (B_0 + 2 sum_k (C_re cos k theta - C_im sin k theta)) / den, theta the
    phase of zeta^e, and _family_sums' nonzero (k, C_re, C_im), by k; bits >= 3.

    circle.zeta_residue(h, e, bits=bits) is theta's residue r, within one unit
    (2^-bits of a turn) of theta, and circle.cos_sin(r, bits) is z_1 = c_1 + i s_1,
    |z_1 - 2^bits w| < 2 sqrt 2, w = e^(2 pi i r / 2^bits).  z_k is z_(k-1) z_1 / 2^bits,
    each part floored, so with E_k = |z_k - 2^bits w^k|, z_0 = 2^bits exactly,
    E_k < E_(k-1) + 3 + 3 E_(k-1) / 2^bits + sqrt 2, which the ints
    R_0 = 0, R_k = R_(k-1) + 6 + floor(3 R_(k-1) / 2^bits) bound.  w^k is within
    2 pi k 2^-bits < 7k 2^-bits of e^(ik theta), so M = B_0 2^bits +
    2 sum_k (C_re c_k - C_im s_k) misses 2^bits den T by at most
    rad = 2 sum_k (|C_re| + |C_im|) (R_k + 7k): one residue, one (cos, sin)
    and one fixed-point complex multiply per power up to the top k.
    """
    c1, s1 = circle.cos_sin(circle.zeta_residue(h, e, bits=bits), bits)
    c, s, power, err = 1 << bits, 0, 0, 0
    mid, rad = b0 << bits, 0
    for k, x, y in sums:
        while power < k:
            c, s = (c * c1 - s * s1) >> bits, (c * s1 + s * c1) >> bits
            power, err = power + 1, err + 6 + (3 * err >> bits)
        mid += 2 * (x * c - y * s)
        rad += 2 * (abs(x) + abs(y)) * (err + 7 * k)
    return mid, rad


def _family_sign(h: Fraction, e: int, b0: int, sums, den: int) -> tuple[int, float]:
    """(sign, mid) of T = (B_0 + 2 sum_k (C_re cos k theta - C_im sin k theta)) / den
    for _family_sums' ints, theta the phase of zeta^e: sign is -1 or 1 where it
    is decided and 0 where it is not, and mid is the ball's midpoint as a
    float, the correctly rounded int quotient M / (2^bits den).

    With no nonzero C_k, T = B_0 / den is exact.  Otherwise the ball
    (_family_ball) decides the sign once |M| > rad; while it holds 0 the
    precision doubles, from GUARD_BITS + bits(top k) + 8, up to PI_DOUBLINGS
    times.  An exact zero (B_0 = 0 and every C_k = 0) is never decided; for
    every other T the exponents k e h are distinct algebraic numbers, so
    the e^(ik e h) are linearly independent over the algebraic numbers
    (Lindemann-Weierstrass), T is not 0, and some precision decides it.
    """
    sums = sorted((k, x, y) for k, x, y in sums if x or y)
    if not sums:
        return (b0 > 0) - (b0 < 0), b0 / den
    bits = circle.GUARD_BITS + sums[-1][0].bit_length() + 8
    for _ in range(PI_DOUBLINGS + 1):
        mid, rad = _family_ball(h, e, b0, sums, bits)
        if abs(mid) > rad:
            return (mid > 0) - (mid < 0), mid / (den << bits)
        bits *= 2
    return 0, mid / (den << bits // 2)


def verify(state: StateCandidate, cert: Certificate, ctx: PhaseContext,
           tol: float = 1e-9) -> VerificationReport:
    """Independently recompute every clause of a certificate.

    Only the l* family carries the proof.  After the parameters are
    re-derived, verify() sums omega(a* a) for a = sum v_i W_(g_i) on the
    (N, l*) family it derives itself, not on cert.generators (the
    "generators" clause compares those), in closed form on ints
    (_family_sums), with no algebra product and no Gram machinery.  Each
    correlation c_k enters at zeta^(ke) and, conjugated, at zeta^(-ke): the
    orbit values are real and sigma is antisymmetric, so for any complex
    witness the (i, j) and (j, i) pair terms are complex conjugates at
    negated exponents, and the exact total T is real.  "negativity" demands
    three things.  The ball decides T < 0 (_family_sign): an exact zero, or
    a ball that still holds 0 after PI_DOUBLINGS doublings, fails the
    clause.  The certified value is negative.  And it agrees with the ball's
    midpoint mid within tol * max(1, |mid|) + 2^-49 S, S the sum of the
    term sizes (|B_0| + 2 sum_k (|C_re| + |C_im|)) / (D^2 P): the allowance
    covers refute's rounding of each term, so tol = 0 accepts refute's own
    certificates.  tol and the float serve only that agreement; the sign
    never reads them.
    avg_value is informational (the mean family score) and is not checked.
    tol is read once by as_tolerance, so "1/10" is a tolerance, and both
    comparisons use that value; nan, infinite or negative raises ValueError.
    """
    tol = as_tolerance(tol)
    clauses: list[ClauseResult] = []

    def clause(name: str, ok: bool, detail: str = "") -> bool:
        clauses.append(ClauseResult(name, bool(ok), detail))
        return bool(ok)

    params = cert.params
    d, n_val, eps, xi = params.d, params.N, params.epsilon, params.xi

    structural = (
        d >= 1
        and n_val >= 1
        and eps > 0
        and len(xi) == 2
        and xi[0] == xi[1] >= 1
        and 1 <= cert.l_star <= d
        and len(cert.witness) == d + 1
        and len(cert.generators) == d + 1
        and all(len(g) == 2 for g in cert.generators)
        and abs(float(cert.p) - float(eval_generator(state, xi))) <= tol
    )
    if not clause("params", structural,
                  "certificate shape and p = omega(W_xi) against the state"):
        return VerificationReport(False, tuple(clauses))

    divisible = clause("divisibility", n_val % math.factorial(d) == 0, f"{d}! | N")
    clause("approximation", satisfies_diophantine(ctx.h, n_val, xi[1], d, eps),
           "|(h N xi2^2) mod 2pi - 2pi/d| < eps/(4 d^2)")
    if not divisible:
        # the Theta_j families need l | N; nothing further can be recomputed
        return VerificationReport(False, tuple(clauses))

    expected_gens = family_generators(params, cert.l_star)
    clause("generators", expected_gens == tuple(cert.generators),
           "generator family matches Theta_j xi for (N, l*)")

    e, b0, sums, den = _family_sums(state, params, cert.l_star, cert.witness, ctx)
    sign, mid = _family_sign(ctx.h, e, b0, sums, den)
    size = (abs(b0) + 2 * sum(abs(x) + abs(y) for _, x, y in sums)) / den  # S
    bound = tol * max(1.0, abs(mid)) + size * 2.0**-49
    clause("negativity", sign < 0 and cert.value < 0 and abs(mid - cert.value) <= bound,
           f"omega(a*a) = {mid:.6e} vs certified {cert.value:.6e}")

    accepted = all(c.ok for c in clauses)
    return VerificationReport(accepted, tuple(clauses))
