"""Fixed-point arithmetic on the unit circle.

Phases are represented as 256-bit fixed-point fractions of a full turn;
the Diophantine step does not use them (certificate._window is exact).
The certificate pipeline produces zeta-exponents far beyond 2^53, where a
double carries no phase information at all; reducing k * hbar mod 1 in
integer arithmetic keeps every numeric phase deterministic.  It is not
accurate to 2^-256 of a turn, though: hbar_fixed keeps 256 bits of
hbar = h/(2*pi), so the phase of zeta^k carries an error of about
|k| * 2^-256 turns.  Past |k| ~ 2^240 that error is no longer small
(2^-16 turns), and past 2^256 the phase is lost; the multi-orbit
certificate at d = 60 reaches k ~ 2^309 (defect A).  ROADMAP item 7
replaces this with a phase precision chosen per exponent.

The module also hosts the minimal-hit solver for irrational rotations:
the smallest k >= 1 with k * alpha landing in a prescribed arc.  This is
the continued-fraction style solver behind the Diophantine step, and the
only one: the plain linear scan lives in the tests as its brute-force
oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

BITS = 256
MODULUS = 1 << BITS
RADIAN = 2.0 * math.pi / MODULUS  # radians per fixed-point unit: a power-of-two scaling, exact

# 200 decimal digits of pi: ample for 256-bit phases, too few for
# certificate._window from d ~ 115 on (defect B, ROADMAP item 2).
PI = Fraction(
    "3.14159265358979323846264338327950288419716939937510582097494459230781"
    "64062862089986280348253421170679821480865132823066470938446095505822317"
    "2535940812848111745028410270193852110555964462294895493038196"
)
TWO_PI = 2 * PI


def to_fixed(turns: Fraction) -> int:
    """A rational number of turns as a fixed-point residue mod one turn."""
    return (turns.numerator * MODULUS) // turns.denominator % MODULUS


@lru_cache(maxsize=None)
def hbar_fixed(h: Fraction) -> int:
    """Fixed-point representation of hbar = h / (2*pi) modulo one turn."""
    return to_fixed(h / TWO_PI)


def phase_angle(h: Fraction, zeta_exp: int, root: Fraction = Fraction(0)) -> float:
    """Angle of zeta^k * e(r) in radians, the signed residue in [-pi, pi).

    zeta_exp may be astronomically large; the reduction happens on 256-bit
    integers before any float is produced.  The angle is only as good as
    hbar_fixed, whose 256 bits leave an error of about |zeta_exp| * 2^-256
    turns: 2^-16 turns at 2^240, and the phase is lost past 2^256 (module
    docstring).  The residue is signed, so the angle of zeta^-k is exactly
    the negated angle of zeta^k, and their rounded values are exact
    conjugates.
    """
    return signed_angle(zeta_exp * hbar_fixed(h) + to_fixed(root))


def signed_angle(fixed: int) -> float:
    """Radians in [-pi, pi) of fixed mod one turn, a fixed-point turn fraction.

    The one expression for a phase float: float(fixed) is correctly rounded
    and RADIAN exact, so it rounds (fixed / 2^256) * 2 * pi once, and a caller
    that reduces k * hbar_fixed(h) itself (numeric_eval, certificate
    scoring) gets the float phase_angle(h, k) gives, bit for bit.
    """
    fixed %= MODULUS
    return float(fixed) * RADIAN if 2 * fixed < MODULUS else -(float(MODULUS - fixed) * RADIAN)


# ---------------------------------------------------------------------------
# minimal hitting time of the rotation k -> k * a mod m
# ---------------------------------------------------------------------------

def first_hit(a: int, m: int, t: int, w: int) -> int | None:
    """Minimal k >= 1 with ((k*a - t) mod m) <= w, or None if unreachable.

    Euclidean descent: a is mirrored below m/2, then the wrapped hits are
    the hits of the inverse rotation modulo a, which shrinks the problem
    like the continued fraction of a/m.  Runs in O(log^2 m).
    """
    a %= m
    t %= m
    if w >= m - 1:
        return 1
    if a == 0:
        return 1 if (-t) % m <= w else None
    if 2 * a > m:
        return first_hit(m - a, m, (-(t + w)) % m, w)
    # window wraps zero and k = 1 lands in the wrapped part
    if t + w >= m and a <= t + w - m:
        return 1
    # direct multiples (no wrap yet)
    if t == 0:
        if a <= w:
            return 1
    else:
        k = -(-t // a)
        if k * a <= t + w:
            return k
    # wrapped hits: minimal j >= 1 with ((j*(-m) - t) mod a) <= w
    j = first_hit((-m) % a, a, t % a, w)
    if j is None:
        return None
    s = t + ((-j * m - t) % a)
    return (j * m + s) // a

