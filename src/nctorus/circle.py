"""Fixed-point arithmetic on the unit circle, and the one integer pi.

Pi enters the package only as pi_scaled(bits), an integer Machin pi with a
proved error bound.  The Diophantine clause is decided on ints against it
(certificate.satisfies_diophantine), and so is every phase: the phase of
zeta^k is the exact 256-bit residue floor(|k| hbar 2^256) mod one turn,
with k's sign (zeta_residue), so a phase float depends on h and k alone.
A residue can be read at any bit count, and cos_sin turns it into
fixed-point cos and sin with a proved error: the ball in which
certificate.verify decides the sign of omega(a* a).

The module also hosts the minimal-hit solver for irrational rotations:
the smallest k >= 1 with k * alpha landing in a prescribed arc.  This is
the continued-fraction style solver behind the Diophantine step, and the
only one: the plain linear scan lives in the tests as its brute-force
oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction

BITS = 256
MODULUS = 1 << BITS
RADIAN = 2.0 * math.pi / MODULUS  # radians per fixed-point unit: a power-of-two scaling, exact
GUARD_BITS = 64  # bits read past what a decision needs: it is left undecided ~2^-64 of the time

PI_ERROR = 2  # |pi * 2^bits - pi_scaled(bits)| < PI_ERROR, for every bits >= 0

_PI_CACHE = (0, 3)  # (bits, pi_scaled(bits)) at the widest precision computed so far


def _arctan_inv(x: int, one: int) -> int:
    """arctan(1/x) * one, to within the error bound in pi_scaled."""
    power = total = one // x
    x2, k, sign = x * x, 3, -1
    while power:
        power //= x2
        total += sign * (power // k)
        sign, k = -sign, k + 2
    return total


def pi_scaled(bits: int) -> int:
    """An integer P with |pi * 2^bits - P| < PI_ERROR = 2.

    Machin's formula pi = 16 arctan(1/5) - 4 arctan(1/239) is summed at
    n = top + g bits, with top >= bits the widest precision asked for so
    far and g = bits(top) + 7 guard bits, and the sum is cut to top bits
    once; a narrower request shifts that cached value right.

    Proof of the bound.  Put one = 2^n.  _arctan_inv(x, one) adds the terms
    T_k = floor(floor(one / x^(2k+1)) / (2k+1)) = floor(one / ((2k+1) x^(2k+1)))
    (nested floors of positive ints) with alternating signs, for k = 0..K,
    where K is the first k with x^(2K+1) > one.  Each T_k is below the true
    term t_k = one / ((2k+1) x^(2k+1)) by less than 1, and the omitted tail
    of the alternating series is below t_(K+1) < 1, so the sum misses
    one * arctan(1/x) by less than K + 2.  Since x^(2K-1) <= one,
    K <= (n / log2(x) + 1) / 2: under n/4.64 + 1/2 for x = 5 and n/15.8 + 1/2
    for x = 239.  The Machin sum S therefore misses one * pi by less than
    16 (n/4.64 + 5/2) + 4 (n/15.8 + 5/2) < 4n + 50 = 4 top + 4g + 50, and
    2^g >= 128 (top + 1) exceeds that for every top >= 0.
    So |S / 2^g - pi 2^top| < 1, and P_top = floor(S / 2^g) adds at most 1
    more: |pi 2^top - P_top| < 2.  For bits < top, P_top / 2^(top-bits)
    misses pi 2^bits by less than 2 / 2^(top-bits) <= 1, and the floor of
    the shift adds less than 1 again, so the bound holds for every slice.
    """
    global _PI_CACHE
    if bits < 0:
        raise ValueError(f"need bits >= 0, got {bits}")
    top, value = _PI_CACHE
    if bits > top:
        top = max(bits, 2 * top)  # widen geometrically: a growing precision recomputes rarely
        guard = top.bit_length() + 7
        one = 1 << (top + guard)
        value = (16 * _arctan_inv(5, one) - 4 * _arctan_inv(239, one)) >> guard
        _PI_CACHE = (top, value)
    return value >> (top - bits)


def to_fixed(turns: Fraction) -> int:
    """A rational number of turns as a fixed-point residue mod one turn."""
    return (turns.numerator * MODULUS) // turns.denominator % MODULUS


def hbar_slice(h: Fraction, n: int, bits: int = BITS) -> tuple[int, int]:
    """(b, floor(h 2^b / 2pi)) at b = bits(n) + bits + GUARD_BITS: hbar, exact,
    at the precision zeta_residue reads every exponent |k| <= n at to `bits` bits.

    The floor is taken at both ends of the pi interval P -+ PI_ERROR,
    P = pi_scaled(m), m doubling from b + bits(h's numerator) + GUARD_BITS
    while the two differ (h 2^b / 2pi is irrational, so that ends).  Being
    exact, it does not depend on which pi slices were computed before.
    """
    b = n.bit_length() + bits + GUARD_BITS
    m = b + abs(h.numerator).bit_length() + GUARD_BITS
    while len(ends := {(h.numerator << (b + m)) // (2 * h.denominator * (pi_scaled(m) + e))
                       for e in (PI_ERROR, -PI_ERROR)}) > 1:
        m *= 2
    return b, ends.pop()


def zeta_residue(h: Fraction, k: int, held: tuple[int, int] | None = None,
                 bits: int = BITS) -> int:
    """The phase of zeta^k: floor(|k| hbar 2^bits) mod one turn, negated for k < 0.

    With (b, H) = hbar_slice(h, n, bits), n >= |k|, |k| H <= |k| hbar 2^b < |k| H + |k|,
    so both ends of the product shifted down to `bits` bits bound the residue.
    They agree but for about 2^-64 of exponents; where they differ, a wider
    slice is read.  So the residue is the exact floor whatever slice decides
    it, and the true phase of zeta^k lies within one unit, 2^-bits of a turn,
    of it.  held is a slice the caller took once for many exponents, at the
    same `bits`.
    """
    n = abs(k)
    width, hbar = held or hbar_slice(h, n, bits)
    while (r := (t := n * hbar) >> (width - bits)) != (t + n) >> (width - bits):
        width, hbar = hbar_slice(h, n << width, bits)  # bits(n) + width more bits
    mask = (1 << bits) - 1
    return -r & mask if k < 0 else r & mask  # mod one turn, as a mask


def cos_sin(r: int, bits: int) -> tuple[int, int]:
    """Fixed-point (cos, sin) of the turn residue r: ints (c, s) with
    |c - 2^bits cos(t)| < 2 and |s - 2^bits sin(t)| < 2, t = 2pi r / 2^bits, bits >= 3.

    The quarter turns come off exactly: r = j 2^(bits-2) + f with
    |f| <= 2^(bits-3), so t = j pi/2 + alpha, |alpha| <= pi/4, and (cos t, sin t)
    is (cos alpha, sin alpha) turned j times by (c, s) -> (-s, c).  The Taylor
    series of alpha are summed at w = bits + g bits, g = bits(bits) + 2.

    Proof of the bound.  With P = pi_scaled(w), |P - pi 2^w| < PI_ERROR = 2,
    A = floor(f P / 2^(bits-1)) misses alpha 2^w = f pi 2^(w-bits+1) by less
    than |f| 2 / 2^(bits-1) + 1 <= 3/2, so u = |A| / 2^w is within 3/2 units
    (of 2^-w) of |alpha| and below 0.79; cos is even and sin odd, so s takes
    the sign of A.  The terms t_0 = 2^w, t_n = floor(t_(n-1) |A| / (n 2^w))
    (nested floors of non-negative ints) fall short of V_n = 2^w u^n / n! by
    e_n, 0 <= e_n < e_(n-1) u / n + 1, so e_n < 2 for every n.  The loop stops
    at the first t_Z = 0, Z <= w as V_w = 2^w u^w / w! < 1.58^w / w! < 1; V_n
    falls with n, so each alternating tail left out is below V_Z <= e_Z < 2.
    Each sum, of at most w/2 computed terms, is then within w + 2 units of
    2^w cos u (resp. 2^w sin u), and within w + 4 of 2^w cos alpha (resp. sin),
    both 1-Lipschitz.  2^g > 4 bits >= w + 4 for bits >= 3, so the shift to
    bits bits leaves under one unit, and its floor under one more: under 2.
    The quarter turns are exact.
    """
    if bits < 3:
        raise ValueError(f"need bits >= 3, got {bits}")
    j, f = divmod(r + (1 << (bits - 3)), 1 << (bits - 2))
    f -= 1 << (bits - 3)
    g = bits.bit_length() + 2
    w = bits + g
    a = f * pi_scaled(w) >> (bits - 1)
    u, term, n = abs(a), 1 << w, 0
    sums = [term, 0]  # cos alpha, sin |alpha|, at w bits
    while term:
        n += 1
        term = (term * u >> w) // n
        sums[n & 1] += -term if n & 2 else term
    c, s = sums[0] >> g, sums[1] >> g
    if a < 0:
        s = -s
    for _ in range(j & 3):
        c, s = -s, c
    return c, s


def phase_angle(h: Fraction, zeta_exp: int) -> float:
    """Angle of zeta^k in radians, the signed residue in [-pi, pi).

    zeta_exp may be astronomically large: zeta_residue reduces it exactly
    first, and signs it, so the angle of zeta^-k is exactly the negated
    angle of zeta^k, and their rounded values are exact conjugates.
    """
    return signed_angle(zeta_residue(h, zeta_exp))


def signed_angle(fixed: int) -> float:
    """Radians in [-pi, pi) of fixed mod one turn, a fixed-point turn fraction.

    The one expression for a phase float: float(fixed) is correctly rounded
    and RADIAN exact, so it rounds (fixed / 2^256) * 2 * pi once, and a caller
    that reads zeta_residue itself (numeric_eval, certificate scoring) gets
    the float phase_angle(h, k) gives, bit for bit.
    """
    fixed &= MODULUS - 1  # mod one turn
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

