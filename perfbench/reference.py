"""Independent correctness reference for the benchmark, stdlib only.

Nothing here imports nctorus.  The formulas come from the paper's
definitions: W_n W_m = zeta^sigma(n,m) W_(n+m), zeta = exp(i*h),
sigma(m, n) = m1*n2 - m2*n1, W_m^* = W_(-m), and omega(W_m) = p_gcd(m)
with p_0 = 1.  Angles are reduced against an integer Machin pi carrying
bits(exponent) + 64 bits, and cosines are summed in `decimal`, so the
reference stays exact where a 256-bit fixed-point phase does not.
"""

from __future__ import annotations

import json
import math
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

GUARD_BITS = 64
DIGITS = 40
REL_TOL = 1e-6


def _arctan_inv(x: int, one: int) -> int:
    """arctan(1/x) scaled by `one`, by the alternating Taylor series."""
    power = total = one // x
    x2, k, sign = x * x, 3, -1
    while power:
        power //= x2
        total += sign * (power // k)
        sign, k = -sign, k + 2
    return total


@lru_cache(maxsize=None)
def pi_scaled(bits: int) -> int:
    """floor(pi * 2**bits), up to one unit, from Machin's formula."""
    one = 1 << (bits + 32)
    pi = 16 * _arctan_inv(5, one) - 4 * _arctan_inv(239, one)
    return pi >> 32


def _turn_bits(x: Fraction) -> int:
    """Working precision for reducing x radians mod 2*pi."""
    return max(abs(x.numerator) // x.denominator, 1).bit_length() + GUARD_BITS


def reduce_angle(x: Fraction) -> tuple[int, int, int]:
    """(r, pi_b, bits) with r / 2**bits = x mod 2*pi in [0, 2*pi)."""
    bits = _turn_bits(x)
    pi_b = pi_scaled(bits)
    return (x.numerator << bits) // x.denominator % (2 * pi_b), pi_b, bits


def _cos_sin(r: int, pi_b: int, bits: int) -> tuple[Decimal, Decimal]:
    if r > pi_b:  # move to (-pi, pi] so the series converges fast
        r -= 2 * pi_b
    with localcontext() as c:
        c.prec = DIGITS + 5
        x = Decimal(r) / Decimal(1 << bits)
        x2 = x * x
        cos = term_c = Decimal(1)
        sin = term_s = x
        tiny = Decimal(10) ** -(DIGITS + 3)
        k = 1
        while abs(term_c) + abs(term_s) > tiny:
            term_c = -term_c * x2 / ((2 * k - 1) * (2 * k))
            term_s = -term_s * x2 / ((2 * k) * (2 * k + 1))
            cos += term_c
            sin += term_s
            k += 1
        return +cos, +sin


def sigma(m, n) -> int:
    return m[0] * n[1] - m[1] * n[0]


def orbit_value(values: dict[int, Fraction], m) -> Fraction:
    g = math.gcd(m[0], m[1])
    return Fraction(1) if g == 0 else values.get(g, Fraction(0))


def omega_aa(values: dict[int, Fraction], generators, witness, h: Fraction) -> Decimal:
    """Re omega(a* a) for a = sum_i v_i W_(g_i).

    omega(W_(g_i)^* W_(g_j)) = zeta^(-sigma(g_i, g_j)) p(g_j - g_i); the
    (i, j) and (j, i) terms are conjugate, so the upper triangle suffices.
    """
    gens = [tuple(int(x) for x in g) for g in generators]
    vs = [(Fraction(re), Fraction(im)) for re, im in witness]
    total = Fraction(0)
    dec_total = Decimal(0)
    with localcontext() as c:
        c.prec = DIGITS
        for i, (gi, (ar, ai)) in enumerate(zip(gens, vs)):
            total += ar * ar + ai * ai
            for j in range(i + 1, len(gens)):
                gj = gens[j]
                p = orbit_value(values, (gj[0] - gi[0], gj[1] - gi[1]))
                if not p:
                    continue
                br, bi = vs[j]
                # c_ij = conj(v_i) v_j
                cr, ci = ar * br + ai * bi, ar * bi - ai * br
                cos, sin = _cos_sin(*reduce_angle(-h * sigma(gi, gj)))
                # 2 Re(c_ij e^(i theta)) p
                dec_total += 2 * _dec(p) * (_dec(cr) * cos - _dec(ci) * sin)
        return _dec(total) + dec_total


def _dec(q: Fraction) -> Decimal:
    return Decimal(q.numerator) / Decimal(q.denominator)


def approximation_holds(h: Fraction, n: int, xi2: int, d: int, eps: Fraction) -> bool:
    """|(h N xi2^2) mod 2pi - 2pi/d| < eps/(4 d^2), decided with Machin pi."""
    x = h * n * xi2 * xi2
    r, pi_b, bits = reduce_angle(x)
    dev = abs(r - 2 * pi_b // d)
    bound = eps / (4 * d * d) * (1 << bits)
    if abs(dev - bound) <= 4:
        raise ArithmeticError("approximation clause too close to its bound to decide")
    return dev < bound


def check_certificate(text: str, values: dict[int, Fraction], h: Fraction = Fraction(1)):
    """Decide a certificate on its own.

    Returns (valid, reference_value, reason).  A certificate is valid when
    d! divides N, the approximation clause holds, and the recomputed
    omega(a* a) is negative and matches the certified value within
    1e-6 * max(1, |ref|).  The generator family is taken as given.
    """
    obj = json.loads(text, parse_float=Fraction)
    d, n = int(obj["d"]), int(obj["N"])
    xi2 = int(obj["xi"][1])
    ref = omega_aa(values, obj["generators"], obj["witness"], h)
    value = _dec(obj["value"])
    if n % math.factorial(d):
        return False, ref, f"{d}! does not divide N"
    if not approximation_holds(h, n, xi2, d, Fraction(obj["epsilon"])):
        return False, ref, "approximation clause fails"
    if abs(value - ref) > Decimal(REL_TOL) * max(Decimal(1), abs(ref)):
        return False, ref, f"certified value {float(value):.6g} but reference gives {float(ref):.6g}"
    if ref >= 0 or value >= 0:
        return False, ref, f"omega(a* a) = {float(ref):.6g} is not negative"
    return True, ref, "ok"


# ---------------------------------------------------------------------------
# closed forms for the exact-algebra workload
# ---------------------------------------------------------------------------

def det_p_matrix(p: Fraction, d: int) -> Fraction:
    """det of P_d = [p; 1; 0...] (unit diagonal, p in row and column 0)."""
    return 1 - d * p * p


def p_matrix_is_psd(p: Fraction, d: int) -> bool:
    return d * p * p <= 1


def p_matrix_form(p: Fraction, v) -> Fraction:
    """v^H P_d v for a vector of (re, im) Fraction pairs."""
    total = Fraction(0)
    (r0, i0), rest = v[0], v[1:]
    total += r0 * r0 + i0 * i0
    sr = si = Fraction(0)
    for re, im in rest:
        total += re * re + im * im
        sr += re
        si += im
    # 2 Re(conj(v_0) p sum v_j)
    return total + 2 * p * (r0 * sr + i0 * si)


def root_sum(j: int, d: int) -> int:
    """sum_{l=1..d} e(j l / d)."""
    return d if j % d == 0 else 0
