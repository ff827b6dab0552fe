import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from nctorus import circle
from nctorus.circle import (
    MODULUS,
    PI_ERROR,
    cos_sin,
    first_hit,
    hbar_slice,
    phase_angle,
    pi_scaled,
    signed_angle,
    to_fixed,
    zeta_residue,
)
from paper_oracles import (PI_200, cos_sin_by_machin, fixed_to_angle, perfbench_reference,
                           phase_angle_by_division, residue_by_fraction, scan_hit, turns_by_machin)


def brute_first_hit(a, m, t, w, cap):
    for k in range(1, cap + 1):
        if (k * a - t) % m <= w:
            return k
    return None


@settings(max_examples=400, deadline=None)
@given(st.integers(2, 4000), st.data())
def test_first_hit_matches_brute_force(m, data):
    a = data.draw(st.integers(0, m - 1))
    t = data.draw(st.integers(0, m - 1))
    w = data.draw(st.integers(-2, m - 1))  # w < 0 is an empty window: no hit
    assert first_hit(a, m, t, w) == brute_first_hit(a, m, t, w, 6 * m)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, MODULUS - 1), st.integers(0, MODULUS - 1))
def test_first_hit_large_modulus(a, t):
    w = MODULUS // 1_000_003
    k = first_hit(a | 1, MODULUS, t, w)
    assert k is not None
    assert ((k * (a | 1) - t) % MODULUS) <= w
    # scan agreement on a small prefix
    limit = min(k + 5, 3000)
    scan_k = scan_hit(a | 1, MODULUS, t, w, limit)
    if k <= limit:
        assert scan_k == k
    else:
        assert scan_k is None


def test_first_hit_no_solution_on_shared_factor():
    # step 4 mod 12 only visits {0, 4, 8}
    assert first_hit(4, 12, 1, 1) is None
    assert first_hit(4, 12, 3, 2) == 1


def test_pi_constant_consistency():
    # hbar at h = 1 starts 0.15915494..., and every slice is the exact floor of
    # h 2^bits / 2pi, bracketed by the reference's Machin pi
    bits, hbar = hbar_slice(Fraction(1), 0)
    assert abs(hbar / 2**bits - 1 / (2 * math.pi)) < 1e-15
    pi_b = perfbench_reference().pi_scaled(6000)
    for h in (Fraction(1), Fraction(3, 7), Fraction(-2), Fraction(-5, 3)):
        for n in (0, 1, 2**64, 3**400, 2**2000):
            bits, hbar = hbar_slice(h, n)
            ends = {math.floor(h * 2**(bits + 6000) / (2 * (pi_b + e))) for e in (2, -2)}
            assert ends == {hbar}


def _congruent_mod_two_pi(a, b):
    x = (a - b) % (2 * math.pi)
    return min(x, 2 * math.pi - x) < 1e-9


def test_phase_angle_small_exponents():
    for k in range(-20, 21):
        got = phase_angle(Fraction(1), k)
        assert -math.pi <= got < math.pi
        assert _congruent_mod_two_pi(got, k * 1.0)
        assert phase_angle(Fraction(1), -k) == -got or got == -math.pi


def test_phase_angle_huge_exponent_exact():
    # reduce k/(2*pi) mod 1 with rational arithmetic as the oracle
    h = Fraction(1)
    for k in (10**20, 3**50, -(7**30)):
        turns = h * k / (2 * PI_200)
        frac = turns - math.floor(turns)
        want = float(frac) * 2 * math.pi
        got = phase_angle(h, k)
        assert -math.pi <= got < math.pi
        assert _congruent_mod_two_pi(got, want)


def test_to_fixed_round_trip():
    for num, den in [(1, 3), (2, 7), (5, 8), (122, 123)]:
        f = to_fixed(Fraction(num, den))
        assert abs(fixed_to_angle(f) - 2 * math.pi * num / den) < 1e-12


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(-2**320, 2**320), st.integers(-2**4000, 2**4000),
                 st.sampled_from([0, 1, MODULUS // 2 - 1, MODULUS // 2, MODULUS // 2 + 1,
                                  MODULUS - 1, MODULUS, -1, -MODULUS // 2])),
       st.sampled_from((Fraction(1), Fraction(3, 7), Fraction(-2), Fraction(-5, 3))))
def test_signed_angle_is_the_division_float(fixed, h):
    # float(fixed) * RADIAN rounds (fixed / 2^256) * 2 * pi once, as dividing first does,
    # so signed_angle and phase_angle give the division's float bit for bit; the residue
    # of zeta^k is exact at any |k|, and the angle of zeta^-k is the negated angle
    residue = fixed % MODULUS
    want = fixed_to_angle(residue) if 2 * residue < MODULUS else -fixed_to_angle(MODULUS - residue)
    assert signed_angle(fixed) == want
    got = phase_angle(h, fixed)
    assert got == phase_angle_by_division(h, fixed)
    assert phase_angle(h, -fixed) == -got or got == -math.pi


def test_residue_is_decided_at_any_guard(monkeypatch):
    # with no guard bits most products and hbar floors land undecided, and the
    # wider slices of zeta_residue and hbar_slice still give the exact residue
    monkeypatch.setattr(circle, "GUARD_BITS", 0)
    pi_b = perfbench_reference().pi_scaled(3000)
    for h in (Fraction(1), Fraction(-3, 7)):
        for k in (1, -3, 2**64 + 1, 3**400, -(7**900), 2**1500 - 1):
            assert zeta_residue(h, k) == residue_by_fraction(h, k)
        for j in range(0, 1500, 3):
            bits, hbar = hbar_slice(h, 1 << j)
            assert {math.floor(h * 2**(bits + 3000) / (2 * (pi_b + e))) for e in (2, -2)} == {hbar}


def _quadrant_edges(test):
    """@example at every quarter turn of a 256-bit residue, and one unit either side."""
    for j in range(-1, 6):
        for step in (-1, 0, 1):
            test = example((256, j * 2**254 + step))(test)
    return test


@settings(max_examples=300, deadline=None)
@given(st.integers(3, 320).flatmap(lambda b: st.tuples(st.just(b), st.one_of(
    st.integers(-2**(b + 1), 2**(b + 1)),  # drawn near 0 and the ends, mostly
    st.binary(min_size=41, max_size=41).map(
        lambda raw: int.from_bytes(raw, "big") % 2**(b + 2) - 2**(b + 1))))))
@_quadrant_edges
@example((3, 0))
@example((3, 7))
@example((4, -9))
def test_cos_sin_holds_the_true_values(case):
    # the fixed-point cos and sin of the turn residue r at b bits are within 2 units of
    # 2^b cos(2 pi r / 2^b) and 2^b sin(2 pi r / 2^b), read to 400 bits by the oracle
    bits, r = case
    c, s = cos_sin(r, bits)
    want_c, want_s = cos_sin_by_machin(Fraction(r, 1 << bits), 400)
    assert abs(c - want_c * 2**bits) < 2 and abs(s - want_s * 2**bits) < 2


def test_cos_sin_needs_three_bits():
    with pytest.raises(ValueError):
        cos_sin(1, 2)


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.integers(-2**320, 2**320), st.integers(-2**2000, 2**2000)),
       st.integers(1, 700), st.sampled_from((Fraction(1), Fraction(3, 7), Fraction(-5, 3))))
def test_residue_at_any_bit_count(k, bits, h):
    # zeta_residue(h, k, bits=b) is floor(|k| hbar 2^b) mod 2^b, with k's sign: the
    # 256-bit residue is its top bits, and it is within a unit of the 400-bit oracle
    r = zeta_residue(h, k, bits=bits)
    if bits <= 256:
        assert r == (zeta_residue(h, abs(k)) >> (256 - bits)) * (1 if k >= 0 else -1) % 2**bits
    want = turns_by_machin(h, k, bits + 64) * 2**bits
    assert abs(r - want) < 1 or abs(abs(r - want) - 2**bits) < 1


def test_phase_floats_do_not_depend_on_slice_order(tmp_path):
    # a pi slice depends on the widest one computed before it, but every hbar is a floor
    # decided on the pi interval: wide exponents first give, in a fresh process, the
    # floats narrow ones first give
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys; from fractions import Fraction as F; from nctorus import circle\n"
            "ks = [3, -5, 2**300 + 7, 3**500, -(2**2000 + 1), 5**1700]\n"
            "order = ks if sys.argv[1] == 'narrow' else ks[::-1]\n"
            "got = {(str(h), k): circle.phase_angle(h, k) for h in (F(1), F(-3, 7)) for k in order}\n"
            "print(sorted(got.items()))")
    out = [subprocess.run([sys.executable, "-c", code, order], cwd=tmp_path, env=env, text=True,
                          capture_output=True, timeout=120, check=True).stdout
           for order in ("narrow", "wide")]
    assert out[0] == out[1] and out[0].startswith("[(")


def test_pi_scaled_error_bound(monkeypatch):
    # from a cold cache: each request at or below the widest one is a slice of it
    monkeypatch.setattr(circle, "_PI_CACHE", (0, 3))
    for bits in (0, 1, 7, 64, 300, 650, 120, 5):
        assert abs(PI_200 * 2**bits - pi_scaled(bits)) < PI_ERROR  # PI_200 is 1e-200 off, ~2^-664
    # past the 200 digits, against the reference's own Machin pi, floor(pi 2^b) to one unit
    wide = pi_scaled(20000)
    assert abs(wide - perfbench_reference().pi_scaled(20000)) <= PI_ERROR
    assert circle._PI_CACHE[0] >= 20000
    for bits in (0, 650, 4096, 19999):
        assert abs(wide - (pi_scaled(bits) << (20000 - bits))) < PI_ERROR << (20000 - bits)
    with pytest.raises(ValueError):
        pi_scaled(-1)
