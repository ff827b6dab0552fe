import hashlib
import json
import math
import random
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nctorus.algebra import AlgebraElement, PhaseContext, adjoint, multiply, numeric_eval
from nctorus.certificate import (
    CertParams,
    Certificate,
    ConsistentWithTrace,
    DiophantineBudgetError,
    DiophantinePrecisionError,
    _family_ball,
    _family_orbits,
    _family_sums,
    _family_values,
    _decide,
    _window,
    average_R,
    build_H_second,
    choose_parameters,
    diophantine_N,
    family_generators,
    refute,
    satisfies_diophantine,
    verify,
    witness_vector,
)
from nctorus.states import (
    HermitianMatrix,
    StateCandidate,
    determinant_exact,
    eval_generator,
    evaluate,
    evaluate_exact,
    gram,
    is_psd,
    quadratic_form,
)
from nctorus.circle import PI_ERROR, pi_scaled
from nctorus.lattice import SIGMA2, SkewForm
from nctorus.scalars import GaussRat, PhaseScalar
from paper_oracles import (build_H_prime, clause_by_reference_pi, dense_value, det_P,
                           diophantine_fraction, cos_sin_by_machin, family_generators_by_theta,
                           family_total, family_total_by_machin, is_hermitian,
                           perfbench_reference, scan_hit, turns_by_machin)


# -- diophantine ------------------------------------------------------------

@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("eps", [Fraction(1, 2), Fraction(1, 10)])
def test_diophantine_minimal_and_divisible(ctx, d, eps):
    n = diophantine_N(ctx, 1, d, eps)
    assert n % math.factorial(d) == 0
    assert satisfies_diophantine(ctx.h, n, 1, d, eps)
    # minimality: no smaller multiple of d! satisfies the inequality
    fact = math.factorial(d)
    for k in range(1, n // fact):
        assert not satisfies_diophantine(ctx.h, fact * k, 1, d, eps)


def test_diophantine_scan_agrees_with_exact(ctx):
    # a scan of the window at pi = pi_scaled(256) / 2^256: 2^-254 from the true pi, far
    # finer than these windows, so its least hit is the least hit for the true pi
    for d, xi2, eps in [(2, 1, Fraction(1, 2)), (3, 2, Fraction(1, 2)), (4, 1, Fraction(1, 1))]:
        exact = diophantine_N(ctx, xi2, d, eps)
        a, m, t, w = _window(ctx.h, xi2, d, eps, pi_scaled(256), 256)
        fact = math.factorial(d)
        scanned = fact * scan_hit(fact * a, m, t, w, 10**6)
        assert exact == scanned


@settings(max_examples=300, deadline=None)
@given(h=st.fractions(-10, 10).filter(bool), d=st.integers(1, 60), xi2=st.integers(1, 9),
       mantissa=st.integers(1, 999), exponent=st.integers(-12, 6), data=st.data())
def test_window_decides_the_fraction_inequality(h, d, xi2, mantissa, exponent, data):
    # eps runs from 1e-15 to 1e6: past 8*pi*d the window is wider than 1/d.  At these
    # sizes the 200-digit pi of diophantine_fraction decides the clause as the true pi
    # does, and the search is total: pi is irrational, so some multiple of d! hits
    eps = Fraction(mantissa, 1000) * Fraction(10) ** exponent
    ns = [data.draw(st.integers(0, 2**400)) for _ in range(3)]
    n_val = diophantine_N(PhaseContext(h=h), xi2, d, eps, budget=10**1000)
    assert diophantine_fraction(h, n_val, xi2, d, eps)
    ns += [n_val - 1, n_val, n_val + 1, n_val + math.factorial(d)]
    for n in ns:
        assert satisfies_diophantine(h, n, xi2, d, eps) == diophantine_fraction(h, n, xi2, d, eps)


def test_window_clamps(ctx):
    # d = 1: one-sided, below a full turn; eps = 1000 > 8 pi d: the whole turn.  At
    # either end of the pi interval the clamped window reads the clause for that pi,
    # and for n < 2000 both ends decide it as the true pi does
    bits = 256
    p = pi_scaled(bits)
    for d, eps, lo_clamped, hi_clamped in [(1, Fraction(1, 10), False, True),
                                           (3, 1000, True, True),
                                           (3, Fraction(1, 10), False, False)]:
        for q in (p - PI_ERROR, p + PI_ERROR):
            a, m, t, w = _window(ctx.h, 1, d, eps, q, bits)
            assert (t == 0, t + w == m - 1) == (lo_clamped, hi_clamped)
            assert all(((n * a - t) % m <= w) == diophantine_fraction(ctx.h, n, 1, d, eps)
                       == satisfies_diophantine(ctx.h, n, 1, d, eps) for n in range(2000))


def test_decide_reads_the_window_edges(monkeypatch):
    # pi fixed at q / 2^bits, an interval of width 0: _decide must read the clause as
    # _window does for every n over two turns, and these residues land on both
    # edges c - H and c + H, which the open window leaves out
    from nctorus import circle

    h, d, eps, bits, q = Fraction(1, 5), 2, Fraction(3, 4), 3, 50
    monkeypatch.setattr(circle, "PI_ERROR", 0)
    monkeypatch.setattr(circle, "pi_scaled", lambda _bits: q)
    a, m, t, w = _window(h, 1, d, eps, q, bits)
    ns = range(1, 2 * m + 1)
    assert {t - 1, t + w + 1} <= {n * a % m for n in ns}  # 1906 and 1969 among them
    assert [_decide(h, n, 1, d, eps, bits) for n in ns] == [(n * a - t) % m <= w for n in ns]


def test_diophantine_finer_than_fixed_point(ctx):
    # a window far below 2^-256 turns: the decided clause still finds and reads it.
    # N ~ 2^330 puts the 200-digit pi of diophantine_fraction about 1e-100 radians off,
    # the window's own width, so the reference's Machin pi judges the hit
    eps = Fraction(1, 10**100)
    n_val = diophantine_N(ctx, 1, 2, eps, budget=10**400)
    assert n_val % 2 == 0 and n_val.bit_length() > 256
    assert satisfies_diophantine(ctx.h, n_val, 1, 2, eps)
    assert clause_by_reference_pi(ctx.h, n_val, 1, 2, eps)


def test_diophantine_narrow_window(ctx):
    # a window of width 1e-250 around 2pi/3.  A rational pi would make the rotation
    # periodic, with about 1e-200 turns between its points, and no multiple of 3! would
    # reach the window; pi is irrational, so some multiple does, past a small budget
    eps = Fraction(1e-250)
    with pytest.raises(DiophantineBudgetError, match="exceeds the search budget"):
        diophantine_N(ctx, 1, 3, eps, budget=10**9)
    n_val = diophantine_N(ctx, 1, 3, eps, budget=10**1000)
    assert n_val % math.factorial(3) == 0
    assert satisfies_diophantine(ctx.h, n_val, 1, 3, eps)
    assert clause_by_reference_pi(ctx.h, n_val, 1, 3, eps)


def test_clause_near_its_edge_doubles_the_precision(ctx, monkeypatch):
    # eps puts the window's edge 2^-150 of the deviation away from N's residue: the
    # first precision, about 100 bits, cannot tell the sides apart, a doubled one can
    from nctorus import certificate

    n_val, d, bits = 6 * 10**6, 3, 1200
    p = pi_scaled(bits)
    dev = abs((n_val << bits) % (2 * p) - 2 * p // d)  # |N mod 2pi - 2pi/3| 2^1200, to ~2^25
    calls = []
    decide = certificate._decide
    monkeypatch.setattr(certificate, "_decide", lambda *a: calls.append(a[-1]) or decide(*a))
    for sign in (1, -1):
        eps = Fraction(4 * d * d * dev, 1 << bits) * (1 + Fraction(sign, 1 << 150))
        calls.clear()
        assert satisfies_diophantine(ctx.h, n_val, 1, d, eps) == (sign > 0)
        assert len(calls) == 2 and calls[1] == 2 * calls[0] < 300


def test_wider_pi_interval_keeps_every_answer(ctx, monkeypatch):
    # a looser error bound still holds the true pi: the doublings that follow move
    # no verdict and no least N; a bound no doubling overcomes raises the typed error
    cases = [(d, eps, diophantine_N(ctx, 1, d, eps)) for d, eps in
             [(1, Fraction(1, 10)), (3, Fraction(1, 10**6)), (12, choose_parameters(0.3)[1])]]
    monkeypatch.setattr("nctorus.circle.PI_ERROR", 1 << 70)
    for d, eps, n_val in cases:
        assert diophantine_N(ctx, 1, d, eps) == n_val
        assert satisfies_diophantine(ctx.h, n_val, 1, d, eps)
        assert not satisfies_diophantine(ctx.h, n_val + math.factorial(d), 1, d, eps)
    monkeypatch.setattr("nctorus.circle.PI_ERROR", 1 << 100000)
    with pytest.raises(DiophantinePrecisionError, match="undecided"):
        satisfies_diophantine(ctx.h, cases[0][2], 1, 1, Fraction(1, 10))
    with pytest.raises(DiophantinePrecisionError, match="undecided"):
        diophantine_N(ctx, 1, 3, Fraction(1, 10**6))


def test_diophantine_budget_error(ctx):
    with pytest.raises(DiophantineBudgetError) as info:
        diophantine_N(ctx, 1, 3, Fraction(1, 10**6), budget=50)
    n_val = int(str(info.value).rsplit("N = ", 1)[1])
    assert n_val % math.factorial(3) == 0


def test_diophantine_rejects_bad_args(ctx):
    with pytest.raises(ValueError):
        diophantine_N(ctx, 1, 2, 0)
    with pytest.raises(ValueError):
        diophantine_N(ctx, 0, 2, Fraction(1, 2))


# -- restriction matrices ---------------------------------------------------

def test_build_H_prime_trivial_q():
    p = Fraction(1, 2)
    h = build_H_prime(p, {}, 4, 2, 100)
    arr = h.to_numpy()
    expect = np.eye(5, dtype=complex)
    expect[0, 1:] = 0.5
    expect[1:, 0] = 0.5
    assert np.allclose(arr, expect)


def test_build_H_prime_root_of_unity_phase():
    q = {7: Fraction(1, 3)}
    h = build_H_prime(Fraction(1, 2), q, 2, 1, 7)
    # d = 2, l = 1: off-diagonal phase e(1/2) = -1
    assert h.entry(1, 2) == h.entry(2, 1) == -Fraction(1, 3)
    assert is_hermitian(h)
    with pytest.raises(ValueError):
        build_H_prime(Fraction(1, 2), q, 2, 3, 7)


def test_build_H_second_trace_identity(ctx):
    params = CertParams(xi=(1, 1), d=3, N=math.factorial(3) * 4, epsilon=Fraction(1, 10))
    for l in range(1, 4):
        h = gram(StateCandidate({}), family_generators(params, l), ctx)
        arr = h.to_numpy(ctx)
        assert np.allclose(arr, np.eye(4))


def test_build_H_second_first_row(ctx):
    state = StateCandidate({1: 0.5})
    params = CertParams(xi=(1, 1), d=4, N=math.factorial(4) * 3, epsilon=Fraction(1, 10))
    h = build_H_second(state, params, 2, ctx)
    arr = h.to_numpy(ctx)
    assert np.allclose(arr[0, 1:], 0.5)
    assert np.allclose(arr[1:, 0], 0.5)
    assert np.allclose(np.diag(arr), 1.0)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_family_generators_match_theta_oracle(data):
    # the progression g_j = g_(j-1) + (N/l s, 0) is Theta_j xi, one matrix product each
    l = data.draw(st.integers(1, 100), label="l")
    bound = 2**600 // l
    n_val = l * data.draw(st.integers(-bound, bound), label="N/l")
    d = data.draw(st.integers(1, 60), label="d")
    a = data.draw(st.integers(-2**64, 2**64), label="a")
    b = data.draw(st.integers(-2**64, 2**64).filter(lambda b: b != a), label="b")
    params = CertParams(xi=(a, b), d=d, N=n_val, epsilon=Fraction(1, 10))
    gens = family_generators(params, l)
    assert gens == family_generators_by_theta(params, l)
    assert len(gens) == d + 1 and all(type(c) is int for g in gens for c in g)
    # no family at l < 1 or at an l that does not divide N, and none for a length-3 xi
    for bad_l in (0, -l):
        with pytest.raises(ValueError):
            family_generators(params, bad_l)
    if l > 1:
        off = n_val + data.draw(st.integers(1, l - 1), label="N mod l")
        with pytest.raises(ValueError):
            family_generators(CertParams(xi=(a, b), d=d, N=off, epsilon=Fraction(1, 10)), l)
    with pytest.raises(ValueError):
        family_generators(CertParams(xi=(a, b, a), d=d, N=n_val, epsilon=Fraction(1, 10)), l)


GENUS_ONE_FORMS = (SIGMA2, SkewForm(((0, 3), (-3, 0))), SkewForm(((0, -1), (1, 0))))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_family_values_match_dense_gram(data):
    # the closed-form family scores equal the witness value on each dense Gram matrix
    d = data.draw(st.integers(1, 12), label="d")
    x = data.draw(st.sampled_from((1, 2, 3)), label="x")
    p = data.draw(st.fractions(-2, 2, max_denominator=64).filter(bool), label="p")
    h = data.draw(st.sampled_from((Fraction(1), Fraction(5, 7))), label="h")
    ctx = PhaseContext(h=h, sigma=data.draw(st.sampled_from(GENUS_ONE_FORMS), label="sigma"))
    n_val = math.factorial(d) * data.draw(st.integers(1, 2**64), label="k")
    qs = data.draw(st.lists(st.fractions(-1, 1, max_denominator=64),
                            min_size=d - 1, max_size=d - 1), label="q")
    decoys = data.draw(st.lists(st.integers(1, 10**6), max_size=3), label="decoys")
    values = {x: p}
    values.update({j: Fraction(7, 8) for j in decoys if j != x and j % (n_val * x)})
    values.update({k * n_val * x: qk for k, qk in enumerate(qs, start=1)})
    state = StateCandidate(values)
    params = CertParams(xi=(x, x), d=d, N=n_val, epsilon=Fraction(1, 10))
    v = (GaussRat(-p * d),) + (GaussRat(1),) * d
    closed = _family_values(state, params, ctx)
    assert len(closed) == d
    for l in range(1, d + 1):
        dense = numeric_eval(quadratic_form(build_H_second(state, params, l, ctx), v), ctx).real
        assert abs(closed[l - 1] - dense) <= 1e-9 * max(1.0, abs(dense)), (l, closed, dense)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_family_values_match_per_exponent_phases(data):
    # one residue per distinct k l, all from one hbar slice, gives every score float for
    # float as reducing each exponent k e_1 on its own and dividing the residue first,
    # at exponents far past 2^256 too
    from paper_oracles import family_values_per_exponent

    d = data.draw(st.integers(1, 30), label="d")
    x = data.draw(st.integers(1, 3), label="x")
    h = data.draw(st.sampled_from((Fraction(1), Fraction(3, 7), Fraction(-2), Fraction(-5, 3))),
                  label="h")
    ctx = PhaseContext(h=h, sigma=data.draw(st.sampled_from(GENUS_ONE_FORMS), label="sigma"))
    p = data.draw(st.fractions(-2, 2, max_denominator=10**6).filter(bool), label="p")
    n_val = math.factorial(d) * data.draw(st.integers(1, 2**200) | st.integers(1, 2**4000), label="k")
    ks = data.draw(st.sets(st.sampled_from(range(1, d))) if d > 1 else st.just(set()), label="ks")
    q = st.fractions(-1, 1, max_denominator=10**6)
    state = StateCandidate({x: p, **{k * n_val * x: data.draw(q, label=f"q{k}") for k in sorted(ks)}})
    params = CertParams(xi=(x, x), d=d, N=n_val, epsilon=Fraction(1, 10))
    assert _family_values(state, params, ctx) == family_values_per_exponent(state, params, ctx)


def test_refute_rejects_p_too_large_for_a_float(ctx, monkeypatch):
    # a v1 certificate stores p, the witness and d - d^2 p^2 as floats: past |p| ~ 1.3e154
    # refute says so with a ValueError, before the Diophantine search
    import nctorus.certificate as certificate

    def refused(*args, **kwargs):
        raise AssertionError("the search must not start")

    with monkeypatch.context() as mp:
        mp.setattr(certificate, "diophantine_N", refused)
        for p in (10**400, -(2**520), Fraction(10**160, 3), 10**155):
            with pytest.raises(ValueError, match="too large for a certificate"):
                refute(StateCandidate({2: 0.5, 1: p}), ctx)
    state = StateCandidate({1: 10**150})  # p^2 still fits a float
    cert = refute(state, ctx)
    assert cert.params.d == 1 and cert.value == float(1 - 10**300)
    assert verify(state, cert, ctx).accepted


def _q_map_from_state(state, d, n_val, xi2):
    return {j * n_val: eval_generator(state, (j * n_val * xi2, 0)) for j in range(1, d)}


def test_perturbation_bound(ctx):
    # states with nonzero q values on the difference orbits
    for d in (2, 3, 4, 5):
        for eps in (Fraction(1, 2), Fraction(1, 10)):
            n_val = diophantine_N(ctx, 1, d, eps)
            q_orbits = {j * n_val: Fraction(1, 2 + j) for j in range(1, d)}
            state = StateCandidate({1: Fraction(1, 2), **q_orbits})
            params = CertParams(xi=(1, 1), d=d, N=n_val, epsilon=eps)
            for l in range(1, d + 1):
                second = build_H_second(state, params, l, ctx).to_numpy(ctx)
                prime = build_H_prime(Fraction(1, 2),
                                      _q_map_from_state(state, d, n_val, 1),
                                      d, l, n_val).to_numpy()
                assert np.max(np.abs(second - prime)) < float(eps)


def test_error_budget_bound(ctx):
    for d in (2, 3, 4):
        eps = Fraction(1, 20)
        n_val = diophantine_N(ctx, 1, d, eps)
        q_orbits = {j * n_val: Fraction(1, 3 * j) for j in range(1, d)}
        p = Fraction(1, 2)
        state = StateCandidate({1: p, **q_orbits})
        params = CertParams(xi=(1, 1), d=d, N=n_val, epsilon=eps)
        mats = [build_H_second(state, params, l, ctx) for l in range(1, d + 1)]
        avg = average_R(mats).to_numpy(ctx)
        det_avg = np.linalg.det(avg).real
        bound = float(eps) * 2 * d * (d - 1) * math.factorial(d)
        assert abs(det_avg - float(det_P(p, d))) <= bound


# -- averaging and P_d ------------------------------------------------------

def test_average_cancellation_exact():
    rng = random.Random(3)
    for d in range(2, 13):
        q = {j * 10: Fraction(rng.randint(-8, 8), 8) for j in range(1, d)}
        mats = [build_H_prime(Fraction(1, 2), q, d, l, 10) for l in range(1, d + 1)]
        avg = average_R(mats)
        for j in range(1, d + 1):
            for i in range(j + 1, d + 1):
                assert avg.entry(j, i).is_zero, (d, j, i)
        # and the result is exactly P_d
        pd = build_H_prime(Fraction(1, 2), {}, d, 1, 10)
        for i in range(d + 1):
            for j in range(d + 1):
                assert avg.entry(i, j) == pd.entry(i, j)


def test_average_of_equal_matrices(ctx):
    h = gram(StateCandidate({1: 0.5}), [(0, 0), (1, 1)], ctx)
    avg = average_R([h, h, h])
    assert np.allclose(avg.to_numpy(ctx), h.to_numpy(ctx))
    with pytest.raises(ValueError):
        average_R([])


def test_det_P_examples():
    assert det_P(0, 7) == 1
    assert det_P(Fraction(1, 2), 4) == 0
    assert det_P(1, 2) == -1
    assert det_P(0.5, 4) == 0.0


@pytest.mark.parametrize("p", [Fraction(0), Fraction(1, 4), Fraction(-1, 4),
                               Fraction(1, 2), Fraction(-1, 2), Fraction(1), Fraction(-1)])
def test_det_P_matches_exact_elimination(p):
    for d in range(1, 11):
        pd = build_H_prime(p, {}, d, 1, 1)
        det = determinant_exact(pd)
        assert det.im == 0
        assert det.re == det_P(p, d)


def test_convex_cone_of_psd_matrices():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = rng.integers(2, 6)
        mats = []
        for _ in range(3):
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            mats.append(a @ a.conj().T)
        weights = rng.random(3)
        weights /= weights.sum()
        combo = sum(w * m for w, m in zip(weights, mats))
        assert is_psd(HermitianMatrix(combo), tol=1e-9).is_psd


# -- parameter selection ----------------------------------------------------

def test_choose_parameters_examples():
    d, eps = choose_parameters(1)
    assert d == 2 and det_P(1, 2) == -1 < 0
    assert choose_parameters(0.5)[0] == 5
    assert choose_parameters(0.2)[0] == 26
    assert choose_parameters(1.5)[0] == 1
    with pytest.raises(ValueError):
        choose_parameters(0)
    # margin rule: eps = (d p^2 - 1) / (4 d)
    d, eps = choose_parameters(Fraction(1, 2))
    assert eps == (5 * Fraction(1, 4) - 1) / 20 == Fraction(1, 80)


def test_witness_vector_examples():
    v = witness_vector(Fraction(1, 2), 5)
    assert [complex(x) for x in v] == [-2.5, 1, 1, 1, 1, 1]
    assert len({id(x) for x in v[1:]}) == 1  # one shared unit entry
    v2 = witness_vector(1, 2)
    pd = build_H_prime(1, {}, 2, 1, 1)
    assert quadratic_form(pd, v2) == -2
    with pytest.raises(ValueError):
        witness_vector(Fraction(1, 2), 4)  # d p^2 = 1
    # global phase invariance of the value
    h = HermitianMatrix(build_H_prime(Fraction(1, 2), {}, 5, 1, 1).to_numpy())
    base = quadratic_form(h, [complex(x) for x in witness_vector(Fraction(1, 2), 5)])
    rotated = [complex(x) * np.exp(0.7j) for x in witness_vector(Fraction(1, 2), 5)]
    assert abs(numeric_eval(quadratic_form(h, rotated) - base, None)) < 1e-12


# -- refute / verify --------------------------------------------------------

def test_refute_trace(ctx):
    result = refute(StateCandidate({}), ctx)
    assert isinstance(result, ConsistentWithTrace)
    assert result.orbits_checked == ()
    listed = refute(StateCandidate({1: 0, 4: 0.0}), ctx)
    assert isinstance(listed, ConsistentWithTrace)
    assert listed.orbits_checked == (1, 4)


def test_refute_certificate_halves(ctx):
    state = StateCandidate({1: 0.5})
    cert = refute(state, ctx)
    assert isinstance(cert, Certificate)
    assert cert.params.d == 5
    assert cert.value < 0 and cert.avg_value < 0
    assert cert.avg_value == pytest.approx(-1.25, abs=1e-9)
    report = verify(state, cert, ctx)
    assert report.accepted and report.failed is None


@pytest.mark.parametrize("p", [Fraction(10000001, 10000000), Fraction(1767767, 2500000),
                               Fraction(50000001, 100000000)])
def test_refute_reads_the_value_it_certifies(ctx, p):
    # d (1 - d p^2) is about -2.0e-7, -1.06e-7 and -1.6e-7 (d = 1, 2, 4): negative, so
    # the first try's certificate is valid and refute returns it, with no eps halving
    state = StateCandidate({1: p})
    cert = refute(state, ctx, budget=10**30)
    d = cert.params.d
    assert (d, cert.params.epsilon) == choose_parameters(p)
    assert cert.value == float(d * (1 - d * p * p)) and -1e-6 < cert.value < 0
    assert verify(state, cert, ctx).accepted
    valid, _, why = perfbench_reference().check_certificate(cert.dumps(), {1: p})
    assert valid, why


def test_refute_short_form(ctx):
    state = StateCandidate({1: 1.5})
    cert = refute(state, ctx)
    assert cert.params.d == 1
    assert cert.generators[0] == (0, 0) and len(cert.generators) == 2
    # the restriction matrix is exactly the 2x2 minor [[1, p], [p, 1]]
    h = build_H_second(state, cert.params, 1, ctx).to_numpy(ctx)
    assert np.allclose(h, np.array([[1, 1.5], [1.5, 1]]))
    assert cert.value == pytest.approx(1 - 1.5**2, abs=1e-9)
    assert verify(state, cert, ctx).accepted


def test_refute_negative_orbit_value(ctx):
    state = StateCandidate({2: -0.5})
    cert = refute(state, ctx)
    assert cert.params.xi == (2, 2) and cert.params.d == 5
    assert verify(state, cert, ctx).accepted


def test_refute_picks_smallest_nonzero_orbit(ctx):
    state = StateCandidate({3: 0.0, 5: 0.5, 7: 0.9})
    cert = refute(state, ctx)
    assert cert.params.xi == (5, 5)
    assert verify(state, cert, ctx).accepted


def test_refute_genus_restriction():
    from paper_oracles import standard_form

    ctx4 = PhaseContext(sigma=standard_form(2))
    with pytest.raises(ValueError):
        refute(StateCandidate({1: 0.5}), ctx4)


def test_l_star_witnesses_non_positive_matrix(ctx):
    state = StateCandidate({1: 0.5})
    cert = refute(state, ctx)
    worst = build_H_second(state, cert.params, cert.l_star, ctx)
    verdict = is_psd(HermitianMatrix(worst.rounded(ctx)), tol=1e-9)
    assert not verdict.is_psd


def test_certificate_json_round_trip(ctx):
    state = StateCandidate({1: 0.9})
    cert = refute(state, ctx)
    blob = cert.to_json()
    for key in ("xi", "d", "N", "epsilon", "p", "l_star", "witness", "value",
                "avg_value", "generators"):
        assert key in blob
    back = Certificate.loads(cert.dumps())
    assert back.params == cert.params
    assert back.l_star == cert.l_star
    assert back.generators == cert.generators
    report = verify(state, back, ctx)
    assert report.accepted
    # the dict and the text read floats by the same rule
    cert = refute(StateCandidate({1: 0.3}), ctx)
    assert Certificate.from_json(cert.to_json()).params == Certificate.loads(cert.dumps()).params


def test_certificate_value_too_large_for_a_float_is_malformed(ctx):
    blob = refute(StateCandidate({1: 0.9}), ctx).to_json()
    for field in ("value", "avg_value"):
        text = json.dumps({**blob, field: "HUGE"}).replace('"HUGE"', "1e400")
        with pytest.raises(ValueError, match="malformed certificate JSON"):
            Certificate.loads(text)


def test_verify_rejects_tampering(ctx):
    state = StateCandidate({1: 0.5})
    cert = refute(state, ctx)

    bad_n = cert.to_json()
    bad_n["N"] += 1
    report = verify(state, Certificate.from_json(bad_n), ctx)
    assert not report.accepted and report.failed == "divisibility"

    bad_v = cert.to_json()
    bad_v["value"] = cert.value / 2
    report = verify(state, Certificate.from_json(bad_v), ctx)
    assert not report.accepted and report.failed == "negativity"

    bad_w = cert.to_json()
    bad_w["witness"] = [[0.0, 0.0] for _ in bad_w["witness"]]
    report = verify(state, Certificate.from_json(bad_w), ctx)
    assert not report.accepted and report.failed == "negativity"

    bad_g = cert.to_json()
    bad_g["generators"][1] = [9999, 1]
    report = verify(state, Certificate.from_json(bad_g), ctx)
    assert not report.accepted and report.failed == "generators"

    bad_l = cert.to_json()
    bad_l["l_star"] = cert.params.d + 5
    report = verify(state, Certificate.from_json(bad_l), ctx)
    assert not report.accepted and report.failed == "params"

    bad_eps = cert.to_json()
    bad_eps["epsilon"] = float(cert.params.epsilon) / 1e9
    report = verify(state, Certificate.from_json(bad_eps), ctx)
    assert not report.accepted and report.failed == "approximation"

    wrong_state = StateCandidate({1: 0.25})
    report = verify(wrong_state, cert, ctx)
    assert not report.accepted and report.failed == "params"


def test_verify_reads_tol_once(ctx):
    # tol is read by states.as_tolerance and compared as that value: a rational string is a
    # tolerance, and the verdict is the one its Fraction or float gives
    state = StateCandidate({1: 0.5})
    cert = refute(state, ctx)
    blob = cert.to_json()
    blob["value"] = cert.value * 1.05  # off by 5 %: within 1/10 relative, far outside 1e-9
    off = Certificate.from_json(blob)
    assert verify(state, off, ctx, tol="1e-9").failed == "negativity"
    for c in (cert, off):
        want = verify(state, c, ctx, tol=0.1).to_json()
        assert want["accepted"]
        for tol in ("1/10", Fraction(1, 10), "0.1"):
            assert verify(state, c, ctx, tol=tol).to_json() == want, tol
    for bad in ("nan", "-1/10", "x"):
        with pytest.raises(ValueError, match="tolerance"):
            verify(state, cert, ctx, tol=bad)


def test_verify_ignores_avg_value(ctx, monkeypatch):
    # the proof is the l* witness alone; the family average only guided refute
    import nctorus.certificate as certificate

    state = StateCandidate({1: 0.5})
    cert = refute(state, ctx)
    built = []

    def counting_gram(*args, **kwargs):
        built.append(args)
        return gram(*args, **kwargs)

    monkeypatch.setattr(certificate, "gram", counting_gram)
    monkeypatch.setattr(certificate, "average_R", None)  # verify must not average
    for avg in (0.0, 1.0, cert.avg_value / 2):
        blob = cert.to_json()
        blob["avg_value"] = avg
        report = verify(state, Certificate.from_json(blob), ctx)
        assert report.accepted and report.failed is None
    assert len(built) == 0  # verify sums omega(a* a) over the generator pairs alone


def test_refute_builds_no_gram(ctx, monkeypatch):
    # the d families are scored in closed form, and l*'s value is the closed-form family
    # sum verify reads too: no Gram matrix, no quadratic form; the dense path stays the
    # oracle, and refute's value is its float bit for bit
    import nctorus.certificate as certificate
    import nctorus.states as states

    base = refute(StateCandidate({1: 0.5}), ctx)
    q_decl = {k * base.params.N: Fraction(1, 1 + k) for k in range(1, base.params.d)}
    cases = (StateCandidate({1: 0.5}), StateCandidate({1: 1.5}), StateCandidate({2: -0.3}),
             StateCandidate({1: Fraction(1, 2), **q_decl}))

    def forbidden(*args, **kwargs):
        raise AssertionError("refute must not build a Gram matrix or a quadratic form")

    for state in cases:
        with monkeypatch.context() as patch:
            for module in (certificate, states):
                for name in ("gram", "quadratic_form"):
                    patch.setattr(module, name, forbidden, raising=False)
            patch.setattr(certificate, "average_R", None)  # refute must not average
            cert = refute(state, ctx)
        assert cert.value == dense_value(state, cert, ctx)


SIGMA3_CTX = PhaseContext(h=Fraction(3, 7), sigma=SkewForm(((0, 3), (-3, 0))))
# CI's d = 12 state with a value on every orbit kN, (-1/2)^k, k = 1..11, and a d = 13
# state with one on every orbit kN under sigma_01 = 3 and h = 3/7; both N are those of
# {1: p} alone, so every off-diagonal Gram entry is nonzero
DENSE_D12 = {1: 0.3, **{k * 481014364723200: (-0.5) ** k for k in range(1, 12)}}
DENSE_D13_SIGMA3 = {1: Fraction(7, 25),
                    **{k * 50412291555225600: Fraction(-1, 2) ** k for k in range(1, 13)}}
# CI's a60 state: {1: 13/100} with 9/10 on the orbits kN, k = 1..4, N that of {1: 13/100}
# alone (d = 60, zeta exponents to 2^309)
A60_N = 2674393075095000686837668372096564827681515936883527514762416889561384537292800000000000000
A60 = {1: Fraction(13, 100), **{k * A60_N: Fraction(9, 10) for k in range(1, 5)}}

# sha256 of refute(...).dumps(), pinned when the generators were still built as
# Theta_j xi matrix products; the dense sigma_01 = 3 case was pinned while each family
# score still read its phase through Theta_1 xi and Theta_2 xi
PINNED_CERTIFICATES = [
    (PhaseContext(), {1: Fraction(1, 2)},
     "ce1d87cd1e39d354c35aeca990f21d72683fc3f418ecc273408c101dfc8734c9"),
    (PhaseContext(), {1: Fraction(3, 10)},
     "4b6836978028986541e75ee8c7a4cf7935cbf5a00a84118e0360ef2ce521f34d"),
    (PhaseContext(), {2: Fraction(1, 5)},
     "502545a2516dfe5e5a02b54d55db5662f535d22f028ea4f11729e29225c1268d"),
    (PhaseContext(), {3: Fraction(3, 20)},
     "c22583ebdeddd5f9dc1fae02aacc2b6be91893e3ecf1a272b1082c23d9f6ff9f"),
    (PhaseContext(), DENSE_D12,
     "d62f2bd32417c2db26479fe8f82442420514ea6d6e2312818bcb772fcdd55e1a"),
    (SIGMA3_CTX, DENSE_D13_SIGMA3,
     "5e0cab1e72b0e6d73c675d0dd775f0988418eb3072b781bb20fc333614daa1d0"),
    # pinned while refute still certified l* through a dense Gram matrix
    (PhaseContext(), A60,
     "aa8fd48e5863e4407dce321735fa83bc168de2d9476ea93c31572ff76c446ec2"),
]


@pytest.mark.parametrize("ctx, values, digest", PINNED_CERTIFICATES,
                         ids=["1:1/2", "1:3/10", "2:1/5", "3:3/20", "d12-dense", "d13-dense-sigma3",
                              "a60"])
def test_refute_output_is_pinned(ctx, values, digest):
    text = refute(StateCandidate(values), ctx).dumps()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_refute_d817_output_is_pinned(ctx):
    # {1: 7/200} needs d = 817 and a budget past the default; pinned while refute still
    # certified l* through a dense Gram matrix
    text = refute(StateCandidate({1: Fraction(7, 200)}), ctx, budget=10**30).dumps()
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "09bcdeb65588a0eabea98efe88327c677b6cbc68cbbdca415e43ac6b2e8b5d91")


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_refute_value_is_the_dense_value(data):
    # the closed-form total goes through the one rounding rule (numeric_eval) the dense
    # v^dagger H v had: on drawn states with values on some family orbits kNx (zeros
    # among them) and on the decoys dNx and Nx + 1, the certified floats agree bit for bit
    h = data.draw(st.sampled_from((Fraction(1), Fraction(5, 7))), label="h")
    ctx = PhaseContext(h=h, sigma=data.draw(st.sampled_from((SIGMA2, SIGMA3_CTX.sigma)),
                                            label="sigma"))
    x = data.draw(st.sampled_from((1, 2, 3)), label="x")
    # |p| > 1/sqrt(26) keeps d <= 26; |p| > 1 is the d = 1 short form
    p = Fraction(data.draw(st.integers(197, 1500), label="p"), 1000)
    p = data.draw(st.sampled_from((p, -p)), label="sign")
    d, eps = choose_parameters(p)
    n_val = diophantine_N(ctx, x, d, eps, budget=10**30)
    values = {x: p}
    ks = data.draw(st.lists(st.integers(1, max(d - 1, 1)), max_size=d), label="ks")
    for k in ks:
        values[k * n_val * x] = data.draw(st.just(Fraction(0))
                                          | st.fractions(-1, 1, max_denominator=64), label="q")
    if data.draw(st.booleans(), label="decoys"):
        values.update({d * n_val * x: Fraction(5, 7), n_val * x + 1: Fraction(-3, 4)})
    state = StateCandidate(values)
    cert = refute(state, ctx, budget=10**30)
    assert cert.value < 0
    assert cert.value == dense_value(state, cert, ctx), (ctx, values)


def test_refute_builds_the_family_once(monkeypatch):
    # l*'s generators are built once, for the certificate
    import nctorus.certificate as certificate

    built = []

    def counting_family(*args):
        built.append(args)
        return family_generators(*args)

    monkeypatch.setattr(certificate, "family_generators", counting_family)
    for ctx, values in [(PhaseContext(), {1: 1.5})] + [case[:2] for case in PINNED_CERTIFICATES]:
        built.clear()
        cert = refute(StateCandidate(values), ctx)
        assert built == [(cert.params, cert.l_star)]


def test_refute_builds_no_family_matrix(monkeypatch):
    # the family scores read e_1 = sigma_01 N l x^2 in closed form: no Theta_j matrix or
    # pairing (the package keeps no matrix-vector product), also on dense states whose
    # every score has phases
    import nctorus.certificate as certificate
    import nctorus.lattice as lattice

    def forbidden(*args, **kwargs):
        raise AssertionError("refute must not build a 2x2 family matrix")

    for name in ("theta_j", "pairing"):
        monkeypatch.setattr(lattice, name, forbidden)
        monkeypatch.setattr(certificate, name, forbidden, raising=False)
    for ctx, values in ((PhaseContext(), DENSE_D12), (SIGMA3_CTX, DENSE_D13_SIGMA3)):
        cert = refute(StateCandidate(values), ctx)
        assert cert.value < 0 and verify(StateCandidate(values), cert, ctx).accepted


@pytest.mark.parametrize("h", [Fraction(1), Fraction(5, 7)])
def test_refute_value_is_verify_value(h):
    # refute certifies the exact witness total rounded once: the very float the bare
    # algebra product gives, on single- and multi-orbit states, and the exact scalar of
    # the closed form whose sign verify decides
    ctx = PhaseContext(h=h)
    for orbit, p in ((1, 0.3), (2, -0.45), (1, 0.5), (3, 1.5)):
        single = StateCandidate({orbit: p})
        n_val, d = refute(single, ctx).params.N, choose_parameters(p)[0]
        multi = StateCandidate({orbit: p, **{k * n_val * orbit: Fraction((-1) ** k, 2 + k)
                                             for k in range(1, max(d, 3))}})
        for state in (single, multi):
            cert = refute(state, ctx)
            element = AlgebraElement(2, {g: PhaseScalar.gaussian(w.re, w.im)
                                         for w, g in zip(cert.witness, cert.generators)})
            direct = evaluate(state, multiply(adjoint(element), element, ctx), ctx)
            assert cert.value == direct.real, (orbit, p, state)
            assert direct.imag == 0.0  # the real exact total rounds to a real float
            total = family_total(state, cert.params, cert.l_star, cert.witness, ctx)
            dense = build_H_second(state, cert.params, cert.l_star, ctx)
            assert total == quadratic_form(dense, cert.witness), (orbit, p, state)
            assert numeric_eval(total, ctx) == direct


gaussians = st.builds(GaussRat, st.fractions(-3, 3, max_denominator=12),
                      st.one_of(st.just(0), st.fractions(-3, 3, max_denominator=12)))


def _family_case(data):
    """(state, params, l, witness, ctx) drawn for the closed-form family total: any
    genus-1 form, h in {1, 5/7}, xi = (x, x), N = d! k with k up to 2^64, values on
    random kNx orbits and on decoy orbits, and a complex witness that may be all zero."""
    h = data.draw(st.sampled_from((Fraction(1), Fraction(5, 7))), label="h")
    ctx = PhaseContext(h=h, sigma=data.draw(st.sampled_from(GENUS_ONE_FORMS), label="sigma"))
    d = data.draw(st.integers(1, 6), label="d")
    x = data.draw(st.sampled_from((1, 2, 3)), label="x")
    n_val = math.factorial(d) * data.draw(st.integers(1, 2**64), label="k")
    params = CertParams(xi=(x, x), d=d, N=n_val, epsilon=Fraction(1, 10))
    l = data.draw(st.integers(1, d), label="l")
    values = {x: data.draw(st.fractions(-2, 2, max_denominator=64), label="p")}
    for k in data.draw(st.lists(st.integers(1, d + 1), max_size=d), label="ks"):
        values[k * n_val * x] = data.draw(st.fractions(-1, 1, max_denominator=64), label="q")
    for j in data.draw(st.lists(st.integers(1, 40), max_size=3), label="decoys"):
        values.setdefault(j, Fraction(7, 8))
    entries = st.just(GaussRat(0)) | gaussians
    witness = data.draw(st.just([GaussRat(0)] * (d + 1))
                        | st.lists(entries, min_size=d + 1, max_size=d + 1), label="witness")
    return StateCandidate(values), params, l, witness, ctx


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_witness_total_is_the_algebra_product(data):
    # the closed form on ints is omega(a* a) of the bare algebra product on the
    # family_generators labels, exactly
    state, params, l, witness, ctx = _family_case(data)
    a = AlgebraElement(2, dict(zip(family_generators(params, l), witness)))
    expected = evaluate_exact(state, multiply(adjoint(a), a, ctx))
    total = family_total(state, params, l, witness, ctx)
    assert total == expected
    assert sorted(total.terms()) == sorted(expected.terms())  # Q(i): one canonical form


@pytest.mark.parametrize("n", [1, 2, 5, 13])
def test_witness_total_reads_one_orbit_per_distance(n, monkeypatch):
    # the sums read p_x and, per distance k = 1..d-1, at most the one declared orbit
    # kNx: state.value is called on declared orbits only, never on an undeclared kNx
    # (the even k are declared here, up to d + 1), and no gcd is taken
    import nctorus.certificate as certificate
    import nctorus.scalars as scalars

    class CountingState(StateCandidate):
        __slots__ = ("reads",)

        def value(self, j):
            self.reads.append(j)
            return super().value(j)

    def no_gcd(*args):
        raise AssertionError("the family sums must not take a gcd")

    ctx = PhaseContext(h=Fraction(5, 7))
    n_val, x = math.factorial(n) * 3, 2
    params = CertParams(xi=(x, x), d=n, N=n_val, epsilon=Fraction(1, 10))
    witness = [GaussRat(1 + j, j % 3) for j in range(n + 1)]
    state = CountingState({x: Fraction(1, 3),
                           **{k * n_val * x: Fraction(1, 1 + k) for k in range(2, n + 2, 2)}})
    state.reads = []
    monkeypatch.setattr(math, "gcd", no_gcd)
    monkeypatch.setattr(scalars, "gcd", no_gcd)
    monkeypatch.setattr(certificate, "gcd", no_gcd, raising=False)
    sums = _family_sums(state, params, n, witness, ctx)
    assert x in state.reads and set(state.reads) <= set(state.declared_orbits())
    monkeypatch.undo()
    assert [k for k, _, _ in sums[2]] == list(range(2, n, 2))
    a = AlgebraElement(2, dict(zip(family_generators(params, n), witness)))
    assert family_total(state, params, n, witness, ctx) == evaluate_exact(
        StateCandidate(dict(state.items())), multiply(adjoint(a), a, ctx))


def test_family_readers_skip_orbits_off_the_family():
    # values on the orbits dNx and (d+1)Nx, past every distance the family spans, and on
    # Nx + 1, no multiple of Nx: neither the scores nor the closed-form total count them,
    # and refute and verify give the same bytes as without them
    half = PhaseContext(h=Fraction(5, 7))
    n_half = refute(StateCandidate({2: -0.45}), half).params.N
    cases = [(PhaseContext(), {1: 0.3}), (PhaseContext(), DENSE_D12),
             (SIGMA3_CTX, DENSE_D13_SIGMA3),
             (half, {2: -0.45, **{2 * k * n_half: Fraction(1, k + 1) for k in (1, 3)}})]
    for ctx, values in cases:
        cert = refute(StateCandidate(values), ctx)
        d, step = cert.params.d, cert.params.N * cert.params.xi[0]
        plain = StateCandidate(values)
        decoyed = StateCandidate({**values, d * step: Fraction(5, 7),
                                  (d + 1) * step: Fraction(-2, 3), step + 1: Fraction(-3, 4)})
        assert _family_orbits(decoyed, cert.params) == _family_orbits(plain, cert.params)
        assert _family_values(decoyed, cert.params, ctx) == _family_values(plain, cert.params, ctx)
        for l in range(1, d + 1):
            assert (_family_sums(decoyed, cert.params, l, cert.witness, ctx)
                    == _family_sums(plain, cert.params, l, cert.witness, ctx))
        assert refute(decoyed, ctx).dumps() == cert.dumps()
        for tol in (1e-9, 0):
            report = verify(decoyed, cert, ctx, tol)
            assert report.accepted and report.to_json() == verify(plain, cert, ctx, tol).to_json()


def test_verify_uses_no_product_or_gram(ctx, monkeypatch):
    # verify sums the pair relations itself: no algebra product, state evaluation, Gram
    # build or float evaluation of an exact scalar, and it builds no PhaseScalar
    import nctorus
    import nctorus.algebra as algebra
    import nctorus.certificate as certificate
    import nctorus.states as states

    single = StateCandidate({1: 0.3})
    n_val = refute(single, ctx).params.N
    multi = StateCandidate({1: 0.3, n_val: 0.25, 2 * n_val: -0.5})
    cases = [(state, refute(state, ctx)) for state in (single, multi)]

    def forbidden(*args, **kwargs):
        raise AssertionError("verify must not call this")

    for module in (nctorus, algebra, states, certificate):
        for name in ("multiply", "evaluate", "evaluate_exact", "gram", "quadratic_form",
                     "numeric_eval"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    monkeypatch.setattr(PhaseScalar, "_of", forbidden)
    for state, cert in cases:
        assert verify(state, cert, ctx).accepted
        tampered = cert.to_json()
        tampered["witness"][1] = [1, 0.5]
        assert verify(state, Certificate.from_json(tampered), ctx).failed == "negativity"


def test_verify_needs_genus_one():
    from paper_oracles import standard_form

    state = StateCandidate({1: 0.5})
    cert = refute(state, PhaseContext())
    with pytest.raises(ValueError, match="genus 1"):
        verify(state, cert, PhaseContext(sigma=standard_form(2)))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_witness_total_is_real(data):
    # orbit values are real and sigma is antisymmetric, so each correlation c_k comes with
    # its conjugate at the negated exponent for any complex witness: omega(a* a) of the
    # algebra product is real, and verify decides the sign of its real closed form
    state, params, l, witness, ctx = _family_case(data)
    a = AlgebraElement(2, dict(zip(family_generators(params, l), witness)))
    total = evaluate_exact(state, multiply(adjoint(a), a, ctx))
    assert total == total.conjugate()


# -- the sign of omega(a* a), decided by a ball ---------------------------------

REPRODUCERS = Path(__file__).resolve().parent / "reproducers"


@lru_cache(maxsize=None)
def _two_fifths():
    """refute's certificate for {1: 2/5}: d = 7, N = 467046720, l* = 1."""
    return refute(StateCandidate({1: Fraction(2, 5)}), PhaseContext())


def _with_value(cert, value):
    return Certificate.from_json({**cert.to_json(), "value": value})


def _defect_c():
    state = json.loads(REPRODUCERS.joinpath("defect_c_state.json").read_text(),
                       parse_float=Fraction)
    cert = Certificate.loads(REPRODUCERS.joinpath("defect_c_cert.json").read_text())
    return StateCandidate.from_json(state), cert


def test_defect_c_reproducer_rejects():
    # refute's certificate for {1: 2/5} with q_(3N) added to the state and, as value,
    # the float a per-term rounding of the total gives: the exact total is +3.0e-20,
    # so the certificate is no proof, and the ball decides that
    state, cert = _defect_c()
    plain = _two_fifths()
    assert cert.to_json() == {**plain.to_json(), "value": -1.1102230246251565e-16}
    assert state.value(3 * plain.params.N) == Fraction(
        -744214937929246506526075426439800130379, 6385807784297335059280760247358012290167)
    exact = family_total_by_machin(state, cert.params, cert.l_star, cert.witness, PhaseContext())
    assert abs(exact - Fraction(3, 10**20)) < Fraction(1, 10**30)
    for tol in (1e-9, 0.25, 0):
        report = verify(state, cert, PhaseContext(), tol)
        assert not report.accepted and report.failed == "negativity", tol
        assert float(report.clauses[-1].detail.split()[2]) > 0  # the ball's midpoint


def test_exactly_zero_total_rejects():
    # an all-zero witness makes B_0 and every C_k exactly 0: T = 0 is not negative,
    # however small the stored value and however wide tol
    plain = _two_fifths()
    n_val = plain.params.N
    zero = Certificate.from_json({**plain.to_json(), "value": -1e-300,
                                  "witness": [[0, 0]] * (plain.params.d + 1)})
    for values in ({1: Fraction(2, 5)}, {1: Fraction(2, 5), n_val: Fraction(1, 3),
                                         3 * n_val: Fraction(-1, 5)}):
        state = StateCandidate(values)
        e, b0, sums, den = _family_sums(state, zero.params, zero.l_star, zero.witness,
                                        PhaseContext())
        assert b0 == 0 and all(x == y == 0 for _, x, y in sums)
        for tol in (0, 1e-9, 10):
            report = verify(state, zero, PhaseContext(), tol)
            assert report.failed == "negativity", (values, tol)


def test_positive_value_rejects_at_any_tol():
    # the exact total is -0.84; a stored +0.5 agrees with it within tol = 10, and
    # only the sign of the stored value rejects it
    plain = _two_fifths()
    state = StateCandidate({1: Fraction(2, 5)})
    assert verify(state, plain, PhaseContext(), 10).accepted
    report = verify(state, _with_value(plain, 0.5), PhaseContext(), 10)
    assert not report.accepted and report.failed == "negativity"


def _tuned(k: int, target: Fraction) -> StateCandidate:
    """{1: 2/5} with one q_(kN), rounded to 2^-256, that puts the exact total on its
    l* family within 1e-40 of target, checked at 400 bits."""
    plain, ctx = _two_fifths(), PhaseContext()
    n_val = plain.params.N

    def total(q):
        state = StateCandidate({1: Fraction(2, 5), k * n_val: q})
        return family_total_by_machin(state, plain.params, plain.l_star, plain.witness, ctx)

    base = Fraction(-84, 100)  # d - d^2 p^2 at d = 7, p = 2/5: no orbit kN declared
    q = Fraction(round((target - base) / (total(1) - base) * 2**256), 2**256)
    assert abs(total(q) - target) < Fraction(1, 10**40)
    return StateCandidate({1: Fraction(2, 5), k * n_val: q})


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(1, 9), st.sampled_from((-1, 1)))
def test_verify_accepts_exactly_the_negative_tuned_totals(k, j, sign):
    # one q_(kN) tuned so that the exact total is sign * j 1e-20: the stored value
    # -j 1e-20 is negative and agrees with either total, so verify must accept exactly
    # where the total is negative
    state = _tuned(k, sign * j * Fraction(1, 10**20))
    cert = _with_value(_two_fifths(), -j * 1e-20)
    for tol in (1e-9, 0):
        report = verify(state, cert, PhaseContext(), tol)
        assert report.accepted == (sign < 0), (k, j, sign, tol, report.clauses[-1].detail)
        if sign > 0:
            assert report.failed == "negativity"


@settings(max_examples=80, deadline=None)
@given(st.data(), st.integers(3, 8) | st.integers(3, 160))
def test_family_ball_holds_the_exact_total(data, bits):
    # at any precision the ball holds 2^bits D^2 P times the 400-bit total, for random
    # forms, h, witnesses and orbit values; its radius is a few units per term size.
    # At a few bits the residue's unit, up to 2pi k units of cos k theta, is most of it
    state, params, l, witness, ctx = _family_case(data)
    e, b0, sums, den = _family_sums(state, params, l, witness, ctx)
    sums = sorted((k, x, y) for k, x, y in sums if x or y)
    mid, rad = _family_ball(ctx.h, e, b0, sums, bits)
    exact = family_total_by_machin(state, params, l, witness, ctx) * den * 2**bits
    assert abs(mid - exact) <= rad
    assert rad <= 2 * sum(abs(x) + abs(y) for _, x, y in sums) * 14 * params.d


@pytest.mark.parametrize("bits, k, e", [(5, 2, 150), (8, 1, 8), (8, 5, 43), (8, 20, 242)])
def test_family_ball_covers_the_residue_unit(bits, k, e):
    # T = 2 cos(k e) at h = 1: theta's residue sits almost a unit below theta and
    # sin(k theta) is near +-1, so cos k theta moves by nearly 2pi k units; the ball
    # holds 2^bits T only with its 7k units per power for the residue
    mid, rad = _family_ball(Fraction(1), e, 0, [(k, 1, 0)], bits)
    cos, _ = cos_sin_by_machin(turns_by_machin(1, k * e))
    assert abs(mid - 2 * cos * 2**bits) <= rad


def test_undecided_sign_rejects_at_the_cap(monkeypatch):
    # a total of -1e-22 lies inside the first ball, at 74 bits, and the doubled one
    # decides it; with no doubling allowed the ball still holds 0, and verify rejects
    import nctorus.certificate as certificate

    state, ctx = _tuned(3, Fraction(-1, 10**22)), PhaseContext()
    cert = _with_value(_two_fifths(), -1e-22)
    e, b0, sums, den = _family_sums(state, cert.params, cert.l_star, cert.witness, ctx)
    mid, rad = _family_ball(ctx.h, e, b0, sums, certificate.circle.GUARD_BITS + 2 + 8)
    assert abs(mid) <= rad
    assert verify(state, cert, ctx).accepted
    monkeypatch.setattr(certificate, "PI_DOUBLINGS", 0)
    assert certificate._family_sign(ctx.h, e, b0, sums, den)[0] == 0
    report = verify(state, cert, ctx)
    assert not report.accepted and report.failed == "negativity"


def test_refute_other_h():
    ctx = PhaseContext(h=Fraction(5, 7))
    state = StateCandidate({1: 0.5})
    cert = refute(state, ctx)
    assert verify(state, cert, ctx).accepted


def test_refute_tiny_p_raises_budget_error(ctx):
    with pytest.raises(DiophantineBudgetError):
        refute(StateCandidate({1: Fraction(1, 10**6)}), ctx)


def test_refute_with_nonzero_q_orbits(ctx):
    # declare values on the difference orbits so the restrictions genuinely
    # carry perturbed q entries instead of collapsing to P_d
    base = refute(StateCandidate({1: 0.5}), ctx)
    n_val = base.params.N
    d = base.params.d
    q_decl = {j * n_val: Fraction((-1) ** j, 2 + j) for j in range(1, d)}
    state = StateCandidate({1: Fraction(1, 2), **q_decl})
    cert = refute(state, ctx)
    assert cert.params.N == n_val and cert.params.d == d
    # some matrix entry is genuinely nonzero off the P_d pattern
    mats = [build_H_second(state, cert.params, l, ctx).to_numpy(ctx) for l in range(1, d + 1)]
    assert max(abs(m[1, 2]) for m in mats) > 0.1
    # the eps rule keeps the witness value within half the ideal margin
    ideal = d * (1 - d * 0.25)
    assert cert.avg_value < ideal / 2 < 0
    assert verify(state, cert, ctx).accepted


def test_gram_matches_H_entry_formulas(ctx):
    # cross-module oracle: the Gram matrix on {(0,0)} u {Theta_j xi} equals
    # the entry formulas H[0,j] = p, H[j,i] = q_((i-j)N) e^(i (i-j) h N l xi2^2)
    import cmath

    from nctorus.circle import phase_angle

    d, l, xi2 = 4, 3, 2
    eps = Fraction(1, 10)
    n_val = diophantine_N(ctx, xi2, d, eps)
    q_orbits = {j * n_val * xi2: Fraction(1, j + 2) for j in range(1, d)}
    state = StateCandidate({xi2: Fraction(1, 2), **q_orbits})
    params = CertParams(xi=(xi2, xi2), d=d, N=n_val, epsilon=eps)

    built = build_H_second(state, params, l, ctx).to_numpy(ctx)
    manual = np.eye(d + 1, dtype=complex)
    p = float(eval_generator(state, (xi2, xi2)))
    manual[0, 1:] = p
    manual[1:, 0] = p
    for j in range(1, d + 1):
        for i in range(j + 1, d + 1):
            q = float(eval_generator(state, ((i - j) * n_val * xi2, 0)))
            phi = phase_angle(ctx.h, (i - j) * n_val * l * xi2 * xi2)
            manual[j, i] = q * cmath.exp(1j * phi)
            manual[i, j] = np.conj(manual[j, i])
    assert np.max(np.abs(built - manual)) < 1e-12

    # and gram() on the same generators is the same matrix
    from nctorus.states import gram as gram_fn

    direct = gram_fn(state, family_generators(params, l), ctx).to_numpy(ctx)
    assert np.max(np.abs(built - direct)) == 0.0


# -- soundness, decided by the independent reference ----------------------------

@pytest.mark.parametrize("p, multiples", [
    # defect A: a 256-bit h/2pi lost the phase of zeta exponents past 2^256; these hold
    # only while every phase is reduced exactly (circle.zeta_residue)
    pytest.param(Fraction(13, 100), {k: Fraction(9, 10) for k in range(1, 5)}, id="A-d60"),
    pytest.param(Fraction(13, 100), {k: Fraction((-1) ** k) for k in range(1, 60)},
                 id="A-d60-alternating"),
    pytest.param(Fraction(1, 10), {1: Fraction(1, 4), 2: Fraction(-1, 8), 3: Fraction(1, 3)},
                 id="A-d101"),
    pytest.param(Fraction(1, 20), {1: Fraction(1, 4), 2: Fraction(-1, 8), 3: Fraction(1, 3)},
                 id="A-d401"),
    # defect B: a 200-digit pi puts the approximation clause wrong from d ~ 115 on, so
    # these hold only while the clause is decided for the true pi
    pytest.param(Fraction(9, 100), {}, id="B-d124"),
    pytest.param(Fraction(1, 20), {}, id="B-d401"),
    pytest.param(Fraction(7, 200), {}, id="B-d817"),
])
def test_verify_verdict_matches_reference(ctx, p, multiples):
    budget = 10**30
    n_val = refute(StateCandidate({1: p}), ctx, budget=budget).params.N
    values = {1: p, **{k * n_val: q for k, q in multiples.items()}}
    state = StateCandidate(values)
    cert = refute(state, ctx, budget=budget)
    valid, _, why = perfbench_reference().check_certificate(cert.dumps(), values)
    assert verify(state, cert, ctx).accepted == valid, why
    assert valid, why  # what refute emits is a proof


def test_d124_tampered_N_rejected_by_both(ctx):
    # N+1 breaks d! | N, N+124! keeps it and moves the residue off the window
    p = Fraction(9, 100)
    state = StateCandidate({1: p})
    cert = refute(state, ctx, budget=10**30)
    reference = perfbench_reference()
    for n_val in (cert.params.N + 1, cert.params.N + math.factorial(124)):
        obj = {**cert.to_json(), "N": n_val}
        tampered = Certificate.from_json(obj)
        report = verify(state, tampered, ctx)
        assert not report.accepted
        assert report.failed == ("divisibility" if n_val % math.factorial(124) else "approximation")
        assert not reference.check_certificate(json.dumps(obj), {1: p})[0]
