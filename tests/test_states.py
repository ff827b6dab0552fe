import json
import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as hs

from nctorus.algebra import AlgebraElement, PhaseContext, adjoint, multiply, numeric_eval, weyl
from nctorus.certificate import refute
from nctorus.lattice import SkewForm, pairing
from nctorus.scalars import ZERO, GaussRat, PhaseScalar, _gaussian
from nctorus.states import (
    HermitianMatrix,
    StateCandidate,
    _hermitian_ints,
    as_tolerance,
    determinant_exact,
    eval_generator,
    evaluate,
    evaluate_exact,
    gram,
    is_psd,
    quadratic_form,
)
from conftest import element_terms, random_element, random_scalar, random_sl2, shuffled_element
from paper_oracles import (
    as_gaussian,
    determinant_fractions,
    gaussian_entries,
    gram_by_pairs,
    hermitian_ints_dense,
    is_hermitian,
    min_eigenvalue,
    psd_exact_fractions,
    psd_exact_full_square,
    relabel,
)


def test_candidate_decimal_semantics():
    s = StateCandidate({1: 0.2, "2": "0.5", 3: Fraction(1, 3)})
    assert s.value(1) == Fraction(1, 5)
    assert s.value(2) == Fraction(1, 2)
    assert s.value(3) == Fraction(1, 3)
    assert s.value(99) == 0
    assert s.value(0) == 1
    assert StateCandidate({"01": 0.5}).value(1) == Fraction(1, 2)
    with pytest.raises(ValueError):
        StateCandidate({0: 1})
    for bad in ({1.5: 0.3}, {"1": 0.5, "01": 0.3}, {"1": 0.5, 1: 0.3}):
        with pytest.raises(ValueError):  # orbit keys are never truncated or merged
            StateCandidate(bad)


def test_candidate_json_round_trip():
    s = StateCandidate({1: 0.5, 2: 0.0})
    blob = s.to_json()
    assert blob == {"orbit_values": {"1": 0.5, "2": 0.0}}
    assert StateCandidate.from_json(blob) == s
    assert StateCandidate.loads('{"orbit_values": {"1": 0.5, "2": 0.0}}') == s
    # a value no float reads back as is written exactly
    third = StateCandidate({1: Fraction(1, 3), 2: 0.2})
    assert third.to_json() == {"orbit_values": {"1": "1/3", "2": 0.2}}
    assert StateCandidate.from_json(third.to_json()) == third
    assert StateCandidate.loads(json.dumps(third.to_json())) == third


def test_trace_examples(ctx):
    tau = StateCandidate({})
    assert eval_generator(tau, (0, 0)) == 1
    assert eval_generator(tau, (7, -3)) == 0
    m = weyl((4, 1))
    s = m + weyl((0, 0))
    val = evaluate(tau, multiply(adjoint(s), s, ctx), ctx)
    assert abs(val - 2) < 1e-12


def test_eval_generator_gcd(ctx):
    assert eval_generator(StateCandidate({1: 0.5}), (6, 4)) == 0
    assert eval_generator(StateCandidate({2: 0.3}), (6, 4)) == Fraction(3, 10)
    rng = random.Random(3)
    state = StateCandidate({1: 0.25, 2: -0.5, 3: 0.125})
    for _ in range(200):
        n = (rng.randint(-20, 20), rng.randint(-20, 20))
        v = eval_generator(state, n)
        assert isinstance(v, Fraction)  # realness by construction
        for theta in (random_sl2(rng),):
            from paper_oracles import mat_vec

            assert eval_generator(state, mat_vec(theta, n)) == v


def test_evaluate_examples(ctx):
    tau = StateCandidate({})
    a = weyl((1, 1)) * PhaseScalar.zeta(1) + weyl((0, 0)) * 2
    assert abs(evaluate(tau, a, ctx) - 2) < 1e-14
    st = StateCandidate({1: 0.5})
    assert abs(evaluate(st, weyl((1, 1)), ctx) - 0.5) < 1e-14


def test_evaluate_rounds_the_exact_total_once(ctx):
    # the a* a that refutes {1: 13/100} (d = 60) sums exactly to -21/25;
    # rounding every coefficient first and adding the floats gave -0.840000000000128
    state = StateCandidate({1: Fraction(13, 100)})
    cert = refute(state, ctx)
    a = AlgebraElement(2, {g: PhaseScalar.gaussian(w.re, w.im)
                           for w, g in zip(cert.witness, cert.generators)})
    a_star_a = multiply(adjoint(a), a, ctx)
    assert evaluate_exact(state, a_star_a) == Fraction(-21, 25)
    assert evaluate(state, a_star_a, ctx) == float(Fraction(-21, 25))


@settings(max_examples=150, deadline=None)
@given(element_terms, hs.randoms(use_true_random=False))
def test_evaluate_exact_reduces_once_in_any_order(terms, rnd):
    # Gaussian roots, -1 and -i given as e(1/2) and e(3/4), in several coefficients
    # of one orbit: the total's form is that of one reduction of all its terms,
    # whatever the order
    ctx = PhaseContext()
    state = StateCandidate({1: Fraction(1, 3), 2: Fraction(-5, 4)})
    a = shuffled_element(terms, rnd)
    got = evaluate_exact(state, a)
    again = evaluate_exact(state, shuffled_element(terms, rnd))
    assert list(again.terms()) == list(got.terms())
    once = PhaseScalar([((k, r), c * eval_generator(state, m))
                        for m, coeff in a.items() for k, r, c in coeff.terms()])
    assert list(got.terms()) == list(once.terms())
    assert evaluate(state, a, ctx) == numeric_eval(got, ctx)


def test_state_invariance_under_action(ctx):
    rng = random.Random(7)
    state = StateCandidate({1: 0.5, 2: -0.25})
    for _ in range(50):
        a = random_element(rng)
        theta = random_sl2(rng)
        lhs = evaluate(state, relabel(theta, a), ctx)
        rhs = evaluate(state, a, ctx)
        assert abs(lhs - rhs) < 1e-10


def test_gram_examples(ctx):
    tau = StateCandidate({})
    h = gram(tau, [(0, 0), (1, 1), (2, 2)], ctx)
    assert np.allclose(h.to_numpy(ctx), np.eye(3))

    st = StateCandidate({1: 0.5})
    h2 = gram(st, [(0, 0), (1, 1)], ctx)
    assert np.allclose(h2.to_numpy(ctx), np.array([[1, 0.5], [0.5, 1]]))

    with pytest.raises(ValueError):
        gram(tau, [(0, 0), (0, 0)], ctx)


def test_gram_reads_each_orbit_value_once(monkeypatch):
    # a phased form and every kind of orbit: 0, declared, explicitly zero, integral,
    # undeclared below and above the largest declared orbit
    ctx = PhaseContext(h=Fraction(5, 7), sigma=SkewForm(((0, 3), (-3, 0))))
    state = StateCandidate({1: Fraction(1, 3), 2: 0, 3: 2, 5: -1, 6: 0.25})
    gens = [(0, 0), (1, 0), (0, 1), (2, 1), (1, 3), (3, 3), (4, 0), (5, 5), (6, 0), (14, 7)]
    orbit = {(i, j): gcd(n[0] - m[0], n[1] - m[1])
             for i, m in enumerate(gens) for j, n in enumerate(gens)}
    assert {0, 1, 2, 3, 4, 5, 6} <= set(orbit.values()) and max(orbit.values()) > 6
    want = [[PhaseScalar.zeta(-pairing(ctx.sigma, m, n), state.value(orbit[i, j]))
             for j, n in enumerate(gens)] for i, m in enumerate(gens)]

    def refuse(*args, **kwargs):
        raise AssertionError("gram re-read an orbit value or rebuilt an entry")

    monkeypatch.setattr(StateCandidate, "value", refuse)
    monkeypatch.setattr(PhaseScalar, "zeta", staticmethod(refuse))
    h = gram(state, gens, ctx)
    assert h.dim == len(gens)
    for (i, j), q in orbit.items():
        got = h.entry(i, j)
        assert sorted(got._terms.items()) == sorted(want[i][j]._terms.items()), (i, j)
        types = {0: [int], 1: [Fraction], 3: [int], 5: [int], 6: [Fraction]}.get(q, [])
        assert [type(c) for c in got._terms.values()] == types, (i, j, got)
    assert any(k for i, j in orbit for k, _ in h.entry(i, j)._terms)  # phased entries


@pytest.mark.parametrize("n", [1, 2, 5, 13])
def test_gram_visits_each_unordered_pair_once(n, monkeypatch):
    # the gcd is symmetric and sigma skew: n generators cost n(n-1)/2 gcds, the diagonal
    # none, and the (j, i) entry is exactly the conjugate of the (i, j) entry
    import nctorus.states as states

    calls = []

    def counting_gcd(*args):
        calls.append(args)
        return gcd(*args)

    ctx = PhaseContext(h=Fraction(5, 7), sigma=SkewForm(((0, 3), (-3, 0))))
    gens = [(j, j * j + 1) for j in range(n)]
    state = StateCandidate({j: Fraction(1, 1 + j) if j % 3 else 2 for j in range(1, 2 * n * n)})
    monkeypatch.setattr(states, "_gcd", counting_gcd)
    h = gram(state, gens, ctx)
    assert len(calls) == n * (n - 1) // 2
    for i, m in enumerate(gens):
        assert h.entry(i, i)._terms == {(0, (0, 1)): 1}
        for j, g in enumerate(gens[i + 1:], i + 1):
            want = PhaseScalar.zeta(-pairing(ctx.sigma, m, g), state.value(gcd(g[0] - m[0], g[1] - m[1])))
            assert h.entry(i, j) == want and h.entry(i, j)._terms == want._terms
            mirror = h.entry(i, j).conjugate()
            assert h.entry(j, i)._terms == mirror._terms, (i, j)
            assert [type(c) for c in h.entry(j, i)._terms.values()] == \
                [type(c) for c in mirror._terms.values()]


@hs.composite
def progression_gram_case(draw):
    """(gens, sigma_01, h, values): a first generator off the progression m_1 + (j-1) s,
    j = 1..n-1, and values, integral, fractional or explicitly zero, on multiples of
    gcd(s) and on other orbits."""
    coord = hs.integers(-6, 6)
    n = draw(hs.integers(4, 40))
    (x, y), (u, v) = draw(hs.tuples(coord, coord)), draw(hs.tuples(coord, coord).filter(any))
    prog = [(x + j * u, y + j * v) for j in range(n - 1)]
    first = draw(hs.tuples(coord, coord).filter(lambda m: m not in prog))
    g = gcd(u, v)
    orbit = hs.one_of(hs.integers(1, n).map(lambda k: k * g), hs.integers(1, 2 * n * g))
    value = hs.one_of(hs.integers(-2, 2), hs.fractions(-3, 3, max_denominator=8))
    return ([first] + prog, draw(hs.sampled_from([1, 3, -2])),
            draw(hs.fractions(-3, 3, max_denominator=9).filter(bool)),
            draw(hs.dictionaries(orbit, value, max_size=8)))


@settings(max_examples=150, deadline=None)
@given(progression_gram_case())
@example(([(0, 0), (1, 1), (3, 2)], 1, Fraction(1), {1: Fraction(1, 2), 2: 0}))  # n = 3
@example(([(0, 0), (1, 2), (3, 2), (5, 2)], 3, Fraction(5, 7),  # n = 4, the smallest band
          {1: 1, 2: Fraction(-1, 3), 4: Fraction(1, 4), 5: 0}))
@example(([(-2, 3), (0, 1), (2, -1), (4, -3), (6, -5)], -2, Fraction(-1, 2),  # (-2, 3) = m_1 - s
          {1: Fraction(3, 5), 2: 2, 4: 0, 6: Fraction(-1, 8), 8: 1}))
def test_progression_fill_is_the_pair_loop(case):
    gens, sigma01, h, values = case
    ctx = PhaseContext(h=h, sigma=SkewForm(((0, sigma01), (-sigma01, 0))))
    state = StateCandidate(values)
    got, want = gram(state, gens, ctx), gram_by_pairs(state, gens, ctx)
    assert got.dim == want.dim == len(gens)
    for i, (row, ref) in enumerate(zip(got.rows(), want.rows())):
        for j, (c, r) in enumerate(zip(row, ref)):
            assert c._terms == r._terms, (i, j)
            assert [type(x) for x in c._terms.values()] == [type(x) for x in r._terms.values()], (i, j)


@pytest.mark.parametrize("n", [4, 5, 13, 40])
def test_gram_takes_n_gcds_on_a_progression(n, monkeypatch):
    # a family shape, (0, 0) then m_1 + (j-1) s: row 0 takes n-1 gcds and the band one,
    # gcd(s); with one generator moved off the progression the pair loop takes n(n-1)/2
    import nctorus.states as states

    calls = []

    def counting_gcd(*args):
        calls.append(args)
        return gcd(*args)

    ctx = PhaseContext(h=Fraction(5, 7), sigma=SkewForm(((0, 3), (-3, 0))))
    family = [(0, 0)] + [(1 + 6 * j, 5 - 4 * j) for j in range(n - 1)]
    moved = family[:n // 2] + [(family[n // 2][0] + 1, family[n // 2][1])] + family[n // 2 + 1:]
    state = StateCandidate({j: Fraction(1, 1 + j) if j % 3 else 2 for j in range(1, 4 * n)})
    monkeypatch.setattr(states, "_gcd", counting_gcd)
    for gens, count in ((family, n), (moved, n * (n - 1) // 2)):
        calls.clear()
        h = gram(state, gens, ctx)
        assert len(calls) == count
        want = gram_by_pairs(state, gens, ctx)
        assert [[c._terms for c in row] for row in h.rows()] == \
            [[c._terms for c in row] for row in want.rows()]


def test_gram_hermitian_exact(ctx):
    rng = random.Random(11)
    state = StateCandidate({1: 0.5, 2: 0.25, 3: -0.125})
    for _ in range(20):
        gens = set()
        while len(gens) < 4:
            gens.add((rng.randint(-5, 5), rng.randint(-5, 5)))
        h = gram(state, sorted(gens), ctx)
        assert is_hermitian(h)


def test_rounded_gram_is_exactly_hermitian():
    # signed phases round zeta^-k to the exact conjugate of zeta^k
    rng = random.Random(17)
    for h in (Fraction(1), Fraction(1, 2), Fraction(5, 7)):
        ctx = PhaseContext(h=h)
        for _ in range(30):
            state = StateCandidate({j: Fraction(rng.randint(-8, 8), 8) for j in (1, 2, 3)})
            span = rng.choice((5, 10**12))
            gens = set()
            while len(gens) < 5:
                gens.add((rng.randint(-span, span), rng.randint(-span, span)))
            rows = gram(state, sorted(gens), ctx).rounded(ctx)
            assert all(rows[i][j] == rows[j][i].conjugate()
                       for i in range(5) for j in range(5)), rows


def test_gram_direct_agreement(ctx):
    rng = random.Random(13)
    for _ in range(60):
        state = StateCandidate({j: Fraction(rng.randint(-8, 8), 8) for j in (1, 2, 3)})
        gens = []
        while len(gens) < rng.randint(2, 6):
            g = (rng.randint(-4, 4), rng.randint(-4, 4))
            if g not in gens:
                gens.append(g)
        coeffs = [random_scalar(rng) for _ in gens]
        a = None
        for g, c in zip(gens, coeffs):
            term = weyl(g) * c
            a = term if a is None else a + term
        direct = evaluate(state, multiply(adjoint(a), a, ctx), ctx)

        h = gram(state, gens, ctx)
        from nctorus.algebra import numeric_eval

        vec = [numeric_eval(c, ctx) for c in coeffs]
        quad = numeric_eval(quadratic_form(h, vec), ctx).real
        assert abs(direct - quad) < 1e-10

        # exact entries: same identity with no roundoff at all
        direct_exact = evaluate_exact(state, multiply(adjoint(a), a, ctx))
        total = PhaseScalar.zero()
        for i in range(len(gens)):
            for j in range(len(gens)):
                total = total + coeffs[i].conjugate() * h.entry(i, j) * coeffs[j]
        assert total == direct_exact


def test_quadratic_form_examples():
    ident = HermitianMatrix(np.eye(3))
    assert quadratic_form(ident, [1, 0, 0]) == 1.0
    h = HermitianMatrix(np.array([[1, 2], [2, 1]], dtype=complex))
    assert quadratic_form(h, [1, -1]) == -2.0
    # the result is the exact total, with Fraction parts from int coefficients
    q = quadratic_form(HermitianMatrix([[1, 2], [2, 1]]), [1, -1])
    assert isinstance(q, PhaseScalar) and as_gaussian(q) == (-2, 0)
    assert all(type(x) is Fraction for x in as_gaussian(q))
    assert numeric_eval(quadratic_form(h, [1, 1j]), None) == 2
    # a sum stores 1/2 + 1/2 as an integral Fraction; the product stores 9 as an int
    one = PhaseScalar.rational(Fraction(1, 2)) + Fraction(1, 2)
    assert [type(c) for c in one._terms.values()] == [Fraction]
    q = quadratic_form(HermitianMatrix([[one]]), [3])
    assert q == 9 and [type(c) for c in q._terms.values()] == [int]
    with pytest.raises(ValueError):
        quadratic_form(h, [1, 0, 0])


def test_quadratic_form_multiplies_each_entry_once(ctx, monkeypatch):
    # roots 1 and i: each used entry's terms are read once into Gaussian products
    # (H_ij v_j, inline), and each nonzero row total once more, times conj(v_i), by
    # scalars._gaussian_into; no PhaseScalar product is made
    from nctorus import scalars

    reads = {}

    class CountedTerms(dict):  # counts the items() reads that multiply an entry
        def items(self):
            reads[id(self)] = reads.get(id(self), 0) + 1
            return super().items()

    state = StateCandidate({1: 0.5, 2: -0.25})
    h = gram(state, [(0, 0), (1, 0), (0, 1), (2, 2)], ctx)
    h = HermitianMatrix._of(tuple(tuple(PhaseScalar._of(CountedTerms(c._terms)) for c in row)
                                  for row in h.rows()))
    v = [PhaseScalar.gaussian(1, 2), PhaseScalar.rational(-1), 0, PhaseScalar.zeta(3, 2)]
    direct = PhaseScalar.zero()
    for i in range(4):
        for j in range(4):
            direct = direct + v[i].conjugate() * h.entry(i, j) * v[j]
    reads.clear()
    gaussian_into, row_products = scalars._gaussian_into, []

    def counted(acc, x, y, *rest):
        row_products.append((x, y))
        return gaussian_into(acc, x, y, *rest)

    monkeypatch.setattr(scalars, "_gaussian_into", counted)
    monkeypatch.setattr(PhaseScalar, "__mul__", None)  # no full product per entry
    assert numeric_eval(quadratic_form(h, v), ctx).real == numeric_eval(direct, ctx).real
    # H_ij v_j for each nonzero pair of a row with v_i != 0 (a zero v_i skips its row),
    # then conj(v_i) times each such row total
    used = [id(c._terms) for vi, row in zip(v, h.rows()) if vi
            for c, x in zip(row, v) if c and x]
    assert sorted(reads) == sorted(used) and set(reads.values()) == {1}  # each entry once
    per_row = [sum(1 for c, x in zip(row, v) if c and x) if vi else 0
               for vi, row in zip(v, h.rows())]
    assert len(row_products) == sum(1 for n in per_row if n)
    assert len(reads) + len(row_products) == sum(per_row) + sum(1 for n in per_row if n)


@settings(max_examples=60, deadline=None)
@given(hs.data())
def test_gaussian_quadratic_form_matches_per_row_reduction(data):
    # refute-shaped totals (a Gram matrix, Gaussian witness entries times zeta powers):
    # the Q(i) sum stores the terms, and coefficient types, of reducing each row first
    from paper_oracles import quadratic_form_per_row

    def stored(x):
        return sorted((key, type(c), c) for key, c in x._terms.items())

    ctx = PhaseContext(h=data.draw(hs.sampled_from((Fraction(1), Fraction(3, 7)))))
    gens = data.draw(hs.lists(hs.tuples(hs.integers(-6, 6), hs.integers(-6, 6)),
                              min_size=1, max_size=7, unique=True), label="gens")
    values = data.draw(hs.dictionaries(hs.integers(1, 12), hs.fractions(-2, 2, max_denominator=30),
                                       max_size=5), label="values")
    part = hs.fractions(-3, 3, max_denominator=12)
    v = data.draw(hs.lists(hs.one_of(hs.just(0), hs.builds(GaussRat, part, part),
                                     hs.builds(lambda re, im, k: PhaseScalar.gaussian(re, im).times_zeta(k),
                                               part, part, hs.integers(-3, 3))),
                           min_size=len(gens), max_size=len(gens)), label="v")
    h = gram(StateCandidate(values), gens, ctx)
    got, want = quadratic_form(h, v), quadratic_form_per_row(h, v)
    assert stored(got) == stored(want) and repr(got) == repr(want)


def test_quadratic_form_exact_p5():
    from nctorus.certificate import witness_vector
    from paper_oracles import build_H_prime

    p = Fraction(1, 2)
    pd = build_H_prime(p, {}, 5, 1, 1)
    v = witness_vector(p, 5)
    assert [complex(x) for x in v] == [(-2.5 + 0j), 1, 1, 1, 1, 1]
    assert quadratic_form(pd, v) == Fraction(5, 1) * (1 - 5 * p * p)
    assert quadratic_form(pd, v) == Fraction(-5, 4)


def test_is_psd_examples():
    ok = is_psd(HermitianMatrix(np.array([[1, 0.5], [0.5, 1]], dtype=complex)))
    assert ok.is_psd

    bad = is_psd(HermitianMatrix(np.array([[1, 2], [2, 1]], dtype=complex)))
    assert not bad.is_psd
    assert bad.value < -1e-9
    assert type(bad.value) is Fraction  # GaussRat parts are Fractions, so / stays exact
    assert all(type(w.re) is Fraction and type(w.im) is Fraction for w in bad.witness)
    got = numeric_eval(quadratic_form(HermitianMatrix(np.array([[1, 2], [2, 1]], dtype=complex)),
                                      list(bad.witness)), None).real
    assert abs(got - float(bad.value)) < 1e-12 and got < 0

    with pytest.raises(ValueError):
        is_psd(HermitianMatrix(np.array([[0, 1], [0, 0]], dtype=complex)))


def test_is_psd_exact_p5():
    from paper_oracles import build_H_prime

    pd = build_H_prime(Fraction(1, 2), {}, 5, 1, 1)
    verdict = is_psd(pd)
    assert not verdict.is_psd
    assert verdict.value <= -1
    check = quadratic_form(pd, verdict.witness)
    assert check == verdict.value < 0


def test_is_psd_exact_boundary():
    from paper_oracles import build_H_prime

    # d*p^2 = 1: determinant zero, still PSD
    pd = build_H_prime(Fraction(1, 2), {}, 4, 1, 1)
    assert is_psd(pd).is_psd
    # indefinite with a zero pivot
    h = HermitianMatrix([[PhaseScalar.zero(), PhaseScalar.one()],
                         [PhaseScalar.one(), PhaseScalar.zero()]])
    verdict = is_psd(h)
    assert not verdict.is_psd and quadratic_form(h, verdict.witness) == verdict.value < 0


# zeros are frequent, so zero pivots with and without coupling come up often
PARTS = [0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2)]
gauss = hs.builds(GaussRat, hs.sampled_from(PARTS), hs.sampled_from(PARTS))


@hs.composite
def hermitian(draw):
    n = draw(hs.integers(1, 6))
    if draw(hs.booleans()):
        rows = [[GaussRat(0)] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = GaussRat(draw(hs.sampled_from(PARTS)))
            for j in range(i):
                rows[i][j] = draw(gauss)
                rows[j][i] = rows[i][j].conjugate()
    else:  # B^H B: PSD and often singular
        b = [[draw(gauss) for _ in range(n)] for _ in range(draw(hs.integers(1, n)))]
        rows = [[sum((r[i].conjugate() * r[j] for r in b), GaussRat(0)) for j in range(n)]
                for i in range(n)]
    return HermitianMatrix([[PhaseScalar.gaussian(g.re, g.im) for g in row] for row in rows])


@settings(max_examples=200, deadline=None)
@given(hermitian())
def test_psd_exact_matches_full_square_elimination(h):
    verdict = is_psd(h)
    want = psd_exact_full_square(gaussian_entries(h))
    assert (verdict.is_psd, verdict.witness, verdict.value) == (want.is_psd, want.witness, want.value)
    # zero pivots with real and imaginary couplings: every congruence unit c
    assert determinant_exact(h) == determinant_fractions(gaussian_entries(h))
    if not verdict.is_psd:
        assert quadratic_form(h, verdict.witness) == verdict.value < 0


# denominators whose lcm D makes wide ints, a prime near 10^9 among them
DENOMINATORS = [1, 2, 3, 7, 10**9, 10**17, 999_999_937]
wide_part = hs.builds(Fraction, hs.sampled_from([0, 0, 1, -1, 2, -3]), hs.sampled_from(DENOMINATORS))
wide_gauss = hs.builds(GaussRat, wide_part, wide_part | hs.just(0))


@hs.composite
def wide_hermitian(draw):
    n = draw(hs.integers(1, 8))
    rows = [[GaussRat(0)] * n for _ in range(n)]
    if draw(hs.booleans()):
        for i in range(n):
            rows[i][i] = GaussRat(draw(wide_part))
            for j in range(i):
                rows[i][j] = draw(wide_gauss)
                rows[j][i] = rows[i][j].conjugate()
    else:  # sum of r v v^H, r < n once n > 1: PSD and singular
        for _ in range(draw(hs.integers(1, max(1, n - 1)))):
            v = [draw(wide_gauss) for _ in range(n)]
            rows = [[rows[i][j] + v[i] * v[j].conjugate() for j in range(n)] for i in range(n)]
    for i in draw(hs.sets(hs.integers(0, n - 1), max_size=n)):
        rows[i][i] = GaussRat(0)  # a zero pivot, coupled to its row unless that is cleared
        if draw(hs.booleans()):
            for j in range(n):
                rows[i][j] = rows[j][i] = GaussRat(0)
    return rows


@settings(max_examples=300, deadline=None)
@given(wide_hermitian(), hs.sampled_from([0, 1e-9, Fraction(1, 4)]))
def test_integer_elimination_matches_fraction_elimination(rows, tol):
    h = HermitianMatrix([[PhaseScalar.gaussian(g.re, g.im) for g in row] for row in rows])
    shift = as_tolerance(tol)
    verdict = is_psd(h, tol)
    want = psd_exact_fractions([row[:i] + [row[i] + shift] for i, row in enumerate(rows)])
    assert verdict.is_psd == want.is_psd
    det, want_det = determinant_exact(h), determinant_fractions(rows)
    assert (det.re, det.im) == (want_det.re, want_det.im)
    if verdict.is_psd:
        return
    w = verdict.witness
    assert [(x.re, x.im) for x in w] == [(x.re, x.im) for x in want.witness]
    norm = sum(x.abs2() for x in w)
    assert verdict.value == want.value - shift * norm
    # w^H (H + tol*I) w - tol*|w|^2, exactly
    shifted = HermitianMatrix([[PhaseScalar.gaussian(g.re + shift * (i == j), g.im)
                                for j, g in enumerate(row)] for i, row in enumerate(rows)])
    re_part, im_part = as_gaussian(quadratic_form(shifted, w))
    assert (re_part - shift * norm, im_part) == (verdict.value, 0)


def test_integer_elimination_needs_no_gaussrat_products(monkeypatch):
    from paper_oracles import build_H_prime

    pd = build_H_prime(Fraction(1, 5), {}, 25, 1, 1)  # d p^2 = 1: PSD, det 0
    bad = build_H_prime(Fraction(-1, 4), {}, 25, 1, 1)  # d p^2 = 25/16: not PSD, det -9/16
    want = psd_exact_fractions(gaussian_entries(bad))

    def refused(*_):
        raise AssertionError("GaussRat arithmetic inside the elimination")

    for name in ("__mul__", "__rmul__", "__truediv__"):
        monkeypatch.setattr(GaussRat, name, refused)
    assert is_psd(pd).is_psd
    assert determinant_exact(pd) == 0
    verdict = is_psd(bad)  # the witness is back-substituted on Gaussian ints too
    assert not verdict.is_psd and verdict.value == want.value == -4
    assert verdict.witness == want.witness  # 12 e_0 + 3 (e_1 + ... + e_15) + e_16 + 2 e_17
    assert [w.re for w in verdict.witness] == [12] + [3] * 15 + [1, 2] + [0] * 8
    assert determinant_exact(bad) == GaussRat(Fraction(-9, 16))


def test_exact_matrices_build_no_gaussrat_entries(monkeypatch):
    h = HermitianMatrix([[Fraction(5, 2), PhaseScalar.gaussian(Fraction(1, 3), -1)],
                         [PhaseScalar.gaussian(Fraction(1, 3), 1), Fraction(7, 6)]])
    built = []
    init, of = GaussRat.__init__, GaussRat._of.__func__

    def counted_init(self, *args):
        built.append("__init__")
        init(self, *args)

    def counted_of(cls, *args):
        built.append("_of")
        return of(cls, *args)

    monkeypatch.setattr(GaussRat, "__init__", counted_init)
    monkeypatch.setattr(GaussRat, "_of", classmethod(counted_of))
    assert is_psd(h).is_psd and built == []  # the entries go straight to Gaussian ints
    det = determinant_exact(h)
    assert len(built) == 1 and (det.re, det.im) == (Fraction(65, 36), 0)  # 35/12 - 10/9


def test_hermitian_within_tol_at_its_boundary():
    tol = Fraction(1, 3)
    a = PhaseScalar.gaussian(Fraction(1, 7), Fraction(2, 7))

    def matrix(gap_re, gap_im, diag_im=0):
        # H_10 = conj(H_01) + conj(gap): |H_01 - conj(H_10)| = |gap|
        below = a.conjugate() + PhaseScalar.gaussian(gap_re, -gap_im)
        return HermitianMatrix([[PhaseScalar.gaussian(Fraction(3, 7), diag_im), a],
                                [below, PhaseScalar.rational(Fraction(5, 7))]])

    for gap in ((tol, 0), (Fraction(1, 5), Fraction(4, 15))):  # |gap| = tol exactly
        assert is_psd(matrix(*gap), tol).is_psd
    with pytest.raises(ValueError, match="not Hermitian"):
        is_psd(matrix(tol + Fraction(1, 10**9), 0), tol)
    # a diagonal imaginary part y is the gap 2y
    assert is_psd(matrix(0, 0, Fraction(1, 6)), tol).is_psd
    with pytest.raises(ValueError, match="not Hermitian"):
        is_psd(matrix(0, 0, Fraction(1, 6)), Fraction(1, 7))
    with pytest.raises(ValueError, match="not Hermitian"):
        is_psd(matrix(0, 0, Fraction(1, 6)))


def test_hermitian_ints_reads_only_the_nonzero_entries(monkeypatch):
    from nctorus import states
    from paper_oracles import build_H_prime

    pd = build_H_prime(Fraction(1, 5), {}, 25, 1, 1)  # 26 x 26, d p^2 = 1: PSD, det 0
    read = []

    def counted(term_dicts):
        read.append(len(term_dicts))
        return _gaussian(term_dicts)

    monkeypatch.setattr(states, "_gaussian", counted)
    assert is_psd(pd).is_psd and determinant_exact(pd) == 0
    assert read == [77, 77]  # 26 diagonal and 2 * 25 arrow entries, and tol's


TOLS = hs.sampled_from([ZERO, Fraction(1, 10**9), Fraction(1, 4), Fraction(1, 2), Fraction(1), 2])


@hs.composite
def arrow(draw):
    """P_d-like: ones on the diagonal, p and conj(p) in row and column 0."""
    n, p = draw(hs.integers(1, 9)), draw(gauss)
    rows = [[PhaseScalar.rational(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(1, n):
        rows[0][k], rows[k][0] = PhaseScalar.gaussian(p.re, p.im), PhaseScalar.gaussian(p.re, -p.im)
    return HermitianMatrix(rows), draw(TOLS)


@hs.composite
def one_sided(draw):
    """A nonzero off-diagonal entry v whose mirror is zero, as in [[1, 1], [0, 1]]:
    Hermitian within tol exactly when |v| <= tol."""
    h = draw(hermitian())
    assume(h.dim > 1)
    i, j = draw(hs.permutations(range(h.dim)))[:2]
    v, rows = draw(gauss.filter(bool)), [list(row) for row in h.rows()]
    rows[i][j], rows[j][i] = PhaseScalar.gaussian(v.re, v.im), PhaseScalar.zero()
    return HermitianMatrix(rows), draw(TOLS)


@hs.composite
def near_hermitian(draw):
    """H_ij moved off conj(H_ji) by a gap of length tol, or just past it."""
    h = draw(hermitian())
    i, j = draw(hs.integers(0, h.dim - 1)), draw(hs.integers(0, h.dim - 1))
    tol = draw(hs.sampled_from([Fraction(1, 3), Fraction(5, 2)]))
    length = tol + draw(hs.sampled_from([0, Fraction(1, 10**9)]))
    x, y = draw(hs.sampled_from([(1, 0), (0, -1), (Fraction(3, 5), Fraction(4, 5))]))
    rows = [list(row) for row in h.rows()]
    rows[i][j] = rows[i][j] + PhaseScalar.gaussian(x * length, y * length)
    return HermitianMatrix(rows), tol


def times_phase(x: PhaseScalar, k: int, r: Fraction) -> PhaseScalar:
    """x * zeta^k * e(r), each term shifted on its own: no product, which a
    root outside Q(i) would refuse."""
    return PhaseScalar([((j + k, s + r), c) for j, s, c in x.terms()])


@hs.composite
def phased(draw):
    """An entry, and maybe its mirror, times zeta^k or e(1/3)."""
    h = draw(hermitian())
    i, j = draw(hs.integers(0, h.dim - 1)), draw(hs.integers(0, h.dim - 1))
    k, r = draw(hs.sampled_from([(1, 0), (-2, 0), (0, Fraction(1, 3))]))
    rows = [list(row) for row in h.rows()]
    rows[i][j] = times_phase(rows[i][j], k, r)
    if draw(hs.booleans()):
        rows[j][i] = times_phase(rows[j][i], -k, -r)
    return HermitianMatrix(rows), draw(TOLS)


def read_or_error(read, h, tol):
    try:
        return read(h, tol)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(hs.one_of(hs.tuples(hermitian(), TOLS), arrow(), one_sided(), near_hermitian(), phased()))
def test_sparse_reader_matches_dense_reader(case):
    h, tol = case[0], as_tolerance(case[1])
    assert read_or_error(_hermitian_ints, h, tol) == read_or_error(hermitian_ints_dense, h, tol)


def test_psd_two_by_two_iff(ctx):
    for p in [-1.2, -1.0, -0.5, 0.0, 0.5, 0.99, 1.0, 1.001, 1.5]:
        st = StateCandidate({1: abs(p)}) if p >= 0 else StateCandidate({1: p})
        h = gram(st, [(0, 0), (1, 1)], ctx)
        assert is_psd(HermitianMatrix(h.rounded(ctx)), tol=1e-9).is_psd == (abs(p) <= 1 + 1e-9)


def test_quadratic_form_exact_total_rounds_to_numeric_value(ctx):
    state = StateCandidate({1: 0.5, 2: 0.25})
    gens = [(0, 0), (1, 0), (0, 1)]
    h = gram(state, gens, ctx)
    total = quadratic_form(h, (1, 1, 1))
    assert as_gaussian(total) is None  # zeta powers stay exact in the total
    with pytest.raises(ValueError):  # rounding them needs a PhaseContext
        numeric_eval(total, None)
    assert numeric_eval(total, ctx) == 5.54030230586814
    numeric = quadratic_form(HermitianMatrix(h.rounded(ctx)), [1, 1, 1])
    assert abs(numeric_eval(total, ctx).real - numeric_eval(numeric, None).real) < 1e-12


def test_is_psd_exact_matrix_with_phases_uses_numeric(ctx):
    state = StateCandidate({1: 0.5})
    h = gram(state, [(0, 0), (1, 0), (0, 1)], ctx)
    with pytest.raises(ValueError):  # zeta powers are rounded by the caller
        is_psd(h)
    verdict = is_psd(HermitianMatrix(h.rounded(ctx)), tol=1e-9)
    assert verdict.is_psd  # |p| <= 1 on a 3-generator span of orbit-1 points


def test_determinant_exact():
    h = HermitianMatrix([[PhaseScalar.rational(2), PhaseScalar.gaussian(0, 1)],
                         [PhaseScalar.gaussian(0, -1), PhaseScalar.rational(3)]])
    d = determinant_exact(h)
    assert d == GaussRat(5, 0)  # 2*3 - (i)(-i) = 6 - 1
    d = determinant_exact(HermitianMatrix([[2, 1], [1, 2]]))  # int coefficients, Fraction parts
    assert d == GaussRat(3) and type(d.re) is Fraction and type(d.im) is Fraction
    assert determinant_exact(HermitianMatrix(np.eye(2))) == 1  # floats read exactly
    assert determinant_exact(HermitianMatrix(np.eye(2, dtype=int))) == 1  # and numpy ints
    with pytest.raises(ValueError):
        determinant_exact(HermitianMatrix([[1, PhaseScalar.zeta(1)], [PhaseScalar.zeta(-1), 1]]))
    w = PhaseScalar.root_of_unity(Fraction(1, 3))  # a root other than 1 and i
    for decide in (is_psd, determinant_exact):
        with pytest.raises(ValueError, match="round zeta powers first"):
            decide(HermitianMatrix([[1, w], [w.conjugate(), 1]]))


def test_determinant_exact_zero_pivots():
    i = PhaseScalar.gaussian(0, 1)
    # a zero pivot with coupling takes the first unit c in (1, -1, i, -i) that
    # makes a_jj + 2 Re(c a_jk) nonzero: here c = i
    assert determinant_exact(HermitianMatrix([[0, i], [-i, 0]])) == GaussRat(-1)
    # c = 1 gives the pivot -2 + 2 = 0, so c = -1
    assert determinant_exact(HermitianMatrix([[0, 1], [1, -2]])) == GaussRat(-1)
    # a zero pivot with a zero column, after a congruence and a negative pivot
    assert determinant_exact(HermitianMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 0]])) == 0
    # the elimination reads the lower triangle: a non-Hermitian matrix is refused
    with pytest.raises(ValueError, match="not Hermitian"):
        determinant_exact(HermitianMatrix([[1, 2], [3, 4]]))


finite = hs.floats(-2, 2, allow_nan=False, allow_infinity=False)


@hs.composite
def numeric_hermitian(draw):
    n = draw(hs.integers(2, 5))
    rows = [[0j] * n for _ in range(n)]
    shift = draw(hs.floats(0, 4))  # moves the spectrum across zero
    for i in range(n):
        rows[i][i] = complex(draw(finite) + shift)
        for j in range(i):
            rows[i][j] = complex(draw(finite), draw(finite))
            rows[j][i] = rows[i][j].conjugate()
    return HermitianMatrix(rows)


@settings(max_examples=150, deadline=None)
@given(numeric_hermitian(), hs.sampled_from([0.0, 1e-9, 0.25]))
def test_is_psd_rounded_entries_match_eigenvalues(h, tol):
    lam = min_eigenvalue(h)
    assume(abs(lam + tol) > 1e-6)
    verdict = is_psd(h, tol)
    assert verdict.is_psd == (lam >= -tol)
    if not verdict.is_psd:
        # the value is exact, on the decimal values of the entries, unshifted
        assert quadratic_form(h, verdict.witness) == verdict.value < -tol


def test_is_psd_tolerance_shifts_the_diagonal():
    h = HermitianMatrix([[-0.25, 0], [0, 1]])
    assert not is_psd(h, 0.2).is_psd
    verdict = is_psd(h, 0.25)  # H + I/4 is PSD with a zero eigenvalue
    assert verdict.is_psd
    bad = is_psd(h, 0.0)
    assert bad.value <= -1 and quadratic_form(h, bad.witness) == bad.value
    for tol in (float("nan"), float("inf"), -1e-9, "-1/10", "nan", "1/0"):
        with pytest.raises(ValueError, match="tolerance must be a finite number >= 0"):
            is_psd(h, tol)
    # the tolerance is read by as_fraction before it is compared: a string is a number
    assert as_tolerance("1/10") == Fraction(1, 10) and as_tolerance(1e-9) == Fraction(1, 10**9)
    assert not is_psd(h, "1/5").is_psd and is_psd(h, "1/4").is_psd
    for tol in (True, None):
        with pytest.raises(TypeError):
            is_psd(h, tol)


class _NoNumpy:
    def __getattr__(self, name):
        raise AssertionError(f"numpy used outside to_numpy: np.{name}")


def test_pipeline_needs_no_numpy(ctx, monkeypatch):
    from nctorus import states
    from nctorus.certificate import refute, verify

    monkeypatch.setattr(states, "np", _NoNumpy())
    single = StateCandidate({1: 0.5})
    cert = refute(single, ctx)
    assert verify(single, cert, ctx).accepted
    n_val = cert.params.N
    multi = StateCandidate({1: 0.5, n_val: 0.25, 2 * n_val: -0.125})
    cert = refute(multi, ctx)
    assert cert.params.N == n_val and verify(multi, cert, ctx).accepted

    numeric = HermitianMatrix([[1, 2], [2, 1]])
    assert quadratic_form(numeric, [1, -1]) == -2.0
    assert not is_psd(numeric).is_psd
    gaussian = HermitianMatrix([[2, PhaseScalar.gaussian(0, 1)],
                                [PhaseScalar.gaussian(0, -1), 1]])
    assert is_psd(gaussian).is_psd
    phased = gram(single, [(0, 0), (1, 0), (0, 1)], ctx)
    assert gaussian_entries(phased) is None
    assert is_psd(HermitianMatrix(phased.rounded(ctx)), tol=1e-9).is_psd
