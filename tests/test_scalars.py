import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nctorus.algebra import AlgebraElement, PhaseContext, multiply, weyl
from nctorus.scalars import (GaussRat, PhaseScalar, _over, _reduce_roots, as_fraction, as_scalar,
                             cyclotomic)
from nctorus.states import (HermitianMatrix, StateCandidate, determinant_exact, evaluate_exact,
                            is_psd, quadratic_form)
from nctorus.parser import format_element
from conftest import gaussian_roots
from paper_oracles import (as_gaussian, multiply_reduced_once, quadratic_form_per_row, reduce_roots,
                           scalar_add, scalar_conjugate, scalar_element, scalar_mul, scalar_neg)


def test_cyclotomic_first_few():
    assert cyclotomic(1) == (-1, 1)
    assert cyclotomic(2) == (1, 1)
    assert cyclotomic(3) == (1, 1, 1)
    assert cyclotomic(4) == (1, 0, 1)
    assert cyclotomic(6) == (1, -1, 1)
    assert cyclotomic(12) == (1, 0, -1, 0, 1)


@pytest.mark.parametrize("n", range(2, 31))
def test_root_sums_cancel(n):
    total = PhaseScalar.zero()
    for l in range(1, n + 1):
        total = total + PhaseScalar.root_of_unity(Fraction(l, n))
    assert total.is_zero


def test_as_fraction_rule():
    assert as_fraction(Fraction(2, 3)) == Fraction(2, 3) and as_fraction(-7) == -7
    assert as_fraction(0.1) == Fraction(1, 10)  # the shortest decimal, not the binary value
    assert as_fraction("1/3") == Fraction(1, 3)
    assert PhaseContext(h=0.1).h == Fraction(1, 10)
    assert GaussRat.from_number(0.5 + 0.1j).im == Fraction(1, 10)
    assert as_fraction(np.int64(-3)) == -3 and as_fraction(np.float64(0.1)) == Fraction(1, 10)
    for bad in (True, np.bool_(True), None, 1j):
        with pytest.raises(TypeError):
            as_fraction(bad)
    for bad in ("x", "1/0", float("inf"), float("nan")):
        with pytest.raises(ValueError):
            as_fraction(bad)


def test_number_rule():
    for x in (3, Fraction(-2, 3), 0.1, 0.5 - 0.25j, GaussRat(1, -2),
              PhaseScalar.gaussian(1, 1), PhaseScalar.zeta(2, Fraction(3, 4))):
        s = as_scalar(x)
        assert isinstance(s, PhaseScalar)
        assert s == x and x == s
        assert PhaseScalar.one() * x == s and x * PhaseScalar.one() == s
        assert PhaseScalar.zero() + x == s and x + PhaseScalar.zero() == s
        assert AlgebraElement(2, {(0, 0): x}) == scalar_element(x) == weyl((0, 0)) * x
        assert HermitianMatrix([[x]]).entry(0, 0) == s
    assert as_scalar(0.1) == Fraction(1, 10)  # the decimal, as in as_fraction
    for a in (PhaseScalar.one(), GaussRat(1), weyl((1, 0))):
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(TypeError):
                op(a, "1")
            with pytest.raises(TypeError):
                op("1", a)
    nan = float("nan")
    assert not PhaseScalar.one() == nan and PhaseScalar.one() != nan
    assert not PhaseScalar.one() == float("inf") and not nan == PhaseScalar.one()


def test_exact_types_work_together():
    half = PhaseScalar.rational(Fraction(1, 2))
    assert half == 0.5 and 0.5 == half
    assert GaussRat(1) == PhaseScalar.one() and PhaseScalar.one() == GaussRat(1)
    assert PhaseScalar.one() + 0.5 == Fraction(3, 2)
    assert PhaseScalar.one() * 0.5j == PhaseScalar.gaussian(0, Fraction(1, 2))
    assert half / 0.25 == 2 and half / np.int64(2) == Fraction(1, 4)
    for bad in (1j, half):  # a divisor is a real number as_fraction reads
        with pytest.raises(TypeError):
            half / bad
    got = GaussRat(1) + PhaseScalar.one()
    assert isinstance(got, PhaseScalar) and got == 2
    assert GaussRat(0, 1) * PhaseScalar.one() == PhaseScalar.gaussian(0, 1)
    assert PhaseScalar.one() - GaussRat(1, 1) == PhaseScalar.gaussian(0, -1)
    assert GaussRat(1) * weyl((1, 0)) == weyl((1, 0))
    assert weyl((1, 0)) * 0.5 == AlgebraElement(2, {(1, 0): Fraction(1, 2)})
    assert weyl((1, 0)) * GaussRat(0, 2) == AlgebraElement(2, {(1, 0): 2j})


def test_gaussian_embedding():
    i = PhaseScalar.root_of_unity(Fraction(1, 4))
    assert i * i == PhaseScalar.rational(-1)
    s = PhaseScalar.gaussian(Fraction(1, 2), Fraction(3, 4))
    assert as_gaussian(s) == (Fraction(1, 2), Fraction(3, 4))
    assert as_gaussian(s.conjugate()) == (Fraction(1, 2), Fraction(-3, 4))
    # Fraction parts even for int coefficients: they feed GaussRat, where int / int is a float
    for s in (PhaseScalar.gaussian(2, -1), PhaseScalar.rational(3), PhaseScalar.zero()):
        assert all(type(x) is Fraction for x in as_gaussian(s))


def test_integral_coefficients_are_stored_as_ints():
    # the product kernel multiplies and adds these as machine ints
    for s in (PhaseScalar.gaussian(Fraction(2), 0), PhaseScalar.gaussian("-3", Fraction(4, 2)),
              PhaseScalar.rational(Fraction(6, 3)), PhaseScalar.zeta(5, 2.0),
              PhaseScalar.root_of_unity(Fraction(1, 3), Fraction(7)),
              PhaseScalar({(1, Fraction(1, 2)): Fraction(1, 2), (1, 0): Fraction(3, 2)}),
              PhaseScalar.gaussian(Fraction(3, 2), 1) / Fraction(1, 2)):
        assert s._terms and all(type(c) is int for c in s._terms.values()), s
    half = PhaseScalar.gaussian(Fraction(1, 2), 3)  # only the non-integral part is a Fraction
    assert {type(c) for c in half._terms.values()} == {Fraction, int}
    # products too: each reduced coefficient is divided once by the operands'
    # common denominators, and an exact quotient stays an int
    ctx = PhaseContext()
    left = AlgebraElement(2, {(1, 0): Fraction(1, 2)})
    right = AlgebraElement(2, {(0, 1): 2})
    h = HermitianMatrix([[Fraction(1, 2), Fraction(1, 4)], [Fraction(1, 4), Fraction(3, 4)]])
    for s in (PhaseScalar.rational(Fraction(1, 2)) * 2,
              multiply(left, right, ctx).coefficient((1, 1)),
              quadratic_form(h, [2, 2])):  # 2 + 1 + 1 + 3
        assert s._terms and all(type(c) is int for c in s._terms.values()), s
    assert quadratic_form(h, [2, 2]) == 7


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 2**80) | st.sampled_from([1, 2, 4, 10**16, 2**64]),
       st.integers(-2**80, 2**80).filter(bool),
       st.sampled_from(["any", "multiple", "shared factor"]), st.fractions(-5, 5))
def test_reduced_quotient_is_an_ordinary_fraction(den, c, shape, other):
    # _over builds its reduced Fraction from Fraction's own slots: it must be
    # indistinguishable from Fraction(c, den) on every Python version CI runs
    if shape == "multiple":
        c *= den
    elif shape == "shared factor":  # a gcd that is neither 1 nor den, for most den
        c *= math.gcd(den, 2**40 * 3**20)
    got, want = _over(c, den), Fraction(c, den)
    assert type(got) is (int if c % den == 0 else Fraction)
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert (got == want, hash(got), str(got)) == (True, hash(want), str(want))
    for op in (operator.add, operator.mul, operator.eq, operator.lt):
        assert op(got, other) == op(want, other) and op(other, got) == op(other, want)


def test_mixed_order_equality():
    # zeta_3 = zeta_6 - 1 exactly
    lhs = PhaseScalar.root_of_unity(Fraction(1, 3))
    rhs = PhaseScalar.root_of_unity(Fraction(1, 6)) - PhaseScalar.rational(1)
    assert lhs == rhs


def test_zeta_powers_are_formal():
    assert PhaseScalar.zeta(3) * PhaseScalar.zeta(-3) == PhaseScalar.one()
    assert PhaseScalar.zeta(1) != PhaseScalar.zeta(2)
    assert not (PhaseScalar.zeta(1) - PhaseScalar.zeta(1))


# denominators stay small so joint cyclotomic orders stay tractable
ROOT_DENOMINATORS = [1, 2, 3, 4, 5, 6, 8, 12]
any_roots = st.builds(Fraction, st.integers(0, 11), st.sampled_from(ROOT_DENOMINATORS))


def small_scalars(roots):
    return st.builds(PhaseScalar, st.lists(
        st.tuples(st.tuples(st.integers(-3, 3), roots),
                  st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))),
        max_size=3))


# products take the roots of Q(i) only; sums, negation and conjugation take any root
gaussian_scalars, any_scalars = small_scalars(gaussian_roots), small_scalars(any_roots)


@settings(max_examples=150, deadline=None)
@given(gaussian_scalars, gaussian_scalars, gaussian_scalars)
def test_ring_laws(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert a.conjugate().conjugate() == a
    assert (a - a).is_zero


def same_form(x: PhaseScalar, y: PhaseScalar) -> None:
    """Equal canonical terms, not only equal values (1 + e(1/3) == e(1/6))."""
    assert list(x.terms()) == list(y.terms())
    assert str(x) == str(y)


@settings(max_examples=150, deadline=None)
@given(gaussian_scalars, gaussian_scalars, gaussian_scalars, any_scalars, any_scalars,
       st.integers(-3, 3))
def test_kernel_matches_plain_arithmetic(a, b, c, x, y, k):
    # sums, negation, conjugation and zeta shifts on any roots
    same_form(x + y, scalar_add(x, y))
    same_form(x - y, scalar_add(x, scalar_neg(y)))
    same_form(-x, scalar_neg(x))
    same_form(x.conjugate(), scalar_conjugate(x))
    same_form(x.times_zeta(k), scalar_mul(x, PhaseScalar.zeta(k)))
    same_form(a * b, scalar_mul(a, b))
    # results of the fast paths feed further operations
    same_form(a * b + c, scalar_add(scalar_mul(a, b), c))
    same_form((a + b).conjugate() * c.times_zeta(k),
              scalar_mul(scalar_conjugate(scalar_add(a, b)), scalar_mul(c, PhaseScalar.zeta(k))))


roots = st.tuples(st.integers(0, 23), st.sampled_from(ROOT_DENOMINATORS)).map(
    lambda t: Fraction(t[0] % t[1], t[1]))


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(roots, st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
                       max_size=6))
def test_reduce_roots_matches_plain_reduction(parts):
    # _reduce_roots keys e(a/n) by the reduced pair (a, n); the oracle keys by Fraction
    def pairs(bucket):
        return {(r.numerator, r.denominator): c for r, c in bucket.items()}

    def fractions(bucket):
        return {Fraction(a, n): c for (a, n), c in bucket.items()}

    got = fractions(_reduce_roots(pairs(parts)))
    assert got == reduce_roots(parts)
    assert fractions(_reduce_roots(pairs(got))) == got  # idempotent: canonical buckets are fixed points


def test_root_keys():
    # any rational root is read modulo 1 and kept as its reduced pair
    assert PhaseScalar({(0, Fraction(3, 2)): 1}) == PhaseScalar.root_of_unity(Fraction(1, 2))
    assert as_gaussian(PhaseScalar({(0, Fraction(-3, 4)): 1})) == (0, 1)
    # terms() yields Fraction roots sorted by value, not by (a, n) pair order.  No
    # canonical bucket holds 1/3 next to 1/12 (at order 12 only j/12 with j < 4
    # stay), so the order-12 bucket {0, 1/12, 1/6, 1/4} shows it: its pairs sort
    # as (0, 1), (1, 12), (1, 4), (1, 6)
    t = PhaseScalar({(0, Fraction(j, 12)): j + 1 for j in range(4)})
    assert list(t.terms()) == [(0, Fraction(0), 1), (0, Fraction(1, 12), 2),
                               (0, Fraction(1, 6), 3), (0, Fraction(1, 4), 4)]
    assert all(type(r) is Fraction for _, r, _ in t.terms())
    s = (PhaseScalar.root_of_unity(Fraction(1, 3)) + PhaseScalar.root_of_unity(Fraction(1, 4))
         + PhaseScalar.root_of_unity(Fraction(1, 12)))
    roots = [r for _, r, _ in s.terms()]
    assert roots == sorted(roots) and len(roots) > 1


def test_gauss_rat_equality_never_raises():
    one = GaussRat(1)
    assert not (one == None)  # noqa: E711
    assert one != "x" and one != "1" and one != True  # noqa: E712 (bool is not a number here)
    assert one in [None, GaussRat(1)]
    assert one != float("nan") and one != complex(float("inf"), 0)
    assert one == 1 and one == Fraction(1) and one == 1.0 and one == 1 + 0j
    assert GaussRat(Fraction(1, 10), 2) == complex(0.1, 2)


def test_gauss_rat_field_ops():
    x = GaussRat(Fraction(1, 2), Fraction(-3, 4))
    y = GaussRat(2, 1)
    assert (x / y) * y == x
    assert (x * x.conjugate()).im == 0
    assert (x * x.conjugate()).re == x.abs2()
    assert complex(GaussRat(1, 2)) == 1 + 2j
    with pytest.raises(ZeroDivisionError):
        x / GaussRat(0, 0)


def test_numeric_agreement():
    import cmath

    s = PhaseScalar.gaussian(Fraction(1, 3), Fraction(2, 5)) + PhaseScalar.root_of_unity(Fraction(1, 7))
    want = complex(1 / 3, 2 / 5) + cmath.exp(2j * math.pi / 7)
    from nctorus.algebra import PhaseContext, numeric_eval

    got = numeric_eval(s, PhaseContext())
    assert abs(got - want) < 1e-14


# the common-denominator kernel on coefficients of mixed and large
# denominators: decimals (10^6), float witnesses reloaded at full precision
# (10^16), coprime primes near 10^9, and integral Fractions, which a sum can
# store (1/2 + 1/2 is Fraction(1, 1)).  Every result must equal the plain
# Fraction arithmetic term for term, with each integral coefficient an int.
BIG_DENOMINATORS = [1, 10**6, 10**16, 999_999_937, 999_999_929, 998_244_353, 7919]
big_coefficients = st.builds(Fraction, st.integers(-10**12, 10**12).filter(bool),
                             st.sampled_from(BIG_DENOMINATORS))
HALF = PhaseScalar.rational(Fraction(1, 2))


# scalars on the roots of Q(i); the flag adds 1/2 twice, which stores the
# degree-0 coefficient of e(0) as an integral Fraction when it is integral
big_scalars = st.builds(
    lambda t, bump: PhaseScalar(t) + HALF + HALF if bump else PhaseScalar(t),
    st.lists(st.tuples(st.tuples(st.integers(-3, 3), gaussian_roots), big_coefficients),
             min_size=1, max_size=3),
    st.booleans())
big_elements = st.dictionaries(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                               big_scalars, min_size=1, max_size=3)


def stored(s: PhaseScalar) -> list:
    """The stored terms with their coefficient types, after checking that
    every integral coefficient is stored as an int."""
    assert all(type(c) is int or c.denominator > 1 for c in s._terms.values()), s._terms
    return sorted((key, type(c), c) for key, c in s._terms.items())


@settings(max_examples=100, deadline=None)
@given(big_elements, big_elements)
def test_common_denominator_multiply_matches_fractions(a_terms, b_terms):
    ctx = PhaseContext()
    a, b = AlgebraElement(2, a_terms), AlgebraElement(2, b_terms)
    got, want = multiply(a, b, ctx), multiply_reduced_once(a, b, ctx)
    assert [(m, stored(c)) for m, c in got.items()] == [(m, stored(c)) for m, c in want.items()]
    assert repr(got) == repr(want)


@settings(max_examples=150, deadline=None)
@given(big_scalars, big_scalars)
def test_common_denominator_scalar_product_matches_fractions(x, y):
    got, want = x * y, scalar_mul(x, y)
    assert stored(got) == stored(want)
    assert repr(got) == repr(want)
    for s in (x, y):  # an operand may store an integral Fraction, so compare forms
        same_form(s.conjugate(), scalar_conjugate(s))


def test_gaussian_products_skip_root_arithmetic(monkeypatch):
    # roots 1 and i: products and conjugates run on Gaussian ints, with no
    # cyclotomic reduction
    from nctorus import scalars

    ctx = PhaseContext()
    x = PhaseScalar.gaussian(Fraction(1, 2), -3).times_zeta(2) + PhaseScalar.zeta(-1, Fraction(2, 3))
    y = PhaseScalar.gaussian(4, Fraction(5, 6)).times_zeta(-1)
    a = AlgebraElement(2, {(1, 0): x, (0, 1): y})
    b = AlgebraElement(2, {(1, 1): y, (0, 0): x})
    want = scalar_mul(x, y), multiply_reduced_once(a, b, ctx), scalar_conjugate(x)

    def refused(*args):
        raise AssertionError("a Q(i) product needs no cyclotomic reduction")

    monkeypatch.setattr(scalars, "_reduce_roots", refused)
    got = x * y, multiply(a, b, ctx), x.conjugate()
    assert list(map(repr, got)) == list(map(repr, want))


def test_products_refuse_other_roots_and_sums_still_cancel(ctx):
    # every product entry point raises ValueError on e(1/3), the printer and the
    # exact matrix readers alike; sums, ==, conjugate and / still take it
    third = PhaseScalar.root_of_unity(Fraction(1, 3))
    gaussian = PhaseScalar.gaussian(1, 2).times_zeta(1)
    a = AlgebraElement(2, {(1, 0): third, (0, 1): 1})
    b = AlgebraElement(2, {(0, 1): gaussian})
    state = StateCandidate({1: Fraction(1, 2)})
    h = HermitianMatrix([[1, third], [third.conjugate(), 1]])
    for product in (lambda: third * gaussian, lambda: gaussian * third, lambda: third * 2,
                    lambda: 2 * third, lambda: third * third, lambda: b * third,
                    lambda: third * b, lambda: multiply(a, b, ctx), lambda: multiply(b, a, ctx),
                    lambda: evaluate_exact(state, a), lambda: quadratic_form(h, [1, 1]),
                    lambda: quadratic_form(HermitianMatrix([[1]]), [third]),
                    lambda: is_psd(h), lambda: determinant_exact(h), lambda: format_element(a)):
        with pytest.raises(ValueError):
            product()
    for d in (3, 5, 6, 12):
        for j in range(1, d):
            total = sum((PhaseScalar.root_of_unity(Fraction(j * l, d)) for l in range(1, d + 1)),
                        PhaseScalar.zero())
            assert total.is_zero and total == 0
    assert third + third.conjugate() == -1 and (third / 2) + (third / 2) == third


qf_entries = st.one_of(big_scalars, st.just(PhaseScalar.zero()))
quadratic_form_cases = st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.lists(st.lists(qf_entries, min_size=n, max_size=n), min_size=n, max_size=n),
    st.lists(qf_entries, min_size=n, max_size=n)))


@settings(max_examples=80, deadline=None)
@given(quadratic_form_cases)
def test_common_denominator_quadratic_form_matches_double_sum(case):
    # roots in Q(i): the canonical form is unique, so the direct double sum and
    # the per-row reference must give the same terms whatever order they reduce in
    rows, v = case
    direct = PhaseScalar.zero()
    for i, row in enumerate(rows):
        for j, h in enumerate(row):
            direct = scalar_add(direct, scalar_mul(scalar_mul(scalar_conjugate(v[i]), h), v[j]))
    h = HermitianMatrix(rows)
    got, per_row = quadratic_form(h, v), quadratic_form_per_row(h, v)
    assert stored(got) == stored(direct) == stored(per_row)
    assert repr(got) == repr(direct) == repr(per_row)
