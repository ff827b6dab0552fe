import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nctorus.algebra import (
    AlgebraElement,
    PhaseContext,
    adjoint,
    multiply,
    numeric_eval,
    weyl,
)
from nctorus.certificate import CertParams, family_generators
from nctorus.lattice import SIGMA2, SkewForm, identity
from nctorus.parser import format_element
from nctorus.scalars import PhaseScalar
from conftest import element_terms, random_element, random_sl2, shuffled_element
from paper_oracles import (cocycle, int_det, is_symplectic, mat_mul, multiply_by_pairing,
                           multiply_reduced_once, relabel, scalar_element, standard_form)

SHEAR_U = ((1, 1), (0, 1))
SHEAR_L = ((1, 0), (1, 1))


def test_weyl_identity(ctx):
    one = weyl((0, 0))
    assert one == scalar_element(1, 2)
    a = weyl((1, 2))
    assert multiply(one, a, ctx) == a
    assert multiply(a, one, ctx) == a
    assert multiply(a, weyl((-1, -2)), ctx) == one  # sigma(m, -m) = 0


def test_multiply_generator_rule(ctx):
    ab = multiply(weyl((1, 0)), weyl((0, 1)), ctx)
    assert ab.support() == ((1, 1),)
    assert ab.coefficient((1, 1)) == PhaseScalar.zeta(1)
    ba = multiply(weyl((0, 1)), weyl((1, 0)), ctx)
    assert ba.coefficient((1, 1)) == PhaseScalar.zeta(-1)


def test_multiply_bilinear_expansion(ctx):
    s = weyl((1, 0)) + weyl((0, 0))
    sq = multiply(s, s, ctx)
    expect = weyl((2, 0)) + weyl((1, 0)) * 2 + weyl((0, 0))
    assert sq == expect


@pytest.mark.parametrize("form", [SIGMA2, SkewForm(((0, 3), (-3, 0))), standard_form(2)])
def test_multiply_matches_pairing_product(form):
    ctx = PhaseContext(sigma=form)
    rng = random.Random(11)

    def listing(e):
        return [(m, list(c.terms())) for m, c in e.items()]

    for _ in range(25):
        a = random_element(rng, form.dimension, span=3)
        b = random_element(rng, form.dimension, span=3)
        got, want = multiply(a, b, ctx), multiply_by_pairing(a, b, ctx)
        assert listing(got) == listing(want)
        assert repr(got) == repr(want)


# roots outside Q(i) too: there a product's printed form depends on how it
# was reduced, so multiply_by_pairing (one reduction per pair sum) is compared
# by value, and multiply_reduced_once (the documented rule) term for term
def listing(e: AlgebraElement) -> list:
    return [(m, list(c.terms())) for m, c in e.items()]


@settings(max_examples=150, deadline=None)
@given(element_terms, element_terms, st.randoms(use_true_random=False))
def test_multiply_one_reduction_is_order_free(a_terms, b_terms, rnd):
    ctx = PhaseContext()
    a, b = shuffled_element(a_terms, rnd), shuffled_element(b_terms, rnd)
    got = multiply(a, b, ctx)
    assert got == multiply_by_pairing(a, b, ctx)
    again = multiply(shuffled_element(a_terms, rnd), shuffled_element(b_terms, rnd), ctx)
    assert listing(again) == listing(got)
    assert listing(got) == listing(multiply_reduced_once(a, b, ctx))


def test_multiply_reduces_each_bucket_once(ctx):
    # at W[0, 1] the pair products are (-4 - 2e(1/3)) z^-1 and -e(1/2) z^-1.
    # Reduced together at order 6 they give -1 - 2e(1/6); reducing the second
    # on its own first (to +1) would leave the order-3 form -3 - 2e(1/3)
    third, sixth = PhaseScalar.root_of_unity(Fraction(1, 3)), PhaseScalar.root_of_unity(Fraction(1, 6))
    a = AlgebraElement(2, {(-1, 0): -2 - third, (-1, 1): -third})
    b = AlgebraElement(2, {(1, 0): sixth, (1, 1): PhaseScalar.rational(2)})
    got = multiply(a, b, ctx)
    assert str(got.coefficient((0, 1))) == "-1*z^-1 + -2*z^-1*e(1/6)"
    assert got.coefficient((0, 1)) == PhaseScalar.zeta(-1, -3) - third.times_zeta(-1) * 2
    assert listing(got) == listing(multiply_reduced_once(a, b, ctx))


def test_family_product_has_int_coefficients(ctx):
    # omega(a* a) for a = sum W_(g_i) on a certificate family: every pair product is 1 * 1,
    # so the product kernel adds machine ints and no coefficient becomes a Fraction
    params = CertParams(xi=(1, 1), d=5, N=120, epsilon=Fraction(1, 100))
    a = AlgebraElement(2, {g: 1 for g in family_generators(params, 2)})
    prod = multiply(adjoint(a), a, ctx)
    coeffs = [c for _, s in prod.items() for c in s._terms.values()]
    assert len(coeffs) > 6 and all(type(c) is int for c in coeffs)


# integer coefficients on roots in Q(i), which the element grammar prints
qi_roots = st.sampled_from([0, Fraction(1, 4), Fraction(1, 2)])
integral_terms = st.dictionaries(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
    st.lists(st.tuples(st.tuples(st.integers(-3, 3), qi_roots), st.integers(-4, 4)),
             min_size=1, max_size=3),
    min_size=1, max_size=3)


@settings(max_examples=100, deadline=None)
@given(integral_terms, integral_terms)
def test_coefficient_spelling_does_not_reach_the_product(a_terms, b_terms):
    # an integral coefficient given as n, Fraction(n) or "n" is the same stored int
    ctx = PhaseContext()

    def element(terms, spell):
        return AlgebraElement(2, {m: PhaseScalar([(key, spell(c)) for key, c in t])
                                  for m, t in terms.items()})

    def stored(e):
        return [(m, [(key, type(c), c) for key, c in s._terms.items()]) for m, s in e.items()]

    outs = []
    for spell in (int, Fraction, str):
        a, b = element(a_terms, spell), element(b_terms, spell)
        prod = multiply(a, b, ctx)
        outs.append((stored(prod), repr(prod), format_element(multiply(adjoint(a), a, ctx))))
    assert outs[0] == outs[1] == outs[2]


def test_multiply_dimension_mismatch(ctx):
    with pytest.raises(ValueError):
        multiply(weyl((1, 0, 0, 0)), weyl((1, 0)), ctx)


def test_adjoint_examples(ctx):
    assert adjoint(weyl((2, 3))) == weyl((-2, -3))
    a = weyl((1, 1)) * PhaseScalar.zeta(1)
    assert adjoint(a) == weyl((-1, -1)) * PhaseScalar.zeta(-1)
    rng = random.Random(3)
    for _ in range(50):
        x = random_element(rng)
        assert adjoint(adjoint(x)) == x


def test_act_examples(ctx):
    assert relabel(SHEAR_U, weyl((0, 1))) == weyl((1, 1))
    prod = multiply(weyl((1, 0)), weyl((0, 1)), ctx)
    lhs = relabel(SHEAR_U, prod)
    rhs = multiply(relabel(SHEAR_U, weyl((1, 0))), relabel(SHEAR_U, weyl((0, 1))), ctx)
    assert lhs == rhs == weyl((2, 1)) * PhaseScalar.zeta(1)
    neg = ((-1, 0), (0, -1))
    assert relabel(neg, weyl((3, -2))) == weyl((-3, 2)) == adjoint(weyl((3, -2)))


def test_cocycle_examples(ctx):
    assert cocycle(ctx.sigma, (1, 0), (0, 1), (1, 1))
    rng = random.Random(7)
    for _ in range(200):
        m = (rng.randint(-9, 9), rng.randint(-9, 9))
        n = (rng.randint(-9, 9), rng.randint(-9, 9))
        assert cocycle(ctx.sigma, m, n, (0, 0))
        g = (rng.randint(-9, 9), rng.randint(-9, 9))
        assert cocycle(ctx.sigma, m, n, g)


def test_associativity_exact(ctx):
    rng = random.Random(13)
    for _ in range(100):
        a, b, c = (random_element(rng, max_terms=4) for _ in range(3))
        assert multiply(multiply(a, b, ctx), c, ctx) == multiply(a, multiply(b, c, ctx), ctx)


def test_equal_elements_compare_by_canonical_terms(ctx, monkeypatch):
    a = AlgebraElement(2, {(1, 0): PhaseScalar.gaussian(Fraction(1, 2), -3), (0, 2): 2})
    b = AlgebraElement(2, {(2, 1): PhaseScalar.zeta(-1), (0, 0): Fraction(-3, 4)})
    left, right = multiply(multiply(a, b, ctx), a, ctx), multiply(a, multiply(b, a, ctx), ctx)

    def refused(*_):
        raise AssertionError("PhaseScalar comparison of equal canonical terms")

    # Q(i) coefficients have one canonical form: equal dicts decide, with no
    # subtraction and no PhaseScalar.__eq__ call
    for name in ("__sub__", "__eq__"):
        monkeypatch.setattr(PhaseScalar, name, refused)
    assert left == right and len(left.support()) > 1


def test_equal_values_in_other_canonical_forms_compare_equal():
    third = PhaseScalar.root_of_unity(Fraction(1, 3))
    sixth = PhaseScalar.root_of_unity(Fraction(1, 6))
    summed = PhaseScalar.one() + third
    assert summed._terms != sixth._terms  # 1 + e(1/3) and e(1/6): one value, two forms
    built = AlgebraElement(2, {(1, 0): summed, (0, 1): 2})
    assert built == weyl((1, 0)) * sixth + weyl((0, 1)) * 2
    assert weyl((1, 0)) + weyl((1, 0)) * third == weyl((1, 0)) * sixth
    for other in (AlgebraElement(2, {(1, 0): summed}),  # a smaller support
                  AlgebraElement(2, {(1, 0): summed, (0, 2): 2}),  # another point
                  AlgebraElement(2, {(1, 0): summed, (0, 1): third})):  # another value
        assert built != other and other != built
    assert weyl((0, 0)) != weyl((0, 0, 0, 0)) and weyl((0, 0, 0, 0)) != weyl((0, 0))


def test_star_antimultiplicative(ctx):
    rng = random.Random(17)
    for _ in range(100):
        a, b = random_element(rng), random_element(rng)
        assert adjoint(multiply(a, b, ctx)) == multiply(adjoint(b), adjoint(a), ctx)


def test_automorphism_iff_symplectic(ctx):
    assert is_symplectic(SHEAR_U, SIGMA2) and not is_symplectic(((2, 0), (0, 1)), SIGMA2)
    assert is_symplectic(identity(4), standard_form(2))
    rng = random.Random(19)
    flip = ((1, 0), (0, -1))
    for _ in range(30):
        theta = random_sl2(rng)
        if rng.random() < 0.5:
            theta = mat_mul(theta, flip)
        assert abs(int_det(theta)) == 1
        multiplicative = all(
            relabel(theta, multiply(a, b, ctx))
            == multiply(relabel(theta, a), relabel(theta, b), ctx)
            for a, b in ((random_element(rng, max_terms=3), random_element(rng, max_terms=3))
                         for _ in range(10))
        )
        assert multiplicative == is_symplectic(theta, ctx.sigma)


def test_action_is_a_representation(ctx):
    rng = random.Random(23)
    for _ in range(40):
        t1, t2 = random_sl2(rng), random_sl2(rng)
        a, b = random_element(rng), random_element(rng)
        composed = mat_mul(t1, t2)
        assert relabel(t1, relabel(t2, a)) == relabel(composed, a)
        # the composed relabelling is still an automorphism of multiply
        assert (relabel(composed, multiply(a, b, ctx))
                == multiply(relabel(t1, relabel(t2, a)), relabel(t1, relabel(t2, b)), ctx))


def test_ergodicity_on_elements(ctx):
    # only multiples of the identity are fixed by both shears
    rng = random.Random(29)
    for _ in range(100):
        a = random_element(rng)
        fixed = relabel(SHEAR_U, a) == a and relabel(SHEAR_L, a) == a
        assert fixed == (set(a.support()) <= {(0, 0)})
    lam = weyl((0, 0)) * PhaseScalar.gaussian(Fraction(2, 3), Fraction(-1, 5))
    assert relabel(SHEAR_U, lam) == lam and relabel(SHEAR_L, lam) == lam


def test_numeric_eval_examples(ctx):
    import cmath

    assert numeric_eval(PhaseScalar.one(), ctx) == 1.0
    z = numeric_eval(PhaseScalar.zeta(1), ctx)
    assert abs(z - cmath.exp(1j)) < 1e-14
    rng = random.Random(37)
    for _ in range(50):
        s = PhaseScalar.gaussian(Fraction(rng.randint(-5, 5), 3), Fraction(rng.randint(-5, 5), 7))
        s = s * PhaseScalar.zeta(rng.randint(-4, 4))
        got = numeric_eval(s.conjugate(), ctx)
        want = numeric_eval(s, ctx).conjugate()
        assert abs(got - want) < 1e-13


def test_numeric_eval_rounds_gaussian_values_exactly():
    # c and c*i round only through float(c): no cos(pi/2) residue
    assert numeric_eval(PhaseScalar.gaussian(2, -3), None) == complex(2, -3)
    assert numeric_eval(PhaseScalar.gaussian(0, Fraction(1, 3)), None) == complex(0, 1 / 3)
    assert numeric_eval(PhaseScalar.zeta(0, -7), None) == -7


def test_numeric_eval_huge_exponent_is_sane(ctx):
    # |zeta^k| = 1 even at exponents far beyond float range
    k = 3**80
    v = numeric_eval(PhaseScalar.zeta(k), ctx)
    assert abs(abs(v) - 1.0) < 1e-12
    w = numeric_eval(PhaseScalar.zeta(k) * PhaseScalar.zeta(-k), ctx)
    assert abs(w - 1.0) < 1e-12


def test_numeric_eval_does_not_depend_on_the_term_order(ctx):
    # numeric_eval reads the stored terms in storage order; math.fsum rounds each part
    # correctly, so the same canonical terms stored in two orders give the same complex,
    # bit for bit, even where a left-to-right float sum would cancel differently
    s = (PhaseScalar.gaussian(1, Fraction(-1, 3))
         + PhaseScalar.zeta(7, 10**17) + PhaseScalar.zeta(-7, -10**17)
         + PhaseScalar.zeta(3**80, Fraction(2, 9)) * PhaseScalar.gaussian(0, 1)
         + PhaseScalar.root_of_unity(Fraction(1, 3), Fraction(5, 2)) * PhaseScalar.zeta(-2)
         + PhaseScalar.root_of_unity(Fraction(1, 6), 10**16))
    items = list(s._terms.items())
    assert len(items) == 7
    want = numeric_eval(s, ctx)
    rng = random.Random(41)
    for _ in range(20):
        rng.shuffle(items)
        got = numeric_eval(PhaseScalar._of(dict(items)), ctx)
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())
