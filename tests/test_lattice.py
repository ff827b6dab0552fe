import hashlib
import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from nctorus.lattice import (
    SIGMA2,
    SkewForm,
    as_integer,
    as_matrix,
    as_vector,
    extended_gcd,
    identity,
    orbit_rep,
    pairing,
    symplectic_normal_form,
    theta_j,
)
from conftest import random_sl2, random_unimodular
from paper_oracles import int_det, is_symplectic, mat_mul, mat_vec, standard_form, transpose


def test_pairing_examples():
    assert pairing(SIGMA2, (1, 0), (0, 1)) == 1
    assert pairing(SIGMA2, (6, 4), (1, 1)) == 6 * 1 - 4 * 1 == 2
    for m in [(0, 0), (3, -2), (7, 7)]:
        assert pairing(SIGMA2, m, m) == 0


def test_pairing_dimension_mismatch():
    with pytest.raises(ValueError):
        pairing(SIGMA2, (1, 0, 0), (0, 1))


def test_pairing_bilinear_antisymmetric():
    rng = random.Random(11)
    form = standard_form(2)
    for _ in range(1000):
        m, n, g = (tuple(rng.randint(-9, 9) for _ in range(4)) for _ in range(3))
        c = rng.randint(-4, 4)
        assert pairing(form, m, n) == -pairing(form, n, m)
        mc = tuple(x + c * y for x, y in zip(m, g))
        assert pairing(form, mc, n) == pairing(form, m, n) + c * pairing(form, g, n)


def test_integer_inputs_are_checked():
    assert as_integer(Fraction(4, 2)) == 2 and as_matrix(((0, 2.0), (-2, 0))) == ((0, 2), (-2, 0))
    for bad in (lambda: as_integer(12.5), lambda: as_integer("12"),
                lambda: SkewForm(((0, 1.5), (-1.5, 0)))):
        with pytest.raises(ValueError):  # never truncated
            bad()


def test_booleans_are_not_integers():
    # int(True) == True, yet JSON true is no coordinate, dimension or index
    assert [as_integer(x) for x in (2, 2.0, Fraction(4, 2), np.int64(2))] == [2] * 4
    assert as_vector([2, 2.0, Fraction(4, 2), np.int32(-2)]) == (2, 2, 2, -2)
    for bad in (True, False, np.True_, np.False_):
        with pytest.raises(ValueError):
            as_integer(bad)
        with pytest.raises(ValueError):
            as_vector([1, bad])
        with pytest.raises(ValueError):
            SkewForm(((0, bad), (-1, 0)))
    for bad in ("1", 1.5):
        with pytest.raises(ValueError):
            as_vector([bad, 0])


def test_extended_gcd_examples():
    assert extended_gcd(6, 4) == (2, 1, -1)
    assert extended_gcd(5, 0) == (5, 1, 0)
    g, x, y = extended_gcd(3, 7)
    assert g == 1 and 3 * x + 7 * y == 1
    with pytest.raises(ValueError):
        extended_gcd(0, 0)


def test_extended_gcd_random():
    rng = random.Random(5)
    for _ in range(500):
        a, b = rng.randint(-500, 500), rng.randint(-500, 500)
        if a == 0 and b == 0:
            continue
        g, x, y = extended_gcd(a, b)
        assert g == gcd(a, b) > 0
        assert a * x + b * y == g


def test_orbit_rep_examples():
    assert orbit_rep((0, 5)) == ((0, 5), identity(2))
    assert orbit_rep((3, 3)) == ((0, 3), ((1, -1), (0, 1)))
    assert orbit_rep((6, 4)) == ((0, 2), ((2, -3), (1, -1)))
    assert orbit_rep((0, 0)) == ((0, 0), identity(2))
    assert orbit_rep((0, -4)) == ((0, 4), ((-1, 0), (0, -1)))


def test_orbit_rep_certified():
    rng = random.Random(23)
    for _ in range(1000):
        n = (rng.randint(-40, 40), rng.randint(-40, 40))
        rep, theta = orbit_rep(n)
        assert int_det(theta) == 1
        assert is_symplectic(theta, SIGMA2)
        assert mat_vec(theta, n) == rep
        assert rep == (0, gcd(n[0], n[1]))


def test_gcd_invariant_under_random_words():
    rng = random.Random(31)
    for _ in range(300):
        n = (rng.randint(-15, 15), rng.randint(-15, 15))
        image = mat_vec(random_sl2(rng, steps=20), n)
        assert gcd(image[0], image[1]) == gcd(n[0], n[1])
        assert orbit_rep(image)[0] == orbit_rep(n)[0]


def test_different_gcds_never_connected():
    rng = random.Random(37)
    for _ in range(200):
        n1 = (rng.randint(-10, 10), rng.randint(-10, 10))
        n2 = (rng.randint(-10, 10), rng.randint(-10, 10))
        if gcd(*n1) == gcd(*n2):
            continue
        word = random_sl2(rng, steps=20)
        assert mat_vec(word, n1) != n2


def test_theta_j_examples():
    assert theta_j(4, 2, 3) == ((7, 6), (1, 1))
    assert int_det(theta_j(4, 2, 3)) == 1
    for n in (1, 2, 5):
        assert theta_j(10, n, 0) == ((1, 0), (n - 1, 1))
    # Theta_j (x, x) = (m j x + x, n x)
    m, n, j, x = 12, 3, 4, 2
    assert mat_vec(theta_j(m, n, j), (x, x)) == (m * j * x + x, n * x)
    with pytest.raises(ValueError):
        theta_j(5, 2, 1)
    with pytest.raises(ValueError):
        theta_j(4, 0, 1)


def test_theta_j_difference_is_n_independent():
    rng = random.Random(41)
    for _ in range(100):
        n = rng.randint(1, 5)
        m = n * rng.randint(1, 9)
        i, j = rng.randint(-6, 6), rng.randint(-6, 6)
        x = rng.randint(1, 7)
        xi = (x, x)
        a = mat_vec(theta_j(m, n, i), xi)
        b = mat_vec(theta_j(m, n, j), xi)
        assert (a[0] - b[0], a[1] - b[1]) == ((i - j) * m * x, 0)


def _check_normal_form(form: SkewForm):
    nf = symplectic_normal_form(form)
    u = nf.basis_change
    assert abs(int_det(u)) == 1
    blocks = as_matrix(mat_mul(mat_mul(transpose(u), form.matrix), u))
    g = form.genus
    assert len(nf.divisors) == g
    expect = [[0] * 2 * g for _ in range(2 * g)]
    for b, d in enumerate(nf.divisors):
        assert d > 0
        expect[2 * b][2 * b + 1] = d
        expect[2 * b + 1][2 * b] = -d
    assert blocks == tuple(tuple(r) for r in expect)
    for a, b in zip(nf.divisors, nf.divisors[1:]):
        assert b % a == 0
    return nf


def test_normal_form_examples():
    nf = _check_normal_form(SkewForm(((0, 2), (-2, 0))))
    assert nf.divisors == (2,) and nf.basis_change == identity(2)

    two_block = SkewForm(((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 3), (0, 0, -3, 0)))
    nf = _check_normal_form(two_block)
    assert nf.divisors == (1, 3) and nf.basis_change == identity(4)


def test_normal_form_divisor_merge():
    # 2*sigma2 (+) 3*sigma2 has invariants (1, 6): forces the fix-up that
    # makes the pivot divide the trailing block before splitting
    form = SkewForm(((0, 2, 0, 0), (-2, 0, 0, 0), (0, 0, 0, 3), (0, 0, -3, 0)))
    nf = _check_normal_form(form)
    assert nf.divisors == (1, 6)
    form2 = SkewForm(tuple(tuple(
        {(0, 1): 4, (1, 0): -4, (2, 3): 6, (3, 2): -6, (4, 5): 10, (5, 4): -10}.get((i, j), 0)
        for j in range(6)) for i in range(6)))
    nf2 = _check_normal_form(form2)
    assert nf2.divisors == (2, 2, 60)


def test_normal_form_conjugated_block_form():
    rng = random.Random(43)
    d = ((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 3), (0, 0, -3, 0))
    for _ in range(20):
        v = random_unimodular(rng, 4)
        sigma = mat_mul(mat_mul(transpose(v), d), v)
        nf = _check_normal_form(SkewForm(sigma))
        assert nf.divisors == (1, 3)


def _random_forms(rng: random.Random, count: int):
    """Skew forms up to genus 3, every other one B^T J B with rank B < 2g
    (J the standard form), so about half of them are degenerate."""
    for k in range(count):
        g = rng.randint(1, 3)
        n = 2 * g
        if k % 2:
            rank = rng.randint(0, n - 1)
            b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rank)]
            b += [[0] * n for _ in range(n - rank)]
            rng.shuffle(b)
            yield SkewForm(mat_mul(mat_mul(transpose(b), standard_form(g).matrix), b))
        else:
            r = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            yield SkewForm(tuple(tuple(r[i][j] - r[j][i] for j in range(n)) for i in range(n)))


# sha256 of repr([(divisors, basis_change), ...]) over the non-degenerate forms
# of _random_forms(random.Random(47), 200): U is one of many valid bases, and
# this pins the one the pivot order gives
NORMAL_FORMS_SHA256 = "daaa6507169b65f99b33d93ca3a051873f886a8b38eb7a5565f93c03643e82c1"


def test_normal_form_random_forms():
    # the reduction itself decides degeneracy: it raises exactly when det = 0
    found, degenerate = [], 0
    for form in _random_forms(random.Random(47), 200):
        if int_det(form.matrix) == 0:
            degenerate += 1
            with pytest.raises(ValueError, match="degenerate form"):
                symplectic_normal_form(form)
            continue
        nf = _check_normal_form(form)
        found.append((nf.divisors, nf.basis_change))
    assert 80 <= degenerate <= 120
    assert hashlib.sha256(repr(found).encode()).hexdigest() == NORMAL_FORMS_SHA256


def test_normal_form_degenerate_rejected():
    b = ((1, 2, 0, -1), (0, 1, 3, 2), (0, 0, 0, 0), (0, 0, 0, 0))
    forms = (
        SkewForm(((0, 0), (0, 0))),
        SkewForm(((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0))),
        SkewForm(mat_mul(mat_mul(transpose(b), standard_form(2).matrix), b)),  # rank 2
    )
    for form in forms:
        assert int_det(form.matrix) == 0
        with pytest.raises(ValueError, match="degenerate form"):
            symplectic_normal_form(form)
