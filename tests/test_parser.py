import random
from fractions import Fraction

import pytest

from nctorus.algebra import multiply, weyl
from nctorus.parser import ParseError, format_element, parse_element, to_element
from nctorus.scalars import PhaseScalar
from conftest import random_element


def test_product_example(ctx):
    got = parse_element("W[1,0]*W[0,1]", ctx)
    assert got == weyl((1, 1)) * PhaseScalar.zeta(1)
    assert to_element(got, ctx) is got  # the identity on elements


def test_adjoint_example(ctx):
    assert parse_element("(W[1,2])^*", ctx) == weyl((-1, -2))
    assert parse_element("W[1,2]^*", ctx) == weyl((-1, -2))
    assert parse_element("W[1,2]^*^*", ctx) == weyl((1, 2))


def test_arity_error(ctx):
    with pytest.raises(ParseError) as info:
        parse_element("W[1]", ctx)
    assert "arity" in str(info.value)


def test_scalar_forms(ctx):
    cases = {
        "2": PhaseScalar.rational(2),
        "-3/4": PhaseScalar.rational(Fraction(-3, 4)),
        "1+2i": PhaseScalar.gaussian(1, 2),
        "1-1/2i": PhaseScalar.gaussian(1, Fraction(-1, 2)),
        "0+1i z^3": PhaseScalar.gaussian(0, 1) * PhaseScalar.zeta(3),
        "2z^-2": PhaseScalar.zeta(-2, 2),
    }
    for text, scalar in cases.items():
        got = parse_element(text, ctx)
        assert got.coefficient((0, 0)) == scalar, text


def test_precedence_and_parens(ctx):
    a = parse_element("W[1,0] + 2 * W[0,1]", ctx)
    assert a == weyl((1, 0)) + weyl((0, 1)) * 2
    b = parse_element("(W[1,0] + W[0,1]) * W[0,0]", ctx)
    assert b == weyl((1, 0)) + weyl((0, 1))
    c = parse_element("W[1,0] - W[1,0]", ctx)
    assert c.is_zero


def test_adjoint_distributes_in_parser(ctx):
    got = parse_element("(W[1,0] + W[0,1])^*", ctx)
    assert got == weyl((-1, 0)) + weyl((0, -1))
    got = parse_element("(2+1i * W[1,0])^*", ctx)
    assert got == weyl((-1, 0)) * PhaseScalar.gaussian(2, -1)
    nested = parse_element("((W[1,1]))", ctx)
    assert nested == weyl((1, 1))


def test_scalar_plus_backtracking(ctx):
    # '+' binds into the scalar only when a trailing 'i' confirms it
    a = parse_element("2 + 3 * W[1,0]", ctx)
    assert a.coefficient((0, 0)) == PhaseScalar.rational(2)
    assert a.coefficient((1, 0)) == PhaseScalar.rational(3)
    b = parse_element("2+3i * W[1,0]", ctx)
    assert b.coefficient((1, 0)) == PhaseScalar.gaussian(2, 3)


def test_syntax_error_offsets(ctx):
    with pytest.raises(ParseError) as info:
        parse_element("W[1,0] + ", ctx)
    assert info.value.offset == 9
    with pytest.raises(ParseError) as info:
        parse_element("W[1,0$", ctx)
    assert info.value.offset == 5
    with pytest.raises(ParseError):
        parse_element("1/0", ctx)
    with pytest.raises(ParseError):
        parse_element("W[1,0] W[0,1]", ctx)  # juxtaposition needs '*'


def test_print_parse_round_trip_known(ctx):
    texts = [
        "W[0,0]",
        "0",
        "2 * W[1,0]",
        "1/2-3/4i z^-1 * W[-1,2] + W[0,0]",
        "-1 * W[2,2]",
    ]
    for text in texts:
        element = parse_element(text, ctx)
        printed = format_element(element)
        again = parse_element(printed, ctx)
        assert again == element
        assert format_element(again) == printed


def test_print_parse_idempotent_random(ctx):
    rng = random.Random(101)
    for _ in range(100):
        element = random_element(rng)
        printed = format_element(element)
        back = parse_element(printed, ctx)
        assert back == element
        assert format_element(back) == printed


def test_product_round_trips_through_printer(ctx):
    rng = random.Random(103)
    for _ in range(30):
        a, b = random_element(rng, max_terms=3), random_element(rng, max_terms=3)
        prod = multiply(a, b, ctx)
        assert parse_element(format_element(prod), ctx) == prod
