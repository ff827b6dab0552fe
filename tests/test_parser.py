import hashlib
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import nctorus
from nctorus import AlgebraElement, PhaseContext, parser
from nctorus.algebra import adjoint, multiply, weyl
from nctorus.parser import MAX_DEPTH, ParseError, format_element, parse_element, to_element
from nctorus.scalars import PhaseScalar
from conftest import random_element
from paper_oracles import format_by_terms, multiply_reduced_once, parse_by_products, scalar_element


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
    for text, offset in [("1/0", 2), ("1+2/0i", 4)]:
        with pytest.raises(ParseError) as info:
            parse_element(text, ctx)
        assert (str(info.value), info.value.offset) == (
            f"zero denominator (at offset {offset})", offset)
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


def test_non_ascii_digits_are_unexpected_characters(ctx):
    # DIGITS are ASCII: a superscript or an Arabic-Indic digit is named with its offset
    for text, char, offset in [("W[\u00b2,1]", "\u00b2", 2), ("2\u00b2 * W[1,0]", "\u00b2", 1),
                               ("W[\u0663,1]", "\u0663", 2)]:
        with pytest.raises(ParseError) as info:
            parse_element(text, ctx)
        assert (str(info.value), info.value.offset) == (
            f"unexpected character {char!r} (at offset {offset})", offset)


def test_long_digit_runs_are_parse_errors(ctx):
    # int() refuses a digit run longer than sys.get_int_max_str_digits() (4300 by
    # default); the parser names that run's offset like any other syntax error
    for text, offset in [("9" * 5000 + " * W[1,0]", 0), ("1/" + "9" * 5000, 2),
                         ("W[" + "1" * 5000 + ",0]", 2)]:
        with pytest.raises(ParseError) as info:
            parse_element(text, ctx)
        assert (str(info.value), info.value.offset) == (
            f"integer of 5000 digits is too long (at offset {offset})", offset)


def test_nesting_depth_is_bounded(ctx):
    # each level of parentheses is a few Python frames: past MAX_DEPTH the
    # offending '(' is a ParseError, not a RecursionError
    for depth in (100, MAX_DEPTH):
        text = "(" * depth + "W[1,0] * W[0,1]^*" + ")" * depth
        assert parse_element(text, ctx) == parse_element("W[1,0] * W[0,1]^*", ctx)
    for text, offset in [("(" * (MAX_DEPTH + 1) + "1" + ")" * (MAX_DEPTH + 1), MAX_DEPTH),
                         ("( " * 300 + "1" + " )" * 300, 2 * MAX_DEPTH)]:
        with pytest.raises(ParseError) as info:
            parse_element(text, ctx)
        assert (str(info.value), info.value.offset) == (
            f"parentheses nested deeper than {MAX_DEPTH} (at offset {offset})", offset)
        assert _outcome(parse_by_products, text, ctx) == _outcome(parse_element, text, ctx)


@pytest.fixture
def corpus_texts(monkeypatch):
    """Every expression of the seed 1-3 algebra corpora of the benchmark
    (perfbench/workloads.py): each triple's three texts, then the CLI evals."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads
    texts = []
    for seed in (1, 2, 3):
        corpus = workloads.build("algebra", seed, nctorus)
        texts += [t for triple in corpus.triples for t in triple]
        texts += [expr for _, expr, _ in corpus.evals]
    return texts


def test_printer_matches_terms_oracle(ctx, corpus_texts):
    rng = random.Random(107)
    elements = [random_element(rng) for _ in range(100)]
    elements += [multiply(random_element(rng, max_terms=3), random_element(rng, max_terms=3), ctx)
                 for _ in range(30)]
    elements += [weyl((1, 2)), weyl((0, 0)), AlgebraElement(2, {}),
                 weyl((2, -1)) * PhaseScalar.gaussian(Fraction(-1, 2), -3) * PhaseScalar.zeta(-2)
                 + weyl((2, -1)) * PhaseScalar.gaussian(5, Fraction(7, 3)) * PhaseScalar.zeta(3)]
    elements += [parse_element(t, ctx) for t in corpus_texts]
    printed = [format_element(a) for a in elements]
    assert printed == [format_by_terms(a) for a in elements]
    atoms = [atom for text in printed for atom in text.split(" + ")]
    # int and Fraction parts, several zeta degrees, negative imaginary parts, bare atoms
    for part in ("/", "z^-2", "z^1", "z^3", "-3i", "-1/2i"):
        assert any(part in atom for atom in atoms), part
    assert any(atom.startswith("W[") for atom in atoms)
    third = weyl((0, 1)) + AlgebraElement(2, {(1, 0): PhaseScalar.root_of_unity(Fraction(1, 3))})
    for printer in (format_element, format_by_terms):
        with pytest.raises(ValueError) as info:
            printer(third)
        assert str(info.value) == "coefficient 1*e(1/3) is not expressible in the element grammar"


def test_corpus_parses_are_pinned(ctx, corpus_texts):
    """sha256 of the stored terms, repr and printed text of every corpus
    element and of the element its printed text parses to, computed with the
    per-token parser and terms() printer that the current ones replace."""
    def record(a):
        return (sorted((m, sorted(c._terms.items())) for m, c in a._terms.items()), repr(a),
                format_element(a))

    out = []
    for text in corpus_texts:
        a = parse_element(text, ctx)
        out.append((record(a), record(parse_element(format_element(a), ctx))))
    assert len(out) == 552
    assert hashlib.sha256(repr(out).encode()).hexdigest() == (
        "9bbd1c83582243b6109a52b55b101d9f364f4563ec2deca9dc0aad110990bb7e")


def test_literal_atoms_are_placed_without_products(ctx, monkeypatch):
    calls = []

    def counting(a, b, c):
        calls.append((a, b))
        return multiply(a, b, c)

    monkeypatch.setattr(parser, "multiply", counting)
    for text in ["1/2+1i z^3 * W[1,2] + (2 * W[0,1])^* - W[1,1]", "W[0,1] * 2i * 1/2z^1"]:
        assert parse_element(text, ctx) == parse_by_products(text, ctx)
    assert calls == []
    got = parse_element("W[1,0] * W[0,1]", ctx)
    assert len(calls) == 1
    assert got == parse_by_products("W[1,0] * W[0,1]", ctx)


# well-formed texts of the element grammar, built as token lists; the edits of
# test_parser_errors_match_product_oracle turn them into malformed ones
_int = st.builds(lambda neg, n: ["-", str(n)] if neg else [str(n)], st.booleans(),
                 st.integers(0, 12))
_rational = st.builds(lambda n, den: n + (["/", str(den)] if den is not None else []),
                      _int, st.none() | st.integers(1, 4))
_scalar = st.builds(
    lambda re, im, z: re + im + z, _rational,
    st.just([]) | st.just(["i"]) | st.builds(lambda s, r: [s] + r + ["i"], st.sampled_from("+-"),
                                             _rational),
    st.just([]) | _int.map(lambda k: ["z", "^"] + k))
_weyl = st.builds(lambda a, b: ["W", "["] + a + [","] + b + ["]"], _int, _int)


def _joined(parts, ops):
    return parts[0] + [t for op, part in zip(ops, parts[1:]) for t in [op] + part]


def _extend(expr):
    primary = _scalar | _weyl | expr.map(lambda t: ["("] + t + [")"])
    factor = st.builds(lambda p, k: p + ["^", "*"] * k, primary, st.integers(0, 2))
    term = st.lists(factor, min_size=1, max_size=3).map(lambda fs: _joined(fs, "*" * len(fs)))
    return st.builds(_joined, st.lists(term, min_size=1, max_size=3),
                     st.lists(st.sampled_from("+-"), min_size=2, max_size=2))


_tokens = st.recursive(_scalar | _weyl, _extend, max_leaves=8)


@st.composite
def grammar_texts(draw):
    tokens = draw(_tokens)
    spaces = draw(st.lists(st.sampled_from(["", "", " ", "  ", "\t", "\n"]),
                           min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    return "".join(s + t for s, t in zip(spaces, tokens + [""]))


def _outcome(parse, text, ctx):
    try:
        a = parse(text, ctx)
    except ParseError as exc:
        return "error", str(exc), exc.offset
    return "element", {m: c._terms for m, c in a._terms.items()}, format_element(a), repr(a)


@settings(max_examples=200, deadline=None)
@given(grammar_texts())
def test_parser_matches_product_oracle(text):
    ctx = PhaseContext()
    assert _outcome(parse_element, text, ctx) == _outcome(parse_by_products, text, ctx)


@settings(max_examples=200, deadline=None)
@given(grammar_texts(), st.sampled_from(["insert", "delete", "replace"]), st.integers(0, 10**6),
       st.sampled_from(sorted("+-*/()[],^Wzi0123456789 $")))
def test_parser_errors_match_product_oracle(text, edit, where, char):
    i = where % (len(text) + 1)
    if edit == "insert":
        text = text[:i] + char + text[i:]
    else:
        i = min(i, len(text) - 1)
        text = text[:i] + (char if edit == "replace" else "") + text[i + 1:]
    ctx = PhaseContext()
    assert _outcome(parse_element, text, ctx) == _outcome(parse_by_products, text, ctx)


def _stored(a):
    """The stored terms, after checking that no coefficient, and no scalar
    term inside one, is zero."""
    assert all(c and all(c._terms.values()) for c in a._terms.values()), a._terms
    return {m: c._terms for m, c in a._terms.items()}


def test_cancelled_product_point_is_not_stored(ctx):
    # W[1,0] W[0,1] = z W[1,1] and W[0,1] W[1,0] = z^-1 W[1,1]: the (1,1) terms cancel
    text = "(W[1,0] + W[0,1]) * (W[0,1] - 1z^2 * W[1,0])"
    got = parse_element(text, ctx)
    assert got.support() == ((0, 2), (2, 0))
    assert _stored(got) == _stored(parse_by_products(text, ctx))


@settings(max_examples=150, deadline=None)
@given(grammar_texts(), grammar_texts(), st.sampled_from(["0", "0z^3", "0+0i", "-0/2i z^-1"]))
def test_results_store_no_zero(left, right, zero):
    # AlgebraElement._of keeps what it is given, so every caller that can
    # cancel drops its zeros itself; the oracles build through the public
    # constructor, which drops them
    ctx = PhaseContext()
    a, b = parse_element(left, ctx), parse_element(right, ctx)
    s = b.coefficient((0, 0)) or PhaseScalar.gaussian(1, -2)
    cases = [(a + b, f"({left}) + ({right})"), (a - b, f"({left}) - ({right})"),
             (a - a, f"({left}) - ({left})"), (adjoint(a), f"({left})^*"),
             (a * 0, f"({left}) * 0"), (a * PhaseScalar.zero(), f"0 * ({left})")]
    for got, text in cases:
        assert _stored(got) == _stored(parse_by_products(text, ctx)), text
    assert _stored(a * s) == _stored(multiply_reduced_once(a, scalar_element(s), ctx))
    for x, y in ((a, b), (a, adjoint(a))):
        assert _stored(multiply(x, y, ctx)) == _stored(multiply_reduced_once(x, y, ctx))
    for text in (zero, f"{zero} * ({left})", f"({left}) * {zero} + W[1,1]",
                 f"{zero} * W[1,0] - ({right})", f"({left}) + {zero}"):
        got = parse_element(text, ctx)
        assert _stored(got) == _stored(parse_by_products(text, ctx)), text
