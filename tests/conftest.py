import os
import random
from fractions import Fraction

import pytest
from hypothesis import settings, strategies as st

from nctorus import AlgebraElement, PhaseContext
from nctorus.lattice import identity
from nctorus.scalars import PhaseScalar
from paper_oracles import mat_mul

# CI runs with HYPOTHESIS_PROFILE=ci: examples derandomized, and any failure
# printed with the blob that replays it locally (@reproduce_failure)
settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

SL2_GENS = (
    ((1, 1), (0, 1)),
    ((1, 0), (1, 1)),
    ((1, -1), (0, 1)),
    ((1, 0), (-1, 1)),
)


@pytest.fixture
def ctx():
    return PhaseContext()


def random_sl2(rng: random.Random, steps: int = 8):
    m = identity(2)
    for _ in range(steps):
        m = mat_mul(m, rng.choice(SL2_GENS))
    return m


def random_unimodular(rng: random.Random, n: int, ops: int = 12):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(ops):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        for k in range(n):
            m[k][j] += c * m[k][i]
    return tuple(tuple(row) for row in m)


def random_scalar(rng: random.Random) -> PhaseScalar:
    g = PhaseScalar.gaussian(
        Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
        Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
    )
    return g * PhaseScalar.zeta(rng.randint(-2, 2))


def random_element(rng: random.Random, dim: int = 2, max_terms: int = 5,
                   span: int = 6) -> AlgebraElement:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        m = tuple(rng.randint(-span, span) for _ in range(dim))
        c = random_scalar(rng)
        terms[m] = terms[m] + c if m in terms else c
    return AlgebraElement(dim, terms)


# exact scalars with roots outside Q(i) too, given as term lists
# [((zeta degree, root), coefficient), ...], and elements of Z^2 built from them
ROOT_DENOMINATORS = [1, 2, 3, 4, 5, 6, 8, 12]
scalar_terms = st.lists(
    st.tuples(st.tuples(st.integers(-3, 3),
                        st.builds(Fraction, st.integers(0, 11), st.sampled_from(ROOT_DENOMINATORS))),
              st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))),
    min_size=1, max_size=3)
element_terms = st.dictionaries(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), scalar_terms,
                                min_size=1, max_size=3)


def shuffled_element(terms: dict, rnd: random.Random) -> AlgebraElement:
    """The element with support and scalar term lists fed in a random order."""
    support = list(terms.items())
    rnd.shuffle(support)
    return AlgebraElement(2, {m: PhaseScalar(rnd.sample(t, len(t))) for m, t in support})
