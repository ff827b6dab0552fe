"""verify against the benchmark's independent checker, on drawn states.

Hypothesis draws a candidate, refute() certifies it, and verify() must
accept the certificate and decide it and three tampers of it (N + 1 and
N + d!, each with the l* family of its own N where l* divides it, and one
witness entry moved) exactly as perfbench/reference.py does, with its own
Machin pi and its own pair sum.

The draws cover x in {1, 2, 3}, small rational h, and:
- single-orbit states {x: p} at any d up to 449.  Their Gram matrices hold
  no phase, so only the Diophantine clause and the witness are at stake;
- multi-orbit states, {x: p} plus values on 0-100 % of the orbits k N x,
  k = 1..d-1, at d <= 120, where bits(N) reaches about 700 and the zeta
  exponents about 2^720: every phase is read from its exact residue
  (circle.zeta_residue), whatever the exponent's size.

p is drawn as 1/sqrt(d - 1 + v), v in [0.1, 0.75], rounded to 1e-6, so
d p^2 - 1 >= 1/(4d).  That keeps the window eps/(4 d^2) above 2^-42
radians, inside what reference.approximation_holds can read at its
bits(h N xi2^2) + 64 bits.  A drawn case that hits a known defect is not
filtered out: it becomes an explicit strict-xfail example.
"""

import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from nctorus.algebra import PhaseContext
from nctorus.certificate import Certificate, choose_parameters, family_generators, refute, verify
from nctorus.states import StateCandidate
from paper_oracles import perfbench_reference

BUDGET = 10**30

hs = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 4))
xs = st.sampled_from((1, 2, 3))


def _p(d: int, v: int, sign: int) -> Fraction:
    """p with d = choose_parameters(p)[0] and d p^2 - 1 >= 1/(4d); v in percent."""
    p = sign * Fraction(round(10**6 / math.sqrt(d - 1 + v / 100)), 10**6)
    assert choose_parameters(p)[0] == d
    return p


def _moved(cert: Certificate, n: int) -> dict:
    """The certificate with N = n and, where l* divides n, the l* family of that N,
    so that on a single orbit only the approximation and divisibility clauses can
    reject it."""
    shifted = replace(cert.params, N=n)
    gens = family_generators(shifted, cert.l_star) if n % cert.l_star == 0 else cert.generators
    return {**cert.to_json(), "N": n, "generators": [list(g) for g in gens]}


def _tampers(cert: Certificate) -> list[dict]:
    """N + 1 (at d = 1 also an N + d!), N + d!, and one witness entry moved."""
    obj = cert.to_json()
    witness = [list(w) for w in obj["witness"]]
    witness[1][1] += 0.5
    return [_moved(cert, cert.params.N + 1),
            _moved(cert, cert.params.N + math.factorial(cert.params.d)),
            {**obj, "witness": witness}]


def assert_agrees(values: dict, h: Fraction) -> Certificate:
    """refute's certificate is accepted, and verify decides it and its
    tampers as the reference does."""
    ctx = PhaseContext(h=h)
    state = StateCandidate(values)
    cert = refute(state, ctx, budget=BUDGET)
    assert verify(state, cert, ctx).accepted
    for obj in [cert.to_json(), *_tampers(cert)]:
        text = json.dumps(obj)
        mine = verify(state, Certificate.loads(text), ctx).accepted
        theirs, _, why = perfbench_reference().check_certificate(text, values, h)
        assert mine == theirs, (obj["d"], obj["N"], why)
    return cert


@settings(max_examples=50, deadline=None)
@given(d=st.integers(1, 449), v=st.integers(10, 75), sign=st.sampled_from((1, -1)), x=xs, h=hs)
@example(d=1, v=10, sign=1, x=1, h=Fraction(1, 4))  # {1: 1581139/500000}: N = 23 and N + 1 both hit
def test_single_orbit_verdicts_match_reference(d, v, sign, x, h):
    assert_agrees({x: _p(d, v, sign)}, h)


@settings(max_examples=50, deadline=None)
@given(d=st.integers(2, 120), v=st.integers(10, 75), sign=st.sampled_from((1, -1)), x=xs, h=hs,
       share=st.integers(0, 100), data=st.data())
def test_multi_orbit_verdicts_match_reference(d, v, sign, x, h, share, data):
    p = _p(d, v, sign)
    n_val = refute(StateCandidate({x: p}), PhaseContext(h=h), budget=BUDGET).params.N
    values = {x: p}
    for k in range(1, d):
        if data.draw(st.integers(1, 100)) <= share:
            values[k * n_val * x] = data.draw(st.builds(Fraction, st.integers(-9, 9).filter(bool),
                                                        st.integers(1, 9)))
    assert_agrees(values, h)


def test_certificate_loads_no_reference_module(tmp_path):
    # the reference stays independent: the proof path imports nothing from perfbench
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = ("import sys, nctorus.certificate; "
            "print(sorted(m for m in sys.modules if 'perfbench' in m or 'reference' in m))")
    out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert out.strip() == "[]"
