"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines; the whole suite stays well under a minute.
"""

import json
import math
import random
import time
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

import nctorus as nt
from nctorus.lattice import as_matrix
from nctorus.scalars import PhaseScalar
from nctorus.states import eval_generator
from conftest import random_element, random_scalar, random_sl2
from paper_oracles import (build_H_prime, cocycle, det_P, int_det, is_symplectic, mat_mul, mat_vec,
                           relabel, transpose)

CTX = nt.PhaseContext()


def ok(n: int, text: str):
    print(f"ACCEPTANCE {n:02d} PASS: {text}")


def test_criterion_01_cocycle_and_weyl_laws():
    rng = random.Random(1001)
    for _ in range(1000):
        m, n, g = ((rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(3))
        assert cocycle(CTX.sigma, m, n, g)
    for _ in range(500):
        a = random_element(rng, max_terms=5)
        b = random_element(rng, max_terms=5)
        c = random_element(rng, max_terms=5)
        left = nt.multiply(nt.multiply(a, b, CTX), c, CTX)
        right = nt.multiply(a, nt.multiply(b, c, CTX), CTX)
        assert left == right
        assert nt.adjoint(nt.multiply(a, b, CTX)) == nt.multiply(
            nt.adjoint(b), nt.adjoint(a), CTX)
    ok(1, "2-cocycle identity on 1000 triples; associativity and (ab)* = b*a* "
          "exactly on 500 random pairs/triples")


def test_criterion_02_automorphism_iff_symplectic():
    rng = random.Random(1002)
    flip = ((1, 0), (0, -1))
    counterexamples = 0
    for _ in range(50):
        theta = random_sl2(rng)
        if rng.random() < 0.5:
            theta = mat_mul(theta, flip)
        assert abs(int_det(theta)) == 1
        pairs = [(random_element(rng, max_terms=3), random_element(rng, max_terms=3))
                 for _ in range(20)]
        multiplicative = all(
            relabel(theta, nt.multiply(a, b, CTX))
            == nt.multiply(relabel(theta, a), relabel(theta, b), CTX)
            for a, b in pairs
        )
        if multiplicative != is_symplectic(theta, CTX.sigma):
            counterexamples += 1
    assert counterexamples == 0
    ok(2, "W_m -> W_(Theta m) multiplicative on 20 random pairs iff Theta symplectic, "
          "over 50 unimodular matrices, zero counterexamples")


def test_criterion_03_orbit_theory():
    rng = random.Random(1003)
    for _ in range(1000):
        n = (rng.randint(-50, 50), rng.randint(-50, 50))
        rep, theta = nt.orbit_rep(n)
        assert rep == (0, gcd(n[0], n[1]))
        assert int_det(theta) == 1
        assert mat_vec(theta, n) == rep
    for _ in range(300):
        n = (rng.randint(-12, 12), rng.randint(-12, 12))
        word = random_sl2(rng, steps=20)
        image = mat_vec(word, n)
        assert gcd(image[0], image[1]) == gcd(n[0], n[1])
        m = (rng.randint(-12, 12), rng.randint(-12, 12))
        if gcd(*m) != gcd(*n):
            assert image != m
    ok(3, "orbit_rep returns (0, gcd) with certified SL(2,Z) witness on 1000 "
          "vectors; 20-step random words never connect different gcds")


def test_criterion_04_normal_form():
    rng = random.Random(1004)
    done = 0
    while done < 50:
        g = rng.randint(1, 3)
        size = 2 * g
        r = [[rng.randint(-6, 6) for _ in range(size)] for _ in range(size)]
        skew = tuple(tuple(r[i][j] - r[j][i] for j in range(size)) for i in range(size))
        form = nt.SkewForm(skew)
        if int_det(form.matrix) == 0:
            with pytest.raises(ValueError, match="degenerate form"):
                nt.symplectic_normal_form(form)
            continue
        nf = nt.symplectic_normal_form(form)
        u = nf.basis_change
        assert abs(int_det(u)) == 1
        blocks = as_matrix(mat_mul(mat_mul(transpose(u), form.matrix), u))
        expect = [[0] * size for _ in range(size)]
        for b, dv in enumerate(nf.divisors):
            assert dv > 0
            expect[2 * b][2 * b + 1] = dv
            expect[2 * b + 1][2 * b] = -dv
        assert blocks == tuple(tuple(row) for row in expect)
        for x, y in zip(nf.divisors, nf.divisors[1:]):
            assert y % x == 0
        done += 1
    ok(4, "U^T Sigma U = (+) delta_i sigma2 with |det U| = 1 and divisor chain, "
          "on 50 random non-degenerate forms up to genus 3; degenerate ones raise")


def test_criterion_05_gram_oracle():
    rng = random.Random(1005)
    for _ in range(200):
        state = nt.StateCandidate({j: Fraction(rng.randint(-8, 8), 8) for j in (1, 2, 3)})
        gens = []
        while len(gens) < rng.randint(2, 6):
            g = (rng.randint(-4, 4), rng.randint(-4, 4))
            if g not in gens:
                gens.append(g)
        coeffs = [random_scalar(rng) for _ in gens]
        a = None
        for g, c in zip(gens, coeffs):
            term = nt.weyl(g) * c
            a = term if a is None else a + term
        a_star_a = nt.multiply(nt.adjoint(a), a, CTX)

        direct = nt.evaluate(state, a_star_a, CTX)
        h = nt.gram(state, gens, CTX)
        vec = [nt.numeric_eval(c, CTX) for c in coeffs]
        assert abs(direct - nt.numeric_eval(nt.quadratic_form(h, vec), CTX).real) < 1e-10

        total = PhaseScalar.zero()
        for i in range(len(gens)):
            for j in range(len(gens)):
                total = total + coeffs[i].conjugate() * h.entry(i, j) * coeffs[j]
        diff = total - nt.evaluate_exact(state, a_star_a)
        assert diff.is_zero
    ok(5, "|omega(a*a) - conj(alpha)^T H alpha| < 1e-10 on 200 random pairs; "
          "exactly zero in exact mode")


def test_criterion_06_cancellation():
    rng = random.Random(1006)
    for d in range(1, 13):
        q = {j * 17: Fraction(rng.randint(-16, 16), 16) for j in range(1, d)}
        mats = [build_H_prime(Fraction(1, 2), q, d, l, 17)
                for l in range(1, d + 1)]
        avg = nt.average_R(mats)
        for j in range(1, d + 1):
            for i in range(1, d + 1):
                if i != j:
                    assert avg.entry(j, i).is_zero
    ok(6, "average of the idealized family has exactly-zero q entries for all "
          "d <= 12 in exact mode")


def test_criterion_07_determinant_law():
    for p in (Fraction(0), Fraction(1, 4), Fraction(-1, 4), Fraction(1, 2),
              Fraction(-1, 2), Fraction(1), Fraction(-1)):
        for d in range(1, 11):
            pd = build_H_prime(p, {}, d, 1, 1)
            det = nt.determinant_exact(pd)
            assert det.im == 0
            assert det.re == det_P(p, d) == 1 - d * p * p
    assert det_P(Fraction(1, 2), 4) == 0
    assert det_P(1, 2) == -1
    ok(7, "exact determinant of built P_d equals 1 - d p^2 for d <= 10, "
          "p in {0, +-1/4, +-1/2, +-1}")


def test_criterion_08_diophantine_step():
    for d in range(2, 7):
        for xi2 in (1, 2):
            for eps in (Fraction(1, 2), Fraction(1, 10)):
                start = time.monotonic()
                n = nt.diophantine_N(CTX, xi2, d, eps)
                elapsed = time.monotonic() - start
                assert elapsed < 10.0
                assert n % math.factorial(d) == 0
                from nctorus.certificate import satisfies_diophantine

                assert satisfies_diophantine(CTX.h, n, xi2, d, eps)
    ok(8, "N satisfies the approximation inequality with d! | N for d in 2..6, "
          "xi2 in {1,2}, eps in {0.5, 0.1}, each found in < 10 s")


def test_criterion_09_perturbation_and_budget():
    from nctorus.certificate import CertParams, satisfies_diophantine  # noqa: F401

    for d in (2, 3, 4, 5):
        eps = Fraction(1, 10)
        n_val = nt.diophantine_N(CTX, 1, d, eps)
        q_orbits = {j * n_val: Fraction(1, 2 * j + 1) for j in range(1, d)}
        state = nt.StateCandidate({1: Fraction(1, 2), **q_orbits})
        params = CertParams(xi=(1, 1), d=d, N=n_val, epsilon=eps)
        q_map = {j * n_val: eval_generator(state, (j * n_val, 0)) for j in range(1, d)}
        for l in range(1, d + 1):
            second = nt.build_H_second(state, params, l, CTX).to_numpy(CTX)
            prime = build_H_prime(Fraction(1, 2), q_map, d, l, n_val).to_numpy()
            assert np.max(np.abs(second - prime)) < float(eps)
        if d <= 4:
            mats = [nt.build_H_second(state, params, l, CTX) for l in range(1, d + 1)]
            det_avg = np.linalg.det(nt.average_R(mats).to_numpy(CTX)).real
            bound = float(eps) * 2 * d * (d - 1) * math.factorial(d)
            assert abs(det_avg - float(det_P(Fraction(1, 2), d))) <= bound
    ok(9, "max-norm ||H''_l - H'_l|| < eps on all sampled parameters; "
          "|det(avg H'') - (1 - d p^2)| within the 2 d (d-1) d! eps budget for d <= 4")


def test_criterion_10_refutation_end_to_end():
    for p in (0.9, 0.5, 0.2):
        for j in (1, 2):
            state = nt.StateCandidate({j: p})
            cert = nt.refute(state, CTX)
            assert isinstance(cert, nt.Certificate)
            assert cert.value < 0 and cert.avg_value < 0
            report = nt.verify(state, cert, CTX)
            assert report.accepted, report.to_json()

            element = nt.AlgebraElement(2)
            for w, g in zip(cert.witness, cert.generators):
                element = element + nt.weyl(g) * PhaseScalar.gaussian(w.re, w.im)
            direct = nt.evaluate(state, nt.multiply(nt.adjoint(element), element, CTX), CTX)
            assert direct.real < -1e-6
            assert abs(direct.real - cert.value) < 1e-9

    assert isinstance(nt.refute(nt.StateCandidate({}), CTX), nt.ConsistentWithTrace)
    rng = random.Random(1010)
    tau = nt.StateCandidate({})
    for _ in range(100):
        gens = set()
        while len(gens) < rng.randint(2, 6):
            gens.add((rng.randint(-6, 6), rng.randint(-6, 6)))
        h = nt.gram(tau, sorted(gens), CTX)
        eigmin = float(np.linalg.eigvalsh(h.to_numpy(CTX))[0])
        assert eigmin >= -1e-12
    ok(10, "refute emits accepted certificates for p in {0.9, 0.5, 0.2} on orbits "
           "{1, 2} with algebra-only omega(a*a) < -1e-6 matching to 1e-9; trace "
           "is consistent and its Gram matrices are PSD")


def test_criterion_11_cli(capsys, tmp_path):
    from nctorus.cli import main
    from nctorus.parser import format_element, parse_element

    rng = random.Random(1011)
    for _ in range(100):
        element = random_element(rng)
        printed = format_element(element)
        reparsed = parse_element(printed, CTX)
        assert reparsed == element
        assert format_element(reparsed) == printed

    state = '{"orbit_values":{"1":0.5}}'
    cert_path = tmp_path / "cert.json"
    assert main(["refute", "--state", state, "-o", str(cert_path)]) == 0
    assert main(["verify", "--state", state, "--cert", str(cert_path)]) == 0

    blob = json.loads(cert_path.read_text())
    blob["N"] += 1
    bad = tmp_path / "bad_n.json"
    bad.write_text(json.dumps(blob))
    assert main(["verify", "--state", state, "--cert", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "REJECT: divisibility" in out

    blob = json.loads(cert_path.read_text())
    blob["witness"] = [[0.0, 0.0] for _ in blob["witness"]]
    bad2 = tmp_path / "bad_w.json"
    bad2.write_text(json.dumps(blob))
    assert main(["verify", "--state", state, "--cert", str(bad2)]) == 1
    out = capsys.readouterr().out
    assert "REJECT: negativity" in out
    ok(11, "parse/print idempotent on 100 expressions; refute -> verify exits 0; "
           "tampered certificates rejected with the correct clause named")
