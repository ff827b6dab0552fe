"""Tests of the benchmark itself.

Run from the repository root:  python3 -m unittest perfbench/test_perfbench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import unittest
from fractions import Fraction
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import nctorus as nc  # noqa: E402
import layertrace  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _certificate(values):
    return nc.refute(nc.StateCandidate(values), nc.PhaseContext()).dumps()


class ReferenceTest(unittest.TestCase):
    def test_machin_pi(self):
        self.assertAlmostEqual(reference.pi_scaled(80) / 2**80, math.pi, places=15)
        self.assertLessEqual(abs((reference.pi_scaled(300) >> 220) - reference.pi_scaled(80)), 1)

    def test_accepts_a_library_certificate(self):
        values = {2: Fraction(1, 2)}
        valid, ref, why = reference.check_certificate(_certificate(values), values)
        self.assertTrue(valid, why)
        self.assertLess(ref, 0)

    def test_flags_a_tampered_value(self):
        values = {1: Fraction(3, 10)}
        obj = json.loads(_certificate(values))
        obj["value"] += 0.25
        valid, _, why = reference.check_certificate(json.dumps(obj), values)
        self.assertFalse(valid)
        self.assertIn("certified value", why)

    def test_flags_tampered_parameters(self):
        values = {1: Fraction(1, 2)}
        for name, text in workloads._tampered(_certificate(values)):
            with self.subTest(name):
                self.assertFalse(reference.check_certificate(text, values)[0])

    def test_p_matrix_closed_forms(self):
        self.assertEqual(reference.det_p_matrix(Fraction(1, 5), 25), 0)
        self.assertTrue(reference.p_matrix_is_psd(Fraction(1, 5), 25))
        self.assertFalse(reference.p_matrix_is_psd(Fraction(1, 4), 17))


class CorpusTest(unittest.TestCase):
    def test_same_seed_same_corpus(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload):
                self.assertEqual(workloads.build(workload, 7, nc), workloads.build(workload, 7, nc))
                self.assertNotEqual(workloads.build(workload, 7, nc),
                                    workloads.build(workload, 8, nc))

    def test_candidates_hit_their_dimension(self):
        for cand in workloads.build("single-orbit", 3, nc).candidates:
            if cand.d:
                (p,) = cand.values.values()
                self.assertEqual(nc.choose_parameters(p)[0], cand.d)


class TracerTest(unittest.TestCase):
    def test_wrappers_are_removed_and_bytes_unchanged(self):
        state, ctx = nc.StateCandidate({3: Fraction(3, 10)}), nc.PhaseContext()
        plain = nc.refute(state, ctx).dumps()
        originals = {name: getattr(nc.certificate, name) for name in ("gram", "refute", "as_vector")}
        tracer = layertrace.Tracer()
        tracer.install(nc)
        try:
            self.assertIsNot(nc.certificate.gram, originals["gram"])
            traced = nc.refute(state, ctx).dumps()
        finally:
            tracer.remove()
        self.assertEqual(traced, plain)
        for name, fn in originals.items():
            self.assertIs(getattr(nc.certificate, name), fn)
        metrics = tracer.metrics()
        self.assertEqual(metrics["certificate.refute.calls"], 1)
        self.assertGreater(metrics["states.gram.entries"], 0)
        self.assertLessEqual(metrics["states.gram.self_s"], metrics["states.gram.s"])


class CommandTest(unittest.TestCase):
    def setUp(self):
        self._cwd = os.getcwd()
        os.chdir(ROOT)

    def tearDown(self):
        os.chdir(self._cwd)

    def test_prints_every_metric_with_its_unit(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "algebra",
                               "--seconds", "1", "--trace", "0"],
                              capture_output=True, text=True, timeout=170, check=True)
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        self.assertTrue(result["correct"])
        for metric in spec["end_to_end"]:
            self.assertEqual(result["metrics"][metric["name"]]["unit"], metric["unit"])
            self.assertTrue(any(line.startswith(f"{metric['name']} ") and
                                f" {metric['unit']}" in line for line in lines))

    def test_a_wrong_result_makes_the_run_fail(self):
        out = io.StringIO()
        with mock.patch.object(nc, "determinant_exact", lambda H: nc.GaussRat(42)), \
                contextlib.redirect_stdout(out):
            status = run.main(["--workload", "algebra", "--seconds", "1"])
        result = json.loads(out.getvalue().splitlines()[-1])
        self.assertEqual(status, 1)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_refuses_a_directory_without_the_package(self):
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "algebra"],
                              cwd=HERE, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
