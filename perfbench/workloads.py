"""Seeded corpora and one closed-loop pass per workload.

A pass runs every operation of its corpus one after another: each call
starts only after the previous one returned.  Library calls go through
the `nctorus` package namespace, so the tracer's wrappers see them.  Only
library calls are timed; the reference checks and bookkeeping are not.

make_s is the time spent producing results (refute and certificate
serialisation; parsing, building and multiplying elements), check_s the
time spent deciding them (certificate reload and verify; exact equality,
PSD and determinant decisions).  CLI subprocess times are kept apart.

Every timing is scaled by HostSpeed to a reference host.  On shared hosts
the speed of object-heavy Python drifts by a third within minutes, and
process start-up drifts on its own; a yardstick of the same kind of work,
timed just before and after each region, tracks that drift.  Library calls
are scaled by `calibrate` (CAL_REF_S on the reference host), subprocesses
by `calibrate_process` (PROC_REF_S).
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

import reference

WORKLOADS = ("single-orbit", "multi-orbit", "algebra")

# refute is called with an explicit search cap: under the default 10**9,
# about a quarter of the d >= 45 candidates drawn from the p interval stop
# with DiophantineBudgetError.  The exact solver's cost does not depend on it.
BUDGET = 10**30

SINGLE_DIMS = (1, 2, 5, 12, 26, 45, 60)
MULTI_DIMS = (5, 12, 26, 45, 60)
MULTI_D60_ORBITS = 4  # d = 60 is {1: 0.13} u {k*N: 0.9, k = 1..4}
# CLI refute and verify at these d; the CLI has no --budget, and the default
# cap is never reached below d = 12
CLI_SINGLE_DIMS = (1, 5)
CLI_MULTI_DIMS = (5,)
CLI_MULTI_VERIFY_DIMS = (5, 12)  # verify only: more samples for cli_s
CLI_EVALS = 4
TAMPER_MAX_D = 45
ALGEBRA_TRIPLES = 60
ROOT_DIMS = range(2, 25)
P_DIMS = (4, 9, 16, 25)

CLI_MAIN = "import sys; from nctorus.cli import main; sys.exit(main())"

CAL_REF_S = 0.01
CAL_STALE_S = 0.1
PROC_REF_S = 0.2
PROC_STALE_S = 1.0


def calibrate() -> float:
    """Seconds for a fixed nctorus-free workload of Fraction, tuple and dict
    operations, the same kind of work the library does."""
    t0 = perf_counter()
    table, acc = {}, Fraction(0)
    for i in range(1, 1500):
        key = (i % 37, i % 11)
        acc += Fraction(i, i % 13 + 1)
        table[key] = table.get(key, Fraction(0)) + acc
    sorted(table.items())
    return perf_counter() - t0


def calibrate_process() -> float:
    """Seconds to start an interpreter that imports numpy, nctorus-free."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy, fractions, json"], check=True,
                   timeout=120, stdout=subprocess.DEVNULL)
    return perf_counter() - t0


class HostSpeed:
    """Times regions in seconds scaled to a host where the yardstick takes ref_s.

    start() runs the yardstick unless the last run is fresh; stop(t0, *marks)
    runs it again and returns the scaled lengths of the sub-regions
    [t0, mark1), [mark1, mark2), ..., [last mark, now).  factors keeps every
    scale factor applied, so raw seconds can be recovered.
    """

    def __init__(self, yardstick=calibrate, ref_s=CAL_REF_S, stale_s=CAL_STALE_S):
        self._yardstick, self._ref_s, self._stale_s = yardstick, ref_s, stale_s
        self._cal, self._at = yardstick(), perf_counter()
        self.factors = []

    def start(self) -> float:
        if perf_counter() - self._at > self._stale_s:
            self._cal = self._yardstick()
        return perf_counter()

    def stop(self, t0: float, *marks: float) -> list[float]:
        end = perf_counter()
        after = self._yardstick()
        factor = 2 * self._ref_s / (self._cal + after)
        self._cal, self._at = after, perf_counter()
        self.factors.append(factor)
        edges = [t0, *marks, end]
        return [(b - a) * factor for a, b in zip(edges, edges[1:])]


def known_defect(workload: str, d: int) -> str | None:
    """Failures expected on the current code, reported but not fatal."""
    if workload == "multi-orbit" and d == 60:
        return ("zeta exponents past 2^256 lose their phase: circle.hbar_fixed "
                "keeps 256 bits of h/2pi")
    return None


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

def _draw_p(rng: random.Random, d: int) -> Fraction:
    """p = m / 10**6 with d*p^2 > 1 >= (d-1)*p^2, so refute picks this d."""
    lo = 1 / math.sqrt(d)
    hi = 1 / math.sqrt(d - 1) if d > 1 else 2.0
    while True:
        p = Fraction(round((lo + (hi - lo) * rng.random()) * 10**6), 10**6)
        if d * p * p > 1 >= (d - 1) * p * p:
            return p if rng.random() < 0.5 else -p


def _draw_q(rng: random.Random) -> Fraction:
    while True:
        q = Fraction(rng.randint(-999999, 999999), 10**6)
        if q:
            return q


@dataclass
class Candidate:
    label: str
    values: dict  # orbit -> Fraction
    d: int  # 0 for trace candidates
    cli_refute: bool = False
    cli_verify: bool = False
    tamper: bool = False

    def state_json(self) -> str:
        """The state as CLI JSON; values are exact rational strings."""
        return json.dumps({"orbit_values": {str(j): str(p) for j, p in sorted(self.values.items())}})


@dataclass
class PMatrix:
    p: Fraction
    d: int


@dataclass
class Corpus:
    workload: str
    seed: int
    candidates: list = field(default_factory=list)
    triples: list = field(default_factory=list)  # (a, b, c) expression texts
    roots: list = field(default_factory=list)  # (j, d)
    matrices: list = field(default_factory=list)
    evals: list = field(default_factory=list)  # (state values, expression, expected)


def build(workload: str, seed: int, nc) -> Corpus:
    rng = random.Random(f"{workload}:{seed}")
    corpus = Corpus(workload, seed)
    if workload == "single-orbit":
        for d in SINGLE_DIMS:
            x = rng.choice((1, 2, 3))
            cli = d in CLI_SINGLE_DIMS
            corpus.candidates.append(Candidate(f"d={d} x={x}", {x: _draw_p(rng, d)}, d,
                                               cli_refute=cli, cli_verify=cli))
        corpus.candidates.append(Candidate("trace {}", {}, 0))
        corpus.candidates.append(Candidate("trace zeros", {1: Fraction(0), 2: Fraction(0)}, 0))
    elif workload == "multi-orbit":
        ctx = nc.PhaseContext()
        for d in MULTI_DIMS:
            x, p = rng.choice((1, 2, 3)), _draw_p(rng, d)
            ks = range(1, d)
            if d == 60:
                # Fixed, not drawn: the phase defect makes refute's eps retries (1 to 4
                # Gram sweeps) depend on the drawn values, so a drawn d = 60 case
                # would change the work per pass from seed to seed.
                x, p, ks = 1, Fraction(13, 100), range(1, MULTI_D60_ORBITS + 1)
            # N is the N refute picks for {x: p}; the orbits k*N*x then carry q_k
            _, eps = nc.choose_parameters(p)
            n_val = nc.diophantine_N(ctx, x, d, eps, budget=BUDGET)
            values = {x: p}
            values.update({k * n_val * x: Fraction(9, 10) if d == 60 else _draw_q(rng)
                           for k in ks})
            corpus.candidates.append(Candidate(f"d={d} x={x} k=1..{ks[-1]}", values, d,
                                               cli_refute=d in CLI_MULTI_DIMS,
                                               cli_verify=d in CLI_MULTI_VERIFY_DIMS,
                                               tamper=d <= TAMPER_MAX_D))
    elif workload == "algebra":
        corpus.triples = [tuple(_expression(rng) for _ in range(3))
                          for _ in range(ALGEBRA_TRIPLES)]
        corpus.roots = [(rng.randint(1, 2 * d), d) for d in ROOT_DIMS]
        for d in P_DIMS:
            # fixed, because the elimination cost depends on p: the PSD boundary
            # p = 1/sqrt(d) (det 0) and p = -5/(4 sqrt(d)) (det -9/16)
            corpus.matrices.append(PMatrix(Fraction(1, math.isqrt(d)), d))
            corpus.matrices.append(PMatrix(Fraction(-5, 4 * math.isqrt(d)), d))
        for _ in range(CLI_EVALS):
            values = {1: Fraction(rng.randint(-999, 999), 1000),
                      2: Fraction(rng.randint(-999, 999), 1000)}
            a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            m = (rng.choice((1, 2)) * rng.choice((-1, 1)), rng.choice((1, 2)) * 2)
            n = (rng.randint(-3, 3), rng.randint(1, 3))
            expr = f"{a} * W[{m[0]},{m[1]}] + W[{n[0]},{n[1]}]^* * W[{n[0]},{n[1]}]"
            corpus.evals.append((values, expr, a * values[math.gcd(*m)] + 1))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return corpus


def _nonzero(rng: random.Random, top: int) -> int:
    return rng.choice([i for i in range(-top, top + 1) if i])


def _literal(rng: random.Random) -> str:
    """A Gaussian rational times zeta^k, both parts and k nonzero."""
    re = Fraction(_nonzero(rng, 4), rng.randint(1, 4))
    im = Fraction(_nonzero(rng, 4), rng.randint(1, 4))
    return f"{re}{'+' if im > 0 else '-'}{abs(im)}iz^{_nonzero(rng, 3)}"


def _weyl(rng: random.Random) -> str:
    return f"W[{rng.randint(-3, 3)},{rng.randint(-3, 3)}]"


def _expression(rng: random.Random) -> str:
    """Three terms of fixed shape, so the work per triple does not depend on the seed."""
    return (f"{_literal(rng)} * {_weyl(rng)} + "
            f"({_literal(rng)} * {_weyl(rng)} + {_literal(rng)} * {_weyl(rng)})^* + "
            f"{_literal(rng)} * {_weyl(rng)}^*")


# ---------------------------------------------------------------------------
# one pass
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    label: str
    ok: bool
    detail: str = ""
    known: str | None = None  # known-defect reason, if the failure is expected


@dataclass
class PassResult:
    times: dict = field(default_factory=dict)  # ("make" | "check", operation) -> seconds
    cli_s: list = field(default_factory=list)
    outcomes: list = field(default_factory=list)
    certificates: dict = field(default_factory=dict)  # label -> certificate text

    def add(self, label: str, make_s: float = 0.0, check_s: float = 0.0) -> None:
        for kind, seconds in (("make", make_s), ("check", check_s)):
            if seconds:
                self.times[kind, label] = self.times.get((kind, label), 0.0) + seconds

    def total(self, kind: str) -> float:
        return sum(v for (k, _), v in self.times.items() if k == kind)

    def record(self, label, ok, detail="", known=None):
        self.outcomes.append(Outcome(label, bool(ok), detail, known if not ok else None))


class Runner:
    """Runs passes of one corpus; caches reference verdicts by input bytes."""

    def __init__(self, corpus: Corpus, nc, env: dict, speed: HostSpeed, proc_speed: HostSpeed):
        self.corpus, self.nc, self.env = corpus, nc, env
        self.speed, self.proc_speed = speed, proc_speed
        self.ctx = nc.PhaseContext()
        self._ref = {}

    def run_pass(self, tracer=None) -> PassResult:
        res = PassResult()
        if self.corpus.workload == "algebra":
            self._algebra(res, tracer)
        else:
            self._certificates(res, tracer)
        return res

    # -- helpers ------------------------------------------------------------

    def _cli(self, res: PassResult, commands: list[list[str]]):
        """Run nctorus commands back to back, bracketed by one pair of yardsticks."""
        t0 = self.proc_speed.start()
        procs, marks = [], []
        for args in commands:
            if procs:
                marks.append(perf_counter())
            procs.append(subprocess.run([sys.executable, "-c", CLI_MAIN, *args], env=self.env,
                                        capture_output=True, text=True, timeout=120))
        res.cli_s += self.proc_speed.stop(t0, *marks)
        return procs

    def _reference(self, text: str, values: dict):
        key = (text, tuple(sorted(values.items())))
        if key not in self._ref:
            self._ref[key] = reference.check_certificate(text, values)
        return self._ref[key]

    # -- certificate workloads ------------------------------------------------

    def _certificates(self, res: PassResult, tracer) -> None:
        nc, ctx, wl = self.nc, self.ctx, self.corpus.workload
        for cand in self.corpus.candidates:
            known = known_defect(wl, cand.d)
            label = f"{wl} {cand.label}"
            state = nc.StateCandidate(cand.values)
            if tracer:
                tracer.begin_op(label + " refute")
            t0 = self.speed.start()
            try:
                result = nc.refute(state, ctx, budget=BUDGET)
                text = result.dumps() if isinstance(result, nc.Certificate) else None
            except Exception as exc:  # a failed operation is counted, not fatal
                res.add(label + " refute", make_s=self.speed.stop(t0)[0])
                res.record(label + " refute", False, f"{type(exc).__name__}: {exc}", known)
                continue
            res.add(label + " refute", make_s=self.speed.stop(t0)[0])
            if cand.d == 0:
                res.record(label + " refute", isinstance(result, nc.ConsistentWithTrace),
                           f"expected ConsistentWithTrace, got {type(result).__name__}")
                continue
            if text is None:
                res.record(label + " refute", False, "expected a certificate", known)
                continue
            res.certificates[label] = text
            valid, ref, why = self._reference(text, cand.values)
            res.record(label + " refute", valid and json.loads(text)["d"] == cand.d,
                       f"{why}; reference omega(a* a) = {float(ref):.6g}", known)
            variants = [("verify", text, valid)]
            if cand.tamper:
                variants += [(f"verify tampered {name}", t, self._reference(t, cand.values)[0])
                             for name, t in _tampered(text)]
            for name, cert_text, expect in variants:
                if tracer:
                    tracer.begin_op(f"{label} {name}")
                t0 = self.speed.start()
                try:
                    report = nc.verify(state, nc.Certificate.loads(cert_text), ctx)
                except Exception as exc:
                    res.add(f"{label} {name}", check_s=self.speed.stop(t0)[0])
                    res.record(f"{label} {name}", False, f"{type(exc).__name__}: {exc}", known)
                    continue
                res.add(f"{label} {name}", check_s=self.speed.stop(t0)[0])
                verdict = "ACCEPT" if report.accepted else f"REJECT ({report.failed})"
                res.record(f"{label} {name}", report.accepted == expect,
                           f"{verdict}; reference says {'ACCEPT' if expect else 'REJECT'}", known)
            self._cli_certificate(res, label, cand, text, variants, known)

    def _cli_certificate(self, res, label, cand, text, variants, known) -> None:
        state = cand.state_json()
        commands = [["refute", "--state", state]] if cand.cli_refute else []
        if cand.cli_verify:
            commands += [["verify", "--state", state, "--cert", t] for _, t, _ in variants]
        if not commands:
            return
        procs = self._cli(res, commands)
        if cand.cli_refute:
            proc = procs.pop(0)
            res.record(f"{label} cli refute", proc.returncode == 0 and proc.stdout.strip() == text,
                       f"exit {proc.returncode}; stdout must equal the library certificate", known)
        for (name, _, expect), proc in zip(variants, procs):
            out = proc.stdout.strip()
            ok = ((proc.returncode, out) == (0, "ACCEPT") if expect
                  else proc.returncode == 1 and out.startswith("REJECT"))
            res.record(f"{label} cli {name}", ok, f"exit {proc.returncode}: {out[:60]}", known)

    # -- exact algebra ----------------------------------------------------------

    def _algebra(self, res: PassResult, tracer) -> None:
        nc, ctx = self.nc, self.ctx
        for i, triple in enumerate(self.corpus.triples):
            if tracer:
                tracer.begin_op(f"algebra triple {i}")
            names = ("associativity", "adjoint of product", "round trip")
            t0 = self.speed.start()
            try:
                a, b, c = (nc.to_element(nc.parse_element(t, ctx), ctx) for t in triple)
                ab = nc.multiply(a, b, ctx)
                left = nc.multiply(ab, c, ctx)
                right = nc.multiply(a, nc.multiply(b, c, ctx), ctx)
                adj = nc.adjoint(ab)
                adj_rev = nc.multiply(nc.adjoint(b), nc.adjoint(a), ctx)
                again = nc.to_element(nc.parse_element(nc.format_element(a), ctx), ctx)
                t1 = perf_counter()
                checks = (left == right, adj == adj_rev, again == a)
            except Exception as exc:
                for name in names:
                    res.record(f"algebra triple {i} {name}", False, f"{type(exc).__name__}: {exc}")
                continue
            res.add(f"algebra triple {i}", *self.speed.stop(t0, t1))
            for name, ok in zip(names, checks):
                res.record(f"algebra triple {i} {name}", ok, "exact law must hold")
        if tracer:
            tracer.begin_op("algebra root sums")
        expected = [reference.root_sum(j, d) for j, d in self.corpus.roots]
        t0 = self.speed.start()
        totals = []
        for j, d in self.corpus.roots:
            total = nc.PhaseScalar.zero()
            for l in range(1, d + 1):
                total = total + nc.PhaseScalar.root_of_unity(Fraction(j * l, d))
            totals.append(total)
        t1 = perf_counter()
        oks = [total == want for total, want in zip(totals, expected)]
        res.add("algebra root sums", *self.speed.stop(t0, t1))
        for (j, d), ok, total, want in zip(self.corpus.roots, oks, totals, expected):
            res.record(f"algebra root sum j={j} d={d}", ok, f"expected {want}, got {total}")
        for mat in self.corpus.matrices:
            self._p_matrix(res, tracer, mat)
        psd_cases = self.corpus.matrices[-2:]  # d = 25 at the PSD boundary, and not PSD
        procs = self._cli(res, [["eval", "--state", json.dumps({"orbit_values": {
                                    str(k): str(v) for k, v in values.items()}}), expr]
                                for values, expr, _ in self.corpus.evals]
                          + [["--exact", "psd", json.dumps({"matrix": _p_rows(mat, str)})]
                             for mat in psd_cases])
        for (_, expr, expected), proc in zip(self.corpus.evals, procs):
            ok = False
            if proc.returncode == 0 and proc.stdout.startswith("value: "):
                re_part, im_part = proc.stdout[len("value: "):].strip().rstrip("i").split(" + ")
                ok = (abs(float(re_part) - float(expected)) <= 1e-12 * max(1, abs(expected))
                      and abs(float(im_part)) <= 1e-12)
            res.record(f"algebra cli eval {expr!r}", ok,
                       f"exit {proc.returncode}: {proc.stdout.strip()}; expected {float(expected)}")
        for mat, proc in zip(psd_cases, procs[len(self.corpus.evals):]):
            expect_psd = reference.p_matrix_is_psd(mat.p, mat.d)
            res.record(f"algebra cli psd d={mat.d} p={mat.p}", (proc.returncode == 0) == expect_psd,
                       f"exit {proc.returncode}; expected {'PSD' if expect_psd else 'not PSD'}")

    def _p_matrix(self, res: PassResult, tracer, mat: PMatrix) -> None:
        nc = self.nc
        label = f"algebra P_d d={mat.d} p={mat.p}"
        if tracer:
            tracer.begin_op(label)
        t0 = self.speed.start()
        try:
            H = nc.HermitianMatrix(_p_rows(mat, nc.PhaseScalar.rational), exact=True)
            t1 = perf_counter()
            verdict = nc.is_psd(H)
            det = nc.determinant_exact(H)
        except Exception as exc:
            for name in ("is_psd", "determinant_exact"):
                res.record(f"{label} {name}", False, f"{type(exc).__name__}: {exc}")
            return
        res.add(label, *self.speed.stop(t0, t1))
        expect_psd = reference.p_matrix_is_psd(mat.p, mat.d)
        ok = verdict.is_psd == expect_psd
        if ok and not verdict.is_psd:
            v = [(w.re, w.im) for w in verdict.witness]
            ok = reference.p_matrix_form(mat.p, v) < 0
        res.record(label + " is_psd", ok,
                   f"got {'PSD' if verdict.is_psd else 'not PSD'}, closed form "
                   f"{'PSD' if expect_psd else 'not PSD (witness must be negative)'}")
        expect_det = reference.det_p_matrix(mat.p, mat.d)
        res.record(label + " determinant_exact", det.re == expect_det and det.im == 0,
                   f"got {det}, closed form 1 - d p^2 = {expect_det}")


def _p_rows(mat: PMatrix, conv):
    n = mat.d + 1
    return [[conv(1 if i == j else mat.p if 0 in (i, j) else 0) for j in range(n)]
            for i in range(n)]


def _tampered(text: str):
    """Certificates whose known answer is REJECT."""
    obj = json.loads(text)
    d = obj["d"]
    out = []
    for name, change in (("N+1", lambda o: o.update(N=o["N"] + 1)),
                         ("N+d!", lambda o: o.update(N=o["N"] + math.factorial(d))),
                         # an imaginary part: omega(a* a) gains |0.5|^2 plus cross terms
                         ("witness", lambda o: o["witness"][1].__setitem__(1, 0.5))):
        o = json.loads(text)
        change(o)
        out.append((name, json.dumps(o)))
    return out
