"""nctorus benchmark: refute/verify and exact-algebra latency, with layer traces.

Run from the repository root:

    python3 perfbench/run.py --workload single-orbit --seed 1 --seconds 20 --trace 0

--trace 0 measures the end-to-end metrics; --trace 1 runs a separate
traced measurement and reports the per-layer metrics.  `--workload all`
runs every workload in both modes.  Every run checks each result against
the independent reference in reference.py; the exit code is 1 when an
operation fails outside the known defects listed in workloads.py.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layertrace  # noqa: E402  (the benchmark's own modules)
import workloads  # noqa: E402

DEFAULT_SEED = 1
HELD_OUT_SEED = 9173  # kept for validating claims; never used while tuning a change
DEFAULT_SECONDS = 40
SETUP_RUNS = 5
IMPORT_RUNS = 3
OUT_DIR = ".perfbench_out"

_FIRST_REFUTE = """
import nctorus as nc
ctx = nc.PhaseContext()
state = nc.StateCandidate({1: "1/2"})
cert = nc.refute(state, ctx)
assert nc.verify(state, nc.Certificate.loads(cert.dumps()), ctx).accepted
"""
_FIRST_PRODUCT = """
import nctorus as nc
ctx = nc.PhaseContext()
a = nc.to_element(nc.parse_element("1/2+1i z^1 * W[1,2] + W[0,1]^*", ctx), ctx)
assert nc.multiply(nc.adjoint(a), a, ctx) == nc.multiply(nc.adjoint(a), a, ctx)
"""
FIRST_RESULT = {"single-orbit": _FIRST_REFUTE, "multi-orbit": _FIRST_REFUTE,
                "algebra": _FIRST_PRODUCT}

UNITS = {"make_s": "s", "check_s": "s", "cli_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("max_exp_bits"):
        return "bits"
    if name.endswith("refute_per_diophantine"):
        return "ratio"
    return "count"


def tail(values: list[float]) -> tuple[str, float]:
    """Highest percentile with at least ten samples beyond it, else the max."""
    n = len(values)
    for q in (99, 95, 90, 75, 50):
        if n * (100 - q) / 100 >= 10:
            return f"p{q}", statistics.quantiles(values, n=100, method="inclusive")[q - 1]
    return "max", max(values)


class Measurement:
    """One workload run in one mode; collects samples, outcomes and metrics."""

    def __init__(self, workload: str, seed: int, seconds: int, nc, env: dict):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.nc, self.env = nc, env
        self.samples: dict[str, list[float]] = {}
        self.op_times: dict[tuple, list[float]] = {}  # (kind, operation) -> seconds per pass
        self.outcomes = []
        self.metrics: dict[str, float] = {}
        self.passes = 0
        self.speed = workloads.HostSpeed()
        self.proc_speed = workloads.HostSpeed(workloads.calibrate_process,
                                              workloads.PROC_REF_S, workloads.PROC_STALE_S)

    def _keep(self, res) -> None:
        self.outcomes.extend(res.outcomes)
        for key, seconds in res.times.items():
            self.op_times.setdefault(key, []).append(seconds)
        self.samples.setdefault("make_s", []).append(res.total("make"))
        self.samples.setdefault("check_s", []).append(res.total("check"))
        self.samples.setdefault("cli_s", []).extend(res.cli_s)
        self.passes += 1

    def _runner(self):
        return workloads.Runner(workloads.build(self.workload, self.seed, self.nc),
                                self.nc, self.env, self.speed, self.proc_speed)

    def end_to_end(self) -> None:
        t0, marks = self.proc_speed.start(), []
        for i in range(SETUP_RUNS):
            if i:
                marks.append(perf_counter())
            subprocess.run([sys.executable, "-c", FIRST_RESULT[self.workload]], env=self.env,
                           check=True, timeout=120, stdout=subprocess.DEVNULL)
        self.samples["setup_s"] = self.proc_speed.stop(t0, *marks)
        runner = self._runner()
        start = perf_counter()
        while True:
            t0 = perf_counter()
            self._keep(runner.run_pass())
            spent, last = perf_counter() - start, perf_counter() - t0
            if spent + last > self.seconds:
                break
        # per operation, the median over passes; a slow spell then spoils one
        # sample of one operation instead of a whole pass
        for kind in ("make", "check"):
            self.metrics[f"{kind}_s"] = sum(statistics.median(v) for (k, _), v
                                            in self.op_times.items() if k == kind)
        for name in ("cli_s", "setup_s"):
            self.metrics[name] = statistics.median(self.samples[name])
        self.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def per_layer(self) -> None:
        runner = self._runner()
        start = perf_counter()
        plain = runner.run_pass()
        self._keep(plain)
        per_pass, traced_s = [], []
        while True:
            t0 = perf_counter()
            tracer = layertrace.Tracer()
            tracer.install(self.nc)
            try:
                res = runner.run_pass(tracer)
            finally:
                tracer.remove()
            self._keep(res)
            per_pass.append(tracer.metrics())
            traced_s.append(res.total("make") + res.total("check"))
            res_same = res.certificates == plain.certificates
            self.outcomes.append(workloads.Outcome(
                f"{self.workload} traced certificate bytes", res_same,
                "traced and untraced passes must emit identical certificates"))
            spent, last = perf_counter() - start, perf_counter() - t0
            if spent + last > self.seconds:
                break
        for name in per_pass[0]:
            self.metrics[name] = statistics.median(m[name] for m in per_pass)
        self.metrics["trace.overhead_s"] = (statistics.median(traced_s)
                                            - (plain.total("make") + plain.total("check")))
        imports = [layertrace.import_times(self.env) for _ in range(IMPORT_RUNS)]
        self.metrics["cli.import_s"] = statistics.median(t[0] for t in imports)
        self.metrics["cli.import.numpy_s"] = statistics.median(t[1] for t in imports)
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.dump(os.path.join(OUT_DIR, f"spans-{self.workload}-{self.seed}.jsonl"))

    # -- report -------------------------------------------------------------

    def result(self) -> dict:
        failed = [o for o in self.outcomes if not o.ok]
        return {
            "correct": all(o.known for o in failed),
            "attempted": len(self.outcomes),
            "failed": len(failed),
            "metrics": {name: {"value": value, "unit": UNITS.get(name) or layer_unit(name)}
                        for name, value in self.metrics.items()},
        }

    def print_report(self, trace_mode: int) -> None:
        seen = {}
        for o in self.outcomes:
            if not o.ok:
                seen.setdefault(o.label, [o, 0])[1] += 1
        for label, (o, count) in seen.items():
            tag = f"known defect: {o.known}" if o.known else "UNEXPECTED"
            print(f"FAIL {label} (x{count}): {o.detail} [{tag}]")
        attempted = len(self.outcomes)
        failed = sum(c for _, c in seen.values())
        print(f"{self.workload}: {attempted} operations in {self.passes} passes, "
              f"{failed} failed, fail_ratio {failed / attempted:.4f}")
        print("host speed: timings are scaled by median factors of "
              f"{statistics.median(self.speed.factors):.4f} (library calls) and "
              f"{statistics.median(self.proc_speed.factors or [1.0]):.4f} (subprocesses); "
              "raw seconds = value / factor")
        for name, value in self.metrics.items():
            unit = UNITS.get(name) or layer_unit(name)
            line = f"{name} {value} {unit}"
            if name in self.samples:
                n = len(self.samples[name])
                how = (f"sum over operations of the median of n={n} passes"
                       if name in ("make_s", "check_s") else f"median of n={n}")
                kind, hi = tail(self.samples[name])
                line += f"  ({how}; {kind} {hi:.6g})"
            print(line)
        print(json.dumps({"stamp": {
            "workload": self.workload, "seed": self.seed, "default_seed": DEFAULT_SEED,
            "held_out_seed": HELD_OUT_SEED, "trace": trace_mode, "seconds": self.seconds,
            "python": sys.version.split()[0], "numpy": version("numpy"),
            "nproc": os.cpu_count(), "passes": self.passes,
            "samples": {k: len(v) for k, v in self.samples.items()},
        }}))


def _locate_package(root: Path):
    """Import nctorus from the checkout's src/; (None, None) when it is missing."""
    src = root / "src"
    if not (src / "nctorus" / "__init__.py").is_file():
        return None, None
    sys.path.insert(0, str(src))
    import nctorus
    if Path(nctorus.__file__).resolve().parent != (src / "nctorus").resolve():
        return None, None
    pythonpath = [str(src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return nctorus, dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    nc, env = _locate_package(Path.cwd())
    if nc is None:
        print("error: src/nctorus not found; run from the root of an nctorus checkout",
              file=sys.stderr)
        return 2
    runs = ([(w, t) for w in workloads.WORKLOADS for t in (0, 1)] if args.workload == "all"
            else [(args.workload, args.trace)])
    correct = True
    for workload, trace_mode in runs:
        m = Measurement(workload, args.seed, args.seconds, nc, env)
        if trace_mode:
            m.per_layer()
        else:
            m.end_to_end()
        m.print_report(trace_mode)
        result = m.result()
        correct = correct and result["correct"]
        print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
