"""Layer tracing installed from outside the package.

`Tracer.install` wraps the public functions listed in LAYERS wherever an
nctorus module namespace binds them (certificate imports gram,
quadratic_form and others by name), and `Tracer.remove` puts the
originals back.  Every wrapped call takes part in a span stack, which
gives self time: a call's duration minus the time its wrapped children
cover.  Span records (name, start, end, parent, operation) are kept in
memory for the coarse functions in SPAN_FUNCS and written out by `dump`;
the hot leaf functions are aggregated only, so a pass with millions of
scalar operations does not hold millions of records.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from time import perf_counter

LAYERS = {
    "states": ("gram", "eval_generator", "quadratic_form", "evaluate", "is_psd",
               "determinant_exact"),
    "lattice": ("as_vector", "pairing", "theta_j"),
    "certificate": ("diophantine_N", "satisfies_diophantine", "build_H_second", "average_R",
                    "refute", "verify"),
    "circle": ("first_hit", "phase_angle"),
    "algebra": ("multiply", "adjoint", "numeric_eval"),
    "scalars": ("PhaseScalar.__mul__", "PhaseScalar.__add__"),
    "parser": ("parse_element", "to_element"),
}
SPAN_FUNCS = {"gram", "evaluate", "is_psd", "determinant_exact", "diophantine_N",
              "build_H_second", "average_R", "refute", "verify", "parse_element"}
COUNT_ONLY = ("scalars", "PhaseScalar.__init__")  # counted, not timed
EXTRA_COUNTERS = ("states.gram.entries", "algebra.multiply.term_pairs",
                  "circle.phase_angle.max_exp_bits", "circle.first_hit.max_depth",
                  "scalars.PhaseScalar.__init__.calls")


def layer_functions():
    """(layer, qualified name) for every timed function."""
    return [(layer, name) for layer, names in LAYERS.items() for name in names]


class Tracer:
    def __init__(self):
        self.stats = {}  # "layer.name" -> [calls, inclusive s, self s]
        self.counters = {}
        self.spans = []  # [name, start, end, parent span index, operation index]
        self.ops = []
        self._op = -1
        self._stack = [[0.0]]  # child-time accumulators; the root absorbs top-level calls
        self._span = -1
        self._depth = {}
        self._patched = []  # (owner, attribute, original)

    # -- operations ---------------------------------------------------------

    def begin_op(self, label: str) -> None:
        self.ops.append(label)
        self._op = len(self.ops) - 1

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, key: str, fn, keep_span: bool, extra=None):
        stats = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack, depth_of, spans = self._stack, self._depth, self.spans
        depth_key = key + ".max_depth"

        def wrapper(*args, **kwargs):
            if extra is not None:
                extra(args)
            depth = depth_of.get(key, 0)
            depth_of[key] = depth + 1
            if depth + 1 > self.counters.get(depth_key, 0):
                self.counters[depth_key] = depth + 1
            frame = [0.0]
            stack.append(frame)
            parent = self._span
            if keep_span:
                self._span = len(spans)
                spans.append([key, 0.0, 0.0, parent, self._op])
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dur = t1 - t0
                stack.pop()
                stack[-1][0] += dur
                stats[0] += 1
                stats[2] += dur - frame[0]
                if depth == 0:
                    stats[1] += dur  # outermost activation only: recursion is not double counted
                depth_of[key] = depth
                if keep_span:
                    spans[self._span][1:3] = [t0, t1]
                    self._span = parent

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_only(self, key: str, fn):
        counters, key = self.counters, key + ".calls"

        def wrapper(*args, **kwargs):
            counters[key] = counters.get(key, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _extra(self, name: str):
        c = self.counters
        if name == "gram":
            def extra(args):
                c["states.gram.entries"] = c.get("states.gram.entries", 0) + len(args[1]) ** 2
        elif name == "multiply":
            def extra(args):
                c["algebra.multiply.term_pairs"] = (c.get("algebra.multiply.term_pairs", 0)
                                                    + len(args[0].support()) * len(args[1].support()))
        elif name == "phase_angle":
            def extra(args):
                bits = abs(args[1]).bit_length()
                if bits > c.get("circle.phase_angle.max_exp_bits", 0):
                    c["circle.phase_angle.max_exp_bits"] = bits
        else:
            return None
        return extra

    def install(self, package) -> None:
        """Wrap every LAYERS function in every nctorus namespace that binds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package.__name__ or n.startswith(package.__name__ + "."))]
        for layer, name in layer_functions() + [COUNT_ONLY]:
            key = f"{layer}.{name}"
            if "." in name:
                cls_name, attr = name.split(".")
                cls = getattr(getattr(package, layer), cls_name)
                orig = vars(cls)[attr]
                wrapped = (self._count_only(key, orig) if (layer, name) == COUNT_ONLY
                           else self._wrap(key, orig, False))
                owners = [(cls, a) for a, v in list(vars(cls).items()) if v is orig]
            else:
                orig = getattr(getattr(package, layer), name)
                wrapped = self._wrap(key, orig, name in SPAN_FUNCS, self._extra(name))
                owners = [(m, a) for m in modules for a, v in list(vars(m).items()) if v is orig]
            for owner, attr in owners:
                setattr(owner, attr, wrapped)
                self._patched.append((owner, attr, orig))

    def remove(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        for owner, attr, orig in self._patched:
            if getattr(owner, attr) is not orig:
                raise RuntimeError(f"could not restore {owner!r}.{attr}")
        self._patched.clear()

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out = {}
        for layer, name in layer_functions():
            calls, incl, own = self.stats.get(f"{layer}.{name}", (0, 0.0, 0.0))
            out[f"{layer}.{name}.calls"] = calls
            out[f"{layer}.{name}.s"] = incl
            out[f"{layer}.{name}.self_s"] = own
        for key in EXTRA_COUNTERS:
            out[key] = self.counters.get(key, 0)
        dio = out["certificate.diophantine_N.calls"]
        out["certificate.refute_per_diophantine"] = (
            out["certificate.refute.calls"] / dio if dio else 0.0)
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": self.ops[op] if op >= 0 else None})
                         + "\n")


_IMPORT_LINE = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)\s*$")


def import_times(env: dict) -> tuple[float, float]:
    """(import nctorus, import numpy) cumulative seconds from -X importtime."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import nctorus"],
                          env=env, capture_output=True, text=True, timeout=60, check=True)
    cumulative = {}
    for line in proc.stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            cumulative[m.group(2)] = int(m.group(1)) / 1e6
    return cumulative["nctorus"], cumulative["numpy"]
