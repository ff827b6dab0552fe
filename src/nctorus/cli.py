"""Command-line front end.

Subcommands wrap each pipeline stage: `nf` (symplectic normal form),
`orbit` (orbit representative + SL(2,Z) witness), `eval` (state applied to
a parsed element), `gram`, `psd`, `refute` and `verify`.  JSON arguments
accept either a file path or an inline JSON string.

Exit codes: 0 success/accept, 1 reject or non-PSD verdict, 2 usage or
malformed input (JSON of the wrong shape, a value too large for a float),
3 search-budget exhaustion (a Diophantine clause the pi precision cap
leaves undecided, DiophantinePrecisionError, included), 4 refute found no
negative certified value after four tries (degenerate candidate).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .algebra import PhaseContext, numeric_eval
from .certificate import (
    Certificate,
    ConsistentWithTrace,
    DiophantineBudgetError,
    RefutationMarginError,
    refute,
    verify,
)
from .lattice import SkewForm, as_vector, orbit_rep, symplectic_normal_form
from .parser import ParseError, parse_element
from .scalars import PhaseScalar, as_fraction
from .states import HermitianMatrix, StateCandidate, as_tolerance, evaluate_exact, gram, is_psd

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_MARGIN = 4


def _load_json(arg: str):
    """Inline JSON (starts with '{' or '[') or a path to a JSON file."""
    text = arg
    if not arg.lstrip().startswith(("{", "[")):
        with open(arg, "r", encoding="utf-8") as fh:
            text = fh.read()
    return json.loads(text, parse_float=Fraction)


def _load_state(arg: str) -> StateCandidate:
    return StateCandidate.from_json(_load_json(arg))


def _vectors_from_json(rows, what: str) -> list:
    """Integer vectors read from parsed JSON; a wrong shape is a ValueError."""
    try:
        return [as_vector(row) for row in rows]
    except TypeError as exc:
        raise ValueError(f"{what} must be a list of integer lists: {exc}") from exc


def _complex_pair(value) -> list[float]:
    return [float(value.real), float(value.imag)]


def _matrix_rows(arg: str, what: str):
    """The "matrix" field of a JSON object; any other shape is a ValueError."""
    obj = _load_json(arg)
    if not isinstance(obj, dict) or "matrix" not in obj:
        raise ValueError(f'{what} JSON must be {{"matrix": [[...]]}}')
    return obj["matrix"]


def _matrix_from_json(arg: str, exact: bool) -> HermitianMatrix:
    rows = _matrix_rows(arg, "matrix")

    def entry(x):
        re, im = x if isinstance(x, (list, tuple)) else (x, 0)
        re, im = as_fraction(re), as_fraction(im)  # "1/2" is a number, true is not
        if not exact:  # each number is a float first, so 1e400 overflows
            re, im = float(re), float(im)
        return PhaseScalar.gaussian(re, im)

    try:
        data = [[entry(x) for x in row] for row in rows]
    except TypeError as exc:
        raise ValueError(f"malformed matrix entry: {exc}") from exc
    return HermitianMatrix(data)


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nctorus",
        description="Exact noncommutative-torus algebra and invariant-state refutation.",
    )
    # --h stays a string here: PhaseContext reads it through scalars.as_fraction
    ap.add_argument("--h", default="1",
                    help="phase parameter h (default 1; h/2pi must stay irrational)")
    # --tol too: main reads it once through states.as_tolerance, so 1/10 is a tolerance
    ap.add_argument("--tol", default="1e-9", help="psd and verify tolerance (default 1e-9)")
    ap.add_argument("--exact", action="store_true", help="exact output (eval, gram) or input (psd)")
    ap.add_argument("--json", action="store_true", dest="as_json", help="machine-readable output")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nf", help="symplectic normal form of a skew form")
    p.add_argument("form", help='form JSON ({"matrix": [[...]]}) or file path')

    p = sub.add_parser("orbit", help="orbit representative and SL(2,Z) witness")
    p.add_argument("n1", type=int)
    p.add_argument("n2", type=int)

    p = sub.add_parser("eval", help="evaluate a state on an element expression")
    p.add_argument("--state", required=True, help="state JSON or file path")
    p.add_argument("expr", help="element expression, e.g. 'W[1,0]*W[0,1]'")

    p = sub.add_parser("gram", help="Gram matrix of a state on generators")
    p.add_argument("--state", required=True)
    p.add_argument("--gens", required=True, help="JSON list of lattice vectors or file path")

    p = sub.add_parser("psd", help="positivity test with witness extraction")
    p.add_argument("matrix", help="Hermitian matrix JSON or file path")

    p = sub.add_parser("refute", help="refute a non-trace invariant-state candidate")
    p.add_argument("--state", required=True)
    p.add_argument("-o", "--output", help="write the certificate JSON to this file")

    p = sub.add_parser("verify", help="independently check a refutation certificate")
    p.add_argument("--state", required=True)
    p.add_argument("--cert", required=True, help="certificate JSON or file path")

    return ap


def _cmd_nf(args, ctx) -> int:
    form = SkewForm(_vectors_from_json(_matrix_rows(args.form, "form"), "form matrix"))
    nf = symplectic_normal_form(form)
    if args.as_json:
        print(json.dumps({"divisors": list(nf.divisors),
                          "basis_change": [list(r) for r in nf.basis_change]}))
    else:
        print(f"divisors: {list(nf.divisors)}")
        print(f"basis_change: {[list(r) for r in nf.basis_change]}")
    return EXIT_OK


def _cmd_orbit(args, ctx) -> int:
    rep, theta = orbit_rep((args.n1, args.n2))
    if args.as_json:
        print(json.dumps({"rep": list(rep), "theta": [list(r) for r in theta]}))
    else:
        print(f"rep: {rep}")
        print(f"theta: {[list(r) for r in theta]}")
    return EXIT_OK


def _cmd_eval(args, ctx) -> int:
    state = _load_state(args.state)
    exact = evaluate_exact(state, parse_element(args.expr, ctx))
    value = numeric_eval(exact, ctx)
    if args.as_json:
        payload = {"value": _complex_pair(value)}
        if args.exact:
            payload["value_exact"] = str(exact)
        print(json.dumps(payload))
    else:
        if args.exact:
            print(f"exact: {exact}")
        print(f"value: {value.real:.17g} + {value.imag:.17g}i")
    return EXIT_OK


def _cmd_gram(args, ctx) -> int:
    state = _load_state(args.state)
    matrix = gram(state, _vectors_from_json(_load_json(args.gens), "--gens"), ctx)
    if args.as_json:
        print(json.dumps({"matrix": [[_complex_pair(x) for x in row] for row in matrix.rounded(ctx)]}))
    elif args.exact:
        for row in matrix.rows():
            print("  ".join(map(str, row)))
    else:
        for row in matrix.rounded(ctx):
            print("  ".join(f"{x.real:+.12g}{x.imag:+.12g}i" for x in row))
    return EXIT_OK


def _cmd_psd(args, ctx) -> int:
    matrix = _matrix_from_json(args.matrix, exact=args.exact)
    verdict = is_psd(matrix, tol=0 if args.exact else args.tol)
    if args.as_json:
        payload = {"psd": verdict.is_psd}
        if not verdict.is_psd:
            payload["witness"] = [_complex_pair(complex(w)) for w in verdict.witness]
            payload["value"] = float(verdict.value)
        print(json.dumps(payload))
    elif verdict.is_psd:
        print("PSD")
    else:
        print(f"NOT PSD: value {float(verdict.value):.6e} at witness "
              f"{[_complex_pair(complex(w)) for w in verdict.witness]}")
    return EXIT_OK if verdict.is_psd else EXIT_REJECT


def _cmd_refute(args, ctx) -> int:
    state = _load_state(args.state)
    result = refute(state, ctx)
    if isinstance(result, ConsistentWithTrace):
        print(json.dumps(result.to_json()))
        return EXIT_OK
    text = result.dumps()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        if not args.as_json:
            print(f"certificate written to {args.output} (value {result.value:.6e})")
    else:
        print(text)
    return EXIT_OK


def _cmd_verify(args, ctx) -> int:
    state = _load_state(args.state)
    cert = Certificate.from_json(_load_json(args.cert))
    report = verify(state, cert, ctx, tol=args.tol)
    if args.as_json:
        print(json.dumps(report.to_json()))
    elif report.accepted:
        print("ACCEPT")
    else:
        print(f"REJECT: {report.failed}")
        for c in report.clauses:
            mark = "ok" if c.ok else "FAIL"
            print(f"  [{mark}] {c.name}: {c.detail}")
    return EXIT_OK if report.accepted else EXIT_REJECT


_COMMANDS = {
    "nf": _cmd_nf,
    "orbit": _cmd_orbit,
    "eval": _cmd_eval,
    "gram": _cmd_gram,
    "psd": _cmd_psd,
    "refute": _cmd_refute,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        args.tol = as_tolerance(args.tol)
        return _COMMANDS[args.command](args, PhaseContext(h=args.h))
    except DiophantineBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except RefutationMarginError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MARGIN
    except (ParseError, ValueError, KeyError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
