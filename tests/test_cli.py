import json

import numpy as np
import pytest

from nctorus.cli import main
from nctorus.parser import MAX_DEPTH


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_orbit_command(capsys):
    code, out, _ = run(capsys, "orbit", "6", "4")
    assert code == 0
    assert "rep: (0, 2)" in out
    assert "theta: [[2, -3], [1, -1]]" in out
    code, out, _ = run(capsys, "--json", "orbit", "6", "4")
    assert json.loads(out) == {"rep": [0, 2], "theta": [[2, -3], [1, -1]]}


def test_nf_command(capsys, tmp_path):
    form = tmp_path / "form.json"
    form.write_text(json.dumps({"matrix": [[0, 2], [-2, 0]]}))
    code, out, _ = run(capsys, "--json", "nf", str(form))
    assert code == 0
    blob = json.loads(out)
    assert blob["divisors"] == [2]
    assert blob["basis_change"] == [[1, 0], [0, 1]]


def test_eval_command(capsys):
    code, out, _ = run(capsys, "--json", "eval", "--state", '{"orbit_values":{"1":0.5}}',
                       "W[1,1]")
    assert code == 0
    val = json.loads(out)["value"]
    assert val == pytest.approx([0.5, 0.0], abs=1e-12)

    code, out, _ = run(capsys, "--json", "--exact", "eval",
                       "--state", '{"orbit_values":{}}', "W[1,0]*W[0,1] + 2 * W[0,0]")
    blob = json.loads(out)
    assert blob["value"] == pytest.approx([2.0, 0.0], abs=1e-12)
    assert blob["value_exact"] == "2"

    # Gaussian values print exactly: no cos(pi/2) residue in the real part
    code, out, _ = run(capsys, "--json", "eval", "--state", '{"orbit_values":{}}', "1i * W[0,0]")
    assert out == '{"value": [0.0, 1.0]}\n'
    code, out, _ = run(capsys, "eval", "--state", '{"orbit_values":{}}', "2-3i * W[0,0]")
    assert out == "value: 2 + -3i\n"


def test_eval_deep_nesting_is_a_syntax_error(capsys):
    # past parser.MAX_DEPTH a '(' is a ParseError: exit 2 with its offset, no traceback
    deep = "(" * 300 + "1" + ")" * 300
    code, out, err = run(capsys, "eval", "--state", '{"orbit_values":{}}', deep)
    assert (code, out) == (2, "")
    assert err == f"error: parentheses nested deeper than {MAX_DEPTH} (at offset {MAX_DEPTH})\n"
    code, out, _ = run(capsys, "eval", "--state", '{"orbit_values":{}}', "(" * 100 + "1" + ")" * 100)
    assert code == 0 and out.startswith("value: 1")


def test_eval_agrees_with_library(capsys, ctx):
    import random

    from nctorus.parser import format_element, parse_element
    from nctorus.states import StateCandidate, evaluate
    from conftest import random_element

    rng = random.Random(7)
    state_text = '{"orbit_values":{"1":0.5,"2":-0.25}}'
    state = StateCandidate.loads(state_text)
    for _ in range(100):
        expr = format_element(random_element(rng, max_terms=3))
        code, out, _ = run(capsys, "--json", "eval", "--state", state_text, expr)
        assert code == 0
        got = json.loads(out)["value"]
        want = evaluate(state, parse_element(expr, ctx), ctx)
        assert abs(complex(got[0], got[1]) - want) < 1e-12


def test_gram_command(capsys):
    code, out, _ = run(capsys, "--json", "gram", "--state", '{"orbit_values":{"1":0.5}}',
                       "--gens", "[[0,0],[1,1]]")
    assert code == 0
    m = json.loads(out)["matrix"]
    assert np.allclose([[complex(*e) for e in row] for row in m], [[1, 0.5], [0.5, 1]])


def test_psd_command(capsys, tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"matrix": [[1, 0.5], [0.5, 1]]}))
    code, out, _ = run(capsys, "psd", str(good))
    assert code == 0 and "PSD" in out

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"matrix": [[1, 2], [2, 1]]}))
    code, out, _ = run(capsys, "psd", str(bad))
    assert code == 1 and "NOT PSD" in out

    code, out, _ = run(capsys, "--exact", "--json", "psd", str(bad))
    assert code == 1
    blob = json.loads(out)
    assert blob["psd"] is False and blob["value"] < 0


def test_refute_verify_round_trip(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    state = '{"orbit_values":{"1":0.5}}'
    code, out, _ = run(capsys, "refute", "--state", state, "-o", str(cert_path))
    assert code == 0
    blob = json.loads(cert_path.read_text())
    assert blob["value"] < 0 and blob["d"] == 5

    code, out, _ = run(capsys, "verify", "--state", state, "--cert", str(cert_path))
    assert code == 0 and "ACCEPT" in out

    blob["N"] += 1
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(blob))
    code, out, _ = run(capsys, "verify", "--state", state, "--cert", str(tampered))
    assert code == 1 and "REJECT: divisibility" in out

    # integer fields are checked, never truncated: 5.5 is not read as d = 5
    blob["N"] -= 1
    for field, value in (("d", 5.5), ("generators", [[0.5, 0]] + blob["generators"][1:])):
        tampered.write_text(json.dumps({**blob, field: value}))
        code, out, err = run(capsys, "verify", "--state", state, "--cert", str(tampered))
        assert code == 2 and out == "" and err.startswith("error: "), field


def test_booleans_are_not_integer_fields(capsys):
    # JSON true reads as 1 under int(), yet every integer field rejects it (exit 2)
    cert = {"xi": [True, True], "d": True, "N": 25, "epsilon": 0.75, "p": 2.0, "l_star": True,
            "witness": [[-2.0, 0.0], [1.0, 0.0]], "value": -3.0, "avg_value": -3.0,
            "generators": [[False, False], [26, True]]}
    state = '{"orbit_values":{"1":2}}'
    code, out, err = run(capsys, "verify", "--state", state, "--cert", json.dumps(cert))
    assert code == 2 and out == "" and "malformed certificate" in err
    for field in ("xi", "d", "l_star", "generators"):
        ones = {"xi": [1, 1], "d": 1, "l_star": 1, "generators": [[0, 0], [26, 1]]}
        code, out, err = run(capsys, "verify", "--state", state,
                             "--cert", json.dumps({**cert, **ones, field: cert[field]}))
        assert code == 2 and out == "" and "malformed certificate" in err, field
    code, out, err = run(capsys, "nf", '{"matrix": [[0, true], [-1, 0]]}')
    assert code == 2 and out == "" and err.startswith("error: ")
    code, out, err = run(capsys, "gram", "--state", state, "--gens", "[[0,0],[true,1]]")
    assert code == 2 and out == "" and err.startswith("error: ")
    for mode in ([], ["--exact"]):  # a psd entry or part that is a JSON boolean
        for matrix in ('{"matrix": [[true]]}', '{"matrix": [[[1, false]]]}'):
            code, out, err = run(capsys, *mode, "psd", matrix)
            assert code == 2 and out == "" and err.startswith("error: "), (mode, matrix)


def test_verify_agreement_is_relative(capsys, tmp_path):
    # at |omega(a* a)| = 1.5e12 one float ulp is 2.4e-4, far above tol = 1e-9
    state = '{"orbit_values":{"1":1234567.89}}'
    cert_path = tmp_path / "cert.json"
    assert main(["refute", "--state", state, "-o", str(cert_path)]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "verify", "--state", state, "--cert", str(cert_path))
    assert (code, out) == (0, "ACCEPT\n")
    blob = json.loads(cert_path.read_text())
    blob["value"] *= 1 + 1e-6
    code, out, _ = run(capsys, "verify", "--state", state, "--cert", json.dumps(blob))
    assert code == 1 and out.startswith("REJECT: negativity")


def test_tol_is_read_as_a_rational(capsys, tmp_path):
    # --tol follows the package's one rule for numbers: 1/10 is a tolerance for psd and verify
    code, out, _ = run(capsys, "--tol", "1/10", "psd", '{"matrix": [[1]]}')
    assert (code, out) == (0, "PSD\n")
    # [[1, 1.05], [1.05, 1]] + tol*I is PSD at tol 1/10, and not at the default 1e-9
    code, out, _ = run(capsys, "--tol", "1/10", "psd", '{"matrix": [[1, 1.05], [1.05, 1]]}')
    assert (code, out) == (0, "PSD\n")
    code, out, _ = run(capsys, "psd", '{"matrix": [[1, 1.05], [1.05, 1]]}')
    assert code == 1 and out.startswith("NOT PSD")
    state = '{"orbit_values":{"1":0.5}}'
    cert_path = tmp_path / "cert.json"
    assert main(["refute", "--state", state, "-o", str(cert_path)]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "--tol", "1/10", "verify", "--state", state, "--cert", str(cert_path))
    assert (code, out) == (0, "ACCEPT\n")
    blob = json.loads(cert_path.read_text())
    blob["value"] *= 1.05  # within 1/10 relative, outside the default 1e-9
    code, out, _ = run(capsys, "--tol", "1/10", "verify", "--state", state, "--cert", json.dumps(blob))
    assert (code, out) == (0, "ACCEPT\n")
    code, out, _ = run(capsys, "verify", "--state", state, "--cert", json.dumps(blob))
    assert code == 1 and out.startswith("REJECT: negativity")


def test_refute_verify_full_corpus(capsys, tmp_path):
    for i, (j, p) in enumerate([(1, 0.9), (2, 0.9), (1, 0.5), (2, 0.5), (1, 0.2), (2, 0.2)]):
        state = json.dumps({"orbit_values": {str(j): p}})
        cert_path = tmp_path / f"cert{i}.json"
        assert main(["refute", "--state", state, "-o", str(cert_path)]) == 0
        assert main(["verify", "--state", state, "--cert", str(cert_path)]) == 0
    capsys.readouterr()


def test_refute_trace_is_consistent(capsys):
    code, out, _ = run(capsys, "refute", "--state", '{"orbit_values":{}}')
    assert code == 0
    assert json.loads(out)["consistent_with_trace"] is True


def test_refute_inline_output(capsys):
    code, out, _ = run(capsys, "refute", "--state", '{"orbit_values":{"1":1.5}}')
    assert code == 0
    blob = json.loads(out)
    assert blob["d"] == 1 and blob["value"] < 0


def test_usage_errors(capsys):
    code, _, err = run(capsys, "eval", "--state", '{"orbit_values":{"1":0.5}}', "W[1]")
    assert code == 2 and "arity" in err
    code, _, err = run(capsys, "nf", "/nonexistent/form.json")
    assert code == 2
    code, _, err = run(capsys, "verify", "--state", '{"orbit_values":{}}', "--cert", '{"nope": 1}')
    assert code == 2 and "malformed certificate" in err
    code, _, err = run(capsys, "nf", '{"matrix": [[0, 1.5], [-1.5, 0]]}')
    assert code == 2 and err.startswith("error: ")
    code, _, err = run(capsys, "gram", "--state", '{"orbit_values":{"1":0.5}}',
                       "--gens", "[[0,0],[1,1.5]]")
    assert code == 2 and err.startswith("error: ")
    # JSON of the wrong shape is a usage error too, not a traceback
    code, _, err = run(capsys, "nf", '{"matrix": 5}')
    assert code == 2 and err.startswith("error: ")
    for form in ('[[0,1],[-1,0]]', '[]'):
        code, out, err = run(capsys, "nf", form)
        assert code == 2 and out == "" and err.startswith('error: form JSON must be {"matrix"'), form
    code, _, err = run(capsys, "gram", "--state", '{"orbit_values":{}}', "--gens", "[5]")
    assert code == 2 and err.startswith("error: ")
    code, _, err = run(capsys, "--h", "0", "orbit", "1", "2")
    assert code == 2 and err.startswith("error: ")
    # psd entries are read exactly in both modes: "1/2" is a number, 1e400 is too
    # large for a float without --exact
    for mode in ([], ["--exact"]):
        code, out, _ = run(capsys, *mode, "psd", '{"matrix": [["1/2"]]}')
        assert (code, out) == (0, "PSD\n"), mode
    code, out, err = run(capsys, "psd", '{"matrix": [[1e400]]}')
    assert code == 2 and out == "" and err.startswith("error: ")
    # a zero denominator is a malformed number, wherever it is read
    code, out, err = run(capsys, "--h", "1/0", "orbit", "1", "1")
    assert code == 2 and out == "" and err.startswith("error: ")
    code, out, err = run(capsys, "refute", "--state", '{"orbit_values":{"1":"1/0"}}')
    assert code == 2 and out == "" and err.startswith("error: ")
    # a p whose certificate floats would overflow is a usage error, not a bare OverflowError
    code, out, err = run(capsys, "refute", "--state", '{"orbit_values":{"1":"1e400"}}')
    assert code == 2 and out == "" and err.startswith("error: orbit 1: |p| is too large")
    # a tolerance that is not finite or is negative decides nothing
    state = '{"orbit_values":{"1":0.5}}'
    code, out, _ = run(capsys, "refute", "--state", state)
    assert code == 0
    cert = json.loads(out)
    code, out, err = run(capsys, "verify", "--state", state,
                         "--cert", json.dumps({**cert, "epsilon": "1/0"}))
    assert code == 2 and out == "" and err.startswith("error: ")
    cert["value"] = -1e6  # the true value is -1.25; only an infinite tol could accept it
    for tol in ("nan", "inf", "-1e-9"):
        code, out, err = run(capsys, f"--tol={tol}", "psd", '{"matrix": [[1, 0], [0, 1]]}')
        assert code == 2 and out == "" and "tolerance" in err, tol
        code, out, err = run(capsys, f"--tol={tol}", "verify", "--state", state,
                             "--cert", json.dumps(cert))
        assert code == 2 and out == "" and "tolerance" in err, tol
    # --tol is checked for every command, also where it is not used
    for argv in (("--exact", "--tol", "nan", "psd", '{"matrix": [[1, 0], [0, 1]]}'),
                 ("--tol", "nan", "eval", "--state", state, "W[1,1]")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "tolerance" in err, argv
    # an empty matrix is rejected in both modes, with one message
    for mode in ((), ("--exact",)):
        code, out, err = run(capsys, *mode, "psd", '{"matrix": []}')
        assert code == 2 and out == "" and "at least one row" in err, mode
        code, out, err = run(capsys, *mode, "gram", "--state", state, "--gens", "[]")
        assert code == 2 and out == "" and "at least one row" in err, mode
    # a value too large for a float is a usage error where it is rounded
    huge = '{"orbit_values":{"1":1e400}}'
    for argv in (("eval", "--state", huge, "W[1,1]"), ("refute", "--state", huge),
                 ("gram", "--state", huge, "--gens", "[[0,0],[1,1]]"),
                 ("psd", '{"matrix":[[1e400]]}')):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error: "), argv[0]


def test_malformed_state_values(capsys):
    for state in ('{"orbit_values": [1, 2]}', '{"orbit_values": {"1": null}}',
                  '{"orbit_values": {"1.5": 0.3}}', '{"orbit_values": {"1": 0.5, "01": 0.3}}'):
        code, out, err = run(capsys, "refute", "--state", state)
        assert code == 2, state
        assert out == "" and err.startswith("error: ")


def test_budget_exhaustion_exit_code(capsys):
    code, _, err = run(capsys, "refute", "--state", '{"orbit_values":{"1":0.000001}}')
    assert code == 3
    assert "budget" in err


def test_undecided_clause_exit_code(capsys, monkeypatch, tmp_path):
    # an error bound wider than any precision the doublings reach leaves the clause
    # undecided: refute and verify both exit 3 with the reason on stderr
    state = '{"orbit_values":{"1":0.5}}'
    cert = tmp_path / "cert.json"
    assert run(capsys, "refute", "--state", state, "-o", str(cert))[0] == 0
    monkeypatch.setattr("nctorus.circle.PI_ERROR", 1 << 100000)
    for argv in (["refute", "--state", state], ["verify", "--state", state, "--cert", str(cert)]):
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == "" and err.startswith("error: ") and "undecided" in err


def test_margin_failure_exit_code(capsys, monkeypatch):
    from nctorus.certificate import RefutationMarginError

    def degenerate(*args, **kwargs):
        raise RefutationMarginError("negativity margin stayed above -1e-6")

    monkeypatch.setattr("nctorus.cli.refute", degenerate)
    code, out, err = run(capsys, "refute", "--state", '{"orbit_values":{"1":0.5}}')
    assert code == 4
    assert out == "" and err.startswith("error: ") and "margin" in err


def test_psd_complex_entries(capsys, tmp_path):
    mat = tmp_path / "cplx.json"
    mat.write_text(json.dumps({"matrix": [[1, [0, 0.5]], [[0, -0.5], 1]]}))
    code, out, _ = run(capsys, "psd", str(mat))
    assert code == 0 and "PSD" in out
    code, out, _ = run(capsys, "--exact", "psd", str(mat))
    assert code == 0 and "PSD" in out


def test_gram_exact_text_output(capsys):
    code, out, _ = run(capsys, "--exact", "gram", "--state", '{"orbit_values":{"1":0.5}}',
                       "--gens", "[[0,0],[1,1],[2,2]]")
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 3 and rows[0].split("  ")[0] == "1"


def test_custom_h_flag(capsys):
    code, out, _ = run(capsys, "--h", "0.5", "--json", "eval",
                       "--state", '{"orbit_values":{"1":1}}', "W[1,0]*W[0,1]")
    assert code == 0
    got = complex(*json.loads(out)["value"])
    import cmath

    assert abs(got - cmath.exp(0.5j)) < 1e-12


PIN_STATE = '{"orbit_values":{"1":0.5,"2":-0.25}}'
PIN_GRAM_ROUNDED = [
    "+1+0i  +0.5+0i  +0.5+0i  +0.5+0i",
    "+0.5+0i  +1+0i  +0.270151152934-0.420735492404i  +0.270151152934-0.420735492404i",
    "+0.5+0i  +0.270151152934+0.420735492404i  +1+0i  +0.270151152934+0.420735492404i",
    "+0.5+0i  +0.270151152934+0.420735492404i  +0.270151152934-0.420735492404i  +1+0i",
]
PIN_GRAM_EXACT = [
    "1  1/2  1/2  1/2",
    "1/2  1  1/2*z^-1  1/2*z^-1",
    "1/2  1/2*z^1  1  1/2*z^1",
    "1/2  1/2*z^1  1/2*z^-1  1",
]
PIN_GRAM_JSON = (
    '{"matrix": [[[1.0, 0.0], [0.5, 0.0], [0.5, 0.0], [0.5, 0.0]], '
    '[[0.5, 0.0], [1.0, 0.0], [0.2701511529340699, -0.42073549240394825], '
    '[0.2701511529340699, -0.42073549240394825]], '
    '[[0.5, 0.0], [0.2701511529340699, 0.42073549240394825], [1.0, 0.0], '
    '[0.2701511529340699, 0.42073549240394825]], '
    '[[0.5, 0.0], [0.2701511529340699, 0.42073549240394825], '
    '[0.2701511529340699, -0.42073549240394825], [1.0, 0.0]]]}'
)


@pytest.mark.parametrize("mode, lines", [
    ((), PIN_GRAM_ROUNDED),
    (("--exact",), PIN_GRAM_EXACT),
    (("--json",), [PIN_GRAM_JSON]),
    (("--json", "--exact"), [PIN_GRAM_JSON]),
])
def test_gram_output_is_pinned(capsys, mode, lines):
    code, out, _ = run(capsys, *mode, "gram", "--state", PIN_STATE,
                       "--gens", "[[0,0],[1,0],[0,1],[1,1]]")
    assert code == 0
    assert out == "".join(line + "\n" for line in lines)


def test_eval_exact_output_is_pinned(capsys):
    expr = "(1+2i z^3) * W[1,0] * W[0,1]^* + 1/3 z^-1 * W[2,2]"
    code, out, _ = run(capsys, "--exact", "eval", "--state", PIN_STATE, expr)
    assert code == 0
    assert out == ("exact: -1/12*z^-1 + 1/2*z^2 + 1*z^2*e(1/4)\n"
                   "value: -1.1623960372549311 + 0.10862445893302299i\n")
    code, out, _ = run(capsys, "--json", "--exact", "eval", "--state", PIN_STATE, expr)
    assert code == 0
    assert out == ('{"value": [-1.1623960372549311, 0.10862445893302299], '
                   '"value_exact": "-1/12*z^-1 + 1/2*z^2 + 1*z^2*e(1/4)"}\n')
    # without --exact the same value is printed, and only the value
    code, out, _ = run(capsys, "eval", "--state", PIN_STATE, expr)
    assert out == "value: -1.1623960372549311 + 0.10862445893302299i\n"


PIN_PSD_MATRICES = {
    "psd": '{"matrix": [[1, 0.5], [0.5, 1]]}',
    "not_psd": '{"matrix": [[1, 2], [2, 1]]}',
    "complex": '{"matrix": [[2, [0, 1.5]], [[0, -1.5], 1]]}',
}
# (matrix, --json, --exact, --tol or None for the default) -> (exit code, stdout)
PIN_PSD = {
    ("psd", False, False, None): (0, "PSD\n"),
    ("psd", False, False, "0.25"): (0, "PSD\n"),
    ("psd", False, True, None): (0, "PSD\n"),
    ("psd", False, True, "0.25"): (0, "PSD\n"),
    ("psd", True, False, None): (0, '{"psd": true}\n'),
    ("psd", True, False, "0.25"): (0, '{"psd": true}\n'),
    ("psd", True, True, None): (0, '{"psd": true}\n'),
    ("psd", True, True, "0.25"): (0, '{"psd": true}\n'),
    ("not_psd", False, False, None):
        (1, "NOT PSD: value -1.200000e+01 at witness [[-3.999999996, 0.0], [2.0, 0.0]]\n"),
    ("not_psd", False, False, "0.25"):
        (1, "NOT PSD: value -1.136000e+01 at witness [[-3.2, 0.0], [2.0, 0.0]]\n"),
    ("not_psd", False, True, None):
        (1, "NOT PSD: value -1.200000e+01 at witness [[-4.0, 0.0], [2.0, 0.0]]\n"),
    ("not_psd", False, True, "0.25"):
        (1, "NOT PSD: value -1.200000e+01 at witness [[-4.0, 0.0], [2.0, 0.0]]\n"),
    ("not_psd", True, False, None):
        (1, '{"psd": false, "witness": [[-3.999999996, 0.0], [2.0, 0.0]], "value": -12.0}\n'),
    ("not_psd", True, False, "0.25"):
        (1, '{"psd": false, "witness": [[-3.2, 0.0], [2.0, 0.0]], "value": -11.36}\n'),
    ("not_psd", True, True, None):
        (1, '{"psd": false, "witness": [[-4.0, 0.0], [2.0, 0.0]], "value": -12.0}\n'),
    ("not_psd", True, True, "0.25"):
        (1, '{"psd": false, "witness": [[-4.0, 0.0], [2.0, 0.0]], "value": -12.0}\n'),
    ("complex", False, False, None):
        (1, "NOT PSD: value -2.000000e+00 at witness [[0.0, -2.9999999985], [4.0, 0.0]]\n"),
    ("complex", False, False, "0.25"): (0, "PSD\n"),
    ("complex", False, True, None):
        (1, "NOT PSD: value -1.125000e+00 at witness [[0.0, -2.25], [3.0, 0.0]]\n"),
    ("complex", False, True, "0.25"):
        (1, "NOT PSD: value -1.125000e+00 at witness [[0.0, -2.25], [3.0, 0.0]]\n"),
    ("complex", True, False, None):
        (1, '{"psd": false, "witness": [[0.0, -2.9999999985], [4.0, 0.0]], "value": -2.0}\n'),
    ("complex", True, False, "0.25"): (0, '{"psd": true}\n'),
    ("complex", True, True, None):
        (1, '{"psd": false, "witness": [[0.0, -2.25], [3.0, 0.0]], "value": -1.125}\n'),
    ("complex", True, True, "0.25"):
        (1, '{"psd": false, "witness": [[0.0, -2.25], [3.0, 0.0]], "value": -1.125}\n'),
}


def test_psd_output_is_pinned(capsys):
    # --exact decides H itself; otherwise H + tol*I is decided, and a witness
    # reports its value on the unshifted matrix
    for (name, as_json, exact, tol), want in PIN_PSD.items():
        argv = (["--json"] * as_json + ["--exact"] * exact
                + ([f"--tol={tol}"] if tol else []) + ["psd", PIN_PSD_MATRICES[name]])
        code, out, _ = run(capsys, *argv)
        assert (code, out) == want, argv
