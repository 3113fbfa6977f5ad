import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wallx
from wallx import cli, series
from wallx.a1model import build_a1

from conftest import GOLDEN, GOLDEN_RUNS, model_lattice, two_gen_lattice


def _poly_obj(terms):
    return [{"exponent": list(e), "coeff": str(c)} for e, c in terms]


def _element_obj(*terms):
    return [{"class": {"r": r, "beta": list(b), "c": list(c)},
             "coeff": str(q)} for r, b, c, q in terms]


_GEOMETRIC = {"numerator": _poly_obj([((0,), 1)]),
              "denominator": _poly_obj([((0,), 1), ((1,), -1)])}
_GEOMETRIC2 = {"numerator": _poly_obj([((0, 0), 1)]),
               "denominator": _poly_obj([((0, 0), 1), ((1, 0), -1)])}


def _geometric_series_obj(functional, bound, coeffs):
    return {"window": {"functional": functional, "bound": str(bound)},
            "terms": [{"exponent": [m], "coeff": str(c)} for m, c in coeffs]}


def _write_doc(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _run(tmp_path, capsys, doc, extra=()):
    status = cli.main(["--input", _write_doc(tmp_path, doc), *extra])
    return status, capsys.readouterr().out


def _series_coeffs(report):
    return {tuple(t["exponent"]): t["coeff"]
            for t in report["series"]["terms"]}


# -- golden documents ---------------------------------------------------------

@pytest.mark.parametrize("name, argv, code, out", GOLDEN_RUNS,
                         ids=[run[3] for run in GOLDEN_RUNS])
def test_golden_output_bytes_are_pinned(name, argv, code, out, capsys):
    status = cli.main(["--input", str(GOLDEN / f"{name}.json"), *argv])
    assert status == code
    assert capsys.readouterr().out == (GOLDEN / f"{out}.out").read_text()


# -- expand / verify ----------------------------------------------------------

def test_expand_geometric_series(tmp_path, capsys):
    doc = {"kind": "expand", "f": _GEOMETRIC,
           "window": {"functional": [1], "bound": "5"}}
    status, out = _run(tmp_path, capsys, doc)
    assert status == 0
    report = json.loads(out)
    assert report["kind"] == "expand"
    assert report["tool"]["name"] == "wallx"
    assert _series_coeffs(report) == {(m,): "1" for m in range(6)}


def test_expand_window_flag_overrides_bound(tmp_path, capsys):
    doc = {"kind": "expand", "f": _GEOMETRIC,
           "window": {"functional": [1], "bound": "2"}}
    status, out = _run(tmp_path, capsys, doc, ("--window", "8"))
    assert status == 0
    assert _series_coeffs(json.loads(out)) == {(m,): "1" for m in range(9)}


@pytest.mark.parametrize("base", [[0, 0, 0], [0]])
def test_expand_coset_of_another_length_exits_two(tmp_path, capsys, base):
    doc = {"kind": "expand", "f": _GEOMETRIC2,
           "window": {"functional": [1, "1/2"], "bound": "4",
                      "coset": {"base": base, "generators": [[1] + [0] * (len(base) - 1)]}}}
    status, out = _run(tmp_path, capsys, doc)
    assert status == 2
    assert json.loads(out)["error"] == {
        "message": "coset length does not match the functional arity",
        "path": "document.window.coset"}


def test_expand_output_is_byte_deterministic(tmp_path, capsys):
    doc = {"kind": "expand", "f": _GEOMETRIC,
           "window": {"functional": [1], "bound": "4"}}
    _, first = _run(tmp_path, capsys, doc)
    _, second = _run(tmp_path, capsys, doc)
    assert first == second


def test_expand_huge_window_hits_budget(tmp_path, capsys):
    doc = {"kind": "expand", "f": _GEOMETRIC,
           "window": {"functional": [1], "bound": "4"}}
    status, out = _run(tmp_path, capsys, doc, ("--window", "1e400"))
    assert status == 2
    assert "work budget exceeded" in json.loads(out)["error"]["message"]


def test_verify_accepts_and_rejects(tmp_path, capsys):
    good = [{"exponent": [m], "coeff": "1"} for m in range(5)]
    window = {"functional": [1], "bound": "4"}
    doc = {"kind": "verify", "f": _GEOMETRIC,
           "series": {"window": window, "terms": good}}
    status, out = _run(tmp_path, capsys, doc)
    assert status == 0 and json.loads(out)["verified"] is True
    bad = dict(doc, series={"window": window,
                            "terms": good[:-1] + [{"exponent": [4],
                                                   "coeff": "7"}]})
    status, out = _run(tmp_path, capsys, bad)
    assert status == 1 and json.loads(out)["verified"] is False


# -- resum / detect -----------------------------------------------------------

def _constant_qp_obj():
    return {"vars": 1, "period": 1,
            "table": [{"residues": [0],
                       "poly": [{"exponent": [0], "coeff": "1"}]}]}


def test_resum_orthant_geometric(tmp_path, capsys):
    doc = {"kind": "resum", "quasipoly": _constant_qp_obj(),
           "monomials": [[1]], "grading": [1]}
    status, out = _run(tmp_path, capsys, doc)
    assert status == 0
    rf = json.loads(out)["rational_function"]
    assert rf["numerator"] == [{"exponent": [0], "coeff": "1"}]
    assert rf["denominator"] == [{"exponent": [0], "coeff": "1"},
                                 {"exponent": [1], "coeff": "-1"}]


def test_resum_chain_pattern_agrees_with_orthant(tmp_path, capsys):
    base = {"kind": "resum", "quasipoly": _constant_qp_obj(),
            "monomials": [[1]], "grading": [1]}
    _, plain = _run(tmp_path, capsys, base)
    _, chained = _run(tmp_path, capsys,
                      dict(base, pattern={"equalities": []}))
    assert json.loads(plain)["rational_function"] == \
        json.loads(chained)["rational_function"]


def test_resum_group_document(tmp_path, capsys):
    doc = {"kind": "resum", "lattice": build_a1().lattice.to_obj(),
           "group": {"alpha_prime": {"r": -1, "beta": [0], "c": [1, 2]},
                     "betas": [], "kappas": [], "J_values": [],
                     "DT_value": "5/3", "delta0": "0"}}
    status, out = _run(tmp_path, capsys, doc)
    assert status == 0
    report = json.loads(out)
    assert report["lattice_fingerprint"] == build_a1().lattice.fingerprint()
    rf = report["rational_function"]
    assert rf["numerator"] == [{"exponent": [1, 2], "coeff": "5/3"}]
    assert rf["denominator"] == [{"exponent": [0, 0], "coeff": "1"}]


@pytest.mark.parametrize("poly, path, message", [
    ([{"exponent": [0, 1], "coeff": "1"}],
     "document.quasipoly.table[0].poly[0].exponent", "expected 1 entries, got 2"),
    ([{"exponent": [0], "coeff": 0.5}],
     "document.quasipoly.table[0].poly[0].coeff",
     'floats are not accepted; use a "p/q" string'),
    ({"exponent": [0], "coeff": "1"},
     "document.quasipoly.table[0].poly", "expected a list of terms"),
])
def test_resum_malformed_table_poly_exits_two(tmp_path, capsys, poly, path, message):
    qp = {"vars": 1, "period": 1, "table": [{"residues": [0], "poly": poly}]}
    doc = {"kind": "resum", "quasipoly": qp, "monomials": [[1]], "grading": [1]}
    status, out = _run(tmp_path, capsys, doc)
    assert status == 2
    assert json.loads(out)["error"] == {"path": path, "message": message}


def _alt(m):
    return -1 if m % 2 else 1


def test_detect_finds_period_two_fit(tmp_path, capsys):
    doc = {"kind": "detect",
           "samples": [{"n": n, "value": str(_alt(n) * (3 * n - 9))}
                       for n in range(-8, 13)]}
    status, out = _run(tmp_path, capsys, doc)
    assert status == 0
    report = json.loads(out)
    assert report["found"] is True
    assert report["fit"]["period"] == 2


def test_detect_no_fit_exits_one(tmp_path, capsys):
    doc = {"kind": "detect",
           "samples": [{"n": n, "value": str(2 ** n)} for n in range(13)]}
    status, out = _run(tmp_path, capsys, doc)
    assert status == 1
    report = json.loads(out)
    assert report["found"] is False and report["fit"] is None


_FIT_GOLDEN = [("detect_fit", 0), ("detect_nofit", 1),
               ("reexpand_confirmed", 0), ("reexpand_rejected", 1)]


def test_reexpand_looks_up_no_coefficient(monkeypatch, capsys):
    # each coset's differences come from one pass over both series' stored
    # terms, not from a lookup per sample
    def coeff(self, key):
        raise AssertionError("coeff called")

    monkeypatch.setattr(series._Sparse, "coeff", coeff)
    status = cli.main(["--input", str(GOLDEN / "reexpand_confirmed.json")])
    assert status == 0
    assert capsys.readouterr().out == (GOLDEN / "reexpand_confirmed.out").read_text()


def _child_env():
    """Environment that makes this wallx importable in ``python -m wallx``."""
    return {**os.environ,
            "PYTHONPATH": str(Path(wallx.__file__).resolve().parents[1])}


@pytest.mark.parametrize("limit", ["max_period", "max_degree"])
@pytest.mark.parametrize("name, code", _FIT_GOLDEN)
def test_huge_fit_limits_answer_promptly(tmp_path, name, code, limit):
    # the sample count bounds both loops, whatever the document asks for
    doc = json.loads((GOLDEN / f"{name}.json").read_text())
    doc[limit] = 10 ** 9
    proc = subprocess.run([sys.executable, "-m", "wallx", "--input",
                           _write_doc(tmp_path, doc)], env=_child_env(),
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == code
    assert proc.stdout == (GOLDEN / f"{name}.out").read_text()


def test_long_linear_detect_answers_promptly(tmp_path):
    # a class's polynomial is built from its first d + 1 differences only,
    # not from one per sample
    doc = {"kind": "detect",
           "samples": [{"n": n, "value": str(3 * n - 9)} for n in range(40000)]}
    proc = subprocess.run([sys.executable, "-m", "wallx", "--input",
                           _write_doc(tmp_path, doc)], env=_child_env(),
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0
    fit = json.loads(proc.stdout)["fit"]
    assert fit["period"] == 1
    assert fit["table"] == [{"residues": [0], "poly": [
        {"exponent": [0], "coeff": "-9"}, {"exponent": [1], "coeff": "3"}]}]


def _group_doc(r):
    """The resum_group golden with r positions of beta (1, 0), all on one wall."""
    doc = json.loads((GOLDEN / "resum_group.json").read_text())
    doc["group"].update(betas=[[1, 0]] * r, kappas=[[0]] * r,
                        equalities=list(range(1, r)), J_values=["1"] * r)
    return doc


def _column_cosets_doc(n):
    """reexpand of the sum of q2^k over k < n: n cosets of Z (1, 0), each
    sampled at about 200,000 points."""
    terms = [{"exponent": [0, k], "coeff": "1"} for k in range(n)]

    def series(functional):
        return {"window": {"functional": functional, "bound": "100000"},
                "terms": terms}

    return {"kind": "reexpand", "c0": [1, 0],
            "f": {"numerator": terms, "denominator": _poly_obj([((0, 0), 1)])},
            "s_minus": series([-1, "1/1000"]), "s_plus": series([1, "1/1000"])}


_HUGE_DOCS = {
    # an effective cone of 10**9 + 1 classes below the cap
    "beta_cap": ({"kind": "bracket", "lattice": model_lattice().to_obj(),
                  "x": _element_obj((-1, (0,), (0, 0), 1)),
                  "y": _element_obj((0, (1,), (0, 0), 1)),
                  "truncation": {"beta_cap": [10 ** 9]}},
                 "work budget exceeded: effective cone"),
    # a degree-10000 table: a box of 10001 points, differenced 10001 times
    "resum_degree": ({"kind": "resum", "monomials": [[1]], "grading": [1],
                      "quasipoly": {"vars": 1, "period": 1, "table": [{
                          "residues": [0],
                          "poly": [{"exponent": [10000], "coeff": "1"}]}]}},
                     "work budget exceeded: resummation"),
    # a billion-digit integer, were the exponent taken literally
    "decimal_exponent": ({"kind": "expand", "f": _GEOMETRIC,
                          "window": {"functional": [1], "bound": "1e1000000000"}},
                         "decimal exponent beyond 4300"),
    # the same exponent in Arabic-Indic digits, all of them or all but the
    # first, which Fraction reads as it reads ASCII digits
    "decimal_exponent_unicode": ({"kind": "expand", "f": _GEOMETRIC, "window": {
        "functional": [1], "bound": "1e\u0661" + "\u0660" * 9}},
                                 "decimal exponent beyond 4300"),
    "decimal_exponent_mixed": ({"kind": "expand", "f": _GEOMETRIC, "window": {
        "functional": [1], "bound": "1e1" + "\u0660" * 9}},
                               "decimal exponent beyond 4300"),
    # a coset of 10**9 + 9 samples, more than detection could ever difference
    "reexpand_window": ({"kind": "reexpand", "f": _GEOMETRIC, "c0": [1],
                         "s_minus": _geometric_series_obj(
                             [-1], 8, [(m, -1) for m in range(-8, 0)]),
                         "s_plus": _geometric_series_obj(
                             [1], "1e9", [(m, 1) for m in range(4)])},
                        "work budget exceeded: detection"),
    # 100 cosets of about 200,000 samples each, within budget one at a time
    "reexpand_cosets": (_column_cosets_doc(100),
                        "work budget exceeded: detection took 1000000"),
    # one table entry where 14**7, about 10**8, residue tuples are due
    "residue_table": ({"kind": "resum", "monomials": [[1]] * 7, "grading": [1],
                       "quasipoly": {"vars": 7, "period": 14, "table": [{
                           "residues": [0] * 7,
                           "poly": [{"exponent": [0] * 7, "coeff": "1"}]}]}},
                      "residue table must cover every residue tuple"),
    # 12 chain positions: a weight product of 4096 terms, signed 4096 times
    "group_weights": (_group_doc(12), "work budget exceeded: resummation weights"),
}


@pytest.mark.parametrize("name", sorted(_HUGE_DOCS))
def test_huge_documents_exit_two_promptly(tmp_path, name):
    doc, message = _HUGE_DOCS[name]
    proc = subprocess.run([sys.executable, "-m", "wallx", "--input",
                           _write_doc(tmp_path, doc)], env=_child_env(),
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"]["message"].startswith(message)


# stage, a lowered limit, a document past it, and the whole error report
_PAST_BUDGET = {
    "division": ("division", 50, {"kind": "expand", "f": _GEOMETRIC,
                                  "window": {"functional": [1], "bound": "1000"}},
                 "long division took 50 steps short of the window bound", None),
    "detection": ("detection", 500, {"kind": "detect", "max_period": 10 ** 9,
                                     "max_degree": 10 ** 9, "samples": [
                                         {"n": n, "value": int(n == 39)} for n in range(40)]},
                  "detection took 500 differenced entries", None),
    "detection_reexpand": ("detection", 15, _HUGE_DOCS["reexpand_window"][0],
                           "detection took 15 differenced entries", None),
    "resummation": ("resummation", 99, {
        "kind": "resum", "monomials": [[1]], "grading": [1],
        "quasipoly": {"vars": 1, "period": 1, "table": [{
            "residues": [0], "poly": [{"exponent": [9], "coeff": "1"}]}]}},
        "resummation box needs more than 99 differenced entries", None),
    "cone": ("cone", 50, {"kind": "bracket", "lattice": model_lattice().to_obj(),
                          "x": [], "y": [], "truncation": {"beta_cap": [100]}},
             "effective cone took 50 classes short of l = 200", "document.truncation"),
    "exp_ad": ("exp_ad", 5, {"kind": "exp-ad", "lattice": model_lattice().to_obj(),
                             "w": _element_obj((0, (0,), (1, 0), 1)),
                             "x": _element_obj((-1, (0,), (0, 0), 1)),
                             "truncation": {"beta_cap": [0], "deg_cap": "40"}},
               "exp_ad took 5 rounds short of nilpotency", None),
    "weights": ("weights", 100, _group_doc(3),
                "resummation weights need more than 100 exponent entries", None),
}


@pytest.mark.parametrize("name", sorted(_PAST_BUDGET))
def test_budget_error_reports_are_pinned(tmp_path, capsys, set_budget, name):
    stage, limit, doc, message, path = _PAST_BUDGET[name]
    set_budget(stage, limit)
    status, out = _run(tmp_path, capsys, doc)
    assert status == 2
    assert json.loads(out)["error"] == {
        "message": f"work budget exceeded: {message}", "path": path}


def test_huge_decimal_exponent_is_rejected_at_its_path(tmp_path, capsys):
    doc, _ = _HUGE_DOCS["decimal_exponent"]
    status, out = _run(tmp_path, capsys, doc)
    assert status == 2
    assert json.loads(out)["error"] == {
        "message": "decimal exponent beyond 4300 in absolute value",
        "path": "document.window.bound"}
    for bound in ("1e\u0661" + "\u0660" * 5, "1e1" + "\u0660" * 5,
                  "1e-\u0664\u0663\u0660\u0661", " 1e0" + "0" * 5000 + "1 "):
        status, out = _run(tmp_path, capsys, dict(doc, window={
            "functional": [1], "bound": bound}))
        assert status == 2
        assert json.loads(out)["error"]["path"] == "document.window.bound"
    for bound in ("1e4300", "1e-4300", "1.5E+0_0300", "1e\u0664\u0663\u0660\u0660"):
        assert _run(tmp_path, capsys, dict(doc, window={
            "functional": [1], "bound": bound}), ("--window", "3"))[0] == 0


def test_result_beyond_int_string_limit_exits_two(tmp_path, capsys):
    # every coefficient is 10**4300, one digit more than str(int) will write
    doc = {"kind": "expand", "window": {"functional": [1], "bound": "3"},
           "f": dict(_GEOMETRIC, numerator=_poly_obj([((0,), "1e4300")]))}
    status, out = _run(tmp_path, capsys, doc)
    assert status == 2
    assert json.loads(out)["error"] == {
        "message": "result has a rational beyond Python's 4300-digit limit "
                   "on integer strings", "path": None}
    status, out = _run(tmp_path, capsys, dict(doc, f=dict(
        _GEOMETRIC, numerator=_poly_obj([((0,), "1e4299")]))))
    assert status == 0
    assert _series_coeffs(json.loads(out))[(3,)] == "1" + "0" * 4299


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_report_integer_beyond_int_string_limit_exits_two(tmp_path, capsys, fmt):
    # each class component has 4,300 digits; their sum has 4,301
    x = _element_obj((0, (0, 0), (10**4300 - 1,), 1))
    doc = {"kind": "bracket", "operation": "naive",
           "lattice": two_gen_lattice().to_obj(), "x": x, "y": x}
    status, out = _run(tmp_path, capsys, doc, ("--format", fmt))
    assert status == 2
    assert json.loads(out)["error"] == {
        "message": "result has an integer beyond Python's 4300-digit limit "
                   "on integer strings", "path": None}


@pytest.mark.parametrize("text, message", [
    ('{"kind": "expand", "x": ' + "7" * 5000 + "}", "invalid JSON: Exceeds the limit"),
    ("[" * 100000, "invalid JSON: maximum recursion depth exceeded"),
], ids=["long_int", "deep_nest"])
def test_unreadable_json_exits_two(tmp_path, capsys, text, message):
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert cli.main(["--input", str(path)]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["message"].startswith(message) and error["path"] == "document"


def test_undecodable_input_exits_two(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_bytes(b'{"kind": "\xff"}')
    assert cli.main(["--input", str(path)]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["message"].startswith("cannot read input: 'utf-8' codec")
    assert error["path"] == "--input"


def test_closed_stdout_exits_three(tmp_path):
    # about 3 MB of report, far more than a pipe buffers, so the child is
    # still writing when the reader goes away
    doc = {"kind": "expand", "f": _GEOMETRIC,
           "window": {"functional": [1], "bound": "50000"}}
    with subprocess.Popen([sys.executable, "-m", "wallx", "--input",
                           _write_doc(tmp_path, doc)], env=_child_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.read(5) == b'{\n  "'
        proc.stdout.close()
        assert proc.wait(timeout=60) == 3
        assert proc.stderr.read() == b""


def test_internal_error_exits_three(tmp_path, capsys, monkeypatch):
    def broken(doc, opts):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._HANDLERS, "detect", broken)
    status, out = _run(tmp_path, capsys, {"kind": "detect"})
    assert status == 3
    assert json.loads(out) == {"error": {
        "message": "internal error: RuntimeError: boom", "path": None}}


# -- poisson kinds ------------------------------------------------------------

def test_bracket_and_naive_differ_by_sign(tmp_path, capsys):
    doc = {"kind": "bracket", "lattice": build_a1().lattice.to_obj(),
           "x": _element_obj((0, (1,), (0, 0), 1)),
           "y": _element_obj((-1, (0,), (0, 0), 1))}
    status, out = _run(tmp_path, capsys, doc)
    assert status == 0
    report = json.loads(out)
    assert report["operation"] == "bracket"
    assert report["element"] == _element_obj((-1, (1,), (0, 0), -1))
    status, out = _run(tmp_path, capsys, dict(doc, operation="naive"))
    assert status == 0
    assert json.loads(out)["element"] == _element_obj((-1, (1,), (0, 0), 1))


def test_bracket_with_deep_beta_cap(tmp_path, capsys):
    doc = {"kind": "bracket", "lattice": model_lattice().to_obj(),
           "x": _element_obj((-1, (0,), (0, 0), 1)),
           "y": _element_obj((0, (1,), (0, 0), 1)),
           "truncation": {"beta_cap": [5000]}}
    status, out = _run(tmp_path, capsys, doc)
    assert status == 0
    assert json.loads(out)["element"] == _element_obj((-1, (1,), (0, 0), 1))


def test_exp_ad_document(tmp_path, capsys):
    doc = {"kind": "exp-ad", "lattice": build_a1().lattice.to_obj(),
           "w": _element_obj((0, (1,), (1, 0), 1)),
           "x": _element_obj((-1, (0,), (0, 0), 1)),
           "truncation": {"beta_cap": [2]}}
    status, out = _run(tmp_path, capsys, doc)
    assert status == 0
    assert json.loads(out)["element"] == _element_obj(
        (-1, (0,), (0, 0), 1), (-1, (1,), (1, 0), 2), (-1, (2,), (2, 0), 2))


def test_exp_ad_requires_truncation(tmp_path, capsys):
    doc = {"kind": "exp-ad", "lattice": build_a1().lattice.to_obj(),
           "w": _element_obj((0, (1,), (1, 0), 1)),
           "x": _element_obj((-1, (0,), (0, 0), 1))}
    status, out = _run(tmp_path, capsys, doc)
    assert status == 2
    assert json.loads(out)["error"]["path"] == "document.truncation"


def test_exp_ad_round_budget_exits_two(tmp_path, capsys, set_budget):
    # a point wall is nilpotent only through the degree cap: 40 rounds here
    set_budget("exp_ad", 5)
    doc = {"kind": "exp-ad", "lattice": model_lattice().to_obj(),
           "w": _element_obj((0, (0,), (1, 0), 1)),
           "x": _element_obj((-1, (0,), (0, 0), 1)),
           "truncation": {"beta_cap": [0], "deg_cap": "40"}}
    status, out = _run(tmp_path, capsys, doc)
    assert status == 2
    assert json.loads(out)["error"]["message"].startswith("work budget exceeded")
    # 40 nonzero rounds, then one that brackets to zero
    set_budget("exp_ad", 41)
    status, out = _run(tmp_path, capsys, doc)
    assert status == 0
    element = json.loads(out)["element"]
    assert len(element) == 41
    assert element[-1]["coeff"] == f"1/{math.factorial(40)}"


def test_wallcross_document(tmp_path, capsys):
    doc = {"kind": "wallcross", "lattice": build_a1().lattice.to_obj(),
           "seed": {"element": _element_obj((-1, (0,), (0, 0), 1))},
           "walls": [{"slope": "1/2",
                      "J": _element_obj((0, (1,), (1, 0), 2))}],
           "truncation": {"beta_cap": [1]}}
    status, out = _run(tmp_path, capsys, doc)
    assert status == 0
    report = json.loads(out)
    assert report["seed"]["label"] == "past 1/2"
    assert report["seed"]["element"] == _element_obj(
        (-1, (0,), (0, 0), 1), (-1, (1,), (1, 0), 4))


# -- dtpt / dualize / reexpand ------------------------------------------------

def test_dtpt_document_reproduces_ratio(tmp_path, capsys):
    model = build_a1()
    from wallx.series import rational_function_to_obj
    doc = {"kind": "dtpt",
           "dt": rational_function_to_obj(model.orbifold_layer),
           "dt_zero": rational_function_to_obj(model.point_row),
           "window": {"functional": [1, 1], "bound": "12"}}
    status, out = _run(tmp_path, capsys, doc)
    assert status == 0
    coeffs = _series_coeffs(json.loads(out))
    assert coeffs[(4, 4)] == "3" and coeffs[(5, 4)] == "-6"
    assert (3, 4) not in coeffs


def test_dualize_class_swaps_point_coordinates(tmp_path, capsys):
    doc = {"kind": "dualize", "lattice": cli._selfcheck_lattice().to_obj(),
           "class": {"r": 0, "beta": [1], "c": [1, 0]}}
    status, out = _run(tmp_path, capsys, doc)
    assert status == 0
    assert json.loads(out)["image"] == {"r": 0, "beta": [1], "c": [0, 1]}


def test_dualize_family_pass_and_fail(tmp_path, capsys):
    palindromic = {
        "numerator": _poly_obj([((1, 0), 1), ((0, 1), 1)]),
        "denominator": _poly_obj([((0, 0), 1), ((1, 1), -1)])}
    doc = {"kind": "dualize", "lattice": cli._selfcheck_lattice().to_obj(),
           "family": [{"beta": [1], "f": palindromic}]}
    status, out = _run(tmp_path, capsys, doc)
    assert status == 0 and json.loads(out)["all_ok"] is True
    skew = {"numerator": _poly_obj([((1, 0), 2), ((0, 1), 1)]),
            "denominator": _poly_obj([((0, 0), 1)])}
    doc = {"kind": "dualize", "lattice": cli._selfcheck_lattice().to_obj(),
           "family": [{"beta": [1], "f": skew}]}
    status, out = _run(tmp_path, capsys, doc)
    assert status == 1
    report = json.loads(out)
    assert report["all_ok"] is False
    assert report["entries"][0]["first_discrepancy"] == {
        "exponent": [0, 1], "coeff": "1"}


def test_reexpand_confirms_geometric(tmp_path, capsys):
    doc = {"kind": "reexpand", "f": _GEOMETRIC,
           "s_minus": _geometric_series_obj([-1], 8,
                                            [(m, -1) for m in range(-8, 0)]),
           "s_plus": _geometric_series_obj([1], 8,
                                           [(m, 1) for m in range(9)]),
           "c0": [1]}
    status, out = _run(tmp_path, capsys, doc)
    assert status == 0
    report = json.loads(out)
    assert report["confirmed"] is True and report["all_fit"] is True
    assert len(report["cosets"]) == 1
    fit = report["cosets"][0]["fit"]
    assert fit["period"] == 1
    assert fit["table"][0]["poly"] == [{"exponent": [0], "coeff": "1"}]


def test_reexpand_rejects_corrupted_candidate(tmp_path, capsys):
    coeffs = [(m, 1) for m in range(9)]
    coeffs[4] = (4, 5)
    doc = {"kind": "reexpand", "f": _GEOMETRIC,
           "s_minus": _geometric_series_obj([-1], 8,
                                            [(m, -1) for m in range(-8, 0)]),
           "s_plus": _geometric_series_obj([1], 8, coeffs),
           "c0": [1]}
    status, out = _run(tmp_path, capsys, doc)
    assert status == 1
    assert json.loads(out)["confirmed"] is False


def test_reexpand_coset_of_one_sample_fits_nothing(tmp_path, capsys):
    # 1/(1 - x) in two variables plus a stray 7 at [0, 4], whose coset of
    # Z (1, 0) holds the one sample k = 0: unconfirmed, not "window too small"
    def series(functional, ms, extra=()):
        return {"window": {"functional": functional, "bound": "4"},
                "terms": _poly_obj([((m, 0), c) for m, c in ms] + list(extra))}

    doc = {"kind": "reexpand", "c0": [1, 0], "f": _GEOMETRIC2,
           "s_minus": series([-1, 1], [(m, -1) for m in range(-4, 0)]),
           "s_plus": series([1, 1], [(m, 1) for m in range(5)], [((0, 4), 7)])}
    status, out = _run(tmp_path, capsys, doc)
    assert status == 1
    report = json.loads(out)
    assert [(c["representative"], c["k_lo"], c["k_hi"], c["fit"] is None)
            for c in report["cosets"]] == [([0, 0], -4, 4, False), ([0, 4], 0, 0, True)]
    assert report["all_fit"] is False and report["confirmed"] is False
    # a search box that admits no period still fails where there is a table
    status, out = _run(tmp_path, capsys, dict(doc, max_period=0))
    assert status == 2
    assert json.loads(out)["error"] == {"message": "window too small", "path": None}


# -- appendix-a / selfcheck ---------------------------------------------------

def test_appendix_a_default_window(tmp_path, capsys):
    status, out = _run(tmp_path, capsys, {"kind": "appendix-a"})
    assert status == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["window"] == 10
    assert len(report["table"]) == 25
    assert report["lattice_fingerprint"] == build_a1().lattice.fingerprint()


def test_appendix_a_window_flag(tmp_path, capsys):
    status, out = _run(tmp_path, capsys, {"kind": "appendix-a"},
                       ("--window", "8"))
    assert status == 0
    assert len(json.loads(out)["table"]) == 21


def test_appendix_a_fractional_window_rejected(tmp_path, capsys):
    status, out = _run(tmp_path, capsys, {"kind": "appendix-a"},
                       ("--window", "17/2"))
    assert status == 2
    assert json.loads(out)["error"]["path"] == "--window"


def test_appendix_a_table_format(tmp_path, capsys):
    status, out = _run(tmp_path, capsys, {"kind": "appendix-a", "window": 8},
                       ("--format", "table"))
    assert status == 0
    lines = out.splitlines()
    assert lines[0].split() == ["m", "orbifold", "resolution", "difference"]
    assert lines[-1] == "ok: yes"


def test_selfcheck_default_seed(tmp_path, capsys):
    status, out = _run(tmp_path, capsys, {"kind": "selfcheck"})
    assert status == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["seed"] == 20260823
    assert len(report["checks"]) == 9
    assert all(check["ok"] for check in report["checks"])


def test_selfcheck_seed_flag_overrides(tmp_path, capsys):
    status, out = _run(tmp_path, capsys, {"kind": "selfcheck", "seed": 99},
                       ("--seed", "7"))
    assert status == 0 and json.loads(out)["seed"] == 7
    status, out = _run(tmp_path, capsys, {"kind": "selfcheck", "seed": 99})
    assert status == 0 and json.loads(out)["seed"] == 99


# -- driver errors ------------------------------------------------------------

def test_malformed_rational_exits_two_with_path(tmp_path, capsys):
    doc = {"kind": "detect", "samples": [{"n": 0, "value": "1/0"}]}
    status, out = _run(tmp_path, capsys, doc)
    assert status == 2
    report = json.loads(out)
    assert report["error"]["path"] == "document.samples[0].value"


_MALFORMED = json.loads((GOLDEN / "malformed.json").read_text())


@pytest.mark.parametrize("name", sorted(_MALFORMED))
def test_malformed_document_report_is_pinned(name, tmp_path, capsys):
    # a wrong type at each parser's top level and at a nested entry, missing
    # keys, and null on optional fields: null reads as absent for truncation,
    # deg_cap, ranks, coset and pattern, and is an error everywhere else.
    case = _MALFORMED[name]
    status, out = _run(tmp_path, capsys, case["document"])
    assert (status, out) == (case["exit"], case["stdout"])


_SLOPED_WALL = {"slope": "1/2", "J": _element_obj((0, (1,), (1, 0), 2))}
_WALLCROSS = {"kind": "wallcross", "lattice": model_lattice().to_obj(),
              "seed": {"element": _element_obj((-1, (0,), (0, 0), 1))},
              "walls": [_SLOPED_WALL], "truncation": {"beta_cap": [2]}}

# An error raised while a field or list entry is parsed is located there,
# whichever constructor raises it; one raised after parsing has no path.
_LOCATED = {
    "dependent_coset": ({"kind": "expand", "f": _GEOMETRIC2, "window": {
        "functional": [1, "1/2"], "bound": "4",
        "coset": {"base": [0, 0], "generators": [[1, 0], [2, 0]]}}},
        "coset generators must be linearly independent", "document.window.coset"),
    "zero_denominator": ({"kind": "expand", "f": dict(
        _GEOMETRIC, denominator=_poly_obj([((0,), 0)])),
        "window": {"functional": [1], "bound": "4"}},
        "zero denominator", "document.f"),
    "empty_denominator": ({"kind": "expand", "f": dict(_GEOMETRIC, denominator=[]),
                           "window": {"functional": [1], "bound": "4"}},
                          "zero denominator", "document.f"),
    "series_arity": ({"kind": "verify", "f": _GEOMETRIC,
                      "series": _geometric_series_obj([1, 1], 4, [(0, 1)])},
                     "exponent length 1 does not match functional arity 2",
                     "document.series.terms[0]"),
    "series_arity_wide": ({"kind": "verify", "f": _GEOMETRIC2, "series": {
        "window": {"functional": [1], "bound": "4"},
        "terms": [{"exponent": [0, 0], "coeff": "1"}]}},
        "exponent length 2 does not match functional arity 1",
        "document.series.terms[0]"),
    "reexpand_arity": ({"kind": "reexpand", "f": _GEOMETRIC, "c0": [1],
                        "s_minus": _geometric_series_obj([-1], 4, [(-1, -1)]),
                        "s_plus": _geometric_series_obj([1, 0], 4, [(0, 1), (1, 1)])},
                       "exponent length 1 does not match functional arity 2",
                       "document.s_plus.terms[0]"),
    # the leading term of f's denominator is found by L-values, whose
    # LinearFunctional call refuses an exponent of another length
    "expand_arity": ({"kind": "expand", "f": _GEOMETRIC,
                      "window": {"functional": [1, 1], "bound": "4"}},
                     "exponent length 1 does not match functional arity 2", None),
    "dtpt_arity": ({"kind": "dtpt", "dt": _GEOMETRIC, "dt_zero": _GEOMETRIC,
                    "window": {"functional": [1, 1], "bound": "4"}},
                   "exponent length 1 does not match functional arity 2", None),
    "lattice_sigma": ({"kind": "dualize", "lattice": dict(
        model_lattice().to_obj(), sigma=2), "class": {"r": 0, "beta": [0], "c": [0, 0]}},
        "sigma must be +1 or -1", "document.lattice"),
    "residue_table": ({"kind": "resum", "monomials": [[1]], "grading": [1],
                       "quasipoly": dict(_constant_qp_obj(), period=2)},
                      "residue table must cover every residue tuple exactly once",
                      "document.quasipoly"),
    "wall_slope": (dict(_WALLCROSS, walls=[dict(_SLOPED_WALL, slope="1/3")]),
                   "wall term slope does not match the wall", "document.walls[0]"),
    "seed_rank": (dict(_WALLCROSS, seed={"element": _element_obj((0, (0,), (0, 0), 1))}),
                  "seed terms must have rank -1", "document.seed"),
    "wall_order": (dict(_WALLCROSS, walls=[_SLOPED_WALL, _SLOPED_WALL]),
                   "walls must have strictly increasing slopes", None),
    "appendix_window": ({"kind": "appendix-a", "window": 7},
                        "report window must be at least 8", None),
}


@pytest.mark.parametrize("name", sorted(_LOCATED))
def test_errors_are_located_at_the_field_being_parsed(tmp_path, capsys, name):
    doc, message, path = _LOCATED[name]
    status, out = _run(tmp_path, capsys, doc)
    assert status == 2
    assert json.loads(out)["error"] == {"message": message, "path": path}


@pytest.mark.parametrize("doc, path", [
    ({"kind": []}, "document.kind"),
    ({"kind": {"expand": 1}}, "document.kind"),
    ({"kind": "bracket", "lattice": model_lattice().to_obj(), "x": [], "y": [],
      "operation": []}, "document.operation"),
    ({"kind": "bracket", "lattice": model_lattice().to_obj(), "x": [], "y": [],
      "operation": {}}, "document.operation"),
])
def test_unhashable_kind_or_operation_exits_two(tmp_path, capsys, doc, path):
    status, out = _run(tmp_path, capsys, doc)
    assert status == 2
    assert json.loads(out)["error"]["path"] == path


def test_repeated_sample_n_exits_two(tmp_path, capsys):
    samples = [{"n": n, "value": n} for n in (0, 1, 2, 3, 1)]
    status, out = _run(tmp_path, capsys, {"kind": "detect", "samples": samples})
    assert status == 2
    assert json.loads(out)["error"] == {"message": "duplicate sample n",
                                        "path": "document.samples[4].n"}


def test_repeated_family_beta_exits_two(tmp_path, capsys):
    doc = {"kind": "dualize", "lattice": cli._selfcheck_lattice().to_obj(),
           "family": [{"beta": [1], "f": _GEOMETRIC2},
                      {"beta": [1], "f": _GEOMETRIC2}]}
    status, out = _run(tmp_path, capsys, doc)
    assert status == 2
    assert json.loads(out)["error"] == {"message": "duplicate family beta",
                                        "path": "document.family[1].beta"}


def test_unknown_kind_exits_two(tmp_path, capsys):
    status, out = _run(tmp_path, capsys, {"kind": "frobnicate"})
    assert status == 2
    assert json.loads(out)["error"]["path"] == "document.kind"


def test_missing_input_file_exits_two(capsys):
    status = cli.main(["--input", "/nonexistent/doc.json"])
    out = capsys.readouterr().out
    assert status == 2
    assert json.loads(out)["error"]["path"] == "--input"


def test_invalid_json_exits_two(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text("not json at all")
    status = cli.main(["--input", str(path)])
    out = capsys.readouterr().out
    assert status == 2
    assert json.loads(out)["error"]["path"] == "document"


def test_non_object_document_exits_two(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text("[1, 2]")
    status = cli.main(["--input", str(path)])
    out = capsys.readouterr().out
    assert status == 2
    assert json.loads(out)["error"]["path"] == "document"


@pytest.mark.parametrize("argv, flag", [(("--format", "xml"), "--format"),
                                        (("--bogus",), "--bogus")])
def test_bad_flag_is_a_json_error_at_argv(tmp_path, capsys, argv, flag):
    # argparse words a choice error differently across Python versions, so
    # these reports are not byte-pinned
    status, out = _run(tmp_path, capsys, {"kind": "selfcheck"}, argv)
    assert status == 2
    error = json.loads(out)["error"]
    assert error["path"] == "argv" and flag in error["message"]


def test_help_prints_usage_and_exits_zero(capsys):
    with pytest.raises(SystemExit) as stop:
        cli.main(["--help"])
    assert stop.value.code == 0
    assert capsys.readouterr().out.startswith("usage: wallx")


@pytest.mark.parametrize("key", cli.VERDICTS)
def test_any_false_verdict_key_exits_one(tmp_path, capsys, monkeypatch, key):
    monkeypatch.setitem(cli._HANDLERS, "selfcheck", lambda doc, args: {key: False})
    status, out = _run(tmp_path, capsys, {"kind": "selfcheck"})
    assert status == 1 and json.loads(out)[key] is False
    monkeypatch.setitem(cli._HANDLERS, "selfcheck", lambda doc, args: {key: True})
    assert _run(tmp_path, capsys, {"kind": "selfcheck"})[0] == 0


def test_module_entry_point_subprocess(tmp_path):
    doc = {"kind": "expand", "f": _GEOMETRIC,
           "window": {"functional": [1], "bound": "3"}}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run([sys.executable, "-m", "wallx", "--input", str(path)],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert {tuple(t["exponent"]): t["coeff"]
            for t in report["series"]["terms"]} == {(m,): "1"
                                                    for m in range(4)}
