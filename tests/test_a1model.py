import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wallx import a1model, jsonio, quasipoly, series
from wallx.a1model import (A1Model, behrend_smooth, build_a1, render_a1_table,
                           run_a1)
from wallx.errors import InputError
from wallx.lattice import KClass
from wallx.quasipoly import detect_quasipoly, reexpand_check
from wallx.series import LaurentPolynomial, RationalFunction, Window, expand
from wallx.wallcross import dtpt_ratio

from conftest import fr, qp_value, rebuilt
import parent_kernels as parent


def _alt(m):
    return -1 if m % 2 else 1


def _expand_layer(model, f, bound):
    return expand(f, Window(model.l_plus, bound))


# -- behrend weights ----------------------------------------------------------

def test_behrend_smooth_point():
    assert behrend_smooth([0]) == 1


def test_behrend_smooth_projective_spaces():
    assert [behrend_smooth([m]) for m in range(7)] == [1, -2, 3, -4, 5, -6, 7]


def test_behrend_smooth_two_factor_values():
    assert behrend_smooth([2, 2]) == 9
    assert behrend_smooth([2, 1]) == -6
    assert behrend_smooth([1, 1]) == 4


def test_behrend_smooth_matches_resolution_column():
    model = build_a1()
    for m in range(-8, 3):
        assert behrend_smooth([2, 2 - m]) == model.resolution_column(m)


def test_behrend_smooth_rejects_negative_dimensions():
    with pytest.raises(InputError):
        behrend_smooth([2, -1])


@given(st.lists(st.integers(0, 6), max_size=5),
       st.lists(st.integers(0, 6), max_size=5))
def test_behrend_smooth_multiplicative_under_concatenation(a, b):
    assert behrend_smooth(a + b) == behrend_smooth(a) * behrend_smooth(b)


# -- model construction -------------------------------------------------------

def test_build_a1_lattice_shape():
    model = build_a1()
    spec = model.lattice
    assert spec.rank1 == 1 and spec.rank0 == 2
    assert spec.l_of((1,)) == 2
    assert spec.deg_point((1, 0)) == 1
    assert spec.deg_point((0, 1)) == 1
    assert spec.twist((1,)) == (2, 0)
    assert spec.sigma == -1
    assert len(spec.fingerprint()) == 16


def test_build_a1_walls_validate():
    spec = build_a1().lattice
    assert spec.gamma_walls((2,)) == [fr(1)]


def test_identification_difference_is_first_point_class():
    # p - C_v, as the A1Model docstring gives them, is the direction run_a1
    # re-expands along: C_v plus that direction is p
    assert (KClass(0, (0,), (0, 1)) + KClass(0, (0,), build_a1().point_plus_exponent())
            == KClass(0, (0,), (1, 1)))


def test_point_row_first_terms():
    model = build_a1()
    series = _expand_layer(model, model.point_row, 8)
    assert [series.coeff((m, 0)) for m in range(6)] == [1, -2, 3, -4, 5, -6]
    assert series.coeff((-1, 0)) == 0


def test_point_row_matches_tabulated_values():
    model = build_a1()
    series = _expand_layer(model, model.point_row, 12)
    assert [series.coeff((m, 0)) for m in range(-3, 13)] == [
        0, 0, 0, 1, -2, 3, -4, 5, -6, 7, -8, 9, -10, 11, -12, 13]


def test_tabulated_orbifold_row_disagrees_with_closed_form():
    # the source's row 3 * C(m + 3, 3), which the module docstring records
    table = {4: 105, 5: 168, 6: 252, 7: 360, 8: 495}
    assert table == {m: 3 * math.comb(m + 3, 3) for m in range(4, 9)}
    model = build_a1()
    series = _expand_layer(model, model.orbifold_layer, 16)
    assert series.coeff((4, 4)) == 3
    assert all(series.coeff((m, 4)) != value for m, value in table.items())


def test_orbifold_layer_expansion_first_terms():
    series = _expand_layer(build_a1(), build_a1().orbifold_layer, 16)
    assert [series.coeff((m, 4)) for m in range(4, 8)] == [3, -12, 30, -60]


def test_shared_layer_is_orbifold_layer_over_point_row():
    model = build_a1()
    assert model.shared_layer == RationalFunction(
        model.orbifold_layer.numerator * model.point_row.denominator,
        model.orbifold_layer.denominator * model.point_row.numerator)


# -- the report ---------------------------------------------------------------

def test_run_a1_rejects_small_window():
    with pytest.raises(InputError):
        run_a1(7)


def test_run_a1_report_passes():
    report = run_a1(8)
    assert report["ok"] is True
    assert [step["name"] for step in report["steps"]] == [
        "orbifold column", "resolution column", "difference quasi-polynomial",
        "re-expansion certificate", "behrend cross-check"]
    assert all(step["ok"] for step in report["steps"])
    assert report["window"] == 8
    assert report["normalization"] == {"deg_point_plus": 1,
                                       "deg_point_minus": 1, "l_curve": 2}
    assert report["lattice_fingerprint"] == build_a1().lattice.fingerprint()


def test_run_a1_difference_fit_shape():
    report = run_a1(8)
    fit_step = report["steps"][2]
    assert fit_step["period"] == 2
    assert fit_step["degree"] == 1
    assert report["steps"][3]["cosets"] == 1


def _table_by_m(report):
    return {entry["m"]: entry for entry in report["table"]}


def test_run_a1_table_spot_values():
    table = _table_by_m(run_a1(8))
    assert table[4]["orbifold"] == "3"
    assert table[0]["resolution"] == "9"
    assert table[3]["orbifold"] == "0" and table[3]["resolution"] == "0"
    assert table[-8]["resolution"] == "33"
    assert table[-8]["difference"] == "-33"
    assert table[12]["orbifold"] == "27"


def test_run_a1_columns_match_closed_forms():
    model = build_a1()
    table = _table_by_m(run_a1(9))
    for m in range(-9, 14):
        assert table[m]["orbifold"] == str(model.orbifold_column(m))
        assert table[m]["resolution"] == str(model.resolution_column(m))
        assert table[m]["difference"] == str(_alt(m) * (3 * m - 9))


def test_columns_times_square_recover_single_monomial():
    """Both columns times (1 + q)^2 collapse to 3 q^4 away from truncation."""
    model = build_a1()
    table = _table_by_m(run_a1(8))
    orb = {m: Fraction(table[m]["orbifold"]) for m in table}
    res = {m: Fraction(table[m]["resolution"]) for m in table}
    for col in (orb, res):
        for m in range(-6, 13):
            value = col[m] + 2 * col.get(m - 1, Fraction(0)) \
                + col.get(m - 2, Fraction(0))
            assert value == (3 if m == 4 else 0)


def test_run_a1_point_row_in_report():
    report = run_a1(8)
    values = {entry["m"]: entry["value"] for entry in report["point_row"]}
    assert values[0] == "1" and values[5] == "-6" and values[12] == "13"


def test_render_table_layout():
    report = run_a1(8)
    text = render_a1_table(report)
    lines = text.splitlines()
    assert lines[0].split() == ["m", "orbifold", "resolution", "difference"]
    assert lines[-1] == "ok: yes"
    assert len(lines) == len(report["table"]) + 3


def test_first_divergence_reports_earliest_mismatch(monkeypatch):
    closed_form = A1Model.orbifold_column
    monkeypatch.setattr(A1Model, "orbifold_column", lambda self, m: (
        closed_form(self, m) + {1: 2, 2: 9}.get(m, 0)))
    step = run_a1(8)["steps"][0]
    assert step["first_divergence"] == {"m": 1, "expected": "2", "actual": "0"}
    monkeypatch.setattr(A1Model, "orbifold_column", closed_form)
    assert "first_divergence" not in run_a1(8)["steps"][0]
    # actual values are numerators over den, written in lowest terms
    assert a1model._step("s", (2, 0, 3, 6)) == {
        "name": "s", "ok": False, "first_divergence": {"m": 2, "expected": "0", "actual": "1/2"}}
    assert a1model._step("s", None) == {"name": "s", "ok": True}


def test_run_a1_failure_report_names_first_divergence(monkeypatch):
    model = build_a1()
    cube = model.point_row.denominator * (
        LaurentPolynomial.constant(2, 1) + LaurentPolynomial.monomial((1, 0)))
    bad = rebuilt(
        model, shared_layer=RationalFunction(model.shared_layer.numerator, cube))
    monkeypatch.setattr(a1model, "build_a1", lambda: bad)
    report = run_a1(8)
    assert report["ok"] is False
    assert report["first_divergence"]["step"] == "resolution column"
    assert report["first_divergence"]["m"] == -8
    assert report["first_divergence"]["expected"] == "33"
    assert report["first_divergence"]["actual"] != "33"
    assert report["steps"][0]["ok"] is True
    assert report["steps"][1]["ok"] is False


def _rescaled_model(orbifold=1, shared=1, point_num=1, point_den=1):
    """build_a1 with the layers' numerators and the point row's numerator
    and denominator scaled, so each series is over its own denominator."""
    model = build_a1()

    def scaled(f, num, den=1):
        return RationalFunction(f.numerator.scale(fr(num)), f.denominator.scale(fr(den)))

    return rebuilt(
        model, orbifold_layer=scaled(model.orbifold_layer, orbifold),
        shared_layer=scaled(model.shared_layer, shared),
        point_row=scaled(model.point_row, point_num, point_den))


@pytest.mark.parametrize("scales, w", [
    (dict(orbifold=fr(3, 2), shared=fr(3, 2)), 8),     # layer_top times 3/2
    (dict(orbifold=fr(5, 7), shared=fr(3, 10)), 11),   # columns over 7 and 10
    (dict(point_num=fr(1, 3)), 9),                     # point row over 3
    (dict(orbifold=fr(2, 3), point_den=4, shared=-1), 13),
    ({}, 10),
], ids=["layer_top_3_2", "columns_7_10", "point_row_3", "mixed", "model"])
def test_run_a1_matches_the_parent_reader_off_den_one(monkeypatch, scales, w):
    """The whole report, steps and first divergence included, equals what the
    reader of coeff() Fractions gives, with the columns and the point row
    over denominators other than 1."""
    bad = _rescaled_model(**scales)
    monkeypatch.setattr(a1model, "build_a1", lambda: bad)
    report = run_a1(w)
    assert report == parent.run_a1(w)
    if scales:
        assert report["ok"] is False and "first_divergence" in report
        cells = [v for row in report["table"] + report["point_row"]
                 for k, v in row.items() if k != "m"]
        assert any("/" in cell for cell in cells)
    else:
        assert report["ok"] is True


@pytest.mark.parametrize("w", range(8, 41))
def test_run_a1_parses_nothing(monkeypatch, w):
    """run_a1 takes the certificate's fit as an object: no wire parsing."""
    def refuse(*args, **kwargs):
        raise AssertionError("run_a1 parsed a wire object")

    assert not hasattr(a1model, "qp_from_obj")
    monkeypatch.setattr(quasipoly, "qp_from_obj", refuse)
    monkeypatch.setattr(jsonio, "field", refuse)
    assert run_a1(w)["ok"] is True


def test_run_a1_detects_through_the_public_entries(monkeypatch):
    # the certificate's one coset, whose fit the difference step reads: the
    # name perfbench's tracer wraps, given int samples over a denominator
    calls = []

    def spy(samples, *args, **kwargs):
        calls.append({type(v) for v in samples.values()})
        return detect_quasipoly(samples, *args, **kwargs)

    assert not hasattr(a1model, "detect_quasipoly")
    monkeypatch.setattr(quasipoly, "detect_quasipoly", spy)
    assert run_a1(8)["ok"] is True
    assert calls == [{int}]


@pytest.mark.parametrize("w", [*range(8, 41), 200])
def test_certificate_coset_samples_the_report_window(monkeypatch, w):
    """The difference step reads its fit from the certificate's coset at
    (0, 4); that coset samples exactly the report's m in [-w, w + 4]."""
    verdicts = []

    def spy(*args, **kwargs):
        verdicts.append(reexpand_check(*args, **kwargs))
        return verdicts[-1]

    monkeypatch.setattr(a1model, "reexpand_check", spy)
    report = run_a1(w)
    assert report["ok"] is True
    (verdict,) = verdicts
    (coset,) = [c for c in verdict["cosets"] if c["representative"] == [0, 4]]
    assert (coset["k_lo"], coset["k_hi"]) == (-w, w + 4)
    ms = [entry["m"] for entry in report["table"]]
    assert ms == list(range(coset["k_lo"], coset["k_hi"] + 1))


# -- DT/PT as one expansion ---------------------------------------------------

@pytest.mark.parametrize("w", [*range(8, 41), 200])
def test_orbifold_series_equals_the_divided_layer(monkeypatch, w):
    """run_a1 expands the DT/PT quotient once, through divide; the reference
    divides the layer's expansion by the point row's, as dtpt_ratio did.
    Series equality includes the window, so this pins the bound w + 8 as well."""
    model, expanded = build_a1(), []

    def spy(f, window):
        expanded.append((f, window, expand(f, window)))
        return expanded[-1][2]

    # divide expands its quotient through the series module's expand
    monkeypatch.setattr(series, "expand", spy)
    assert run_a1(w)["ok"] is True
    (f, orbifold), = [(f, s) for f, window, s in expanded
                      if window.functional == model.l_plus and f != model.point_row]
    # the DT/PT quotient itself, not shared_layer, its equal as a function
    assert (f.numerator, f.denominator) == (
        model.orbifold_layer.numerator * model.point_row.denominator,
        model.orbifold_layer.denominator * model.point_row.numerator)
    point_series = _expand_layer(model, model.point_row, w + 8)
    assert orbifold == parent.dtpt_ratio(
        _expand_layer(model, model.orbifold_layer, w + 8), point_series)
    assert orbifold == dtpt_ratio(model.orbifold_layer, model.point_row,
                                  Window(model.l_plus, w + 8))


def test_point_row_leads_with_one():
    # the model fact that replaces dtpt_ratio's rank-zero check on this path
    model = build_a1()
    point_series = _expand_layer(model, model.point_row, 8)
    lead = min(point_series.terms(),
               key=lambda term: (model.l_plus(term[0]), term[0]))
    assert lead == ((0, 0), 1)


def test_run_a1_neither_divides_nor_calls_dtpt_ratio(monkeypatch):
    """run_a1 divides no series: its one long division per expansion has a
    polynomial divisor, and it never calls dtpt_ratio."""
    def refuse(*args):
        raise AssertionError("run_a1 called dtpt_ratio")

    divide_terms, operands = series._divide_terms, []

    def polynomials_only(num, den, *args):
        operands.append((type(num), type(den)))
        return divide_terms(num, den, *args)

    assert not hasattr(a1model, "dtpt_ratio")
    monkeypatch.setattr("wallx.wallcross.dtpt_ratio", refuse)
    monkeypatch.setattr(series, "_divide_terms", polynomials_only)
    assert run_a1(20)["ok"] is True
    assert operands and set(operands) == {(LaurentPolynomial, LaurentPolynomial)}


# -- the integer fit check ----------------------------------------------------

def _reference_fit_step(model, report):
    """The difference step as the per-m QuasiPolynomial.eval built it."""
    ms = [entry["m"] for entry in report["table"]]
    fit = detect_quasipoly({entry["m"]: Fraction(entry["difference"])
                            for entry in report["table"]})
    divergence = parent._first_divergence_over(
        ((m, model.column_difference(m), qp_value(fit, (m,))) for m in ms), 1)
    step = {"name": "difference quasi-polynomial", "ok": divergence is None}
    if divergence is not None:
        step["first_divergence"] = divergence
    return dict(step, period=fit.period, degree=fit.degrees[0])


@pytest.mark.parametrize("bad, offset", [(None, 0), (3, 1), (-8, -2),
                                         (12, fr(1, 2)), (0, fr(-7, 3))])
def test_integer_fit_check_reports_what_eval_did(monkeypatch, bad, offset):
    closed_form = A1Model.column_difference
    monkeypatch.setattr(A1Model, "column_difference", lambda self, m: (
        closed_form(self, m) + (offset if m == bad else 0)))
    report = run_a1(8)
    step = report["steps"][2]
    assert step == _reference_fit_step(build_a1(), report)
    assert step["ok"] is (bad is None) and report["ok"] is (bad is None)
    if bad is not None:
        assert step["first_divergence"]["m"] == bad


# -- one pass against the stepwise report -------------------------------------

def _perturbed(orbifold=(), resolution=(), point=(), scale=1):
    """build_a1, rebuilt with c q^(m, 0) added to the point row, then c q^(m, 4)
    added to the DT/PT quotient (orbifold) and to the shared layer
    (resolution), for each (m, c) given; ``scale`` multiplies the shared
    layer's numerator.  Each change moves its series at exactly that term."""
    model = build_a1()

    def terms(changes, n):
        return sum((LaurentPolynomial.monomial((m, n), c) for m, c in changes),
                   LaurentPolynomial({}, 2))

    p, o, s = model.point_row, model.orbifold_layer, model.shared_layer
    p = RationalFunction(p.numerator + terms(point, 0) * p.denominator, p.denominator)
    o = RationalFunction(o.numerator * p.denominator  # o / p gains the terms
                         + terms(orbifold, 4) * p.numerator * o.denominator,
                         o.denominator * p.denominator)
    s = RationalFunction(s.numerator.scale(fr(scale)) + terms(resolution, 4) * s.denominator,
                         s.denominator)
    return rebuilt(model, point_row=p, orbifold_layer=o, shared_layer=s)


def _reports(model, w, expected=None):
    """run_a1's and the stepwise report's JSON (or error) for the model, with
    A1Model's closed form ``expected = (name, m, c)`` moved by c at m."""
    def outcome(run):
        try:
            return json.dumps(run(w))
        except InputError as err:
            return "error", err.message

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(a1model, "build_a1", lambda: model)
        if expected is not None:
            name, bad, c = expected
            closed = getattr(A1Model, name)
            mp.setattr(A1Model, name, lambda self, m: closed(self, m) + (c if m == bad else 0))
        return outcome(run_a1), outcome(parent.run_a1_stepwise)


_COEFF = st.sampled_from([fr(1), fr(-2), fr(1, 3), fr(5, 2)])


@st.composite
def _a1_case(draw):
    w = draw(st.integers(8, 60) | st.just(200))
    ms = st.integers(-w, w + 4)
    changes = {name: draw(st.lists(st.tuples(m, _COEFF), max_size=2)) for name, m in (
        ("orbifold", ms), ("resolution", ms), ("point", st.integers(0, w + 4)))}
    changes["scale"] = draw(st.sampled_from([1, 1, fr(3, 2), -1]))
    expected = draw(st.none() | st.tuples(st.sampled_from(
        ["orbifold_column", "resolution_column", "column_difference"]), ms, _COEFF))
    return w, changes, expected


@given(_a1_case())
@settings(deadline=None, max_examples=80)
def test_run_a1_matches_the_stepwise_report(case):
    w, changes, expected = case
    mine, stepwise = _reports(_perturbed(**changes), w, expected)
    assert mine == stepwise


@pytest.mark.parametrize("w, changes, expected, step, m", [
    # the no-fit certificate: one spike in the resolution column
    (9, dict(resolution=[(-3, 1)]), None, "resolution column", -3),
    (12, dict(resolution=[(5, -2)]), None, "difference quasi-polynomial", -12),
    # the point row's first Behrend divergence comes before the columns'
    (10, dict(point=[(9, 1), (6, fr(1, 3))], orbifold=[(-4, 1)]), None,
     "behrend cross-check", 6),
    # orbifold before resolution at one m, and the earlier m first
    (8, dict(orbifold=[(2, 1)], resolution=[(2, 1)]), None, "behrend cross-check", 2),
    (8, dict(orbifold=[(7, 1)], resolution=[(3, fr(5, 2))]), None, "behrend cross-check", 3),
    # a fit that disagrees with the closed form at a drawn m
    (11, {}, ("column_difference", 7, fr(1, 2)), "difference quasi-polynomial", 7),
    (200, dict(orbifold=[(150, -2)]), None, "behrend cross-check", 150),
])
def test_run_a1_matches_the_stepwise_report_at_each_divergence(w, changes, expected, step, m):
    mine, stepwise = _reports(_perturbed(**changes), w, expected)
    assert mine == stepwise
    (entry,) = [s for s in json.loads(mine)["steps"] if s["name"] == step]
    assert entry["ok"] is False and entry["first_divergence"]["m"] == m
