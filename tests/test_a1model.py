import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from wallx import a1model
from wallx.a1model import (A1Model, behrend_smooth, build_a1, render_a1_table,
                           run_a1)
from wallx.errors import InputError
from wallx.lattice import KClass
from wallx.series import LaurentPolynomial, RationalFunction, Window, expand

from conftest import fr


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


def test_first_divergence_reports_earliest_mismatch():
    pairs = [(0, Fraction(1), Fraction(1)), (1, Fraction(2), Fraction(5)),
             (2, Fraction(0), Fraction(9))]
    out = a1model._first_divergence(pairs)
    assert out == {"m": 1, "expected": "2", "actual": "5"}
    assert a1model._first_divergence(pairs[:1]) is None


def test_run_a1_failure_report_names_first_divergence(monkeypatch):
    model = build_a1()
    cube = model.point_row.denominator * (
        LaurentPolynomial.constant(2, 1) + LaurentPolynomial.monomial((1, 0)))
    bad = dataclasses.replace(
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
