"""Fixed worked model on a rank (1+1+2) lattice, with its verification report.

The model has one curve generator beta with l(beta) = 2 and two point
classes, each of degree 1; the point exponents are written (m, n) and the
two point variables are called q_plus and q_minus.  Stored series data
covers the point row (curve class 0, n = 0) and the curve row 2*beta at
n = 4, as rational functions in the two point variables; the implicit
curve variable is constant across each row and is omitted.

``run_a1`` recomputes the two one-sided column expansions of the shared
curve-row rational function, certifies the re-expansion across the first
point class, checks the quasi-polynomial that the certificate fits to the
column difference, and cross-checks every table entry against the
smooth-moduli Behrend weight.

The source also tabulates an orbifold row 3 * C(m + 3, 3) for m = 4 ... 8
(105, 168, 252, 360, 495).  It disagrees with the expansion of the stored
closed form from m = 4 on (3 there), so it is used nowhere.
"""
from __future__ import annotations

import collections
from fractions import Fraction

from .errors import InputError
from .jsonio import format_ratio, format_rational
from .lattice import LatticeSpec
from .quasipoly import reexpand_check
from .series import (LaurentPolynomial, LinearFunctional, RationalFunction,
                     Window, _exponent, _over_lcm, divide, expand)


def behrend_smooth(dims) -> int:
    """Behrend-weighted Euler characteristic of a product of projective spaces.

    A smooth moduli space carries the constant Behrend function
    (-1)^dimension, so the weighted count of a product of projective spaces
    P^{d_1} x ... x P^{d_k} is (-1)^(sum d_i) * prod (d_i + 1).
    """
    value = 1
    for d in _exponent(dims):  # each factor P^d weighs (-1)^d (d + 1)
        if d < 0:
            raise InputError("projective space dimensions must be nonnegative")
        value *= -(d + 1) if d % 2 else d + 1
    return value


def _alt(m: int) -> int:
    return -1 if m % 2 else 1


class A1Model(collections.namedtuple("A1Model", "lattice l_plus l_minus point_row "
                                      "orbifold_layer shared_layer")):
    """The worked model: lattice, expansion functionals, and series data.

    ``point_row`` is the rank-zero count row at n = 0, with coefficients
    (-1)^m (m + 1).  ``orbifold_layer`` is the curve-row data on one side
    and ``shared_layer`` is the common rational function whose two
    one-sided expansions are the report columns; the other side's curve
    row equals ``shared_layer`` directly.  The report's normalization (the
    two point degrees and l of the curve) is read off ``lattice``.

    The resolution-side classes (r, beta, (m, n)) are C_h = (0, (1,), (0, 1)),
    C_v = (0, (0,), (0, 1)) and p = (0, (0,), (1, 1)).  p - C_v is the first
    point class: its point part ``point_plus_exponent()`` is the direction
    along which ``run_a1`` re-expands.
    """

    __slots__ = ()

    def point_plus_exponent(self):
        return (1,) + (0,) * (self.lattice.rank0 - 1)

    # -- tabulated column values (the ground truth for the report) ------------

    def orbifold_column(self, m: int) -> int:
        if m <= 3:
            return 0
        return _alt(m) * (3 * m - 9)

    def resolution_column(self, m: int) -> int:
        if m >= 3:
            return 0
        return -_alt(m) * (3 * m - 9)

    def column_difference(self, m: int) -> int:
        """Orbifold column minus resolution column; equals (-1)^m (3m - 9)."""
        return self.orbifold_column(m) - self.resolution_column(m)


def build_a1() -> A1Model:
    """Materialize the worked model with all stored series data."""
    lattice = LatticeSpec(
        rank1=1, rank0=2,
        pairing=((0, 1, 1, 0),
                 (-1, 0, 0, 0),
                 (-1, 0, 0, 0),
                 (0, 0, 0, 0)),
        deg=(0, 1, 1),
        l=(2,),
        excdeg=(Fraction(-1), Fraction(1)),
        twist_matrix=((2,), (0,)),
        duality=((1, 0, 0, 0),
                 (0, 1, 0, 0),
                 (0, 0, 1, 0),
                 (0, 0, 0, 1)),
        effgens1=((1,),),
        sigma=-1,
    )
    one = LaurentPolynomial.constant(2, 1)
    one_plus_q = one + LaurentPolynomial.monomial((1, 0))
    square = one_plus_q * one_plus_q
    layer_top = LaurentPolynomial.monomial((4, 4), 3)
    return A1Model(
        lattice=lattice,
        l_plus=LinearFunctional((1, 1)),
        l_minus=LinearFunctional((-1, 1)),
        point_row=RationalFunction(one, square),
        orbifold_layer=RationalFunction(layer_top, square * square),
        shared_layer=RationalFunction(layer_top, square),
    )


def _step(name: str, divergence, **detail) -> dict:
    """A report step; ``divergence`` is None, the first one's dict, or
    (m, expected, actual, den) with actual an int numerator over den."""
    entry = {"name": name, "ok": divergence is None}
    if isinstance(divergence, tuple):
        m, expected, actual, den = divergence
        divergence = {"m": m, "expected": format_rational(expected),
                      "actual": format_ratio(actual, den)}
    if divergence is not None:
        entry["first_divergence"] = divergence
    entry.update(detail)
    return entry


def run_a1(report_window: int) -> dict:
    """Recompute both columns and return the full verification report.

    The report covers m in [-report_window, report_window + 4].  Each step
    carries its own ok flag; any mismatch is reported as the step's first
    divergent coefficient and flips the top-level ok flag instead of
    raising.  One loop over the point row and one over the report's m read
    the series' int numerators, check every step and write the rows.
    """
    w = _exponent((report_window,))[0]
    if w < 8:
        raise InputError("report window must be at least 8")
    model = build_a1()
    m_lo, m_hi = -w, w + 4
    ms = range(m_lo, m_hi + 1)

    point_series = expand(model.point_row, Window(model.l_plus, w + 8))
    # DT/PT as one expansion of the quotient; reexpand_check reads its bound w + 8
    orbifold_series = divide(model.orbifold_layer, model.point_row,
                             Window(model.l_plus, w + 8))
    resolution_series = expand(model.shared_layer, Window(model.l_minus, w + 4))
    # the certificate's coset at (0, 4) samples the difference column over ms
    verdict = reexpand_check(model.shared_layer, resolution_series,
                             orbifold_series, model.point_plus_exponent())
    fit = next((c["fit"] for c in verdict["cosets"] if c["representative"] == [0, 4]), None)
    if fit is None:  # the step has diverged, so its values are never read
        fit_div, fit_detail, values, fit_den = {
            "m": m_lo, "expected": "quasi-polynomial fit", "actual": "no fit"}, {}, ms, 1
    else:  # the fit's int numerators against the closed form
        values, fit_den = fit.scaled_values([(m,) for m in ms])
        fit_div, fit_detail = None, {"period": fit.period, "degree": fit.degrees[0]}
    # the two columns and the point row as int numerators over one denominator
    _, den = _over_lcm(Fraction(1, s._den)
                       for s in (orbifold_series, resolution_series, point_series))
    (orb_get, orb_k), (res_get, res_k), (point_get, point_k) = (
        (s._terms.get, den // s._den) for s in (orbifold_series, resolution_series, point_series))

    behrend_div, point_row = None, []
    for m in range(w + 5):
        value = point_get((m, 0), 0) * point_k
        if behrend_div is None and behrend_smooth([m]) * den != value:
            behrend_div = m, behrend_smooth([m]), value, den
        point_row.append({"m": m, "value": format_ratio(value, den)})
    orb_div = res_div = None
    orbifold_column, resolution_column = model.orbifold_column, model.resolution_column
    column_difference, table = model.column_difference, []
    for m, value in zip(ms, values):
        orb, res = orb_get((m, 4), 0) * orb_k, res_get((m, 4), 0) * res_k
        if orb_div is None and orbifold_column(m) * den != orb:
            orb_div = m, orbifold_column(m), orb, den
        if res_div is None and resolution_column(m) * den != res:
            res_div = m, resolution_column(m), res, den
        if fit_div is None and column_difference(m) * fit_den != value:
            fit_div = m, column_difference(m), value, fit_den
        if behrend_div is None:  # the orbifold entry at m, then the resolution one
            for expected, actual in ((behrend_smooth([2, m - 4]) if m >= 4 else 0, orb),
                                     (behrend_smooth([2, 2 - m]) if m <= 2 else 0, res)):
                if expected * den != actual:
                    behrend_div = m, expected, actual, den
                    break
        table.append({"m": m, "orbifold": format_ratio(orb, den),
                      "resolution": format_ratio(res, den),
                      "difference": format_ratio(orb - res, den)})

    steps = [
        _step("orbifold column", orb_div, checked=len(ms)),
        _step("resolution column", res_div, checked=len(ms)),
        _step("difference quasi-polynomial", fit_div, **fit_detail),
        _step("re-expansion certificate", None if verdict["confirmed"] else
              {"m": m_lo, "expected": "confirmed", "actual": "not confirmed"},
              cosets=len(verdict["cosets"])),
        _step("behrend cross-check", behrend_div, checked=w + 5 + 2 * len(ms)),
    ]
    ok = all(step["ok"] for step in steps)
    report = {
        "model": "transverse-a1",
        "window": w,
        "normalization": {"deg_point_plus": model.lattice.deg[1],
                          "deg_point_minus": model.lattice.deg[2],
                          "l_curve": model.lattice.l[0]},
        "lattice_fingerprint": model.lattice.fingerprint(),
        "steps": steps,
        "table": table,
        "point_row": point_row,
        "ok": ok,
    }
    if not ok:
        first_bad = next(step for step in steps if not step["ok"])
        report["first_divergence"] = dict(first_bad.get("first_divergence", {}),
                                          step=first_bad["name"])
    return report


def render_a1_table(report: dict) -> str:
    """Human-readable two-column table for a run_a1 report."""
    rows = [("m", "orbifold", "resolution", "difference")]
    for entry in report["table"]:
        rows.append((str(entry["m"]), entry["orbifold"],
                     entry["resolution"], entry["difference"]))
    widths = [max(len(row[i]) for row in rows) for i in range(4)]
    lines = ["  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
             for row in rows]
    lines.append("")
    lines.append(f"ok: {'yes' if report['ok'] else 'no'}")
    return "\n".join(lines)
