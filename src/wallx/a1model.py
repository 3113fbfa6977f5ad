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
from .quasipoly import qp_from_obj, reexpand_check
from .series import (LaurentPolynomial, LinearFunctional, RationalFunction,
                     Window, _exponent, _over_lcm, divide, expand)


def behrend_smooth(dims) -> int:
    """Behrend-weighted Euler characteristic of a product of projective spaces.

    A smooth moduli space carries the constant Behrend function
    (-1)^dimension, so the weighted count of a product of projective spaces
    P^{d_1} x ... x P^{d_k} is (-1)^(sum d_i) * prod (d_i + 1).
    """
    dims = _exponent(dims)
    if any(d < 0 for d in dims):
        raise InputError("projective space dimensions must be nonnegative")
    sign = -1 if sum(dims) % 2 else 1
    for d in dims:
        sign *= d + 1
    return sign


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


def _first_divergence(pairs, den: int):
    """First (m, expected, actual) disagreement, actual read over den, or None."""
    for m, expected, actual in pairs:
        if expected * den != actual:
            return {"m": m, "expected": format_rational(expected),
                    "actual": format_rational(Fraction(actual, den))}
    return None


def run_a1(report_window: int) -> dict:
    """Recompute both columns and return the full verification report.

    The report covers m in [-report_window, report_window + 4].  Each step
    carries its own ok flag; any mismatch is reported as the step's first
    divergent coefficient and flips the top-level ok flag instead of
    raising.
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
    # the two columns and the point row as int numerators over one denominator
    _, den = _over_lcm(Fraction(1, s._den)
                       for s in (orbifold_series, resolution_series, point_series))
    orb, res, point = ({m: s._terms.get((m, n), 0) * (den // s._den) for m in span}
                       for s, n, span in ((orbifold_series, 4, ms), (resolution_series, 4, ms),
                                          (point_series, 0, range(w + 5))))

    steps = []

    def add_step(name, divergence, **detail):
        entry = {"name": name, "ok": divergence is None}
        if divergence is not None:
            entry["first_divergence"] = divergence
        entry.update(detail)
        steps.append(entry)

    add_step("orbifold column",
             _first_divergence(((m, model.orbifold_column(m), orb[m])
                                for m in ms), den),
             checked=len(orb))
    add_step("resolution column",
             _first_divergence(((m, model.resolution_column(m), res[m])
                                for m in ms), den),
             checked=len(res))

    # the certificate's coset at (0, 4) samples the difference column over ms
    verdict = reexpand_check(model.shared_layer, resolution_series,
                             orbifold_series, model.point_plus_exponent())
    fit = next((qp_from_obj(c["fit"], "fit") for c in verdict["cosets"]
                if c["representative"] == [0, 4] and c["fit"] is not None), None)
    if fit is None:
        fit_div = {"m": m_lo, "expected": "quasi-polynomial fit",
                   "actual": "no fit"}
        fit_detail = {}
    else:  # the fit's int numerators against the closed form
        values, fit_den = fit.scaled_values([(m,) for m in ms])
        fit_div = _first_divergence(zip(ms, map(model.column_difference, ms), values),
                                    fit_den)
        fit_detail = {"period": fit.period, "degree": fit.degree(0)}
    add_step("difference quasi-polynomial", fit_div, **fit_detail)
    add_step("re-expansion certificate",
             None if verdict["confirmed"] else
             {"m": m_lo, "expected": "confirmed", "actual": "not confirmed"},
             cosets=len(verdict["cosets"]))

    behrend_pairs = [(m, behrend_smooth([m]), value) for m, value in point.items()]
    for m in ms:
        expected = behrend_smooth([2, m - 4]) if m >= 4 else 0
        behrend_pairs.append((m, expected, orb[m]))
        expected = behrend_smooth([2, 2 - m]) if m <= 2 else 0
        behrend_pairs.append((m, expected, res[m]))
    add_step("behrend cross-check", _first_divergence(behrend_pairs, den),
             checked=len(behrend_pairs))

    ok = all(step["ok"] for step in steps)
    report = {
        "model": "transverse-a1",
        "window": w,
        "normalization": {"deg_point_plus": model.lattice.deg[1],
                          "deg_point_minus": model.lattice.deg[2],
                          "l_curve": model.lattice.l[0]},
        "lattice_fingerprint": model.lattice.fingerprint(),
        "steps": steps,
        "table": [{"m": m,
                   "orbifold": format_ratio(orb[m], den),
                   "resolution": format_ratio(res[m], den),
                   "difference": format_ratio(orb[m] - res[m], den)}
                  for m in ms],
        "point_row": [{"m": m, "value": format_ratio(value, den)}
                      for m, value in point.items()],
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
