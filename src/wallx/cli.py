"""Batch front-end: JSON problem documents in, deterministic reports out.

A problem document is a JSON object with a ``kind`` field naming the
operation and kind-specific payload fields next to it.  Reports are
printed to standard output with sorted keys and a fixed indent, so equal
documents always produce byte-identical output.  Exit status: 0 for
success or a positive verification verdict, 1 for a negative verdict
(a report whose key in ``VERDICTS`` is false), 2 for input or schema
errors (one found while parsing names its JSON path, a bad flag the path
"argv"), 3 for an internal error or a closed standard output.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from fractions import Fraction

from . import __version__, jsonio
from .a1model import behrend_smooth, build_a1, render_a1_table, run_a1
from .errors import InputError
from .lattice import (KClass, LatticeSpec, kclass_from_obj, kclass_to_obj,
                      lattice_from_obj)
from .poisson import (Truncation, TorusElement, bracket, element_from_obj,
                      element_to_obj, exp_ad, naive_product, star_product,
                      truncation_from_obj)
from .quasipoly import (MAX_DEGREE, MAX_PERIOD, ChainPattern, QuasiPolynomial,
                        detect_quasipoly, qp_from_obj, qp_to_obj, reexpand_check,
                        resum_chain, resum_orthant)
from .series import (LaurentPolynomial, LinearFunctional, RationalFunction,
                     Window, expand, multiply, rational_function_from_obj,
                     rational_function_to_obj, series_from_obj, series_to_obj,
                     verify_expansion, window_from_obj)
from .wallcross import (SeedSeries, WallDatum, dtpt_ratio, duality_check,
                        group_from_obj, group_resum, iterate_walls,
                        seed_from_obj, seed_to_obj, wall_from_obj)

SELFCHECK_SEED = 20260823
# a report holding one of these keys as false is a negative verdict: exit 1
VERDICTS = ("found", "verified", "all_ok", "confirmed", "ok")


def _doc_lattice(doc) -> LatticeSpec:
    return jsonio.field(doc, "lattice", "document", lattice_from_obj)


def _doc_truncation(doc, spec, required: bool):
    trunc = jsonio.field(doc, "truncation", "document", truncation_from_obj,
                         spec, default=None)
    if trunc is None and required:
        raise InputError("a truncation is required", "document.truncation")
    return trunc


def _doc_window(doc, args) -> Window:
    window = jsonio.field(doc, "window", "document", window_from_obj)
    if args.window is not None:
        window = Window(window.functional, args.window, window.coset)
    return window


def _doc_fit_limits(doc) -> tuple[int, int]:
    """The detection search box: max_period and max_degree, by default quasipoly's."""
    return (jsonio.field(doc, "max_period", "document", jsonio.parse_int, default=MAX_PERIOD),
            jsonio.field(doc, "max_degree", "document", jsonio.parse_int, default=MAX_DEGREE))


# -- handlers, one per document kind ------------------------------------------

def _run_expand(doc, args):
    f = jsonio.field(doc, "f", "document", rational_function_from_obj)
    window = _doc_window(doc, args)
    series = expand(f, window)
    return {"series": series_to_obj(series)}


def _run_verify(doc, args):
    f = jsonio.field(doc, "f", "document", rational_function_from_obj)
    series = jsonio.field(doc, "series", "document", series_from_obj,
                          f.numerator.nvars)
    return {"verified": verify_expansion(series, f)}


def _run_resum(doc, args):
    if "group" in doc:
        spec = _doc_lattice(doc)
        group = jsonio.field(doc, "group", "document", group_from_obj, spec)
        trunc = _doc_truncation(doc, spec, required=False)
        out = group_resum(group, trunc)
        return {"lattice_fingerprint": spec.fingerprint(),
                "rational_function": rational_function_to_obj(out)}
    a = jsonio.field(doc, "quasipoly", "document", qp_from_obj)
    monos = jsonio.field(doc, "monomials", "document", jsonio.parse_list,
                         jsonio.parse_int_vector,
                         message="monomials must be a list")
    grading = jsonio.field(doc, "grading", "document", LinearFunctional.from_obj)
    equalities = jsonio.field(doc, "pattern", "document", _pattern_equalities,
                              default=None)
    if equalities is None:
        out = resum_orthant(a, monos, grading)
    else:
        out = resum_chain(a, ChainPattern(a.vars, frozenset(equalities)),
                          monos, grading)
    return {"rational_function": rational_function_to_obj(out)}


def _pattern_equalities(obj, path):
    return jsonio.field(obj, "equalities", path, jsonio.parse_int_vector)


def _sample(obj, path):
    return (jsonio.field(obj, "n", path, jsonio.parse_int),
            jsonio.field(obj, "value", path, jsonio.parse_rational))


def _run_detect(doc, args):
    samples = jsonio.field(doc, "samples", "document", jsonio.parse_keyed,
                           _sample, "n", message="samples must be a list",
                           duplicate="duplicate sample n")
    fit = detect_quasipoly(samples, *_doc_fit_limits(doc))
    return {"found": fit is not None,
            "fit": None if fit is None else qp_to_obj(fit)}


_PRODUCTS = {"bracket": bracket, "star": star_product, "naive": naive_product}


def _run_bracket(doc, args):
    spec = _doc_lattice(doc)
    x = jsonio.field(doc, "x", "document", element_from_obj, spec)
    y = jsonio.field(doc, "y", "document", element_from_obj, spec)
    operation = jsonio.field(doc, "operation", "document", jsonio.parse_choice,
                             _PRODUCTS,
                             "operation must be one of bracket, star, naive",
                             default="bracket")
    trunc = _doc_truncation(doc, spec, required=False)
    out = _PRODUCTS[operation](x, y, trunc)
    return {"lattice_fingerprint": spec.fingerprint(),
            "operation": operation, "element": element_to_obj(out)}


def _run_exp_ad(doc, args):
    spec = _doc_lattice(doc)
    w = jsonio.field(doc, "w", "document", element_from_obj, spec)
    x = jsonio.field(doc, "x", "document", element_from_obj, spec)
    trunc = _doc_truncation(doc, spec, required=True)
    out = exp_ad(w, x, trunc)
    return {"lattice_fingerprint": spec.fingerprint(),
            "element": element_to_obj(out)}


def _run_wallcross(doc, args):
    spec = _doc_lattice(doc)
    seed = jsonio.field(doc, "seed", "document", seed_from_obj, spec)
    walls = jsonio.field(doc, "walls", "document", jsonio.parse_list,
                         wall_from_obj, spec, message="walls must be a list")
    trunc = _doc_truncation(doc, spec, required=True)
    final = iterate_walls(seed, walls, trunc)
    return {"lattice_fingerprint": spec.fingerprint(),
            "seed": seed_to_obj(final)}


def _run_dtpt(doc, args):
    dt = jsonio.field(doc, "dt", "document", rational_function_from_obj)
    dt_zero = jsonio.field(doc, "dt_zero", "document", rational_function_from_obj)
    return {"series": series_to_obj(dtpt_ratio(dt, dt_zero, _doc_window(doc, args)))}


def _family_member(obj, path, spec):
    return (jsonio.field(obj, "beta", path, jsonio.parse_int_vector, spec.rank1),
            jsonio.field(obj, "f", path, rational_function_from_obj, spec.rank0))


def _run_dualize(doc, args):
    spec = _doc_lattice(doc)
    report = {"lattice_fingerprint": spec.fingerprint()}
    if "family" in doc:
        family = jsonio.field(doc, "family", "document", jsonio.parse_keyed,
                              _family_member, "beta", spec,
                              message="family must be a list",
                              duplicate="duplicate family beta")
        report.update(duality_check(family, spec))
        return report
    x = jsonio.field(doc, "class", "document", kclass_from_obj, spec)
    report["image"] = kclass_to_obj(spec.dualize(x))
    return report


def _run_reexpand(doc, args):
    f = jsonio.field(doc, "f", "document", rational_function_from_obj)
    nvars = f.numerator.nvars
    s_minus = jsonio.field(doc, "s_minus", "document", series_from_obj, nvars)
    s_plus = jsonio.field(doc, "s_plus", "document", series_from_obj, nvars)
    c0 = jsonio.field(doc, "c0", "document", jsonio.parse_int_vector, nvars)
    return reexpand_check(f, s_minus, s_plus, c0, *_doc_fit_limits(doc))


def _run_appendix_a(doc, args):
    if args.window is None:
        return run_a1(jsonio.field(doc, "window", "document", jsonio.parse_int,
                                   default=10))
    if args.window.denominator != 1:
        raise InputError("report window must be an integer", "--window")
    return run_a1(int(args.window))


def _run_selfcheck(doc, args):
    seed = args.seed
    if seed is None:
        seed = jsonio.field(doc, "seed", "document", jsonio.parse_int,
                            default=SELFCHECK_SEED)
    return _selfcheck(seed)


_HANDLERS = {
    "expand": _run_expand,
    "verify": _run_verify,
    "resum": _run_resum,
    "detect": _run_detect,
    "bracket": _run_bracket,
    "exp-ad": _run_exp_ad,
    "wallcross": _run_wallcross,
    "dtpt": _run_dtpt,
    "dualize": _run_dualize,
    "reexpand": _run_reexpand,
    "appendix-a": _run_appendix_a,
    "selfcheck": _run_selfcheck,
}
# the kinds whose handlers read each flag; any other kind refuses it (exit 2)
_FLAG_KINDS = {"window": ("expand", "dtpt", "appendix-a"), "seed": ("selfcheck",)}


# -- the selfcheck property suite ---------------------------------------------

def _selfcheck_lattice() -> LatticeSpec:
    """The worked-model lattice with the duality swapping the two point rows."""
    swapped = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))
    return LatticeSpec(**dict(build_a1().lattice._asdict(), duality=swapped))


def _random_poly(rng):
    terms = {}
    for _ in range(rng.randint(0, 3)):
        terms[(rng.randint(1, 4),)] = Fraction(rng.randint(-3, 3))
    return LaurentPolynomial(terms, 1)


def _random_unit_poly(rng):
    poly = _random_poly(rng)
    return poly + LaurentPolynomial.constant(1, rng.choice((1, -1, 2)))


def _random_element(rng, spec, ranks):
    terms = []
    for _ in range(rng.randint(1, 2)):
        cls = KClass(rng.choice(ranks), (rng.randint(0, 2),),
                     (rng.randint(-2, 2), rng.randint(-2, 2)))
        terms.append((cls, Fraction(rng.randint(-3, 3))))
    return TorusElement(spec, terms)


def _selfcheck(seed: int) -> dict:
    rng = random.Random(seed)
    checks = []

    def record(name, runs, ok):
        checks.append({"name": name, "ok": bool(ok), "runs": runs})

    deg1 = LinearFunctional((1,))

    ok = True
    for _ in range(25):
        f = RationalFunction(_random_poly(rng), _random_unit_poly(rng))
        ok = ok and verify_expansion(expand(f, Window(deg1, 12)), f)
    record("series expansion verifies against its source", 25, ok)

    ok = True
    for _ in range(15):
        f = RationalFunction(_random_poly(rng), _random_unit_poly(rng))
        g = RationalFunction(_random_poly(rng), _random_unit_poly(rng))
        prod = multiply(expand(f, Window(deg1, 12)),
                        expand(g, Window(deg1, 12)))
        ok = ok and verify_expansion(prod, f * g)
    record("series products match source products", 15, ok)

    spec = _selfcheck_lattice()
    ok = True
    for _ in range(25):
        x = KClass(rng.choice((-1, 0, 1)), (rng.randint(-2, 2),),
                   (rng.randint(-3, 3), rng.randint(-3, 3)))
        ok = ok and spec.dualize(spec.dualize(x)) == x
        beta = (rng.randint(1, 3),)
        c = (rng.randint(-3, 3), rng.randint(-3, 3))
        shifted = tuple(a + b for a, b in zip(c, spec.twist(beta)))
        ok = ok and spec.nu_slope(KClass(0, beta, shifted)) == \
            spec.nu_slope(KClass(0, beta, c)) + 1
    record("duality is an involution and twisting raises the slope by one",
           25, ok)

    ok = True
    for _ in range(15):
        period = rng.choice((1, 2))
        table = {}
        for rho in range(period):
            table[(rho,)] = LaurentPolynomial(
                {(e,): Fraction(rng.randint(-3, 3)) for e in range(3)}, 1)
        a = QuasiPolynomial(1, period, table)
        step = rng.randint(1, 3)
        out = resum_orthant(a, [(step,)], deg1)
        series = expand(out, Window(deg1, 12))
        for j in range(13):
            expected = (a.eval((j // step,))
                        if j % step == 0 else Fraction(0))
            ok = ok and series.coeff((j,)) == expected
    record("orthant resummation matches one-sided partial sums", 15, ok)

    ok = True
    for _ in range(20):
        x = _random_element(rng, spec, (-1, 0, 1))
        y = _random_element(rng, spec, (-1, 0, 1))
        z = _random_element(rng, spec, (-1, 0, 1))
        ok = ok and (bracket(x, y) + bracket(y, x)).is_zero()
        jac = bracket(x, bracket(y, z)) + bracket(y, bracket(z, x)) \
            + bracket(z, bracket(x, y))
        ok = ok and jac.is_zero()
    record("bracket antisymmetry and jacobi identity", 20, ok)

    trunc = Truncation((3,), Fraction(8))
    ok = True
    for _ in range(15):
        w = TorusElement(spec, [(KClass(0, (rng.randint(1, 2),),
                                        (rng.randint(-2, 2), rng.randint(-2, 2))),
                                 Fraction(rng.randint(-2, 2)))])
        x = _random_element(rng, spec, (-1,))
        back = exp_ad(w.scale(-1), exp_ad(w, x, trunc), trunc)
        ok = ok and (back - x).is_zero()
    record("adjoint exponentials of opposite walls invert each other", 15, ok)

    ok = True
    for _ in range(15):
        j = TorusElement(spec, [(KClass(0, (1,), (1, 0)),
                                 Fraction(rng.randint(-3, 3)))])
        wall = WallDatum(Fraction(1, 2), j)
        anti = WallDatum(Fraction(1, 2), j.scale(-1))
        seed_el = _random_element(rng, spec, (-1,))
        state = SeedSeries(seed_el)
        back = iterate_walls(iterate_walls(state, [wall], trunc), [anti], trunc)
        ok = ok and (back.element - seed_el).is_zero()
    record("crossing a wall and its negative restores the seed", 15, ok)

    one = LaurentPolynomial.constant(1, 1)
    geom = RationalFunction(one, one - LaurentPolynomial.monomial((1,)))
    s_plus = expand(geom, Window(deg1, 8))
    s_minus = expand(geom, Window(LinearFunctional((-1,)), 8))
    verdict = reexpand_check(geom, s_minus, s_plus, (1,))
    ok = verdict["confirmed"] and \
        verdict["cosets"][0]["fit"] == qp_to_obj(QuasiPolynomial(1, 1, {(0,): one}))
    record("geometric series re-expands across zero with constant difference",
           1, ok)

    ok = True
    for _ in range(25):
        a = [rng.randint(0, 5) for _ in range(rng.randint(0, 4))]
        b = [rng.randint(0, 5) for _ in range(rng.randint(0, 4))]
        ok = ok and behrend_smooth(a + b) == behrend_smooth(a) * behrend_smooth(b)
    record("behrend weight is multiplicative over products", 25, ok)

    return {"seed": seed, "checks": checks,
            "ok": all(c["ok"] for c in checks)}


# -- driver -------------------------------------------------------------------

def _load_document(source: str | None):
    if source is None or source == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(source, "r", encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as err:
            raise InputError(f"cannot read input: {err}", "--input") from err
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as err:  # also too long an int, too deep a nest
        message = err.msg if isinstance(err, json.JSONDecodeError) else err
        raise InputError(f"invalid JSON: {message}", "document") from err
    if not isinstance(doc, dict):
        raise InputError("expected a JSON object", "document")
    return doc


def _dumps(report) -> str:
    return json.dumps(report, sort_keys=True, indent=2)


def _flatten(prefix, value, lines):
    if isinstance(value, dict):
        for key in sorted(value):
            child = f"{prefix}.{key}" if prefix else str(key)
            _flatten(child, value[key], lines)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _flatten(f"{prefix}[{i}]", item, lines)
    elif value is None:
        lines.append(f"{prefix}: null")
    else:
        lines.append(f"{prefix}: {value}")


def render_report(report, fmt: str) -> str:
    if fmt == "json":
        return _dumps(report)
    if report.get("kind") == "appendix-a":
        return render_a1_table(report)
    if "series" in report:
        terms = report["series"]["terms"]
        rows = [("exponent", "coeff")] + [
            (" ".join(str(x) for x in t["exponent"]), t["coeff"]) for t in terms]
        widths = [max(len(r[i]) for r in rows) for i in range(2)]
        lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
                 for row in rows]
        lines.append(f"bound: {report['series']['window']['bound']}")
        return "\n".join(lines)
    if report.get("kind") == "selfcheck":
        lines = [f"seed: {report['seed']}"]
        for check in report["checks"]:
            flag = "ok" if check["ok"] else "FAIL"
            lines.append(f"{flag:4}  {check['runs']:3} runs  {check['name']}")
        lines.append(f"ok: {'yes' if report['ok'] else 'no'}")
        return "\n".join(lines)
    lines = []
    _flatten("", report, lines)
    return "\n".join(lines)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a bad flag gets a JSON report, not usage
        raise InputError(message, "argv")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared with main()."""
    parser = _Parser(
        prog="wallx",
        description="Run one exact wall-crossing problem document.")
    parser.add_argument("--input", metavar="FILE",
                        help="problem document path; '-' or omitted reads stdin")
    parser.add_argument("--format", choices=("json", "table"), default="json",
                        help="report rendering (default json)")
    parser.add_argument("--window", metavar="RATIONAL",
                        help="override the document's expansion bound")
    parser.add_argument("--seed", type=int, metavar="INT",
                        help="override the selfcheck seed")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        doc = _load_document(args.input)
        kind = jsonio.field(doc, "kind", "document", jsonio.parse_choice,
                            _HANDLERS, "unknown document kind")
        for flag, kinds in _FLAG_KINDS.items():
            if getattr(args, flag) is not None and kind not in kinds:
                raise InputError(f"--{flag} does not apply to kind '{kind}'", f"--{flag}")
        if args.window is not None:
            args.window = jsonio.parse_rational(args.window, "--window")
        report = {"kind": kind, "tool": {"name": "wallx", "version": __version__}}
        report.update(_HANDLERS[kind](doc, args))
        status = 1 if any(not report.get(key, True) for key in VERDICTS) else 0
        try:
            text = render_report(report, args.format)
        except ValueError:  # json.dumps and str refuse an int that long
            raise jsonio.digit_limit_error("an integer") from None
    except InputError as err:
        text, status = _dumps({"error": {"message": err.message, "path": err.path}}), 2
    except Exception as err:  # a defect, not bad input: still one JSON report
        message = f"internal error: {type(err).__name__}: {err}"
        text, status = _dumps({"error": {"message": message, "path": None}}), 3
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left; the flush at interpreter exit goes to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 3
    return status
