"""End-to-end acceptance gate: ten checks, one test function each.

Run ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion.  Each test also prints a short summary on success (shown
under ``-s``).  The checks cover the worked rank (1+1+2) model, the
one-sided and chain resummation closed forms, the bracket laws, wall
crossing, group resummation, and the duality certificate.
"""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import wallx
from wallx.a1model import behrend_smooth, build_a1
from wallx.lattice import INF, KClass
from wallx.poisson import TorusElement, Truncation, bracket, exp_ad, naive_product
from wallx.quasipoly import (
    ChainPattern,
    detect_quasipoly,
    reexpand_check,
    resum_chain,
    resum_orthant,
)
from wallx.series import (
    LaurentPolynomial,
    LinearFunctional,
    RationalFunction,
    Window,
    expand,
)
from wallx.wallcross import (
    SeedSeries,
    WallDatum,
    dtpt_ratio,
    duality_check,
    group_resum,
    iterate_walls,
)

from conftest import fr, model_lattice, power, qp_value
from test_quasipoly import _brute_chain, _brute_orthant, _expand_coeffs, _random_qp
from test_wallcross import (
    _check_group_against_brute,
    _exact_quotient,
    _filter_deg,
    _layers,
    _random_group_two_gen,
    _reference_product,
    _swap_lattice,
)


def _alt(m):
    return -1 if m % 2 else 1


def _poly(terms, nvars):
    return LaurentPolynomial({tuple(e): Fraction(c) for e, c in terms.items()}, nvars)


def _mono(spec, r, beta, c, coeff=1):
    return TorusElement(spec, {KClass(r, beta, c): Fraction(coeff)})


def _passline(num, text):
    print(f"criterion {num:02d} PASS: {text}")


# -- 1: point-row expansion ---------------------------------------------------


def test_criterion_01_point_row_coefficients():
    start = time.monotonic()
    model = build_a1()
    L = model.l_plus
    series = expand(model.point_row, Window(L, 14))
    for m in range(11):
        assert series.coeff((m, 0)) == _alt(m) * (m + 1)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _passline(1, f"point-row coefficients are (-1)^m (m+1) for m = 0..10 "
                 f"({elapsed:.3f}s)")


# -- 2: curve-layer column via series division --------------------------------


def test_criterion_02_orbifold_column_from_ratio():
    model = build_a1()
    L = model.l_plus
    win = Window(L, 20)
    ratio = dtpt_ratio(model.orbifold_layer, model.point_row, win)
    for m in range(-8, 4):
        assert ratio.window.admits((m, 4))
        assert ratio.coeff((m, 4)) == 0
    for m in range(4, 13):
        assert ratio.window.admits((m, 4))
        assert ratio.coeff((m, 4)) == _alt(m) * (3 * m - 9)
    _passline(2, "divided column vanishes for m <= 3 and is (-1)^m (3m-9) "
                 "for m = 4..12")


# -- 3: opposite expansion against smooth point counts ------------------------


def test_criterion_03_resolution_column_and_smooth_weights():
    model = build_a1()
    L = model.l_minus
    series = expand(model.shared_layer, Window(L, 12))
    for m in range(3, 13):
        assert series.coeff((m, 4)) == 0
    for m in range(-8, 3):
        value = series.coeff((m, 4))
        assert value == -_alt(m) * (3 * m - 9)
        assert value == behrend_smooth([2, 2 - m])
    _passline(3, "opposite expansion vanishes for m >= 3 and matches the "
                 "signed counts of P^2 x P^(2-m) for m = -8..2")


# -- 4: column difference fit plus the re-expansion certificate ---------------


def test_criterion_04_column_difference_fit_and_reexpansion(tmp_path):
    model = build_a1()
    lp, lm = model.l_plus, model.l_minus
    win = Window(lp, 20)
    plus = dtpt_ratio(model.orbifold_layer, model.point_row, win)
    minus = expand(model.shared_layer, Window(lm, 12))
    samples = {m: plus.coeff((m, 4)) - minus.coeff((m, 4))
               for m in range(-8, 13)}
    fit = detect_quasipoly(samples)
    assert fit is not None
    assert fit.period == 2
    assert fit.degrees[0] == 1
    for m in list(range(13, 21)) + list(range(-16, -8)):
        assert qp_value(fit, (m,)) == _alt(m) * (3 * m - 9)
    verdict = reexpand_check(model.shared_layer, minus, plus, (1, 0))
    assert verdict["confirmed"]

    doc = tmp_path / "worked_model.json"
    doc.write_text(json.dumps({"kind": "appendix-a"}), encoding="utf-8")
    src = str(Path(wallx.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "wallx", "--input", str(doc)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["ok"] is True
    _passline(4, "difference fits a period-2 degree-1 quasi-polynomial, the "
                 "certificate confirms, and the CLI run exits 0")


# -- 5: the one-variable warm-up ----------------------------------------------


def test_criterion_05_geometric_series_both_expansions():
    one = LaurentPolynomial.constant(1, 1)
    f = RationalFunction(one, one - LaurentPolynomial.monomial((1,)))
    lp = LinearFunctional((fr(1),))
    lm = LinearFunctional((fr(-1),))
    s_plus = expand(f, Window(lp, 10))
    s_minus = expand(f, Window(lm, 10))
    assert dict(s_plus.terms()) == {(m,): Fraction(1) for m in range(11)}
    assert dict(s_minus.terms()) == {(m,): Fraction(-1) for m in range(-10, 0)}
    verdict = reexpand_check(f, s_minus, s_plus, (1,))
    assert verdict["confirmed"]
    fit = verdict["cosets"][0]["fit"]
    assert fit.period == 1
    assert fit.degrees[0] == 0
    assert all(qp_value(fit, (k,)) == 1 for k in range(-12, 13))
    _passline(5, "both expansions of 1/(1-q) are exact and their difference "
                 "fits the constant 1")


# -- 6: resummation closed forms against brute force --------------------------


def _random_weight(rng, nv, grading):
    while True:
        w = tuple(rng.randint(-1, 3) for _ in range(nv))
        if grading(w) >= 1:
            return w


def _coeffs_through(out, grading, cap):
    # expand() refuses vacuous windows, so handle outputs whose support
    # starts above the cap: every coefficient in range is zero
    if out.numerator.is_zero():
        return {}
    lead = min(grading(e) for e, _ in out.numerator.items())
    base = min(grading(e) for e, _ in out.denominator.items())
    if lead - base > cap:
        return {}
    return _expand_coeffs(out, grading, cap)


def _stated_orthant_product(a, monos, nv):
    one = LaurentPolynomial.constant(nv, 1)
    out = one
    for i, w in enumerate(monos):
        e = 1 + a.degrees[i]
        if e > 0:
            step = tuple(a.period * x for x in w)
            out = out * power(one - LaurentPolynomial.monomial(step), e)
    return out


def _stated_chain_product(a, pattern, monos, nv):
    # one factor per free position, built from tail sums of monomials
    # and tail sums of per-variable degrees
    one = LaurentPolynomial.constant(nv, 1)
    out = one
    for m in pattern.free_positions():
        tail = range(m - 1, pattern.r)
        w = tuple(sum(monos[i][k] for i in tail) for k in range(nv))
        e = 1 + sum(a.degrees[i] for i in tail)
        if e > 0:
            step = tuple(a.period * x for x in w)
            out = out * power(one - LaurentPolynomial.monomial(step), e)
    return out


def test_criterion_06_resummation_matches_bruteforce(rng):
    start = time.monotonic()
    cap = Fraction(12)
    trials = 0
    chains = 0
    for _ in range(200):
        r = rng.randint(1, 3)
        a = _random_qp(rng, r, rng.randint(1, 3), rng.randint(0, 3))
        nv = rng.randint(1, 2)
        grading = LinearFunctional((fr(1),) * nv)
        monos = [_random_weight(rng, nv, grading) for _ in range(r)]
        if rng.random() < 0.5:
            pattern = ChainPattern(r, frozenset(
                i for i in range(1, r) if rng.random() < 0.35))
            out = resum_chain(a, pattern, monos, grading)
            brute = _brute_chain(a, pattern, monos, grading, cap)
            stated = _stated_chain_product(a, pattern, monos, nv)
            chains += 1
        else:
            out = resum_orthant(a, monos, grading)
            brute = _brute_orthant(a, monos, grading, cap)
            stated = _stated_orthant_product(a, monos, nv)
        assert _coeffs_through(out, grading, cap) == brute
        if a.degrees[0] >= 0:
            if out.denominator != stated:
                assert _exact_quotient(stated, out.denominator,
                                       grading) is not None
        if not out.numerator.is_zero():
            assert (max(grading(e) for e, _ in out.numerator.items())
                    < max(grading(e) for e, _ in out.denominator.items()))
        trials += 1
    elapsed = time.monotonic() - start
    assert trials >= 200
    assert elapsed < 60.0
    _passline(6, f"{trials} resummation trials ({chains} chain) match brute "
                 f"force through degree 12 ({elapsed:.1f}s)")


# -- 7: bracket laws, adjoint inverses, and the product-rule witness ----------


def test_criterion_07_bracket_laws_and_adjoint_inverse(rng):
    spec = model_lattice()

    def mono():
        cls = KClass(rng.randint(-1, 1), (rng.randint(-2, 2),),
                     (rng.randint(-2, 2), rng.randint(-2, 2)))
        return TorusElement(spec, {cls: Fraction(rng.randint(-3, 3) or 1,
                                                 rng.randint(1, 3))})

    for _ in range(500):
        x, y, z = mono(), mono(), mono()
        assert (bracket(x, y) + bracket(y, x)).is_zero()
        jac = (bracket(x, bracket(y, z)) + bracket(y, bracket(z, x))
               + bracket(z, bracket(x, y)))
        assert jac.is_zero()
        s = Fraction(rng.randint(-2, 2))
        t = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
        lhs = bracket(x.scale(s) + y.scale(t), z)
        rhs = bracket(x, z).scale(s) + bracket(y, z).scale(t)
        assert (lhs - rhs).is_zero()

    for _ in range(100):
        trunc = Truncation((rng.randint(2, 3),))
        terms = {}
        for _ in range(rng.randint(1, 3)):
            cls = KClass(-1, (rng.randint(0, 2),),
                         (rng.randint(-1, 1), rng.randint(-1, 1)))
            terms[cls] = Fraction(rng.randint(-2, 2) or 1, rng.randint(1, 2))
        x = TorusElement(spec, terms)
        w = _mono(spec, 0, (rng.randint(1, 2),),
                  (rng.randint(-1, 1), rng.randint(-1, 1)),
                  Fraction(rng.randint(1, 3), 2))
        back = exp_ad(w.scale(-1), exp_ad(w, x, trunc), trunc)
        assert (back - x).is_zero()

    # frozen witness: the unsigned product is not a bracket derivation,
    # which is what forces the signed convention
    a = _mono(spec, 1, (0,), (0, 0))
    b = _mono(spec, 0, (1,), (0, 0))
    lhs = bracket(a, naive_product(b, b))
    rhs = naive_product(bracket(a, b), b) + naive_product(b, bracket(a, b))
    target = KClass(1, (2,), (0, 0))
    assert lhs.coeff(target) == 2
    assert rhs.coeff(target) == -2
    assert lhs != rhs
    _passline(7, "500 bracket-law triples, 100 adjoint inverse round trips, "
                 "and the stored product-rule failure")


# -- 8: point walls act on every curve layer at once --------------------------


def test_criterion_08_point_walls_scale_layers(rng):
    # the model lattice pairs point classes with everything else only
    # through the rank row, so a point-supported wall multiplies each
    # curve layer of the seed by one common series
    spec = model_lattice()
    cap = 8
    trunc = Truncation((2,), deg_cap=fr(cap))
    configs = 0
    for _ in range(50):
        seed_terms = {}
        for b in ((0,), (1,), (2,)):
            for _ in range(rng.randint(1, 2)):
                cls = KClass(-1, b, (rng.randint(0, 2), rng.randint(0, 2)))
                seed_terms[cls] = Fraction(rng.randint(-3, 3) or 1,
                                           rng.randint(1, 2))
            seed_terms.setdefault(KClass(-1, b, (0, 0)), Fraction(1))
        seed = SeedSeries(TorusElement(spec, seed_terms))
        j_terms = {}
        for _ in range(rng.randint(1, 3)):
            c = (rng.randint(0, 2), rng.randint(0, 2))
            if spec.deg_point(c) < 1:
                c = (1, 0)
            j_terms[KClass(0, (0,), c)] = Fraction(rng.randint(-2, 2),
                                                   rng.randint(1, 2))
        wall = WallDatum(INF, TorusElement(spec, j_terms))
        out = iterate_walls(seed, [wall], trunc).element
        out_layers = _layers(out, spec.rank0)
        seed_layers = _layers(seed.element, spec.rank0)
        empty = LaurentPolynomial({}, spec.rank0)
        for b in ((1,), (2,)):
            lhs = out_layers.get(b, empty) * seed_layers[(0,)]
            rhs = out_layers[(0,)] * seed_layers[b]
            assert _filter_deg(lhs, spec, cap) == _filter_deg(rhs, spec, cap)
        configs += 1
    assert configs >= 50
    _passline(8, f"{configs} point-wall crossings scale every curve layer "
                 f"by one common series")


# -- 9: group resummation against iterated brackets ---------------------------


def test_criterion_09_group_resummation(rng):
    groups = 0
    for _ in range(12):
        group = _random_group_two_gen(rng)
        _check_group_against_brute(group, a_max=15)
        f = group_resum(group, None)
        ref = _reference_product(group.context, group.betas, group.equalities)
        L = group.context.point_degree_functional()
        assert _exact_quotient(ref, f.denominator, L) is not None
        groups += 1
    _passline(9, f"{groups} random groups match bracket partial sums through "
                 f"a_i <= 15 with denominators dividing the stated product")


# -- 10: duality certificate with a negative control --------------------------


def test_criterion_10_duality_certificate():
    spec = _swap_lattice()
    sym = RationalFunction(_poly({(1, 0): 1, (0, 1): 1}, 2),
                           _poly({(0, 0): 1, (1, 1): -1}, 2))
    pair = RationalFunction(_poly({(2, 1): 3, (1, 2): 3}, 2),
                            _poly({(0, 0): 1, (2, 2): -1}, 2))
    report = duality_check({(1,): sym, (2,): pair}, spec)
    assert report["all_ok"]
    assert all(e["ok"] and "first_discrepancy" not in e for e in report["entries"])

    skew = RationalFunction(_poly({(1, 0): 2, (0, 1): 1}, 2),
                            _poly({(0, 0): 1, (1, 1): -1}, 2))
    report = duality_check({(1,): skew}, spec)
    assert not report["all_ok"]
    entry = report["entries"][0]
    assert not entry["ok"]
    assert entry["first_discrepancy"] == {"exponent": [0, 1], "coeff": "1"}
    _passline(10, "symmetric families certified; the perturbed control fails "
                  "at exponent (0, 1) with coefficient 1")
