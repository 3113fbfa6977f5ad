"""The four seeded workloads.

Each workload turns a seed into one round of problems.  A round has a
fixed composition (the same sizes and shapes for every seed) and seeded
contents, so figures from different seeds measure the same mix.  Every
call into wallx goes through a module attribute (``a1model.run_a1``, not
a saved reference) so the traced run can wrap it.
"""

import contextlib
import io
import itertools
import json
import math
import random
import sys
from fractions import Fraction

import oracles
from wallx_setup import MODEL_LATTICE, SWAP_LATTICE, TWO_GEN_LATTICE, lattice_obj

RESUM_CAP = 12          # grading cap of the brute-force resummation oracle


class Problem:
    """One timed call.  ``run`` returns the output, ``canon`` renders it in
    its wire form (what the digest covers), ``check`` returns None or a
    description of how the output fails its oracle."""

    def __init__(self, kind, run, canon, check, counts=None):
        self.kind = kind
        self.run = run
        self.canon = canon
        self.check = check
        self.counts = counts


def _dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2)


def _frac(rng, lo=-4, hi=4, den=3):
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def _fmt(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# -- a1-report ----------------------------------------------------------------

A1_PROBLEMS = 40
A1_WINDOWS = (8, 400)


def a1_round(seed, ctx):
    """run_a1 over windows in [8, 400], one from each of A1_PROBLEMS equal
    strata of log(window), drawn from the stratum's middle fifth: a seed
    moves each window by a few percent, so every seed times nearly the same
    sizes."""
    from wallx import a1model
    rng = random.Random(seed)
    lo, hi = (math.log(w) for w in A1_WINDOWS)
    windows = []
    for k in range(A1_PROBLEMS):
        u = k + 0.4 + 0.2 * rng.random()
        w = round(math.exp(lo + u / A1_PROBLEMS * (hi - lo)))
        windows.append(min(A1_WINDOWS[1], max(A1_WINDOWS[0], w)))
    rng.shuffle(windows)
    problems = [
        Problem(f"w={w}", lambda w=w: a1model.run_a1(w), _dumps,
                lambda out, text, w=w: oracles.check_a1_report(json.loads(text), w))
        for w in windows]
    return problems, {"windows": windows}


# -- resum-mix ----------------------------------------------------------------

# 38 groups make a round of 110 problems, whose p90 lies between the
# eleventh- and twelfth-slowest problems (chains of about 55 ms each).  In
# a round of 100 or 102 it lay at the twofold gap below the tenth-slowest
# (about 115 ms against 57 ms), so it swung with noise.
RESUM_GROUPS = 38


def _chain_pattern(r, p, d):
    """Chains of r = 3 whose box p(1+d) exceeds 6 get one equality, which
    keeps a round near five seconds; the no-equality r = p = d = 3 chain
    alone takes about eight."""
    if r < 3 or p * (1 + d) <= 6:
        return ()
    return (1,) if (p, d) in ((2, 3), (3, 3)) else (2,)


def _random_table(rng, r, p, d):
    """Period-p table whose polynomials each have nonzero coefficients on
    the top exponent (d, ..., d) and a seeded further 60% of [0, d]^r, so
    every seed gives degree d in each variable."""
    top = (d,) * r
    rest = [e for e in itertools.product(range(d + 1), repeat=r) if e != top]
    count = round(0.6 * len(rest))

    def coeff():
        return Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), rng.randint(1, 3))
    return {rho: {e: coeff() for e in [top] + rng.sample(rest, count)}
            for rho in itertools.product(range(p), repeat=r)}


def _random_weight(rng, nv):
    while True:
        w = tuple(rng.randint(-1, 3) for _ in range(nv))
        if sum(w) >= 1:
            return w


def _nu(lattice, beta, c):
    l_val = sum(a * b for a, b in zip(lattice["l"], beta))
    d_val = sum(a * b for a, b in zip(lattice["deg"], tuple(beta) + tuple(c)))
    return Fraction(d_val, l_val)


def random_group(rng, r):
    """A valid slope-chain group of length r on the two-generator lattice."""
    lat = TWO_GEN_LATTICE
    betas = [rng.choice([(1, 0), (1, 1), (2, 1)]) for _ in range(r)]
    delta0 = rng.choice([Fraction(0), Fraction(1, 2)])
    l1 = sum(betas[0])
    lo = math.ceil(delta0 * l1) - betas[0][1]
    kappas = [(rng.randint(lo, lo + l1 - 1),)]
    eqs = []
    nu_prev = _nu(lat, betas[0], kappas[0])
    for i in range(1, r):
        li, off = sum(betas[i]), betas[i][1]
        exact = nu_prev * li - off
        if exact.denominator == 1 and rng.random() < 0.4:
            eqs.append(i)
            kappas.append((int(exact),))
        else:
            hi = math.floor(li * nu_prev) - off
            lo2 = math.floor(li * (nu_prev - 1)) + 1 - off
            c = rng.randint(lo2, hi)
            kappas.append((c,))
            nu_prev = Fraction(off + c, li)
    return {"alpha_prime": (-1, (0, 0), (rng.randint(0, 2),)),
            "betas": betas, "kappas": kappas, "equalities": eqs,
            "J_values": [Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 2))
                         for _ in range(r)],
            "DT_value": Fraction(rng.randint(-2, 2) or 1),
            "delta0": delta0}


def group_obj(group):
    r, beta, c = group["alpha_prime"]
    return {"alpha_prime": {"r": r, "beta": list(beta), "c": list(c)},
            "betas": [list(b) for b in group["betas"]],
            "kappas": [list(k) for k in group["kappas"]],
            "equalities": list(group["equalities"]),
            "J_values": [_fmt(v) for v in group["J_values"]],
            "DT_value": _fmt(group["DT_value"]),
            "delta0": _fmt(group["delta0"])}


def _check_rf(brute_fn, grading, cap):
    def check(out, text):
        return oracles.check_closed_form(json.loads(text), brute_fn(), grading, cap)
    return check


def resum_round(seed, ctx):
    """Every (r, period, degree) of criterion 06 once as an orthant sum and
    once as a chain sum, with one or two point variables in turn, plus
    group resummations on the two-generator lattice.  Sizes and shapes are
    fixed per problem; the seed picks coefficients, which exponents carry
    them, the monomials, and the groups."""
    from wallx import quasipoly, series, wallcross
    from wallx.lattice import KClass
    rng = random.Random(seed)
    problems = []
    histogram = {}

    def rf_canon(out):
        return json.dumps(series.rational_function_to_obj(out), sort_keys=True)

    for kind in ("orthant", "chain"):
        for slot, (r, p, d) in enumerate(itertools.product((1, 2, 3), (1, 2, 3), (0, 1, 2, 3))):
            nv = 1 + slot % 2
            grading = (1,) * nv
            table = _random_table(rng, r, p, d)
            monos = [_random_weight(rng, nv) for _ in range(r)]
            qp = quasipoly.QuasiPolynomial(r, p, {
                rho: series.LaurentPolynomial(terms, r) for rho, terms in table.items()})
            L = series.LinearFunctional(grading)
            if kind == "orthant":
                run = lambda qp=qp, monos=monos, L=L: quasipoly.resum_orthant(qp, monos, L)
                brute = lambda table=table, p=p, monos=monos, g=grading: \
                    oracles.brute_orthant(table, p, monos, g, RESUM_CAP)
                label = f"orthant r{r} p{p} d{d} nv{nv}"
            else:
                eqs = _chain_pattern(r, p, d)
                pattern = quasipoly.ChainPattern(r, frozenset(eqs))
                run = lambda qp=qp, pattern=pattern, monos=monos, L=L: \
                    quasipoly.resum_chain(qp, pattern, monos, L)
                brute = lambda table=table, p=p, eqs=eqs, monos=monos, g=grading: \
                    oracles.brute_chain(table, p, set(eqs), monos, g, RESUM_CAP)
                label = f"chain r{r} p{p} d{d} eq{list(eqs)} nv{nv}"
            histogram[label] = histogram.get(label, 0) + 1
            problems.append(Problem(label, run, rf_canon,
                                    _check_rf(brute, grading, RESUM_CAP)))

    spec = ctx["two_gen"]
    for k in range(RESUM_GROUPS):
        r = 1 + k % 2
        group = random_group(rng, r)
        alpha = KClass(*group["alpha_prime"])
        gspec = wallcross.GroupSpec(spec, alpha, tuple(group["betas"]),
                                    tuple(group["kappas"]),
                                    frozenset(group["equalities"]),
                                    tuple(group["J_values"]), group["DT_value"],
                                    group["delta0"])
        run = lambda gspec=gspec: wallcross.group_resum(gspec, None)
        cap = sum(group["alpha_prime"][2]) + sum(k[0] for k in group["kappas"]) + RESUM_CAP
        brute = lambda group=group, cap=cap: oracles.brute_group(TWO_GEN_LATTICE, group, cap)
        label = f"group r{r}"
        histogram[label] = histogram.get(label, 0) + 1
        problems.append(Problem(label, run, rf_canon, _check_rf(brute, (1,), cap)))

    rng.shuffle(problems)
    return problems, {"histogram": dict(sorted(histogram.items())),
                      "oracle_cap": RESUM_CAP}


# -- wall-sweep ---------------------------------------------------------------

SWEEP_BETA_CAPS = (4, 5, 6, 7, 8)
SWEEP_DEG_CAPS = (8, 9, 10, 11, 12)


def _model_walls(rng):
    """Walls at slopes 0, 1/2, ..., 7/2, the k-th carrying the class
    (1 + k % 2, c) of that slope (c1 + c2 = 2 beta s), and a point wall of
    degree 1; the seed picks the coefficients.  On a rank -1 seed the
    bracket weight of a wall class is beta + c1, so c1 >= 0 keeps every
    wall acting."""
    walls = []
    for k in range(8):
        beta = 1 + k % 2
        total = beta * k
        c1 = (total + 1) // 2
        walls.append((Fraction(k, 2),
                      [((0, (beta,), (c1, total - c1)), _frac(rng, -3, 3) or Fraction(1))]))
    point = [((0, (0,), (1, 0)), _frac(rng, -2, 2, 2) or Fraction(1))]
    return walls, point


def _two_gen_walls(rng):
    """Walls at slopes 1..6 carrying one of (1,0), (1,1), (2,1) in turn,
    with c = s l(beta) - beta_2, and a point wall of degree 1; the seed
    picks the coefficients."""
    walls = []
    for s in range(1, 7):
        beta = ((1, 0), (1, 1), (2, 1))[s % 3]
        walls.append((Fraction(s), [((0, beta, (s * sum(beta) - beta[1],)),
                                     _frac(rng, -3, 3) or Fraction(1))]))
    point = [((0, (0, 0), (1,)), _frac(rng, -2, 2, 2) or Fraction(1))]
    return walls, point


def _dense_seed(rng, lattice_name):
    if lattice_name == "model":
        cells = [((b,), (c1, c2)) for b in (0, 1)
                 for c1 in range(3) for c2 in range(3)]
    else:
        cells = [(beta, (c,)) for beta in ((0, 0), (1, 0), (1, 1))
                 for c in range(5)]
    return [((-1, beta, c), _frac(rng, 1, 5)) for beta, c in cells]


def sweep_round(seed, ctx):
    """iterate_walls of a dense seed across curve walls and a point wall,
    on both lattices, twice at every pairing of beta cap 4..8 (the model
    lattice's (b,), the two-generator lattice's (b, b//2)) with degree cap
    8..12.  The classes are fixed per problem, so every seed does the same
    work up to cancellations; the seed picks the coefficients."""
    from wallx import poisson, wallcross
    from wallx.lattice import INF, KClass
    rng = random.Random(seed)
    problems = []
    caps = []

    def element(spec, terms):
        return poisson.TorusElement(spec, [(KClass(*cls), c) for cls, c in terms])

    for name, b, deg_cap, _ in itertools.product(("model", "two_gen"), SWEEP_BETA_CAPS,
                                                 SWEEP_DEG_CAPS, range(2)):
        spec = ctx[name]
        beta_cap = (b,) if name == "model" else (b, b // 2)
        curve, point = (_model_walls if name == "model" else _two_gen_walls)(rng)
        seed_terms = _dense_seed(rng, name)
        walls = [wallcross.WallDatum(s, element(spec, terms)) for s, terms in curve]
        walls.append(wallcross.WallDatum(INF, element(spec, point)))
        seed_el = wallcross.SeedSeries(element(spec, seed_terms))
        trunc = poisson.Truncation(beta_cap, Fraction(deg_cap))
        run = lambda s=seed_el, w=walls, t=trunc: wallcross.iterate_walls(s, w, t)
        check = lambda out, text, lat=LATTICES[name], s=seed_terms, \
            w=[t for _, t in curve] + [point], b=beta_cap, d=deg_cap: \
            _sweep_check(text, lat, _flat(s), [_flat(t) for t in w], b, d)
        label = f"{name} beta_cap={list(beta_cap)} deg_cap={deg_cap}"
        caps.append(label)
        problems.append(Problem(label, run, _seed_canon, check))
    rng.shuffle(problems)
    return problems, {"truncations": caps}


def _seed_canon(out):
    from wallx.wallcross import seed_to_obj
    return json.dumps(seed_to_obj(out), sort_keys=True)


LATTICES = {"model": MODEL_LATTICE, "two_gen": TWO_GEN_LATTICE}


def _flat(terms):
    """Plain-data terms as {(r, *beta, *c): coefficient}."""
    return {(r,) + tuple(beta) + tuple(c): x for (r, beta, c), x in terms}


def _sweep_check(text, lattice, seed, walls, beta_cap, deg_cap):
    """The output must equal the oracle's own sweep, and the oracle's
    crossing of the negated walls in reverse order must take the output
    back to the seed exactly: wall classes have effective curve parts and
    point degree at least 0, so the truncation is closed under the walls."""
    out = oracles.element_from_obj(json.loads(text)["element"])
    if out != oracles.sweep(lattice, seed, walls, beta_cap, deg_cap):
        return "sweep differs from the direct exp({w, -}) series"
    back = [{v: -c for v, c in w.items()} for w in reversed(walls)]
    if oracles.sweep(lattice, out, back, beta_cap, deg_cap) != seed:
        return "reverse crossing does not restore the seed"
    return None


# -- cli-docs -----------------------------------------------------------------

CLI_DOCS = 200


def _poly_obj(terms):
    return [{"exponent": list(e), "coeff": _fmt(c)} for e, c in sorted(terms.items())]


def _inv_power(sign, k):
    """1 / (1 + sign*q)^k as a one-variable rational function document."""
    den = {(i,): Fraction(math.comb(k, i) * sign ** i) for i in range(k + 1)}
    return {"numerator": _poly_obj({(0,): 1}), "denominator": _poly_obj(den)}


def _binomial_terms(k, bound):
    return {(m,): Fraction(math.comb(m + k - 1, k - 1)) for m in range(bound + 1)}


def _series_obj(terms, functional, bound):
    return {"window": {"functional": functional, "bound": _fmt(bound)},
            "terms": _poly_obj(terms)}


def _series_is(report, expected, bound):
    series = report["series"]
    got = oracles.poly_from_obj(series["terms"])
    if Fraction(series["window"]["bound"]) != bound:
        return "window bound differs"
    return None if got == {e: c for e, c in expected.items() if c} else "coefficients differ"


def _random_element(rng, ranks, count=3):
    terms = {}
    for _ in range(rng.randint(1, count)):
        cls = (rng.choice(ranks), (rng.randint(-2, 2),),
               (rng.randint(-2, 2), rng.randint(-2, 2)))
        terms[cls] = _frac(rng, -3, 3, 2) or Fraction(1)
    return terms


def _element_obj(terms):
    return [{"class": {"r": r, "beta": list(b), "c": list(c)}, "coeff": _fmt(x)}
            for (r, b, c), x in sorted(terms.items())]


def _qp_obj(table, vars_, period):
    return {"vars": vars_, "period": period,
            "table": [{"residues": list(rho), "poly": _poly_obj(terms)}
                      for rho, terms in sorted(table.items())]}


def _doc_expand_known(rng):
    b = rng.randint(6, 30)
    doc = {"kind": "expand", "f": _inv_power(1, 2),
           "window": {"functional": [1], "bound": str(b)}}
    want = {(m,): Fraction(oracles.alt(m) * (m + 1)) for m in range(b + 1)}
    return [], doc, 0, None, lambda rep: _series_is(rep, want, b)


def _doc_expand_window(rng):
    k, b, override = rng.randint(1, 4), rng.randint(4, 12), rng.randint(6, 24)
    doc = {"kind": "expand", "f": _inv_power(-1, k),
           "window": {"functional": [1], "bound": str(b)}}
    want = _binomial_terms(k, override)
    return (["--window", str(override)], doc, 0, None,
            lambda rep: _series_is(rep, want, override))


def _doc_verify(rng, wrong):
    k, b = rng.randint(1, 4), rng.randint(4, 20)
    terms = _binomial_terms(k, b)
    if wrong:
        m = rng.randint(0, b)
        terms[(m,)] += 1
    doc = {"kind": "verify", "f": _inv_power(-1, k),
           "series": _series_obj(terms, [1], b)}
    return [], doc, 1 if wrong else 0, None, \
        lambda rep: None if rep["verified"] is (not wrong) else "wrong verdict"


def _doc_resum(rng, chain):
    r = 2 if chain else rng.randint(1, 2)
    p, d = rng.randint(1, 2), rng.randint(0, 2)
    table = _random_table(rng, r, p, d)
    monos = [_random_weight(rng, 1) for _ in range(r)]
    doc = {"kind": "resum", "quasipoly": _qp_obj(table, r, p),
           "monomials": [list(v) for v in monos], "grading": [1]}
    if chain:
        eqs = [1] if rng.random() < 0.35 else []
        doc["pattern"] = {"equalities": eqs}
        brute = lambda: oracles.brute_chain(table, p, set(eqs), monos, (1,), RESUM_CAP)
    else:
        brute = lambda: oracles.brute_orthant(table, p, monos, (1,), RESUM_CAP)
    return [], doc, 0, None, lambda rep: oracles.check_closed_form(
        rep["rational_function"], brute(), (1,), RESUM_CAP)


def _doc_group(rng):
    group = random_group(rng, rng.randint(1, 2))
    doc = {"kind": "resum", "lattice": lattice_obj(TWO_GEN_LATTICE),
           "group": group_obj(group)}
    cap = sum(group["alpha_prime"][2]) + sum(k[0] for k in group["kappas"]) + RESUM_CAP
    return [], doc, 0, None, lambda rep: oracles.check_closed_form(
        rep["rational_function"], oracles.brute_group(TWO_GEN_LATTICE, group, cap),
        (1,), cap)


def _doc_detect(rng, fits):
    p, d = rng.randint(1, 3), rng.randint(0, 2)
    coeffs = {rho: [rng.randint(-5, 5) for _ in range(d + 1)] for rho in range(p)}
    ns = range(-6, 25)
    if fits:
        values = {n: sum(c * n ** i for i, c in enumerate(coeffs[n % p])) for n in ns}
    else:
        values = {n: rng.randint(-50, 50) for n in ns}
    doc = {"kind": "detect", "samples": [{"n": n, "value": v} for n, v in values.items()]}

    def answer(rep):
        if rep["found"] is not fits:
            return "wrong verdict"
        if not fits:
            return None
        fit = rep["fit"]
        table = {tuple(e["residues"]): oracles.poly_from_obj(e["poly"]) for e in fit["table"]}
        ok = all(oracles.qp_value(table, fit["period"], (n,)) == v for n, v in values.items())
        return None if ok else "fit does not reproduce the samples"
    return [], doc, 0 if fits else 1, None, answer


def _doc_bracket(rng):
    x = _random_element(rng, (-1, 0, 1))
    y = _random_element(rng, (-1, 0, 1))
    doc = {"kind": "bracket", "lattice": lattice_obj(MODEL_LATTICE),
           "x": _element_obj(x), "y": _element_obj(y)}
    flat = lambda t: {(r,) + b + c: v for (r, b, c), v in t.items()}
    want = oracles.bracket(MODEL_LATTICE, flat(x), flat(y))
    return [], doc, 0, None, lambda rep: None if oracles.element_from_obj(
        rep["element"]) == want else "bracket differs from the direct sum"


def _model_wall_terms(rng, s2):
    k = rng.randint(1, 2)
    c1 = rng.randint(-1, k * s2 + 1)
    return {(0, (k,), (c1, k * s2 - c1)): _frac(rng, -3, 3) or Fraction(1)}


def _doc_exp_ad(rng):
    w = _model_wall_terms(rng, rng.randint(0, 4))
    x = {(-1, (rng.randint(0, 1),), (rng.randint(0, 2), rng.randint(0, 2))):
         _frac(rng, 1, 4) for _ in range(3)}
    doc = {"kind": "exp-ad", "lattice": lattice_obj(MODEL_LATTICE),
           "w": _element_obj(w), "x": _element_obj(x),
           "truncation": {"beta_cap": [rng.randint(2, 3)], "deg_cap": "6"}}
    return [], doc, 0, None, None


def _doc_wallcross(rng):
    slopes = sorted(rng.sample(range(0, 6), 2))
    walls = [{"slope": _fmt(Fraction(s2, 2)), "J": _element_obj(_model_wall_terms(rng, s2))}
             for s2 in slopes]
    seed = {(-1, (0,), (c1, c2)): _frac(rng, 1, 4) for c1 in range(2) for c2 in range(2)}
    doc = {"kind": "wallcross", "lattice": lattice_obj(MODEL_LATTICE),
           "seed": {"element": _element_obj(seed)}, "walls": walls,
           "truncation": {"beta_cap": [2], "deg_cap": "6"}}
    return [], doc, 0, None, None


def _doc_dtpt(rng):
    k = rng.randint(2, 4)
    j, b = rng.randint(1, k - 1), rng.randint(4, 16)
    doc = {"kind": "dtpt", "dt": _inv_power(-1, k), "dt_zero": _inv_power(-1, j),
           "window": {"functional": [1], "bound": str(b)}}
    want = _binomial_terms(k - j, b)
    return [], doc, 0, None, lambda rep: _series_is(rep, want, b)


def _doc_dualize_class(rng):
    r, beta = rng.randint(-1, 1), rng.randint(-2, 2)
    c = (rng.randint(-3, 3), rng.randint(-3, 3))
    doc = {"kind": "dualize", "lattice": lattice_obj(SWAP_LATTICE),
           "class": {"r": r, "beta": [beta], "c": list(c)}}
    want = {"r": r, "beta": [beta], "c": [c[1], c[0]]}
    return [], doc, 0, None, lambda rep: None if rep["image"] == want else "wrong image"


def _doc_dualize_family(rng, skew):
    a = rng.randint(1, 3)
    num = {(1, 0): a + (1 if skew else 0), (0, 1): a}
    fam = [{"beta": [1], "f": {"numerator": _poly_obj(num),
                               "denominator": _poly_obj({(0, 0): 1, (1, 1): -1})}}]
    doc = {"kind": "dualize", "lattice": lattice_obj(SWAP_LATTICE), "family": fam}
    return [], doc, 1 if skew else 0, None, \
        lambda rep: None if rep["all_ok"] is (not skew) else "wrong verdict"


def _doc_reexpand(rng):
    lo, hi = rng.randint(4, 10), rng.randint(4, 10)
    doc = {"kind": "reexpand", "f": _inv_power(-1, 1),
           "s_minus": _series_obj({(m,): -1 for m in range(-lo, 0)}, [-1], lo),
           "s_plus": _series_obj({(m,): 1 for m in range(hi + 1)}, [1], hi),
           "c0": [1]}
    return [], doc, 0, None, lambda rep: None if rep["confirmed"] else "not confirmed"


def _doc_appendix(rng):
    w = rng.randint(8, 16)
    return [], {"kind": "appendix-a", "window": w}, 0, None, \
        lambda rep: oracles.check_a1_report(rep, w)


def _doc_appendix_table(rng):
    w = rng.randint(8, 16)
    return ["--format", "table"], {"kind": "appendix-a", "window": w}, 0, None, None


def _doc_selfcheck(rng):
    return ["--seed", str(rng.randint(0, 10 ** 6))], {"kind": "selfcheck"}, 0, None, \
        lambda rep: None if rep["ok"] else "selfcheck not ok"


def _bad(doc, path, argv=()):
    return lambda rng: (list(argv), doc(rng), 2, path, None)


_MALFORMED = [
    _bad(lambda rng: {"kind": f"kind-{rng.randint(0, 99)}"}, "document.kind"),
    _bad(lambda rng: '{"kind": "expand", "f": ' + "[" * rng.randint(1, 3), "document"),
    _bad(lambda rng: {"kind": "expand", "window": {"functional": [1], "bound": "4"},
                      "f": {"numerator": [{"exponent": [0], "coeff": 0.5 + rng.randint(0, 9)}],
                            "denominator": [{"exponent": [0], "coeff": "1"}]}},
         "document.f.numerator[0].coeff"),
    _bad(lambda rng: {"kind": "expand", "f": _inv_power(1, rng.randint(1, 3))}, "document"),
    _bad(lambda rng: {"kind": "detect", "samples": {"n": rng.randint(0, 9)}}, "document.samples"),
    _bad(lambda rng: {"kind": "bracket", "x": [], "y": [],
                      "lattice": dict(lattice_obj(MODEL_LATTICE), rank1=str(rng.randint(1, 3)))},
         "document.lattice.rank1"),
    _bad(lambda rng: {"kind": "resum", "monomials": [[1]], "grading": [1],
                      "quasipoly": {"vars": 1, "period": 2, "table": [
                          {"residues": [0], "poly": [{"exponent": [0],
                                                      "coeff": str(rng.randint(1, 9))}]}]}},
         "document.quasipoly"),
    _bad(lambda rng: {"kind": "dualize", "lattice": lattice_obj(SWAP_LATTICE),
                      "class": {"r": 0, "beta": [1, rng.randint(0, 3)], "c": [0, 0]}},
         "document.class.beta"),
    _bad(lambda rng: {"kind": "wallcross", "lattice": lattice_obj(MODEL_LATTICE),
                      "seed": {"element": []}, "truncation": {"beta_cap": [2]},
                      "walls": [{"slope": _fmt(Fraction(s2, 2)),
                                 "J": _element_obj(_model_wall_terms(rng, s2))}
                                for s2 in (rng.randint(3, 5), rng.randint(0, 2))]},
         None),
    _bad(lambda rng: {"kind": "appendix-a", "window": rng.randint(0, 7)}, None),
    _bad(lambda rng: [rng.randint(0, 9)], "document"),
    _bad(lambda rng: {"kind": "exp-ad", "lattice": lattice_obj(MODEL_LATTICE),
                      "w": [], "x": []}, "document.truncation"),
]

_TEMPLATES = [
    _doc_expand_known, _doc_expand_window,
    lambda rng: _doc_verify(rng, False), lambda rng: _doc_verify(rng, True),
    lambda rng: _doc_resum(rng, False), lambda rng: _doc_resum(rng, True), _doc_group,
    lambda rng: _doc_detect(rng, True), lambda rng: _doc_detect(rng, False),
    _doc_bracket, _doc_exp_ad, _doc_wallcross, _doc_dtpt, _doc_dualize_class,
    lambda rng: _doc_dualize_family(rng, False), lambda rng: _doc_dualize_family(rng, True),
    _doc_reexpand, _doc_appendix, _doc_appendix_table, _doc_selfcheck,
] + _MALFORMED


def run_cli(argv, text):
    """One in-process ``wallx.cli.main`` call on ``text`` as stdin."""
    from wallx import cli
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def _cli_check(code_want, path_want, answer):
    def check(out, text):
        code, stdout = out
        if code != code_want:
            return f"exit {code}, expected {code_want}"
        if code_want == 2:
            path = json.loads(stdout)["error"]["path"]
            return None if path == path_want else f"error path {path!r}, expected {path_want!r}"
        if answer is None:
            return None
        return answer(json.loads(stdout))
    return check


def _cli_counts(out, err):
    if err is not None:
        return {"cli.docs": 1, "cli.exceptions": 1}
    code, stdout = out
    return {"cli.docs": 1, "cli.bytes_out": len(stdout.encode()), f"cli.exit_{code}": 1}


def cli_round(seed, ctx):
    """Documents of all twelve kinds at small sizes, negative verdicts
    (exit 1) and malformed documents (exit 2), in a fixed mix."""
    rng = random.Random(seed)
    problems = []
    kinds = {}
    for k in range(CLI_DOCS):
        argv, doc, code, path, answer = _TEMPLATES[k % len(_TEMPLATES)](rng)
        text = doc if isinstance(doc, str) else json.dumps(doc)
        if isinstance(doc, dict):
            kind = doc["kind"]
        else:
            kind = "invalid-json" if isinstance(doc, str) else "non-object"
        label = f"{kind} exit {code}"
        kinds[label] = kinds.get(label, 0) + 1
        problems.append(Problem(label, lambda argv=argv, text=text: run_cli(argv, text),
                                lambda out: f"exit {out[0]}\n{out[1]}",
                                _cli_check(code, path, answer), _cli_counts))
    rng.shuffle(problems)
    return problems, {"documents": dict(sorted(kinds.items()))}


def known_defects():
    """Documents that fail today for reasons ROADMAP lists.  They are run
    once, untimed, outside the measured mix, and reported by outcome.

    A ``bracket`` truncation with ``beta_cap: [5000]`` recurses once per
    generator step in ``LatticeSpec.is_effective`` (ROADMAP 4(b)).
    ``--window 1e400`` on ``expand`` (ROADMAP 4(c)) never terminates, so it
    is not run at all.
    """
    doc = {"kind": "bracket", "lattice": lattice_obj(MODEL_LATTICE),
           "x": _element_obj({(-1, (0,), (0, 0)): Fraction(1)}),
           "y": _element_obj({(0, (1,), (0, 0)): Fraction(1)}),
           "truncation": {"beta_cap": [5000]}}
    try:
        code, _ = run_cli([], json.dumps(doc))
        outcome = f"exit {code}"
    except Exception as exc:  # the defect under observation
        outcome = f"raised {type(exc).__name__}"
    return [{"document": "bracket with truncation beta_cap [5000]",
             "roadmap": "4(b)", "outcome": outcome},
            {"document": "expand with --window 1e400", "roadmap": "4(c)",
             "outcome": "not run: does not terminate"}]


ROUNDS = {"a1-report": a1_round, "resum-mix": resum_round,
          "wall-sweep": sweep_round, "cli-docs": cli_round}
