"""Independent oracles for the workloads' outputs.

Nothing here calls wallx.  Outputs arrive in their JSON wire form and are
checked with plain dict arithmetic over Fractions against brute-force
sums, closed forms and direct bracket evaluation.
"""

import math
from fractions import Fraction


def alt(m):
    return -1 if m % 2 else 1


def behrend(dims):
    """Signed Euler characteristic of a product of projective spaces."""
    value = -1 if sum(dims) % 2 else 1
    for d in dims:
        value *= d + 1
    return value


# -- sparse polynomials as {exponent tuple: Fraction} -------------------------

def poly_from_obj(terms):
    out = {}
    for term in terms:
        e = tuple(term["exponent"])
        out[e] = out.get(e, 0) + Fraction(term["coeff"])
    return {e: c for e, c in out.items() if c}


def poly_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def weight(e, grading):
    return sum(g * x for g, x in zip(grading, e))


def check_closed_form(rf_obj, brute, grading, cap):
    """Does g/h expand, along ``grading``, to ``brute`` through ``cap``?

    ``brute`` holds every coefficient of the true sum with grading at most
    ``cap``.  With h = c0 x^m0 + (terms of larger grading), g/h agrees with
    the true sum through cap exactly when brute * h agrees with g through
    cap + grading(m0).  Returns None when it does, else a description of
    the first disagreement.
    """
    num = poly_from_obj(rf_obj["numerator"])
    den = poly_from_obj(rf_obj["denominator"])
    if not den:
        return "zero denominator"
    low = min(weight(e, grading) for e in den)
    if sum(1 for e in den if weight(e, grading) == low) != 1:
        return "denominator has no unique lowest term"
    bound = cap + low
    prod = {e: c for e, c in poly_mul(brute, den).items()
            if weight(e, grading) <= bound}
    want = {e: c for e, c in num.items() if weight(e, grading) <= bound}
    if prod == want:
        return None
    bad = min((e for e in set(prod) | set(want) if prod.get(e, 0) != want.get(e, 0)),
              key=lambda e: (weight(e, grading), e))
    return (f"coefficient of brute*h at {list(bad)} is {prod.get(bad, 0)}, "
            f"numerator has {want.get(bad, 0)}")


# -- quasi-polynomial sums ----------------------------------------------------

def qp_value(table, period, n):
    poly = table[tuple(x % period for x in n)]
    total = Fraction(0)
    for e, c in poly.items():
        term = c
        for x, k in zip(n, e):
            term *= x ** k
        total += term
    return total


def _accumulate(out, monos, n, value):
    if value:
        e = tuple(sum(n[i] * monos[i][j] for i in range(len(n)))
                  for j in range(len(monos[0])))
        out[e] = out.get(e, 0) + value


def brute_orthant(table, period, monos, grading, cap):
    """Sum of a(n) x^(n.monos) over the orthant, through grading ``cap``."""
    steps = [weight(v, grading) for v in monos]
    out = {}

    def walk(n, used):
        i = len(n)
        if i == len(monos):
            _accumulate(out, monos, n, qp_value(table, period, n))
            return
        k = 0
        while used + k * steps[i] <= cap:
            walk(n + (k,), used + k * steps[i])
            k += 1

    walk((), 0)
    return {e: c for e, c in out.items() if c}


def brute_chain(table, period, equalities, monos, grading, cap):
    """Chain sum over 0 <= n_1 <= ... <= n_r, equal exactly at
    ``equalities`` (position i means n_i = n_(i+1)), through ``cap``."""
    r = len(monos)
    steps = [weight(v, grading) for v in monos]
    tails = [sum(steps[i:]) for i in range(r)]
    out = {}

    def walk(n, used):
        i = len(n)
        if i == r:
            _accumulate(out, monos, n, qp_value(table, period, n))
            return
        if i == 0:
            k = 0
        elif i in equalities:
            k = n[-1]
        else:
            k = n[-1] + 1
        while used + k * tails[i] <= cap:
            walk(n + (k,), used + k * steps[i])
            if i in equalities:
                break
            k += 1

    walk((), 0)
    return {e: c for e, c in out.items() if c}


# -- torus brackets -----------------------------------------------------------

def euler(lattice, a, b):
    pairing = lattice["pairing"]
    return sum(a[i] * pairing[i][j] * b[j]
               for i in range(len(a)) for j in range(len(b)))


def signed_chi(lattice, a, b):
    chi = euler(lattice, a, b)
    return -chi if lattice["sigma"] == -1 and chi % 2 else chi


def twist(lattice, beta):
    return tuple(sum(row[j] * beta[j] for j in range(len(beta)))
                 for row in lattice["twist_matrix"])


def element_from_obj(terms):
    out = {}
    for term in terms:
        cls = term["class"]
        v = (cls["r"],) + tuple(cls["beta"]) + tuple(cls["c"])
        out[v] = out.get(v, 0) + Fraction(term["coeff"])
    return {v: c for v, c in out.items() if c}


def bracket(lattice, x, y):
    """{t^a, t^b} = sigma^chi chi t^(a+b) on elements {class vector: coeff}."""
    pairing, odd_sign = lattice["pairing"], lattice["sigma"] == -1
    out = {}
    for a, ca in x.items():
        row = [sum(a[i] * pairing[i][j] for i in range(len(a))) for j in range(len(a))]
        for b, cb in y.items():
            w = sum(r * k for r, k in zip(row, b))
            if odd_sign and w % 2:
                w = -w
            if w:
                v = tuple(p + q for p, q in zip(a, b))
                out[v] = out.get(v, 0) + ca * cb * w
    return {v: c for v, c in out.items() if c}


def effective_below(lattice, cap):
    """Curve classes b with b and cap - b both nonnegative integer
    combinations of the effective generators, built upwards from zero."""
    l = lattice["l"]
    bound = sum(a * b for a, b in zip(l, cap))
    reach = {(0,) * len(cap)}
    frontier = list(reach)
    while frontier:
        grown = []
        for v in frontier:
            for g in lattice["effgens1"]:
                w = tuple(a + b for a, b in zip(v, g))
                if w not in reach and sum(a * b for a, b in zip(l, w)) <= bound:
                    reach.add(w)
                    grown.append(w)
        frontier = grown
    return {b for b in reach if tuple(c - x for c, x in zip(cap, b)) in reach}


def sweep(lattice, seed, walls, beta_cap, deg_cap):
    """Push ``seed`` across ``walls`` (a list of wall elements, in order)
    by exp({w, -}) inside the truncation: ranks 0 and -1, curve part
    effective and below ``beta_cap``, point degree at most ``deg_cap``.
    The series is summed as x + sum_k ad_w^k(x)/k!, the k-th term being
    the (k-1)-th bracketed with w and divided by k, each bracket keeping
    only the classes inside the truncation."""
    rank1 = lattice["rank1"]
    below = effective_below(lattice, beta_cap)
    point_deg = lattice["deg"][rank1:]

    def inside(v):
        return (v[0] in (0, -1) and v[1:1 + rank1] in below
                and weight(v[1 + rank1:], point_deg) <= deg_cap)

    state = dict(seed)
    for w in walls:
        out = dict(state)
        term = state
        k = 1
        while term:
            term = {v: c / k for v, c in bracket(lattice, w, term).items() if inside(v)}
            for v, c in term.items():
                out[v] = out.get(v, 0) + c
            k += 1
        state = {v: c for v, c in out.items() if c}
    return state


def brute_group(lattice, group, cap):
    """Group contribution through point grading ``cap``, summed directly
    over the chain tuples a_1 <= ... <= a_r from the bracket weights."""
    rank1 = lattice["rank1"]
    grading = lattice["deg"][rank1:]
    betas, kappas = group["betas"], group["kappas"]
    eqs = set(group["equalities"])
    r = len(betas)
    twists = [twist(lattice, b) for b in betas]
    alpha = group["alpha_prime"]
    scalar = Fraction(group["DT_value"])
    for v in group["J_values"]:
        scalar *= Fraction(v)
    prev = 0
    for n in sorted(set(range(1, r + 1)) - eqs):
        scalar /= math.factorial(n - prev)
        prev = n
    base = tuple(c + sum(k[j] for k in kappas) for j, c in enumerate(alpha[2]))
    steps = [weight(t, grading) for t in twists]
    budget = cap - weight(base, grading)
    out = {}

    def walk(a, used):
        i = len(a)
        if i == r:
            cur = (alpha[0],) + tuple(alpha[1]) + tuple(alpha[2])
            value = scalar
            for j in range(r):
                c = tuple(k + a[j] * t for k, t in zip(kappas[j], twists[j]))
                cls = (0,) + tuple(betas[j]) + c
                value *= signed_chi(lattice, cls, cur)
                cur = tuple(p + q for p, q in zip(cur, cls))
            if value:
                e = cur[1 + rank1:]
                out[e] = out.get(e, 0) + value
            return
        k = 0 if i == 0 else a[-1] + (0 if i in eqs else 1)
        while used + k * sum(steps[i:]) <= budget:
            walk(a + (k,), used + k * steps[i])
            if i in eqs:
                break
            k += 1

    walk((), 0)
    return {e: c for e, c in out.items() if c}


# -- the worked model ---------------------------------------------------------

def check_a1_report(report, window):
    """Closed forms (-1)^m (3m-9) and (-1)^m (m+1), and Behrend weights of
    P^2 x P^k and P^m, against every table and point-row entry."""
    if report.get("ok") is not True or report.get("window") != window:
        return "report not ok"
    ms = list(range(-window, window + 5))
    table = report["table"]
    if [row["m"] for row in table] != ms:
        return "table rows do not cover [-w, w+4]"
    for row in table:
        m = row["m"]
        diff = alt(m) * (3 * m - 9)
        orb = diff if m >= 4 else 0
        res = -diff if m <= 2 else 0
        if m >= 4 and orb != behrend([2, m - 4]):
            return f"closed form and Behrend weight disagree at m={m}"
        if m <= 2 and res != behrend([2, 2 - m]):
            return f"closed form and Behrend weight disagree at m={m}"
        got = (Fraction(row["orbifold"]), Fraction(row["resolution"]),
               Fraction(row["difference"]))
        if got != (orb, res, diff):
            return f"table row m={m} is {got}"
    points = report["point_row"]
    if [p["m"] for p in points] != list(range(window + 5)):
        return "point row does not cover [0, w+4]"
    for p in points:
        m = p["m"]
        if Fraction(p["value"]) != alt(m) * (m + 1) or alt(m) * (m + 1) != behrend([m]):
            return f"point row m={m} is {p['value']}"
    return None
