"""The kernels as they were when ``_Sparse`` stored Fraction values, kept
verbatim as references for the kernels on int numerators over one
denominator.

The series kernels take and give dicts of Fractions.  The torus kernels run
on this module's ``TorusElement``, which stands in for the old storage:
``_terms`` maps classes to Fractions (to ints in exp_ad's rounds, the
``_Numerators``).  ``stored`` and ``element`` convert from and to wallx's
elements; ``exp_ad`` looks ``bracket`` up in this module.

``_packed_divide_terms`` and the ``weighted_`` products already ran on int
numerators over one denominator: the first keyed its remainder by packed ints,
the others took their sign and chi factor from a weight callable.

The readers ``reexpand_check`` and ``run_a1`` read their series into
Fractions (``terms()`` and ``coeff()``) and write through the Fraction wire
writers below; ``run_a1`` looks ``build_a1`` up in ``wallx.a1model``, so a
model patched there reaches both it and wallx's ``run_a1``.

The resummation and sweep helpers further down derived their facts a second
way: ``_rows`` walked each Horner table for its multiply-adds, ``_b_factor``
read its signs from a chi-sum quasi-polynomial, the resummation denominator
multiplied (1 - x^(p m)) in 1 + d times, and ``iterate_walls`` built one
``SeedSeries`` per wall through ``cross_wall``.  ``scaled_values`` walked one
Horner table per point, nested with variable 0 outermost (``_nest``,
``_evaluate``), and ``resum_box`` took each box point j of the product of
ranges through a ``point`` map, summing its numerator exponent per point;
``chain_point`` is the map ``resum_chain`` gave it.

The lattice maps at the end wrote each integer map as its own index loop, and
``_accumulate`` popped a key whenever its running sum reached zero.

``divide`` and ``dtpt_ratio`` at the very end divided one series by another:
``dtpt`` long-divided the expansion of DT_beta by that of DT_0, whose divisor
has about one term per unit of the bound, before it expanded the quotient
rational function once.

The A1 report's kernels at the end ran before it took one pass:
``run_a1_stepwise`` made a pass over the window per column, check and table
and parsed its fit back from the certificate's wire form, which
``reexpand_check_wire`` wrote; ``detect_quasipoly_full`` differenced every
class it visited, even one whose first (cap + 1)-th difference already ruled
its period out.  ``run_a1_stepwise`` looks ``build_a1`` up in
``wallx.a1model`` too.

``duality_check`` at the very end dualized each exponent of a family member
as a class, through ``LatticeSpec.dualize``, and rebuilt each polynomial
through the public constructor (``map_exponents``).
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
import operator
from collections import defaultdict
from collections.abc import Callable, Mapping
from fractions import Fraction

from wallx import a1model, jsonio, poisson, quasipoly
from wallx.a1model import behrend_smooth
from wallx.errors import BUDGETS, InputError, charge
from wallx.jsonio import digit_limit_error
from wallx.lattice import INF, IntVec, KClass, LatticeSpec, kclass_to_obj
from wallx.poisson import Truncation
from wallx.quasipoly import (MAX_DEGREE, MAX_PERIOD, QuasiPolynomial, _difference,
                              _newton, detect_quasipoly)
from wallx import series
from wallx.series import (Coset, Exponent, LaurentPolynomial, LaurentSeries, LinearFunctional,
                          RationalFunction, Window, _Sparse, _coefficient, _dot, _exponent, _lead,
                          _no_coset, _over_lcm, expand, verify_expansion, window_to_obj)
from wallx.wallcross import GroupSpec, SeedSeries, WallDatum


class TorusElement:
    """The old element storage: classes to Fraction values over a lattice."""

    __slots__ = ("_terms", "_context")
    _mismatch = "torus elements live over different lattices"

    @classmethod
    def _make(cls, terms: dict, context):
        self = object.__new__(cls)
        self._terms = terms
        self._context = context
        return self

    @property
    def context(self):
        return self._context

    def terms(self):
        return self._terms.items()

    def is_zero(self) -> bool:
        return not self._terms

    def _check_context(self, other):
        if self._context != other._context:
            raise InputError(self._mismatch)


class _Numerators(TorusElement):
    """exp_ad's rounds: int numerators over a denominator that exp_ad keeps."""

    __slots__ = ()


def stored(x: poisson.TorusElement) -> TorusElement:
    """x in the old storage."""
    return TorusElement._make(dict(x.terms()), x.context)


def element(x: TorusElement) -> poisson.TorusElement:
    """An old-storage result as a wallx element."""
    return poisson.TorusElement(x.context, x._terms)


# -- series -------------------------------------------------------------------

def _product(a: Mapping[Exponent, Fraction], b: Mapping[Exponent, Fraction],
             ls, top: int) -> dict:
    """The terms of a*b whose exponents e have _dot(ls, e) <= top (every term
    for ls = 0 and top = 0).  Each term of a meets only the prefix of b, sorted
    once by L, that keeps within top; ints are summed over da * db."""
    na, da = _over_lcm(a.values())
    nb, db = _over_lcm(b.values())
    by_l = sorted(zip([_dot(ls, e) for e in b], b, nb))
    b_ls = [l for l, _, _ in by_l]
    out: dict[Exponent, int] = {}
    for ea, ca in zip(a, na):
        for _, eb, cb in by_l[:bisect.bisect_right(b_ls, top - _dot(ls, ea))]:
            e = tuple(map(operator.add, ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    den = da * db
    return {e: Fraction(n, den) for e, n in out.items() if n}


def _divide_terms(num: Mapping[Exponent, Fraction], den: Mapping[Exponent, Fraction],
                  L: LinearFunctional, bound: Fraction, m0: Exponent, c0: Fraction):
    """Long division of num by den in increasing (L, lex) order.

    den's unique L-minimal term (m0, c0) must be supplied.  Emits quotient
    terms with L-value at most bound; terms are processed in a monotone
    order so each quotient exponent is written exactly once.  It runs over
    ints (L's ``ints`` against floor(bound * L.den), the remainder times the
    lcm nd of num's) with steps (he - m0, hc/c0), which stay Fractions only
    where c0 does not divide hc; each quotient term is r/(c0*nd).

    The remainder is keyed by quotient exponents (num's minus m0), each
    packed into the int sum (x_i + M) * B**(n-1-i) with B = 2M + 1 and M
    bounding every |x_i| that can arise: a step adds the packed step less
    the packed zero, and keys order as exponents do in lex order.
    Every step raises L (m0 is the unique minimum), so the steps are sorted
    by L-value and none that would land past the bound is taken."""
    ls, top = L.ints, math.floor(bound * L.den)
    nums, nd = _over_lcm(num.values())

    def shifted(terms):
        return ((tuple(map(operator.sub, e, m0)), c) for e, c in terms.items())

    r = {e: n for (e, _), n in zip(shifted(num), nums) if _dot(ls, e) <= top}
    steps = sorted((_dot(ls, d), d, c / c0) for d, c in shifted(den) if any(d))
    # a term k steps deep has L-value at least min(r) + k * (least step) and
    # at most top, and the division budget allows no more than its limit of steps
    limit = BUDGETS["division"].limit
    depth = min((top - min(_dot(ls, e) for e in r)) // steps[0][0],
                limit) if r and steps else 0
    M = (max((abs(x) for e in r for x in e), default=0)
         + depth * max((abs(x) for _, d, _ in steps for x in d), default=0))
    n, B = len(m0), 2 * M + 1
    weights = [B ** i for i in reversed(range(n))]
    offset = M * sum(weights)
    heap = [(_dot(ls, e), _dot(weights, e) + offset) for e in r]
    r = {_dot(weights, e) + offset: c for e, c in r.items()}
    steps = [(l_d, _dot(weights, d), k.numerator if k.denominator == 1 else k)
             for l_d, d, k in steps]
    heapq.heapify(heap)
    out_num, out_den = c0.denominator, c0.numerator * nd
    out: dict[Exponent, Fraction] = {}
    for _ in range(limit):
        if not heap:
            return out
        l_e, e = heapq.heappop(heap)
        c = r.pop(e, 0)
        if not c:
            continue
        out[tuple(e // w % B - M for w in weights)] = Fraction(c * out_num, out_den)
        room = top - l_e
        for l_d, d, k in steps:
            if l_d > room:
                break
            ne = e + d
            acc = r.get(ne)
            if acc is None:
                r[ne] = -c * k
                heapq.heappush(heap, (l_e + l_d, ne))
            elif acc := acc - c * k:
                r[ne] = acc
            else:
                del r[ne]
    charge("division", limit + len(heap))  # each entry left needs a step
    return out


# -- torus --------------------------------------------------------------------

def _binary_op(x: TorusElement, y: TorusElement, trunc: Truncation | None,
               weight: Callable[[int], int]) -> TorusElement:
    """Bilinear extension of t^a1, t^a2 -> weight(chi(a1, a2)) t^(a1 + a2), with
    chi the row a1.pairing dotted with a2, summed in ints over the operands' common
    denominators.  trunc is tested on the summed rank, point degree and curve part,
    in that order, so the cone below its cap is built only when a pair needs it.
    Two _Numerators give the _Numerators of the int sums; anything else, Fractions."""
    x._check_context(y)
    spec = x.context
    cols = list(zip(*spec.pairing))
    split = 1 + spec.rank1
    deg = spec.deg[spec.rank1:]
    ints = type(x) is type(y) is _Numerators

    def parts(z):  # (vector, r, beta, point degree, numerator) per term, and den
        nums, den = (z._terms.values(), 1) if ints else _over_lcm(z._terms.values())
        return [(a.vector(), a.r, a.beta, sum(map(operator.mul, deg, a.c)), n)
                for a, n in zip(z._terms, nums)], den

    (xs, dx), (ys, dy) = parts(x), parts(y)
    if trunc is not None:
        ranks, below = trunc.rank_set, None
        cap = None if trunc.deg_cap is None else math.floor(trunc.deg_cap)
    acc: dict = {}
    for v1, r1, b1, d1, n1 in xs:
        row = [sum(map(operator.mul, v1, col)) for col in cols]
        for v2, r2, b2, d2, n2 in ys:
            w = weight(sum(map(operator.mul, row, v2)))
            if not w:
                continue
            if trunc is not None:
                if r1 + r2 not in ranks or (cap is not None and d1 + d2 > cap):
                    continue
                if below is None:
                    below = spec._below(trunc.beta_cap)
                if tuple(map(operator.add, b1, b2)) not in below:
                    continue
            v = tuple(map(operator.add, v1, v2))
            acc[v] = acc.get(v, 0) + n1 * n2 * w
    den = dx * dy
    return (_Numerators if ints else TorusElement)._make(
        {KClass._make((v[0], v[1:split], v[split:])): n if ints else Fraction(n, den)
         for v, n in acc.items() if n}, spec)


def bracket(x: TorusElement, y: TorusElement,
            trunc: Truncation | None = None) -> TorusElement:
    """{t^a, t^b} = sigma^chi(a,b) chi(a,b) t^(a+b), extended bilinearly."""
    sigma = x.context.sigma
    return _binary_op(x, y, trunc, lambda chi: _sigma_power(sigma, chi) * chi)


def star_product(x: TorusElement, y: TorusElement,
                 trunc: Truncation | None = None) -> TorusElement:
    """t^a * t^b = sigma^chi(a,b) t^(a+b)."""
    sigma = x.context.sigma
    return _binary_op(x, y, trunc, lambda chi: _sigma_power(sigma, chi))


def naive_product(x: TorusElement, y: TorusElement,
                  trunc: Truncation | None = None) -> TorusElement:
    """t^a t^b = t^(a+b) with no sign; this is what assembles series."""
    return _binary_op(x, y, trunc, lambda chi: 1)


def exp_ad(w: TorusElement, x: TorusElement, trunc: Truncation) -> TorusElement:
    """exp({w, -}) applied to x inside the truncation.

    Every w-term must have rank 0 and either a nonzero effective curve
    part, or a curve part of zero with positive point degree; in the
    latter case the truncation must carry a degree cap, otherwise the
    adjoint action never becomes nilpotent.  The inverse is exp_ad(-w).
    Round k brackets int numerators into dx dw^k ad_w^k(x), with dw and dx
    the denominators of w and x; the rounds are summed once over dx dw^K K!.
    """
    if trunc is None:
        raise InputError("non-nilpotent adjoint under this truncation")
    spec = w.context
    w._check_context(x)
    for cls, _ in w.terms():
        if cls.r != 0:
            raise InputError("wall data must have rank zero")
        if all(b == 0 for b in cls.beta):
            if spec.deg_point(cls.c) <= 0 or trunc.deg_cap is None:
                raise InputError("non-nilpotent adjoint under this truncation")
        elif not spec.is_effective(cls.beta):
            raise InputError("non-nilpotent adjoint under this truncation")
    ws, dw = _over_lcm(w._terms.values())
    xs, dx = _over_lcm(x._terms.values())
    w = _Numerators._make(dict(zip(w._terms, ws)), spec)
    rounds = [_Numerators._make(dict(zip(x._terms, xs)), spec)]  # k = 0, 1, ...
    while not rounds[-1].is_zero():
        charge("exp_ad", len(rounds))
        rounds.append(bracket(w, rounds[-1], trunc))
    rounds = rounds[:-1] or rounds  # the last nonzero round is K
    top = len(rounds) - 1
    fact = math.factorial(top)
    total: dict = {}
    for k, z in enumerate(rounds):
        s = dw ** (top - k) * (fact // math.factorial(k))
        for cls, n in z._terms.items():
            total[cls] = total.get(cls, 0) + n * s
    den = dx * dw ** top * fact
    return TorusElement._make({cls: Fraction(n, den) for cls, n in total.items() if n}, spec)

# -- int kernels before the exponent-tuple remainder and the inline sign -----
# The division that keyed its remainder by packed ints, and the torus products
# that took their sign and chi factor from a weight callable, on int numerators
# over one denominator.

def _packed_divide_terms(num: _Sparse, den: _Sparse, L: LinearFunctional,
                         bound: Fraction, m0: Exponent) -> tuple[dict, int]:
    """Long division of num by den in increasing (L, lex) order.

    den's unique L-minimal exponent m0, numerator c0, must be supplied.  Emits
    quotient terms with L-value at most bound, as int numerators over one
    denominator; terms are processed in a monotone order so each quotient
    exponent is written exactly once.  It runs over ints (L's ``ints`` against
    floor(bound * L.den), the remainder from num's numerators) with steps
    (he - m0, hc/c0), which stay Fractions only where c0 does not divide hc;
    each quotient term is r dd/(c0 nd), nd and dd the operands' denominators,
    with the r over their lcm only when some step is not an integer.

    The remainder is keyed by quotient exponents (num's minus m0), each
    packed into the int sum (x_i + M) * B**(n-1-i) with B = 2M + 1 and M
    bounding every |x_i| that can arise: a step adds the packed step less
    the packed zero, and keys order as exponents do in lex order.
    Every step raises L (m0 is the unique minimum), so the steps are sorted
    by L-value and none that would land past the bound is taken."""
    ls, top = L.ints, math.floor(bound * L.den)
    c0 = den._terms[m0]

    def shifted(terms):
        return ((tuple(map(operator.sub, e, m0)), c) for e, c in terms.items())

    r = {e: n for e, n in shifted(num._terms) if _dot(ls, e) <= top}
    steps = sorted((_dot(ls, d), d, c // c0 if c % c0 == 0 else Fraction(c, c0))
                   for d, c in shifted(den._terms) if any(d))
    # a term k steps deep has L-value at least min(r) + k * (least step) and
    # at most top, and the division budget allows no more than its limit of steps
    limit = BUDGETS["division"].limit
    depth = min((top - min(_dot(ls, e) for e in r)) // steps[0][0],
                limit) if r and steps else 0
    M = (max((abs(x) for e in r for x in e), default=0)
         + depth * max((abs(x) for _, d, _ in steps for x in d), default=0))
    n, B = len(m0), 2 * M + 1
    weights = [B ** i for i in reversed(range(n))]
    offset = M * sum(weights)
    heap = [(_dot(ls, e), _dot(weights, e) + offset) for e in r]
    r = {_dot(weights, e) + offset: c for e, c in r.items()}
    steps = [(l_d, _dot(weights, d), k) for l_d, d, k in steps]
    heapq.heapify(heap)
    out: dict = {}
    for _ in range(limit):
        if not heap:
            break
        l_e, e = heapq.heappop(heap)
        c = r.pop(e, 0)
        if not c:
            continue
        out[tuple(e // w % B - M for w in weights)] = c
        room = top - l_e
        for l_d, d, k in steps:
            if l_d > room:
                break
            ne = e + d
            acc = r.get(ne)
            if acc is None:
                r[ne] = -c * k
                heapq.heappush(heap, (l_e + l_d, ne))
            elif acc := acc - c * k:
                r[ne] = acc
            else:
                del r[ne]
    else:
        charge("division", limit + len(heap))  # each entry left needs a step
    nums, r_den = (_over_lcm(out.values()) if any(type(k) is Fraction for _, _, k in steps)
                   else (out.values(), 1))
    s = den._den if c0 > 0 else -den._den
    return {e: n * s for e, n in zip(out, nums)}, abs(c0) * num._den * r_den


def _sigma_power(sigma: int, chi: int) -> int:
    return -1 if sigma == -1 and chi % 2 else 1


def _weighted_binary_op(x: poisson.TorusElement, y: poisson.TorusElement,
                        trunc: Truncation | None,
                        weight: Callable[[int], int]) -> poisson.TorusElement:
    """Bilinear extension of t^a1, t^a2 -> weight(chi(a1, a2)) t^(a1 + a2), with
    chi the row a1.pairing dotted with a2; the numerators are summed over the
    product of the operands' denominators.  trunc is tested on the summed rank,
    point degree and curve part, in that order, so the cone below its cap is
    built only when a pair needs it."""
    x._check_context(y)
    spec = x.context
    cols = list(zip(*spec.pairing))
    split = 1 + spec.rank1
    deg = spec.deg[spec.rank1:]

    def parts(z):  # (vector, r, beta, point degree, numerator) per term
        return [(a.vector(), a.r, a.beta, sum(map(operator.mul, deg, a.c)), n)
                for a, n in z._terms.items()]

    xs, ys = parts(x), parts(y)
    if trunc is not None:
        ranks, below = trunc.rank_set, None
        cap = None if trunc.deg_cap is None else math.floor(trunc.deg_cap)
    acc: dict = {}
    for v1, r1, b1, d1, n1 in xs:
        row = [sum(map(operator.mul, v1, col)) for col in cols]
        for v2, r2, b2, d2, n2 in ys:
            w = weight(sum(map(operator.mul, row, v2)))
            if not w:
                continue
            if trunc is not None:
                if r1 + r2 not in ranks or (cap is not None and d1 + d2 > cap):
                    continue
                if below is None:
                    below = spec._below(trunc.beta_cap)
                if tuple(map(operator.add, b1, b2)) not in below:
                    continue
            v = tuple(map(operator.add, v1, v2))
            acc[v] = acc.get(v, 0) + n1 * n2 * w
    return poisson.TorusElement._make({KClass._make((v[0], v[1:split], v[split:])): n
                                       for v, n in acc.items() if n}, spec, x._den * y._den)


def weighted_bracket(x: poisson.TorusElement, y: poisson.TorusElement,
                     trunc: Truncation | None = None) -> poisson.TorusElement:
    """{t^a, t^b} = sigma^chi(a,b) chi(a,b) t^(a+b), extended bilinearly."""
    sigma = x.context.sigma
    return _weighted_binary_op(x, y, trunc, lambda chi: _sigma_power(sigma, chi) * chi)


def weighted_star_product(x: poisson.TorusElement, y: poisson.TorusElement,
                          trunc: Truncation | None = None) -> poisson.TorusElement:
    """t^a * t^b = sigma^chi(a,b) t^(a+b)."""
    sigma = x.context.sigma
    return _weighted_binary_op(x, y, trunc, lambda chi: _sigma_power(sigma, chi))


def weighted_naive_product(x: poisson.TorusElement, y: poisson.TorusElement,
                           trunc: Truncation | None = None) -> poisson.TorusElement:
    """t^a t^b = t^(a+b) with no sign; this is what assembles series."""
    return _weighted_binary_op(x, y, trunc, lambda chi: 1)


# -- readers ------------------------------------------------------------------

def format_rational(value: Fraction) -> str:
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    except ValueError:  # parse_rational could not read the digits back either
        raise digit_limit_error("a rational") from None


def terms_to_obj(items):
    return [{"exponent": list(e), "coeff": format_rational(c)}
            for e, c in items]


def series_to_obj(s: LaurentSeries):
    ls = s.window.functional.ints  # orders as L does
    return {"window": window_to_obj(s.window),
            "terms": terms_to_obj(sorted(s.items(),
                                         key=lambda item: (_dot(ls, item[0]), item[0])))}


def polynomial_to_obj(p: LaurentPolynomial):
    return terms_to_obj(sorted(p.items()))


def qp_to_obj(a: QuasiPolynomial):
    entries = [{"residues": list(rho), "poly": polynomial_to_obj(a.table[rho])}
               for rho in sorted(a.table)]
    return {"vars": a.vars, "period": a.period, "table": entries}


def element_to_obj(x: poisson.TorusElement):
    return [{"class": kclass_to_obj(cls), "coeff": format_rational(c)}
            for cls, c in sorted(x.items())]


def reexpand_check(f: RationalFunction, s_minus: LaurentSeries,
                   s_plus: LaurentSeries, c0, max_period: int = MAX_PERIOD,
                   max_degree: int = MAX_DEGREE) -> dict:
    """Certify s_plus as the L_plus re-expansion of f across the c0 direction,
    where L_minus and L_plus are the functionals of s_minus's and s_plus's
    windows.

    s_minus must already be the (verified) L_minus expansion.  On every
    coset of Z c0 meeting either support, the difference s_plus - s_minus
    sampled along c0 must fit a quasi-polynomial ("all_fit"; a coset with
    fewer than two samples fits none), and s_plus must pass direct
    verification ("confirmed").  Returns the CLI's report: "c0" and
    "cosets", each with "representative", "k_lo", "k_hi" and "fit".
    """
    c0 = _exponent(c0)
    if all(x == 0 for x in c0):
        raise InputError("re-expansion direction must be nonzero")
    L_minus, L_plus = s_minus.window.functional, s_plus.window.functional
    down = L_minus(c0)
    up = L_plus(c0)
    if not (down < 0 < up):
        raise InputError("re-expansion direction must have L_minus(c0) < 0 < L_plus(c0)")
    if not verify_expansion(s_minus, f):
        raise InputError("s_minus is not an expansion of the rational function")

    z_c0 = Coset((0,) * len(c0), (c0,))
    (col, _), = z_c0.echelon
    diffs = defaultdict(dict)  # {rep: {k: s_plus - s_minus at rep + k c0}}
    for s in (-s_minus, s_plus):
        for e, c in s.terms():
            rep = z_c0.representative(e)
            diff, k = diffs[rep], (e[col] - rep[col]) // c0[col]
            diff[k] = diff[k] + c if k in diff else c
    ranges = [(rep, diff, math.ceil((s_minus.bound - L_minus(rep)) / down),
               math.floor((s_plus.bound - L_plus(rep)) / up))
              for rep, diff in sorted(diffs.items())]
    # what period 1, degree 0 alone differences, over every coset at once
    charge("detection", sum(max(k_hi - k_lo, 0) for _, _, k_lo, k_hi in ranges))
    cosets = []
    for rep, diff, k_lo, k_hi in ranges:
        fit = None if k_hi <= k_lo else detect_quasipoly(
            {k: diff.get(k, 0) for k in range(k_lo, k_hi + 1)}, max_period, max_degree)
        cosets.append({"representative": list(rep), "k_lo": k_lo, "k_hi": k_hi,
                       "fit": None if fit is None else qp_to_obj(fit)})
    all_fit = all(coset["fit"] is not None for coset in cosets)
    return {"c0": list(c0), "cosets": cosets, "all_fit": all_fit,
            "confirmed": all_fit and verify_expansion(s_plus, f)}



def _first_divergence(pairs):
    """First (m, expected, actual) disagreement in an iterable, or None."""
    for m, expected, actual in pairs:
        if expected != actual:
            return {"m": m, "expected": format_rational(expected),
                    "actual": format_rational(actual)}
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
    model = a1model.build_a1()
    m_lo, m_hi = -w, w + 4
    ms = range(m_lo, m_hi + 1)

    point_series = expand(model.point_row, Window(model.l_plus, w + 8))
    # DT/PT as one expansion of the quotient; reexpand_check reads its bound w + 8
    orbifold_series = expand(model.orbifold_layer * RationalFunction(
        model.point_row.denominator, model.point_row.numerator),
        Window(model.l_plus, w + 8))
    resolution_series = expand(model.shared_layer, Window(model.l_minus, w + 4))
    orb = {m: orbifold_series.coeff((m, 4)) for m in ms}
    res = {m: resolution_series.coeff((m, 4)) for m in ms}
    diff = {m: orb[m] - res[m] for m in ms}

    steps = []

    def add_step(name, divergence, **detail):
        entry = {"name": name, "ok": divergence is None}
        if divergence is not None:
            entry["first_divergence"] = divergence
        entry.update(detail)
        steps.append(entry)

    add_step("orbifold column",
             _first_divergence((m, model.orbifold_column(m), orb[m])
                               for m in ms),
             checked=len(orb))
    add_step("resolution column",
             _first_divergence((m, model.resolution_column(m), res[m])
                               for m in ms),
             checked=len(res))

    fit = detect_quasipoly(diff)
    if fit is None:
        fit_div = {"m": m_lo, "expected": "quasi-polynomial fit",
                   "actual": "no fit"}
        fit_detail = {}
    else:  # the fit's int numerators against the closed form times den
        values, den = fit.scaled_values([(m,) for m in ms])
        fit_div = _first_divergence((m, model.column_difference(m), Fraction(v, den))
                                    for m, v in zip(ms, values)
                                    if v != model.column_difference(m) * den)
        fit_detail = {"period": fit.period, "degree": fit.degrees[0]}
    add_step("difference quasi-polynomial", fit_div, **fit_detail)

    verdict = reexpand_check(model.shared_layer, resolution_series,
                             orbifold_series, model.point_plus_exponent())
    add_step("re-expansion certificate",
             None if verdict["confirmed"] else
             {"m": m_lo, "expected": "confirmed", "actual": "not confirmed"},
             cosets=len(verdict["cosets"]))

    point = {m: point_series.coeff((m, 0)) for m in range(0, w + 5)}
    behrend_pairs = [(m, behrend_smooth([m]), value) for m, value in point.items()]
    for m in ms:
        expected = behrend_smooth([2, m - 4]) if m >= 4 else 0
        behrend_pairs.append((m, expected, orb[m]))
        expected = behrend_smooth([2, 2 - m]) if m <= 2 else 0
        behrend_pairs.append((m, expected, res[m]))
    add_step("behrend cross-check", _first_divergence(behrend_pairs),
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
                   "orbifold": format_rational(orb[m]),
                   "resolution": format_rational(res[m]),
                   "difference": format_rational(diff[m])}
                  for m in ms],
        "point_row": [{"m": m, "value": format_rational(value)}
                      for m, value in point.items()],
        "ok": ok,
    }
    if not ok:
        first_bad = next(step for step in steps if not step["ok"])
        report["first_divergence"] = dict(first_bad.get("first_divergence", {}),
                                          step=first_bad["name"])
    return report



# -- resummation and the wall sweep before their direct forms -----------------

def _nest(terms, i: int, r: int):
    """Horner table in variables i..r-1 of the terms (e, c), highest e first:
    per power of x_i that occurs, from the top one down, a row of its
    coefficient's table and the gap down to the next power (to 0 after the
    last); [] when zero, and an int when i == r (no variables)."""
    if i == r:
        return sum(c for _, c in terms)  # at most one term
    if i == r - 1:  # the last variable: a row per term, its int inline
        return [(c, e[i] - f[i]) for (e, c), (f, _) in zip(terms, terms[1:] + [((0,) * r, 0)])]
    rows = [(k, _nest(list(group), i + 1, r))
            for k, group in itertools.groupby(terms, lambda t: t[0][i])]
    return [(row, k - low) for (k, row), (low, _) in zip(rows, rows[1:] + [(0, 0)])]


def _evaluate(rows, n, i: int, last: int) -> int:
    """A Horner table of variables i..last at the point n, by multiply-adds."""
    x, acc = n[i], 0
    if i == last:  # the last variable's ints, inline
        for c, gap in rows:
            acc = (acc + c) * x ** gap
    else:
        for row, gap in rows:
            acc = (acc + _evaluate(row, n, i + 1, last)) * x ** gap
    return acc


def horner_tables(a: QuasiPolynomial) -> tuple[dict, int]:
    """Per residue class the variable-0-first Horner table of int numerators,
    and their one denominator, as the constructor built them."""
    scales, den = _over_lcm(Fraction(1, poly._den) for poly in a.table.values())
    return {rho: _nest(sorted([(e, n * s) for e, n in poly._terms.items()], reverse=True),
                       0, a.vars) for (rho, poly), s in zip(a.table.items(), scales)}, den


def scaled_values(a: QuasiPolynomial, points) -> tuple[list[int], int]:
    """a(n) at each integer point n, as int numerators over one denominator."""
    p, (tables, den), last = a.period, horner_tables(a), a.vars - 1
    if last < 0:  # no variables: each table is its constant
        return [tables[()] for _ in points], den
    return [_evaluate(tables[tuple(x % p for x in n)], n, 0, last) for n in points], den


def chain_point(ks):
    """``resum_chain``'s map from increments j to the chain point n, with
    n_i = k_i - 1 + j_1 + ... + j_{k_i}."""
    def point(j):
        sums = list(itertools.accumulate(j))
        return tuple(k - 1 + sums[k - 1] for k in ks)
    return point


def resum_box(a: QuasiPolynomial, point, degs, monos, nq: int, shift) -> RationalFunction:
    """``_resum_box`` with the box points j taken through ``point`` one at a time."""
    p = a.period
    sizes = [p * (1 + d) for d in degs]
    charge("resummation", math.prod(sizes) * (a._horner[2] + sum(1 + d for d in degs)))
    box = list(itertools.product(*map(range, sizes)))
    values, den = scaled_values(a, map(point, box))
    stride = 1
    for size, d in zip(reversed(sizes), reversed(degs)):
        inner = [i for i in reversed(range(len(values)))
                 if i // stride % size >= p]
        for _ in range(1 + d):
            _difference(values, inner, p * stride)
        stride *= size
    # box points with one exponent sum their values
    g = LaurentPolynomial._make(_accumulate({}, (
        (tuple(s + sum(jt * m[k] for jt, m in zip(j, monos)) for k, s in enumerate(shift)), v)
        for j, v in zip(box, values) if v)), nq, den)
    h = LaurentPolynomial.constant(nq, 1)
    for m, d in zip(monos, degs):  # (1 - x^(p m))^(1 + d) by the binomial theorem
        h = h * LaurentPolynomial._make(
            {tuple(p * k * x for x in m): (-1) ** k * math.comb(1 + d, k)
             for k in range(2 + d)}, nq)
    return RationalFunction(g, h)


def _rows(rows, depth: int) -> int:
    """Multiply-adds of a Horner table of ``depth`` variables: one per row."""
    if depth < 2:
        return depth and len(rows)
    return len(rows) + sum(_rows(row, depth - 1) for row, _ in rows)


def resum_denominator(p: int, monos, degs, nq: int) -> LaurentPolynomial:
    """``_resum_box``'s h: each (1 - x^(p m)) multiplied in 1 + d times."""
    one = h = LaurentPolynomial.constant(nq, 1)
    for m, d in zip(monos, degs):
        factor = one - LaurentPolynomial.monomial(tuple(p * x for x in m))
        for _ in range(1 + d):
            h = h * factor
    return h


def _b_factor(group: GroupSpec) -> QuasiPolynomial:
    """The product of bracket weights as a quasi-polynomial in (a_1..a_r).

    Position i contributes sigma^chi_i * chi_i with
    chi_i = chi(alpha_i, alpha' + alpha_1 + ... + alpha_{i-1}) and
    alpha_i = (0, beta_i, kappa_i + a_i twist(beta_i)).  The chi_i are
    integer polynomials in the a's, so the sigma sign only depends on the
    residues mod 2.
    """
    spec = group.context
    r = group.r
    zero_beta = (0,) * spec.rank1
    base = [KClass(0, b, k) for b, k in zip(group.betas, group.kappas)]
    steps = [KClass(0, zero_beta, spec.twist(b)) for b in group.betas]

    def unit(i):
        return tuple(1 if j == i else 0 for j in range(r))

    work = 0  # exponent entries: r per term built
    chis = []
    cur = group.alpha_prime
    product = LaurentPolynomial.constant(r, 1)
    for i in range(r):
        terms = [((0,) * r, spec.euler_pairing(base[i], cur)),
                 (unit(i), spec.euler_pairing(steps[i], cur))]
        for j in range(i):
            e_ij = tuple(x + y for x, y in zip(unit(i), unit(j)))
            terms += [(unit(j), spec.euler_pairing(base[i], steps[j])),
                      (e_ij, spec.euler_pairing(steps[i], steps[j]))]
        # the constructor sums repeated exponents
        chis.append(LaurentPolynomial(terms, r))
        cur = cur + base[i]
        work += r * len(terms) * (1 + len(product.terms()))  # build chi_i, multiply it in
        charge("weights", work)
        product = product * chis[-1]
    if spec.sigma == 1:
        return QuasiPolynomial(r, 1, {(0,) * r: product})
    # per residue tuple: every chi evaluated, one signed copy of the product
    work += r * ((len(product.terms()) + sum(len(chi.terms()) for chi in chis)) << r)
    charge("weights", work)
    rhos = list(itertools.product((0, 1), repeat=r))
    # sigma^(chi_1 + ... + chi_r); the chi are integral, so their denominator is 1
    chi_sum = QuasiPolynomial(r, 1, {(0,) * r: sum(chis, LaurentPolynomial({}, r))})
    values, _ = chi_sum.scaled_values(rhos)
    return QuasiPolynomial(r, 2, {rho: product.scale(-1 if v % 2 else 1)
                                  for rho, v in zip(rhos, values)})


def _exponential_factor(group: GroupSpec) -> Fraction:
    """1/k! per maximal run of chain positions on the same wall."""
    boundaries = sorted(set(range(1, group.r + 1)) - group.equalities)
    value = Fraction(1)
    prev = 0
    for n in boundaries:
        value /= math.factorial(n - prev)
        prev = n
    return value


def cross_wall(state: SeedSeries, wall: WallDatum,
               trunc: Truncation) -> SeedSeries:
    out = poisson.exp_ad(wall.J, state.element, trunc)
    return SeedSeries(out, f"past {wall.slope}")


# -- the lattice maps and the sparse sum before series._dot -------------------
# LatticeSpec's index-loop maps as functions of the spec, its involution and
# twist-grading checks as predicates on the spec's fields, and the _accumulate
# that popped a key as soon as its sum reached zero.

def _accumulate(out: dict, pairs) -> dict:
    """Add (key, coeff) pairs into out, dropping any key whose sum is zero."""
    for key, coeff in pairs:
        acc = out.get(key)
        acc = coeff if acc is None else acc + coeff
        if acc:
            out[key] = acc
        else:
            out.pop(key, None)
    return out


def l_of(spec, beta) -> int:
    return sum(a * b for a, b in zip(spec.l, beta))


def deg_point(spec, c) -> int:
    return sum(a * b for a, b in zip(spec.deg[spec.rank1:], c))


def twist(spec, beta) -> IntVec:
    return tuple(sum(row[j] * beta[j] for j in range(spec.rank1))
                 for row in spec.twist_matrix)


def euler_pairing(spec, a: KClass, b: KClass) -> int:
    va, vb = a.vector(), b.vector()
    n = len(va)
    if len(vb) != n or n != 1 + spec.rank1 + spec.rank0:
        raise InputError("class length does not match the lattice")
    return sum(va[i] * spec.pairing[i][j] * vb[j]
               for i in range(n) for j in range(n))


def dualize(spec, x: KClass) -> KClass:
    v = x.vector()
    n = len(v)
    if n != 1 + spec.rank1 + spec.rank0:
        raise InputError("class length does not match the lattice")
    out = tuple(sum(spec.duality[i][j] * v[j] for j in range(n))
                for i in range(n))
    return KClass(out[0], out[1:1 + spec.rank1], out[1 + spec.rank1:])


def nu_slope(spec, x: KClass):
    """deg/l slope of (beta, c); +oo on the point block."""
    l_val = l_of(spec, x.beta)
    if l_val == 0:
        return INF
    return Fraction(sum(map(operator.mul, spec.deg, x.beta + x.c)), l_val)


def squares_to_identity(duality, n: int) -> bool:
    """The constructor's involution check on an n x n duality matrix."""
    ident = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    square = [[sum(duality[i][k] * duality[k][j] for k in range(n))
               for j in range(n)] for i in range(n)]
    return square == ident


def twist_shifts_deg_by_l(deg, l, twist_matrix, rank1: int, rank0: int) -> bool:
    """The constructor's check that deg(twist e_j) = l_j on the curve block."""
    for j in range(rank1):
        col_deg = sum(deg[rank1 + i] * twist_matrix[i][j]
                      for i in range(rank0))
        if col_deg != l[j]:
            return False
    return True


# -- series-by-series division before the one quotient expansion -------------

def _same_functional(a: LaurentSeries, b: LaurentSeries):
    if a.window.functional != b.window.functional:
        raise InputError("window functional mismatch")


def divide(s1: LaurentSeries, s2: LaurentSeries) -> LaurentSeries:
    """Series quotient s1/s2 with respect to their windows' functional L.

    s2 needs a unique L-minimal known term; the result window accounts for
    both operands' unknown tails, so every reported coefficient is final.
    """
    _same_functional(s1, s2)
    _no_coset(s1, s2)
    L = s1.window.functional
    m0 = _lead(s2, L, "not invertible with respect to L")
    l_m0 = L(m0)
    bound = min(s1.bound - l_m0, s1.support_min() + s2.bound - 2 * l_m0)
    out, den = series._divide_terms(s1, s2, L, bound, m0)
    return LaurentSeries._make(out, Window(L, bound), den)


def dtpt_ratio(dt_beta: LaurentSeries, dt_zero: LaurentSeries) -> LaurentSeries:
    L = dt_zero.window.functional  # the (L, exponent)-least term leads
    lead = min(((L(e), e) for e in dt_zero), default=None)
    if lead is not None and dt_zero.coeff(lead[1]) != 1:
        raise InputError("rank-zero column must lead with coefficient 1")
    return divide(dt_beta, dt_zero)


# -- the A1 report before one pass --------------------------------------------

def detect_quasipoly_full(samples: Mapping[int, Fraction], max_period: int = MAX_PERIOD,
                          max_degree: int = MAX_DEGREE, den: int = 1) -> QuasiPolynomial | None:
    """Smallest (period, degree) quasi-polynomial fitting the samples / den
    exactly, each visited class differenced up to its first vanishing order
    or through the degree cap."""
    keys = sorted(_exponent(samples))
    if keys and keys != list(range(keys[0], keys[0] + len(keys))):
        raise InputError("samples must cover a contiguous integer range")
    if len(keys) < 2 or max_period < 1 or max_degree < 0:
        raise InputError("window too small")
    if not isinstance(den, int) or den < 1:
        raise InputError("sample denominator must be a positive integer")
    scaled, lcm = _over_lcm(v if type(v) is int else _coefficient(v)  # refuses floats
                            for v in map(samples.__getitem__, keys))
    work = 0
    for p in range(1, min(max_period, len(keys) // 2) + 1):
        cap = min(max_degree, len(keys) // p - 2)
        columns = [scaled[s::p] for s in range(p)]
        for column in columns:
            for d in range(cap + 1):
                work += len(column) - 1 - d
                charge("detection", work)
                _difference(column, range(len(column) - 1, d, -1), 1)
                if not any(column[d + 1:]):  # the (d + 1)-th differences
                    del column[d + 1:]
                    break
            else:  # this class needs a degree above cap: next period
                break
        else:  # every class fits
            return QuasiPolynomial(1, p, {
                ((keys[0] + s) % p,): _newton(keys[0] + s, p, column, den * lcm)
                for s, column in enumerate(columns)})
    return None


def reexpand_check_wire(f: RationalFunction, s_minus: LaurentSeries,
                        s_plus: LaurentSeries, c0, max_period: int = MAX_PERIOD,
                        max_degree: int = MAX_DEGREE) -> dict:
    """The re-expansion certificate with each coset's fit written as its
    wire object, and found by ``detect_quasipoly_full``."""
    c0 = _exponent(c0)
    if all(x == 0 for x in c0):
        raise InputError("re-expansion direction must be nonzero")
    L_minus, L_plus = s_minus.window.functional, s_plus.window.functional
    down = L_minus(c0)
    up = L_plus(c0)
    if not (down < 0 < up):
        raise InputError("re-expansion direction must have L_minus(c0) < 0 < L_plus(c0)")
    if not verify_expansion(s_minus, f):
        raise InputError("s_minus is not an expansion of the rational function")

    col = next(i for i, x in enumerate(c0) if x)
    (down_scale, up_scale), den = _over_lcm(Fraction(1, s._den) for s in (s_minus, s_plus))
    diffs = defaultdict(dict)  # {rep: {k: (s_plus - s_minus) * den at rep + k c0}}
    for s, scale in ((s_minus, -down_scale), (s_plus, up_scale)):
        for e, n in s._terms.items():
            k = e[col] // c0[col]
            diff = diffs[tuple(x - k * y for x, y in zip(e, c0))]
            diff[k] = diff.get(k, 0) + n * scale
    ranges = [(rep, diff, math.ceil((s_minus.bound - L_minus(rep)) / down),
               math.floor((s_plus.bound - L_plus(rep)) / up))
              for rep, diff in sorted(diffs.items())]
    # what period 1, degree 0 alone differences, over every coset at once
    charge("detection", sum(max(k_hi - k_lo, 0) for _, _, k_lo, k_hi in ranges))
    cosets = []
    for rep, diff, k_lo, k_hi in ranges:
        fit = None if k_hi <= k_lo else detect_quasipoly_full(
            {k: diff.get(k, 0) for k in range(k_lo, k_hi + 1)}, max_period, max_degree, den)
        cosets.append({"representative": list(rep), "k_lo": k_lo, "k_hi": k_hi,
                       "fit": None if fit is None else quasipoly.qp_to_obj(fit)})
    all_fit = all(coset["fit"] is not None for coset in cosets)
    return {"c0": list(c0), "cosets": cosets, "all_fit": all_fit,
            "confirmed": all_fit and verify_expansion(s_plus, f)}


def _first_divergence_over(pairs, den: int):
    """First (m, expected, actual) disagreement, actual read over den, or None."""
    for m, expected, actual in pairs:
        if expected * den != actual:
            return {"m": m, "expected": jsonio.format_rational(expected),
                    "actual": jsonio.format_rational(Fraction(actual, den))}
    return None


def run_a1_stepwise(report_window: int) -> dict:
    """The A1 report with one pass over the window per column, check and
    table, its fit parsed back from the wire form of the certificate."""
    w = _exponent((report_window,))[0]
    if w < 8:
        raise InputError("report window must be at least 8")
    model = a1model.build_a1()
    m_lo, m_hi = -w, w + 4
    ms = range(m_lo, m_hi + 1)

    point_series = expand(model.point_row, Window(model.l_plus, w + 8))
    # DT/PT as one expansion of the quotient; reexpand_check reads its bound w + 8
    orbifold_series = series.divide(model.orbifold_layer, model.point_row,
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
             _first_divergence_over(((m, model.orbifold_column(m), orb[m])
                                     for m in ms), den),
             checked=len(orb))
    add_step("resolution column",
             _first_divergence_over(((m, model.resolution_column(m), res[m])
                                     for m in ms), den),
             checked=len(res))

    # the certificate's coset at (0, 4) samples the difference column over ms
    verdict = reexpand_check_wire(model.shared_layer, resolution_series,
                                  orbifold_series, model.point_plus_exponent())
    fit = next((quasipoly.qp_from_obj(c["fit"], "fit") for c in verdict["cosets"]
                if c["representative"] == [0, 4] and c["fit"] is not None), None)
    if fit is None:
        fit_div = {"m": m_lo, "expected": "quasi-polynomial fit",
                   "actual": "no fit"}
        fit_detail = {}
    else:  # the fit's int numerators against the closed form
        values, fit_den = fit.scaled_values([(m,) for m in ms])
        fit_div = _first_divergence_over(zip(ms, map(model.column_difference, ms), values),
                                         fit_den)
        fit_detail = {"period": fit.period, "degree": fit.degrees[0]}
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
    add_step("behrend cross-check", _first_divergence_over(behrend_pairs, den),
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
                   "orbifold": jsonio.format_ratio(orb[m], den),
                   "resolution": jsonio.format_ratio(res[m], den),
                   "difference": jsonio.format_ratio(orb[m] - res[m], den)}
                  for m in ms],
        "point_row": [{"m": m, "value": jsonio.format_ratio(value, den)}
                      for m, value in point.items()],
        "ok": ok,
    }
    if not ok:
        first_bad = next(step for step in steps if not step["ok"])
        report["first_divergence"] = dict(first_bad.get("first_divergence", {}),
                                          step=first_bad["name"])
    return report


# -- the duality certificate before the point block ---------------------------

def map_exponents(p: LaurentPolynomial, fn: Callable[[Exponent], Exponent],
                  nvars_out: int) -> LaurentPolynomial:
    """Push exponents through fn, summing collisions."""
    return LaurentPolynomial(((fn(e), c) for e, c in p.items()), nvars_out)


def duality_check(f_by_beta: Mapping[IntVec, RationalFunction],
                  spec: LatticeSpec) -> dict:
    family = {_exponent(b): f for b, f in f_by_beta.items()}
    n0 = spec.rank0
    zero_c, zero_beta = (0,) * n0, (0,) * spec.rank1

    def c_image(e):  # the duality preserves the point block
        return spec.dualize(KClass(0, zero_beta, e)).c

    entries = []
    for beta in sorted(family):
        f = family[beta]
        img = spec.dualize(KClass(0, beta, zero_c))
        if img.r != 0:
            raise InputError("duality does not preserve the curve-point block")
        if img.beta not in family:
            raise InputError("incomplete family")
        g = family[img.beta]
        num_t = map_exponents(f.numerator, c_image, n0).shift(img.c)
        den_t = map_exponents(f.denominator, c_image, n0)
        diff = num_t * g.denominator - g.numerator * den_t
        entry = {"beta": list(beta), "image": list(img.beta), "ok": diff.is_zero()}
        if not entry["ok"]:
            first = min(diff)
            entry["first_discrepancy"] = {"exponent": list(first),
                                          "coeff": jsonio.format_rational(diff.coeff(first))}
        entries.append(entry)
    return {"entries": entries, "all_ok": all(e["ok"] for e in entries)}
