"""Multivariate quasi-polynomials and their exact resummation.

A quasi-polynomial of period p in r variables is a table of polynomials
indexed by residue tuples in (Z/p)^r.  Summed against q^(integer combinations)
over an orthant or a chain it closes up into a rational function.  With degree
d_t in variable t the denominator is prod_t (1 - x_t^p)^(1 + d_t), and the
numerator is the box prod_t [0, p(1 + d_t)) of values after that separable
difference operator (Stanley, EC1 4.4).  Values come from one Horner table of
int numerators per residue class, last variable outermost, so points that
share a prefix share its rows.  A chain sum is the orthant sum over its
increments, with tail degrees as the exponents.  Detection in sample sequences
applies the same difference operator to each residue class and reads the
class's polynomial off those differences in Newton's form.  This module also
checks re-expansion claims across a wall of gradings, one coset of Z c0 at a
time: a term at e is k = floor(e[i] / c0[i]) steps along the coset of
e - k c0, i the first nonzero entry of c0.  Differences come off the stored int
numerators and reach detection as ints over one denominator; one detection
charge covers all cosets' ranges before any fit.
"""

from __future__ import annotations

import collections
import itertools
import math
import operator
from collections import defaultdict
from collections.abc import Mapping
from fractions import Fraction

from . import jsonio
from .errors import InputError, charge
from .series import (
    LaurentPolynomial,
    LaurentSeries,
    LinearFunctional,
    RationalFunction,
    _accumulate,
    _coefficient,
    _exponent,
    _over_lcm,
    polynomial_to_obj,
    terms_from_obj,
    verify_expansion,
)


class QuasiPolynomial(collections.namedtuple("QuasiPolynomial", "vars period table")):
    """Period-p table of polynomials on residue classes of Z^vars.  ``_horner``
    holds per residue a Horner table of int numerators (``_nest``), their one
    denominator, and the largest table's multiply-adds; ``degrees`` holds per
    variable its largest power in the table (-1 for the zero table).  Both are
    set once here and left out of equality, hash and repr."""

    def __new__(cls, vars: int, period: int,
                table: Mapping[tuple[int, ...], LaurentPolynomial]):
        if period < 1:
            raise InputError("period must be at least 1")
        if vars < 0:
            raise InputError("variable count must be nonnegative")
        table = dict(table)
        # count before listing: when every key has vars entries, neither the
        # power nor the period**vars residue tuples outgrow the table
        keyed = all(isinstance(rho, tuple) and len(rho) == vars for rho in table)
        size = 1
        for _ in range(vars if keyed and table else 0):
            size *= period
            if size > len(table):
                break
        if not keyed or size != len(table) or set(table) != set(
                itertools.product(range(period), repeat=vars)):
            raise InputError("residue table must cover every residue tuple exactly once")
        for rho, poly in table.items():
            if poly.nvars != vars:
                raise InputError("table polynomial arity must match the variable count")
            if any(k < 0 for e in poly for k in e):
                raise InputError("table polynomials must have nonnegative exponents")
        # each polynomial's numerators, scaled to the lcm of their denominators
        scales, den = _over_lcm(Fraction(1, poly._den) for poly in table.values())
        tables = {rho: _nest(sorted([(e, n * s) for e, n in poly._terms.items()], reverse=True),
                             vars) for (rho, poly), s in zip(table.items(), scales)}
        # the charge: one row per distinct exponent prefix, as if variable 0 were outermost
        steps = max(len({e[:i] for e in poly for i in range(1, vars + 1)})
                    for poly in table.values())
        self = tuple.__new__(cls, (vars, period, table))
        self._horner = (tables, den, steps)
        self.degrees = tuple(max((e[i] for poly in table.values() for e in poly), default=-1)
                             for i in range(vars))
        return self

    def scaled_values(self, points) -> tuple[list[int], int]:
        """a(n) at each integer point n, as int numerators over one denominator."""
        p, (tables, den, _), last = self.period, self._horner, self.vars - 1
        if last < 0:  # no variables: each table is its constant
            return [sum(tables[()][0]) for _ in points], den
        tops, below, out = {}, {}, []
        for n in points:
            key = n[:last] + (n[last] % p,)  # n's class and prefix n[:last]
            entry = tops.get(key)
            if entry is None:
                rho = tuple([x % p for x in n])
                inner, levels, top = tables[rho]
                for i, level in levels:
                    if (rho, n[:i + 1]) not in below:  # once per class and prefix
                        below[rho, n[:i + 1]] = [_horner(rows, inner, n[i]) for rows in level]
                    inner = below[rho, n[:i + 1]]
                entry = tops[key] = top, inner
            (rows, inner), x, acc = entry, n[last], 0
            for k, gap in rows:  # _horner, inline
                acc = (acc + inner[k]) * x ** gap
            out.append(acc)
        return out, den

    def is_zero(self) -> bool:
        return not any(coeffs for coeffs, _, _ in self._horner[0].values())


def _nest(terms, r: int) -> tuple:
    """The coefficients of the terms (e, c), highest e first; the levels (i, Horner
    tables in x_i, one per distinct e[i + 1:]) below the last, level i reading
    n[:i + 1] alone; and the last level's table.  Rows (k, gap) run down the
    powers that occur: k indexes the level before, gap steps down to the next or 0."""
    keys, levels = [e for e, _ in terms], [[c for _, c in terms]]
    for i in range(r):
        if i < r - 1 and not any(e[0] for e in keys):  # x_i absent: the identity
            keys = [e[1:] for e in keys]
            continue
        tables = {}
        for k, e in enumerate(keys):  # within one e[1:], e[0] descends
            tables.setdefault(e[1:], []).append((k, e[0]))
        keys = sorted(tables, reverse=True)
        levels.append((i, [[(k, x - y) for (k, x), (_, y) in zip(rows, rows[1:] + [(0, 0)])]
                           for rows in map(tables.get, keys)]))
    return levels[0], levels[1:-1], (levels[-1][1] or [[]])[0] if r else None


def _horner(rows, inner, x: int) -> int:
    """One Horner table at x, its rows (k, gap) reading inner[k]."""
    acc = 0
    for k, gap in rows:
        acc = (acc + inner[k]) * x ** gap
    return acc


def _difference(values: list, indices, step: int) -> None:
    """Apply (1 - x^step) once in place over ``indices``, which run downwards."""
    for i in indices:
        values[i] -= values[i - step]


def _grid(offset, columns, sizes) -> list[tuple[int, ...]]:
    """offset + sum_t j_t columns[t] over the box of sizes, axis by axis, in product order."""
    points, add = [tuple(offset)], operator.add
    for column, size in zip(columns, sizes):
        steps = [tuple(map(j.__mul__, column)) for j in range(size)]
        points = [tuple(map(add, point, step)) for point in points for step in steps]
    return points


def _resum_box(a: QuasiPolynomial, offset, columns, degs, monos, nq: int,
               shift) -> RationalFunction:
    """g/h equal to q^shift times the sum over j >= 0 of a(n(j)) q^(j.monos).

    With n(j) = offset + sum_t j_t columns[t], b(j) = a(n(j)) must be a
    period-p quasi-polynomial of degree at most degs[t] in j_t.  Then
    h = prod_t (1 - x_t^p)^(1 + degs[t]) times sum_j b(j) x^j is supported
    on the box prod_t [0, p(1 + degs[t])), since a (1 + d)-th difference of
    step p kills a degree-d polynomial on each residue class.  So g is the
    box of values b(j), taken as integers over the lcm of the table's
    denominators, after the separable difference (1 - x_t^p)^(1 + degs[t])
    is applied one axis at a time; then x_t becomes q^monos[t], and g keeps
    those integers over that lcm.  The one charge bounds, per box point, the
    largest table's multiply-adds and the sum(1 + degs[t]) differences.
    """
    p = a.period
    sizes = [p * (1 + d) for d in degs]
    charge("resummation", math.prod(sizes) * (a._horner[2] + sum(1 + d for d in degs)))
    values, den = a.scaled_values(_grid(offset, columns, sizes))
    stride = 1
    for size, d in zip(reversed(sizes), reversed(degs)):
        inner = [i for i in reversed(range(len(values)))
                 if i // stride % size >= p]
        for _ in range(1 + d):
            _difference(values, inner, p * stride)
        stride *= size
    # box points with one exponent sum their values
    g = LaurentPolynomial._make(_accumulate({}, (
        (e, v) for e, v in zip(_grid(shift, monos, sizes), values) if v)), nq, den)
    h = LaurentPolynomial._make({(0,) * nq: 1}, nq)
    for m, d in zip(monos, degs):  # (1 - x^(p m))^(1 + d) by the binomial theorem
        h = h * LaurentPolynomial._make(
            {tuple(p * k * x for x in m): (-1) ** k * math.comb(1 + d, k)
             for k in range(2 + d)}, nq)
    return RationalFunction(g, h)


def _check_monomials(monos, count: int, grading: LinearFunctional):
    nq = len(grading.coeffs)
    if len(monos) != count:
        raise InputError("one exponent vector per summation variable is required")
    cleaned = []
    for i, v in enumerate(monos):
        v = _exponent(v)
        if len(v) != nq:
            raise InputError("monomial exponent length must match the grading arity")
        if grading(v) <= 0:
            raise InputError("monomial grading must be positive")
        cleaned.append(v)
    return cleaned, nq


def resum_orthant(a: QuasiPolynomial, monos, grading: LinearFunctional) -> RationalFunction:
    """Closed form of sum over n in Z_{>=0}^r of a(n) q^(n1 v1 + ... + nr vr).

    The denominator is exactly prod_i (1 - q^(p v_i))^(1 + deg_i a); the
    numerator is the box prod_i [0, p(1 + deg_i a)) of values a(n) after
    the separable difference prod_i (1 - x_i^p)^(1 + deg_i a), with x_i
    read as q^(v_i).  The grading must be positive on every v_i so the sum
    is locally finite.
    """
    monos_t, nq = _check_monomials(monos, a.vars, grading)
    units = [tuple(map(t.__eq__, range(a.vars))) for t in range(a.vars)]
    return _resum_box(a, (0,) * a.vars, units, a.degrees, monos_t, nq, (0,) * nq)


class ChainPattern(collections.namedtuple("ChainPattern", "r equalities")):
    """Ascending chains 0 <= n_1 <= ... <= n_r with equality exactly at
    positions listed in ``equalities`` (position i means n_i == n_{i+1})."""

    __slots__ = ()

    def __new__(cls, r: int, equalities: frozenset[int]):
        equalities = frozenset(equalities)
        if r < 0:
            raise InputError("chain length must be nonnegative")
        if not equalities <= set(range(1, r)):
            raise InputError("equality positions must lie strictly inside the chain")
        return tuple.__new__(cls, (r, equalities))

    def free_positions(self) -> list[int]:
        return [1] + [i + 1 for i in range(1, self.r) if i not in self.equalities]


def resum_chain(a: QuasiPolynomial, pattern: ChainPattern, monos,
                grading: LinearFunctional) -> RationalFunction:
    """Closed form of the chain sum of a(n) q^(sum n_i v_i).

    Over 0 <= n_1 <= ... <= n_r with equalities exactly on the pattern.
    One increment j_m >= 0 per free position m parametrizes the chains,
    and a(n(j)) is a quasi-polynomial in j of degree at most the tail
    degree D_m = sum_{i >= m} deg_i a in j_m.  The denominator is the
    product over free positions of (1 - q^(p w_m))^(1 + D_m) with tail
    sums w_m = sum_{i >= m} v_i; the numerator is the box of values
    a(n(j)) after the matching separable difference, so the tail degrees
    are its exponents whatever the degrees of a(n(j)) are.
    """
    if a.vars != pattern.r:
        raise InputError("quasi-polynomial arity must match the chain length")
    monos_t, nq = _check_monomials(monos, pattern.r, grading)
    if pattern.r == 0 or a.is_zero():  # no increments, or the zero box
        return resum_orthant(a, monos_t, grading)
    r = pattern.r
    free = pattern.free_positions()
    # n_i = k_i - 1 + j_1 + ... + j_{k_i}, k_i the number of free positions <= i
    ks = [sum(1 for m in free if m <= i + 1) for i in range(r)]

    tails = [tuple(map(sum, zip(*monos_t[m - 1:]))) for m in free]
    tail_degs = [sum(a.degrees[m - 1:]) for m in free]
    shift = tuple(sum((k - 1) * v[c] for k, v in zip(ks, monos_t))
                  for c in range(nq))
    columns = [tuple(map(t.__le__, ks)) for t in range(1, len(free) + 1)]
    return _resum_box(a, [k - 1 for k in ks], columns, tail_degs, tails, nq, shift)


# -- detection ----------------------------------------------------------------

MAX_PERIOD, MAX_DEGREE = 4, 6  # the default detection search box

def _newton(start: int, step: int, diffs, den: int) -> LaurentPolynomial:
    """Newton's forward form: the sum over k of diffs[k] / den times
    C((n - start) / step, k), one variable."""
    basis = LaurentPolynomial.constant(1, Fraction(1, den))
    total = basis.scale(diffs[0])
    n = LaurentPolynomial.monomial((1,))
    for k, diff in enumerate(diffs[1:]):
        basis = basis * (n - LaurentPolynomial.constant(1, start + k * step)).scale(
            Fraction(1, (k + 1) * step))
        total = total + basis.scale(diff)
    return total


def detect_quasipoly(samples: Mapping[int, Fraction], max_period: int = MAX_PERIOD,
                     max_degree: int = MAX_DEGREE, den: int = 1) -> QuasiPolynomial | None:
    """Smallest (period, degree) quasi-polynomial fitting the samples / den exactly.

    Samples must cover a contiguous integer range (negative indices are
    fine); ``den``, a positive int, is their common denominator, and int
    samples are read as they are.  Period p and degree d fit when the
    (d + 1)-th differences vanish on every residue class mod p:
    (1 - x^p)^(1 + d) times the generating function is a polynomial
    (Stanley, EC1 4.4).  Periods rise from 1; each class is differenced, in
    integers, up to its first vanishing order, and its polynomial is read
    off those differences in Newton's form, so the samples are not fitted
    again.  A class whose first (cap + 1)-th difference, taken from its first
    cap + 2 entries when that costs at most one pass, is nonzero needs a
    degree above the cap: it is charged the cap + 1 passes that would show
    this and left undifferenced.  Every class keeps a held-out point, so
    period <= len / 2 and degree <= len / period - 2.  Returns None when no
    period fits; raises "window too small" when nothing could be tried, and
    the "detection" work-budget error past its differenced entries.
    """
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
            if (cap + 1) * (cap + 2) // 2 <= len(column):  # within one pass:
                head = column[:cap + 2]  # its first (cap + 1)-th difference
                for d in range(cap + 1):
                    _difference(head, range(cap + 1, d, -1), 1)
                if head[-1]:  # charged as the cap + 1 passes that find no fit
                    work += (cap + 1) * (len(column) - 1) - cap * (cap + 1) // 2
                    charge("detection", work)
                    break
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


# -- re-expansion -------------------------------------------------------------

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
    verification ("confirmed").  Returns "c0" and "cosets", each with
    "representative", "k_lo", "k_hi" and "fit", the coset's QuasiPolynomial
    or None; the CLI writes each fit with ``qp_to_obj``.
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
        fit = None if k_hi <= k_lo else detect_quasipoly(
            {k: diff.get(k, 0) for k in range(k_lo, k_hi + 1)}, max_period, max_degree, den)
        cosets.append({"representative": list(rep), "k_lo": k_lo, "k_hi": k_hi, "fit": fit})
    all_fit = all(coset["fit"] is not None for coset in cosets)
    return {"c0": list(c0), "cosets": cosets, "all_fit": all_fit,
            "confirmed": all_fit and verify_expansion(s_plus, f)}


# -- wire format --------------------------------------------------------------

def _residue_entry(obj, path: str, nvars: int):
    rho = jsonio.field(obj, "residues", path, jsonio.parse_int_vector, nvars)
    terms = jsonio.field(obj, "poly", path, terms_from_obj, nvars)
    return rho, LaurentPolynomial(terms, nvars)


def qp_to_obj(a: QuasiPolynomial):
    entries = [{"residues": list(rho), "poly": polynomial_to_obj(a.table[rho])}
               for rho in sorted(a.table)]
    return {"vars": a.vars, "period": a.period, "table": entries}


def qp_from_obj(obj, path: str) -> QuasiPolynomial:
    nvars = jsonio.field(obj, "vars", path, jsonio.parse_int)
    period = jsonio.field(obj, "period", path, jsonio.parse_int)
    table = jsonio.field(obj, "table", path, jsonio.parse_keyed, _residue_entry,
                         "residues", nvars,
                         message="expected a list of residue entries",
                         duplicate="duplicate residue tuple")
    return QuasiPolynomial(nvars, period, table)
