import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from wallx import quasipoly
from wallx.errors import InputError, charge
from wallx.quasipoly import (
    ChainPattern,
    QuasiPolynomial,
    detect_quasipoly,
    qp_from_obj,
    qp_to_obj,
    reexpand_check,
    resum_chain,
    resum_orthant,
)
from wallx.series import (
    Coset,
    LaurentPolynomial,
    LaurentSeries,
    LinearFunctional,
    RationalFunction,
    Window,
    _over_lcm,
    expand,
    verify_expansion,
)

from conftest import evaluate, fr, power, qp_value, wire
import parent_kernels as parent


def _alt(m):
    return -1 if m % 2 else 1


def _poly(nvars, terms):
    return LaurentPolynomial({tuple(e): Fraction(c) for e, c in terms.items()}, nvars)


def _qp_const(r, value, period=1):
    table = {rho: _poly(r, {(0,) * r: value})
             for rho in itertools.product(range(period), repeat=r)}
    return QuasiPolynomial(r, period, table)


def _random_qp(rng, r, period, degree):
    table = {}
    for rho in itertools.product(range(period), repeat=r):
        terms = {}
        for e in itertools.product(range(degree + 1), repeat=r):
            if rng.random() < 0.6:
                terms[e] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        table[rho] = _poly(r, terms)
    return QuasiPolynomial(r, period, table)


def _brute_orthant(a, monos, grading, cap):
    """Direct partial sum of the orthant series up to the grading cap."""
    out = {}
    caps = []
    for v in monos:
        w = grading(v)
        caps.append(int(cap / w) + 1)
    for n in itertools.product(*(range(c + 1) for c in caps)):
        e = tuple(sum(n[i] * monos[i][j] for i in range(len(monos)))
                  for j in range(len(monos[0]) if monos else 0))
        if grading(e) > cap:
            continue
        val = qp_value(a, n)
        if val:
            out[e] = out.get(e, Fraction(0)) + val
    return {e: c for e, c in out.items() if c}


def _brute_chain(a, pattern, monos, grading, cap):
    out = {}
    r = pattern.r
    top = int(cap) + r + 2
    for n in itertools.product(range(top), repeat=r):
        ok = True
        for i in range(1, r):
            if n[i - 1] > n[i]:
                ok = False
                break
            eq = n[i - 1] == n[i]
            if eq != (i in pattern.equalities):
                ok = False
                break
        if not ok:
            continue
        e = tuple(sum(n[i] * monos[i][j] for i in range(r))
                  for j in range(len(monos[0])))
        if grading(e) > cap:
            continue
        val = qp_value(a, n)
        if val:
            out[e] = out.get(e, Fraction(0)) + val
    return {e: c for e, c in out.items() if c}


def _expand_coeffs(f, grading, cap):
    s = expand(f, Window(grading, Fraction(cap)))
    return dict(s.terms())


G1 = LinearFunctional((fr(1),))


def test_qp_eval_uses_mathematical_mod():
    table = {(0,): _poly(1, {(1,): 1}), (1,): _poly(1, {(0,): -7})}
    a = QuasiPolynomial(1, 2, table)
    assert qp_value(a, (4,)) == 4
    assert qp_value(a, (-3,)) == -7
    assert qp_value(a, (-2,)) == -2
    assert a.degrees[0] == 1


@st.composite
def _qp_and_point(draw):
    r, period = draw(st.integers(0, 2)), draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 3)] * r)
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=7)
    table = {rho: _poly(r, draw(st.dictionaries(exps, coeff, max_size=4)))
             for rho in itertools.product(range(period), repeat=r)}
    return QuasiPolynomial(r, period, table), draw(st.tuples(*[st.integers(-9, 9)] * r))


@given(_qp_and_point())
@settings(deadline=None, max_examples=150)
def test_qp_eval_matches_the_residue_polynomial(case):
    a, n = case
    value = qp_value(a, n)
    assert type(value) is Fraction
    assert value == evaluate(a.table[tuple(x % a.period for x in n)], n)
    # equality and repr see the table alone
    twin = QuasiPolynomial(a.vars, a.period, dict(a.table))
    assert twin == a and repr(twin) == (
        f"QuasiPolynomial(vars={a.vars}, period={a.period}, table={a.table!r})")


def test_qp_table_must_be_complete():
    with pytest.raises(InputError, match="residue table"):
        QuasiPolynomial(1, 2, {(0,): _poly(1, {})})


@pytest.mark.parametrize("key", [(0, 0), (2,), (-1,), "0", 0])
def test_qp_table_keys_must_be_residue_tuples(key):
    with pytest.raises(InputError, match="residue table"):
        QuasiPolynomial(1, 2, {key: _poly(1, {}), (1,): _poly(1, {})})


def test_qp_table_is_counted_not_enumerated():
    # 14**9, about 2 * 10**10 residue tuples, are never built
    with pytest.raises(InputError, match="residue table"):
        QuasiPolynomial(9, 14, {(0,) * 9: _poly(9, {})})
    with pytest.raises(InputError, match="residue table"):
        QuasiPolynomial(1, 1, {})
    # period 1 has one residue tuple at any arity, arity 0 one at any period
    assert QuasiPolynomial(40, 1, {(0,) * 40: _poly(40, {})}).is_zero()
    assert qp_value(QuasiPolynomial(0, 5, {(): _poly(0, {(): 3})}), ()) == 3


def test_zero_qp_degree_sentinel():
    a = _qp_const(1, 0)
    assert a.degrees[0] == -1
    assert a.is_zero()


@st.composite
def _sparse_qp(draw):
    """Period <= 3 in up to 3 variables; some residue classes, or all of
    them, are zero, and a drawn zero coefficient leaves no term."""
    r, period = draw(st.integers(0, 3)), draw(st.integers(1, 3))
    everywhere_zero = draw(st.booleans())
    exps = st.tuples(*[st.integers(0, 4)] * r)
    coeff = st.sampled_from([0, 1, -2, fr(3, 5)])
    table = {rho: _poly(r, {} if everywhere_zero or draw(st.booleans())
                        else draw(st.dictionaries(exps, coeff, max_size=3)))
             for rho in itertools.product(range(period), repeat=r)}
    return QuasiPolynomial(r, period, table)


@given(_sparse_qp())
@settings(deadline=None, max_examples=150)
# x^2 y^3 + 1: the row of x^1 is empty below the nonzero row of x^2
@example(QuasiPolynomial(2, 1, {(0, 0): _poly(2, {(2, 3): 1, (0, 0): 1})}))
@example(QuasiPolynomial(0, 3, {(): _poly(0, {(): fr(2, 3)})}))
@example(QuasiPolynomial(0, 1, {(): _poly(0, {})}))
# the class (1, 0) mod 2 is zero, the other three are not
@example(QuasiPolynomial(2, 2, {rho: _poly(2, {} if rho == (1, 0) else {(0, 4): rho[1] - 2})
                                for rho in itertools.product(range(2), repeat=2)}))
def test_degree_and_is_zero_match_the_table_walk(a):
    # the reference reads the LaurentPolynomial table: per residue class the
    # largest exponent of variable i (-1 when the class is zero)
    for i in range(a.vars):
        assert a.degrees[i] == max(max((e[i] for e, _ in poly.items()), default=-1)
                                  for poly in a.table.values())
    assert a.is_zero() == all(poly.is_zero() for poly in a.table.values())


def _reference_scaled_values(a, points):
    """The per-term evaluator that the Horner tables replaced, verbatim."""
    nums, den = _over_lcm(c for poly in a.table.values() for _, c in poly.items())
    nums = iter(nums)  # in the order of the table's terms
    table = {rho: [(next(nums), e) for e, _ in poly.items()] for rho, poly in a.table.items()}
    p = a.period
    return [sum(c * math.prod(x ** k for x, k in zip(n, e))
                for c, e in table[tuple(x % p for x in n)])
            for n in points], den


@st.composite
def _tables(draw, max_degree=7):
    """Up to 3 variables and period 3, sparse terms of degree up to
    max_degree and some zero residue classes."""
    r, period = draw(st.integers(0, 3)), draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, max_degree)] * r)
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=7)
    return QuasiPolynomial(r, period, {
        rho: _poly(r, {} if draw(st.booleans()) else draw(st.dictionaries(exps, coeff, max_size=4)))
        for rho in itertools.product(range(period), repeat=r)})


@st.composite
def _qp_and_points(draw):
    """A table at points with negative entries, some repeated, in any order."""
    a = draw(_tables())
    points = draw(st.lists(st.tuples(*[st.integers(-9, 9)] * a.vars), max_size=6))
    if points:
        points += draw(st.lists(st.sampled_from(points), max_size=4))
    return a, draw(st.permutations(points))


@given(_qp_and_points())
@settings(deadline=None, max_examples=300)
# only x^7 y^0 z^5, beside a zero class
@example((QuasiPolynomial(3, 2, {rho: _poly(3, {(7, 0, 5): fr(-3, 4)} if rho == (1, 0, 1) else {})
                                 for rho in itertools.product(range(2), repeat=3)}),
          [(1, 2, 3), (-3, 0, -1), (-1, 4, 5), (0, 0, 0)]))
@example((QuasiPolynomial(0, 2, {(): _poly(0, {(): fr(5, 3)})}), [(), ()]))
# shared prefixes in two classes, out of order, one point twice
@example((QuasiPolynomial(2, 2, {rho: _poly(2, {(1, 2): rho[0] + 1, (0, 1): fr(1, 2)})
                                  for rho in itertools.product(range(2), repeat=2)}),
          [(3, 1), (3, 0), (-1, 1), (3, 1), (0, 0), (3, 2)]))
def test_scaled_values_match_the_per_term_reference(case):
    a, points = case
    assert a.scaled_values(points) == _reference_scaled_values(a, points)
    assert a.scaled_values(iter(points)) == _reference_scaled_values(a, points)
    # and the parent's one Horner walk per point
    assert a.scaled_values(points) == parent.scaled_values(a, points)


@st.composite
def _horner_qp(draw):
    """Up to 4 variables and period 2, up to 12 terms per class sharing
    exponent prefixes, some classes zero."""
    r, period = draw(st.integers(0, 4)), draw(st.integers(1, 2))
    exps = st.tuples(*[st.integers(0, 3)] * r)
    table = {rho: _poly(r, {} if draw(st.booleans())
                        else draw(st.dictionaries(exps, st.integers(-3, 3), max_size=12)))
             for rho in itertools.product(range(period), repeat=r)}
    return QuasiPolynomial(r, period, table)


_DENSE = QuasiPolynomial(3, 1, {(0, 0, 0): _poly(3, {e: 1 for e in itertools.product(
    range(21), repeat=3)})})  # 9,261 terms


@given(_horner_qp())
@settings(deadline=None, max_examples=200)
@example(QuasiPolynomial(0, 3, {(): _poly(0, {(): fr(2, 3)})}))
@example(QuasiPolynomial(0, 1, {(): _poly(0, {})}))
@example(QuasiPolynomial(3, 2, {rho: _poly(3, {})
                                for rho in itertools.product(range(2), repeat=3)}))
@example(_DENSE)
def test_horner_multiply_adds_match_the_parent_row_walk(a):
    # the charge stays the row count of the variable-0-first tables
    tables, _ = parent.horner_tables(a)
    assert a._horner[2] == max(parent._rows(rows, a.vars) for rows in tables.values())


def _units(r):
    return [tuple(int(t == u) for u in range(r)) for t in range(r)]


@st.composite
def _boxes(draw):
    """An orthant or a chain box of every equality pattern: offset, columns
    and the parent's point map, axis degrees from -1 (an empty box) up."""
    a = draw(_tables(max_degree=3))
    r, nq = a.vars, draw(st.integers(1, 2))
    if draw(st.booleans()):
        offset, columns, point = (0,) * r, _units(r), lambda j: j
    else:
        pattern = ChainPattern(r, frozenset(draw(st.sets(st.integers(1, max(r - 1, 1))))
                                            & set(range(1, r))))
        free = pattern.free_positions() if r else []
        ks = [sum(1 for m in free if m <= i + 1) for i in range(r)]
        offset = [k - 1 for k in ks]
        columns = [tuple(int(k >= t) for k in ks) for t in range(1, len(free) + 1)]
        point = parent.chain_point(ks)
    degs = draw(st.lists(st.integers(-1, 3 if r < 3 else 1),
                         min_size=len(columns), max_size=len(columns)))
    monos = draw(st.lists(st.tuples(*[st.integers(-2, 3)] * nq),
                          min_size=len(columns), max_size=len(columns)))
    shift = draw(st.tuples(*[st.integers(-2, 2)] * nq))
    return a, offset, columns, point, degs, monos, nq, shift


@given(_boxes())
@settings(deadline=None, max_examples=200)
# a chain of three with n_1 == n_2, in period 2 with a zero class
@example((QuasiPolynomial(3, 2, {rho: _poly(3, {} if rho == (1, 0, 1)
                                             else {(1, 0, 2): 3, (0, 1, 0): -1})
                                 for rho in itertools.product(range(2), repeat=3)}),
          [0, 0, 1], [(1, 1, 1), (0, 0, 1)], parent.chain_point([1, 1, 2]), [1, 1],
          [(1, 0), (2, 1)], 2, (0, 1)))
# a degree -1 axis: the box is empty
@example((QuasiPolynomial(1, 1, {(0,): _poly(1, {})}), (0,), [(1,)], lambda j: j, [-1],
          [(1,)], 1, (0,)))
def test_resum_box_matches_the_parent_per_point_box(case):
    a, offset, columns, point, degs, monos, nq, shift = case
    f = quasipoly._resum_box(a, offset, columns, degs, monos, nq, shift)
    g = parent.resum_box(a, point, degs, monos, nq, shift)
    assert (f.numerator, f.denominator) == (g.numerator, g.denominator)


@st.composite
def _box_denominators(draw):
    """Up to 3 summation variables of degree -1..4 and period up to 3, each
    with a nonzero exponent vector in up to 3 variables."""
    r, nq, p = draw(st.integers(0, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    degs = draw(st.lists(st.integers(-1, 4), min_size=r, max_size=r))
    monos = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * nq).filter(any),
                          min_size=r, max_size=r))
    return p, degs, monos, nq


@given(_box_denominators())
@settings(deadline=None, max_examples=150)
@example((1, [-1], [(1,)], 1))
@example((3, [4, -1, 0], [(1, 0), (0, 2), (1, -1)], 2))
@example((2, [4, 4], [(1,), (2,)], 1))
def test_resum_denominator_matches_the_repeated_product(case):
    p, degs, monos, nq = case
    r = len(degs)
    zero = QuasiPolynomial(r, p, {rho: _poly(r, {})
                                  for rho in itertools.product(range(p), repeat=r)})
    f = quasipoly._resum_box(zero, (0,) * r, _units(r), degs, monos, nq, (0,) * nq)
    assert f.denominator == parent.resum_denominator(p, monos, degs, nq)


def test_orthant_geometric_closed_form():
    a = _qp_const(1, 1)
    f = resum_orthant(a, [(1,)], G1)
    assert f.numerator == _poly(1, {(0,): 1})
    assert f.denominator == _poly(1, {(0,): 1, (1,): -1})


def test_orthant_linear_weight_closed_form():
    # sum n q^n = q / (1-q)^2
    a = QuasiPolynomial(1, 1, {(0,): _poly(1, {(1,): 1})})
    f = resum_orthant(a, [(1,)], G1)
    assert f.denominator == power(_poly(1, {(0,): 1, (1,): -1}), 2)
    assert f == RationalFunction(_poly(1, {(1,): 1}),
                                 power(_poly(1, {(0,): 1, (1,): -1}), 2))


def test_orthant_alternating_closed_form():
    table = {(0,): _poly(1, {(0,): 1}), (1,): _poly(1, {(0,): -1})}
    a = QuasiPolynomial(1, 2, table)
    f = resum_orthant(a, [(1,)], G1)
    assert f == RationalFunction(_poly(1, {(0,): 1}), _poly(1, {(0,): 1, (1,): 1}))
    assert f.denominator == _poly(1, {(0,): 1, (2,): -1})


def test_orthant_requires_positive_grading():
    a = _qp_const(2, 1)
    with pytest.raises(InputError, match="grading must be positive"):
        resum_orthant(a, [(1, 0), (0, -1)], LinearFunctional((fr(1), fr(1))))


def test_orthant_zero_qp():
    f = resum_orthant(_qp_const(2, 0), [(1, 0), (0, 1)],
                      LinearFunctional((fr(1), fr(1))))
    assert f.numerator.is_zero()


def test_orthant_matches_bruteforce_random():
    rng = random.Random(7)
    grading2 = LinearFunctional((fr(1), fr(1)))
    for trial in range(30):
        r = rng.randint(1, 3)
        period = rng.randint(1, 3)
        degree = rng.randint(0, 2)
        a = _random_qp(rng, r, period, degree)
        if a.is_zero():
            continue
        monos = [(rng.randint(0, 2), rng.randint(0, 2)) for _ in range(r)]
        monos = [m if m != (0, 0) else (1, 0) for m in monos]
        f = resum_orthant(a, monos, grading2)
        cap = 10
        assert _expand_coeffs(f, grading2, cap) == _brute_orthant(a, monos, grading2, cap)


def test_orthant_denominator_and_degree_drop():
    rng = random.Random(13)
    for _ in range(15):
        r = rng.randint(1, 2)
        period = rng.randint(1, 3)
        a = _random_qp(rng, r, period, rng.randint(0, 2))
        if a.is_zero():
            continue
        monos = [(rng.randint(1, 2),) for _ in range(r)]
        f = resum_orthant(a, monos, G1)
        expected_h = LaurentPolynomial.constant(1, 1)
        for i in range(r):
            base = LaurentPolynomial(
                {(0,): fr(1), (period * monos[i][0],): fr(-1)}, 1)
            expected_h = expected_h * power(base, 1 + a.degrees[i])
        assert f.denominator == expected_h
        assert not f.numerator.is_zero() or True
        g_top = max((G1(e) for e, _ in f.numerator.items()), default=None)
        h_top = max(G1(e) for e, _ in f.denominator.items())
        if g_top is not None:
            assert g_top < h_top


def test_chain_reduces_to_orthant_for_length_one():
    a = QuasiPolynomial(1, 2, {(0,): _poly(1, {(0,): 2}),
                               (1,): _poly(1, {(1,): 1})})
    direct = resum_orthant(a, [(1,)], G1)
    chained = resum_chain(a, ChainPattern(1, frozenset()), [(1,)], G1)
    assert chained == direct


def test_chain_strict_pair_geometric():
    """sum over 0 <= n1 < n2 of q^(n1+n2) has the tail-product denominator."""
    a = _qp_const(2, 1)
    f = resum_chain(a, ChainPattern(2, frozenset()), [(1,), (1,)], G1)
    # tails: positions 1 and 2 -> monomials q^2 and q^1
    expected_h = (_poly(1, {(0,): 1, (2,): -1})
                  * _poly(1, {(0,): 1, (1,): -1}))
    assert f.denominator == expected_h
    coeffs = _expand_coeffs(f, G1, 11)
    brute = _brute_chain(a, ChainPattern(2, frozenset()), [(1,), (1,)], G1, 11)
    assert coeffs == brute


def test_chain_matches_bruteforce_all_patterns():
    rng = random.Random(29)
    grading2 = LinearFunctional((fr(1), fr(1)))
    for r in (2, 3):
        for bits in itertools.product([False, True], repeat=r - 1):
            eqs = frozenset(i + 1 for i, b in enumerate(bits) if b)
            pattern = ChainPattern(r, eqs)
            a = _random_qp(rng, r, rng.randint(1, 2), rng.randint(0, 2))
            if a.is_zero():
                continue
            monos = [(rng.randint(0, 2), rng.randint(1, 2)) for _ in range(r)]
            f = resum_chain(a, pattern, monos, grading2)
            cap = 9
            assert (_expand_coeffs(f, grading2, cap)
                    == _brute_chain(a, pattern, monos, grading2, cap))


def test_chain_pattern_validation():
    with pytest.raises(InputError, match="strictly inside"):
        ChainPattern(2, frozenset({2}))
    with pytest.raises(InputError, match="arity"):
        resum_chain(_qp_const(2, 1), ChainPattern(3, frozenset()),
                    [(1,), (1,), (1,)], G1)


def test_chain_empty_length():
    f = resum_chain(_qp_const(0, 5), ChainPattern(0, frozenset()), [], G1)
    assert f.numerator == _poly(1, {(0,): 5})


def test_detect_constant_and_minimality():
    fit = detect_quasipoly({n: fr(1) for n in range(-3, 4)})
    assert fit is not None
    assert (fit.period, fit.degrees[0]) == (1, 0)


def test_detect_alternating_linear():
    samples = {m: fr(_alt(m) * (3 * m - 9)) for m in range(-8, 13)}
    fit = detect_quasipoly(samples, max_period=4, max_degree=3)
    assert fit is not None
    assert fit.period == 2
    assert fit.degrees[0] == 1
    for m in range(-20, 21):
        assert qp_value(fit, (m,)) == _alt(m) * (3 * m - 9)


def test_detect_square_degree_two():
    fit = detect_quasipoly({n: fr(n * n) for n in range(-4, 5)})
    assert fit is not None
    assert (fit.period, fit.degrees[0]) == (1, 2)


def test_detect_no_fit_returns_none():
    samples = {n: fr(2 ** n) for n in range(0, 11)}
    assert detect_quasipoly(samples, max_period=2, max_degree=2) is None


def test_detect_window_too_small():
    with pytest.raises(InputError, match="window too small"):
        detect_quasipoly({0: fr(1)}, max_period=1, max_degree=1)
    with pytest.raises(InputError, match="window too small"):
        detect_quasipoly({}, max_period=2, max_degree=2)


def test_detect_requires_contiguous_samples():
    with pytest.raises(InputError, match="contiguous"):
        detect_quasipoly({0: fr(1), 2: fr(1)})


# -- the difference-table search against the interpolation search -----------

def _reference_interpolate(points):
    x_var = LaurentPolynomial({(1,): Fraction(1)}, 1)
    total = LaurentPolynomial({}, 1)
    for i, (xi, yi) in enumerate(points):
        term = LaurentPolynomial.constant(1, yi)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            term = term * (x_var - LaurentPolynomial.constant(1, xj)).scale(
                Fraction(1, xi - xj))
        total = total + term
    return total


def _reference_detect(samples, max_period=4, max_degree=6):
    """Lagrange interpolation per (period, degree, class) candidate, checked
    point by point on the held-out samples, as detect_quasipoly did before
    it searched difference tables."""
    keys = sorted(samples)
    if not keys:
        raise InputError("window too small")
    if keys != list(range(keys[0], keys[-1] + 1)):
        raise InputError("samples must cover a contiguous integer range")
    values = {int(k): Fraction(samples[k]) for k in keys}
    attempted = False
    for period in range(1, max_period + 1):
        classes = {rho: [n for n in keys if n % period == rho]
                   for rho in range(period)}
        for degree in range(0, max_degree + 1):
            if any(len(ns) < degree + 2 for ns in classes.values()):
                continue
            attempted = True
            table = {}
            ok = True
            for rho, ns in classes.items():
                pts = [(n, values[n]) for n in ns[:degree + 1]]
                poly = _reference_interpolate(pts)
                if any(evaluate(poly, (n,)) != values[n] for n in ns[degree + 1:]):
                    ok = False
                    break
                table[(rho,)] = poly
            if ok:
                return QuasiPolynomial(1, period, table)
    if not attempted:
        raise InputError("window too small")
    return None


def _outcome(search, samples, max_period, max_degree):
    try:
        fit = search(samples, max_period, max_degree)
    except InputError as err:
        return "error", err.message
    if fit is None:
        return None
    # term and residue order is not part of the result: every reader sorts
    return fit.period, sorted((rho, sorted(poly.items())) for rho, poly in fit.table.items())


_qp_coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def _detect_case(draw):
    start = draw(st.integers(-6, 6))
    count = draw(st.integers(1, 14))
    period = draw(st.integers(1, 3))
    degree = draw(st.integers(0, 3))
    rows = [draw(st.lists(_qp_coeff, min_size=1, max_size=degree + 1))
            for _ in range(period)]
    samples = {n: sum(c * n ** k for k, c in enumerate(rows[n % period]))
               for n in range(start, start + count)}
    corrupt = draw(st.none() | st.tuples(st.integers(0, count - 1),
                                         _qp_coeff.filter(bool)))
    if corrupt is not None:
        samples[start + corrupt[0]] += corrupt[1]
    return samples, draw(st.integers(-1, 6)), draw(st.integers(-1, 6))


# period 3 from a start that is not 0 mod 3; period 3 with classes of
# degrees 3, 0 and 1 from a start that is not 0 mod 3; period 2 with a
# quadratic class before a constant one
@example(({n: fr(n * n, 3) + (n % 3) for n in range(-7, 8)}, 3, 2))
@example(({n: [fr(n ** 3, 2), fr(5), fr(2 * n - 1, 3)][n % 3] for n in range(-5, 13)}, 3, 3))
@example(({n: fr(n * n if n % 2 == 0 else 1) for n in range(-6, 8)}, 4, 6))
@example(({n: fr(0) for n in range(-2, 3)}, 100000, 1))
@example(({}, 2, 2))
@example(({0: fr(1)}, 6, 6))
@example(({n: fr(1) for n in range(5)}, -1, 6))
@example(({n: fr(1) for n in range(5)}, 6, -1))
@given(_detect_case())
@settings(deadline=None, max_examples=300)
def test_detect_matches_interpolation_reference(case):
    samples, max_period, max_degree = case
    assert _outcome(detect_quasipoly, samples, max_period, max_degree) == \
        _outcome(_reference_detect, samples, max_period, max_degree)


def test_detect_huge_limits_are_bounded_by_the_samples():
    # five samples allow period <= 2 and, at period 1, degree <= 3
    cubic = {n: fr(n ** 3 - n, 2) for n in range(-2, 3)}
    fit = detect_quasipoly(cubic, max_period=10 ** 9, max_degree=10 ** 9)
    assert (fit.period, fit.degrees[0]) == (1, 3)
    quartic = {n: fr(n ** 4) for n in range(-2, 3)}
    assert detect_quasipoly(quartic, 10 ** 9, 10 ** 9) is None


def test_detect_work_budget(set_budget):
    # zeros but for the last sample: every period differences that
    # sample's class up to the degree cap
    samples = {n: fr(n == 39) for n in range(40)}
    assert detect_quasipoly(samples, 10 ** 9, 10 ** 9) is None
    set_budget("detection", 500)
    with pytest.raises(InputError, match="work budget exceeded"):
        detect_quasipoly(samples, 10 ** 9, 10 ** 9)
    assert detect_quasipoly({n: fr(n) for n in range(40)}, 4, 6) is not None


@given(_detect_case(), st.integers(1, 12))
@settings(deadline=None, max_examples=200)
def test_detect_reads_int_samples_over_den(case, den):
    """Int samples over den fit as the equal Fraction samples do."""
    samples, max_period, max_degree = case
    nums, lcm = _over_lcm(samples.values())
    ints = {k: n * den for k, n in zip(samples, nums)}
    assert _outcome(lambda *a: detect_quasipoly(*a, den=lcm * den), ints,
                    max_period, max_degree) == _outcome(detect_quasipoly, samples,
                                                        max_period, max_degree)
    fractions = {k: v * den for k, v in samples.items()}  # read over den
    assert _outcome(lambda *a: detect_quasipoly(*a, den), fractions,
                    max_period, max_degree) == _outcome(detect_quasipoly, samples,
                                                        max_period, max_degree)


# -- each class checked before it is differenced, against every pass ----------

@st.composite
def _detect_budget_case(draw):
    """A period 1-4, degree 0-7 quasi-polynomial sampled at up to 80 points,
    kept, with a run of zeros, zero but for its last samples, or with one
    sample moved; as Fractions or as ints over a denominator; search limits
    up to 10**9 and a detection limit from 5 to 1,000."""
    start, count = draw(st.integers(-10, 10)), draw(st.integers(1, 24) | st.integers(1, 80))
    period, degree = draw(st.integers(1, 4)), draw(st.integers(0, 7))
    rows = [draw(st.lists(_qp_coeff, min_size=1, max_size=degree + 1))
            for _ in range(period)]
    values = [sum(c * n ** k for k, c in enumerate(rows[n % period]))
              for n in range(start, start + count)]
    shape = draw(st.sampled_from(["kept", "zeros", "end", "moved"]))
    if shape == "zeros":
        i = draw(st.integers(0, count))
        j = draw(st.integers(i, count))
        values[i:j] = [0] * (j - i)
    elif shape == "end":
        tail = draw(st.lists(_qp_coeff.filter(bool), min_size=1, max_size=min(3, count)))
        values = [0] * (count - len(tail)) + tail
    elif shape == "moved":
        values[draw(st.integers(0, count - 1))] += draw(_qp_coeff.filter(bool))
    den = draw(st.sampled_from([None, 1, 6]))
    if den is not None:  # int samples over den
        nums, lcm = _over_lcm(values)
        values, den = [n * den for n in nums], lcm * den
    limits = st.integers(1, 7) | st.integers(-1, 10) | st.integers(10, 10 ** 9)
    samples = dict(zip(range(start, start + count), values))
    return samples, draw(limits), draw(limits), den or 1, draw(st.integers(5, 1000))


@given(_detect_budget_case())
@settings(deadline=None, max_examples=600,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_detect_matches_the_full_differencing(set_budget, case):
    """The same fit, None or error as differencing every visited class through
    the cap: a skipped class is charged the passes the full search made."""
    samples, max_period, max_degree, den, limit = case
    set_budget("detection", limit)

    def outcome(search):
        try:
            return search(samples, max_period, max_degree, den)
        except InputError as err:
            return "error", err.message

    assert outcome(detect_quasipoly) == outcome(parent.detect_quasipoly_full)


def test_detect_int_samples_build_the_fraction_fit():
    # n/3 + 1/2 on even n and 5/6 on odd n, over 6
    ints = {n: 2 * n + 3 if n % 2 == 0 else 5 for n in range(-4, 9)}
    fit = detect_quasipoly(ints, den=6)
    assert fit == detect_quasipoly({n: fr(v, 6) for n, v in ints.items()})
    assert fit == QuasiPolynomial(1, 2, {(0,): _poly(1, {(0,): fr(1, 2), (1,): fr(1, 3)}),
                                         (1,): _poly(1, {(0,): fr(5, 6)})})
    assert type(fit.table[(0,)].coeff((1,))) is Fraction


@pytest.mark.parametrize("den", [0, -1, -6])
def test_detect_refuses_a_denominator_below_one(den):
    with pytest.raises(InputError, match="sample denominator must be a positive integer"):
        detect_quasipoly({n: n for n in range(6)}, den=den)


def test_resum_work_budget(set_budget):
    # one table term n^30: a box of 31 points, each evaluated by the one
    # multiply-add of its Horner row and differenced 31 times
    a = QuasiPolynomial(1, 1, {(0,): _poly(1, {(30,): 1})})
    chain = ChainPattern(1, frozenset())
    set_budget("resummation", 31 * 32)
    assert resum_orthant(a, [(1,)], G1) == resum_chain(a, chain, [(1,)], G1)
    set_budget("resummation", 31 * 32 - 1)
    with pytest.raises(InputError, match="work budget exceeded: resummation"):
        resum_orthant(a, [(1,)], G1)
    with pytest.raises(InputError, match="work budget exceeded: resummation"):
        resum_chain(a, chain, [(1,)], G1)
    # x^2 y + x^2 + y^3: a box of 3 * 4 points, each evaluated by 5 Horner
    # rows (x^2 and x^0; y and 1 under x^2, y^3 under x^0) and differenced
    # 3 + 4 times
    b = QuasiPolynomial(2, 1, {(0, 0): _poly(2, {(2, 1): 1, (2, 0): 1, (0, 3): 1})})
    set_budget("resummation", 12 * 12)
    resum_orthant(b, [(1,), (2,)], G1)
    set_budget("resummation", 12 * 12 - 1)
    with pytest.raises(InputError, match="work budget exceeded: resummation"):
        resum_orthant(b, [(1,), (2,)], G1)


def _geom_expansions(bound_each=8):
    up = LinearFunctional((fr(1),))
    down = LinearFunctional((fr(-1),))
    f = RationalFunction(_poly(1, {(0,): 1}), _poly(1, {(0,): 1, (1,): -1}))
    s_plus = expand(f, Window(up, fr(bound_each)))
    s_minus = expand(f, Window(down, fr(bound_each)))
    return f, s_minus, s_plus


def test_reexpand_geometric_constant_fit():
    f, s_minus, s_plus = _geom_expansions()
    verdict = reexpand_check(f, s_minus, s_plus, (1,))
    assert wire(verdict) == parent.reexpand_check_wire(f, s_minus, s_plus, (1,))
    assert verdict["confirmed"] and verdict["all_fit"]
    assert len(verdict["cosets"]) == 1
    coset = verdict["cosets"][0]
    assert (coset["k_lo"], coset["k_hi"]) == (-8, 8)
    fit = coset["fit"]
    assert fit.period == 1 and fit.degrees[0] == 0
    assert qp_value(fit, (17,)) == 1


def test_reexpand_coset_longer_than_detection_budget(monkeypatch, set_budget):
    # 17 samples on the one coset: period 1, degree 0 differences 16 entries
    f, s_minus, s_plus = _geom_expansions()
    set_budget("detection", 16)
    assert reexpand_check(f, s_minus, s_plus, (1,))["confirmed"]
    set_budget("detection", 15)

    def never(*args):
        raise AssertionError("the coset is sampled and handed to detection")

    monkeypatch.setattr(quasipoly, "detect_quasipoly", never)
    with pytest.raises(InputError, match="work budget exceeded: detection took 15"):
        reexpand_check(f, s_minus, s_plus, (1,))


def test_reexpand_cosets_share_one_detection_budget(monkeypatch, set_budget):
    # (1 + y)/(1 - x) along x: the cosets of y^0 and y^1 take 16 and 14
    # differenced entries, each within a limit of 29 but not together
    f = RationalFunction(_poly(2, {(0, 0): 1, (0, 1): 1}),
                         _poly(2, {(0, 0): 1, (1, 0): -1}))
    s_plus = expand(f, Window(LinearFunctional((fr(1), fr(1))), fr(8)))
    s_minus = expand(f, Window(LinearFunctional((fr(-1), fr(1))), fr(8)))
    set_budget("detection", 30)
    verdict = reexpand_check(f, s_minus, s_plus, (1, 0))
    assert wire(verdict) == parent.reexpand_check_wire(f, s_minus, s_plus, (1, 0))
    assert verdict["confirmed"]
    assert [(c["representative"], c["k_hi"] - c["k_lo"]) for c in verdict["cosets"]] \
        == [([0, 0], 16), ([0, 1], 14)]
    set_budget("detection", 29)

    def never(*args):
        raise AssertionError("a coset is sampled and handed to detection")

    monkeypatch.setattr(quasipoly, "detect_quasipoly", never)
    with pytest.raises(InputError, match="work budget exceeded: detection took 29"):
        reexpand_check(f, s_minus, s_plus, (1, 0))


def test_reexpand_rejects_wrong_direction():
    f, s_minus, s_plus = _geom_expansions()
    with pytest.raises(InputError, match="L_minus"):
        reexpand_check(f, s_minus, s_plus, (-1,))


def test_reexpand_requires_verified_minus_side():
    f, s_minus, s_plus = _geom_expansions()
    broken = dict(s_minus.terms())
    broken[(-2,)] = fr(5)
    s_bad = LaurentSeries(broken, s_minus.window)
    with pytest.raises(InputError, match="s_minus is not an expansion"):
        reexpand_check(f, s_bad, s_plus, (1,))


def test_reexpand_detects_candidate_corruption():
    f, s_minus, s_plus = _geom_expansions()
    broken = dict(s_plus.terms())
    broken[(3,)] = fr(9)
    s_bad = LaurentSeries(broken, s_plus.window)
    verdict = reexpand_check(f, s_minus, s_bad, (1,))
    assert wire(verdict) == parent.reexpand_check_wire(f, s_minus, s_bad, (1,))
    assert not verdict["all_fit"]
    assert not verdict["confirmed"]


def test_reexpand_two_variable_layer():
    """Both one-sided expansions of 3 x^4 y^4/(1+x)^2 differ by a period-2
    linear quasi-polynomial along the x direction."""
    up = LinearFunctional((fr(1), fr(1)))
    down = LinearFunctional((fr(-1), fr(1)))
    f = RationalFunction(
        _poly(2, {(4, 4): 3}),
        _poly(2, {(0, 0): 1, (1, 0): 2, (2, 0): 1}))
    s_plus = expand(f, Window(up, fr(16)))
    s_minus = expand(f, Window(down, fr(12)))
    for m in range(-8, 3):
        assert s_minus.coeff((m, 4)) == _alt(m + 1) * (3 * m - 9)
    verdict = reexpand_check(f, s_minus, s_plus, (1, 0),
                             max_period=4, max_degree=3)
    assert wire(verdict) == parent.reexpand_check_wire(f, s_minus, s_plus, (1, 0), 4, 3)
    assert verdict["confirmed"]
    assert [c["representative"] for c in verdict["cosets"]] == [[0, 4]]
    fit = verdict["cosets"][0]["fit"]
    assert fit.period == 2 and fit.degrees[0] == 1
    for m in range(-8, 13):
        assert qp_value(fit, (m,)) == _alt(m) * (3 * m - 9)


# -- the per-k probing re-expansion check, as a reference --------------------

def _reference_reexpand(f, s_minus, s_plus, c0, max_period, max_degree):
    """reexpand_check as it was before it read each coset's differences off
    the stored terms: every k of every coset is looked up in both series."""
    c0 = tuple(c0)
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
    reps = sorted({z_c0.representative(e) for e, _ in s_minus.terms()}
                  | {z_c0.representative(e) for e, _ in s_plus.terms()})
    ranges = [(rep, math.ceil((s_minus.bound - L_minus(rep)) / down),
               math.floor((s_plus.bound - L_plus(rep)) / up)) for rep in reps]
    charge("detection", sum(max(k_hi - k_lo, 0) for _, k_lo, k_hi in ranges))
    cosets = []
    for rep, k_lo, k_hi in ranges:
        samples = {}
        for k in range(k_lo, k_hi + 1):
            e = tuple(x + k * y for x, y in zip(rep, c0))
            samples[k] = s_plus.coeff(e) - s_minus.coeff(e)
        fit = detect_quasipoly(samples, max_period, max_degree) if len(samples) > 1 else None
        cosets.append({"representative": list(rep), "k_lo": k_lo, "k_hi": k_hi,
                       "fit": None if fit is None else qp_to_obj(fit)})
    all_fit = all(coset["fit"] is not None for coset in cosets)
    return {"c0": list(c0), "cosets": cosets, "all_fit": all_fit,
            "confirmed": all_fit and verify_expansion(s_plus, f)}


@st.composite
def _reexpand_case(draw):
    """g / (1 - x^v) in one or two variables, its L_minus expansion and a
    perturbed L_plus one, along a c0 with negative and zero entries; the
    window bounds cut through both supports."""
    n = draw(st.integers(1, 2))
    exps = st.tuples(*[st.integers(-3, 3)] * n)
    c0 = draw(exps.filter(any))
    coeffs = st.fractions(min_value=-2, max_value=2, max_denominator=3)

    def oriented(sign):  # L moved along c0 until sign * L(c0) > 0
        L = draw(st.tuples(*[coeffs] * n))
        target = sign * draw(st.fractions(min_value=fr(1, 3), max_value=2,
                                          max_denominator=3))
        t = (target - sum(a * x for a, x in zip(L, c0))) / sum(x * x for x in c0)
        return LinearFunctional(tuple(a + t * x for a, x in zip(L, c0)))

    L_minus, L_plus = oriented(-1), oriented(1)
    zero = (0,) * n
    v = draw(st.sampled_from([zero, c0, tuple(2 * x for x in c0)]) | exps)
    h = {zero: 1}
    if L_minus(v) != 0 and L_plus(v) != 0:
        h[v] = -1
    g = draw(st.dictionaries(exps, _qp_coeff.filter(bool), min_size=1, max_size=4))
    f = RationalFunction(LaurentPolynomial(g, n), LaurentPolynomial(h, n))
    noise = st.dictionaries(exps, _qp_coeff, max_size=3)

    def expansion(L, perturb):
        window = Window(L, draw(st.fractions(min_value=0, max_value=8,
                                             max_denominator=2)))
        try:
            terms = dict(expand(f, window).terms())
        except InputError:  # the window holds no term
            terms = {}
        return LaurentSeries({**terms, **(draw(noise) if perturb else {})}, window)

    s_minus = expansion(L_minus, draw(st.integers(0, 3)) == 0)
    s_plus = expansion(L_plus, True)
    return f, s_minus, s_plus, c0, draw(st.integers(1, 4)), draw(st.integers(0, 6))


@given(_reexpand_case())
@settings(deadline=None, max_examples=300)
def test_reexpand_matches_the_probing_reference(case):
    def outcome(check):
        try:
            return check(*case)
        except InputError as err:
            return "error", err.message
    assert outcome(lambda *args: wire(reexpand_check(*args))) == outcome(
        _reference_reexpand) == outcome(parent.reexpand_check_wire)


# -- the reader of Fraction terms, as a reference -----------------------------

@st.composite
def _reexpand_rational_case(draw):
    """g / h in three variables with h one of 1 - t, 1 + t, (1 - t)^2 and
    10 - 3t for t = x^v, v a multiple of c0: the differences along c0 are
    quasi-polynomials but for 10 - 3t.  c0 = (0, p, q) has a negative entry
    and its pivot at column 1.  g's coefficients are over 3 or 10 and its
    terms lie on several cosets of Z c0, so the windows, which cut through
    the supports, leave the two series over different denominators; s_plus
    may carry noise over 10."""
    c0 = draw(st.tuples(st.just(0), st.integers(-3, 3).filter(bool), st.integers(-3, 3))
              .filter(lambda c: min(c) < 0))
    coeffs = st.fractions(min_value=-2, max_value=2, max_denominator=3)

    def oriented(sign):  # L moved along c0 until sign * L(c0) > 0
        L = draw(st.tuples(*[coeffs] * 3))
        target = sign * draw(st.fractions(min_value=fr(1, 3), max_value=2,
                                          max_denominator=3))
        t = (target - sum(a * x for a, x in zip(L, c0))) / sum(x * x for x in c0)
        return LinearFunctional(tuple(a + t * x for a, x in zip(L, c0)))

    L_minus, L_plus = oriented(-1), oriented(1)
    t = LaurentPolynomial.monomial(tuple(draw(st.sampled_from([1, -1, 2])) * x for x in c0))
    one = LaurentPolynomial.constant(3, 1)
    h = draw(st.sampled_from([one - t, one + t, power(one - t, 2), one.scale(10) - t.scale(3)]))
    exps = st.tuples(*[st.integers(-3, 3)] * 3)
    g = draw(st.dictionaries(exps, st.sampled_from([fr(1, 3), fr(-2, 3), fr(1, 10),
                                                    fr(-3, 10), fr(2)]),
                             min_size=2, max_size=4))
    f = RationalFunction(LaurentPolynomial(g, 3), h)
    noise = st.dictionaries(exps, st.fractions(min_value=-2, max_value=2,
                                               max_denominator=10), max_size=2)

    def expansion(L, perturb):
        window = Window(L, draw(st.fractions(min_value=0, max_value=5,
                                             max_denominator=2)))
        try:
            terms = dict(expand(f, window).terms())
        except InputError:  # the window holds no term
            terms = {}
        return LaurentSeries({**terms, **(draw(noise) if perturb else {})}, window)

    s_minus = expansion(L_minus, False)
    s_plus = expansion(L_plus, draw(st.integers(0, 3)) == 0)
    return f, s_minus, s_plus, c0, draw(st.integers(1, 4)), draw(st.integers(0, 6))


def _reexpand_outcome(check, case):
    try:
        return check(*case)
    except InputError as err:
        return "error", err.message


def _rational_case():
    """g / (1 - x^c0) with c0 = (0, 1, -2), L_plus = (1, 1, 0) and L_minus =
    -L_plus, both at bound 2: g's term 1/3 at (3, 0, 0) reaches only s_minus
    and -3/10 at (-3, 0, 0) only s_plus, so they are over 3 and 10; the term
    2 at (0, 0, 1) reaches both."""
    c0 = (0, 1, -2)
    g = LaurentPolynomial({(3, 0, 0): fr(1, 3), (-3, 0, 0): fr(-3, 10), (0, 0, 1): 2}, 3)
    f = RationalFunction(g, LaurentPolynomial({(0, 0, 0): 1, c0: -1}, 3))
    s_minus = expand(f, Window(LinearFunctional((-1, -1, 0)), 2))
    s_plus = expand(f, Window(LinearFunctional((1, 1, 0)), 2))
    return f, s_minus, s_plus, c0, 4, 6


@example(_rational_case())
@given(_reexpand_rational_case())
@settings(deadline=None, max_examples=300)
def test_reexpand_matches_the_fraction_reader(case):
    assert _reexpand_outcome(lambda *args: wire(reexpand_check(*args)), case) == \
        _reexpand_outcome(parent.reexpand_check, case) == \
        _reexpand_outcome(parent.reexpand_check_wire, case)


def test_reexpand_fraction_reader_case_reaches_several_denominators_and_cosets():
    case = _rational_case()
    assert (case[1]._den, case[2]._den) == (3, 10)
    report = wire(reexpand_check(*case))
    assert report == parent.reexpand_check(*case) == parent.reexpand_check_wire(*case)
    assert report["confirmed"] is True
    assert [(c["representative"], c["fit"]["table"][0]["poly"]) for c in report["cosets"]] == [
        ([-3, 0, 0], [{"exponent": [0], "coeff": "-3/10"}]),
        ([0, 0, 1], [{"exponent": [0], "coeff": "2"}]),
        ([3, 0, 0], [{"exponent": [0], "coeff": "1/3"}])]


def test_reexpand_hands_int_samples_to_the_public_detection(monkeypatch):
    # perfbench's tracer wraps quasipoly.detect_quasipoly: each coset's fit goes
    # through that name, with int samples over the lcm 30 of the two series
    calls = []

    def spy(samples, max_period, max_degree, den=1):
        calls.append((samples, den))
        return detect_quasipoly(samples, max_period, max_degree, den)

    monkeypatch.setattr(quasipoly, "detect_quasipoly", spy)
    report = reexpand_check(*_rational_case())
    assert len(calls) == len(report["cosets"]) == 3
    for samples, den in calls:
        assert den == 30 and {type(v) for v in samples.values()} == {int}


def test_reexpand_coset_with_equal_terms_matches_the_reference():
    # 1/(1 - x)^2 plus 5/x: both expansions store 5 at x^-1, so the
    # difference k + 1 is a stored 0 there, not a missing term
    x = LaurentPolynomial.monomial((1,))
    g = LaurentPolynomial.constant(1, 1) + LaurentPolynomial({(-1,): 5}, 1) * power(
        LaurentPolynomial.constant(1, 1) - x, 2)
    f = RationalFunction(g, power(LaurentPolynomial.constant(1, 1) - x, 2))
    s_minus = expand(f, Window(LinearFunctional((-1,)), 5))
    s_plus = expand(f, Window(LinearFunctional((1,)), 4))
    assert s_minus.coeff((-1,)) == s_plus.coeff((-1,)) == 5
    report = wire(reexpand_check(f, s_minus, s_plus, (1,)))
    assert report == _reference_reexpand(f, s_minus, s_plus, (1,), 4, 6)
    assert report == parent.reexpand_check_wire(f, s_minus, s_plus, (1,))
    assert report["confirmed"] is True
    assert [coset["fit"]["table"] for coset in report["cosets"]] == [
        [{"residues": [0], "poly": [{"exponent": [0], "coeff": "1"},
                                     {"exponent": [1], "coeff": "1"}]}]]


def test_reexpand_fit_writes_each_coefficient_in_lowest_terms():
    # (1/2 - x/6)/(1 - x)^2 = (1/3)/(1 - x)^2 + (1/6)/(1 - x): its two
    # expansions differ by (k + 1)/3 + 1/6 = k/3 + 1/2 at x^k
    x = LaurentPolynomial.monomial((1,))
    one = LaurentPolynomial.constant(1, 1)
    f = RationalFunction(one.scale(fr(1, 2)) - x.scale(fr(1, 6)), power(one - x, 2))
    s_minus = expand(f, Window(LinearFunctional((-1,)), 5))
    s_plus = expand(f, Window(LinearFunctional((1,)), 5))
    report = reexpand_check(f, s_minus, s_plus, (1,))
    (coset,) = report["cosets"]
    poly = coset["fit"].table[(0,)]
    assert (poly._terms, poly._den) == ({(0,): 3, (1,): 2}, 6)
    assert qp_to_obj(coset["fit"])["table"] == [{"residues": [0], "poly": [
        {"exponent": [0], "coeff": "1/2"}, {"exponent": [1], "coeff": "1/3"}]}]
    assert report["confirmed"] is True
    assert json.dumps(wire(report)) == json.dumps(parent.reexpand_check(f, s_minus, s_plus, (1,)))
    assert wire(report) == parent.reexpand_check_wire(f, s_minus, s_plus, (1,))


def test_qp_json_roundtrip():
    a = QuasiPolynomial(1, 2, {(0,): _poly(1, {(1,): fr(1, 2)}),
                               (1,): _poly(1, {(0,): -3})})
    obj = qp_to_obj(a)
    back = qp_from_obj(obj, "qp")
    assert back == a
