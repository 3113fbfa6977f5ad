import heapq
import json
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wallx import series
from wallx.errors import InputError
from wallx.lattice import KClass
from wallx.poisson import TorusElement
from wallx.series import (
    _coefficient,
    _divide_terms,
    _over_lcm,
    _product,
    _series_product,
    Coset,
    LaurentPolynomial,
    LaurentSeries,
    LinearFunctional,
    RationalFunction,
    Window,
    divide,
    expand,
    mul_series_polynomial,
    multiply,
    polynomial_to_obj,
    series_from_obj,
    series_to_obj,
    verify_expansion,
)
from wallx.wallcross import SeedSeries, dtpt_ratio

from conftest import fr, model_lattice, power
import parent_kernels as parent
from parent_kernels import _accumulate as _parent_accumulate
from parent_kernels import _divide_terms as _parent_divide_terms, _packed_divide_terms
from parent_kernels import _product as _parent_product
from parent_kernels import polynomial_to_obj as _parent_polynomial_to_obj
from parent_kernels import series_to_obj as _parent_series_to_obj


def _poly1(coeffs):
    """Univariate polynomial from {power: coeff}."""
    return LaurentPolynomial({(k,): Fraction(v) for k, v in coeffs.items()}, 1)


def _geom():
    # 1 / (1 - q)
    return RationalFunction(_poly1({0: 1}), _poly1({0: 1, 1: -1}))


L_UP = LinearFunctional((fr(1),))
L_DOWN = LinearFunctional((fr(-1),))


def test_geometric_series_two_expansions():
    """1/(1-q) expands one way per grading direction, with frozen coefficients."""
    s_up = expand(_geom(), Window(L_UP, fr(5)))
    assert {e[0]: c for e, c in s_up.terms()} == {n: 1 for n in range(6)}

    s_down = expand(_geom(), Window(L_DOWN, fr(6)))
    assert {e[0]: c for e, c in s_down.terms()} == {-n: -1 for n in range(1, 7)}


def test_point_layer_inverse_square_coefficients():
    # (1+q)^-2 -> (-1)^m (m+1)
    f = RationalFunction(_poly1({0: 1}), _poly1({0: 1, 1: 2, 2: 1}))
    s = expand(f, Window(L_UP, fr(10)))
    for m in range(11):
        assert s.coeff((m,)) == (-1) ** m * (m + 1)


def test_shifted_layer_coefficients():
    # 3 q^4/(1+q)^2 -> 0 below 4, then (-1)^m (3m-9)
    f = RationalFunction(_poly1({4: 3}), _poly1({0: 1, 1: 2, 2: 1}))
    s = expand(f, Window(L_UP, fr(12)))
    for m in range(4):
        assert s.coeff((m,)) == 0
    for m in range(4, 13):
        assert s.coeff((m,)) == (-1) ** m * (3 * m - 9)


def test_expand_requires_generic_functional():
    f = RationalFunction(
        LaurentPolynomial({(0, 0): fr(1)}, 2),
        LaurentPolynomial({(1, 0): fr(1), (0, 1): fr(1)}, 2))
    L = LinearFunctional((fr(1), fr(1)))
    with pytest.raises(InputError, match="functional not generic for denominator"):
        expand(f, Window(L, fr(4)))


def test_expand_empty_window():
    f = RationalFunction(_poly1({5: 1}), _poly1({0: 1, 1: -1}))
    with pytest.raises(InputError, match="empty window"):
        expand(f, Window(L_UP, fr(2)))


def test_zero_numerator_expands_to_zero():
    f = RationalFunction(LaurentPolynomial({}, 1), _poly1({0: 1, 1: -1}))
    s = expand(f, Window(L_UP, fr(3)))
    assert s.is_zero()


def test_verify_expansion_accepts_truth_and_rejects_perturbation():
    f = _geom()
    s = expand(f, Window(L_UP, fr(8)))
    assert verify_expansion(s, f)

    bad_terms = dict(s.terms())
    bad_terms[(3,)] = fr(2)
    bad = LaurentSeries(bad_terms, s.window)
    assert not verify_expansion(bad, f)


def test_verify_expansion_checks_only_final_region():
    """Dropping a term beyond the window is not a verification failure."""
    f = _geom()
    s = expand(f, Window(L_UP, fr(8)))
    trimmed = LaurentSeries({e: c for e, c in s.terms() if e[0] <= 4},
                            Window(L_UP, fr(4)))
    assert verify_expansion(trimmed, f)


def test_series_multiplication_window_shrinks_by_spread():
    f = _geom()
    s = expand(f, Window(L_UP, fr(6)))
    t = expand(RationalFunction(_poly1({2: 1}), _poly1({0: 1, 1: -1})),
               Window(L_UP, fr(9)))
    prod = multiply(s, t)
    # t's support starts at 2, s's at 0: final through min(6+2, 9+0) = 8
    assert prod.bound == 8
    for m in range(2, 9):
        assert prod.coeff((m,)) == m - 1


def test_series_division_recovers_quotient():
    f_num = RationalFunction(_poly1({0: 3, 1: 1}), _poly1({0: 1, 1: -1, 3: 2}))
    g = RationalFunction(_poly1({0: 1, 2: 5}), _poly1({0: 1, 1: 1}))
    L = L_UP
    b = fr(14)
    quot = divide(f_num * g, g, Window(L, b))
    direct = expand(f_num, Window(L, quot.bound))
    assert quot == direct
    # the reference divides the two expansions, to the bound its tails allow
    s_fg = expand(f_num * g, Window(L, b))
    s_g = expand(g, Window(L, b))
    quot = parent.divide(s_fg, s_g)
    direct = expand(f_num, Window(L, quot.bound))
    assert quot == direct


def test_series_division_requires_unique_minimum():
    L = LinearFunctional((fr(1), fr(1)))
    w = Window(L, fr(5))
    s1 = LaurentSeries({(0, 0): fr(1)}, w)
    s2 = LaurentSeries({(1, 0): fr(1), (0, 1): fr(1)}, w)
    with pytest.raises(InputError, match="not invertible with respect to L"):
        parent.divide(s1, s2)
    # the quotient's denominator carries the tie as its own
    f1 = RationalFunction(LaurentPolynomial(dict(s1.items()), 2),
                          LaurentPolynomial.constant(2, 1))
    f2 = RationalFunction(LaurentPolynomial(dict(s2.items()), 2),
                          LaurentPolynomial.constant(2, 1))
    with pytest.raises(InputError, match="not invertible with respect to L"):
        dtpt_ratio(f1, f2, w)
    with pytest.raises(InputError, match="functional not generic for denominator"):
        divide(f1, f2, w)


def test_series_division_requires_same_functional():
    s1 = LaurentSeries({(0,): fr(1)}, Window(L_UP, fr(3)))
    s2 = LaurentSeries({(0,): fr(1)}, Window(L_DOWN, fr(3)))
    with pytest.raises(InputError, match="window functional mismatch"):
        parent.divide(s1, s2)


def test_divide_window_accounts_for_unknown_tails():
    """Quotient coefficients inside the reported window are final.

    Perturbing either operand beyond its own bound must not change the
    quotient inside the quotient's window.
    """
    L = L_UP
    f = RationalFunction(_poly1({0: 1, 1: 4}), _poly1({0: 1, 1: -2}))
    g = RationalFunction(_poly1({0: 1, 1: 1}), _poly1({0: 1, 2: -3}))
    b1, b2 = fr(9), fr(7)
    s1 = expand(f, Window(L, b1))
    s2 = expand(g, Window(L, b2))
    base = parent.divide(s1, s2)

    s1_tail = LaurentSeries(dict(s1.terms()) | {(30,): fr(11)}, Window(L, fr(40)))
    s2_tail = LaurentSeries(dict(s2.terms()) | {(30,): fr(-7)}, Window(L, fr(40)))
    for alt1, alt2 in [(s1_tail, s2), (s1, s2_tail), (s1_tail, s2_tail)]:
        alt = parent.divide(LaurentSeries(dict(alt1.terms()), Window(L, b1)),
                            LaurentSeries(dict(alt2.terms()), Window(L, b2)))
        for e, c in base.terms():
            assert alt.coeff(e) == c


def test_random_divide_multiply_roundtrip():
    rng = random.Random(411)
    L = L_UP
    for _ in range(25):
        num = _poly1({k: rng.randint(-4, 4) for k in range(3)})
        den_terms = {0: 1}
        for k in range(1, 4):
            den_terms[k] = rng.randint(-3, 3)
        den = _poly1(den_terms)
        if num.is_zero():
            continue
        f = RationalFunction(num, den)
        s = expand(f, Window(L, fr(12)))
        one_f = RationalFunction(_poly1({0: 1}), _poly1({0: 1}))
        one = expand(one_f, Window(L, fr(12)))
        back = parent.divide(multiply(s, one), s)
        for e, c in back.terms():
            assert c == (1 if e == (0,) else 0)
        assert dict(divide(f * one_f, f, back.window).terms()) == {(0,): 1}


def test_series_addition_requires_same_functional():
    a = LaurentSeries({(0,): fr(1)}, Window(L_UP, fr(3)))
    b = LaurentSeries({(0,): fr(1)}, Window(L_DOWN, fr(3)))
    # a sum or difference of series needs one window, bound included
    for other in (b, LaurentSeries({(0,): fr(1)}, Window(L_UP, fr(2)))):
        for op in (lambda: a + other, lambda: a - other):
            with pytest.raises(InputError, match="series windows differ"):
                op()


def test_series_constructor_truncates_and_strips():
    w = Window(L_UP, fr(2))
    s = LaurentSeries({(0,): fr(1), (5,): fr(9), (1,): fr(0)}, w)
    assert dict(s.terms()) == {(0,): 1}
    # like torus elements, neither series nor polynomials are hashable
    for unhashable in (s, LaurentPolynomial({(0,): 1}, 1)):
        with pytest.raises(TypeError):
            hash(unhashable)


def test_coset_membership():
    c = Coset((1, 0), ((2, 2),))
    assert c.contains((3, 2))
    assert c.contains((-1, -2))
    assert not c.contains((2, 2))
    assert not c.contains((1, 1))


def test_coset_rejects_dependent_generators():
    with pytest.raises(InputError, match="linearly independent"):
        Coset((0, 0), ((1, 1), (2, 2)))


def test_coset_echelon_is_left_out_of_equality_hash_and_repr():
    c = Coset((1, 0), ((2, 2), (0, 3)))
    assert c.echelon == ((0, (2, 2)), (1, (0, 3)))
    assert repr(c) == "Coset(base=(1, 0), generators=((2, 2), (0, 3)))"
    same = Coset((1, 0), ((2, 2), (0, 3)))
    assert c == same and hash(c) == hash(same)
    assert c != Coset((1, 0), ((0, 3), (2, 2)))  # the generators as given


# -- the Fraction Gauss-Jordan and the one-generator rep_of, as references ----

def _reference_solve(columns, target):
    """Solve sum_j x_j * columns[j] = target for rational x, or return None;
    raises for linearly dependent columns."""
    rows = len(target)
    ncols = len(columns)
    aug = [[Fraction(columns[j][i]) for j in range(ncols)] + [Fraction(target[i])]
           for i in range(rows)]
    pivot_cols = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, rows) if aug[i][col]), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        scale = aug[r][col]
        aug[r] = [v / scale for v in aug[r]]
        for i in range(rows):
            if i != r and aug[i][col]:
                factor = aug[i][col]
                aug[i] = [a - factor * b for a, b in zip(aug[i], aug[r])]
        pivot_cols.append(col)
        r += 1
    if len(pivot_cols) != ncols:
        raise InputError("coset generators must be linearly independent")
    for i in range(r, rows):
        if aug[i][ncols]:
            return None
    sol = [Fraction(0)] * ncols
    for row, col in enumerate(pivot_cols):
        sol[col] = aug[row][ncols]
    return sol


def _reference_contains(base, generators, exponent):
    if len(exponent) != len(base):
        return False
    if not generators:
        return tuple(exponent) == base
    sol = _reference_solve(generators, [e - b for e, b in zip(exponent, base)])
    return sol is not None and all(x.denominator == 1 for x in sol)


def _reference_rep_of(c0, e):
    pivot = next(j for j, x in enumerate(c0) if x)
    steps = e[pivot] // c0[pivot]
    return tuple(x - steps * y for x, y in zip(e, c0))


@st.composite
def _coset_case(draw):
    """k <= n + 1 generators with entries in [-4, 4], dependent, zero and
    repeated ones included, and exponents of the base's length or not."""
    n = draw(st.integers(1, 3))
    vec = st.tuples(*[st.integers(-4, 4)] * n)
    gens = draw(st.lists(vec, max_size=n + 1))
    if gens and draw(st.booleans()):  # an integer combination of the others
        ks = draw(st.lists(st.integers(-2, 2), min_size=len(gens), max_size=len(gens)))
        gens.append(tuple(sum(k * g[i] for k, g in zip(ks, gens)) for i in range(n)))
    points = draw(st.lists(st.one_of(vec, st.tuples(*[st.integers(-6, 6)] * n),
                                     st.lists(st.integers(-2, 2), max_size=4).map(tuple)),
                           min_size=1, max_size=6))
    return draw(vec), tuple(gens), points


@given(_coset_case())
@settings(deadline=None, max_examples=400)
@example(((0, 0), ((1, 1), (2, 2)), [(3, 3)]))
@example(((0,), ((0,),), [(1,)]))
@example(((1, 0), ((2, 2), (0, 3), (1, 1)), [(0, 0)]))
@example(((0, 0), ((-2, 3), (4, -1)), [(5, -7), (2, 2), (0,)]))
def test_coset_matches_the_fraction_reference(case):
    base, gens, points = case
    try:
        _reference_solve(gens, [0] * len(base))
    except InputError as err:
        with pytest.raises(InputError, match=err.message):
            Coset(base, gens)
        return
    coset = Coset(base, gens)
    for e in points:
        assert coset.contains(e) == _reference_contains(base, gens, e)
        if len(e) != len(base):
            continue
        rep = coset.representative(e)
        # rep is on e's class, is fixed by the reduction and names the class
        assert _reference_contains(rep, gens, e)
        assert coset.representative(rep) == rep
        moved = tuple(x + sum(gen[i] for gen in gens) * 3 for i, x in enumerate(e))
        assert coset.representative(moved) == rep
        assert (rep == base) == coset.contains(e)


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.tuples(*[st.integers(-5, 5)] * n).filter(any),
    st.tuples(*[st.integers(-30, 30)] * n))))
@settings(deadline=None, max_examples=400)
@example(((-3, 2), (7, 1)))
@example(((0, -2, 5), (-5, -5, 0)))
def test_one_generator_representative_is_the_old_rep_of(case):
    c0, e = case
    assert Coset((0,) * len(c0), (c0,)).representative(e) == _reference_rep_of(c0, e)


def test_window_refuses_a_coset_of_another_length():
    L2 = LinearFunctional((fr(1), fr(1)))
    for base in ((0,), (0, 0, 0)):
        with pytest.raises(InputError, match="coset length does not match"):
            Window(L2, fr(4), Coset(base, ()))
    assert Window(L2, fr(4), Coset((0, 0), ((1, 1),))).coset.base == (0, 0)


def test_window_coset_filters_series_terms():
    w = Window(L_UP, fr(6), Coset((0,), ((2,),)))
    s = LaurentSeries({(k,): fr(1) for k in range(7)}, w)
    assert sorted(e[0] for e, _ in s.terms()) == [0, 2, 4, 6]


def test_sum_keeps_coset_window_and_products_reject_it():
    L = LinearFunctional((fr(1), fr(1)))
    f = RationalFunction(LaurentPolynomial.constant(2, 1),
                         LaurentPolynomial({(0, 0): 1, (1, 0): -1}, 2))
    diagonal = Coset((0, 0), ((1, 1),))
    s = expand(f, Window(L, fr(6), diagonal))
    total = s + s
    # (1, 0) is off the coset: its true coefficient 2 must not read as a known zero
    assert not total.window.admits((1, 0))
    assert total.window == Window(L, fr(6), diagonal)
    assert dict(total.terms()) == {(0, 0): 2}
    plain = expand(f, Window(L, fr(4)))
    shifted = expand(f, Window(L, fr(6), Coset((1, 0), ((1, 1),))))
    for other in (plain, shifted):
        with pytest.raises(InputError, match="series windows differ"):
            s + other
    for op in (lambda: multiply(s, plain), lambda: multiply(plain, s),
               lambda: parent.divide(s, plain), lambda: parent.divide(plain, s),
               lambda: dtpt_ratio(f, f, s.window),
               lambda: mul_series_polynomial(s, f.denominator),
               lambda: verify_expansion(s, f)):
        with pytest.raises(InputError, match="coset"):
            op()


def test_series_json_roundtrip_is_canonical():
    f = RationalFunction(_poly1({0: 2, 3: -5}), _poly1({0: 1, 1: 7}))
    s = expand(f, Window(L_UP, fr(6)))
    obj = series_to_obj(s)
    exps = [tuple(t["exponent"]) for t in obj["terms"]]
    assert exps == sorted(exps)
    back = series_from_obj(obj, "series")
    assert back == s


def test_wire_format_reduces_each_stored_value_on_its_own():
    # 1/2 and 1/3 are stored as 3 and 2 over 6, with no factor common to all
    s = LaurentSeries({(0,): fr(1, 2), (1,): fr(1, 3), (2,): 2}, Window(L_UP, fr(6)))
    assert (s._terms, s._den) == ({(0,): 3, (1,): 2, (2,): 12}, 6)
    obj = series_to_obj(s)
    assert [t["coeff"] for t in obj["terms"]] == ["1/2", "1/3", "2"]
    assert json.dumps(obj) == json.dumps(_parent_series_to_obj(s))
    p = LaurentPolynomial({(0, 1): fr(1, 2), (1, 0): fr(-1, 3)}, 2)
    assert (p._terms, p._den) == ({(0, 1): 3, (1, 0): -2}, 6)
    assert polynomial_to_obj(p) == [{"exponent": [0, 1], "coeff": "1/2"},
                                    {"exponent": [1, 0], "coeff": "-1/3"}]


@given(st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                       st.fractions(max_denominator=40) | st.integers(-10**30, 10**30),
                       max_size=8))
def test_wire_format_matches_the_fraction_writer(terms):
    s = LaurentSeries(terms, Window(LinearFunctional((1, fr(1, 2))), fr(4)))
    assert json.dumps(series_to_obj(s)) == json.dumps(_parent_series_to_obj(s))
    p = LaurentPolynomial(terms, 2)
    assert json.dumps(polynomial_to_obj(p)) == json.dumps(_parent_polynomial_to_obj(p))


def test_polynomial_power_and_degree():
    p = power(_poly1({0: 1, 1: -1}), 3)
    assert p.coeff((1,)) == -3 and p.coeff((3,)) == -1


def test_term_counts_and_key_loops_build_no_fraction(monkeypatch):
    # values are read as Fractions built from the stored ints; sizes and keys
    # are not values, so neither a tracer's len(terms()) nor a key loop builds one
    spec = model_lattice()
    poly = LaurentPolynomial({(k,): fr(k + 1, 7) for k in range(5000)}, 1)
    element = TorusElement(spec, {KClass(-1, (0,), (k, 0)): fr(1, 3) for k in range(5000)})
    built = []

    class Counting(Fraction):
        def __new__(cls, *args):
            built.append(args)
            return Fraction(*args)

    monkeypatch.setattr(series, "Fraction", Counting)
    assert len(poly.terms()) == len(poly.items()) == len(poly) == 5000
    assert len(element.terms()) == 5000 and sum(1 for _ in poly) == 5000
    SeedSeries(element)  # checks the rank of each class
    assert not built
    assert poly.coeff((3,)) == fr(4, 7) and len(built) == 1


def test_shift_rejects_wrong_arity():
    p = LaurentPolynomial({(1, 1): 1}, 2)
    assert p.shift((1, -1)) == LaurentPolynomial({(2, 0): 1}, 2)
    for point in [(2,), (2, 3, 4)]:
        with pytest.raises(InputError):
            p.shift(point)


def test_constructors_reject_floats_and_fractional_exponents():
    window = Window(L_UP, fr(3))
    for make in [lambda t: LaurentPolynomial(t, 1),
                 lambda t: LaurentSeries(t, window)]:
        with pytest.raises(InputError, match="float"):
            make({(0,): 0.1})
        for exponent in [(0.7,), (1.0,), (fr(1),)]:
            with pytest.raises(InputError, match="integer"):
                make({exponent: 1})
        assert make({(1,): "2/3", (2,): 3}) == make({(1,): fr(2, 3), (2,): fr(3)})
    with pytest.raises(InputError, match="float"):
        LaurentPolynomial.constant(1, 0.5)
    with pytest.raises(InputError, match="integer"):
        LaurentPolynomial.monomial((1.0,))
    with pytest.raises(InputError, match="integer"):
        _poly1({0: 1}).shift((0.5,))


def test_coefficient_keeps_a_fraction_and_converts_the_rest():
    class Sub(Fraction):
        pass

    x = fr(-3, 7)
    assert _coefficient(x) is x  # immutable, so not copied
    with pytest.raises(InputError, match="float"):
        _coefficient(1.5)
    for value, want in [(2, fr(2)), (True, fr(1)), ("-3/4", fr(-3, 4)),
                        (Sub(5, 2), fr(5, 2))]:
        got = _coefficient(value)
        assert type(got) is Fraction and got == want



_SUM_KEYS = st.sampled_from([(0,), (1,), (0, 1), (2, -1)])
_SUM_VALUES = st.one_of(st.integers(-3, 3), st.fractions(-2, 2, max_denominator=3))


@settings(deadline=None, max_examples=300)
@given(init=st.dictionaries(_SUM_KEYS, _SUM_VALUES.filter(bool)),
       pairs=st.lists(st.tuples(_SUM_KEYS, _SUM_VALUES), max_size=12))
@example(init={}, pairs=[((0,), 1), ((0,), -1), ((0,), fr(1, 2))])  # cancels, then reappears
@example(init={(1,): 2}, pairs=[((1,), -2), ((0,), fr(1, 3)), ((0,), fr(-1, 3)), ((1,), 5)])
@example(init={}, pairs=[((0,), 0), ((1,), fr(0))])
def test_accumulate_matches_the_pop_on_zero_sum(init, pairs):
    # repeated keys and cancellations, over ints and Fractions; key order is not compared
    ours = series._accumulate(dict(init), iter(pairs))
    assert ours == _parent_accumulate(dict(init), iter(pairs))
    assert all(ours.values())

# -- the integer long-division kernel against a plain-Fraction reference -----

def _divided(num, den, L, bound, m0):
    """The kernel's quotient of the Fraction dicts num and den, read as
    Fractions in the order it wrote them; the kernel that keyed its remainder
    by packed ints gives the same numerators in the same order."""
    args = (LaurentPolynomial(num, len(m0)), LaurentPolynomial(den, len(m0)), L, bound, m0)
    out, d = _divide_terms(*args)
    packed, packed_d = _packed_divide_terms(*args)
    assert list(out.items()) == list(packed.items()) and d == packed_d
    assert d > 0 and all(type(n) is int and n for n in out.values())
    return {e: Fraction(n, d) for e, n in out.items()}


def _scaled(terms, factor):
    return {e: c * factor for e, c in terms.items()}


# num over 29 and den over 31, primes that no drawn coefficient shares
_NUM_SCALE, _DEN_SCALE = fr(1, 29), fr(5, 31)


def _reference_divide(num, den, L, bound, m0, c0):
    """Heap long division over Fractions, term by term as _divide_terms
    did before it ran over ints."""
    r = dict(num)
    heap = [(L(e), e) for e in r]
    heapq.heapify(heap)
    l_m0 = L(m0)
    out = {}
    while heap:
        l_e, e = heapq.heappop(heap)
        c = r.pop(e, Fraction(0))
        if not c:
            continue
        if l_e - l_m0 > bound:
            break
        q_exp = tuple(a - b for a, b in zip(e, m0))
        q_c = c / c0
        out[q_exp] = q_c
        for he, hc in den.items():
            if he == m0:
                continue
            ne = tuple(a + b for a, b in zip(q_exp, he))
            acc = r.get(ne, Fraction(0)) - q_c * hc
            if acc:
                if ne not in r:
                    heapq.heappush(heap, (L(ne), ne))
                r[ne] = acc
            else:
                r.pop(ne, None)
    return out


_div_exp = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
_div_coeff = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool)
_div_terms = st.dictionaries(_div_exp, _div_coeff, min_size=1, max_size=4)
_div_L = st.tuples(*[st.sampled_from([fr(1), fr(1, 2), fr(2, 3), fr(3, 2),
                                      fr(-1, 2)])] * 2).map(LinearFunctional)
_div_bound = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def _unique_min(terms, L):
    lows = sorted(terms, key=L)
    assume(len(lows) == 1 or L(lows[0]) < L(lows[1]))
    return lows[0], terms[lows[0]]


@given(st.lists(st.fractions(max_denominator=60), max_size=6))
def test_over_lcm_writes_fractions_over_their_least_common_denominator(values):
    nums, den = _over_lcm(iter(values))
    assert [Fraction(n, den) for n in nums] == values
    assert all(type(n) is int for n in nums)
    # a common denominator; the least exactly when no factor of it divides every numerator
    assert den >= 1 and math.gcd(den, *nums) == 1
    assert _over_lcm([]) == ([], 1)


def _assert_same_terms(got, want):
    assert list(got) == list(want.items())
    assert all(type(c) is Fraction and c for _, c in got)


# non-integral hc/c0 with c0 = -3; a bound below the first term; an L with
# denominators 2 and 3 and negative exponents
@example({(0, 0): fr(1, 2), (1, -1): fr(-2)}, {(0, 0): fr(-3), (1, 0): fr(2),
                                               (0, 1): fr(1, 2)},
         LinearFunctional((fr(1, 2), fr(2, 3))), fr(3))
@example({(2, 2): fr(1)}, {(0, 0): fr(2), (1, 0): fr(1)},
         LinearFunctional((fr(1), fr(1))), fr(1, 2))
@example({(-2, 1): fr(5, 3)}, {(-1, 0): fr(-2, 3), (0, 0): fr(4, 3),
                               (-1, 1): fr(-2)},
         LinearFunctional((fr(3, 2), fr(5, 6))), fr(2))
# (1 + x^2) / (1 + x + x^2): the first pop cancels the remainder at x^2,
# and the second writes it again, so x^2 is on the heap twice
@example({(0, 0): fr(1), (2, 0): fr(1)}, {(0, 0): fr(1), (1, 0): fr(1), (2, 0): fr(1)},
         LinearFunctional((fr(1), fr(1))), fr(3))
@given(_div_terms, _div_terms, _div_L, _div_bound)
@settings(deadline=None, max_examples=200)
def test_integer_division_matches_fraction_reference(num, den, L, bound):
    m0, c0 = _unique_min(den, L)
    want = _reference_divide(num, den, L, bound, m0, c0)
    _assert_same_terms(_parent_divide_terms(num, den, L, bound, m0, c0).items(), want)
    _assert_same_terms(_divided(num, den, L, bound, m0).items(), want)
    # operands whose denominators exceed 1
    num_s, den_s = _scaled(num, _NUM_SCALE), _scaled(den, _DEN_SCALE)
    _assert_same_terms(_divided(num_s, den_s, L, bound, m0).items(),
                       _scaled(want, _NUM_SCALE / _DEN_SCALE))

    f = RationalFunction(LaurentPolynomial(num, 2), LaurentPolynomial(den, 2))
    if want:
        _assert_same_terms(expand(f, Window(L, bound)).terms(), want)
    else:
        with pytest.raises(InputError, match="empty window"):
            expand(f, Window(L, bound))

    s1 = LaurentSeries(num, Window(L, L(max(num, key=L)) + 1))
    s2 = LaurentSeries(den, Window(L, L(m0) + abs(bound)))
    q = parent.divide(s1, s2)
    _assert_same_terms(q.terms(), _reference_divide(
        num, den, L, q.bound, m0, c0))


_BIG = 10**12


@st.composite
def _wide_division(draw):
    """Three variables, each operand a small cluster moved by up to 10**12
    per component (so exponents are wide and m0 can be negative),
    and a bound near the lowest quotient term, so that some steps from a
    popped term stay within it and others land past it."""
    L = LinearFunctional(draw(st.tuples(*[st.sampled_from(
        [fr(1), fr(1, 2), fr(2, 3), fr(-1, 3), fr(3)])] * 3)))
    small = st.dictionaries(st.tuples(*[st.integers(-2, 2)] * 3), _div_coeff,
                            min_size=1, max_size=4)

    def moved(terms):
        shift = draw(st.tuples(*[st.integers(-_BIG, _BIG)] * 3))
        return {tuple(map(sum, zip(e, shift))): c for e, c in terms.items()}

    num, den = moved(draw(small)), moved(draw(small))
    m0, c0 = _unique_min(den, L)
    low = min(map(L, num)) - L(m0)
    bound = low + draw(st.fractions(min_value=-1, max_value=5, max_denominator=3))
    return num, den, L, bound, m0, c0


# num - m0 = (10**12, -2 * 10**12, 0) has L-value 0
@example(({(0, -5 - 2 * _BIG, -_BIG): fr(2), (0, -4 - 2 * _BIG, -_BIG): fr(-1, 2)},
          {(-_BIG, -5, -_BIG): fr(3), (1 - _BIG, -5, -_BIG): fr(1),
           (-_BIG, -4, 1 - _BIG): fr(-2)},
          LinearFunctional((fr(1), fr(1, 2), fr(2, 3))), fr(5, 2),
          (-_BIG, -5, -_BIG), fr(3)))
@given(_wide_division())
@settings(deadline=None, max_examples=150)
def test_integer_division_with_wide_exponents_matches_reference(case):
    num, den, L, bound, m0, c0 = case
    want = _reference_divide(num, den, L, bound, m0, c0)
    _assert_same_terms(_parent_divide_terms(num, den, L, bound, m0, c0).items(), want)
    _assert_same_terms(_divided(num, den, L, bound, m0).items(), want)


class _RecordingHeapq:
    """Stands in for the heapq module and records every push."""

    heapify, heappop = staticmethod(heapq.heapify), staticmethod(heapq.heappop)

    def __init__(self):
        self.pushed = []

    def heappush(self, heap, item):
        self.pushed.append(item)
        heapq.heappush(heap, item)


def test_division_pushes_nothing_past_the_bound(monkeypatch):
    # 1 / (1 - x - y) to L-value 5 under L = (1, 1): s = 1 and m0 = 0, so
    # a pushed entry's first field is its L-value
    shim = _RecordingHeapq()
    monkeypatch.setattr(series, "heapq", shim)
    L = LinearFunctional((fr(1), fr(1)))
    out = _divided({(0, 0): fr(1)}, {(0, 0): fr(1), (1, 0): fr(-1), (0, 1): fr(-1)},
                   L, fr(5), (0, 0))
    assert len(out) == 21 and out[(2, 3)] == 10
    assert len(shim.pushed) == 20  # every exponent of L-value 1..5, once
    assert max(l for l, _ in shim.pushed) == 5


def test_division_budget(set_budget):
    set_budget("division", 50)
    num, den = {(0,): fr(1)}, {(0,): fr(1), (1,): fr(-1)}
    with pytest.raises(InputError, match="work budget exceeded: long division "
                                         "took 50 steps"):
        _divided(num, den, L_UP, fr(1000), (0,))
    args = (LaurentPolynomial(num, 1), LaurentPolynomial(den, 1), L_UP, fr(1000), (0,))
    messages = []
    for kernel in (_divide_terms, _packed_divide_terms):
        with pytest.raises(InputError) as info:
            kernel(*args)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert _divided(num, den, L_UP, fr(40), (0,)) == {(m,): 1 for m in range(41)}


# -- window-bounded products against the all-pairs product --------------------

def _reference_product(a, b, L=None, bound=None):
    """Every pair of terms summed in Fractions, then, when L is given, the
    terms with L-value at most the bound: the polynomial product, and the
    series product before it paired terms only up to the bound."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c and (L is None or L(e) <= bound)}


@given(_div_terms, _div_terms, _div_L, st.fractions(min_value=0, max_value=1))
@settings(deadline=None, max_examples=200)
def test_series_product_matches_all_pairs(a, b, L, cut):
    # cut 0 keeps only the lowest pair, cut 1 every pair; between, the bound
    # falls inside both operands' L-ranges
    lows, highs = [min(map(L, t)) for t in (a, b)], [max(map(L, t)) for t in (a, b)]
    bound = sum(lows) + cut * (sum(highs) - sum(lows))
    want = _reference_product(a, b, L, bound)
    top = math.floor(bound * L.den)
    assert _parent_product(a, b, L.ints, top) == want
    for a, b, want in ((a, b, want),  # and operands whose denominators exceed 1
                       (_scaled(a, _NUM_SCALE), _scaled(b, _DEN_SCALE),
                        _scaled(want, _NUM_SCALE * _DEN_SCALE))):
        pa, pb = LaurentPolynomial(a, 2), LaurentPolynomial(b, 2)
        ints = _product(pa._terms, pb._terms, L.ints, top)
        assert {e: Fraction(n, pa._den * pb._den) for e, n in ints.items()} == want
        got = _series_product(pa, pb, Window(L, bound))
        assert set(got.terms()) == set(want.items())
        assert all(type(c) is Fraction for _, c in got.terms())


_prod_terms = st.dictionaries(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                              st.fractions(min_value=-4, max_value=4, max_denominator=6),
                              max_size=5)


# x^2 - 1 = (x - 1)(x + 1): the x terms cancel
@example({(0, 0): fr(1), (1, 0): fr(1)}, {(0, 0): fr(-1), (1, 0): fr(1)})
@given(_prod_terms, _prod_terms)
@settings(deadline=None, max_examples=200)
def test_polynomial_product_matches_all_pairs(a, b):
    got = LaurentPolynomial(a, 2) * LaurentPolynomial(b, 2)
    assert dict(got.items()) == _reference_product(a, b)
    assert all(type(c) is Fraction and c for _, c in got.items())


@given(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=12),
                min_size=1, max_size=4).flatmap(lambda cs: st.tuples(
                    st.just(cs), st.tuples(*[st.integers(-10**6, 10**6)] * len(cs)))))
def test_functional_matches_the_fraction_sum(case):
    coeffs, e = case
    L = LinearFunctional(coeffs)
    value = L(e)
    assert type(value) is Fraction
    assert value == sum((c * x for c, x in zip(coeffs, e)), Fraction(0))
    # equality, hash, repr and wire form see the coefficients alone
    twin = LinearFunctional(tuple(str(c) for c in coeffs))
    assert twin == L and hash(twin) == hash(L) and twin.to_obj() == L.to_obj()
    assert repr(L) == f"LinearFunctional(coeffs={tuple(map(Fraction, coeffs))!r})"


def test_products_and_quotients_with_an_empty_operand_keep_their_windows():
    # an empty operand contributes its bound where a least L-value would go
    L = LinearFunctional((fr(1), fr(1, 2)))
    empty3, empty4 = (LaurentSeries({}, Window(L, fr(b))) for b in (3, 4))
    s = LaurentSeries({(-2, 0): fr(1), (1, 2): fr(5, 2)}, Window(L, fr(4)))
    assert multiply(empty3, s).window == Window(L, fr(1))  # 3 + (-2)
    assert multiply(s, empty3).window == Window(L, fr(1))
    assert multiply(empty3, empty4).window == Window(L, fr(7))
    assert multiply(empty3, s).is_zero()
    q = parent.divide(empty3, s)  # min(3 - (-2), 3 + 4 - 2 * (-2))
    assert q.window == Window(L, fr(5)) and q.is_zero()
    with pytest.raises(InputError, match="not invertible"):
        parent.divide(s, empty3)


# -- the window invariant against a wider direct expansion --------------------

# generic on exponents in [-2, 2]^n, so every nonzero polynomial drawn below
# has a unique L-minimal term
_inv_L = st.sampled_from([(fr(1),), (fr(-1),), (fr(2, 3),), (fr(1), fr(7, 5)),
                          (fr(-1), fr(7, 5)), (fr(1, 2), fr(-5, 7))])
_INV_COSETS = {1: Coset((1,), ((2,),)), 2: Coset((0, 1), ((1, 1), (0, 2)))}


@st.composite
def _invariant_case(draw):
    L = LinearFunctional(draw(_inv_L))
    n = len(L.coeffs)
    terms = st.dictionaries(st.tuples(*[st.integers(-2, 2)] * n), _div_coeff,
                            min_size=1, max_size=4)
    g1, h1, g2, h2 = (LaurentPolynomial(draw(terms), n) for _ in range(4))
    return (L, RationalFunction(g1, h1), RationalFunction(g2, h2),
            draw(st.integers(0, 3)), draw(st.integers(0, 3)))


def _low(f, L):
    """The L-value of f's leading term: lowest of g minus lowest of h."""
    return (min(L(e) for e, _ in f.numerator.items())
            - min(L(e) for e, _ in f.denominator.items()))


def _expand_past_low(f, L, extra, coset=None):
    return expand(f, Window(L, _low(f, L) + extra, coset))


def _assert_window_invariant(s, f):
    """Every stored term of s lies in its window with the coefficient of a
    direct expansion of f two past s's bound, and every exponent of a box
    around both supports that s's window admits but s does not store is
    zero there."""
    L = s.window.functional
    if f.numerator.is_zero():
        wide = LaurentSeries({}, Window(L, s.bound))
    else:
        wide = expand(f, Window(L, max(s.bound, _low(f, L)) + 2))
    for e, c in s.terms():
        assert s.window.admits(e) and wide.coeff(e) == c
    support = [e for e, _ in s.terms()] + [e for e, _ in wide.terms()]
    support.append((0,) * len(L.coeffs))
    box = itertools.product(*(range(min(col) - 2, max(col) + 3)
                              for col in zip(*support)))
    for e in box:
        if s.window.admits(e) and not s.coeff(e):
            assert wide.coeff(e) == 0, e


@given(_invariant_case())
@settings(deadline=None, max_examples=80)
def test_operations_keep_the_window_invariant(case):
    L, f1, f2, k1, k2 = case
    g1, h1, g2, h2 = f1.numerator, f1.denominator, f2.numerator, f2.denominator
    s1, s2 = _expand_past_low(f1, L, k1), _expand_past_low(f2, L, k2)
    c1 = _expand_past_low(f1, L, k1, _INV_COSETS[len(L.coeffs)])
    f_sum = RationalFunction(g1 * h2 + g2 * h1, h1 * h2)
    # a sum needs one window: both operands cut to the smaller one
    low = Window(L, min(s1.bound, s2.bound))
    on_coset = Window(L, min(c1.bound, s2.bound), c1.window.coset)
    r1, r2 = (LaurentSeries(dict(s.terms()), low) for s in (s1, s2))
    d1, d2 = (LaurentSeries(dict(s.terms()), on_coset) for s in (c1, s2))
    quotient = parent.divide(s1, s2)
    cases = [(s1, f1), (s2, f2), (r1 + r2, f_sum), (multiply(s1, s2), f1 * f2),
             (quotient, RationalFunction(g1 * h2, h1 * g2)),
             (divide(f1, f2, quotient.window), RationalFunction(g1 * h2, h1 * g2)),
             (c1, f1), (d1 + d2, f_sum), (d2 + d1, f_sum)]
    for s, f in cases:
        _assert_window_invariant(s, f)
