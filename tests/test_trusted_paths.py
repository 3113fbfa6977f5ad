"""Internal results skip the public constructors' checks; these tests
confirm that every such result is still well formed.

After each operation the stored values must be nonzero int numerators
over a positive int denominator that shares no factor with all of them
(read back as nonzero Fractions), keys must have the right type and shape,
series terms must lie in their window, and the object must equal its own
rebuild through the public constructor (which coerces, merges and filters).
"""

import math
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wallx.errors import InputError
from wallx.lattice import KClass
from wallx.poisson import (
    TorusElement,
    Truncation,
    bracket,
    exp_ad,
    naive_product,
    star_product,
)
from wallx.series import (
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
)

from conftest import fr, model_lattice, power

_coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def _check_form(x):
    assert type(x._den) is int and x._den > 0
    assert all(type(n) is int and n != 0 for n in x._terms.values())
    assert math.gcd(x._den, *x._terms.values()) == 1  # so the empty map is over 1
    for _, c in x.terms():
        assert type(c) is Fraction and c != 0


def _check_poly(p: LaurentPolynomial):
    _check_form(p)
    for e, _ in p.items():
        assert type(e) is tuple and len(e) == p.nvars
        assert all(type(x) is int for x in e)
    assert p == LaurentPolynomial(dict(p.items()), p.nvars)


def _check_series(s: LaurentSeries):
    _check_form(s)
    for e, _ in s.terms():
        assert type(e) is tuple and all(type(x) is int for x in e)
        assert s.window.admits(e)
    assert s == LaurentSeries(dict(s.terms()), s.window)


def _check_element(x: TorusElement):
    spec = x.context
    _check_form(x)
    for cls, _ in x.terms():
        assert type(cls) is KClass and type(cls.r) is int
        assert len(cls.beta) == spec.rank1 and len(cls.c) == spec.rank0
        assert all(type(v) is int for v in cls.beta + cls.c)
    assert x == TorusElement(spec, dict(x.terms()))


# -- polynomials --------------------------------------------------------------

_exp2 = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
_poly2 = st.dictionaries(_exp2, _coeffs, max_size=5).map(
    lambda d: LaurentPolynomial(d, 2))


@given(_poly2, _poly2, _coeffs, _exp2, st.integers(0, 3))
@settings(deadline=None, max_examples=60)
def test_polynomial_operations_stay_well_formed(a, b, factor, shift, n):
    results = [a + b, a - b, a - a, -a, a * b, power(a, n), a.scale(factor),
               a.scale(0), a.shift(shift)]
    for p in results:
        _check_poly(p)


# -- series -------------------------------------------------------------------

# generic for exponents below 5 in absolute value, positive on the orthant
_L = LinearFunctional((fr(1), fr(7, 5)))
_small_exp = st.tuples(st.integers(0, 3), st.integers(0, 3))
_numerator = st.dictionaries(_small_exp, _coeffs, min_size=1, max_size=4).map(
    lambda d: LaurentPolynomial(d, 2))
_denominator = st.dictionaries(
    _small_exp.filter(lambda e: e != (0, 0)), _coeffs, max_size=3).map(
    lambda d: LaurentPolynomial({**d, (0, 0): Fraction(1)}, 2))
_rational = st.builds(RationalFunction, _numerator, _denominator)
_bound = st.integers(2, 6)


def _expand(f, bound, coset=None):
    return expand(f, Window(_L, bound, coset))


@given(_rational, _rational, _numerator, _bound, _bound)
@settings(deadline=None, max_examples=60)
def test_series_operations_stay_well_formed(f, g, p, b1, b2):
    assume(not f.numerator.is_zero() and not g.numerator.is_zero())
    try:
        s1, s2 = _expand(f, b1), _expand(g, b2)
    except InputError:  # every term beyond the window
        assume(False)
    diagonal = Coset((0, 0), ((1, 1),))

    def cut(window, *series):  # a sum needs one window
        return [LaurentSeries(dict(s.terms()), window) for s in series]

    t1, t2 = cut(Window(_L, min(b1, b2)), s1, s2)
    results = [s1, s2, t1 + t2, t1 - t2, s1 - s1, s1.scale(0), -s1,
               multiply(s1, s2), mul_series_polynomial(s1, p)]
    # f/g in s1's window: its lowest term is at or below f's, which s1 holds
    results.append(divide(f, g, s1.window))
    try:
        c1, c2 = _expand(f, b1, diagonal), _expand(g, b2, diagonal)
        d1, d2, d3 = cut(Window(_L, min(b1, b2), diagonal), c1, c2, s2)
        results += [c1, c2, d1 + d2, d1 + d3]
    except InputError:  # the coset window keeps no term
        pass
    for s in results:
        _check_series(s)


# a leading denominator coefficient other than 1, so that the long division
# also runs with non-integral step coefficients
_scaled_denominator = st.tuples(_denominator, _coeffs.filter(bool)).map(
    lambda t: t[0].scale(t[1]))


@given(_numerator, _scaled_denominator, _bound, _bound)
@settings(deadline=None, max_examples=60)
def test_division_results_hold_fractions(num, den, b1, b2):
    try:
        s = _expand(RationalFunction(num, den), b1)
    except InputError:  # every term beyond the window
        assume(False)
    # num / den over den: the divisor den * den leads with the square of den's
    # scale; the window is the one dividing s by den's series would give
    one = LaurentPolynomial.constant(2, 1)
    results = [s, divide(RationalFunction(num, den), RationalFunction(den, one),
                         Window(_L, min(b1, s.support_min() + b2)))]
    for q in results:
        _check_series(q)


# -- torus elements -----------------------------------------------------------

_SPEC = model_lattice()
# the second floors a negative degree cap and keeps only rank -1
_TRUNCS = [Truncation((3,), fr(8)), Truncation((3,), fr(-1, 2), frozenset({-1}))]
_classes = st.builds(KClass, st.integers(-1, 1), st.tuples(st.integers(-2, 2)),
                     st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
_element = st.dictionaries(_classes, _coeffs, max_size=4).map(
    lambda d: TorusElement(_SPEC, d))
_wall = st.dictionaries(
    st.builds(KClass, st.just(0), st.tuples(st.integers(1, 2)),
              st.tuples(st.integers(-2, 2), st.integers(-2, 2))),
    _coeffs, max_size=2).map(lambda d: TorusElement(_SPEC, d))


@given(_element, _element, _wall, _coeffs)
@settings(deadline=None, max_examples=60)
def test_torus_operations_stay_well_formed(x, y, w, factor):
    results = [x + y, x - y, x - x, -x, x.scale(factor), x.scale(0)]
    for op in (bracket, star_product, naive_product):
        results.append(op(x, y))
    for trunc in _TRUNCS:
        results += [exp_ad(w, x, trunc), exp_ad(w.scale(-1), x, trunc)]
        results += [op(x, y, trunc) for op in (bracket, star_product, naive_product)]
    for z in results:
        _check_element(z)
