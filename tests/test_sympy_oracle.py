"""Expansions and orthant sums of one variable against sympy, an oracle that
shares no code with wallx.  Skipped where sympy is not installed."""

import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wallx.quasipoly import QuasiPolynomial, resum_orthant
from wallx.series import LaurentPolynomial, LinearFunctional, RationalFunction, Window, expand

sp = pytest.importorskip("sympy")

X, K = sp.symbols("x k")


def _to_sympy(poly):
    return sum((sp.Rational(c.numerator, c.denominator) * X ** e[0]
                for e, c in poly.items()), sp.Integer(0))


def _sympy_coeffs(g, h, top):
    """sympy's coefficients of x^j, j <= top, in g/h expanded at x = 0."""
    a, b = (min(e for (e,), _ in p.items()) for p in (g, h))
    G, H = _to_sympy(g) / X ** a, _to_sympy(h) / X ** b  # H(0) != 0
    ser = sp.series(sp.cancel(G / H), X, 0, top - (a - b) + 1).removeO()
    return {j: Fraction(str(ser.coeff(X, j - (a - b)))) for j in range(a - b, top + 1)}


_poly = st.dictionaries(st.integers(-2, 3), st.integers(-3, 3).filter(bool),
                        min_size=1, max_size=4).map(
    lambda terms: LaurentPolynomial({(e,): c for e, c in terms.items()}, 1))


@given(_poly, _poly, st.sampled_from([1, -1]), st.integers(0, 5))
@settings(deadline=None, max_examples=25)
def test_expand_matches_sympy_series(g, h, sign, extra):
    # under L = (-1,) the expansion runs in powers of 1/x: x -> 1/x turns it
    # into an expansion at 0, whose x^j is the expansion's x^(-j)
    L = LinearFunctional((Fraction(sign),))
    low_g, low_h = (min(L(e) for e, _ in p.items()) for p in (g, h))
    top = int(low_g - low_h) + extra
    s = expand(RationalFunction(g, h), Window(L, top))
    g, h = (LaurentPolynomial((((sign * e[0],), c) for e, c in p.items()), 1) for p in (g, h))
    want = _sympy_coeffs(g, h, top)
    assert {j: s.coeff((sign * j,)) for j in want} == want


@functools.cache
def _power_sum(j, period):
    """sympy's closed form of sum over k >= 0 of k^j x^(period k), |x| < 1."""
    total = sp.summation(K ** j * X ** (period * K), (K, 0, sp.oo))
    return total.args[0][0] if isinstance(total, sp.Piecewise) else total


@given(st.integers(1, 3), st.integers(0, 2), st.data())
@settings(deadline=None, max_examples=20)
def test_resum_orthant_matches_sympy_summation(period, degree, data):
    # a(n) = P_rho(n) on n = rho mod period; summed class by class over
    # n = period * k + rho, one power of k at a time
    rows = {rho: LaurentPolynomial({(d,): data.draw(st.integers(-3, 3))
                                    for d in range(degree + 1)}, 1)
            for rho in range(period)}
    a = QuasiPolynomial(1, period, {(rho,): p for rho, p in rows.items()})
    f = resum_orthant(a, [(1,)], LinearFunctional((Fraction(1),)))
    want = 0
    for rho, p in rows.items():
        in_k = sp.Poly(_to_sympy(p).subs(X, period * K + rho), K)
        want += X ** rho * sum(c * _power_sum(j, period) for (j,), c in in_k.terms())
    got = _to_sympy(f.numerator) / _to_sympy(f.denominator)
    assert sp.cancel(got - want) == 0
