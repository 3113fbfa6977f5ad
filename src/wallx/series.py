"""Exact Laurent arithmetic graded by a rational linear functional.

Exponents are integer tuples; coefficients are Fractions throughout.  A
window (functional L, bound b, optional coset) marks the region where a
series' coefficients are final: stored terms all satisfy the window
predicate, and anything not stored with L-value at most b is a true zero.
Laurent polynomials, Laurent series and torus elements share one
sparse-term container, ``_Sparse``; validation runs only in their public
constructors and in the wire-format parsers.
"""

from __future__ import annotations

import bisect
import heapq
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping

from . import jsonio
from .errors import BUDGETS, InputError, charge

Exponent = tuple[int, ...]

_ZERO = Fraction(0)


@dataclass(frozen=True)
class LinearFunctional:
    """Rational linear form on integer exponent vectors; ``ints`` over ``den``
    are its coefficients, so L(e) <= b exactly when _dot(ints, e) <= floor(b * den)."""

    coeffs: tuple[Fraction, ...]
    ints: tuple[int, ...] = field(init=False, compare=False, repr=False)
    den: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        coeffs = tuple(map(_coefficient, self.coeffs))
        object.__setattr__(self, "coeffs", coeffs)
        ints, den = _over_lcm(coeffs)
        object.__setattr__(self, "ints", tuple(ints))
        object.__setattr__(self, "den", den)

    def __call__(self, exponent) -> Fraction:
        if len(exponent) != len(self.coeffs):
            raise InputError(
                f"exponent length {len(exponent)} does not match "
                f"functional arity {len(self.coeffs)}")
        return Fraction(_dot(self.ints, exponent), self.den)

    def to_obj(self):
        return [jsonio.format_rational(c) for c in self.coeffs]

    @classmethod
    def from_obj(cls, obj, path: str) -> "LinearFunctional":
        return cls(jsonio.parse_rational_vector(obj, path))


def _echelon(rows) -> tuple[tuple[int, Exponent], ...]:
    """(pivot column, row) pairs of an integer echelon basis of the rows'
    Z-span, pivots rising: Euclid runs down each column, each row keeps its
    own sign, and rows that reduce to zero are dropped."""
    rows = [list(r) for r in rows]
    basis = []
    for col in range(len(rows[0]) if rows else 0):
        rows = [r for r in rows if any(r)]
        while len(live := [r for r in rows if r[col]]) > 1:
            p = min(live, key=lambda r: abs(r[col]))
            for r in live:
                if r is not p:
                    q = r[col] // p[col]
                    r[:] = [x - q * y for x, y in zip(r, p)]
        if live:
            basis.append((col, tuple(live[0])))
            rows = [r for r in rows if r is not live[0]]
    return tuple(basis)


@dataclass(frozen=True)
class Coset:
    """Affine sublattice base + Z-span(generators).  ``echelon`` is their
    integer echelon basis, reduced once and left out of equality, hash and repr."""

    base: Exponent
    generators: tuple[Exponent, ...]
    echelon: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "base", _exponent(self.base))
        object.__setattr__(self, "generators",
                           tuple(map(_exponent, self.generators)))
        for gen in self.generators:
            if len(gen) != len(self.base):
                raise InputError("coset generator length does not match base")
        echelon = _echelon(self.generators)
        if len(echelon) != len(self.generators):
            raise InputError("coset generators must be linearly independent")
        object.__setattr__(self, "echelon", echelon)

    def representative(self, exponent) -> Exponent:
        """exponent + Z-span(generators) reduced at each pivot of ``echelon``, in
        column order: floor(t[col] / row[col]) times the row comes off t, the
        offset from base.  For an exponent of the base's length; it is base
        exactly when the exponent lies on the coset."""
        t = list(map(operator.sub, _exponent(exponent), self.base))
        for col, row in self.echelon:
            if q := t[col] // row[col]:
                t = [x - q * y for x, y in zip(t, row)]
        return tuple(map(operator.add, t, self.base))

    def contains(self, exponent) -> bool:
        return (len(exponent) == len(self.base)
                and self.representative(exponent) == self.base)


@dataclass(frozen=True)
class Window:
    """Region predicate: L(e) <= bound, optionally e in a coset."""

    functional: LinearFunctional
    bound: Fraction
    coset: Coset | None = None

    def __post_init__(self):
        object.__setattr__(self, "bound", _coefficient(self.bound))
        if self.coset is not None and len(self.coset.base) != len(self.functional.coeffs):
            raise InputError("coset length does not match the functional arity")

    def admits(self, exponent) -> bool:
        if self.functional(exponent) > self.bound:
            return False
        if self.coset is not None and not self.coset.contains(exponent):
            return False
        return True


def _exponent(exp) -> Exponent:
    try:  # operator.index refuses 0.7 and 1.0, which int() would accept
        return tuple(map(operator.index, exp))
    except TypeError:
        raise InputError(f"exponents must be integers, got {exp!r}") from None


def _coefficient(value) -> Fraction:
    if isinstance(value, float):  # not read as a binary fraction: no floats
        raise InputError(f"floats are not accepted as coefficients, got {value!r}")
    return Fraction(value)


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


def _dot(weights, e) -> int:
    return sum(map(operator.mul, weights, e))


def _over_lcm(values) -> tuple[list[int], int]:
    """Fractions as int numerators over their least common denominator."""
    ratios = [v.as_integer_ratio() for v in values]
    den = math.lcm(*(d for _, d in ratios))
    return [n * (den // d) for n, d in ratios], den


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


class _Sparse:
    """Finitely supported map from keys to nonzero Fractions over a context
    (a variable count, a window or a lattice); zero values are never stored.

    Only the public constructors and the wire-format parsers validate; every
    internal result is built by the trusted ``_make``."""

    __slots__ = ("_terms", "_context")
    _mismatch: str  # the error when two operands' contexts differ

    @classmethod
    def _make(cls, terms: dict, context):
        """Trusted: keys well formed for the context, nonzero Fraction values."""
        self = object.__new__(cls)
        self._terms = terms
        self._context = context
        return self

    def terms(self):
        return self._terms.items()

    def coeff(self, key) -> Fraction:
        return self._terms.get(key, _ZERO)

    def is_zero(self) -> bool:
        return not self._terms

    def _check_context(self, other):
        if self._context != other._context:
            raise InputError(self._mismatch)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._context == other._context and self._terms == other._terms

    def __neg__(self):
        return self._make({k: -c for k, c in self._terms.items()}, self._context)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._check_context(other)
        return self._make(_accumulate(dict(self._terms), other._terms.items()),
                          self._context)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def scale(self, factor):
        factor = _coefficient(factor)
        return self._make(
            {k: c * factor for k, c in self._terms.items()} if factor else {},
            self._context)


class LaurentPolynomial(_Sparse):
    """Finitely supported Laurent polynomial in ``nvars`` variables."""

    __slots__ = ()
    _mismatch = "polynomial variable counts differ"

    def __init__(self, terms=(), nvars: int | None = None):
        items = terms.items() if isinstance(terms, Mapping) else terms
        pairs = []
        for exp, coeff in items:
            exp = _exponent(exp)
            if nvars is None:
                nvars = len(exp)
            elif len(exp) != nvars:
                raise InputError("mixed exponent lengths")
            pairs.append((exp, _coefficient(coeff)))
        if nvars is None:
            raise InputError("variable count of an empty polynomial must be given")
        self._terms = _accumulate({}, pairs)
        self._context = nvars

    @property
    def nvars(self) -> int:
        return self._context

    @classmethod
    def constant(cls, nvars: int, value) -> "LaurentPolynomial":
        return cls({(0,) * nvars: value}, nvars)

    @classmethod
    def monomial(cls, exponent, coeff=1) -> "LaurentPolynomial":
        exponent = _exponent(exponent)
        return cls({exponent: coeff}, len(exponent))

    items = _Sparse.terms  # the polynomial spelling of terms()

    def __mul__(self, other):
        if type(other) is not LaurentPolynomial:
            return NotImplemented
        self._check_context(other)
        return LaurentPolynomial._make(
            _product(self._terms, other._terms, (0,) * self.nvars, 0), self.nvars)

    def shift(self, exponent) -> "LaurentPolynomial":
        exponent = _exponent(exponent)
        if len(exponent) != self.nvars:
            raise InputError("shift length does not match the variable count")
        return LaurentPolynomial._make(
            {tuple(map(operator.add, e, exponent)): c
             for e, c in self._terms.items()}, self.nvars)

    def __pow__(self, n: int):
        if n < 0:
            raise InputError("negative polynomial power")
        out = LaurentPolynomial.constant(self.nvars, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def degree_in_var(self, i: int) -> int:
        """Largest exponent of variable i, or -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(e[i] for e in self._terms)

    def map_exponents(self, fn: Callable[[Exponent], Exponent],
                      nvars_out: int) -> "LaurentPolynomial":
        """Push exponents through fn, summing collisions."""
        return LaurentPolynomial(
            ((fn(e), c) for e, c in self._terms.items()), nvars_out)

    def __repr__(self):
        inner = ", ".join(f"{e}: {c}" for e, c in sorted(self._terms.items()))
        return f"LaurentPolynomial({{{inner}}})"


class RationalFunction:
    """Quotient g/h with h nonzero; equality is by cross-multiplication."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: LaurentPolynomial, denominator: LaurentPolynomial):
        if denominator.is_zero():
            raise InputError("zero denominator")
        if numerator.nvars != denominator.nvars:
            raise InputError("numerator and denominator variable counts differ")
        self.numerator = numerator
        self.denominator = denominator

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.numerator * other.denominator == other.numerator * self.denominator

    def __mul__(self, other):
        if isinstance(other, RationalFunction):
            return RationalFunction(self.numerator * other.numerator,
                                    self.denominator * other.denominator)
        return NotImplemented

    def __repr__(self):
        return f"RationalFunction({self.numerator!r}, {self.denominator!r})"


class LaurentSeries(_Sparse):
    """Window-truncated series: stored terms are final, and every exponent
    admitted by the window but not stored has coefficient zero."""

    __slots__ = ()
    _mismatch = "series windows differ"

    def __init__(self, terms, window: Window):
        items = terms.items() if isinstance(terms, Mapping) else terms
        pairs = ((_exponent(exp), _coefficient(coeff)) for exp, coeff in items)
        self._terms = _accumulate(
            {}, ((e, c) for e, c in pairs if c and window.admits(e)))
        self._context = window

    @property
    def window(self) -> Window:
        return self._context

    @property
    def bound(self) -> Fraction:
        return self.window.bound

    def items_sorted(self) -> list[tuple[Exponent, Fraction]]:
        ls = self.window.functional.ints  # orders as L does
        return sorted(self._terms.items(), key=lambda item: (_dot(ls, item[0]), item[0]))

    def support_min(self) -> Fraction:
        """Smallest L-value present, or the bound for the empty series."""
        return min(map(self.window.functional, self._terms), default=self.bound)

    def __repr__(self):
        inner = ", ".join(f"{e}: {c}" for e, c in self.items_sorted())
        return f"LaurentSeries({{{inner}}}, bound={self.bound})"


def _same_functional(a: LaurentSeries, b: LaurentSeries):
    if a.window.functional != b.window.functional:
        raise InputError("window functional mismatch")


def _no_coset(*series: LaurentSeries):
    """A product reads its operands off their cosets, where nothing is known."""
    if any(s.window.coset is not None for s in series):
        raise InputError("products of coset-window series are not supported")


def _lead(terms: Mapping[Exponent, Fraction], L: LinearFunctional,
          message: str) -> tuple[Exponent, Fraction]:
    """The unique L-minimal term (m0, c0); raises message when there is no
    term or more than one exponent reaches the least L-value."""
    values = {e: L(e) for e in terms}
    least = min(values.values(), default=None)
    exps = [e for e, v in values.items() if v == least]
    if len(exps) != 1:
        raise InputError(message)
    return exps[0], terms[exps[0]]


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


def expand(f: RationalFunction, window: Window) -> LaurentSeries:
    """Laurent-expand f = g/h with respect to the window's functional L,
    truncated to the window.

    All reported coefficients are final.  The denominator must have a unique
    L-minimal monomial for the expansion direction to be well defined.
    """
    L = window.functional
    m0, c0 = _lead(f.denominator._terms, L, "functional not generic for denominator")
    out = _divide_terms(f.numerator._terms, f.denominator._terms,
                        L, window.bound, m0, c0)
    if not out and not f.numerator.is_zero():
        raise InputError("empty window")
    # quotient terms have L-value at most the bound; a coset still filters
    if window.coset is not None:
        return LaurentSeries(out, window)
    return LaurentSeries._make(out, window)


def multiply(s1: LaurentSeries, s2: LaurentSeries) -> LaurentSeries:
    """Product series; the window shrinks by the operands' L-spreads."""
    _same_functional(s1, s2)
    _no_coset(s1, s2)
    bound = min(s1.bound + s2.support_min(), s2.bound + s1.support_min())
    return _series_product(s1._terms, s2._terms, Window(s1.window.functional, bound))


def divide(s1: LaurentSeries, s2: LaurentSeries) -> LaurentSeries:
    """Series quotient s1/s2 with respect to their windows' functional L.

    s2 needs a unique L-minimal known term; the result window accounts for
    both operands' unknown tails, so every reported coefficient is final.
    """
    _same_functional(s1, s2)
    _no_coset(s1, s2)
    L = s1.window.functional
    m0, c0 = _lead(s2._terms, L, "not invertible with respect to L")
    l_m0 = L(m0)
    bound = min(s1.bound - l_m0, s1.support_min() + s2.bound - 2 * l_m0)
    out = _divide_terms(s1._terms, s2._terms, L, bound, m0, c0)
    return LaurentSeries._make(out, Window(L, bound))


def mul_series_polynomial(s: LaurentSeries, p: LaurentPolynomial) -> LaurentSeries:
    """Multiply a series by a fully known polynomial."""
    _no_coset(s)
    L = s.window.functional
    if p.is_zero():
        return LaurentSeries._make({}, s.window)
    return _series_product(s._terms, p._terms,
                           Window(L, s.bound + min(map(L, p._terms))))


def _series_product(a: Mapping[Exponent, Fraction], b: Mapping[Exponent, Fraction],
                    window: Window) -> LaurentSeries:
    """The terms of a*b with L-value at most the (coset-free) window's bound."""
    L = window.functional
    return LaurentSeries._make(
        _product(a, b, L.ints, math.floor(window.bound * L.den)), window)


def verify_expansion(s: LaurentSeries, f: RationalFunction) -> bool:
    """Check s * h == g on the region where the product is final."""
    product = mul_series_polynomial(s, f.denominator)
    L = s.window.functional
    diff = _accumulate(dict(product._terms),
                       ((e, -c) for e, c in f.numerator.items()
                        if L(e) <= product.bound))
    return not diff


# -- wire format --------------------------------------------------------------

def window_to_obj(w: Window):
    obj = {"functional": w.functional.to_obj(),
           "bound": jsonio.format_rational(w.bound)}
    if w.coset is not None:
        obj["coset"] = {"base": list(w.coset.base),
                        "generators": [list(g) for g in w.coset.generators]}
    return obj


def window_from_obj(obj, path: str) -> Window:
    functional = jsonio.field(obj, "functional", path, LinearFunctional.from_obj)
    bound = jsonio.field(obj, "bound", path, jsonio.parse_rational)
    coset = jsonio.field(obj, "coset", path, _coset_from_obj,
                         len(functional.coeffs), default=None)
    return Window(functional, bound, coset)


def _coset_from_obj(obj, path: str, arity: int) -> Coset:
    base = jsonio.field(obj, "base", path, jsonio.parse_int_vector)
    generators = jsonio.field(obj, "generators", path, jsonio.parse_list,
                              jsonio.parse_int_vector, len(base),
                              message="expected a list of generators")
    coset = Coset(base, generators)
    if len(base) != arity:  # Window's own check, located at the coset
        raise InputError("coset length does not match the functional arity")
    return coset


def terms_to_obj(items):
    return [{"exponent": list(e), "coeff": jsonio.format_rational(c)}
            for e, c in items]


def terms_from_obj(obj, path: str, nvars: int | None = None,
                   functional: LinearFunctional | None = None):
    return jsonio.parse_list(obj, path, _term_from_obj, nvars, functional,
                             message="expected a list of terms")


def _term_from_obj(obj, path: str, nvars: int | None,
                   functional: LinearFunctional | None):
    exponent = jsonio.field(obj, "exponent", path, jsonio.parse_int_vector, nvars)
    coeff = jsonio.field(obj, "coeff", path, jsonio.parse_rational)
    if functional is not None:  # a series term must fit its window's arity
        functional(exponent)
    return exponent, coeff


def series_to_obj(s: LaurentSeries):
    return {"window": window_to_obj(s.window),
            "terms": terms_to_obj(s.items_sorted())}


def series_from_obj(obj, path: str, nvars: int | None = None) -> LaurentSeries:
    window = jsonio.field(obj, "window", path, window_from_obj)
    terms = jsonio.field(obj, "terms", path, terms_from_obj, nvars, window.functional)
    return LaurentSeries(terms, window)


def polynomial_to_obj(p: LaurentPolynomial):
    return terms_to_obj(sorted(p.items()))


def polynomial_from_obj(obj, path: str, nvars: int | None = None) -> LaurentPolynomial:
    terms = terms_from_obj(obj, path, nvars)
    if not terms and nvars is None:
        raise InputError("cannot infer variable count of an empty polynomial", path)
    return LaurentPolynomial(terms, nvars)


def rational_function_to_obj(f: RationalFunction):
    return {"numerator": polynomial_to_obj(f.numerator),
            "denominator": polynomial_to_obj(f.denominator)}


def rational_function_from_obj(obj, path: str, nvars: int | None = None) -> RationalFunction:
    num = jsonio.field(obj, "numerator", path, polynomial_from_obj, nvars)
    den = jsonio.field(obj, "denominator", path, polynomial_from_obj, num.nvars)
    return RationalFunction(num, den)
