"""Exact Laurent arithmetic graded by a rational linear functional.

Exponents are integer tuples; coefficients are exact rationals.  A
window (functional L, bound b, optional coset) marks the region where a
series' coefficients are final: stored terms all satisfy the window
predicate, and anything not stored with L-value at most b is a true zero.
Laurent polynomials, Laurent series and torus elements share one container,
``_Sparse``: int numerators over one denominator, which every kernel works on;
a value becomes a Fraction when read.  Only public constructors and parsers validate.
"""

from __future__ import annotations

import bisect
import collections
import heapq
import math
import operator
from collections.abc import Mapping
from fractions import Fraction

from . import jsonio
from .errors import BUDGETS, InputError, charge

Exponent = tuple[int, ...]

class LinearFunctional(collections.namedtuple("LinearFunctional", "coeffs")):
    """Rational linear form on integer exponent vectors; ``ints`` over ``den``
    are its coefficients, so L(e) <= b exactly when _dot(ints, e) <= floor(b * den).
    Both are set once here and left out of equality, hash and repr."""

    def __new__(cls, coeffs: tuple[Fraction, ...]):
        self = tuple.__new__(cls, (tuple(map(_coefficient, coeffs)),))
        ints, self.den = _over_lcm(self.coeffs)
        self.ints = tuple(ints)
        return self

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


class Coset(collections.namedtuple("Coset", "base generators")):
    """Affine sublattice base + Z-span(generators).  ``echelon`` is their
    integer echelon basis, reduced once and left out of equality, hash and repr."""

    def __new__(cls, base: Exponent, generators: tuple[Exponent, ...]):
        self = tuple.__new__(cls, (_exponent(base), tuple(map(_exponent, generators))))
        for gen in self.generators:
            if len(gen) != len(self.base):
                raise InputError("coset generator length does not match base")
        self.echelon = _echelon(self.generators)
        if len(self.echelon) != len(self.generators):
            raise InputError("coset generators must be linearly independent")
        return self

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


class Window(collections.namedtuple("Window", "functional bound coset")):
    """Region predicate: L(e) <= bound, optionally e in a coset."""

    __slots__ = ()

    def __new__(cls, functional: LinearFunctional, bound: Fraction, coset: Coset | None = None):
        bound = _coefficient(bound)
        if coset is not None and len(coset.base) != len(functional.coeffs):
            raise InputError("coset length does not match the functional arity")
        return tuple.__new__(cls, (functional, bound, coset))

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
    return value if type(value) is Fraction else Fraction(value)  # immutable: no copy


def _accumulate(out: dict, pairs) -> dict:
    """Add (key, coeff) pairs into out; the keys whose sum is zero are dropped."""
    for key, coeff in pairs:
        acc = out.get(key)
        out[key] = coeff if acc is None else acc + coeff
    return {key: c for key, c in out.items() if c}


def _dot(weights, e) -> int:
    return sum(map(operator.mul, weights, e))


def _over_lcm(values) -> tuple[list[int], int]:
    """Fractions as int numerators over their least common denominator."""
    ratios = [v.as_integer_ratio() for v in values]
    den = math.lcm(*(d for _, d in ratios))
    return [n * (den // d) for n, d in ratios], den


def _product(a: Mapping[Exponent, int], b: Mapping[Exponent, int],
             ls, top: int) -> dict:
    """The terms of a*b, for int numerators a and b, whose exponents e have
    _dot(ls, e) <= top (every term for ls = 0 and top = 0).  Each term of a
    meets only the prefix of b, sorted once by L, that keeps within top."""
    by_l = sorted(zip([_dot(ls, e) for e in b], b, b.values()))
    b_ls = [l for l, _, _ in by_l]
    out: dict[Exponent, int] = {}
    for ea, ca in a.items():
        for _, eb, cb in by_l[:bisect.bisect_right(b_ls, top - _dot(ls, ea))]:
            e = tuple(map(operator.add, ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: n for e, n in out.items() if n}


class _Sparse(Mapping):
    """Finitely supported map from keys to nonzero rationals over a context
    (a variable count, a window or a lattice), held as nonzero int numerators
    ``_terms`` over one positive denominator ``_den`` with no factor common to
    all, so equal maps have equal dicts.  Reading a value builds its Fraction;
    ``terms()`` is a lazy sized view, whose len() builds none.

    Only the public constructors and the wire-format parsers validate; every
    internal result is built by the trusted ``_make``."""

    __slots__ = ("_terms", "_den", "_context")
    _mismatch: str  # the error when two operands' contexts differ

    @classmethod
    def _make(cls, terms: dict, context, den: int = 1):
        """Trusted: keys well formed for the context, nonzero int values over
        the positive den, which sheds any factor it shares with all of them."""
        if den != 1 and (g := math.gcd(den, *terms.values())) != 1:
            terms = {k: n // g for k, n in terms.items()}
            den //= g
        self = object.__new__(cls)
        self._terms = terms
        self._den = den
        self._context = context
        return self

    def _store(self, fractions: dict, context):
        """The public constructors' one conversion: Fractions over their lcm."""
        nums, self._den = _over_lcm(fractions.values())
        self._terms = dict(zip(fractions, nums))
        self._context = context

    def __getitem__(self, key) -> Fraction:
        return Fraction(self._terms[key], self._den)

    def __iter__(self):
        return iter(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    terms = Mapping.items

    def coeff(self, key) -> Fraction:
        return Fraction(self._terms.get(key, 0), self._den)

    def is_zero(self) -> bool:
        return not self._terms

    def _check_context(self, other):
        if self._context != other._context:
            raise InputError(self._mismatch)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self._context == other._context and self._den == other._den
                and self._terms == other._terms)

    def __neg__(self):
        return self.scale(-1)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._check_context(other)
        dx, dy = self._den, other._den
        return self._make(_accumulate({k: c * dy for k, c in self._terms.items()},
                                      ((k, c * dx) for k, c in other._terms.items())),
                          self._context, dx * dy)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def scale(self, factor):
        p, q = _coefficient(factor).as_integer_ratio()
        return self._make({k: c * p for k, c in self._terms.items()} if p else {},
                          self._context, self._den * q)


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
        self._store(_accumulate({}, pairs), nvars)

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

    def __mul__(self, other):
        if type(other) is not LaurentPolynomial:
            return NotImplemented
        self._check_context(other)
        return LaurentPolynomial._make(
            _product(self._terms, other._terms, (0,) * self.nvars, 0), self.nvars,
            self._den * other._den)

    def shift(self, exponent) -> "LaurentPolynomial":
        exponent = _exponent(exponent)
        if len(exponent) != self.nvars:
            raise InputError("shift length does not match the variable count")
        return LaurentPolynomial._make(
            {tuple(map(operator.add, e, exponent)): c
             for e, c in self._terms.items()}, self.nvars, self._den)

    def __repr__(self):
        inner = ", ".join(f"{e}: {c}" for e, c in sorted(self.items()))
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
        self._store(_accumulate(
            {}, ((e, c) for e, c in pairs if c and window.admits(e))), window)

    @property
    def window(self) -> Window:
        return self._context

    @property
    def bound(self) -> Fraction:
        return self.window.bound

    def keys_sorted(self) -> list[Exponent]:
        ls = self.window.functional.ints  # orders as L does
        return sorted(self, key=lambda e: (_dot(ls, e), e))

    def support_min(self) -> Fraction:
        """Smallest L-value present, or the bound for the empty series."""
        return min(map(self.window.functional, self._terms), default=self.bound)

    def __repr__(self):
        inner = ", ".join(f"{e}: {self[e]}" for e in self.keys_sorted())
        return f"LaurentSeries({{{inner}}}, bound={self.bound})"


def _no_coset(*series: LaurentSeries):
    """A product reads its operands off their cosets, where nothing is known."""
    if any(s.window.coset is not None for s in series):
        raise InputError("products of coset-window series are not supported")


def _lead(keys, L: LinearFunctional, message: str) -> Exponent:
    """The unique L-minimal exponent m0; raises message when there is no
    term or more than one exponent reaches the least L-value."""
    values = {e: L(e) for e in keys}
    least = min(values.values(), default=None)
    exps = [e for e, v in values.items() if v == least]
    if len(exps) != 1:
        raise InputError(message)
    return exps[0]


def _divide_terms(num: _Sparse, den: _Sparse, L: LinearFunctional,
                  bound: Fraction, m0: Exponent) -> tuple[dict, int]:
    """Long division of num by den in increasing (L, lex) order.

    den's unique L-minimal exponent m0, numerator c0, must be supplied.  Emits
    quotient terms with L-value at most bound, as int numerators over one
    denominator; terms are processed in a monotone order so each quotient
    exponent is written exactly once.  It runs over ints (L's ``ints`` against
    floor(bound * L.den), the remainder from num's numerators, keyed by
    quotient exponents) with steps (he - m0, hc/c0), which stay Fractions only
    where c0 does not divide hc; each quotient term is r dd/(c0 nd), nd and dd
    the operands' denominators, with the r over their lcm only when some step
    is not an integer.  Every step raises L (m0 is the unique minimum), so the
    steps are sorted by L-value and none that would land past the bound is taken."""
    ls, top = L.ints, math.floor(bound * L.den)
    c0 = den._terms[m0]

    def shifted(terms):
        return ((tuple(map(operator.sub, e, m0)), c) for e, c in terms.items())

    r = {e: n for e, n in shifted(num._terms) if _dot(ls, e) <= top}
    steps = sorted((_dot(ls, d), d, c // c0 if c % c0 == 0 else Fraction(c, c0))
                   for d, c in shifted(den._terms) if any(d))
    heap = [(_dot(ls, e), e) for e in r]
    heapq.heapify(heap)
    limit = BUDGETS["division"].limit
    out: dict = {}
    for _ in range(limit):
        if not heap:
            break
        l_e, e = heapq.heappop(heap)
        c = r.pop(e, 0)
        if not c:
            continue
        out[e] = c
        room = top - l_e
        for l_d, d, k in steps:
            if l_d > room:
                break
            ne = tuple(map(operator.add, e, d))
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


def expand(f: RationalFunction, window: Window) -> LaurentSeries:
    """Laurent-expand f = g/h with respect to the window's functional L,
    truncated to the window.

    All reported coefficients are final.  The denominator must have a unique
    L-minimal monomial for the expansion direction to be well defined.
    """
    L = window.functional
    m0 = _lead(f.denominator, L, "functional not generic for denominator")
    out, den = _divide_terms(f.numerator, f.denominator, L, window.bound, m0)
    if not out and not f.numerator.is_zero():
        raise InputError("empty window")
    # quotient terms have L-value at most the bound; a coset still filters
    if window.coset is not None:
        out = {e: n for e, n in out.items() if window.coset.contains(e)}
    return LaurentSeries._make(out, window, den)


def multiply(s1: LaurentSeries, s2: LaurentSeries) -> LaurentSeries:
    """Product series; the window shrinks by the operands' L-spreads."""
    if s1.window.functional != s2.window.functional:
        raise InputError("window functional mismatch")
    _no_coset(s1, s2)
    bound = min(s1.bound + s2.support_min(), s2.bound + s1.support_min())
    return _series_product(s1, s2, Window(s1.window.functional, bound))


def divide(f1: RationalFunction, f2: RationalFunction, window: Window) -> LaurentSeries:
    """The quotient f1/f2 = (g1 h2)/(h1 g2) expanded in the window: one long
    division by a polynomial, never a series by a series."""
    return expand(RationalFunction(f1.numerator * f2.denominator,
                                   f1.denominator * f2.numerator), window)


def mul_series_polynomial(s: LaurentSeries, p: LaurentPolynomial) -> LaurentSeries:
    """Multiply a series by a fully known polynomial."""
    _no_coset(s)
    L = s.window.functional
    return _series_product(s, p, Window(L, s.bound + min(map(L, p), default=0)))


def _series_product(a: _Sparse, b: _Sparse, window: Window) -> LaurentSeries:
    """The terms of a*b with L-value at most the (coset-free) window's bound."""
    L = window.functional
    return LaurentSeries._make(
        _product(a._terms, b._terms, L.ints, math.floor(window.bound * L.den)),
        window, a._den * b._den)


def verify_expansion(s: LaurentSeries, f: RationalFunction) -> bool:
    """Check s * h == g on the region where the product is final."""
    product = mul_series_polynomial(s, f.denominator)
    L, g = s.window.functional, f.numerator
    top = math.floor(product.bound * L.den)
    return product == LaurentSeries._make(
        {e: n for e, n in g._terms.items() if _dot(L.ints, e) <= top}, product.window, g._den)


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


def terms_to_obj(x: _Sparse, keys):
    """x's terms at keys, each coefficient written from its stored numerator."""
    return [{"exponent": list(e), "coeff": jsonio.format_ratio(x._terms[e], x._den)}
            for e in keys]


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
            "terms": terms_to_obj(s, s.keys_sorted())}


def series_from_obj(obj, path: str, nvars: int | None = None) -> LaurentSeries:
    window = jsonio.field(obj, "window", path, window_from_obj)
    terms = jsonio.field(obj, "terms", path, terms_from_obj, nvars, window.functional)
    return LaurentSeries(terms, window)


def polynomial_to_obj(p: LaurentPolynomial):
    return terms_to_obj(p, sorted(p))


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
