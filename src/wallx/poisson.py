"""Truncated Poisson torus over a lattice.

Elements are finite rational combinations of monomials t^alpha indexed by
lattice classes.  The bracket of two monomials is
sigma^chi * chi * t^(alpha1+alpha2) with chi the Euler pairing; the star
product keeps only the sign, and the naive product drops both.  A
truncation limits which monomials survive: ranks in a fixed set, curve
parts effective and bounded by a cap, and optionally a degree window on
the point part.  The kernels work on the int numerators of ``_Sparse``: a
product sums them over its operands' denominators multiplied, and exp_ad's
rounds are elements over 1, summed once at the end.
"""

from __future__ import annotations

import collections
import math
import operator
from collections.abc import Mapping
from fractions import Fraction

from . import jsonio
from .errors import InputError, charge
from .lattice import KClass, LatticeSpec, kclass_from_obj, kclass_to_obj
from .series import _Sparse, _accumulate, _coefficient, _exponent


class Truncation(collections.namedtuple("Truncation", "beta_cap deg_cap rank_set")):
    """Which torus monomials survive: rank in rank_set, curve part effective
    with beta_cap minus it effective, and point degree at most deg_cap."""

    __slots__ = ()

    def __new__(cls, beta_cap: tuple[int, ...], deg_cap: Fraction | None = None,
                rank_set: frozenset[int] = frozenset({0, -1})):
        return tuple.__new__(cls, (_exponent(beta_cap),
                                   None if deg_cap is None else _coefficient(deg_cap),
                                   frozenset(_exponent(rank_set))))


class TorusElement(_Sparse):
    """Finite linear combination of torus monomials over a fixed lattice."""

    __slots__ = ()
    _mismatch = "torus elements live over different lattices"

    def __init__(self, context: LatticeSpec, terms):
        items = terms.items() if isinstance(terms, Mapping) else terms
        pairs = [(cls, _coefficient(coeff)) for cls, coeff in items]
        shape = (context.rank1, context.rank0)
        if any(c and (len(cls.beta), len(cls.c)) != shape for cls, c in pairs):
            raise InputError("class shape does not match the lattice")
        self._store(_accumulate({}, pairs), context)

    @property
    def context(self) -> LatticeSpec:
        return self._context

    def __repr__(self):
        inner = ", ".join(f"t^{(cls.r, cls.beta, cls.c)}: {c}"
                          for cls, c in sorted(self.items()))
        return f"TorusElement({{{inner}}})"


def _binary_op(x: TorusElement, y: TorusElement, trunc: Truncation | None,
               times_chi: bool, sigma: int) -> TorusElement:
    """Bilinear extension of t^a1, t^a2 -> sigma^chi chi t^(a1 + a2), the factor
    chi only when times_chi, with chi the row a1.pairing dotted with a2; the
    numerators are summed over the product of the operands' denominators.  trunc
    is tested on the summed rank, point degree and curve part, in that order, so
    the cone below its cap is built only when a pair needs it."""
    x._check_context(y)
    spec = x.context
    cols = list(zip(*spec.pairing))
    split = 1 + spec.rank1
    deg = spec.deg[spec.rank1:]

    def parts(z):  # (vector, r, beta, point degree, numerator) per term
        return [(a.vector(), a.r, a.beta, sum(map(operator.mul, deg, a.c)), n)
                for a, n in z._terms.items()]

    xs, ys, flip = parts(x), parts(y), sigma == -1
    if trunc is not None:
        ranks, below = trunc.rank_set, None
        cap = None if trunc.deg_cap is None else math.floor(trunc.deg_cap)
    acc: dict = {}
    for v1, r1, b1, d1, n1 in xs:
        row = [sum(map(operator.mul, v1, col)) for col in cols]
        for v2, r2, b2, d2, n2 in ys:
            chi = sum(map(operator.mul, row, v2))
            w = chi if times_chi else 1
            if not w:
                continue
            if flip and chi % 2:
                w = -w
            if trunc is not None:
                if r1 + r2 not in ranks or (cap is not None and d1 + d2 > cap):
                    continue
                if below is None:
                    below = spec._below(trunc.beta_cap)
                if tuple(map(operator.add, b1, b2)) not in below:
                    continue
            v = tuple(map(operator.add, v1, v2))
            acc[v] = acc.get(v, 0) + n1 * n2 * w
    return TorusElement._make({KClass._make((v[0], v[1:split], v[split:])): n
                               for v, n in acc.items() if n}, spec, x._den * y._den)


def bracket(x: TorusElement, y: TorusElement,
            trunc: Truncation | None = None) -> TorusElement:
    """{t^a, t^b} = sigma^chi(a,b) chi(a,b) t^(a+b), extended bilinearly."""
    return _binary_op(x, y, trunc, True, x.context.sigma)


def star_product(x: TorusElement, y: TorusElement,
                 trunc: Truncation | None = None) -> TorusElement:
    """t^a * t^b = sigma^chi(a,b) t^(a+b)."""
    return _binary_op(x, y, trunc, False, x.context.sigma)


def naive_product(x: TorusElement, y: TorusElement,
                  trunc: Truncation | None = None) -> TorusElement:
    """t^a t^b = t^(a+b) with no sign; this is what assembles series."""
    return _binary_op(x, y, trunc, False, 1)


def exp_ad(w: TorusElement, x: TorusElement, trunc: Truncation) -> TorusElement:
    """exp({w, -}) applied to x inside the truncation.

    Every w-term must have rank 0 and either a nonzero effective curve
    part, or a curve part of zero with positive point degree; in the
    latter case the truncation must carry a degree cap, otherwise the
    adjoint action never becomes nilpotent.  The inverse is exp_ad(-w).
    Round k is the element dx dw^k ad_w^k(x) over 1, with dw and dx the
    denominators of w and x; the rounds are summed once over dx dw^K K!,
    charged first as the classes they hold times the bits of that denominator.
    """
    if trunc is None:
        raise InputError("non-nilpotent adjoint under this truncation")
    spec = w.context
    w._check_context(x)
    for cls in w:
        if cls.r != 0:
            raise InputError("wall data must have rank zero")
        if all(b == 0 for b in cls.beta):
            if spec.deg_point(cls.c) <= 0 or trunc.deg_cap is None:
                raise InputError("non-nilpotent adjoint under this truncation")
        elif not spec.is_effective(cls.beta):
            raise InputError("non-nilpotent adjoint under this truncation")
    dw, dx = w._den, x._den
    w = TorusElement._make(w._terms, spec)
    rounds = [TorusElement._make(x._terms, spec)]  # k = 0, 1, ...
    while not rounds[-1].is_zero():
        charge("exp_ad", len(rounds))
        rounds.append(bracket(w, rounds[-1], trunc))
    rounds = rounds[:-1] or rounds  # the last nonzero round is K
    top = len(rounds) - 1
    fact = math.factorial(top)
    den = dx * dw ** top * fact
    charge("exp_ad_size", len(set().union(*rounds)) * den.bit_length())
    total: dict = {}
    for k, z in enumerate(rounds):
        s = dw ** (top - k) * (fact // math.factorial(k))
        for cls, n in z._terms.items():
            total[cls] = total.get(cls, 0) + n * s
    return TorusElement._make({cls: n for cls, n in total.items() if n}, spec, den)


# -- wire format --------------------------------------------------------------

def element_to_obj(x: TorusElement):
    return [{"class": kclass_to_obj(cls), "coeff": jsonio.format_ratio(x._terms[cls], x._den)}
            for cls in sorted(x)]


def element_from_obj(obj, path: str, spec: LatticeSpec) -> TorusElement:
    return TorusElement(spec, jsonio.parse_list(
        obj, path, _torus_term, spec, message="expected a list of torus terms"))


def _torus_term(obj, path: str, spec: LatticeSpec):
    return (jsonio.field(obj, "class", path, kclass_from_obj, spec),
            jsonio.field(obj, "coeff", path, jsonio.parse_rational))


def truncation_from_obj(obj, path: str, spec: LatticeSpec) -> Truncation:
    beta_cap = jsonio.field(obj, "beta_cap", path, jsonio.parse_int_vector, spec.rank1)
    deg_cap = jsonio.field(obj, "deg_cap", path, jsonio.parse_rational, default=None)
    ranks = jsonio.field(obj, "ranks", path, jsonio.parse_int_vector, default=None)
    if not spec.is_effective(beta_cap):
        raise InputError("truncation cap must be effective", f"{path}.beta_cap")
    return Truncation(beta_cap, deg_cap, frozenset({0, -1} if ranks is None else ranks))
