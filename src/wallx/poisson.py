"""Truncated Poisson torus over a lattice.

Elements are finite Fraction-combinations of monomials t^alpha indexed by
lattice classes.  The bracket of two monomials is
sigma^chi * chi * t^(alpha1+alpha2) with chi the Euler pairing; the star
product keeps only the sign, and the naive product drops both.  A
truncation limits which monomials survive: ranks in a fixed set, curve
parts effective and bounded by a cap, and optionally a degree window on
the point part.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping

from . import jsonio
from .errors import InputError
from .lattice import KClass, LatticeSpec, kclass_from_obj, kclass_to_obj
from .series import _Sparse, _accumulate, _coefficient, _exponent

_MAX_EXP_AD_ROUNDS = 10000


@dataclass(frozen=True)
class Truncation:
    """Survival predicate for torus monomials."""

    beta_cap: tuple[int, ...]
    deg_cap: Fraction | None = None
    rank_set: frozenset[int] = frozenset({0, -1})

    def __post_init__(self):
        object.__setattr__(self, "beta_cap", _exponent(self.beta_cap))
        if self.deg_cap is not None:
            object.__setattr__(self, "deg_cap", _coefficient(self.deg_cap))
        object.__setattr__(self, "rank_set", frozenset(_exponent(self.rank_set)))

    def contains(self, spec: LatticeSpec, alpha: KClass) -> bool:
        return (alpha.r in self.rank_set
                and alpha.beta in spec._below(self.beta_cap)
                and (self.deg_cap is None
                     or spec.deg_point(alpha.c) <= self.deg_cap))


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
        self._terms = _accumulate({}, pairs)
        self._context = context

    @property
    def context(self) -> LatticeSpec:
        return self._context

    def items_sorted(self):
        return sorted(self._terms.items())

    def __repr__(self):
        inner = ", ".join(f"t^{(cls.r, cls.beta, cls.c)}: {c}"
                          for cls, c in self.items_sorted())
        return f"TorusElement({{{inner}}})"


def _sigma_power(sigma: int, chi: int) -> int:
    return -1 if sigma == -1 and chi % 2 else 1


def _binary_op(x: TorusElement, y: TorusElement, trunc: Truncation | None,
               weight: Callable[[int], int]) -> TorusElement:
    """Bilinear extension of t^a1, t^a2 -> weight(chi(a1, a2)) t^(a1 + a2), with
    chi the row a1.pairing dotted with a2 and trunc tested once per sum."""
    x._check_context(y)
    spec = x.context
    cols = list(zip(*spec.pairing))
    split = 1 + spec.rank1
    ys = [(a2.vector(), c2) for a2, c2 in y._terms.items()]
    kept: dict = {}  # summed vector -> its class, or None outside trunc
    pairs = []
    for a1, c1 in x._terms.items():
        v1 = a1.vector()
        row = [sum(map(operator.mul, v1, col)) for col in cols]
        for v2, c2 in ys:
            w = weight(sum(map(operator.mul, row, v2)))
            if w:
                v = tuple(map(operator.add, v1, v2))
                if v not in kept:
                    total = KClass._make((v[0], v[1:split], v[split:]))
                    kept[v] = total if trunc is None or trunc.contains(
                        spec, total) else None
                if kept[v] is not None:
                    pairs.append((kept[v], c1 * c2 * w))
    return TorusElement._make(_accumulate({}, pairs), spec)


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
    acc = x
    cur = x  # ad_w^k(x) / k! after round k
    k = 1
    while not cur.is_zero():
        if k > _MAX_EXP_AD_ROUNDS:
            raise InputError(f"work budget exceeded: exp_ad took "
                             f"{_MAX_EXP_AD_ROUNDS} rounds short of nilpotency")
        cur = bracket(w, cur, trunc).scale(Fraction(1, k))
        acc = acc + cur
        k += 1
    return acc


# -- wire format --------------------------------------------------------------

def element_to_obj(x: TorusElement):
    return [{"class": kclass_to_obj(cls), "coeff": jsonio.format_rational(c)}
            for cls, c in x.items_sorted()]


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
