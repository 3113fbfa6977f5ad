"""Wall-crossing engine over the truncated Poisson torus.

Walls carry rank-0 torus elements of a single slope; crossing a wall
applies the adjoint exponential, and an ascending sweep folds the walls
left to right.  Groups of wall classes sharing a slope-chain pattern
resum to closed-form rational functions.  The DT/PT ratio DT_beta / DT_0
is one rational function, expanded once; the last operation checks a
family of layer fractions against the configured duality.
"""

from __future__ import annotations

import collections
import itertools
import math
from collections.abc import Mapping
from fractions import Fraction

from . import jsonio
from .errors import InputError, charge
from .lattice import INF, IntVec, KClass, LatticeSpec, kclass_from_obj
from .poisson import (
    TorusElement,
    Truncation,
    element_from_obj,
    element_to_obj,
    exp_ad,
)
from .quasipoly import (
    ChainPattern,
    QuasiPolynomial,
    resum_chain,
)
from .series import (
    LaurentPolynomial,
    LaurentSeries,
    RationalFunction,
    Window,
    _coefficient,
    _exponent,
    _lead,
    _no_coset,
    divide,
    expand,
)


class WallDatum(collections.namedtuple("WallDatum", "slope J")):
    """Rank-0 wall element of a single nu-slope (a Fraction, or INF for
    pure point classes)."""

    __slots__ = ()
    __hash__ = None  # J, a TorusElement, has no hash: unhashable as _Sparse is

    def __new__(cls, slope, J: TorusElement):
        if slope is not INF:
            slope = _coefficient(slope)
        spec = J.context
        for c in J:
            if c.r != 0:
                raise InputError("wall data must have rank zero")
            if spec.nu_slope(c) != slope:
                raise InputError("wall term slope does not match the wall")
            if not spec.is_effective(c.beta):
                raise InputError("wall curve parts must be effective")
        return tuple.__new__(cls, (slope, J))


class SeedSeries(collections.namedtuple("SeedSeries", "element label")):
    """Rank-(-1) torus element together with a cutoff label."""

    __slots__ = ()
    __hash__ = None  # as WallDatum

    def __new__(cls, element: TorusElement, label: str = "seed"):
        for c in element:
            if c.r != -1:
                raise InputError("seed terms must have rank -1")
        return tuple.__new__(cls, (element, label))


def iterate_walls(seed: SeedSeries, walls, trunc: Truncation) -> SeedSeries:
    """The seed past each wall in turn, labelled by the last slope crossed."""
    walls = list(walls)
    for first, second in zip(walls, walls[1:]):
        if not first.slope < second.slope:
            raise InputError("walls must have strictly increasing slopes")
    if not walls:
        return seed
    element = seed.element
    for wall in walls:
        element = exp_ad(wall.J, element, trunc)
    return SeedSeries(element, f"past {walls[-1].slope}")


# -- group resummation --------------------------------------------------------

class GroupSpec(collections.namedtuple("GroupSpec", "context alpha_prime betas kappas "
                                        "equalities J_values DT_value delta0")):
    """One slope-chain group of wall classes acting on a seed class.

    Positions i = 1..r carry curve classes betas[i-1] and minimal point
    representatives kappas[i-1]; equalities lists the chain positions i
    with a_i = a_{i+1}.  J_values and DT_value are the numerical inputs,
    delta0 the slope cutoff below the first wall.
    """

    __slots__ = ()

    def __new__(cls, context: LatticeSpec, alpha_prime: KClass, betas: tuple[IntVec, ...],
                kappas: tuple[IntVec, ...], equalities: frozenset[int],
                J_values: tuple[Fraction, ...], DT_value: Fraction, delta0: Fraction):
        return tuple.__new__(cls, (context, alpha_prime, tuple(map(_exponent, betas)),
                                   tuple(map(_exponent, kappas)),
                                   frozenset(_exponent(equalities)),
                                   tuple(map(_coefficient, J_values)),
                                   _coefficient(DT_value), _coefficient(delta0)))

    @property
    def r(self) -> int:
        return len(self.betas)


def _validate_group(group: GroupSpec, trunc: Truncation | None) -> ChainPattern:
    spec = group.context
    r = group.r
    if len(group.kappas) != r or len(group.J_values) != r:
        raise InputError("group position lists must have equal length")
    if group.alpha_prime.r != -1:
        raise InputError("group seed class must have rank -1")
    pattern = ChainPattern(r, group.equalities)
    for b in group.betas:
        if not spec.is_effective(b):
            raise InputError("group curve classes must be effective")
        if spec.l_of(b) < 1:
            raise InputError("group curve classes must have positive l")
    total = tuple(map(sum, zip(group.alpha_prime.beta, *group.betas)))
    if trunc is not None and tuple(trunc.beta_cap) != total:
        raise InputError("truncation cap must equal the total group class")
    nus = [spec.nu_slope(KClass(0, b, k)) for b, k in zip(group.betas, group.kappas)]
    if r and not group.delta0 <= nus[0] < group.delta0 + 1:
        raise InputError("first representative is not minimal past the cutoff")
    for i in range(1, r):
        if i in group.equalities:
            if nus[i] != nus[i - 1]:
                raise InputError("equal-slope positions must have equal slopes")
        elif not nus[i - 1] - 1 < nus[i] <= nus[i - 1]:
            raise InputError("representative is not minimal for the slope chain")
    return pattern


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
    # sigma^(chi_1 + ... + chi_r) at rho: each chi term has a 0/1 exponent and an
    # int coefficient, so the sum adds the coefficients whose exponent is under rho
    terms = [t for chi in chis for t in chi._terms.items()]
    return QuasiPolynomial(r, 2, {
        rho: product.scale(-1 if sum(c for e, c in terms
                                     if all(x <= y for x, y in zip(e, rho))) % 2 else 1)
        for rho in itertools.product((0, 1), repeat=r)})


def _exponential_factor(group: GroupSpec) -> Fraction:
    """1/k! per maximal run of chain positions on the same wall."""
    ends = sorted(set(range(1, group.r + 1)) - group.equalities)
    return Fraction(1, math.prod(math.factorial(b - a) for a, b in zip([0] + ends, ends)))


def group_resum(group: GroupSpec, trunc: Truncation | None) -> RationalFunction:
    """Closed form of the group's total contribution as g/h in the point
    variables, at the fixed output class alpha' + sum alpha_i."""
    pattern = _validate_group(group, trunc)
    spec = group.context
    base_shift = tuple(
        c + sum(k[j] for k in group.kappas)
        for j, c in enumerate(group.alpha_prime.c))
    scalar = group.DT_value * _exponential_factor(group)
    for v in group.J_values:
        scalar *= v
    qp = _b_factor(group)
    monos = [spec.twist(b) for b in group.betas]
    inner = resum_chain(qp, pattern, monos, spec.point_degree_functional())
    g = inner.numerator.shift(base_shift).scale(scalar)
    return RationalFunction(g, inner.denominator)


# -- DT/PT ratio --------------------------------------------------------------

def dtpt_ratio(dt_beta: RationalFunction, dt_zero: RationalFunction,
               window: Window) -> LaurentSeries:
    """PT = DT_beta / DT_0 as one expansion of the quotient, checked on and
    bounded by the two expansions in the window: terms up to the bound past
    which dividing those series would read their unknown tails."""
    s_beta, s_zero = expand(dt_beta, window), expand(dt_zero, window)
    L, b = window.functional, window.bound  # the (L, exponent)-least term leads
    lead = min(((L(e), e) for e in s_zero), default=None)
    if lead is not None and s_zero.coeff(lead[1]) != 1:
        raise InputError("rank-zero column must lead with coefficient 1")
    _no_coset(s_beta, s_zero)
    l_m0 = L(_lead(s_zero, L, "not invertible with respect to L"))
    bound = min(b - l_m0, s_beta.support_min() + b - 2 * l_m0)
    return divide(dt_beta, dt_zero, Window(L, bound))


# -- duality ------------------------------------------------------------------

def duality_check(f_by_beta: Mapping[IntVec, RationalFunction],
                  spec: LatticeSpec) -> dict:
    """Check a family of point-variable fractions against the duality.

    Applying the duality to the monomials of z^beta f_beta must reproduce
    z^(D beta) f_(D beta); equality is verified by cross-multiplication,
    so no truncation of the fractions is needed.  Returns the CLI's report:
    "all_ok" and "entries": per "beta", its "image", "ok" and, when not ok,
    "first_discrepancy", the least term of the cross-multiplied difference.
    """
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
        num_t = f.numerator.map_exponents(c_image, n0).shift(img.c)
        den_t = f.denominator.map_exponents(c_image, n0)
        diff = num_t * g.denominator - g.numerator * den_t
        entry = {"beta": list(beta), "image": list(img.beta), "ok": diff.is_zero()}
        if not entry["ok"]:
            first = min(diff)
            entry["first_discrepancy"] = {"exponent": list(first),
                                          "coeff": jsonio.format_rational(diff.coeff(first))}
        entries.append(entry)
    return {"entries": entries, "all_ok": all(e["ok"] for e in entries)}


# -- wire format --------------------------------------------------------------

def wall_from_obj(obj, path: str, spec: LatticeSpec) -> WallDatum:
    slope = jsonio.field(obj, "slope", path, _parse_slope)
    element = jsonio.field(obj, "J", path, element_from_obj, spec)
    return WallDatum(slope, element)


def _parse_slope(value, path: str):
    return INF if value == "oo" else jsonio.parse_rational(value, path)


def seed_from_obj(obj, path: str, spec: LatticeSpec) -> SeedSeries:
    element = jsonio.field(obj, "element", path, element_from_obj, spec)
    label = jsonio.field(obj, "label", path, _parse_label, default="seed")
    return SeedSeries(element, label)


def _parse_label(value, path: str) -> str:
    if not isinstance(value, str):
        raise InputError("label must be a string", path)
    return value


def seed_to_obj(seed: SeedSeries):
    return {"element": element_to_obj(seed.element), "label": seed.label}


def group_from_obj(obj, path: str, spec: LatticeSpec) -> GroupSpec:
    alpha_prime = jsonio.field(obj, "alpha_prime", path, kclass_from_obj, spec)
    betas = jsonio.field(obj, "betas", path, jsonio.parse_list,
                         jsonio.parse_int_vector, spec.rank1,
                         message="betas must be a list")
    kappas = jsonio.field(obj, "kappas", path, jsonio.parse_list,
                          jsonio.parse_int_vector, spec.rank0,
                          message="kappas must be a list")
    equalities = jsonio.field(obj, "equalities", path, jsonio.parse_int_vector,
                              default=())
    j_values = jsonio.field(obj, "J_values", path, jsonio.parse_rational_vector)
    dt_value = jsonio.field(obj, "DT_value", path, jsonio.parse_rational)
    delta0 = jsonio.field(obj, "delta0", path, jsonio.parse_rational)
    return GroupSpec(spec, alpha_prime, betas, kappas, frozenset(equalities),
                     j_values, dt_value, delta0)
