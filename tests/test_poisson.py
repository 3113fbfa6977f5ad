import dataclasses
import json
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wallx import poisson
from wallx.errors import InputError
from wallx.lattice import KClass, lattice_from_obj
from wallx.poisson import (
    TorusElement,
    Truncation,
    bracket,
    element_from_obj,
    element_to_obj,
    exp_ad,
    naive_product,
    star_product,
    truncation_from_obj,
)
from wallx.series import _accumulate
from wallx.wallcross import SeedSeries, WallDatum, iterate_walls

import parent_kernels as parent
from conftest import GOLDEN, fr, model_lattice, two_gen_lattice


def _mono(spec, r, beta, c, coeff=1):
    return TorusElement(spec, {KClass(r, tuple(beta), tuple(c)): Fraction(coeff)})


def _random_element(rng, spec, max_terms=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        cls = KClass(rng.randint(-1, 1),
                     tuple(rng.randint(-2, 2) for _ in range(spec.rank1)),
                     tuple(rng.randint(-2, 2) for _ in range(spec.rank0)))
        terms[cls] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return TorusElement(spec, terms)


# -- element arithmetic -------------------------------------------------------

def test_element_zero_stripping_and_merge():
    spec = model_lattice()
    cls = KClass(0, (1,), (0, 0))
    x = TorusElement(spec, [(cls, fr(1, 2)), (cls, fr(-1, 2))])
    assert x.is_zero()
    y = TorusElement(spec, [(cls, fr(1, 2)), (cls, fr(1, 3))])
    assert y.coeff(cls) == fr(5, 6)


def test_element_add_sub_scale():
    spec = model_lattice()
    x = _mono(spec, 0, (1,), (0, 0), 2)
    y = _mono(spec, 0, (0,), (1, 0), 3)
    s = x + y - x.scale(2)
    assert s.coeff(KClass(0, (1,), (0, 0))) == -2
    assert s.coeff(KClass(0, (0,), (1, 0))) == 3
    assert (x - x).is_zero()


def test_element_shape_and_context_checks():
    spec = model_lattice()
    other = two_gen_lattice()
    with pytest.raises(InputError, match="class shape"):
        TorusElement(spec, {KClass(0, (1, 0), (0,)): fr(1)})
    x = _mono(spec, 0, (1,), (0, 0))
    y = _mono(other, 0, (1, 0), (0,))
    with pytest.raises(InputError, match="different lattices"):
        x + y
    with pytest.raises(TypeError):
        hash(x)


# -- bracket sign conventions -------------------------------------------------

def test_bracket_frozen_signs():
    spec = model_lattice()
    x = _mono(spec, -1, (0,), (0, 0))
    y = _mono(spec, 0, (1,), (0, 0))
    # chi(x, y) = -1, so sigma^chi * chi = (-1) * (-1) = 1.
    b = bracket(x, y)
    assert b == _mono(spec, -1, (1,), (0, 0), 1)
    assert bracket(y, x) == _mono(spec, -1, (1,), (0, 0), -1)


def test_bracket_of_point_classes_vanishes():
    spec = model_lattice()
    p = _mono(spec, 0, (0,), (1, 0))
    q = _mono(spec, 0, (0,), (0, 1))
    assert bracket(p, q).is_zero()


def test_bracket_truncation_filters_output():
    spec = model_lattice()
    x = _mono(spec, 0, (1,), (0, 0))
    y = _mono(spec, -1, (1,), (0, 0))
    trunc = Truncation((1,))
    assert bracket(x, y).coeff(KClass(-1, (2,), (0, 0))) == -1
    assert bracket(x, y, trunc).is_zero()


# -- bracket laws -------------------------------------------------------------

_small_class = st.tuples(st.integers(-1, 1), st.integers(-2, 2),
                         st.integers(-2, 2), st.integers(-2, 2))
_small_element = st.lists(
    st.tuples(_small_class, st.integers(-3, 3), st.integers(1, 3)),
    min_size=1, max_size=3)


def _element_from_data(spec, data):
    return TorusElement(
        spec, [(KClass(r, (b,), (c1, c2)), Fraction(num, den))
               for (r, b, c1, c2), num, den in data])


@given(_small_element, _small_element)
@settings(deadline=None)
def test_bracket_antisymmetry(xd, yd):
    spec = model_lattice()
    x = _element_from_data(spec, xd)
    y = _element_from_data(spec, yd)
    assert bracket(x, y) == bracket(y, x).scale(-1)


@given(_small_element, _small_element, _small_element)
@settings(deadline=None, max_examples=60)
def test_bracket_jacobi(xd, yd, zd):
    spec = model_lattice()
    x = _element_from_data(spec, xd)
    y = _element_from_data(spec, yd)
    z = _element_from_data(spec, zd)
    cyclic = (bracket(x, bracket(y, z)) + bracket(y, bracket(z, x))
              + bracket(z, bracket(x, y)))
    assert cyclic.is_zero()


@given(_small_element, _small_element, _small_element)
@settings(deadline=None, max_examples=60)
def test_bracket_bilinearity(xd, yd, zd):
    spec = model_lattice()
    x = _element_from_data(spec, xd)
    y = _element_from_data(spec, yd)
    z = _element_from_data(spec, zd)
    lhs = bracket(x + y.scale(fr(2, 3)), z)
    rhs = bracket(x, z) + bracket(y, z).scale(fr(2, 3))
    assert lhs == rhs


def test_bracket_laws_on_second_lattice(rng):
    spec = two_gen_lattice()
    for _ in range(40):
        x = _random_element(rng, spec)
        y = _random_element(rng, spec)
        z = _random_element(rng, spec)
        assert bracket(x, y) == bracket(y, x).scale(-1)
        cyclic = (bracket(x, bracket(y, z)) + bracket(y, bracket(z, x))
                  + bracket(z, bracket(x, y)))
        assert cyclic.is_zero()


# -- companion products -------------------------------------------------------

@given(_small_element, _small_element, _small_element)
@settings(deadline=None, max_examples=60)
def test_star_product_associative(xd, yd, zd):
    spec = model_lattice()
    x = _element_from_data(spec, xd)
    y = _element_from_data(spec, yd)
    z = _element_from_data(spec, zd)
    assert star_product(star_product(x, y), z) == star_product(x, star_product(y, z))


@given(_small_element, _small_element, _small_element)
@settings(deadline=None, max_examples=60)
def test_bracket_is_derivation_of_star(xd, yd, zd):
    spec = model_lattice()
    x = _element_from_data(spec, xd)
    y = _element_from_data(spec, yd)
    z = _element_from_data(spec, zd)
    lhs = bracket(x, star_product(y, z))
    rhs = star_product(bracket(x, y), z) + star_product(y, bracket(x, z))
    assert lhs == rhs


def test_naive_product_breaks_leibniz():
    # With sigma = -1 the unsigned product is not compatible with the
    # bracket: a concrete monomial triple violates the derivation rule.
    spec = model_lattice()
    a = _mono(spec, 1, (0,), (0, 0))
    b = _mono(spec, 0, (1,), (0, 0))
    c = _mono(spec, 0, (1,), (0, 0))
    lhs = bracket(a, naive_product(b, c))
    rhs = naive_product(bracket(a, b), c) + naive_product(b, bracket(a, c))
    target = KClass(1, (2,), (0, 0))
    assert lhs.coeff(target) == 2
    assert rhs.coeff(target) == -2
    assert lhs != rhs


def test_naive_product_is_plain_addition_of_exponents():
    spec = model_lattice()
    x = _mono(spec, -1, (0,), (0, 0), fr(1, 2))
    y = _mono(spec, 0, (1,), (1, 0), 4)
    assert naive_product(x, y) == _mono(spec, -1, (1,), (1, 0), 2)


# -- adjoint exponential ------------------------------------------------------

def test_exp_ad_frozen_curve_wall():
    spec = model_lattice()
    w = _mono(spec, 0, (1,), (0, 0))
    x = _mono(spec, -1, (0,), (0, 0))
    trunc = Truncation((2,))
    out = exp_ad(w, x, trunc)
    expected = (x + _mono(spec, -1, (1,), (0, 0), -1)
                + _mono(spec, -1, (2,), (0, 0), fr(1, 2)))
    assert out == expected


def test_exp_ad_frozen_point_wall():
    spec = model_lattice()
    w = _mono(spec, 0, (0,), (1, 0))
    x = _mono(spec, -1, (0,), (0, 0))
    trunc = Truncation((0,), deg_cap=fr(2))
    out = exp_ad(w, x, trunc)
    expected = (x + _mono(spec, -1, (0,), (1, 0), -1)
                + _mono(spec, -1, (0,), (2, 0), fr(1, 2)))
    assert out == expected


def test_exp_ad_inverse_round_trip(rng):
    spec = model_lattice()
    trunc = Truncation((3,))
    for _ in range(30):
        w_terms = {}
        for _ in range(rng.randint(1, 2)):
            cls = KClass(0, (rng.randint(1, 2),),
                         (rng.randint(-1, 1), rng.randint(-1, 1)))
            w_terms[cls] = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
        w = TorusElement(spec, w_terms)
        x = _random_element(rng, spec)
        assert exp_ad(w.scale(-1), exp_ad(w, x, trunc), trunc) == x


def test_exp_ad_inverse_round_trip_point_wall(rng):
    spec = model_lattice()
    trunc = Truncation((1,), deg_cap=fr(4))
    for _ in range(20):
        w = TorusElement(spec, {
            KClass(0, (0,), (1, 0)): Fraction(rng.randint(-2, 2), 2),
            KClass(0, (0,), (1, 1)): Fraction(rng.randint(-2, 2)),
        })
        x = _random_element(rng, spec)
        assert exp_ad(w.scale(-1), exp_ad(w, x, trunc), trunc) == x


def test_exp_ad_rejects_nonzero_rank_wall():
    spec = model_lattice()
    w = _mono(spec, 1, (1,), (0, 0))
    x = _mono(spec, -1, (0,), (0, 0))
    with pytest.raises(InputError, match="rank zero"):
        exp_ad(w, x, Truncation((2,)))


def test_exp_ad_rejects_non_nilpotent_walls():
    spec = model_lattice()
    x = _mono(spec, -1, (0,), (0, 0))
    # point class of degree zero
    w = _mono(spec, 0, (0,), (1, -1))
    with pytest.raises(InputError, match="non-nilpotent"):
        exp_ad(w, x, Truncation((2,), deg_cap=fr(5)))
    # positive degree but no degree cap to stop it
    w = _mono(spec, 0, (0,), (1, 0))
    with pytest.raises(InputError, match="non-nilpotent"):
        exp_ad(w, x, Truncation((2,)))
    # curve part outside the effective cone
    w = _mono(spec, 0, (-1,), (0, 0))
    with pytest.raises(InputError, match="non-nilpotent"):
        exp_ad(w, x, Truncation((2,)))


def test_exp_ad_non_effective_on_two_gen_lattice():
    spec = two_gen_lattice()
    x = _mono(spec, -1, (0, 0), (0,))
    w = _mono(spec, 0, (0, 1), (0,))
    with pytest.raises(InputError, match="non-nilpotent"):
        exp_ad(w, x, Truncation((2, 2)))
    ok = _mono(spec, 0, (1, 0), (0,))
    out = exp_ad(ok, x, Truncation((2, 1)))
    assert out.coeff(KClass(-1, (1, 0), (0,))) != 0


# -- truncation predicate -----------------------------------------------------

def test_truncation_contains():
    # naive_product has weight 1, so its output is exactly the surviving sums
    spec = two_gen_lattice()
    trunc = Truncation((2, 1))
    classes = [KClass(0, (1, 0), (0,)), KClass(-1, (2, 1), (5,)),
               KClass(0, (0, 1), (0,)),  # beta outside the cone
               KClass(0, (2, 2), (0,)),  # cap minus beta outside the cone
               KClass(1, (1, 0), (0,))]  # rank filter
    unit = _mono(spec, 0, (0, 0), (0,))
    y = TorusElement(spec, {cls: 1 for cls in classes})
    assert naive_product(unit, y, trunc) == TorusElement(spec, {cls: 1 for cls in classes[:2]})
    # the survivor (-1, (2, 1), (5,)) as a sum of two classes that survive alone
    x = _mono(spec, 0, (1, 0), (0,), 2)
    z = _mono(spec, -1, (1, 1), (5,), fr(1, 3))
    assert naive_product(x, z, trunc) == _mono(spec, -1, (2, 1), (5,), fr(2, 3))


def test_truncation_degree_cap():
    spec = model_lattice()
    unit = _mono(spec, 0, (0,), (0, 0))
    y = _mono(spec, 0, (1,), (1, 0)) + _mono(spec, 0, (1,), (1, 1))
    trunc = Truncation((1,), deg_cap=fr(3, 2))
    assert naive_product(unit, y, trunc) == _mono(spec, 0, (1,), (1, 0))
    # degree 1 + 1 = 2 lies above 3/2 although each part lies below it
    half = _mono(spec, 0, (0,), (1, 0))
    assert naive_product(half, _mono(spec, 0, (1,), (0, 1)), trunc).is_zero()
    no_cap = Truncation((1,))
    big = _mono(spec, 0, (1,), (7, 7))
    assert naive_product(unit, big, no_cap) == big


def test_products_that_need_no_cone_build_none():
    # a cap of 10**9 would exceed the effective cone's work budget; no pair
    # below needs the cone, so each product is zero without building it
    spec = model_lattice()
    trunc = Truncation((10**9,))
    point = _mono(spec, 0, (0,), (1, 0))
    assert bracket(point, point, trunc).is_zero()  # chi = 0
    high = _mono(spec, 1, (0,), (1, 0))  # rank 1 + 1 lies outside {0, -1}
    zero = TorusElement(spec, {})
    for op in (bracket, star_product, naive_product):
        assert op(high, high, trunc).is_zero()
        assert op(zero, point, trunc).is_zero()


# -- reference kernel ---------------------------------------------------------
# The Fraction kernel that the int kernel replaced, kept as an oracle.

def _reference_contains(trunc, spec, alpha):
    return (alpha.r in trunc.rank_set
            and alpha.beta in spec._below(trunc.beta_cap)
            and (trunc.deg_cap is None
                 or spec.deg_point(alpha.c) <= trunc.deg_cap))


def _reference_binary_op(x, y, trunc, weight):
    x._check_context(y)
    spec = x.context
    cols = list(zip(*spec.pairing))
    split = 1 + spec.rank1
    ys = [(a2.vector(), c2) for a2, c2 in y.terms()]
    kept = {}
    pairs = []
    for a1, c1 in x.terms():
        v1 = a1.vector()
        row = [sum(map(operator.mul, v1, col)) for col in cols]
        for v2, c2 in ys:
            w = weight(sum(map(operator.mul, row, v2)))
            if w:
                v = tuple(map(operator.add, v1, v2))
                if v not in kept:
                    total = KClass._make((v[0], v[1:split], v[split:]))
                    kept[v] = total if trunc is None or _reference_contains(
                        trunc, spec, total) else None
                if kept[v] is not None:
                    pairs.append((kept[v], c1 * c2 * w))
    return TorusElement(spec, _accumulate({}, pairs))


def _reference_weights(spec):
    sigma = spec.sigma
    return {bracket: lambda chi: parent._sigma_power(sigma, chi) * chi,
            star_product: lambda chi: parent._sigma_power(sigma, chi),
            naive_product: lambda chi: 1}


def _reference_exp_ad(w, x, trunc):
    weight = _reference_weights(w.context)[bracket]
    acc = x
    cur = x
    k = 1
    while not cur.is_zero():
        cur = _reference_binary_op(w, cur, trunc, weight).scale(Fraction(1, k))
        acc = acc + cur
        k += 1
    return acc


def _parent_exp_ad(w, x, trunc):
    return parent.element(parent.exp_ad(parent.stored(w), parent.stored(x), trunc))


_PARENT_OPS = {bracket: parent.bracket, star_product: parent.star_product,
               naive_product: parent.naive_product}


_WEIGHTED_OPS = {bracket: parent.weighted_bracket, star_product: parent.weighted_star_product,
                 naive_product: parent.weighted_naive_product}


def _assert_same_products(x, y, trunc):
    """Each product equals the weight-callback kernel's, terms in the same order
    over the same denominator."""
    for op, weighted in _WEIGHTED_OPS.items():
        got, want = op(x, y, trunc), weighted(x, y, trunc)
        assert list(got._terms.items()) == list(want._terms.items())
        assert got._den == want._den


_SPECS = [model_lattice(), two_gen_lattice()]
_MIXED = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def _terms(spec, r, beta, c, min_size=0):
    return st.dictionaries(
        st.builds(KClass, r, st.tuples(*[beta] * spec.rank1),
                  st.tuples(*[c] * spec.rank0)), _MIXED.filter(bool),
        min_size=min_size, max_size=4)


def _truncations(spec, cap):
    return st.builds(Truncation, st.just(cap),
                     st.sampled_from([None, fr(3), fr(7, 2), fr(-1, 2)]),
                     st.sampled_from([frozenset({0, -1}), frozenset({-1})]))


@given(st.data())
@settings(deadline=None, max_examples=150)
def test_kernel_matches_reference(data):
    spec = data.draw(st.sampled_from(_SPECS))
    spec = dataclasses.replace(spec, sigma=data.draw(st.sampled_from([1, -1])))
    cap = (2,) if spec.rank1 == 1 else (2, 1)
    small = st.integers(-2, 2)
    x, y = (TorusElement(spec, data.draw(_terms(spec, st.integers(-1, 1), small, small)))
            for _ in range(2))
    trunc = data.draw(st.none() | _truncations(spec, cap))
    for op, weight in _reference_weights(spec).items():
        want = _reference_binary_op(x, y, trunc, weight)
        assert op(x, y, trunc) == want == parent.element(
            _PARENT_OPS[op](parent.stored(x), parent.stored(y), trunc))
    _assert_same_products(x, y, trunc)
    # curve walls, and point walls (beta 0, positive point degree) under a
    # cap, on rank -1 terms low in the cone, so that rounds survive it
    trunc = data.draw(_truncations(spec, cap).filter(lambda t: t.deg_cap is not None))
    x = TorusElement(spec, data.draw(_terms(spec, st.just(-1), st.integers(0, 1), small, 1)))
    walls = data.draw(st.one_of(
        _terms(spec, st.just(0), st.integers(0, 1), small, 1),
        _terms(spec, st.just(0), st.just(0), st.integers(0, 2), 1)))
    w = TorusElement(spec, {cls: c for cls, c in walls.items()
                            if (any(cls.beta) and spec.is_effective(cls.beta))
                            or (not any(cls.beta) and spec.deg_point(cls.c) > 0)})
    # over primes that no drawn numerator shares, so that dw > 1 and dx > 1
    scaled = (w.scale(fr(1, 29)), x.scale(fr(5, 31)))
    assert scaled[0].is_zero() or scaled[0]._den > 1
    assert scaled[1]._den > 1
    for w, x in ((w, x), scaled):
        out = exp_ad(w, x, trunc)
        assert out == _parent_exp_ad(w, x, trunc) == _reference_exp_ad(w, x, trunc)


def test_products_flip_the_sign_of_negative_odd_chi():
    # chi(x, y) = r_x (b_y + c_y[0]) - (b_x + c_x[0]) r_y on the model lattice
    model = model_lattice()
    for sigma in (1, -1):
        spec = dataclasses.replace(model, sigma=sigma)
        x = TorusElement(spec, {KClass(-1, (0,), (0, 0)): fr(2, 3), KClass(0, (1,), (0, 0)): 1})
        y = TorusElement(spec, {KClass(0, (1,), (0, 0)): fr(-1, 5), KClass(0, (2,), (1, 0)): 3,
                                KClass(-1, (1,), (1, 0)): 1})
        chis = {spec.euler_pairing(a, b) for a in x for b in y}
        assert {-1, -3, -2, 0} <= chis  # negative odd, negative even and zero chi
        for trunc in (None, Truncation((2,)), Truncation((3,), fr(1))):
            _assert_same_products(x, y, trunc)
        # sigma^chi chi on the pair of chi -1
        a, b = KClass(-1, (0,), (0, 0)), KClass(0, (1,), (0, 0))
        pair = bracket(TorusElement(spec, {a: 1}), TorusElement(spec, {b: 1}))
        assert pair == TorusElement(spec, {a + b: sigma * -1})


def _golden_exp_ad():
    # the exp_ad golden document: w is 1/2, -2 and 1/3 over dw = 6, x over dx = 4
    doc = json.loads((GOLDEN / "exp_ad.json").read_text())
    spec = lattice_from_obj(doc["lattice"])
    w, x = (element_from_obj(doc[k], k, spec) for k in "wx")
    assert sorted(c for _, c in w.terms()) == [fr(-2), fr(1, 3), fr(1, 2)]
    assert (w._den, x._den) == (6, 4)
    return w, x, truncation_from_obj(doc["truncation"], "truncation", spec)


def _exp_ad_edge_cases():
    w, x, trunc = _golden_exp_ad()
    zero = TorusElement(w.context, {})
    return {"golden": (w, x, trunc), "zero w": (zero, x, trunc),
            "zero x": (w, zero, trunc), "both zero": (zero, zero, trunc)}


@pytest.mark.parametrize("name", sorted(_exp_ad_edge_cases()))
def test_exp_ad_edge_cases_match_parent(name):
    w, x, trunc = _exp_ad_edge_cases()[name]
    out = exp_ad(w, x, trunc)
    assert out == _parent_exp_ad(w, x, trunc) == _reference_exp_ad(w, x, trunc)
    if w.is_zero() or x.is_zero():
        assert out == x
    assert all(type(c) is Fraction for _, c in out.terms())


def test_no_int_coefficient_escapes():
    # integral inputs (every den is 1), so a kernel that handed back its int
    # numerators would show here
    for spec in _SPECS:
        b0, c0 = (0,) * spec.rank1, (0,) * spec.rank0
        b1, c1 = (1,) + b0[1:], (1,) + c0[1:]
        trunc = Truncation((2,) * spec.rank1, deg_cap=fr(4))
        # a curve wall and a point wall
        w = TorusElement(spec, {KClass(0, b1, c1): 2, KClass(0, b0, c1): -1})
        x = TorusElement(spec, {KClass(-1, b0, c0): 3, KClass(0, b1, c0): 1})
        assert w._den == x._den == 1
        outs = [op(w, x, t) for op in (bracket, star_product, naive_product)
                for t in (None, trunc)]
        outs += [exp_ad(w, x, trunc), exp_ad(TorusElement(spec, {}), x, trunc)]  # K = 0
        walls = [WallDatum(spec.nu_slope(cls), TorusElement(spec, {cls: c}))
                 for cls, c in sorted(w.terms(), key=lambda t: spec.nu_slope(t[0]))]
        seed = SeedSeries(TorusElement(spec, {KClass(-1, b0, c0): 1}))
        outs.append(iterate_walls(seed, walls, trunc).element)
        for out in outs:
            assert type(out) is TorusElement and not out.is_zero()
            assert all(type(c) is Fraction for _, c in out.terms())


def _counted_rounds(monkeypatch, module, run, w, x, trunc):
    """The (len w, len round, len result) of each bracket call that run makes,
    looking bracket up in module, and the operands of each call."""
    calls = []
    real = module.bracket

    def counted(*args):
        out = real(*args)
        calls.append((args, out))
        return out

    with monkeypatch.context() as m:
        m.setattr(module, "bracket", counted)
        out = run(w, x, trunc)
    shapes = [(len(a[0].terms()), len(a[1].terms()), len(o.terms())) for a, o in calls]
    return out, shapes, [a[:2] for a, _ in calls]


def test_exp_ad_brackets_once_per_round(monkeypatch):
    spec = model_lattice()
    # the 40-round point wall of the CLI round-budget test
    point = (_mono(spec, 0, (0,), (1, 0)), _mono(spec, -1, (0,), (0, 0)),
             Truncation((0,), fr(40)))
    for case in (point, _golden_exp_ad()):
        out, shapes, operands = _counted_rounds(monkeypatch, poisson, exp_ad, *case)
        parent_out, parent_shapes, _ = _counted_rounds(
            monkeypatch, parent, _parent_exp_ad, *case)
        # the term counts that a tracer reads off each call are the parent's
        assert out == parent_out and shapes == parent_shapes
        # each round, and w, is a plain element over 1
        for z in (z for pair in operands for z in pair):
            assert type(z) is TorusElement and z._den == 1
    # 40 nonzero rounds, then one that brackets to zero, each one call of bracket
    out, shapes, _ = _counted_rounds(monkeypatch, poisson, exp_ad, *point)
    assert len(shapes) == 41
    assert len(out.terms()) == 41
    assert out.coeff(KClass(-1, (0,), (40, 0))) == fr(1, math.factorial(40))


def test_exp_ad_round_budget_boundary(set_budget):
    # the same wall: the 41st bracket is charged as round 41 and gives zero
    spec = model_lattice()
    w = _mono(spec, 0, (0,), (1, 0))
    x = _mono(spec, -1, (0,), (0, 0))
    set_budget("exp_ad", 41)
    assert len(exp_ad(w, x, Truncation((0,), fr(40))).terms()) == 41
    set_budget("exp_ad", 40)
    with pytest.raises(InputError, match="exp_ad took 40 rounds short of nilpotency"):
        exp_ad(w, x, Truncation((0,), fr(40)))


def test_exp_ad_size_budget_boundary(set_budget):
    # the golden document sums 68 classes over dx dw^K K! = 4 * 6**6 * 6!, of 28 bits
    w, x, trunc = _golden_exp_ad()
    assert (4 * 6 ** 6 * math.factorial(6)).bit_length() == 28
    set_budget("exp_ad_size", 68 * 28)
    assert len(exp_ad(w, x, trunc)) == 68
    set_budget("exp_ad_size", 68 * 28 - 1)
    with pytest.raises(InputError, match="exp_ad result needs more than 1903 classes"):
        exp_ad(w, x, trunc)


# -- wire format --------------------------------------------------------------

def test_element_json_round_trip():
    spec = model_lattice()
    x = (_mono(spec, -1, (0,), (0, 0), fr(-3, 7))
         + _mono(spec, 0, (2,), (1, -1), 5))
    obj = element_to_obj(x)
    assert obj[0]["coeff"] == "-3/7"
    back = element_from_obj(obj, "element", spec)
    assert back == x


def test_element_json_reduces_each_stored_value_on_its_own():
    # 1/2 and 1/3 are stored as 3 and 2 over 6, with no factor common to all
    spec = model_lattice()
    x = _mono(spec, -1, (0,), (0, 0), fr(1, 2)) + _mono(spec, 0, (2,), (1, -1), fr(1, 3))
    assert sorted(x._terms.values()) == [2, 3] and x._den == 6
    obj = element_to_obj(x)
    assert [t["coeff"] for t in obj] == ["1/2", "1/3"]
    assert json.dumps(obj) == json.dumps(parent.element_to_obj(x))


@given(st.integers(0, 10**6))
@settings(max_examples=50)
def test_element_json_matches_the_fraction_writer(seed):
    rng = random.Random(seed)
    spec = two_gen_lattice()
    x, y = _random_element(rng, spec), _random_element(rng, spec)
    for z in (x, y, bracket(x, y), star_product(x, y)):
        assert json.dumps(element_to_obj(z)) == json.dumps(parent.element_to_obj(z))


def test_element_from_obj_reports_paths():
    spec = model_lattice()
    bad = [{"class": {"r": 0, "beta": [1], "c": [0, 0]}, "coeff": "1/0"}]
    with pytest.raises(InputError) as err:
        element_from_obj(bad, "element", spec)
    assert err.value.path == "element[0].coeff"
    with pytest.raises(InputError) as err:
        element_from_obj([{"coeff": "1"}], "element", spec)
    assert err.value.path == "element[0]"


def test_truncation_json_round_trip():
    spec = model_lattice()
    obj = {"beta_cap": [2], "deg_cap": "7/2", "ranks": [-1, 0]}
    trunc = truncation_from_obj(obj, "truncation", spec)
    assert trunc.beta_cap == (2,)
    assert trunc.deg_cap == fr(7, 2)
    assert trunc.rank_set == frozenset({-1, 0})
    assert truncation_from_obj({"beta_cap": [2]}, "truncation", spec) == Truncation((2,))
    with pytest.raises(InputError) as err:
        truncation_from_obj({"beta_cap": [-1]}, "truncation", spec)
    assert err.value.path == "truncation.beta_cap"


def test_element_rejects_float_coefficients():
    spec = model_lattice()
    cls = KClass(0, (1,), (0, 0))
    with pytest.raises(InputError, match="float"):
        TorusElement(spec, {cls: 0.5})
    with pytest.raises(InputError, match="float"):
        TorusElement(spec, {cls: 1}).scale(0.5)
    assert TorusElement(spec, {cls: "1/2"}).coeff(cls) == fr(1, 2)
