import itertools
import math
from fractions import Fraction
from itertools import product as iproduct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wallx.errors import InputError
from wallx.lattice import INF, KClass, LatticeSpec
from wallx.poisson import TorusElement, Truncation, bracket
from wallx.series import (
    Coset,
    LaurentPolynomial,
    LaurentSeries,
    LinearFunctional,
    RationalFunction,
    Window,
    expand,
    multiply,
)
from wallx.quasipoly import QuasiPolynomial, reexpand_check
from wallx.wallcross import (
    GroupSpec,
    SeedSeries,
    WallDatum,
    _b_factor,
    _exponential_factor,
    dtpt_ratio,
    duality_check,
    group_from_obj,
    group_resum,
    iterate_walls,
)

from conftest import (evaluate, fr, model_lattice, power, qp_value, rebuilt, two_gen_lattice,
                      wire)
import parent_kernels as parent


def _mono(spec, r, beta, c, coeff=1):
    return TorusElement(spec, {KClass(r, tuple(beta), tuple(c)): Fraction(coeff)})


def _poly(terms, nvars):
    return LaurentPolynomial({tuple(e): Fraction(c) for e, c in terms.items()},
                             nvars)


# -- wall and seed validation -------------------------------------------------

def test_wall_datum_validation():
    spec = model_lattice()
    good = WallDatum(fr(1, 2), _mono(spec, 0, (1,), (1, 0)))
    assert good.slope == fr(1, 2)
    with pytest.raises(InputError, match="rank zero"):
        WallDatum(fr(1, 2), _mono(spec, -1, (1,), (1, 0)))
    with pytest.raises(InputError, match="slope does not match"):
        WallDatum(fr(1, 2), _mono(spec, 0, (1,), (2, 0)))
    with pytest.raises(InputError, match="effective"):
        WallDatum(fr(-1, 2), _mono(spec, 0, (-1,), (1, 0)))


def test_wall_datum_infinite_slope():
    spec = model_lattice()
    wall = WallDatum(INF, _mono(spec, 0, (0,), (1, 0)))
    assert wall.slope is INF
    with pytest.raises(InputError, match="slope does not match"):
        WallDatum(INF, _mono(spec, 0, (1,), (1, 0)))


def test_seed_series_validation():
    spec = model_lattice()
    SeedSeries(_mono(spec, -1, (0,), (0, 0)))
    with pytest.raises(InputError, match="rank -1"):
        SeedSeries(_mono(spec, 0, (0,), (0, 0)))


def test_walls_and_seeds_are_unhashable_as_their_elements_are():
    spec = model_lattice()
    for x in (WallDatum(fr(1, 2), _mono(spec, 0, (1,), (1, 0))),
              SeedSeries(_mono(spec, -1, (0,), (0, 0))), _mono(spec, 0, (1,), (1, 0))):
        with pytest.raises(TypeError, match=f"^unhashable type: '{type(x).__name__}'$"):
            hash(x)


# -- single wall crossings ----------------------------------------------------

def test_cross_wall_zero_and_commuting_walls():
    spec = model_lattice()
    seed = SeedSeries(_mono(spec, -1, (0,), (0, 0)))
    trunc = Truncation((1,), deg_cap=fr(6))
    empty = WallDatum(fr(1), TorusElement(spec, {}))
    assert iterate_walls(seed, [empty], trunc).element == seed.element
    # the point class (0, 3) pairs to zero with everything
    silent = WallDatum(INF, _mono(spec, 0, (0,), (0, 3)))
    assert iterate_walls(seed, [silent], trunc).element == seed.element


def test_cross_wall_single_bracket_hand_value():
    spec = model_lattice()
    seed = SeedSeries(_mono(spec, -1, (0,), (0, 0)))
    wall = WallDatum(fr(1, 2), _mono(spec, 0, (1,), (1, 0), 2))
    out = iterate_walls(seed, [wall], Truncation((1,)))
    # chi = 2, sigma^2 = 1: seed + 2 * 2 * t^(sum)
    expected = (seed.element
                + _mono(spec, -1, (1,), (1, 0), 4))
    assert out.element == expected
    assert out.label == "past 1/2"


def test_cross_wall_inverse(rng):
    spec = model_lattice()
    trunc = Truncation((2,))
    for _ in range(15):
        terms = {}
        for _ in range(rng.randint(1, 2)):
            cls = KClass(-1, (rng.randint(0, 2),),
                         (rng.randint(-1, 1), rng.randint(-1, 1)))
            terms[cls] = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
        seed = SeedSeries(TorusElement(spec, terms))
        c = (1 + 2 * rng.randint(0, 1), rng.randint(0, 1))
        j = _mono(spec, 0, (1,), c, fr(rng.randint(1, 3), 2))
        slope = spec.nu_slope(KClass(0, (1,), c))
        forward = iterate_walls(seed, [WallDatum(slope, j)], trunc)
        back = iterate_walls(forward, [WallDatum(slope, j.scale(-1))], trunc)
        assert back.element == seed.element


def test_iterate_walls_ordering():
    spec = model_lattice()
    seed = SeedSeries(_mono(spec, -1, (0,), (0, 0)))
    trunc = Truncation((2,), deg_cap=fr(8))
    w_half = WallDatum(fr(1, 2), _mono(spec, 0, (1,), (1, 0)))
    w_one = WallDatum(fr(1), _mono(spec, 0, (1,), (2, 0)))
    w_inf = WallDatum(INF, _mono(spec, 0, (0,), (1, 0)))
    assert iterate_walls(seed, [], trunc).element == seed.element
    out = iterate_walls(seed, [w_half, w_one, w_inf], trunc)
    assert not out.element.is_zero()
    with pytest.raises(InputError, match="strictly increasing"):
        iterate_walls(seed, [w_one, w_half], trunc)
    with pytest.raises(InputError, match="strictly increasing"):
        iterate_walls(seed, [w_half, w_half], trunc)
    with pytest.raises(InputError, match="strictly increasing"):
        iterate_walls(seed, [w_inf, w_half], trunc)


def test_commuting_walls_cross_in_either_order():
    spec = model_lattice()
    seed = SeedSeries(_mono(spec, -1, (0,), (0, 0)))
    trunc = Truncation((0,), deg_cap=fr(6))
    a = WallDatum(INF, _mono(spec, 0, (0,), (1, 0), fr(1, 2)))
    b = WallDatum(INF, _mono(spec, 0, (0,), (2, 0), fr(1, 3)))
    one = iterate_walls(iterate_walls(seed, [a], trunc), [b], trunc)
    other = iterate_walls(iterate_walls(seed, [b], trunc), [a], trunc)
    assert one.element == other.element


_SPECS = [model_lattice(), two_gen_lattice()]


def _vectors(n, lo, hi):
    return st.tuples(*[st.integers(lo, hi)] * n)


@st.composite
def _sweeps(draw):
    """A rank -1 seed, walls of ascending slope and a truncation that keeps
    every sweep nilpotent: curve walls are capped by beta, point walls (beta
    0) have positive point degree under a degree cap."""
    spec = draw(st.sampled_from(_SPECS))
    spec = rebuilt(spec, sigma=draw(st.sampled_from([1, -1])))
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
    seed = draw(st.dictionaries(
        st.builds(KClass, st.just(-1), _vectors(spec.rank1, 0, 1), _vectors(spec.rank0, -2, 2)),
        coeffs, min_size=1, max_size=3))
    walls = {}
    for cls, c in draw(st.dictionaries(
            st.builds(KClass, st.just(0), _vectors(spec.rank1, 0, 1), _vectors(spec.rank0, -1, 2)),
            coeffs, max_size=5)).items():
        if spec.is_effective(cls.beta) if any(cls.beta) else spec.deg_point(cls.c) > 0:
            walls.setdefault(spec.nu_slope(cls), {})[cls] = c
    walls = [WallDatum(slope, TorusElement(spec, terms))
             for slope, terms in sorted(walls.items(), key=lambda t: t[0])]
    label = draw(st.sampled_from(["seed", "x"]))
    trunc = Truncation((2,) * spec.rank1, draw(st.sampled_from([fr(3), fr(7, 2)])))
    return SeedSeries(TorusElement(spec, seed), label), walls, trunc


@given(_sweeps())
@settings(deadline=None, max_examples=100)
def test_iterate_walls_matches_chained_parent_crossings(case):
    seed, walls, trunc = case
    want = seed
    for wall in walls:
        want = parent.cross_wall(want, wall, trunc)
    got = iterate_walls(seed, walls, trunc)
    assert (got.element, got.label) == (want.element, want.label)
    # no walls: the seed itself comes back, label included
    assert iterate_walls(seed, [], trunc) is seed


# -- layer-scaling mechanism of point walls -----------------------------------

def _layers(element, nq):
    out = {}
    for cls, coeff in element.terms():
        out.setdefault(cls.beta, {})[cls.c] = coeff
    return {b: LaurentPolynomial(d, nq) for b, d in out.items()}


def _filter_deg(poly, spec, cap):
    kept = {e: c for e, c in poly.items() if spec.deg_point(e) <= cap}
    return LaurentPolynomial(kept, poly.nvars)


def test_point_walls_scale_every_layer(rng):
    # When point classes pair only through the rank row, a point-supported
    # wall multiplies every curve layer of the seed by one common series,
    # so cross-multiplying layers against the starting seed is symmetric.
    spec = model_lattice()
    cap = 8
    trunc = Truncation((2,), deg_cap=fr(cap))
    for _ in range(10):
        seed_terms = {}
        for b in ((0,), (1,), (2,)):
            for _ in range(rng.randint(1, 2)):
                cls = KClass(-1, b, (rng.randint(0, 2), rng.randint(0, 2)))
                seed_terms[cls] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            seed_terms.setdefault(KClass(-1, b, (0, 0)), Fraction(1))
        seed = SeedSeries(TorusElement(spec, seed_terms))
        j_terms = {}
        for _ in range(rng.randint(1, 3)):
            c = (rng.randint(0, 2), rng.randint(0, 2))
            if spec.deg_point(c) < 1:
                c = (1, 0)
            j_terms[KClass(0, (0,), c)] = Fraction(rng.randint(-2, 2),
                                                   rng.randint(1, 2))
        wall = WallDatum(INF, TorusElement(spec, j_terms))
        out = iterate_walls(seed, [wall], trunc).element
        out_layers = _layers(out, spec.rank0)
        seed_layers = _layers(seed.element, spec.rank0)
        for b in ((1,), (2,)):
            lhs = out_layers.get(b, _poly({}, 2)) * seed_layers[(0,)]
            rhs = out_layers[(0,)] * seed_layers[b]
            assert _filter_deg(lhs, spec, cap) == _filter_deg(rhs, spec, cap)


# -- group resummation --------------------------------------------------------

def _free_positions(r, equalities):
    return [1] + [i + 1 for i in range(1, r) if i not in equalities]


def _s_e_tuples(group, a_max):
    free = set(_free_positions(group.r, group.equalities))
    n_free = len(free)
    for js in iproduct(range(a_max + 1), repeat=n_free):
        a = []
        t = 0
        for p in range(1, group.r + 1):
            if p == 1:
                a.append(js[0])
                t = 1
            elif p in free:
                a.append(a[-1] + 1 + js[t])
                t += 1
            else:
                a.append(a[-1])
        if a and a[-1] > a_max:
            continue
        yield tuple(a)


def _run_factor(group):
    boundaries = sorted(set(range(1, group.r + 1)) - group.equalities)
    value = Fraction(1)
    prev = 0
    for n in boundaries:
        value /= math.factorial(n - prev)
        prev = n
    return value


def _brute_group_partial(group, a_max):
    """Partial sums of the group contribution via iterated brackets."""
    spec = group.context
    twists = [spec.twist(b) for b in group.betas]
    a_e = _run_factor(group)
    acc = {}
    for a in _s_e_tuples(group, a_max):
        y = TorusElement(spec, {group.alpha_prime: group.DT_value})
        for i in range(group.r):
            c_i = tuple(k + a[i] * t
                        for k, t in zip(group.kappas[i], twists[i]))
            w = TorusElement(
                spec, {KClass(0, group.betas[i], c_i): group.J_values[i]})
            y = bracket(w, y)
        for cls, coeff in y.terms():
            acc[cls.c] = acc.get(cls.c, Fraction(0)) + coeff * a_e
    return {e: v for e, v in acc.items() if v}


def _check_group_against_brute(group, a_max=8):
    spec = group.context
    brute = _brute_group_partial(group, a_max)
    f = group_resum(group, None)
    L = spec.point_degree_functional()
    base_shift = tuple(c + sum(k[j] for k in group.kappas)
                       for j, c in enumerate(group.alpha_prime.c))
    min_l = min(spec.l_of(b) for b in group.betas)
    bound = L(base_shift) + (a_max + 1) * min_l - 1
    s = expand(f, Window(L, bound))
    keys = {e for e in brute if L(e) <= bound} | {e for e, _ in s.terms()}
    for e in keys:
        assert s.coeff(e) == brute.get(e, Fraction(0))


def test_group_resum_empty_group():
    spec = model_lattice()
    group = GroupSpec(spec, KClass(-1, (0,), (1, 2)), (), (), frozenset(),
                      (), fr(5, 3), fr(0))
    f = group_resum(group, Truncation((0,)))
    assert f == RationalFunction(_poly({(1, 2): fr(5, 3)}, 2),
                                 LaurentPolynomial.constant(2, 1))


@pytest.mark.parametrize("lattice", [model_lattice, two_gen_lattice])
@pytest.mark.parametrize("sigma", [1, -1])
@pytest.mark.parametrize("dt", [fr(3, 2), fr(0)])
def test_empty_group_resums_to_the_seed_monomial_term_for_term(lattice, sigma, dt):
    # r = 0 runs through the general b-factor and chain path: its numerator
    # and denominator must be the monomial DT z^c over 1 exactly, not only
    # up to cross-multiplication
    spec = rebuilt(lattice(), sigma=sigma)
    c = tuple(range(1, spec.rank0 + 1))
    group = GroupSpec(spec, KClass(-1, (0,) * spec.rank1, c), (), (),
                      frozenset(), (), dt, fr(0))
    f = group_resum(group, None)
    assert dict(f.numerator.items()) == ({c: dt} if dt else {})
    assert dict(f.denominator.items()) == {(0,) * spec.rank0: 1}


def test_group_resum_geometric_r1():
    # constant bracket weight 1 and sigma = +1 collapse to a plain
    # geometric series in the twist direction
    spec = LatticeSpec(
        rank1=1, rank0=1,
        pairing=((0, 1, 0), (-1, 0, 0), (0, 0, 0)),
        deg=(0, 1), l=(1,), excdeg=(fr(1),),
        twist_matrix=((1,),),
        duality=((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        effgens1=((1,),), sigma=1)
    group = GroupSpec(spec, KClass(-1, (0,), (0,)), ((1,),), ((0,),),
                      frozenset(), (fr(1),), fr(1), fr(0))
    f = group_resum(group, Truncation((1,)))
    expected = RationalFunction(LaurentPolynomial.constant(1, 1),
                                _poly({(0,): 1, (1,): -1}, 1))
    assert f == expected
    _check_group_against_brute(group, a_max=20)


def test_group_resum_linear_weight_r1():
    # chi = 1 + 2a on the model lattice; the denominator picks up the
    # squared cyclotomic factor through the period-2 sign
    spec = model_lattice()
    group = GroupSpec(spec, KClass(-1, (0,), (0, 0)), ((1,),), ((0, 0),),
                      frozenset(), (fr(1),), fr(1), fr(0))
    f = group_resum(group, Truncation((1,)))
    expected = RationalFunction(
        _poly({(0, 0): -1, (2, 0): -1}, 2),
        power(_poly({(0, 0): 1, (2, 0): -1}, 2), 2))
    assert f == expected
    assert f.denominator == power(_poly({(0, 0): 1, (4, 0): -1}, 2), 2)
    _check_group_against_brute(group, a_max=20)


def test_group_weight_work_budget(monkeypatch, set_budget):
    # chi = 1 + 2a in one variable: 2 terms built and multiplied into 1,
    # then 2 residue tuples that each evaluate chi (2 terms) and sign the
    # product (2 terms)
    spec = model_lattice()
    group = GroupSpec(spec, KClass(-1, (0,), (0, 0)), ((1,),), ((0, 0),),
                      frozenset(), (fr(1),), fr(1), fr(0))
    set_budget("weights", 2 * 2 + 2 * 4)
    expected = group_resum(group, None)
    set_budget("weights", 2 * 2 + 2 * 4 - 1)
    with pytest.raises(InputError, match="work budget exceeded: resummation weights"):
        group_resum(group, None)
    monkeypatch.undo()
    assert group_resum(group, None) == expected


def _reference_b_factor(group):
    """The bracket-weight table with each sign read off chi_i evaluated at
    the residue tuple, one chi at a time."""
    spec, r = group.context, group.r
    base = [KClass(0, b, k) for b, k in zip(group.betas, group.kappas)]
    steps = [KClass(0, (0,) * spec.rank1, spec.twist(b)) for b in group.betas]

    def unit(i):
        return tuple(1 if j == i else 0 for j in range(r))

    chis, cur = [], group.alpha_prime
    product = LaurentPolynomial.constant(r, 1)
    for i in range(r):
        terms = [((0,) * r, spec.euler_pairing(base[i], cur)),
                 (unit(i), spec.euler_pairing(steps[i], cur))]
        for j in range(i):
            e_ij = tuple(x + y for x, y in zip(unit(i), unit(j)))
            terms += [(unit(j), spec.euler_pairing(base[i], steps[j])),
                      (e_ij, spec.euler_pairing(steps[i], steps[j]))]
        chis.append(LaurentPolynomial(terms, r))
        cur = cur + base[i]
        product = product * chis[-1]
    if spec.sigma == 1:
        return QuasiPolynomial(r, 1, {(0,) * r: product})
    table = {}
    for rho in iproduct((0, 1), repeat=r):
        sign = 1
        for chi in chis:
            if int(evaluate(chi, rho)) % 2:
                sign = -sign
        table[rho] = product.scale(sign)
    return QuasiPolynomial(r, 2, table)


@pytest.mark.parametrize("lattice", [model_lattice, two_gen_lattice])
@pytest.mark.parametrize("sigma", [1, -1])
def test_b_factor_matches_the_evaluated_sign_loop(rng, lattice, sigma):
    spec = rebuilt(lattice(), sigma=sigma)
    for r in range(6):
        for _ in range(20):
            group = GroupSpec(
                spec, KClass(-1, tuple(rng.randint(-2, 2) for _ in range(spec.rank1)),
                             tuple(rng.randint(-3, 3) for _ in range(spec.rank0))),
                tuple(tuple(rng.randint(0, 2) for _ in range(spec.rank1))
                      for _ in range(r)),
                tuple(tuple(rng.randint(-3, 3) for _ in range(spec.rank0))
                      for _ in range(r)),
                frozenset(), (fr(1),) * r, fr(1), fr(0))
            assert _b_factor(group) == _reference_b_factor(group)


@st.composite
def _weight_groups(draw):
    """Up to four positions on either lattice, sigma = +1 or -1, under a drawn
    pairing: on both lattices the point columns pair evenly, so only another
    pairing makes a chi's parity vary with the residues."""
    spec = draw(st.sampled_from(_SPECS))
    n = 1 + spec.rank1 + spec.rank0
    spec = rebuilt(spec, sigma=draw(st.sampled_from([1, -1])),
                   pairing=draw(st.tuples(*[_vectors(n, -2, 2)] * n)))
    r = draw(st.integers(0, 4))
    betas = draw(st.lists(_vectors(spec.rank1, 0, 2), min_size=r, max_size=r))
    kappas = draw(st.lists(_vectors(spec.rank0, -3, 3), min_size=r, max_size=r))
    alpha = KClass(-1, draw(_vectors(spec.rank1, -2, 2)), draw(_vectors(spec.rank0, -3, 3)))
    return GroupSpec(spec, alpha, tuple(betas), tuple(kappas), frozenset(), (fr(1),) * r,
                     fr(1), fr(0))


@given(_weight_groups())
@settings(deadline=None, max_examples=200)
def test_b_factor_matches_the_parent_chi_sum_table(group):
    assert _b_factor(group) == parent._b_factor(group)


def _odd_pairing(m):
    """Not antisymmetric, and with an odd entry."""
    return (any(x != -y for row, col in zip(m, zip(*m)) for x, y in zip(row, col))
            and any(x % 2 for row in m for x in row))


# rank (1+2+2), the twists of (1, 0) and (0, 1) independent point classes: on
# the other two lattices every twist is a multiple of one point class, so
# chi(twist(b), twist(b')) is symmetric under any pairing
_TWO_TWISTS = LatticeSpec(
    rank1=2, rank0=2, pairing=((0,) * 5,) * 5, deg=(1, 1, 1, 1), l=(1, 1),
    excdeg=(fr(0), fr(0)), twist_matrix=((1, 0), (0, 1)),
    duality=tuple(tuple(int(i == j) for j in range(5)) for i in range(5)),
    effgens1=((1, 0), (0, 1)), sigma=-1)


@st.composite
def _pairing_groups(draw):
    """Up to three positions on any of three lattices, sigma = +1 or -1,
    under a drawn pairing that is not antisymmetric and has odd entries, so
    that chi(a, b) and chi(b, a) differ and the signs vary; with integer
    points a."""
    spec = draw(st.sampled_from(_SPECS + [_TWO_TWISTS]))
    n = 1 + spec.rank1 + spec.rank0
    spec = rebuilt(spec, sigma=draw(st.sampled_from([1, -1])), pairing=draw(
        st.tuples(*[_vectors(n, -3, 3)] * n).filter(_odd_pairing)))
    r = draw(st.integers(1, 3))
    betas = draw(st.lists(_vectors(spec.rank1, 0, 2), min_size=r, max_size=r))
    kappas = draw(st.lists(_vectors(spec.rank0, -3, 3), min_size=r, max_size=r))
    alpha = KClass(-1, draw(_vectors(spec.rank1, -2, 2)), draw(_vectors(spec.rank0, -3, 3)))
    points = draw(st.lists(_vectors(r, -3, 3), min_size=1, max_size=4))
    return GroupSpec(spec, alpha, tuple(betas), tuple(kappas), frozenset(), (fr(1),) * r,
                     fr(1), fr(0)), points


@given(_pairing_groups())
@settings(deadline=None, max_examples=200)
def test_b_factor_is_the_signed_pairing_product_at_integer_points(case):
    # prod_i sigma^chi_i chi_i, chi_i = chi(alpha_i(a), alpha' + alpha_1(a) + ...
    # + alpha_{i-1}(a)), alpha_i(a) = (0, beta_i, kappa_i + a_i twist(beta_i))
    group, points = case
    spec, b = group.context, _b_factor(group)
    for a in points:
        expected, cur = 1, group.alpha_prime
        for beta, kappa, a_i in zip(group.betas, group.kappas, a):
            alpha_i = KClass(0, beta, tuple(k + a_i * t for k, t in zip(kappa, spec.twist(beta))))
            chi = spec.euler_pairing(alpha_i, cur)
            expected *= spec.sigma ** abs(chi) * chi
            cur = cur + alpha_i
        assert qp_value(b, a) == expected


def test_exponential_factor_matches_the_parent_loop_on_every_equality_set():
    spec = model_lattice()
    for r in range(7):
        for eqs in itertools.chain.from_iterable(
                itertools.combinations(range(1, r), k) for k in range(r)):
            group = GroupSpec(spec, KClass(-1, (0,), (0, 0)), ((1,),) * r, ((0, 0),) * r,
                              frozenset(eqs), (fr(1),) * r, fr(1), fr(0))
            value = _exponential_factor(group)
            assert type(value) is Fraction
            assert value == parent._exponential_factor(group)


def test_group_resum_random_groups_match_bracket_oracle(rng):
    for _ in range(15):
        group = _random_group_two_gen(rng)
        _check_group_against_brute(group)


def _random_group_two_gen(rng):
    # the deg row also weights the second curve coordinate, so the slope
    # of (beta, c) is (beta_2 + c) / l(beta)
    spec = two_gen_lattice()
    r = rng.randint(1, 2)
    betas = [rng.choice([(1, 0), (1, 1), (2, 1)]) for _ in range(r)]
    alpha = KClass(-1, (0, 0), (rng.randint(0, 2),))
    delta0 = rng.choice([fr(0), fr(1, 2)])
    l1 = spec.l_of(betas[0])
    lo = math.ceil(delta0 * l1) - betas[0][1]
    kappas = [(rng.randint(lo, lo + l1 - 1),)]
    eqs = set()
    nu_prev = spec.nu_slope(KClass(0, betas[0], kappas[0]))
    for i in range(1, r):
        li = spec.l_of(betas[i])
        off = betas[i][1]
        exact = nu_prev * li - off
        if exact.denominator == 1 and rng.random() < 0.4:
            eqs.add(i)
            kappas.append((int(exact),))
        else:
            hi = math.floor(li * nu_prev) - off
            lo2 = math.floor(li * (nu_prev - 1)) + 1 - off
            c = rng.randint(lo2, hi)
            kappas.append((c,))
            nu_prev = Fraction(off + c, li)
    j_values = [Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 2))
                for _ in range(r)]
    dt = Fraction(rng.randint(-2, 2) or 1)
    return GroupSpec(spec, alpha, tuple(betas), tuple(kappas), frozenset(eqs),
                     tuple(j_values), dt, delta0)


def test_group_validation_errors():
    spec = model_lattice()
    alpha = KClass(-1, (0,), (0, 0))
    with pytest.raises(InputError, match="effective"):
        group_resum(GroupSpec(spec, alpha, ((-1,),), ((0, 0),), frozenset(),
                              (fr(1),), fr(1), fr(0)), None)
    with pytest.raises(InputError, match="positive l"):
        group_resum(GroupSpec(spec, alpha, ((0,),), ((0, 0),), frozenset(),
                              (fr(1),), fr(1), fr(0)), None)
    with pytest.raises(InputError, match="total group class"):
        group_resum(GroupSpec(spec, alpha, ((1,),), ((0, 0),), frozenset(),
                              (fr(1),), fr(1), fr(0)), Truncation((2,)))
    with pytest.raises(InputError, match="not minimal past the cutoff"):
        group_resum(GroupSpec(spec, alpha, ((1,),), ((2, 0),), frozenset(),
                              (fr(1),), fr(1), fr(0)), None)
    with pytest.raises(InputError, match="equal-slope positions"):
        group_resum(GroupSpec(spec, alpha, ((1,), (1,)), ((0, 0), (1, 0)),
                              frozenset({1}), (fr(1), fr(1)), fr(1), fr(0)),
                    None)
    with pytest.raises(InputError, match="not minimal for the slope chain"):
        group_resum(GroupSpec(spec, alpha, ((1,), (1,)), ((0, 0), (-2, 0)),
                              frozenset(), (fr(1), fr(1)), fr(1), fr(0)),
                    None)
    with pytest.raises(InputError, match="equal length"):
        group_resum(GroupSpec(spec, alpha, ((1,),), ((0, 0), (1, 0)),
                              frozenset(), (fr(1),), fr(1), fr(0)), None)


def test_group_json_round_trip():
    spec = model_lattice()
    group = GroupSpec(spec, KClass(-1, (0,), (1, 0)), ((1,), (1,)),
                      ((0, 0), (0, 1)), frozenset(), (fr(1, 2), fr(-1, 3)),
                      fr(2), fr(0))
    obj = {"alpha_prime": {"r": -1, "beta": [0], "c": [1, 0]},
           "betas": [[1], [1]], "kappas": [[0, 0], [0, 1]], "equalities": [],
           "J_values": ["1/2", "-1/3"], "DT_value": "2", "delta0": "0"}
    assert group_from_obj(obj, "group", spec) == group
    del obj["equalities"]  # optional, empty by default
    assert group_from_obj(obj, "group", spec) == group


# -- full sweep vs group decomposition ----------------------------------------

def _expand_coeffs(f, L, bound):
    s = expand(f, Window(L, bound))
    return dict(s.terms())


def test_iterate_walls_matches_group_decomposition():
    """Brute-force the full ascending sweep on the model lattice and
    reassemble the same element from the complete list of groups."""
    spec = model_lattice()
    deg_cap = 8
    a_max = 4
    j_a, j_b = fr(1, 2), fr(-1, 3)
    dt = fr(2)
    seed = SeedSeries(_mono(spec, -1, (0,), (0, 0), dt))
    trunc = Truncation((2,))
    walls = []
    for a in range(a_max + 1):
        walls.append(WallDatum(
            fr(a), _mono(spec, 0, (1,), (2 * a, 0), j_a)))
        walls.append(WallDatum(
            fr(a) + fr(1, 2), _mono(spec, 0, (1,), (2 * a, 1), j_b)))
    walls.sort(key=lambda w: w.slope)
    brute = iterate_walls(seed, walls, trunc).element

    alpha = KClass(-1, (0,), (0, 0))
    b1 = (1,)

    def grp(betas, kappas, eqs, js):
        return GroupSpec(spec, alpha, betas, kappas, frozenset(eqs),
                         js, dt, fr(0))

    groups = [
        grp((), (), set(), ()),
        grp((b1,), ((0, 0),), set(), (j_a,)),
        grp((b1,), ((0, 1),), set(), (j_b,)),
        grp((b1, b1), ((0, 0), (0, 0)), set(), (j_a, j_a)),
        grp((b1, b1), ((0, 0), (0, 0)), {1}, (j_a, j_a)),
        grp((b1, b1), ((0, 0), (-2, 1)), set(), (j_a, j_b)),
        grp((b1, b1), ((0, 1), (0, 0)), set(), (j_b, j_a)),
        grp((b1, b1), ((0, 1), (0, 1)), set(), (j_b, j_b)),
        grp((b1, b1), ((0, 1), (0, 1)), {1}, (j_b, j_b)),
    ]
    L = spec.point_degree_functional()
    resummed = {}
    for group in groups:
        total = tuple(map(sum, zip(group.alpha_prime.beta, *group.betas)))
        f = group_resum(group, Truncation(total))
        for e, c in _expand_coeffs(f, L, fr(deg_cap)).items():
            key = (total, e)
            acc = resummed.get(key, Fraction(0)) + c
            if acc:
                resummed[key] = acc
            else:
                resummed.pop(key, None)

    brute_map = {(cls.beta, cls.c): coeff for cls, coeff in brute.terms()
                 if spec.deg_point(cls.c) <= deg_cap}
    assert brute_map == resummed


def test_group_denominator_divides_reference_product(rng):
    for _ in range(10):
        group = _random_group_two_gen(rng)
        f = group_resum(group, None)
        ref = _reference_product(group.context, group.betas, group.equalities)
        spec = group.context
        assert _exact_quotient(ref, f.denominator,
                               spec.point_degree_functional()) is not None


def _reference_product(spec, betas, equalities):
    nq = spec.rank0
    r = len(betas)
    twists = [spec.twist(b) for b in betas]
    one = LaurentPolynomial.constant(nq, 1)
    out = one
    for m in _free_positions(r, equalities):
        w = tuple(sum(t[j] for t in twists[m - 1:]) for j in range(nq))
        factor = one - LaurentPolynomial.monomial(tuple(2 * x for x in w))
        out = out * power(factor, 2 * (r - m + 1))
    return out


def _exact_quotient(num, den, L):
    bound = max((L(e) for e, _ in num.items()), default=Fraction(0))
    s = expand(RationalFunction(num, den), Window(L, bound))
    q = LaurentPolynomial(dict(s.terms()), num.nvars)
    return q if q * den == num else None


# The model lattice's gamma wall at 1 (class (1,)) is crossed along the
# negated twist c = (-2, 0), between the point-block functionals
# deg + excdeg / gamma at gamma = 3/2 (above) and gamma = 1/2 (below).
_C_GAMMA = (-2, 0)
_L_ABOVE = LinearFunctional((fr(1, 3), fr(5, 3)))
_L_BELOW = LinearFunctional((fr(-1), fr(3)))


# -- DT/PT division -----------------------------------------------------------

def test_dtpt_ratio_trivial_cases():
    L = _L_ABOVE
    window = Window(L, fr(6))
    one = RationalFunction(LaurentPolynomial.constant(2, 1),
                           LaurentPolynomial.constant(2, 1))
    dt0 = RationalFunction(LaurentPolynomial.constant(2, 1),
                           power(_poly({(0, 0): 1, (1, 0): 1}, 2), 2))
    assert dtpt_ratio(dt0, one, window).terms() == expand(dt0, window).terms()
    ratio = dtpt_ratio(dt0, dt0, window)
    assert dict(ratio.terms()) == {(0, 0): Fraction(1)}


def test_dtpt_ratio_two_variable_layer():
    L = _L_ABOVE
    den2 = power(_poly({(0, 0): 1, (1, 0): 1}, 2), 2)
    num = _poly({(4, 4): 3}, 2)
    dt_beta = RationalFunction(num, power(den2, 2))
    dt_zero = RationalFunction(LaurentPolynomial.constant(2, 1), den2)
    pt = dtpt_ratio(dt_beta, dt_zero, Window(L, fr(16)))
    # what dividing dt_beta's expansion to 16 by dt_zero's to 8 finalizes
    assert pt.window == parent.dtpt_ratio(expand(dt_beta, Window(L, fr(16))),
                                          expand(dt_zero, Window(L, fr(8)))).window
    for m in range(4, 9):
        expected = 3 * (m - 3) * (1 if m % 2 == 0 else -1)
        assert pt.coeff((m, 4)) == expected
    assert pt.coeff((3, 4)) == 0


def test_dtpt_ratio_leading_coefficient_check():
    L = _L_ABOVE
    window = Window(L, fr(6))
    two = RationalFunction(LaurentPolynomial.constant(2, 2),
                           LaurentPolynomial.constant(2, 1))
    with pytest.raises(InputError, match="coefficient 1"):
        dtpt_ratio(two, two, window)


@pytest.mark.parametrize("terms, message", [
    ({(0, 0): 2, (1, 0): 1}, "lead with coefficient 1"),
    # (0, 1) and (1, 0) tie at L = 1; the lexicographically smaller leads
    ({(0, 1): 3, (1, 0): 1}, "lead with coefficient 1"),
    ({(0, 1): 1, (1, 0): 3}, "not invertible with respect to L"),
])
def test_dtpt_ratio_checks_the_least_term_then_invertibility(terms, message):
    L = LinearFunctional((fr(1), fr(1)))
    dt_zero = RationalFunction(_poly(terms, 2), LaurentPolynomial.constant(2, 1))
    with pytest.raises(InputError, match=message):
        dtpt_ratio(dt_zero, dt_zero, Window(L, fr(4)))


def test_dtpt_ratio_multiply_round_trip(rng):
    L = _L_ABOVE
    den = _poly({(0, 0): 1, (1, 0): 1}, 2)
    for _ in range(8):
        g1 = _poly({(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(1, 3),
                    (rng.randint(3, 4), 0): rng.randint(-3, -1)}, 2)
        f_a = RationalFunction(g1, den)
        f_b = RationalFunction(LaurentPolynomial.constant(2, 1), den)
        a, b = expand(f_a, Window(L, fr(10))), expand(f_b, Window(L, fr(10)))
        ratio = dtpt_ratio(f_a, f_b, Window(L, fr(10)))
        back = multiply(ratio, b)
        for e, c in back.terms():
            assert a.coeff(e) == c


_DTPT_COSETS = {1: Coset((1,), ((2,),)), 2: Coset((0, 1), ((1, 1),)),
                3: Coset((0, 0, 0), ((1, 0, 1), (0, 1, 1)))}


@st.composite
def _dtpt_case(draw):
    """dt, dt_zero and a window in 1-3 variables.  L may tie exponents (a
    zero or repeated coefficient), so denominators can be non-generic and
    dt_zero's least term tied; numerators may be zero, and the window may
    carry a coset.  Half the dt_zero draws are c x^a (1 + ...) over
    c x^b (1 + ...), the rest above a, b, so their expansions lead with 1."""
    n = draw(st.integers(1, 3))
    L = LinearFunctional(draw(st.tuples(*[st.sampled_from(
        [fr(1), fr(1, 2), fr(-2, 3), fr(0)])] * n)))
    exps = st.tuples(*[st.integers(-2, 2)] * n)
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)

    def poly(min_size):
        return LaurentPolynomial(draw(st.dictionaries(exps, coeffs, min_size=min_size,
                                                      max_size=4)), n)

    def unit_led():
        rest = {e: c for e, c in draw(st.dictionaries(exps, coeffs, max_size=3)).items()
                if L(e) > 0}
        return LaurentPolynomial({(0,) * n: 1, **rest}, n).shift(draw(exps))

    dt = RationalFunction(poly(0), poly(1))
    if draw(st.booleans()):
        scale = draw(coeffs)
        dt_zero = RationalFunction(unit_led().scale(scale), unit_led().scale(scale))
    else:
        dt_zero = RationalFunction(poly(0), poly(1))
    bound = draw(st.fractions(min_value=-3, max_value=6, max_denominator=2))
    coset = draw(st.sampled_from([None, _DTPT_COSETS[n]]))
    return dt, dt_zero, Window(L, bound, coset)


def _outcome(run):
    try:
        return run()
    except InputError as exc:
        return str(exc)


_ONE = LaurentPolynomial.constant(2, 1)


# dt_zero leads with 2; with (0, 1) and (1, 0) tied at L = 1; on a coset
@example((RationalFunction(_ONE, _ONE), RationalFunction(_ONE.scale(2), _ONE),
          Window(LinearFunctional((fr(1), fr(1))), fr(4))))
@example((RationalFunction(_ONE, _ONE), RationalFunction(_poly({(0, 1): 1, (1, 0): 3}, 2), _ONE),
          Window(LinearFunctional((fr(1), fr(1))), fr(4))))
@example((RationalFunction(_ONE, _ONE), RationalFunction(_ONE, _ONE),
          Window(LinearFunctional((fr(1), fr(1))), fr(4), Coset((0, 0), ((1, 1),)))))
@given(_dtpt_case())
@settings(deadline=None, max_examples=300)
def test_dtpt_ratio_matches_dividing_the_two_expansions(case):
    """The one quotient expansion equals the parent's series division of the
    two expansions, window included, or raises the parent's message."""
    dt, dt_zero, window = case
    want = _outcome(lambda: parent.dtpt_ratio(expand(dt, window), expand(dt_zero, window)))
    assert _outcome(lambda: dtpt_ratio(dt, dt_zero, window)) == want


# -- duality ------------------------------------------------------------------

def _swap_lattice():
    base = model_lattice()
    return LatticeSpec(
        rank1=1, rank0=2,
        pairing=base.pairing, deg=base.deg, l=base.l, excdeg=base.excdeg,
        twist_matrix=base.twist_matrix,
        duality=((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)),
        effgens1=base.effgens1, sigma=base.sigma)


def test_duality_identity_always_passes():
    spec = model_lattice()
    f = RationalFunction(_poly({(1, 0): 2}, 2), _poly({(0, 0): 1, (1, 1): -1}, 2))
    report = duality_check({(0,): f, (1,): f}, spec)
    assert report["all_ok"]
    assert all(e["ok"] and "first_discrepancy" not in e for e in report["entries"])


def test_duality_swap_palindromic_family():
    spec = _swap_lattice()
    sym = RationalFunction(_poly({(1, 0): 1, (0, 1): 1}, 2),
                           _poly({(0, 0): 1, (1, 1): -1}, 2))
    report = duality_check({(1,): sym}, spec)
    assert report["all_ok"]

    skew = RationalFunction(_poly({(1, 0): 2, (0, 1): 1}, 2),
                            _poly({(0, 0): 1, (1, 1): -1}, 2))
    report = duality_check({(1,): skew}, spec)
    assert not report["all_ok"]
    entry = report["entries"][0]
    assert entry["first_discrepancy"] == {"exponent": [0, 1], "coeff": "1"}


def test_duality_missing_member():
    spec = LatticeSpec(
        rank1=2, rank0=1,
        pairing=((0, 1, -1, 2), (-1, 0, 0, 0), (1, 0, 0, 0), (-2, 0, 0, 0)),
        deg=(0, 1, 1), l=(1, 1), excdeg=(fr(-1, 2),),
        twist_matrix=((1, 1),),
        duality=((1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1)),
        effgens1=((1, 0), (1, 1)), sigma=-1)
    f = RationalFunction(LaurentPolynomial.constant(1, 1),
                         _poly({(0,): 1, (1,): -1}, 1))
    with pytest.raises(InputError, match="incomplete family"):
        duality_check({(1, 0): f}, spec)
    report = duality_check({(1, 0): f, (0, 1): f}, spec)
    assert report["all_ok"]


def _point_shift_lattice():
    # duality sends beta to -beta and shifts the point class by beta
    return LatticeSpec(
        rank1=1, rank0=1,
        pairing=((0, 1, 0), (-1, 0, 0), (0, 0, 0)),
        deg=(0, 1), l=(1,), excdeg=(fr(1),),
        twist_matrix=((1,),),
        duality=((1, 0, 0), (0, -1, 0), (0, 1, 1)),
        effgens1=((1,),), sigma=1)


def test_duality_with_point_shift():
    spec = _point_shift_lattice()
    f = RationalFunction(LaurentPolynomial.constant(1, 1),
                         _poly({(0,): 1, (1,): -1}, 1))
    qf = RationalFunction(_poly({(1,): 1}, 1), _poly({(0,): 1, (1,): -1}, 1))
    assert duality_check({(1,): f, (-1,): qf}, spec)["all_ok"]
    report = duality_check({(1,): f, (-1,): f}, spec)
    assert not report["all_ok"]


def _skew_point_lattice():
    # the point block (c1, c2) -> (c1, c1 - c2) is an involution but not
    # symmetric, so its rows and its columns act differently
    return rebuilt(model_lattice(), duality=((1, 0, 0, 0), (0, 1, 0, 0),
                                             (0, 0, 1, 0), (0, 0, 1, -1)))


_DUALITY_LATTICES = (model_lattice(), _swap_lattice(), _point_shift_lattice(),
                     _skew_point_lattice())


@st.composite
def _duality_family(draw):
    """A lattice and a family over it.  Each member's image is a random
    fraction or the member's own dual, so entries both pass and fail; a
    member sometimes has one variable too many, and an image is sometimes
    missing."""
    spec = draw(st.sampled_from(_DUALITY_LATTICES))
    n0, zero_beta = spec.rank0, (0,) * spec.rank1

    def poly(nvars, min_size=0):
        exps = st.tuples(*[st.integers(-1, 2)] * nvars)
        return LaurentPolynomial(draw(st.dictionaries(exps, st.integers(-2, 2).filter(bool),
                                                      min_size=min_size, max_size=3)), nvars)

    def fraction(nvars):
        return RationalFunction(poly(nvars), poly(nvars, 1))

    def c_image(e):
        return spec.dualize(KClass(0, zero_beta, e)).c

    family = {}
    betas = st.tuples(*[st.integers(-2, 2)] * spec.rank1)
    for beta in draw(st.lists(betas, min_size=1, max_size=3, unique=True)):
        if beta in family:
            continue
        nvars = n0 + (draw(st.integers(0, 9)) == 0)
        f = family[beta] = fraction(nvars)
        img = spec.dualize(KClass(0, beta, (0,) * n0))
        if img.beta in family or not draw(st.integers(0, 9)):
            continue
        if nvars == n0 and draw(st.booleans()):  # the dual of f: both entries pass
            family[img.beta] = RationalFunction(
                parent.map_exponents(f.numerator, c_image, n0).shift(img.c),
                parent.map_exponents(f.denominator, c_image, n0))
        else:
            family[img.beta] = fraction(n0)
    return spec, family


# the swap lattice's skew member fails at (0, 1); the point-shift family
# with one member in two variables raises
@example((_swap_lattice(), {(1,): RationalFunction(_poly({(1, 0): 2, (0, 1): 1}, 2),
                                                   _poly({(0, 0): 1, (1, 1): -1}, 2))}))
@example((_point_shift_lattice(), {(1,): RationalFunction(_ONE, _ONE),
                                   (-1,): RationalFunction(_poly({(1,): 1}, 1),
                                                           _poly({(0,): 1}, 1))}))
@given(_duality_family())
@settings(deadline=None, max_examples=200)
def test_duality_check_matches_dualizing_each_exponent(case):
    """The point block applied to each polynomial gives the parent's report,
    entry by entry (image, ok and first discrepancy) and all_ok, or raises
    the parent's message."""
    spec, family = case
    want = _outcome(lambda: parent.duality_check(family, spec))
    assert _outcome(lambda: duality_check(family, spec)) == want


# -- gamma wall crossing ------------------------------------------------------

def test_cross_gamma_wall_geometric():
    spec = model_lattice()
    assert spec.gamma_walls((1,)) == [fr(1)]
    assert tuple(-x for x in spec.twist((1,))) == _C_GAMMA
    for gamma, L in [(fr(3, 2), _L_ABOVE), (fr(1, 2), _L_BELOW)]:
        assert L.coeffs == tuple(d + e / gamma for d, e in zip(spec.deg[1:], spec.excdeg))
    f = RationalFunction(LaurentPolynomial.constant(2, 1),
                         _poly({(0, 0): 1, (-2, 0): -1}, 2))
    s_up = expand(f, Window(_L_ABOVE, fr(4)))
    s_down = expand(f, Window(_L_BELOW, fr(12)))
    verdict = reexpand_check(f, s_up, s_down, _C_GAMMA)
    assert wire(verdict) == parent.reexpand_check_wire(f, s_up, s_down, _C_GAMMA)
    assert verdict["confirmed"]
    (coset,) = verdict["cosets"]
    assert coset["fit"] is not None
    fit = coset["fit"]
    assert fit.period == 1
    assert fit.degrees[0] == 0
    for k in range(coset["k_lo"], coset["k_hi"] + 1):
        assert qp_value(fit, (k,)) == 1


def _model_layer_expansions():
    f = RationalFunction(_poly({(4, 4): 3}, 2),
                         power(_poly({(0, 0): 1, (1, 0): 1}, 2), 2))
    s_up = expand(f, Window(_L_ABOVE, fr(11)))
    s_down = expand(f, Window(_L_BELOW, fr(20)))
    return f, s_up, s_down


def test_cross_gamma_wall_model_layer():
    f, s_up, s_down = _model_layer_expansions()
    verdict = reexpand_check(f, s_up, s_down, _C_GAMMA)
    assert wire(verdict) == parent.reexpand_check_wire(f, s_up, s_down, _C_GAMMA)
    assert verdict["confirmed"]
    fits = {tuple(coset["representative"]): coset["fit"]
            for coset in verdict["cosets"]}
    assert set(fits) == {(0, 4), (-1, 4)}
    even = fits[(0, 4)]
    odd = fits[(-1, 4)]
    for k in range(-3, 4):
        # difference of the two expansions at m = -2k and m = -1-2k
        assert qp_value(even, (k,)) == 9 + 6 * k
        assert qp_value(odd, (k,)) == -12 - 6 * k


def test_cross_gamma_wall_detects_corruption():
    f, s_up, s_down = _model_layer_expansions()
    broken_terms = dict(s_down.terms())
    broken_terms[(-3, 0)] = Fraction(1)
    broken = LaurentSeries(broken_terms, s_down.window)
    verdict = reexpand_check(f, s_up, broken, _C_GAMMA)
    assert wire(verdict) == parent.reexpand_check_wire(f, s_up, broken, _C_GAMMA)
    assert not verdict["all_fit"]
    assert not verdict["confirmed"]
