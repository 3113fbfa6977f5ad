from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wallx.errors import InputError
from wallx.lattice import INF, KClass, LatticeSpec, lattice_from_obj
from wallx.poisson import TorusElement, Truncation, naive_product
from wallx.series import _echelon, _exponent
from wallx.wallcross import WallDatum

import parent_kernels as parent
from conftest import fr, model_lattice, rebuilt, two_gen_lattice


def _pt(spec, c):
    return KClass(0, (0,) * spec.rank1, c)


def test_euler_pairing_matches_matrix():
    spec = model_lattice()
    o = KClass(-1, (0,), (0, 0))
    curve = KClass(0, (1,), (0, 0))
    p_plus = _pt(spec, (1, 0))
    p_minus = _pt(spec, (0, 1))
    assert spec.euler_pairing(o, curve) == -1
    assert spec.euler_pairing(curve, o) == 1
    assert spec.euler_pairing(o, p_plus) == -1
    assert spec.euler_pairing(p_plus, o) == 1
    assert spec.euler_pairing(p_plus, p_minus) == 0
    assert spec.euler_pairing(curve, p_plus) == 0


def test_euler_pairing_is_bilinear(rng):
    spec = two_gen_lattice()

    def rand_class():
        return KClass(rng.randint(-2, 2),
                      (rng.randint(-3, 3), rng.randint(-3, 3)),
                      (rng.randint(-3, 3),))

    for _ in range(50):
        a, b, c = rand_class(), rand_class(), rand_class()
        assert (spec.euler_pairing(a + b, c)
                == spec.euler_pairing(a, c) + spec.euler_pairing(b, c))
        assert (spec.euler_pairing(a, b + c)
                == spec.euler_pairing(a, b) + spec.euler_pairing(a, c))


def test_effective_cone_membership():
    spec = two_gen_lattice()
    assert spec.is_effective((0, 0))
    assert spec.is_effective((1, 0))
    assert spec.is_effective((2, 1))
    assert not spec.is_effective((0, 1))
    assert not spec.is_effective((1, 2))
    assert not spec.is_effective((-1, 0))


def test_effective_cone_deep_class_does_not_recurse():
    # 5000 generator steps: deeper than the interpreter's recursion limit
    assert model_lattice().is_effective((5000,))


def test_effective_cone_work_budget(set_budget):
    set_budget("cone", 50)
    spec = model_lattice()
    with pytest.raises(InputError, match="work budget exceeded: effective cone"):
        spec.is_effective((100,))
    with pytest.raises(InputError, match="work budget exceeded: effective cone"):
        naive_product(TorusElement(spec, {KClass(0, (1,), (0, 0)): 1}),
                      TorusElement(spec, {KClass(0, (0,), (0, 0)): 1}), Truncation((100,)))
    # the classes found before the error stay sound
    assert spec.is_effective((40,)) and not spec.is_effective((-1,))
    assert sorted(spec._below((40,))) == [(k,) for k in range(41)]


def test_effective_cone_budget_boundary(set_budget):
    # 50 classes hold (0,) ... (49,); (50,) is the 51st
    set_budget("cone", 50)
    assert model_lattice().is_effective((49,))
    with pytest.raises(InputError, match="effective cone took 50 classes short of l = 100"):
        model_lattice().is_effective((50,))


def _reference_is_effective(spec, beta, cache):
    """Depth-first downward test from beta, as is_effective ran before the
    cone was enumerated upwards; ``cache`` plays the old per-lattice memo."""
    beta = _exponent(beta)
    if len(beta) != spec.rank1:
        raise InputError("curve class length does not match rank1")
    stack = [beta]
    while stack:
        v = stack[-1]
        if v in cache:
            stack.pop()
        elif all(x == 0 for x in v):
            cache[v] = True
        elif spec.l_of(v) < 1:
            cache[v] = False
        else:
            for g in spec.effgens1:
                w = tuple(a - b for a, b in zip(v, g))
                hit = cache.get(w)
                if hit is None:
                    stack.append(w)
                    break
                if hit:
                    cache[v] = True
                    break
            else:
                cache[v] = False
    return cache[beta]


def _reference_leq_effective(spec, b1, b2, cache):
    return _reference_is_effective(spec, b1, cache) and _reference_is_effective(
        spec, tuple(a - b for a, b in zip(b2, b1)), cache)


def _reference_enumerate_below(spec, beta, cache):
    """Breadth-first upward search, then the downward test per candidate."""
    beta = _exponent(beta)
    if not _reference_is_effective(spec, beta, cache):
        raise InputError("class is not effective")
    budget = spec.l_of(beta)
    zero = (0,) * spec.rank1
    seen = {zero}
    queue = [zero]
    while queue:
        v = queue.pop()
        for g in spec.effgens1:
            w = tuple(a + b for a, b in zip(v, g))
            if w not in seen and spec.l_of(w) <= budget:
                seen.add(w)
                queue.append(w)
    return sorted(v for v in seen if _reference_is_effective(
        spec, tuple(a - b for a, b in zip(beta, v)), cache))


def _reference_gamma_walls(spec, beta, cache):
    """-excdeg(twist b) / deg_point(twist b) over the nonzero b below beta, as
    gamma_walls read it through the zeta slope before it divided by l(b)."""
    walls = set()
    for b in _reference_enumerate_below(spec, beta, cache):
        if any(b):
            tw = spec.twist(b)
            walls.add(-sum(e * t for e, t in zip(spec.excdeg, tw)) / spec.deg_point(tw))
    return sorted(w for w in walls if w > 0)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except InputError as err:
        return ("InputError", err.message)


_GENERATORS = st.lists(st.tuples(st.integers(-2, 3), st.integers(-2, 3))
                       .filter(lambda g: sum(g) >= 1), min_size=1, max_size=3)
_CLASSES = [(a, b) for a in range(-3, 7) for b in range(-3, 7)]


@settings(deadline=None, max_examples=100)
@given(gens=_GENERATORS, order=st.permutations(_CLASSES))
def test_effective_cone_matches_reference(gens, order):
    # l = (1, 1); generators may be negative in one entry or non-primitive,
    # and the random query order grows the memo from small and large l
    obj = two_gen_lattice().to_obj()
    obj["effgens1"] = [list(g) for g in gens]
    spec, cache = lattice_from_obj(obj), {}
    unit, zero = TorusElement(spec, {KClass(0, (0, 0), (0,)): 1}), TorusElement(spec, {})
    prev = order[-1]
    for beta in order:
        assert spec.is_effective(beta) == _reference_is_effective(spec, beta, cache)
        assert ((prev in spec._below(beta))
                == _reference_leq_effective(spec, prev, beta, cache))
        assert sorted(spec._below(beta)) == (
            _reference_enumerate_below(spec, beta, cache) if spec.is_effective(beta) else [])
        alpha = TorusElement(spec, {KClass(-1, prev, (beta[0],)): 1})
        kept = naive_product(alpha, unit, Truncation(beta, fr(2)))
        assert (kept == alpha) == (
            _reference_leq_effective(spec, prev, beta, cache) and beta[0] <= 2)
        assert kept in (alpha, zero)
        prev = beta
    for bad in [(1,), (1, 2, 3), (0.5, 0)]:
        for ours, ref in [(spec.is_effective, _reference_is_effective),
                          (spec.gamma_walls, _reference_gamma_walls)]:
            assert _outcome(ours, bad) == _outcome(ref, spec, bad, cache)


def test_enumerate_below_against_bruteforce():
    spec = two_gen_lattice()
    target = (3, 2)

    def brute():
        out = []
        for a in range(4):
            for b in range(4):
                v = (a + b, b)
                rest = (target[0] - v[0], target[1] - v[1])
                ok_rest = any(rest == (x + y, y) for x in range(4) for y in range(4))
                if ok_rest and v not in out:
                    out.append(v)
        return sorted(out)

    assert sorted(spec._below(target)) == brute()


def test_enumerate_below_requires_effective_input():
    spec = two_gen_lattice()
    assert not spec._below((0, 1))
    with pytest.raises(InputError, match="class is not effective"):
        spec.gamma_walls((0, 1))


def test_leq_effective():
    spec = two_gen_lattice()
    assert (1, 0) in spec._below((2, 1))
    assert (2, 1) not in spec._below((1, 0))
    assert (1, 1) not in spec._below((2, 0))


def test_nu_slope_and_infinity_ordering():
    spec = model_lattice()
    assert spec.nu_slope(_pt(spec, (3, 1))) is INF
    assert spec.nu_slope(KClass(0, (1,), (1, 1))) == fr(2, 2)
    assert spec.nu_slope(KClass(0, (2,), (1, 0))) == fr(1, 4)
    assert fr(5) < INF
    assert INF > fr(5)
    assert INF == INF
    assert not INF < INF
    assert (fr(3), fr(1)) < (INF, INF)
    assert fr(5) <= INF and INF >= fr(5) and INF <= INF and INF >= INF
    assert not INF <= fr(5) and not fr(5) >= INF and not INF > INF
    assert sorted([INF, fr(2), fr(-1)]) == [fr(-1), fr(2), INF]


def test_infinity_equals_only_itself_and_hashes_by_identity():
    for x in (fr(0), fr(10 ** 9), fr(-1, 3)):
        assert INF != x and x != INF
        assert not INF == x and not x == INF
    assert INF == INF and not INF != INF
    assert fr(10 ** 9) < INF and INF > fr(0)
    assert sorted([INF, fr(10 ** 9), fr(0)]) == [fr(0), fr(10 ** 9), INF]
    assert hash(INF) == hash(INF)
    assert {fr(1): "curve", INF: "point"}[INF] == "point"
    # WallDatum is not hashable (its torus element is not); its INF slope is
    spec = model_lattice()
    wall = WallDatum(INF, TorusElement(spec, {_pt(spec, (1, 0)): 1}))
    assert wall.slope is INF and {wall.slope, fr(1)} == {INF, fr(1)}
    assert f"past {INF}" == "past oo"


def test_gamma_walls_single_wall():
    spec = model_lattice()
    assert spec.gamma_walls((2,)) == [fr(1)]
    assert two_gen_lattice().gamma_walls((2, 1)) == [fr(1, 2)]
    no_wall = rebuilt(spec, excdeg=(fr(1), fr(1)))
    assert no_wall.gamma_walls((2,)) == []
    with pytest.raises(InputError, match="class is not effective"):
        spec.gamma_walls((-1,))


@settings(deadline=None, max_examples=50)
@given(gens=_GENERATORS, twist=st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
       excdeg=st.tuples(*[st.fractions(-3, 3, max_denominator=4)] * 2))
def test_gamma_walls_match_reference(gens, twist, excdeg):
    # l = (1, 1) and point degrees (1, 2): the twist columns (1 - 2a, a) keep
    # deg(twist b) = l(b), while excdeg(twist b) / l(b) varies with b
    a, b = twist
    spec = LatticeSpec(
        rank1=2, rank0=2, pairing=((0,) * 5,) * 5, deg=(1, 1, 1, 2), l=(1, 1),
        excdeg=excdeg, twist_matrix=((1 - 2 * a, 1 - 2 * b), (a, b)),
        duality=tuple(tuple(int(i == j) for j in range(5)) for i in range(5)),
        effgens1=tuple(gens), sigma=1)
    cache = {}
    for beta in _CLASSES:
        assert (_outcome(spec.gamma_walls, beta)
                == _outcome(_reference_gamma_walls, spec, beta, cache))


def _reference_proportional(u, v) -> bool:
    """Every 2x2 minor of the rows u, v vanishes."""
    n = len(u)
    return all(u[i] * v[j] == u[j] * v[i] for i in range(n) for j in range(i + 1, n))


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    *[st.tuples(*[st.integers(-4, 4)] * n)] * 2)))
@settings(deadline=None, max_examples=300)
@example(((0, 0), (1, 2)))
@example(((2, -4, 6), (-1, 2, -3)))
@example(((3, 0), (0, 3)))
def test_echelon_has_two_rows_exactly_when_not_proportional(pair):
    # the rank test behind Coset's independence check, against the 2x2 minors
    u, v = pair
    assert (len(_echelon(pair)) == 2) == (not _reference_proportional(u, v))


def test_dualize_is_involution(rng):
    base = model_lattice().to_obj()
    base["duality"] = [[1, 0, 0, 0],
                      [0, 1, 0, 0],
                      [0, 0, 0, 1],
                      [0, 0, 1, 0]]
    spec = lattice_from_obj(base)
    for _ in range(20):
        x = KClass(rng.randint(-2, 2), (rng.randint(-3, 3),),
                   (rng.randint(-3, 3), rng.randint(-3, 3)))
        assert spec.dualize(spec.dualize(x)) == x
    assert spec.dualize(_pt(spec, (1, 0))) == _pt(spec, (0, 1))


def test_duality_validation():
    base = model_lattice().to_obj()
    base["duality"] = [[1, 0, 0, 0],
                      [0, 1, 0, 0],
                      [0, 0, 1, 1],
                      [0, 0, 0, 1]]
    with pytest.raises(InputError, match="square to the identity"):
        lattice_from_obj(base)

    base["duality"] = [[0, 0, 1, 0],
                      [0, 1, 0, 0],
                      [1, 0, 0, 0],
                      [0, 0, 0, 1]]
    with pytest.raises(InputError, match="preserve the point block"):
        lattice_from_obj(base)


def test_twist_consistency_validation():
    base = model_lattice().to_obj()
    base["twistA"] = [[1], [0]]
    with pytest.raises(InputError, match="deg of the twist must equal l"):
        lattice_from_obj(base)


def test_twist_of_a_wrong_length_curve_class_raises_input_error():
    for spec in (model_lattice(), two_gen_lattice()):
        for beta in ((), (1,) * (spec.rank1 + 1)):
            with pytest.raises(InputError, match="curve class length does not match rank1"):
                spec.twist(beta)


def test_point_grading_positivity_validation():
    base = model_lattice().to_obj()
    base["deg"] = [0, 1, 0]
    with pytest.raises(InputError, match="positive on each point basis"):
        lattice_from_obj(base)


def test_sigma_validation():
    base = model_lattice().to_obj()
    base["sigma"] = 2
    with pytest.raises(InputError, match="sigma"):
        lattice_from_obj(base)


def test_fingerprint_is_stable_and_sensitive():
    a = model_lattice()
    b = model_lattice()
    assert a.fingerprint() == b.fingerprint()
    obj = a.to_obj()
    obj["sigma"] = 1
    assert lattice_from_obj(obj).fingerprint() != a.fingerprint()


def test_from_obj_reports_paths():
    obj = model_lattice().to_obj()
    del obj["pairing"]
    with pytest.raises(InputError) as exc:
        lattice_from_obj(obj)
    assert exc.value.path == "lattice"

    obj = model_lattice().to_obj()
    obj["excdeg"] = ["1/0", "1"]
    with pytest.raises(InputError) as exc:
        lattice_from_obj(obj)
    assert exc.value.path == "lattice.excdeg[0]"


def test_roundtrip_to_obj():
    spec = model_lattice()
    assert lattice_from_obj(spec.to_obj()) == spec


@pytest.mark.parametrize("r, beta, c", [
    (0.5, (0,), (1, 0)),
    (0, (0.7,), (1, 0)),
    (0, (0,), (1.9, 0)),
    (0, (0,), (Fraction(1), 0)),
    ("1", (0,), (1, 0)),
])
def test_kclass_rejects_non_integers(r, beta, c):
    with pytest.raises(InputError):
        KClass(r, beta, c)


def test_kclass_keeps_integer_subclasses_as_ints():
    x = KClass(True, [1], (0, 2))
    assert x == KClass(1, (1,), (0, 2))
    assert type(x.r) is int and type(x.beta) is tuple


def test_kclass_arithmetic_is_vector_arithmetic():
    # a tuple's + concatenates; KClass adds as a vector and, like a tuple,
    # has no - at all
    x, y = KClass(-1, (2, 0), (1,)), KClass(0, (1, 3), (-4,))
    total = x + y
    assert type(total) is KClass and total == KClass(-1, (3, 3), (-3,))
    assert total.vector() == (-1, 3, 3, -3)
    for op in (lambda: x - y, lambda: -x):
        with pytest.raises(TypeError):
            op()


def test_kclass_sorts_by_rank_then_curve_then_point():
    classes = [KClass(0, (1,), (0, 0)), KClass(-1, (2,), (5, 5)),
               KClass(0, (0,), (9, 9)), KClass(0, (1,), (-1, 3))]
    x = TorusElement(model_lattice(), [(cls, 1) for cls in classes])
    assert sorted(x) == [
        classes[1], classes[2], classes[3], classes[0]]


def test_kclass_repr():
    assert repr(KClass(0, (1,), (0, 0))) == "KClass(r=0, beta=(1,), c=(0, 0))"


# -- the integer maps against their index-loop forms --------------------------

@st.composite
def _involutions(draw, rank1, rank0):
    """A duality [[A, 0], [B X - X A, B]]: A and B involutive permutations of the
    rank-and-curve and the point coordinates, X an integer shear, so the square
    is the identity and the point block is preserved."""
    n = 1 + rank1 + rank0
    perm = list(range(n))
    for block in (range(1 + rank1), range(1 + rank1, n)):
        order = draw(st.permutations(list(block)))
        swaps = draw(st.integers(0, len(order) // 2))
        for a, b in zip(order[0:2 * swaps:2], order[1:2 * swaps:2]):
            perm[a], perm[b] = b, a
    shear = draw(st.lists(st.lists(st.integers(-1, 1), min_size=1 + rank1, max_size=1 + rank1),
                          min_size=rank0, max_size=rank0))
    duality = [[int(perm[i] == j) for j in range(n)] for i in range(n)]
    for i in range(rank0):
        for j in range(1 + rank1):
            duality[1 + rank1 + i][j] = (shear[perm[1 + rank1 + i] - 1 - rank1][j]
                                         - shear[i][perm[j]])
    return tuple(map(tuple, duality))


def _matrices(rows, cols, entries=st.integers(-3, 3)):
    return st.lists(st.tuples(*[entries] * cols), min_size=rows, max_size=rows).map(tuple)


@st.composite
def _drawn_lattices(draw):
    """A random integer pairing and twist, positive point degrees, l read off
    the twist so that deg(twist e_j) = l_j, and a drawn involution."""
    rank1, rank0 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    n = 1 + rank1 + rank0
    deg = draw(st.tuples(*[st.integers(-2, 2)] * rank1, *[st.integers(1, 3)] * rank0))
    twist = draw(_matrices(rank0, rank1))
    l = tuple(sum(deg[rank1 + i] * twist[i][j] for i in range(rank0)) for j in range(rank1))
    assume(max(l) >= 1)
    return LatticeSpec(
        rank1=rank1, rank0=rank0, pairing=draw(_matrices(n, n)), deg=deg, l=l,
        excdeg=draw(st.tuples(*[st.fractions(-3, 3, max_denominator=4)] * rank0)),
        twist_matrix=twist, duality=draw(_involutions(rank1, rank0)),
        effgens1=(tuple(int(j == l.index(max(l))) for j in range(rank1)),),
        sigma=draw(st.sampled_from((1, -1))))


def _classes(spec):
    ints = st.integers(-4, 4)
    return st.lists(st.builds(KClass, ints, st.tuples(*[ints] * spec.rank1),
                              st.tuples(*[ints] * spec.rank0)), min_size=1, max_size=3)


_LATTICES = st.one_of(st.sampled_from([model_lattice(), two_gen_lattice()]), _drawn_lattices())


@settings(deadline=None, max_examples=200)
@given(case=_LATTICES.flatmap(lambda spec: st.tuples(st.just(spec), _classes(spec))))
@example(case=(model_lattice(), [KClass(-1, (2,), (1, -3)), KClass(0, (0,), (3, 1))]))
@example(case=(two_gen_lattice(), [KClass(2, (1, -1), (3,)), KClass(-1, (0, 2), (-2,))]))
def test_lattice_maps_match_the_index_loops(case):
    spec, xs = case
    short = KClass(0, (), ())
    for a in xs:
        assert spec.l_of(a.beta) == parent.l_of(spec, a.beta)
        assert spec.deg_point(a.c) == parent.deg_point(spec, a.c)
        assert spec.twist(a.beta) == parent.twist(spec, a.beta)
        assert spec.nu_slope(a) == parent.nu_slope(spec, a)
        assert spec.dualize(a) == parent.dualize(spec, a)
        for b in xs + [short]:
            assert (_outcome(spec.euler_pairing, a, b)
                    == _outcome(parent.euler_pairing, spec, a, b))
    assert _outcome(spec.dualize, short) == _outcome(parent.dualize, spec, short)


@settings(deadline=None, max_examples=200)
@given(case=_drawn_lattices().flatmap(lambda spec: st.tuples(
    st.just(spec), st.one_of(_involutions(spec.rank1, spec.rank0),
                             _matrices(len(spec.pairing), len(spec.pairing), st.integers(-1, 1))),
    st.integers(0, len(spec.pairing) ** 2 - 1), st.integers(-1, 1))))
def test_involution_check_matches_the_index_loop(case):
    # an involution, one entry of it moved by -1, 0 or 1, or a random matrix
    spec, duality, at, step = case
    n = len(duality)
    rows = [list(row) for row in duality]
    rows[at // n][at % n] += step
    duality = tuple(map(tuple, rows))
    rejected = (_outcome(lambda: rebuilt(spec, duality=duality))
                == ("InputError", "duality must square to the identity"))
    assert rejected == (not parent.squares_to_identity(duality, n))


@settings(deadline=None, max_examples=200)
@given(case=_drawn_lattices().flatmap(lambda spec: st.tuples(
    st.just(spec), _matrices(spec.rank0, spec.rank1),
    st.one_of(st.none(), st.tuples(*[st.integers(-3, 6)] * spec.rank1)))))
def test_twist_grading_check_matches_the_index_loop(case):
    # l is read off the drawn twist (None) or drawn, so the check passes or not
    spec, twist, l = case
    if l is None:
        l = tuple(parent.deg_point(spec, col) for col in zip(*twist))
    assume(max(l) >= 1)
    gen = tuple(int(j == l.index(max(l))) for j in range(spec.rank1))
    outcome = _outcome(lambda: rebuilt(
        spec, twist_matrix=twist, l=l, effgens1=(gen,)))
    graded = parent.twist_shifts_deg_by_l(spec.deg, l, twist, spec.rank1, spec.rank0)
    if graded:
        assert isinstance(outcome, LatticeSpec)
    else:
        assert outcome == ("InputError", "deg of the twist must equal l on the curve block")
