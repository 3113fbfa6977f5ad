"""Numerical K-theory lattice Z[O] + N1 + N0 with its pairings and slopes.

A full lattice vector is (r, beta, c): rank component, curve block, point
block.  Everything downstream (brackets, wall data, slope functions) is
parameterized by a LatticeSpec carrying the integer Euler pairing and the
grading functionals.
"""

from __future__ import annotations

import collections
import functools
import hashlib
import heapq
import itertools
import json
import operator
from dataclasses import dataclass
from fractions import Fraction

from . import jsonio
from .errors import InputError, charge
from .series import LinearFunctional, _coefficient, _dot, _exponent

IntVec = tuple[int, ...]


@functools.total_ordering
class _PlusInfinity:
    """Totally ordered above every Fraction; equal only to itself, by identity."""

    __slots__ = ()

    def __lt__(self, other):
        return False

    def __repr__(self):
        return "oo"


INF = _PlusInfinity()


class KClass(collections.namedtuple("KClass", "r beta c")):
    """Lattice vector (r, beta, c), ordered as that tuple; ``_make`` is trusted."""

    __slots__ = ()

    def __new__(cls, r, beta, c):
        # integers only: 0.5 or (0.7,) raise instead of truncating to 0
        return tuple.__new__(cls, (_exponent((r,))[0], _exponent(beta), _exponent(c)))

    def __add__(self, other: "KClass") -> "KClass":
        return KClass(self.r + other.r,
                      tuple(a + b for a, b in zip(self.beta, other.beta)),
                      tuple(a + b for a, b in zip(self.c, other.c)))

    def vector(self) -> IntVec:
        return (self.r,) + self.beta + self.c


@dataclass(frozen=True)
class LatticeSpec:
    """User-supplied lattice: pairing, gradings, twist, duality, effective cone.

    rank1 / rank0 are the sizes of the curve and point blocks; full vectors
    have length 1 + rank1 + rank0.  ``pairing`` is the integer matrix of the
    Euler form on full vectors.  ``deg`` grades N1 + N0, ``l`` grades N1,
    ``excdeg`` is a rational functional on N0.  ``twist_matrix`` has one row
    per N0 coordinate and one column per N1 coordinate and represents
    twisting by the auxiliary ample class.  ``duality`` is an involution of
    the full lattice preserving the point block.  ``effgens1`` generate the
    effective cone in N1; ``sigma`` is the integration sign.
    """

    rank1: int
    rank0: int
    pairing: tuple[tuple[int, ...], ...]
    deg: tuple[int, ...]
    l: tuple[int, ...]
    excdeg: tuple[Fraction, ...]
    twist_matrix: tuple[tuple[int, ...], ...]
    duality: tuple[tuple[int, ...], ...]
    effgens1: tuple[IntVec, ...]
    sigma: int

    def __post_init__(self):
        # integers only, as in KClass: 1.0 or 0.5 raise instead of passing through
        for name in ("rank1", "rank0", "sigma"):
            object.__setattr__(self, name, _exponent((getattr(self, name),))[0])
        n = 1 + self.rank1 + self.rank0
        if self.rank1 < 1 or self.rank0 < 1:
            raise InputError("rank1 and rank0 must be at least 1")
        for name in ("pairing", "twist_matrix", "duality", "effgens1"):
            object.__setattr__(self, name, tuple(map(_exponent, getattr(self, name))))
        object.__setattr__(self, "deg", _exponent(self.deg))
        object.__setattr__(self, "l", _exponent(self.l))
        if len(self.pairing) != n or any(len(row) != n for row in self.pairing):
            raise InputError(f"pairing must be a {n}x{n} integer matrix")
        if len(self.deg) != self.rank1 + self.rank0:
            raise InputError("deg must grade the curve and point blocks")
        if len(self.l) != self.rank1:
            raise InputError("l must grade the curve block")
        if len(self.excdeg) != self.rank0:
            raise InputError("excdeg must grade the point block")
        object.__setattr__(self, "excdeg", tuple(map(_coefficient, self.excdeg)))
        if len(self.twist_matrix) != self.rank0 or any(
                len(row) != self.rank1 for row in self.twist_matrix):
            raise InputError("twist matrix must map the curve block to the point block")
        if len(self.duality) != n or any(len(row) != n for row in self.duality):
            raise InputError(f"duality must be a {n}x{n} integer matrix")
        if self.sigma not in (1, -1):
            raise InputError("sigma must be +1 or -1")
        if not self.effgens1:
            raise InputError("at least one effective generator is required")
        for g in self.effgens1:
            if len(g) != self.rank1:
                raise InputError("effective generator length must match rank1")
            if self.l_of(g) < 1:
                raise InputError("every effective generator must have l at least 1")
        # duality is an involution preserving the point block
        ident = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        if [[_dot(row, col) for col in zip(*self.duality)] for row in self.duality] != ident:
            raise InputError("duality must square to the identity")
        for i in range(1 + self.rank1, n):
            for j in range(1 + self.rank1):
                if self.duality[j][i] != 0:
                    raise InputError("duality must preserve the point block")
        # the point grading must be positive on each point basis vector
        for i in range(self.rank0):
            if self.deg[self.rank1 + i] <= 0:
                raise InputError("deg must be positive on each point basis vector")
        # twisting must shift deg by l
        if any(self.deg_point(col) != l_j for col, l_j in zip(zip(*self.twist_matrix), self.l)):
            raise InputError("deg of the twist must equal l on the curve block")
        # the effective cone, grown on demand, and the classes below each cap
        object.__setattr__(self, "_cone", {})
        object.__setattr__(self, "_frontier", [(0, (0,) * self.rank1)])
        object.__setattr__(self, "_below_memo", {})

    # -- basic functionals ----------------------------------------------------

    def l_of(self, beta) -> int:
        return _dot(self.l, beta)

    def deg_point(self, c) -> int:
        return _dot(self.deg[self.rank1:], c)

    def twist(self, beta) -> IntVec:
        beta = self._curve(beta)
        return tuple(_dot(row, beta) for row in self.twist_matrix)

    def point_degree_functional(self) -> LinearFunctional:
        return LinearFunctional(tuple(Fraction(d) for d in self.deg[self.rank1:]))

    def euler_pairing(self, a: KClass, b: KClass) -> int:
        va, vb = a.vector(), b.vector()
        n = len(va)
        if len(vb) != n or n != 1 + self.rank1 + self.rank0:
            raise InputError("class length does not match the lattice")
        return sum(x * _dot(row, vb) for x, row in zip(va, self.pairing))

    def dualize(self, x: KClass) -> KClass:
        v = x.vector()
        if len(v) != 1 + self.rank1 + self.rank0:
            raise InputError("class length does not match the lattice")
        out = tuple(_dot(row, v) for row in self.duality)
        return KClass(out[0], out[1:1 + self.rank1], out[1 + self.rank1:])

    # -- effective cone -------------------------------------------------------

    def _curve(self, beta) -> IntVec:
        beta = _exponent(beta)
        if len(beta) != self.rank1:
            raise InputError("curve class length does not match rank1")
        return beta

    def _cone_upto(self, budget: int) -> dict:
        """Effective classes {v: l(v)} in order of l, all those with l <= budget.

        Each is a generator (l >= 1) plus one of smaller l: ``_frontier`` heaps such sums.
        """
        cone, heap = self._cone, self._frontier
        while heap and heap[0][0] <= budget:
            charge("cone", len(cone) + 1, budget)  # the class about to be popped
            l_v, v = heapq.heappop(heap)
            if v not in cone:
                cone[v] = l_v
                for g in self.effgens1:
                    heapq.heappush(heap, (l_v + self.l_of(g), tuple(map(operator.add, v, g))))
        return cone

    def _below(self, beta: IntVec) -> frozenset:
        """Effective v with beta - v effective, so l(v) <= l(beta); memoized.

        Callers pass beta as a tuple of ints, the memo key; its length is checked here.
        """
        hit = self._below_memo.get(beta)
        if hit is None:
            l_beta = self.l_of(self._curve(beta))
            cone = self._cone_upto(l_beta)
            lower = itertools.takewhile(lambda item: item[1] <= l_beta, cone.items())
            hit = self._below_memo[beta] = frozenset(
                v for v, _ in lower if tuple(map(operator.sub, beta, v)) in cone)
        return hit

    def is_effective(self, beta) -> bool:
        """beta is a nonnegative integer combination of the effective generators."""
        beta = self._curve(beta)
        return beta in self._cone_upto(self.l_of(beta))

    # -- slopes and walls -----------------------------------------------------

    def nu_slope(self, x: KClass):
        """deg/l slope of (beta, c); +oo on the point block."""
        l_val = self.l_of(x.beta)
        if l_val == 0:
            return INF
        return Fraction(_dot(self.deg, x.beta + x.c), l_val)

    def gamma_walls(self, beta) -> list[Fraction]:
        """Positive values of -excdeg(twist b) / l(b) over nonzero effective b below beta.

        deg(twist b) = l(b) by construction, and l(b) >= 1 for every nonzero effective b.
        """
        below = self._below(self._curve(beta))
        if not below:
            raise InputError("class is not effective")
        walls = {-_dot(self.excdeg, self.twist(b)) / self.l_of(b)
                 for b in below if any(b)}
        return sorted(w for w in walls if w > 0)

    # -- serialization --------------------------------------------------------

    def to_obj(self):
        return {
            "rank1": self.rank1,
            "rank0": self.rank0,
            "pairing": [list(row) for row in self.pairing],
            "deg": list(self.deg),
            "l": list(self.l),
            "excdeg": [jsonio.format_rational(x) for x in self.excdeg],
            "twistA": [list(row) for row in self.twist_matrix],
            "duality": [list(row) for row in self.duality],
            "effgens1": [list(g) for g in self.effgens1],
            "sigma": self.sigma,
        }

    def fingerprint(self) -> str:
        blob = json.dumps(self.to_obj(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def lattice_from_obj(obj, path: str = "lattice") -> LatticeSpec:
    rank1 = jsonio.field(obj, "rank1", path, jsonio.parse_int)
    rank0 = jsonio.field(obj, "rank0", path, jsonio.parse_int)
    n = 1 + rank1 + rank0
    pairing = jsonio.field(obj, "pairing", path, jsonio.parse_int_matrix, n, n)
    deg = jsonio.field(obj, "deg", path, jsonio.parse_int_vector, rank1 + rank0)
    l_row = jsonio.field(obj, "l", path, jsonio.parse_int_vector, rank1)
    excdeg = jsonio.field(obj, "excdeg", path, jsonio.parse_rational_vector, rank0)
    twist = jsonio.field(obj, "twistA", path, jsonio.parse_int_matrix, rank0, rank1)
    duality = jsonio.field(obj, "duality", path, jsonio.parse_int_matrix, n, n)
    gens = jsonio.field(obj, "effgens1", path, jsonio.parse_list,
                        jsonio.parse_int_vector, rank1,
                        message="expected a list of generators")
    sigma = jsonio.field(obj, "sigma", path, jsonio.parse_int)
    return LatticeSpec(rank1=rank1, rank0=rank0, pairing=pairing, deg=deg,
                       l=l_row, excdeg=excdeg, twist_matrix=twist,
                       duality=duality, effgens1=gens, sigma=sigma)


def kclass_from_obj(obj, path: str, spec: LatticeSpec) -> KClass:
    r = jsonio.field(obj, "r", path, jsonio.parse_int)
    beta = jsonio.field(obj, "beta", path, jsonio.parse_int_vector, spec.rank1)
    c = jsonio.field(obj, "c", path, jsonio.parse_int_vector, spec.rank0)
    return KClass(r, beta, c)


def kclass_to_obj(x: KClass):
    return {"r": x.r, "beta": list(x.beta), "c": list(x.c)}
