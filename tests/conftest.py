from fractions import Fraction

import pytest

from wallx.errors import BUDGETS
from wallx.lattice import LatticeSpec


def fr(a, b=1):
    return Fraction(a, b)


def evaluate(poly, point) -> Fraction:
    """A Laurent polynomial's value at a rational point, one Fraction power
    per variable and term: the reference for the integer evaluators."""
    point = tuple(map(Fraction, point))
    assert len(point) == poly.nvars
    total = Fraction(0)
    for e, c in poly.items():
        val = c
        for p, k in zip(point, e):
            if k:
                val *= p ** k
        total += val
    return total


def model_lattice():
    """Rank (1+1+2) lattice: one curve generator, two point classes.

    The point columns of the pairing couple only to the rank row, the twist
    doubles into the first point coordinate, and the single positive
    zeta1 wall sits at 1.
    """
    return LatticeSpec(
        rank1=1, rank0=2,
        pairing=((0, 1, 1, 0),
                 (-1, 0, 0, 0),
                 (-1, 0, 0, 0),
                 (0, 0, 0, 0)),
        deg=(0, 1, 1),
        l=(2,),
        excdeg=(fr(-1), fr(1)),
        twist_matrix=((2,), (0,)),
        duality=((1, 0, 0, 0),
                 (0, 1, 0, 0),
                 (0, 0, 1, 0),
                 (0, 0, 0, 1)),
        effgens1=((1,),),
        sigma=-1,
    )


def two_gen_lattice():
    """Rank (1+2+1) lattice with effective cone spanned by (1,0) and (1,1)."""
    return LatticeSpec(
        rank1=2, rank0=1,
        pairing=((0, 1, -1, 2),
                 (-1, 0, 0, 0),
                 (1, 0, 0, 0),
                 (-2, 0, 0, 0)),
        deg=(0, 1, 1),
        l=(1, 1),
        excdeg=(fr(-1, 2),),
        twist_matrix=((1, 1),),
        duality=((1, 0, 0, 0),
                 (0, 1, 0, 0),
                 (0, 0, 1, 0),
                 (0, 0, 0, 1)),
        effgens1=((1, 0), (1, 1)),
        sigma=-1,
    )


@pytest.fixture
def rng():
    import random
    return random.Random(20260823)


@pytest.fixture
def set_budget(monkeypatch):
    """``set_budget(stage, limit)`` lowers one work budget for the test."""
    def set_limit(stage, limit):
        monkeypatch.setitem(BUDGETS, stage, BUDGETS[stage]._replace(limit=limit))
    return set_limit
