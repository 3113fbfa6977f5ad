from fractions import Fraction
from pathlib import Path

import pytest

from wallx.errors import BUDGETS
from wallx.lattice import LatticeSpec

GOLDEN = Path(__file__).parent / "golden"

# One entry per pinned run: the document in GOLDEN, extra argv, the expected
# exit and the .out file, which holds the full stdout of the CLI.
GOLDEN_RUNS = [
    # r=2, p=2, degree 2
    ("resum_orthant", (), 0, "resum_orthant"),
    # r=3 with n1 == n2 and no table entry of the joint top degree
    ("resum_chain", (), 0, "resum_chain"),
    # two classes on the two-generator lattice
    ("resum_group", (), 0, "resum_group"),
    # the same group with sigma = 1, whose bracket weights carry no sign
    ("resum_group_sigma_plus", (), 0, "resum_group_sigma_plus"),
    # the same group with an odd pairing of the rank and the point class, so
    # the bracket-weight sign varies with the residues: + + - - at rho =
    # (0, 0), (0, 1), (1, 0), (1, 1)
    ("resum_group_mixed_signs", (), 0, "resum_group_mixed_signs"),
    # long-division consumers: run_a1 at window 200; expand with a rational
    # functional and a leading denominator coefficient of -3, whose ratios
    # to the other coefficients are partly non-integral; a dtpt ratio
    ("appendix_a_200", ("--window", "200"), 0, "appendix_a_200"),
    ("expand_rational", (), 0, "expand_rational"),
    ("dtpt", (), 0, "dtpt"),
    # the series table of the same expansion
    ("expand_rational", ("--format", "table"), 0, "expand_rational_table"),
    # 1/(1 - x - y) on the coset (0, 0) + Z (1, 1) of L = (1, 1)
    ("expand_coset", (), 0, "expand_coset"),
    # the same function on the coset lattice spanned by (2, 0) and (1, 1),
    # whose echelon form needs a Euclid step
    ("expand_coset_two_generators", (), 0, "expand_coset_two_generators"),
    # the --window flag overriding a document's rational bound
    ("expand_rational", ("--window", "3"), 0, "expand_rational_window"),
    # a window bound whose decimal exponent is past 4300
    ("expand_huge_exponent", (), 2, "expand_huge_exponent"),
    # every coefficient 10**4300, one digit more than str(int) will write
    ("expand_digit_limit", (), 2, "expand_digit_limit"),
    # period 3, degree 2, samples from n = -7 with rational values
    # 1/(1 - x) against its expansion at L = (1), bound 4, and against the
    # same terms with the coefficient at [3] set to 2
    ("verify_confirmed", (), 0, "verify_confirmed"),
    ("verify_refuted", (), 1, "verify_refuted"),
    ("detect_fit", (), 0, "detect_fit"),
    ("detect_nofit", (), 1, "detect_nofit"),
    # --window and --seed on a kind whose handler reads neither: exit 2 at
    # the first flag, not the unflagged report
    ("detect_fit", ("--window", "3", "--seed", "5"), 2, "detect_fit_flags"),
    # two cosets whose differences fit period 2
    ("reexpand_confirmed", (), 0, "reexpand_confirmed"),
    # one corrupted coefficient, so its coset fits nothing
    ("reexpand_rejected", (), 1, "reexpand_rejected"),
    # on the selfcheck lattice, beta [1] is (q1/2 + q2/2)/(1 - q1 q2/3), which
    # passes and has no first_discrepancy key, and beta [2] is (3/4 q1^2 q2 -
    # 5/4 q1 q2^2)/(1 - q1^2 q2^2), which fails first at exponent [1, 2]
    ("dualize_family", (), 1, "dualize_family"),
    # one class on the same lattice, whose duality swaps the point coordinates
    ("dualize_class", (), 0, "dualize_class"),
    # rank-0 x against a rank -1 y on the two-generator lattice under
    # beta_cap [2, 1] and deg_cap 5
    ("bracket", (), 0, "bracket"),
    # the untruncated naive product on the same lattice, as a flat table
    ("bracket_naive", ("--format", "table"), 0, "bracket_naive"),
    # the signed product on the model lattice with an explicit rank set
    ("star", (), 0, "star"),
    # a three-term wall acting on a rank -1 element, nilpotent through
    # beta_cap [3] and deg_cap 6
    ("exp_ad", (), 0, "exp_ad"),
    # three curve walls and a point wall swept over a labelled rank -1 seed
    ("wallcross", (), 0, "wallcross"),
    # the README's two smoke tests: the randomized sweep at its default seed
    # and the worked-model table
    ("selfcheck", (), 0, "selfcheck"),
    ("selfcheck", ("--format", "table"), 0, "selfcheck_table"),
    # the --seed flag overriding the default seed
    ("selfcheck", ("--seed", "7"), 0, "selfcheck_seed"),
    # a flag argparse refuses is a JSON error at the path "argv"
    ("selfcheck", ("--seed", "abc"), 2, "selfcheck_bad_seed"),
    ("appendix_a_table", ("--format", "table"), 0, "appendix_a_table"),
]


def fr(a, b=1):
    return Fraction(a, b)


def rebuilt(record, **changes):
    """The record with some fields changed, built again through its
    constructor, so its coercions and checks run on the new fields."""
    return type(record)(**dict(record._asdict(), **changes))


def power(poly, n: int):
    """poly multiplied by itself n >= 0 times; polynomials have no ``**``."""
    out = type(poly).constant(poly.nvars, 1)
    for _ in range(n):
        out = out * poly
    return out


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
