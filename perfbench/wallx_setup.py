"""Lattice data shared by the workloads, and the per-workload set-up step.

The set-up step is what ``setup_s`` times in a fresh interpreter: import
the wallx modules a workload drives and construct its lattices and model.
The same function builds the objects the in-process run uses.  The
lattice data is kept here as plain integer tuples so the oracles can use
the pairing without asking wallx for it.
"""

from fractions import Fraction

# Rank (1+1+2): one curve generator with l = 2, two point classes.  This is
# the worked model's lattice.
MODEL_LATTICE = dict(
    rank1=1, rank0=2,
    pairing=((0, 1, 1, 0),
             (-1, 0, 0, 0),
             (-1, 0, 0, 0),
             (0, 0, 0, 0)),
    deg=(0, 1, 1), l=(2,), excdeg=(Fraction(-1), Fraction(1)),
    twist_matrix=((2,), (0,)),
    duality=((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
    effgens1=((1,),), sigma=-1,
)

# Rank (1+2+1) with effective cone spanned by (1,0) and (1,1).
TWO_GEN_LATTICE = dict(
    rank1=2, rank0=1,
    pairing=((0, 1, -1, 2),
             (-1, 0, 0, 0),
             (1, 0, 0, 0),
             (-2, 0, 0, 0)),
    deg=(0, 1, 1), l=(1, 1), excdeg=(Fraction(-1, 2),),
    twist_matrix=((1, 1),),
    duality=((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
    effgens1=((1, 0), (1, 1)), sigma=-1,
)

# The model lattice with the duality swapping the two point rows.
SWAP_LATTICE = dict(MODEL_LATTICE,
                    duality=((1, 0, 0, 0), (0, 1, 0, 0),
                             (0, 0, 0, 1), (0, 0, 1, 0)))


def lattice_obj(data):
    """The CLI wire form of a lattice given as plain data."""
    return {
        "rank1": data["rank1"], "rank0": data["rank0"],
        "pairing": [list(row) for row in data["pairing"]],
        "deg": list(data["deg"]), "l": list(data["l"]),
        "excdeg": [str(x) for x in data["excdeg"]],
        "twistA": [list(row) for row in data["twist_matrix"]],
        "duality": [list(row) for row in data["duality"]],
        "effgens1": [list(g) for g in data["effgens1"]],
        "sigma": data["sigma"],
    }


def setup(workload):
    """Import what the workload drives and build its lattices and model."""
    if workload == "a1-report":
        from wallx.a1model import build_a1
        return {"model": build_a1()}
    if workload == "resum-mix":
        from wallx.lattice import LatticeSpec
        import wallx.quasipoly  # noqa: F401
        import wallx.wallcross  # noqa: F401
        return {"two_gen": LatticeSpec(**TWO_GEN_LATTICE)}
    if workload == "wall-sweep":
        from wallx.lattice import LatticeSpec
        import wallx.wallcross  # noqa: F401
        return {"model": LatticeSpec(**MODEL_LATTICE),
                "two_gen": LatticeSpec(**TWO_GEN_LATTICE)}
    if workload == "cli-docs":
        import wallx.cli
        wallx.cli.build_parser()
        return {}
    raise ValueError(f"unknown workload {workload!r}")
