"""Value records: how the eleven record types behave, and what importing the
CLI loads.

Each record is built positionally and by keyword; its fields cannot be
assigned; equal fields give equal records, and equal hashes where the type
is hashable; and its repr is ``Name(field=value, ...)``, with no derived
attribute in it.  Importing ``wallx.cli`` in a bare interpreter loads none
of ``dataclasses``, ``inspect`` and ``typing``: each costs start-up time
that every one-document ``wallx`` process pays.  The inherited ``_make`` and
``_replace`` skip a record's checks, so ``src`` calls ``_make`` only on
``KClass`` and the sparse containers, whose ``_make`` is trusted, and never
calls ``_replace``."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import wallx
from wallx.a1model import A1Model, build_a1
from wallx.lattice import KClass, LatticeSpec
from wallx.poisson import TorusElement, Truncation
from wallx.quasipoly import ChainPattern, QuasiPolynomial
from wallx.series import Coset, LaurentPolynomial, LinearFunctional, Window
from wallx.wallcross import GroupSpec, SeedSeries, WallDatum

from conftest import fr, model_lattice

_SPEC = model_lattice()
_LATTICE_FIELDS = ("rank1", "rank0", "pairing", "deg", "l", "excdeg", "twist_matrix",
                   "duality", "effgens1", "sigma")
_A1_FIELDS = ("lattice", "l_plus", "l_minus", "point_row", "orbifold_layer", "shared_layer")


def _wall_element():
    return TorusElement(_SPEC, {KClass(0, (1,), (1, 0)): fr(2, 3)})


def _seed_element():
    return TorusElement(_SPEC, {KClass(-1, (0,), (0, 0)): 1})


def _table():
    return {(0,): LaurentPolynomial({(0,): 1}, 1), (1,): LaurentPolynomial({(1,): fr(1, 2)}, 1)}


# (type, field names, a fresh tuple of field values, defaulted fields and
# their defaults, hashable)
RECORDS = [
    (LinearFunctional, ("coeffs",), lambda: ((fr(1), fr(1, 2)),), {}, True),
    (Coset, ("base", "generators"), lambda: ((0, 0), ((1, 1),)), {}, True),
    (Window, ("functional", "bound", "coset"),
     lambda: (LinearFunctional((1, 1)), fr(3), None), {"coset": None}, True),
    (LatticeSpec, _LATTICE_FIELDS,
     lambda: tuple(getattr(model_lattice(), name) for name in _LATTICE_FIELDS), {}, True),
    (Truncation, ("beta_cap", "deg_cap", "rank_set"),
     lambda: ((2,), None, frozenset({0, -1})),
     {"deg_cap": None, "rank_set": frozenset({0, -1})}, True),
    (QuasiPolynomial, ("vars", "period", "table"), lambda: (1, 2, _table()), {}, False),
    (ChainPattern, ("r", "equalities"), lambda: (3, frozenset({1})), {}, True),
    (WallDatum, ("slope", "J"), lambda: (fr(1, 2), _wall_element()), {}, False),
    (SeedSeries, ("element", "label"), lambda: (_seed_element(), "seed"), {"label": "seed"},
     False),
    (GroupSpec, ("context", "alpha_prime", "betas", "kappas", "equalities", "J_values",
                 "DT_value", "delta0"),
     lambda: (_SPEC, KClass(-1, (0,), (0, 0)), ((1,),), ((0, 0),), frozenset(), (fr(1),),
              fr(2), fr(1, 3)), {}, True),
    (A1Model, _A1_FIELDS, lambda: tuple(getattr(build_a1(), name) for name in _A1_FIELDS),
     {}, False),
]


@pytest.mark.parametrize("record_type, names, values, defaults, hashable", RECORDS,
                         ids=[entry[0].__name__ for entry in RECORDS])
def test_record_behaviour(record_type, names, values, defaults, hashable):
    record = record_type(*values())
    # keywords, and the defaulted fields left out, give the same record
    assert record_type(**dict(zip(names, values()))) == record
    given = [v for name, v in zip(names, values()) if name not in defaults]
    assert record_type(*given) == record
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    twin = record_type(*values())
    assert twin == record
    if hashable:
        assert hash(twin) == hash(record)
    else:
        with pytest.raises(TypeError, match="^unhashable type: "):
            hash(record)
    shown = ", ".join(f"{name}={getattr(record, name)!r}" for name in names)
    assert repr(record) == f"{record_type.__name__}({shown})"


def test_cli_imports_without_dataclasses_inspect_or_typing():
    # -S keeps site-packages and their .pth imports out; src goes first on the path
    code = ("import sys\n"
            f"sys.path.insert(0, {str(Path(wallx.__file__).resolve().parents[1])!r})\n"
            "import wallx.cli\n"
            "wallx.cli.build_parser()\n"
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_only_kclass_and_the_sparse_containers_are_built_unchecked():
    receivers = set()
    for path in sorted(Path(wallx.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ("_make", "_replace"):
                receivers.add(f"{ast.unparse(node.value)}.{node.attr}")
    assert receivers == {"KClass._make", "LaurentPolynomial._make", "LaurentSeries._make",
                         "TorusElement._make", "self._make"}
