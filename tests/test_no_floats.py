"""No floats: the sources hold no float literal, no ``float()`` call and no
``math.inf``/``math.nan``, and the public constructors and functions refuse
float input with an InputError instead of truncating it or reading it as a
binary fraction."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

import wallx
from wallx.a1model import behrend_smooth, run_a1
from wallx.errors import InputError
from wallx.lattice import KClass
from wallx.poisson import TorusElement, Truncation
from wallx.quasipoly import (QuasiPolynomial, detect_quasipoly, reexpand_check,
                             resum_orthant)
from wallx.series import (Coset, LaurentPolynomial, LinearFunctional,
                          RationalFunction, Window, expand)
from wallx.wallcross import GroupSpec, WallDatum, duality_check

from conftest import model_lattice, rebuilt

SRC = Path(wallx.__file__).parent


def _float_uses(tree):
    """(line, what) for each float literal, float() call, math.inf or math.nan."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) is float:
            yield node.lineno, "float literal"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            yield node.lineno, "float() call"
        elif (isinstance(node, ast.Attribute) and node.attr in ("inf", "nan")
              and isinstance(node.value, ast.Name) and node.value.id == "math"):
            yield node.lineno, f"math.{node.attr}"
        elif (isinstance(node, ast.ImportFrom) and node.module == "math"
              and any(a.name in ("inf", "nan") for a in node.names)):
            yield node.lineno, "math.inf or math.nan import"


def test_guard_finds_each_kind_of_float():
    source = "import math\nfrom math import nan\nx = 0.5\ny = float(x)\nz = math.inf\n"
    assert sorted(_float_uses(ast.parse(source))) == [
        (2, "math.inf or math.nan import"), (3, "float literal"),
        (4, "float() call"), (5, "math.inf")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_sources_hold_no_floats(path):
    found = list(_float_uses(ast.parse(path.read_text(), str(path))))
    assert not found, f"{path.name}: {found}"


# -- the public API refuses floats --------------------------------------------

_ONE = LinearFunctional((1,))
_X = LaurentPolynomial({(1,): 1}, 1)
_QP = QuasiPolynomial(1, 1, {(0,): _X})
_GEOMETRIC = RationalFunction(LaurentPolynomial.constant(1, 1),
                              LaurentPolynomial({(0,): 1, (1,): -1}, 1))
_SPEC = model_lattice()
_SEED = KClass(-1, (0,), (0, 0))
_POINT = RationalFunction(LaurentPolynomial.constant(2, 1),
                          LaurentPolynomial.constant(2, 1))


def _reexpand(c0):
    down = LinearFunctional((-1,))
    s_minus = expand(_GEOMETRIC, Window(down, 8))
    s_plus = expand(_GEOMETRIC, Window(_ONE, 8))
    return reexpand_check(_GEOMETRIC, s_minus, s_plus, c0)


def _group(**changes):
    fields = dict(context=_SPEC, alpha_prime=_SEED, betas=((1,),),
                  kappas=((0, 0),), equalities=frozenset(), J_values=(1,),
                  DT_value=1, delta0=0)
    return GroupSpec(**{**fields, **changes})


_FLOAT_CALLS = {
    "QuasiPolynomial.eval": lambda: _QP.eval((2.7,)),
    "resum_orthant monomial": lambda: resum_orthant(_QP, [(1.5,)], _ONE),
    "reexpand_check c0": lambda: _reexpand((1.5,)),
    "detect_quasipoly value": lambda: detect_quasipoly({0: 0.1, 1: 0.1, 2: 0.1}),
    "detect_quasipoly n": lambda: detect_quasipoly({0.0: 1, 1.0: 1, 2.0: 1}),
    "detect_quasipoly den": lambda: detect_quasipoly({0: 1, 1: 1, 2: 1}, den=3.0),
    "LinearFunctional": lambda: LinearFunctional((0.1,)),
    "Window bound": lambda: Window(_ONE, 0.1),
    "Coset base": lambda: Coset((0.7,), ()),
    "Coset generator": lambda: Coset((0,), ((2.0,),)),
    "Coset.representative": lambda: Coset((0,), ((2,),)).representative((1.5,)),
    "Coset.contains": lambda: Coset((0,), ((2,),)).contains((1.5,)),
    "Truncation beta_cap": lambda: Truncation((2.7,), 1),
    "Truncation deg_cap": lambda: Truncation((2,), 0.1),
    "Truncation rank": lambda: Truncation((2,), 1, {-1.0}),
    "GroupSpec betas": lambda: _group(betas=((1.5,),)),
    "GroupSpec kappas": lambda: _group(kappas=((0.5, 0),)),
    "GroupSpec equalities": lambda: _group(equalities=frozenset({1.0})),
    "GroupSpec J_values": lambda: _group(J_values=(0.1,)),
    "GroupSpec DT_value": lambda: _group(DT_value=0.1),
    "GroupSpec delta0": lambda: _group(delta0=0.5),
    "WallDatum slope": lambda: WallDatum(0.5, TorusElement(_SPEC, [])),
    "LatticeSpec excdeg": lambda: rebuilt(_SPEC, excdeg=(-1.0, 1)),
    "LatticeSpec pairing": lambda: rebuilt(
        _SPEC, pairing=tuple(tuple(map(float, row)) for row in _SPEC.pairing)),
    "LatticeSpec deg": lambda: rebuilt(_SPEC, deg=(0, 1.0, 1)),
    "LatticeSpec l": lambda: rebuilt(_SPEC, l=(2.0,)),
    "LatticeSpec twist_matrix": lambda: rebuilt(
        _SPEC, twist_matrix=((2.0,), (0,))),
    "LatticeSpec duality": lambda: rebuilt(
        _SPEC, duality=tuple(tuple(map(float, row)) for row in _SPEC.duality)),
    "LatticeSpec effgens1": lambda: rebuilt(_SPEC, effgens1=((1.0,),)),
    "LatticeSpec sigma": lambda: rebuilt(_SPEC, sigma=-1.0),
    "LatticeSpec rank0": lambda: rebuilt(_SPEC, rank0=2.0),
    "LatticeSpec rank1": lambda: rebuilt(_SPEC, rank1=1.0),
    "is_effective": lambda: _SPEC.is_effective((0.5,)),
    "gamma_walls": lambda: _SPEC.gamma_walls((1.5,)),
    "duality_check family beta": lambda: duality_check({(1.5,): _POINT}, _SPEC),
    "behrend_smooth": lambda: behrend_smooth([1.5]),
    "run_a1 window": lambda: run_a1(8.5),
}


@pytest.mark.parametrize("name", sorted(_FLOAT_CALLS))
def test_float_input_raises(name):
    with pytest.raises(InputError, match="float|integer"):
        _FLOAT_CALLS[name]()


@pytest.mark.parametrize("den", [1, 6])
def test_detect_refuses_a_float_among_int_samples(den):
    # int samples are read as they are; the one float still meets the coefficient check
    with pytest.raises(InputError) as err:
        detect_quasipoly({0: 1, 1: 0.5, 2: 1}, den=den)
    assert err.value.message == "floats are not accepted as coefficients, got 0.5"


def test_integral_and_rational_input_still_accepted():
    assert _QP.eval((3,)) == 3
    assert Window(_ONE, Fraction(1, 10)).bound == Fraction(1, 10)
    assert Truncation((2,), "1/2").deg_cap == Fraction(1, 2)
    assert _group(J_values=("2/3",)).J_values == (Fraction(2, 3),)
    assert detect_quasipoly({0: 1, 1: 1, 2: 1}).period == 1


def test_lattice_spec_rows_are_read_as_int_tuples():
    as_lists = rebuilt(_SPEC, pairing=[list(row) for row in _SPEC.pairing],
                       deg=[0, 1, 1], effgens1=[[1]])
    assert as_lists == _SPEC and as_lists.fingerprint() == _SPEC.fingerprint()
