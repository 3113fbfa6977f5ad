"""Work counters and output digests of the benchmark.

Run from the repository root:

    python3 -m pytest perfbench/tests -q

Each test takes a few cheap problems from a workload's round, so the
suite stays within seconds.
"""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import oracles  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402
import wallx_setup  # noqa: E402
import workloads  # noqa: E402


def _subset(name, seed, pick):
    problems, _ = workloads.ROUNDS[name](seed, wallx_setup.setup(name))
    return pick(problems)


def _by_kind(fragment, count):
    return lambda problems: [p for p in problems if fragment in p.kind][:count]


def _windows_between(lo, hi):
    def pick(problems):
        return [p for p in problems if lo <= int(p.kind[2:]) <= hi]
    return pick


def _kinds(*kinds):
    return lambda problems: [p for p in problems if p.kind.split()[0] in kinds]


# (workload, counters that repeat for a seed, those of them that change
# with it, problem picker, two seeds).  The wall-sweep classes are fixed
# per problem, so only cancellations among the seeded coefficients move
# its work; walls crossed and exp_ad rounds are the same for every seed.
CASES = [
    ("a1-report", ["series.terms_out", "a1model.coeffs_checked"],
     ["series.terms_out", "a1model.coeffs_checked"],
     _windows_between(180, 240), (1, 2)),
    ("resum-mix", ["quasipoly.box_points", "quasipoly.numerator_terms"],
     ["quasipoly.box_points", "quasipoly.numerator_terms"],
     _by_kind("group", 38), (1, 2)),
    ("wall-sweep", ["poisson.bracket_pairs", "poisson.exp_ad_rounds",
                    "wallcross.walls_crossed"],
     ["poisson.bracket_pairs"],
     _by_kind("model beta_cap=[4]", 10), (1, 2)),
    ("cli-docs", ["series.terms_out", "cli.bytes_out", "poisson.bracket_pairs"],
     ["series.terms_out", "cli.bytes_out", "poisson.bracket_pairs"],
     _kinds("expand", "bracket", "dtpt"), (1, 2)),
]


def traced_round(problems):
    run = bench.Run(problems)
    tracer = tracing.Tracer()
    counts = {}

    def on_first(results):
        counts.update(bench.round_counts(tracer, problems, results))

    with tracer.installed():
        run.rounds(0, tracer, on_first)
    return counts, run.digest(), run.failed


def untraced_digest(problems):
    run = bench.Run(problems)
    run.rounds(0)
    return run.digest()


@pytest.mark.parametrize("name,repeat,change,pick,seeds", CASES,
                         ids=[case[0] for case in CASES])
def test_counters_repeat_for_a_seed_and_change_with_it(name, repeat, change, pick, seeds):
    first, _, failed = traced_round(_subset(name, seeds[0], pick))
    again, _, _ = traced_round(_subset(name, seeds[0], pick))
    other, _, _ = traced_round(_subset(name, seeds[1], pick))
    assert failed == 0
    for counter in repeat:
        assert first[counter] > 0, counter
        assert again[counter] == first[counter], counter
    for counter in change:
        assert other[counter] != first[counter], counter


@pytest.mark.parametrize("name,repeat,change,pick,seeds", CASES,
                         ids=[case[0] for case in CASES])
def test_tracing_leaves_outputs_unchanged(name, repeat, change, pick, seeds):
    problems = _subset(name, seeds[0], pick)
    _, traced, _ = traced_round(problems)
    assert traced == untraced_digest(problems)
    assert untraced_digest(_subset(name, seeds[0], pick)) == traced


def test_tracer_restores_the_library():
    from wallx import a1model, cli, poisson, series
    before = (series.expand, a1model.expand, cli.main, poisson.bracket,
              cli.LatticeSpec.__init__, cli._PRODUCTS["bracket"])
    with tracing.Tracer().installed():
        assert a1model.expand is not before[1]
        assert poisson.bracket is not before[3]
        assert cli._PRODUCTS["bracket"] is not before[5]
    assert (series.expand, a1model.expand, cli.main, poisson.bracket,
            cli.LatticeSpec.__init__, cli._PRODUCTS["bracket"]) == before


def test_self_time_subtracts_children():
    spans = [["a1model.run_a1", 0.0, 10.0, None, 0],
             ["series.expand", 1.0, 4.0, 0, 0],
             ["series.divide", 5.0, 6.0, 0, 0]]
    out = tracing.self_times(spans)
    assert out == {"a1model.run_a1_s": 6.0, "series.expand_s": 3.0,
                   "series.divide_s": 1.0}


def test_sweep_oracle_sums_the_exponential_series():
    # On the model lattice chi(w, t^(-1,k,k,k)) = 2 for w = t^(0,1,1,1), so
    # ad_w^k of the seed is 2^k t^(-1,k,k,k); the caps keep k <= 2, then k <= 1.
    lattice = wallx_setup.MODEL_LATTICE
    seed = {(-1, 0, 0, 0): Fraction(1)}
    walls = [{(0, 1, 1, 1): Fraction(1)}]
    assert oracles.sweep(lattice, seed, walls, (2,), 10) == {
        (-1, 0, 0, 0): 1, (-1, 1, 1, 1): 2, (-1, 2, 2, 2): 2}
    assert oracles.sweep(lattice, seed, walls, (5,), 3) == {
        (-1, 0, 0, 0): 1, (-1, 1, 1, 1): 2}
    out = oracles.sweep(lattice, seed, walls, (2,), 10)
    assert oracles.sweep(lattice, out, [{(0, 1, 1, 1): Fraction(-1)}], (2,), 10) == seed


def test_tail_percentile_keeps_ten_problems_beyond():
    assert bench.tail_percentile(200) == 95
    assert bench.tail_percentile(100) == 90
    assert bench.tail_percentile(110) == 90
    assert bench.tail_percentile(50) == 80
    assert bench.tail_percentile(40) == 75


def test_percentile_interpolates_order_statistics():
    values = list(range(1, 100))
    assert bench.percentile(values, 50) == 50
    assert bench.percentile(values, 90) == 89.2
    assert bench.percentile([7.0] * 40, 75) == 7.0
