"""A fixed mutation corpus over the golden documents: every mutant must give
one JSON report on stdout and exit 0, 1 or 2, within a per-document limit.

The rule numbers the nodes of each document depth first, the root 0, and
replaces each node other than the root:
- a numeric leaf (an int, or a string of digits with an optional sign and
  denominator) by 10**6, "1000000" and 5000 in the budget-reaching documents
  (exp_ad, wallcross, expand_*, dtpt), and elsewhere by the one of them that
  its number selects;
- every node also by the structural value that its number selects, the last
  of which deletes it.
"""

import copy
import io
import json
import re
import signal
import sys

import pytest

from wallx import cli

from conftest import GOLDEN

_VALUES = (10 ** 6, "1000000", 5000)
_DELETE = object()
_STRUCTURAL = (None, [], {}, "x", 1.5, 1, -1, True, [[1]], "1/0", [None], _DELETE)
_BUDGET_REACHING = ("exp_ad", "wallcross", "expand_", "dtpt")
_NUMERIC = re.compile(r"-?\d+(/\d+)?")
_LIMIT_S = 20  # per document; the slowest take under 5 s on a 2-core host
_DOCUMENTS = sorted(p.stem for p in GOLDEN.glob("*.json") if p.stem != "malformed")


def _nodes(node, path=()):
    yield path, node
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _nodes(child, path + (key,))


def _is_numeric(value):
    return type(value) is int or (isinstance(value, str) and bool(_NUMERIC.fullmatch(value)))


def _replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _mutants(name):
    """(path, value) and the mutated document, in the rule's order."""
    doc = json.loads((GOLDEN / f"{name}.json").read_text())
    every_value = name.startswith(_BUDGET_REACHING)
    for i, (path, node) in enumerate(_nodes(doc)):
        if not path:
            continue
        values = []
        if _is_numeric(node):
            values += _VALUES if every_value else [_VALUES[i % len(_VALUES)]]
        values.append(_STRUCTURAL[i % len(_STRUCTURAL)])
        for value in values:
            yield (path, value), _replaced(doc, path, value)


class _Timeout(BaseException):
    """Raised by the alarm; not an Exception, so cli.main does not report it."""


def _alarm(signum, frame):
    raise _Timeout


def _run(doc, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    return cli.main(["--input", "-"]), out.getvalue()


@pytest.mark.parametrize("name", _DOCUMENTS)
def test_every_mutant_reports_json_and_exits_0_1_or_2(name, monkeypatch):
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        for case, doc in _mutants(name):
            signal.setitimer(signal.ITIMER_REAL, _LIMIT_S)
            try:
                status, out = _run(doc, monkeypatch)
            except _Timeout:
                pytest.fail(f"{name} {case}: no report within {_LIMIT_S} s")
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            assert status in (0, 1, 2), (name, case, out[:300])
            json.loads(out)
    finally:
        signal.signal(signal.SIGALRM, previous)


def test_the_rule_keeps_the_slow_mutants():
    # the nine mutants that took over 0.5 s when the corpus was chosen: the
    # division budget, the exp_ad round budget and the long runs below them
    slow = {("dtpt", ("window", "bound"), 5000)}
    slow |= {("expand_rational", ("window", "bound"), v) for v in _VALUES}
    slow |= {("exp_ad", ("truncation", "deg_cap"), v) for v in _VALUES}
    slow |= {("wallcross", ("truncation", "deg_cap"), v) for v in _VALUES[:2]}
    kept = {(name, path, value) for name in {n for n, _, _ in slow}
            for (path, value), _ in _mutants(name) if value in _VALUES}
    assert slow <= kept
