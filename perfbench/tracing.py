"""Spans around the public calls into each wallx layer, and the per-layer
metrics computed from them.

``Tracer.installed()`` replaces each traced function by a wrapper under
its name in every ``wallx`` module namespace that holds it (so
``wallx.a1model.expand``, ``wallx.cli.resum_chain`` and
``wallx.poisson.bracket``, which ``exp_ad`` looks up at call time, are all
wrapped), and in the module-level dispatch tables that hold it, and puts
the originals back on exit.  A span is
``[name, start, end, parent index, problem id]``; spans stay in memory
until the run writes them out.  Self time is a span's duration minus the
durations of its direct children, which nest inside it.
"""

import contextlib
import functools
import importlib
import sys
import time

FUNCTIONS = [
    ("series", "expand"), ("series", "divide"), ("series", "multiply"),
    ("series", "mul_series_polynomial"), ("series", "verify_expansion"),
    ("quasipoly", "resum_orthant"), ("quasipoly", "resum_chain"),
    ("quasipoly", "detect_quasipoly"), ("quasipoly", "reexpand_check"),
    ("lattice", "lattice_from_obj"),
    ("poisson", "bracket"), ("poisson", "star_product"),
    ("poisson", "naive_product"), ("poisson", "exp_ad"),
    ("wallcross", "iterate_walls"), ("wallcross", "group_resum"),
    ("wallcross", "dtpt_ratio"), ("wallcross", "duality_check"),
    ("a1model", "run_a1"),
    ("cli", "main"),
]

METHODS = [("lattice", "LatticeSpec", "__init__"),
           ("lattice", "LatticeSpec", "gamma_walls"),
           ("lattice", "LatticeSpec", "fingerprint")]

# span name -> self-time metric
TIME_METRIC = {
    "series.divide": "series.divide_s",
    "series.expand": "series.expand_s",
    "series.multiply": "series.multiply_s",
    "series.mul_series_polynomial": "series.multiply_s",
    "series.verify_expansion": "series.verify_s",
    "quasipoly.resum_chain": "quasipoly.resum_chain_s",
    "quasipoly.resum_orthant": "quasipoly.resum_orthant_s",
    "quasipoly.detect_quasipoly": "quasipoly.detect_s",
    "quasipoly.reexpand_check": "quasipoly.reexpand_s",
    "lattice.lattice_from_obj": "lattice.self_s",
    "lattice.LatticeSpec.__init__": "lattice.self_s",
    "lattice.LatticeSpec.gamma_walls": "lattice.self_s",
    "lattice.LatticeSpec.fingerprint": "lattice.self_s",
    "poisson.bracket": "poisson.bracket_s",
    "poisson.star_product": "poisson.bracket_s",
    "poisson.naive_product": "poisson.bracket_s",
    "poisson.exp_ad": "poisson.exp_ad_s",
    "wallcross.iterate_walls": "wallcross.iterate_walls_s",
    "wallcross.group_resum": "wallcross.group_resum_s",
    "wallcross.dtpt_ratio": "wallcross.dtpt_ratio_s",
    "wallcross.duality_check": "wallcross.duality_s",
    "a1model.run_a1": "a1model.run_a1_s",
    "cli.main": "cli.self_s",
}

COUNT_METRICS = [
    "series.calls", "series.terms_out",
    "quasipoly.box_points", "quasipoly.numerator_terms",
    "lattice.calls",
    "poisson.bracket_pairs", "poisson.exp_ad_rounds",
    "wallcross.walls_crossed",
    "a1model.coeffs_checked",
    "cli.docs", "cli.bytes_out", "cli.exit_0", "cli.exit_1", "cli.exit_2",
    "cli.exceptions",
]
RATIO_METRICS = ["quasipoly.detect_fit_ratio", "poisson.kept_ratio"]

PER_LAYER = ([(m, "s") for m in dict.fromkeys(TIME_METRIC.values())]
             + [(m, "count") for m in COUNT_METRICS]
             + [(m, "ratio") for m in RATIO_METRICS]
             + [("trace.problems_per_s", "1/s"), ("trace.overhead_ratio", "ratio")])


def _degrees(qp):
    """Largest power of each variable across the residue table."""
    degs = [-1] * qp.vars
    for poly in qp.table.values():
        for e, _ in poly.items():
            for i, k in enumerate(e):
                degs[i] = max(degs[i], k)
    return degs


def _box(period, degs):
    if not degs or min(degs) < 0:
        return 0
    out = 1
    for d in degs:
        out *= period * (1 + d)
    return out


def _chain_box(qp, pattern):
    """prod over free positions m of p (1 + D_m), D_m the tail degree sum."""
    degs = _degrees(qp)
    if not degs or min(degs) < 0:
        return 0
    free = [1] + [i + 1 for i in range(1, pattern.r) if i not in pattern.equalities]
    return _box(qp.period, [sum(degs[m - 1:]) for m in free])


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.problem = None
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self.counts.update(detect_calls=0, detect_fits=0, bracket_kept=0)

    def parent_name(self, parent):
        return None if parent is None else self.spans[parent][0]

    def _count(self, name, parent, args, result):
        c = self.counts
        layer = name.split(".")[0]
        if layer == "series":
            c["series.calls"] += 1
            if name != "series.verify_expansion":
                c["series.terms_out"] += len(result.terms())
        elif layer == "lattice":
            c["lattice.calls"] += 1
        elif name == "quasipoly.resum_orthant":
            if self.parent_name(parent) != "quasipoly.resum_chain":
                c["quasipoly.box_points"] += _box(args[0].period, _degrees(args[0]))
                c["quasipoly.numerator_terms"] += len(result.numerator.items())
        elif name == "quasipoly.resum_chain":
            c["quasipoly.box_points"] += _chain_box(args[0], args[1])
            c["quasipoly.numerator_terms"] += len(result.numerator.items())
        elif name == "quasipoly.detect_quasipoly":
            c["detect_calls"] += 1
            c["detect_fits"] += result is not None
        elif name in ("poisson.bracket", "poisson.star_product", "poisson.naive_product"):
            c["poisson.bracket_pairs"] += len(args[0].terms()) * len(args[1].terms())
            c["bracket_kept"] += len(result.terms())
            if self.parent_name(parent) == "poisson.exp_ad":
                c["poisson.exp_ad_rounds"] += 1
        elif name == "wallcross.iterate_walls":
            c["wallcross.walls_crossed"] += len(args[1])
        elif name == "a1model.run_a1":
            c["a1model.coeffs_checked"] += sum(s.get("checked", 0) for s in result["steps"])

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            span = [name, 0.0, 0.0, parent, self.problem]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            self._count(name, parent, args, result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        for modname, _ in FUNCTIONS:
            importlib.import_module(f"wallx.{modname}")
        modules = [m for n, m in list(sys.modules.items())
                   if n == "wallx" or n.startswith("wallx.")]
        patches = []
        tables = [t for m in modules for t in vars(m).values() if isinstance(t, dict)]
        for modname, attr in FUNCTIONS:
            original = getattr(importlib.import_module(f"wallx.{modname}"), attr)
            wrapper = self.wrap(f"{modname}.{attr}", original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    patches.append((module, attr, original))
                    setattr(module, attr, wrapper)
            for table in tables:     # dispatch tables such as cli._PRODUCTS
                for key, value in list(table.items()):
                    if value is original:
                        patches.append((table, key, original))
                        table[key] = wrapper
        for modname, clsname, attr in METHODS:
            cls = getattr(importlib.import_module(f"wallx.{modname}"), clsname)
            original = cls.__dict__[attr]
            patches.append((cls, attr, original))
            setattr(cls, attr, self.wrap(f"{modname}.{clsname}.{attr}", original))
        try:
            yield self
        finally:
            for obj, attr, original in reversed(patches):
                if isinstance(obj, dict):
                    obj[attr] = original
                else:
                    setattr(obj, attr, original)


def self_times(spans):
    """Total self time per metric name."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        metric = TIME_METRIC[name]
        out[metric] = out.get(metric, 0.0) + (end - start) - child[i]
    return out


def layer_metrics(spans, rounds, counts, scale):
    """Per-layer metrics: self times per round over all traced rounds,
    multiplied by ``scale`` (to reference speed), and work counts from one
    round."""
    out = {m: 0.0 for m, unit in PER_LAYER if unit == "s"}
    for metric, total in self_times(spans).items():
        out[metric] = total * scale / rounds
    for m in COUNT_METRICS:
        out[m] = counts.get(m, 0)
    calls = counts.get("detect_calls", 0)
    out["quasipoly.detect_fit_ratio"] = counts.get("detect_fits", 0) / calls if calls else 0.0
    pairs = counts.get("poisson.bracket_pairs", 0)
    out["poisson.kept_ratio"] = counts.get("bracket_kept", 0) / pairs if pairs else 0.0
    return out
