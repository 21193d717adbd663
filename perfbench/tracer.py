"""Outside-in tracing of `bqnet`'s layers.

The benchmark wraps public functions and methods of each module from
outside, while a traced pass runs, and restores them afterwards. Each
wrapper records a span; a span's self time is its duration minus the
time of the traced spans it called, so the self times of all layers add
up to the time spent inside ``cli.main``. Counts are taken at the same
boundaries.

A function is patched in every `bqnet` module that binds it (for example
``simpson_nodes`` in both ``quadrature`` and ``transient``); a method is
patched on every class that defines it, subclasses included.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# span name -> (module, function name)
FUNCTIONS = {
    "cli": ("bqnet.cli", "main"),
    "config.load": ("bqnet.config", "load_config"),
    "transient.pmf": ("bqnet.transient", "transient_pmf"),
    "transient.pgf": ("bqnet.transient", "transient_pgf"),
    "transient.zero_prob": ("bqnet.transient", "transient_zero_prob"),
    "transient.moments": ("bqnet.transient", "transient_moments"),
    "compound.lattice": ("bqnet.compound", "compound_lattice"),
    "quadrature.nodes": ("bqnet.quadrature", "simpson_nodes"),
    "quadrature.refine": ("bqnet.quadrature", "simpson_refine"),
    "ergodicity.ew": ("bqnet.ergodicity", "expected_batch_occupancy"),
    "simulate.run": ("bqnet.simulate", "run_simulation"),
}

# span name -> (module, class, method); subclasses that override the
# method are patched too
METHODS = {
    "kernels.build": ("bqnet.model", "NetworkModel", "build_kernel"),
    "kernels.rows": ("bqnet.kernels", "OccupancyKernel", "placement_rows"),
    "kernels.rows_many": ("bqnet.kernels", "OccupancyKernel", "placement_rows_many"),
    "compound.snapshot": ("bqnet.compound", "CompoundSnapshot", "__init__"),
    "tables.simplex": ("bqnet.tables", "SimplexIndex", "__init__"),
    "tables.write_pmf_csv": ("bqnet.tables", "LatticePMF", "to_csv"),
    "tables.write_pmf_json": ("bqnet.tables", "LatticePMF", "to_json"),
    "tables.write_sim_csv": ("bqnet.simulate", "SimulationEstimate", "to_csv"),
    "tables.write_sim_json": ("bqnet.simulate", "SimulationEstimate", "to_json"),
    "batch.pgf_gap": ("bqnet.batch", "BatchLaw", "pgf_gap"),
    "batch.sample": ("bqnet.batch", "BatchLaw", "sample_many"),
    "service.sample": ("bqnet.service", "ServiceLaw", "sample"),
}

#: Spans that are one quadrature query: the largest rule evaluated inside
#: one of them is the rule whose nodes were accepted.
QUERY_SPANS = {"transient.pmf", "transient.pgf", "transient.zero_prob",
               "transient.moments", "quadrature.refine"}

#: Per-layer self-time metrics, each the sum of these spans' self times.
SELF_TIME_METRICS = {
    "cli.self_s": ["cli"],
    "config.load_s": ["config.load"],
    "kernels.build_s": ["kernels.build"],
    "kernels.rows_s": ["kernels.rows"],
    "kernels.rows_many_s": ["kernels.rows_many"],
    "compound.snapshot_s": ["compound.snapshot"],
    "compound.lattice_s": ["compound.lattice"],
    "tables.simplex_s": ["tables.simplex"],
    "tables.write_s": ["tables.write_pmf_csv", "tables.write_pmf_json",
                       "tables.write_sim_csv", "tables.write_sim_json"],
    "transient.pmf_self_s": ["transient.pmf"],
    "transient.point_self_s": ["transient.pgf", "transient.zero_prob",
                               "transient.moments"],
    "quadrature.self_s": ["quadrature.nodes", "quadrature.refine"],
    "batch.pgf_gap_s": ["batch.pgf_gap"],
    "batch.sample_s": ["batch.sample"],
    "service.sample_s": ["service.sample"],
    "ergodicity.ew_s": ["ergodicity.ew"],
    "simulate.run_self_s": ["simulate.run"],
}

COUNT_METRICS = (
    "kernels.rows_calls", "kernels.rows_distinct_t", "kernels.rows_many_calls",
    "compound.snapshot_calls", "compound.lattice_calls", "compound.lattice_cells",
    "tables.simplex_builds", "quadrature.rules", "quadrature.nodes_evaluated",
    "quadrature.nodes_accepted", "batch.pgf_gap_calls", "batch.sample_calls",
    "batch.batches_drawn", "service.sample_calls", "service.draws",
    "ergodicity.panels",
)


class _Frame:
    __slots__ = ("name", "start", "children", "largest_rule")

    def __init__(self, name):
        self.name = name
        self.children = 0.0
        self.largest_rule = 0
        self.start = perf_counter()


class Tracer:
    """Span stack, self times per span name, and layer counts."""

    def __init__(self):
        self.self_time = defaultdict(float)
        self.counts = Counter({name: 0 for name in COUNT_METRICS})
        self._stack = []
        self._distinct_t = set()

    def wrap(self, name, fn):
        count = getattr(self, "_count_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = _Frame(name)
            self._stack.append(frame)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                duration = perf_counter() - frame.start
                self._stack.pop()
                self.self_time[name] += duration - frame.children
                if self._stack:
                    self._stack[-1].children += duration
                if ok and name in QUERY_SPANS:
                    self.counts["quadrature.nodes_accepted"] += frame.largest_rule
                if count is not None:
                    count(args, kwargs, result if ok else None)
                if not self._stack:
                    self.counts["kernels.rows_distinct_t"] += len(self._distinct_t)
                    self._distinct_t.clear()

        return traced

    # -- counts, one hook per span name that has any ------------------------

    def _count_kernels_rows(self, args, kwargs, result):
        self.counts["kernels.rows_calls"] += 1
        self._distinct_t.add(float(args[1] if len(args) > 1 else kwargs["t"]))

    def _count_kernels_rows_many(self, args, kwargs, result):
        self.counts["kernels.rows_many_calls"] += 1

    def _count_compound_snapshot(self, args, kwargs, result):
        self.counts["compound.snapshot_calls"] += 1

    def _count_compound_lattice(self, args, kwargs, result):
        self.counts["compound.lattice_calls"] += 1
        if result is not None:
            (values, _index), _tail = result
            self.counts["compound.lattice_cells"] += len(values)

    def _count_tables_simplex(self, args, kwargs, result):
        self.counts["tables.simplex_builds"] += 1

    def _count_quadrature_nodes(self, args, kwargs, result):
        m = args[2] if len(args) > 2 else kwargs["m"]
        self.counts["quadrature.rules"] += 1
        self.counts["quadrature.nodes_evaluated"] += m
        for frame in reversed(self._stack):
            if frame.name in QUERY_SPANS:
                frame.largest_rule = max(frame.largest_rule, m)
                break

    def _count_quadrature_refine(self, args, kwargs, result):
        self.counts["ergodicity.panels"] += 1

    def _count_batch_pgf_gap(self, args, kwargs, result):
        self.counts["batch.pgf_gap_calls"] += 1

    def _count_batch_sample(self, args, kwargs, result):
        self.counts["batch.sample_calls"] += 1
        self.counts["batch.batches_drawn"] += int(args[2] if len(args) > 2
                                                  else kwargs["count"])

    def _count_service_sample(self, args, kwargs, result):
        self.counts["service.sample_calls"] += 1
        self.counts["service.draws"] += int(args[2] if len(args) > 2
                                            else kwargs["size"])

    # -- results ------------------------------------------------------------

    def self_times(self):
        return {metric: sum(self.self_time[name] for name in names)
                for metric, names in SELF_TIME_METRICS.items()}

    def count_metrics(self):
        out = dict(self.counts)
        evaluated = out["quadrature.nodes_evaluated"]
        # 0 when no quadrature ran at all
        out["quadrature.useful_ratio"] = (out["quadrature.nodes_accepted"] / evaluated
                                          if evaluated else 0.0)
        return out


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out += _subclasses(sub)
    return out


def patch_targets():
    """(owner, attribute, span name) for everything the tracer wraps."""
    targets = []
    for module, *_ in [*FUNCTIONS.values(), *METHODS.values()]:
        importlib.import_module(module)
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "bqnet" or name.startswith("bqnet."))]
    for span, (module, attr) in FUNCTIONS.items():
        original = getattr(sys.modules[module], attr)
        targets += [(m, attr, span) for m in modules
                    if m.__dict__.get(attr) is original]
    for span, (module, cls_name, attr) in METHODS.items():
        base = getattr(sys.modules[module], cls_name)
        targets += [(cls, attr, span) for cls in _subclasses(base)
                    if attr in cls.__dict__]
    return targets


@contextmanager
def traced(tracer):
    """Install the tracer's wrappers; restore every original on exit."""
    patched = []
    wrappers = {}
    try:
        for owner, attr, span in patch_targets():
            original = owner.__dict__[attr]
            if id(original) not in wrappers:
                wrappers[id(original)] = tracer.wrap(span, original)
            setattr(owner, attr, wrappers[id(original)])
            patched.append((owner, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
        leftover = [f"{getattr(owner, '__name__', owner)}.{attr}"
                    for owner, attr, original in patched
                    if owner.__dict__[attr] is not original]
        if leftover:
            raise RuntimeError(f"tracer left wrappers in place: {leftover}")
