"""Model configuration files: JSON schema, validation, construction.

``load_config`` parses and validates a JSON model description, reporting
every validation failure (with a field path) rather than stopping at the
first, and returns a ready :class:`~bqnet.model.NetworkModel`.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

from .arrivals import ArrivalProcess
from .batch import BatchLaw, UnivariateLaw
from .errors import ValidationError
from .model import AnalysisDefaults, NetworkModel, renewal_grid
from .service import ServiceLaw, ServiceNode
from .tables import read_occupancy_csv

_ROOT_KEYS = {"J", "arrival", "kernel", "batch", "nodes", "analysis"}
# the type each analysis key's value takes; a missing key keeps its default
_ANALYSIS_KEYS = {"cap": int, "rtol": float, "seed": int}
_ARRIVAL_KEYS = {
    "constant": {"rate"},
    "piecewise-constant": {"breakpoints", "rates"},
    "sinusoidal": {"base", "amplitude", "frequency", "phase"},
}
# a finite table is inline ("table") or read from a CSV ("path")
_BATCH_KEYS = {
    "constant": {"vector"},
    "iid-assignment": {"entry_probs", "family"},
    "independent-marginals": {"marginals"},
    "finite-table": {"table", "path"},
}
_FAMILY_KEYS = {
    "binomial": {"count", "prob"},
    "poisson": {"mean"},
    "negative-binomial": {"shape", "scale"},
    "logarithmic": {"rho"},
    "geometric": {"beta"},
    "zeta": {"exponent"},
    "degenerate": {"value"},
    "finite-table": {"table"},
    "log-weighted-tail": set(),
}
# the grid keys are optional; a tabulated kernel needs its path
_KERNEL_KEYS = {
    "auto": set(),
    "markov-uniformization": set(),
    "renewal-grid": {"end", "nodes"},
    "tabulated": {"path"},
}
_SERVICE_KEYS = {
    "exponential": {"rate"},
    "erlang": {"shape", "rate"},
    "deterministic": {"duration"},
    "tabulated": {"times", "values"},
    "absorbing": set(),
}


def bundled_config_path(name):
    """Filesystem path of a configuration shipped with the package."""
    if not name.endswith(".json"):
        name += ".json"
    path = resources.files("bqnet").joinpath("configs", name)
    return Path(str(path))


class _Collector:
    def __init__(self):
        self.failures = []

    def error(self, path, message):
        self.failures.append(f"{path}: {message}")

    def attempt(self, path, fn):
        """Run a constructor, folding its ValidationError into the list."""
        try:
            return fn()
        except ValidationError as exc:
            for msg in exc.failures:
                self.error(path, msg)
        except (KeyError, TypeError, ValueError) as exc:
            self.error(path, f"malformed block ({exc})")
        return None

    def raise_if_failed(self):
        if self.failures:
            raise ValidationError(self.failures)


def _check_keys(block, allowed, required, path, collector):
    extra = set(block) - allowed - {"kind", "name", "variant", "_note"}
    if extra:
        collector.error(path, f"unexpected keys {sorted(extra)}")
    missing = required - set(block)
    if missing:
        collector.error(path, f"missing keys {sorted(missing)}")
    return not missing


def _read_kind(block, key, table, noun, path, collector, optional=frozenset()):
    """``(kind, params)`` of a block whose ``key`` names a kind in ``table``,
    a map from kind to parameter keys; ``(None, None)`` once the failures
    are recorded.
    """
    if not isinstance(block, dict) or key not in block:
        collector.error(path, f"expected an object with a {key!r} key")
        return None, None
    kind = block[key]
    if not isinstance(kind, str) or kind not in table:
        collector.error(path, f"unknown {noun} {kind!r}")
        return None, None
    if not _check_keys(block, table[kind], table[kind] - optional, path, collector):
        return None, None
    return kind, {k: block[k] for k in table[kind] if k in block}


def _build_univariate(block, path, collector):
    name, params = _read_kind(block, "name", _FAMILY_KEYS, "family", path, collector)
    if name is None:
        return None

    def build():
        if name == "degenerate":
            return UnivariateLaw.degenerate(params["value"])
        if name == "finite-table":
            # object keys are strings; UnivariateLaw rejects non-integers
            table = params["table"]
            pairs = table.items() if isinstance(table, dict) else table
            params["table"] = {float(n): float(p) for n, p in pairs}
        return UnivariateLaw(name, **params)

    return collector.attempt(path, build)


def _load_batch_table(block, J, base_dir, path, collector):
    if "path" in block:
        csv_path = Path(base_dir) / block["path"]
        if not csv_path.exists():
            collector.error(path, f"batch table file {csv_path} not found")
            return None
        table_J, probs, _ = read_occupancy_csv(csv_path)
        if table_J != J:
            collector.error(path, f"batch table has dimension {table_J}, expected {J}")
            return None
        return probs
    rows = block.get("table")
    if not isinstance(rows, list):
        collector.error(path, "inline table must be a list of [n_1,...,n_J,prob] rows")
        return None
    for row in rows:
        if not isinstance(row, list) or len(row) != J + 1:
            collector.error(path, f"table row {row} needs {J + 1} entries")
            return None
    # BatchLaw validates the entries
    return [(tuple(row[:J]), row[J]) for row in rows]


def _build_batch(block, J, base_dir, collector):
    path = "batch"
    variant, _ = _read_kind(block, "variant", _BATCH_KEYS, "batch variant", path,
                            collector, optional={"table", "path"})
    if variant is None:
        return None
    if variant == "constant":
        vec = block.get("vector")
        if not isinstance(vec, list) or len(vec) != J:
            collector.error(f"{path}.vector", f"expected a {J}-vector")
            return None
        return collector.attempt(path, lambda: BatchLaw.constant(vec))
    if variant == "iid-assignment":
        probs = block.get("entry_probs")
        if not isinstance(probs, list) or len(probs) != J:
            collector.error(f"{path}.entry_probs", f"expected a {J}-vector")
            return None
        law = _build_univariate(block.get("family"), f"{path}.family", collector)
        if law is None:
            return None
        return collector.attempt(path, lambda: BatchLaw.iid_assignment(law, probs))
    if variant == "independent-marginals":
        margs = block.get("marginals")
        if not isinstance(margs, list) or len(margs) != J:
            collector.error(f"{path}.marginals", f"expected {J} marginal laws")
            return None
        laws = [_build_univariate(m, f"{path}.marginals[{i}]", collector)
                for i, m in enumerate(margs)]
        if any(law is None for law in laws):
            return None
        return collector.attempt(path, lambda: BatchLaw.independent(laws))
    # a finite table
    table = _load_batch_table(block, J, base_dir, f"{path}.table", collector)
    if table is None:
        return None
    return collector.attempt(path, lambda: BatchLaw.finite_table(table, J))


def _build_analysis(block, collector):
    if not isinstance(block, dict):
        collector.error("analysis", "expected an object")
        return None
    _check_keys(block, set(_ANALYSIS_KEYS), set(), "analysis", collector)
    fields = {}
    for key, kind in _ANALYSIS_KEYS.items():
        if key not in block:
            continue
        value = block[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)) or (
                kind is int and isinstance(value, float) and not value.is_integer()):
            collector.error(f"analysis.{key}",
                            "expected an integer" if kind is int else "expected a number")
        else:
            fields[key] = kind(value)
    return collector.attempt("analysis", lambda: AnalysisDefaults(**fields))


def _build_nodes(block, J, collector):
    if not isinstance(block, list):
        collector.error("nodes", "expected a list of node objects")
        return None
    if len(block) != J:
        collector.error("nodes", f"expected {J} nodes, got {len(block)}")
    nodes = []
    for i, spec in enumerate(block):
        path = f"nodes[{i}]"
        service = spec.get("service") if isinstance(spec, dict) else None
        kind, params = _read_kind(service, "kind", _SERVICE_KEYS, "service kind",
                                  f"{path}.service", collector)
        if kind is None:
            nodes.append(None)
            continue
        law = collector.attempt(f"{path}.service", lambda: ServiceLaw(kind, **params))
        if law is None:
            nodes.append(None)
            continue
        routing = spec.get("routing")
        if kind != "absorbing":
            if not isinstance(routing, list) or len(routing) != J + 1:
                collector.error(f"{path}.routing",
                                f"expected {J + 1} probabilities (J queues + exit)")
                nodes.append(None)
                continue
        node = collector.attempt(f"{path}.routing",
                                 lambda: ServiceNode(law, routing))
        nodes.append(node)
    if any(n is None for n in nodes):
        return None
    return nodes


def parse_config(raw, base_dir="."):
    """Validate a parsed JSON document and build the model."""
    collector = _Collector()
    if not isinstance(raw, dict):
        raise ValidationError(["config root must be a JSON object"])
    _check_keys(raw, _ROOT_KEYS, set(), "config", collector)

    J = raw.get("J")
    if not isinstance(J, int) or J < 1:
        collector.error("J", "queue count must be a positive integer")
        collector.raise_if_failed()

    arrival = None
    kind, params = _read_kind(raw.get("arrival"), "kind", _ARRIVAL_KEYS, "arrival kind",
                              "arrival", collector, optional={"phase"})
    if kind is not None:
        arrival = collector.attempt(
            "arrival", lambda: ArrivalProcess.constant(**params) if kind == "constant"
            else ArrivalProcess(kind, **params))

    kernel_spec = raw.get("kernel", {"representation": "auto"})
    if not isinstance(kernel_spec, dict):
        collector.error("kernel", "expected an object")
        kernel_spec = {"representation": "auto"}
    representation = kernel_spec.get("representation", "auto")
    if not isinstance(representation, str) or representation not in _KERNEL_KEYS:
        collector.error("kernel.representation",
                        f"unknown representation {representation!r}")
    elif _check_keys(kernel_spec, _KERNEL_KEYS[representation] | {"representation"},
                     _KERNEL_KEYS[representation] & {"path"}, "kernel", collector):
        if representation == "renewal-grid":
            collector.attempt("kernel", lambda: renewal_grid(kernel_spec))
        elif representation == "tabulated":
            kernel_spec = dict(kernel_spec)
            kernel_spec["path"] = collector.attempt(
                "kernel.path", lambda: str(Path(base_dir) / kernel_spec["path"]))

    batch = None
    if "batch" in raw:
        batch = _build_batch(raw["batch"], J, base_dir, collector)
    else:
        collector.error("batch", "missing block")

    nodes = None
    if raw.get("nodes") is not None:
        nodes = _build_nodes(raw["nodes"], J, collector)
    elif representation != "tabulated":
        collector.error("nodes", "missing block (required unless the kernel is tabulated)")

    analysis = _build_analysis(raw.get("analysis", {}), collector)

    collector.raise_if_failed()
    model = collector.attempt(
        "config", lambda: NetworkModel(J=J, arrival=arrival, batch=batch,
                                       nodes=nodes, kernel_spec=dict(kernel_spec),
                                       analysis=analysis))
    collector.raise_if_failed()
    return model


def load_config(path):
    """Load, validate, and build a model from a JSON config file."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError([f"{path}: invalid JSON ({exc})"])
    return parse_config(raw, base_dir=path.parent)
