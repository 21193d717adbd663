"""Model configuration files: JSON schema, validation, construction.

``load_config`` parses and validates a JSON model description, reporting
every validation failure (with a field path) rather than stopping at the
first, and returns a ready :class:`~bqnet.model.NetworkModel`. Every
block obeys three rules. An object takes its own keys (a kind-keyed block
also the key that names its kind) and ``_note``, and no other key. No
value is a boolean. Each J-shaped list (a batch ``vector``,
``entry_probs`` or ``marginals``, an inline table row, ``nodes`` and each
``routing`` row) has its length checked once, by ``_sized_list``.
"""

from __future__ import annotations

import json
import os
from importlib import resources
from pathlib import Path

from .arrivals import ArrivalProcess
from .batch import BatchLaw, UnivariateLaw
from .errors import ValidationError
from .model import AnalysisDefaults, NetworkModel, renewal_grid
from .service import ServiceLaw, ServiceNode
from .tables import read_occupancy_csv

# the types of the JSON values that are neither a container nor a boolean
_SCALARS = {int, float, str, type(None)}
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


def _find_booleans(value, path, collector):
    """Record each JSON true or false inside ``value``; no field takes one."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, item in items:
        kind = type(item)
        # one C-level pass over its types clears a container of plain values
        if kind is dict or kind is list:
            if set(map(type, item.values() if kind is dict else item)) <= _SCALARS:
                continue
        elif kind is not bool:
            continue
        item_path = (f"{path}[{key}]" if isinstance(value, list)
                     else f"{path}.{key}" if path else key)
        if kind is bool:
            collector.error(item_path, "no config value is a boolean")
        else:
            _find_booleans(item, item_path, collector)


def _check_keys(block, allowed, required, path, collector):
    """True when ``block`` is an object holding every ``required`` key; a
    key beyond ``allowed`` and ``_note`` is recorded as a failure too."""
    if not isinstance(block, dict):
        collector.error(path, "expected an object")
        return False
    if required <= block.keys() <= allowed:
        return True
    extra = block.keys() - allowed - {"_note"}
    if extra:
        collector.error(path, f"unexpected keys {sorted(extra)}")
    missing = required - block.keys()
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
    if not _check_keys(block, table[kind] | {key}, table[kind] - optional, path, collector):
        return None, None
    return kind, {k: block[k] for k in table[kind] if k in block}


def _sized_list(value, size, path, collector):
    """``value`` if it is a list of ``size`` entries; else None, the failure recorded."""
    if isinstance(value, list) and len(value) == size:
        return value
    collector.error(path, f"expected a list of {size} entries")
    return None


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
        csv_path = collector.attempt(path, lambda: Path(base_dir) / block["path"])
        if csv_path is not None and not csv_path.exists():
            collector.error(path, f"batch table file {csv_path} not found")
        elif csv_path is not None:
            table_J, probs, _ = read_occupancy_csv(csv_path)
            if table_J == J:
                return probs
            collector.error(path, f"batch table has dimension {table_J}, expected {J}")
        return None
    rows = block.get("table")
    if not isinstance(rows, list):
        collector.error(path, "inline table must be a list of [n_1,...,n_J,prob] rows")
        return None
    rows = [_sized_list(row, J + 1, f"{path}[{i}]", collector) for i, row in enumerate(rows)]
    if any(row is None for row in rows):
        return None
    # BatchLaw validates the entries
    return [(tuple(row[:J]), row[J]) for row in rows]


def _build_batch(block, J, base_dir, collector):
    variant, params = _read_kind(block, "variant", _BATCH_KEYS, "batch variant", "batch",
                                 collector, optional={"table", "path"})
    if variant == "constant":
        vec = _sized_list(params["vector"], J, "batch.vector", collector)
        if vec is not None:
            return collector.attempt("batch", lambda: BatchLaw.constant(vec))
    elif variant == "iid-assignment":
        probs = _sized_list(params["entry_probs"], J, "batch.entry_probs", collector)
        law = _build_univariate(params["family"], "batch.family", collector)
        if probs is not None and law is not None:
            return collector.attempt("batch", lambda: BatchLaw.iid_assignment(law, probs))
    elif variant == "independent-marginals":
        margs = _sized_list(params["marginals"], J, "batch.marginals", collector) or []
        laws = [_build_univariate(m, f"batch.marginals[{i}]", collector)
                for i, m in enumerate(margs)]
        if laws and all(law is not None for law in laws):
            return collector.attempt("batch", lambda: BatchLaw.independent(laws))
    elif variant == "finite-table":
        table = _load_batch_table(block, J, base_dir, "batch.table", collector)
        if table is not None:
            return collector.attempt("batch", lambda: BatchLaw.finite_table(table, J))
    return None


def _build_analysis(block, collector):
    if not _check_keys(block, set(_ANALYSIS_KEYS), set(), "analysis", collector):
        return None
    fields = {}
    for key, kind in _ANALYSIS_KEYS.items():
        if key not in block:
            continue
        value = block[key]
        if not isinstance(value, (int, float)) or (
                kind is int and isinstance(value, float) and not value.is_integer()):
            collector.error(f"analysis.{key}",
                            "expected an integer" if kind is int else "expected a number")
        else:
            fields[key] = kind(value)
    return collector.attempt("analysis", lambda: AnalysisDefaults(**fields))


def _build_node(spec, J, path, collector):
    if not _check_keys(spec, {"service", "routing"}, {"service"}, path, collector):
        return None
    kind, params = _read_kind(spec["service"], "kind", _SERVICE_KEYS, "service kind",
                              f"{path}.service", collector)
    if kind is None:
        return None
    law = collector.attempt(f"{path}.service", lambda: ServiceLaw(kind, **params))
    if law is None:
        return None
    routing = spec.get("routing")
    # ServiceNode refuses an absorbing node's routing row
    if kind != "absorbing" and _sized_list(routing, J + 1, f"{path}.routing",
                                           collector) is None:
        return None
    return collector.attempt(f"{path}.routing", lambda: ServiceNode(law, routing))


def parse_config(raw, base_dir="."):
    """Validate a parsed JSON document and build the model."""
    collector = _Collector()
    if not _check_keys(raw, _ROOT_KEYS, set(), "config", collector):
        collector.raise_if_failed()
    _find_booleans(raw, "", collector)

    J = raw.get("J")
    if not isinstance(J, int) or J < 1:
        collector.error("J", "queue count must be a positive integer")
        collector.raise_if_failed()

    kind, params = _read_kind(raw.get("arrival"), "kind", _ARRIVAL_KEYS, "arrival kind",
                              "arrival", collector, optional={"phase"})
    arrival = None if kind is None else collector.attempt(
        "arrival", lambda: ArrivalProcess.constant(**params) if kind == "constant"
        else ArrivalProcess(kind, **params))

    # a kernel block that names no representation is "auto"
    kernel = raw.get("kernel", {})
    representation, kernel_spec = _read_kind(
        {"representation": "auto", **kernel} if isinstance(kernel, dict) else kernel,
        "representation", _KERNEL_KEYS, "kernel representation", "kernel", collector,
        optional={"end", "nodes"})
    if representation == "renewal-grid":
        collector.attempt("kernel", lambda: renewal_grid(kernel_spec))
    elif representation == "tabulated":
        kernel_spec["path"] = collector.attempt(
            "kernel.path", lambda: str(Path(base_dir) / kernel_spec["path"]))

    batch = _build_batch(raw.get("batch"), J, base_dir, collector)
    nodes = raw.get("nodes")
    if nodes is not None:
        nodes = [_build_node(spec, J, f"nodes[{i}]", collector)
                 for i, spec in enumerate(_sized_list(nodes, J, "nodes", collector) or [])]
    elif representation != "tabulated":
        collector.error("nodes", "missing block (required unless the kernel is tabulated)")

    analysis = _build_analysis(raw.get("analysis", {}), collector)

    # every reader records a failure for each None it returns
    collector.raise_if_failed()
    kernel_spec["representation"] = representation
    model = collector.attempt(
        "config", lambda: NetworkModel(J=J, arrival=arrival, batch=batch, nodes=nodes,
                                       kernel_spec=kernel_spec, analysis=analysis))
    collector.raise_if_failed()
    return model


def load_config(path):
    """Load, validate, and build a model from a JSON config file."""
    # a missing file raises FileNotFoundError; text that is not UTF-8 is invalid
    try:
        with open(path, "rb") as fh:
            raw = json.load(fh)
    except ValueError as exc:
        raise ValidationError([f"{path}: invalid JSON ({exc})"])
    return parse_config(raw, base_dir=os.path.dirname(path))
