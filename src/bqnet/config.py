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
from .model import AnalysisDefaults, NetworkModel
from .service import ServiceLaw, ServiceNode
from .tables import read_occupancy_csv

_ARRIVAL_KEYS = {
    "constant": {"rate"},
    "piecewise-constant": {"breakpoints", "rates"},
    "sinusoidal": {"base", "amplitude", "frequency", "phase"},
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


def _build_univariate(block, path, collector):
    if not isinstance(block, dict) or "name" not in block:
        collector.error(path, "expected an object with a 'name' key")
        return None
    name = block["name"]
    if name not in _FAMILY_KEYS:
        collector.error(path, f"unknown family {name!r}")
        return None
    if not _check_keys(block, _FAMILY_KEYS[name], _FAMILY_KEYS[name], path, collector):
        return None
    params = {k: block[k] for k in _FAMILY_KEYS[name]}

    def build():
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
    if not isinstance(block, dict) or "variant" not in block:
        collector.error(path, "expected an object with a 'variant' key")
        return None
    variant = block["variant"]
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
    if variant == "finite-table":
        table = _load_batch_table(block, J, base_dir, f"{path}.table", collector)
        if table is None:
            return None
        return collector.attempt(path, lambda: BatchLaw.finite_table(table, J))
    collector.error(path, f"unknown batch variant {variant!r}")
    return None


def _build_nodes(block, J, collector):
    if not isinstance(block, list):
        collector.error("nodes", "expected a list of node objects")
        return None
    if len(block) != J:
        collector.error("nodes", f"expected {J} nodes, got {len(block)}")
    nodes = []
    for i, spec in enumerate(block):
        path = f"nodes[{i}]"
        service_block = spec.get("service") if isinstance(spec, dict) else None
        if not isinstance(service_block, dict) or "kind" not in service_block:
            collector.error(f"{path}.service", "expected an object with a 'kind' key")
            nodes.append(None)
            continue
        kind = service_block["kind"]
        if kind not in _SERVICE_KEYS:
            collector.error(f"{path}.service", f"unknown service kind {kind!r}")
            nodes.append(None)
            continue
        if not _check_keys(service_block, _SERVICE_KEYS[kind], _SERVICE_KEYS[kind],
                           f"{path}.service", collector):
            nodes.append(None)
            continue
        law = collector.attempt(
            f"{path}.service",
            lambda: ServiceLaw(kind, **{k: service_block[k]
                                        for k in _SERVICE_KEYS[kind]}))
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

    J = raw.get("J")
    if not isinstance(J, int) or J < 1:
        collector.error("J", "queue count must be a positive integer")
        collector.raise_if_failed()

    arrival = None
    block = raw.get("arrival")
    if not isinstance(block, dict) or "kind" not in block:
        collector.error("arrival", "expected an object with a 'kind' key")
    elif block["kind"] not in _ARRIVAL_KEYS:
        collector.error("arrival", f"unknown arrival kind {block['kind']!r}")
    else:
        kind = block["kind"]
        allowed = _ARRIVAL_KEYS[kind]
        required = allowed - {"phase"}
        if _check_keys(block, allowed, required, "arrival", collector):
            params = {k: block[k] for k in allowed if k in block}
            arrival = collector.attempt("arrival",
                                        lambda: ArrivalProcess(kind, **params))

    kernel_spec = raw.get("kernel", {"representation": "auto"})
    if not isinstance(kernel_spec, dict):
        collector.error("kernel", "expected an object")
        kernel_spec = {"representation": "auto"}
    representation = kernel_spec.get("representation", "auto")
    if representation not in ("auto", "markov-uniformization", "renewal-grid",
                              "tabulated"):
        collector.error("kernel.representation",
                        f"unknown representation {representation!r}")
    if representation == "tabulated":
        if "path" not in kernel_spec:
            collector.error("kernel.path", "tabulated kernels need a CSV path")
        else:
            kernel_spec = dict(kernel_spec)
            kernel_spec["path"] = str(Path(base_dir) / kernel_spec["path"])

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

    analysis_block = raw.get("analysis", {})
    analysis = collector.attempt(
        "analysis",
        lambda: AnalysisDefaults(cap=int(analysis_block.get("cap", 20)),
                                 rtol=float(analysis_block.get("rtol", 1e-8)),
                                 seed=int(analysis_block.get("seed", 20240901))))

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
