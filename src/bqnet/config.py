"""Model configuration files: JSON schema, validation, construction.

``load_config`` parses and validates a JSON model description, reporting
every validation failure (with a field path) rather than stopping at the
first, and returns a ready :class:`~bqnet.model.NetworkModel`. Every
block obeys three rules. An object takes its own keys (a kind-keyed block
also the key that names its kind) and ``_note``, and no other key. No
value is a boolean. Each J-shaped list (a batch ``vector``,
``entry_probs`` or ``marginals``, an inline table row, ``nodes`` and each
``routing`` row) has its length checked once, by ``_sized_list``; those
of numbers (all but ``marginals`` and ``nodes``) are checked by
``_number_list`` to hold JSON numbers only, so a string such as ``"1"``
is refused there, not converted.

A kind table maps each kind to its builder and to its keys, which are
the file format. The arrival, batch-size family and service tables name
each kind's one constructor, which the block's keys are passed to by name
(``_build_family`` checks a finite-table family's JSON table and makes it
a dict first); the batch and kernel blocks are built by their own readers.
"""

from __future__ import annotations

import functools
import json
import os
from importlib import resources
from pathlib import Path

from .arrivals import ArrivalProcess
from .batch import BatchLaw, UnivariateLaw
from .errors import ValidationError
from .model import AnalysisDefaults, NetworkModel, renewal_grid
from .service import ABSORBING, ServiceLaw, ServiceNode
from .tables import read_occupancy_csv

# the types of the JSON values that are neither a container nor a boolean
_SCALARS = {int, float, str, type(None)}
_ROOT_KEYS = {"J", "arrival", "kernel", "batch", "nodes", "analysis"}
# the type each analysis key's value takes; a missing key keeps its default
_ANALYSIS_KEYS = {"cap": int, "rtol": float, "seed": int}
_ARRIVAL_KINDS = {
    "constant": (ArrivalProcess.constant, {"rate"}),
    "piecewise-constant": (ArrivalProcess.piecewise, {"breakpoints", "rates"}),
    "sinusoidal": (ArrivalProcess.sinusoidal, {"base", "amplitude", "frequency", "phase"}),
}
# a finite table is inline ("table") or read from a CSV ("path")
_BATCH_KINDS = {
    "constant": (None, {"vector"}),
    "iid-assignment": (None, {"entry_probs", "family"}),
    "independent-marginals": (None, {"marginals"}),
    "finite-table": (None, {"table", "path"}),
}


_FAMILY_KINDS = {
    "binomial": (UnivariateLaw.binomial, {"count", "prob"}),
    "poisson": (UnivariateLaw.poisson, {"mean"}),
    "negative-binomial": (UnivariateLaw.negative_binomial, {"shape", "scale"}),
    "logarithmic": (UnivariateLaw.logarithmic, {"rho"}),
    "geometric": (UnivariateLaw.geometric, {"beta"}),
    "zeta": (UnivariateLaw.zeta, {"exponent"}),
    "degenerate": (UnivariateLaw.degenerate, {"value"}),
    "finite-table": (UnivariateLaw.finite_table, {"table"}),
    "log-weighted-tail": (UnivariateLaw.log_weighted_tail, set()),
}
# the grid keys are optional; a tabulated kernel needs its path
_KERNEL_KINDS = {
    "auto": (None, set()),
    "markov-uniformization": (None, set()),
    "renewal-grid": (None, {"end", "nodes"}),
    "tabulated": (None, {"path"}),
}
_SERVICE_KINDS = {
    "exponential": (ServiceLaw.exponential, {"rate"}),
    "erlang": (ServiceLaw.erlang, {"shape", "rate"}),
    "deterministic": (ServiceLaw.deterministic, {"duration"}),
    "tabulated": (ServiceLaw.tabulated, {"times", "values"}),
    "absorbing": (ServiceLaw.absorbing, set()),
}


@functools.cache
def _bundled_configs_dir():
    """The package's configs directory, looked up once per process."""
    return Path(str(resources.files("bqnet").joinpath("configs")))


def bundled_config_path(name):
    """Filesystem path of a configuration shipped with the package."""
    if not name.endswith(".json"):
        name += ".json"
    return _bundled_configs_dir() / name


class _Collector:
    def __init__(self):
        self.failures = []

    def error(self, path, message):
        self.failures.append(f"{path}: {message}")

    def attempt(self, path, fn):
        """Run a constructor, folding its ValidationError into the list; a
        number too large for a float is malformed, as a bad value is."""
        try:
            return fn()
        except ValidationError as exc:
            for msg in exc.failures:
                self.error(path, msg)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
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
    a kind table, and holds that kind's keys; ``(None, None)`` once the
    failures are recorded.
    """
    if not isinstance(block, dict) or key not in block:
        collector.error(path, f"expected an object with a {key!r} key")
        return None, None
    kind = block[key]
    if not isinstance(kind, str) or kind not in table:
        collector.error(path, f"unknown {noun} {kind!r}")
        return None, None
    keys = table[kind][1]
    if not _check_keys(block, keys | {key}, keys - optional, path, collector):
        return None, None
    return kind, {k: block[k] for k in keys if k in block}


def _build_kind(block, key, table, noun, path, collector, optional=frozenset()):
    """What the builder of the kind that ``block[key]`` names in ``table``
    makes of the block's keys; None once the failures are recorded."""
    kind, params = _read_kind(block, key, table, noun, path, collector, optional)
    return None if kind is None else collector.attempt(path, lambda: table[kind][0](**params))


def _build_family(block, path, collector):
    """A batch-size family; a finite table is [n, p] pairs of JSON numbers, or
    an object from each n, a key of at most 19 digits (as 2^62 has), to p."""
    if isinstance(block, dict) and block.get("name") == "finite-table" and "table" in block:
        table = block["table"]
        pairs = ([[int(n) if n.isascii() and n.isdigit() and len(n) <= 19 else n, p]
                  for n, p in table.items()] if isinstance(table, dict) else table)
        if not (isinstance(pairs, list) and all(isinstance(pair, list) and len(pair) == 2
                                                and {type(x) for x in pair} <= {int, float}
                                                for pair in pairs)):
            collector.error(f"{path}.table", "expected [n, p] pairs of numbers, or an "
                            "object from nonnegative integers n up to 2^62 to numbers p")
            _read_kind(block, "name", _FAMILY_KINDS, "family", path, collector)  # key failures too
            return None
        block = {**block, "table": dict(pairs)}
    return _build_kind(block, "name", _FAMILY_KINDS, "family", path, collector)


def _sized_list(value, size, path, collector):
    """``value`` if it is a list of ``size`` entries; else None, the failure recorded."""
    if isinstance(value, list) and len(value) == size:
        return value
    collector.error(path, f"expected a list of {size} entries")
    return None


def _number_list(value, size, path, collector):
    """``value`` if it is a list of ``size`` JSON numbers; else None, the failure
    recorded (a boolean entry passes, as ``_find_booleans`` reports it)."""
    value = _sized_list(value, size, path, collector)
    if value is None or {type(x) for x in value} <= {int, float, bool}:
        return value
    collector.error(path, "every entry must be a number")
    return None


def _load_batch_table(block, J, base_dir, path, collector):
    if "path" in block:
        csv_path = collector.attempt(path, lambda: Path(base_dir) / block["path"])
        if csv_path is not None and not csv_path.is_file():
            collector.error(path, f"batch table file {csv_path} not found")
        elif csv_path is not None:
            read = collector.attempt(path, lambda: read_occupancy_csv(csv_path))
            if read is not None:
                table_J, probs, _ = read
                if table_J == J:
                    return probs
                collector.error(path, f"batch table has dimension {table_J}, expected {J}")
        return None
    rows = block.get("table")
    if not isinstance(rows, list):
        collector.error(path, "inline table must be a list of [n_1,...,n_J,prob] rows")
        return None
    rows = [_number_list(row, J + 1, f"{path}[{i}]", collector) for i, row in enumerate(rows)]
    if any(row is None for row in rows):
        return None
    # BatchLaw validates the entries
    return [(tuple(row[:J]), row[J]) for row in rows]


def _build_batch(block, J, base_dir, collector):
    variant, params = _read_kind(block, "variant", _BATCH_KINDS, "batch variant", "batch",
                                 collector, optional={"table", "path"})
    if variant == "constant":
        vec = _number_list(params["vector"], J, "batch.vector", collector)
        if vec is not None:
            return collector.attempt("batch", lambda: BatchLaw.constant(vec))
    elif variant == "iid-assignment":
        probs = _number_list(params["entry_probs"], J, "batch.entry_probs", collector)
        law = _build_family(params["family"], "batch.family", collector)
        if probs is not None and law is not None:
            return collector.attempt("batch", lambda: BatchLaw.iid_assignment(law, probs))
    elif variant == "independent-marginals":
        margs = _sized_list(params["marginals"], J, "batch.marginals", collector) or []
        laws = [_build_family(m, f"batch.marginals[{i}]", collector)
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
            fields[key] = value
    return collector.attempt("analysis", lambda: AnalysisDefaults(
        **{key: _ANALYSIS_KEYS[key](value) for key, value in fields.items()}))


def _build_node(spec, J, path, collector):
    if not _check_keys(spec, {"service", "routing"}, {"service"}, path, collector):
        return None
    law = _build_kind(spec["service"], "kind", _SERVICE_KINDS, "service kind",
                      f"{path}.service", collector)
    if law is None:
        return None
    routing = spec.get("routing")
    # ServiceNode refuses an absorbing node's routing row
    if law.kind != ABSORBING and _number_list(routing, J + 1, f"{path}.routing",
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

    arrival = _build_kind(raw.get("arrival"), "kind", _ARRIVAL_KINDS, "arrival kind",
                          "arrival", collector, optional={"phase"})

    # a kernel block that names no representation is "auto"
    kernel = raw.get("kernel", {})
    representation, kernel_spec = _read_kind(
        {"representation": "auto", **kernel} if isinstance(kernel, dict) else kernel,
        "representation", _KERNEL_KINDS, "kernel representation", "kernel", collector,
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
