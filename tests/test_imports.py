"""Every name a package module imports is used in that module, and cold
start imports no more than it needs.

A static scan with ``ast``: a name counts as used when it appears as a
``Name`` node anywhere in the module (annotations included), and in
``__init__.py`` also when ``__all__`` lists it as a re-export. The
cold-start checks run in fresh interpreters and read ``sys.modules``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bqnet"
MODULES = sorted(PACKAGE.glob("*.py"))


def imported_names(tree):
    """(name, line) for every name bound by an import statement."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out.append((alias.asname or alias.name.split(".")[0], node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out.append((alias.asname or alias.name, node.lineno))
    return out


def exported_names(tree):
    """The strings listed in a module-level ``__all__``."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source):
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= exported_names(tree)
    return [(name, line) for name, line in imported_names(tree) if name not in used]


def test_scan_flags_only_unused_names():
    source = ("import os\nimport numpy as np\nfrom a.b import c, d as e\n"
              "__all__ = ['c']\nnp.zeros(1)\n")
    assert unused_imports(source) == [("os", 1), ("e", 3)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_package_exports_resolve():
    import bqnet

    assert all(hasattr(bqnet, name) for name in bqnet.__all__)


# Modules that cold start must not pay for: each is imported on demand by
# the one branch that needs it.
ON_DEMAND = ("scipy.stats", "scipy.integrate", "mpmath")
# Imported by no branch of the package: the Markov kernel squares its far
# times instead of calling a matrix exponential. scipy.stats and
# scipy.integrate load it for themselves.
NEVER_LOADED = ("scipy.linalg",)
# scipy.special too, outside the pmfs pinned to scipy.stats: the default
# path takes its log-factorials, Poisson weights, Erlang CDF and zeta
# values from NumPy and math
DEFAULT_PATH = ON_DEMAND + NEVER_LOADED + ("scipy.special",)

RENEWAL_TANDEM = {
    "J": 2,
    "arrival": {"kind": "constant", "rate": 1.0},
    "batch": {"variant": "iid-assignment", "entry_probs": [1.0, 0.0],
              "family": {"name": "poisson", "mean": 2.0}},
    "nodes": [
        {"service": {"kind": "erlang", "shape": 2, "rate": 2.0}, "routing": [0.0, 1.0, 0.0]},
        {"service": {"kind": "deterministic", "duration": 0.5}, "routing": [0.0, 0.0, 1.0]},
    ],
    "kernel": {"representation": "renewal-grid"},
    "analysis": {"cap": 10, "rtol": 1e-08, "seed": 1},
}

_LOADED = """
import json, sys
{body}
print(json.dumps(sorted(m for m in {modules!r} if m in sys.modules)))
"""


def loaded_after(body, modules, cwd):
    """Which of ``modules`` a fresh interpreter has loaded after ``body``."""
    env = dict(os.environ)
    paths = [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join([str(PACKAGE.parent)] + paths)
    code = _LOADED.format(body=body, modules=modules)
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_loads_no_on_demand_module(tmp_path):
    assert loaded_after("import bqnet", DEFAULT_PATH, tmp_path) == []


def test_far_markov_times_and_ergodicity_never_load_scipy_linalg(tmp_path):
    # r t = 1e5 is ten times the series limit: the series at t / 16, squared
    body = ("from bqnet import MarkovKernel, ServiceLaw, ServiceNode, cli\n"
            "node = ServiceNode(ServiceLaw.exponential(1.0), [0.0, 1.0])\n"
            "MarkovKernel([node], 1).placement_rows(1e5)\n"
            "code = cli.main(['ergodicity', '--config', 'mm_infty', '-o', 'e.out'])\n"
            "assert code == 0, code")
    assert loaded_after(body, NEVER_LOADED, tmp_path) == []


# Loaded only by a simulation on more than one worker: concurrent.futures,
# which imports logging on its own
THREAD_POOL = ("concurrent.futures", "logging")


def test_import_and_analytic_ops_load_no_thread_pool(tmp_path):
    calls = [["pmf", "--config", "zeta_batch", "--t", "3", "--cap", "2"],
             ["pgf", "--config", "mm_infty", "--t", "3", "--z", "0.5"],
             ["zero-prob", "--config", "mm_infty", "--t", "3"],
             ["moments", "--config", "mm_infty", "--t", "3"],
             ["ergodicity", "--config", "mm_infty"]]
    calls = [argv + ["-o", f"{k}.out"] for k, argv in enumerate(calls)]
    assert loaded_after("import bqnet", THREAD_POOL, tmp_path) == []
    body = ("from bqnet import cli\n"
            f"codes = [cli.main(argv) for argv in {calls!r}]\n"
            "assert codes == [0, 0, 0, 0, 0], codes")
    assert loaded_after(body, THREAD_POOL, tmp_path) == []


def test_import_builds_no_parser(tmp_path):
    # the first cli.main call builds the parser, and later calls reuse it
    body = ("from bqnet import cli\n"
            "built = [cli.build_parser.cache_info().misses]\n"
            "codes = [cli.main(['zero-prob', '--config', 'mm_infty', '--t', t])\n"
            "         for t in ('1', '2')]\n"
            "built.append(cli.build_parser.cache_info().misses)\n"
            "assert codes == [0, 0] and built == [0, 1], (codes, built)")
    assert loaded_after(body, THREAD_POOL, tmp_path) == []


def test_cli_ops_on_bundled_configs_load_no_on_demand_module(tmp_path):
    calls = []
    for config, J in (("mm_infty", 1), ("tandem_batch", 2), ("vivax", 8)):
        t = "10" if config == "vivax" else "3"
        calls += [["pmf", "--config", config, "--t", t, "--cap", "2"],
                  ["pgf", "--config", config, "--t", t, "--z", ",".join(["0.5"] * J)],
                  ["zero-prob", "--config", config, "--t", t],
                  ["moments", "--config", config, "--t", t],
                  ["ergodicity", "--config", config],
                  ["simulate", "--config", config, "--t", t, "--reps", "200",
                   "--seed", "1", "--cap", "2"]]
    calls = [argv + ["-o", f"{k}.out"] for k, argv in enumerate(calls)]
    body = ("from bqnet import cli\n"
            f"codes = [cli.main(argv) for argv in {calls!r}]\n"
            # tandem_batch's arrivals are not homogeneous: its ergodicity
            # call fails fast with DomainError's exit code
            "assert codes.count(0) == len(codes) - 1, codes")
    assert loaded_after(body, DEFAULT_PATH, tmp_path) == []


def test_renewal_ops_load_no_on_demand_module(tmp_path):
    # the Erlang CDF of the renewal grid is a finite sum
    (tmp_path / "renewal.json").write_text(json.dumps(RENEWAL_TANDEM))
    calls = [["pmf", "--config", "renewal.json", "--t", "2", "--cap", "3"],
             ["zero-prob", "--config", "renewal.json", "--t", "2"],
             ["moments", "--config", "renewal.json", "--t", "2"]]
    calls = [argv + ["-o", f"{k}.out"] for k, argv in enumerate(calls)]
    body = ("from bqnet import cli\n"
            f"codes = [cli.main(argv) for argv in {calls!r}]\n"
            "assert codes == [0, 0, 0], codes")
    assert loaded_after(body, DEFAULT_PATH, tmp_path) == []


def test_cli_ops_on_zeta_configs_load_no_on_demand_module(tmp_path):
    # the zeta PGF gap, non-integer and integer exponent alike, is a
    # float64 series whose coefficients come from bqnet.logmath.zeta
    config = json.loads((PACKAGE / "configs" / "zeta_batch.json").read_text())
    config["batch"]["family"]["exponent"] = 3
    (tmp_path / "zeta3.json").write_text(json.dumps(config))
    calls = [["pmf", "--config", "zeta_batch", "--t", "3", "--cap", "2"],
             ["pgf", "--config", "zeta_batch", "--t", "3", "--z", "0.5"],
             ["zero-prob", "--config", "zeta_batch", "--t", "3"],
             ["moments", "--config", "zeta_batch", "--t", "3"],
             ["ergodicity", "--config", "zeta_batch"],
             ["simulate", "--config", "zeta_batch", "--t", "3", "--reps", "200",
              "--seed", "1", "--cap", "2"],
             ["pmf", "--config", "zeta3.json", "--t", "3", "--cap", "2"],
             ["zero-prob", "--config", "zeta3.json", "--t", "3"]]
    calls = [argv + ["-o", f"{k}.out"] for k, argv in enumerate(calls)]
    body = ("from bqnet import cli\n"
            f"codes = [cli.main(argv) for argv in {calls!r}]\n"
            # an infinite-mean batch exceeds any per-block customer budget:
            # the simulate call fails fast with SimulationBudgetError's code
            "assert codes == [0, 0, 0, 0, 0, 1, 0, 0], codes")
    assert loaded_after(body, DEFAULT_PATH, tmp_path) == []
