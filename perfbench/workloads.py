"""The benchmark's workloads: fixed lists of `bqnet` CLI calls.

Every op is one command a modeller would type. Query times and caps are
fixed, because analytic cost jumps with them (the renewal tandem needs
1025 Simpson nodes at t=6, 2049 at t=4 and 16385 at t=5). The workload
seed only chooses the PGF evaluation points and the simulation seeds, so
the same seed always gives the same inputs.

This module imports nothing from `bqnet`, so the set-up probe can load it
before the clock starts.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CONFIG_DIR = BENCH_DIR / "configs"
REFERENCE = BENCH_DIR / "reference.json"
BUNDLED_CONFIG_DIR = SRC / "bqnet" / "configs"

#: Number of committed PGF evaluation points per model; the seed picks one.
Z_GRID_SIZE = 32

SIM_REPS = 200_000


@dataclass(frozen=True)
class Op:
    """One CLI call. ``key`` names its reference output."""

    kind: str
    config: str
    t: str = ""
    cap: int | None = None
    reps: int | None = None
    z: str | None = None
    seed: int | None = None

    @property
    def key(self):
        parts = [self.kind, self.config]
        if self.t:
            parts.append(f"t={self.t}")
        if self.cap is not None:
            parts.append(f"cap={self.cap}")
        if self.z is not None:
            parts.append(f"z={self.z}")
        return ":".join(parts)

    @property
    def config_path(self):
        path = CONFIG_DIR / f"{self.config}.json"
        return path if path.exists() else BUNDLED_CONFIG_DIR / f"{self.config}.json"

    def config_arg(self):
        """Bundled configs go by name, as a user types them; ours by path."""
        path = self.config_path
        return self.config if path.parent == BUNDLED_CONFIG_DIR else str(path)

    def argv(self, stem):
        """CLI arguments; outputs go to files named after ``stem`` in the cwd."""
        argv = [self.kind, "--config", self.config_arg()]
        if self.t:
            argv += ["--t", self.t]
        if self.cap is not None:
            argv += ["--cap", str(self.cap)]
        if self.z is not None:
            argv += ["--z", self.z]
        if self.kind == "simulate":
            argv += ["--reps", str(self.reps), "--workers", "1"]
            if self.seed is not None:
                argv += ["--seed", str(self.seed)]
        argv += ["-o", f"{stem}.out"]
        if self.kind in ("pmf", "simulate"):
            argv += ["--meta", f"{stem}.meta.json"]
        return argv


def z_grid(config):
    """The committed PGF evaluation points of one model, as CLI strings."""
    J = json.loads(Op("pgf", config).config_path.read_text())["J"]
    rng = random.Random(f"pgf-points:{config}")
    return [",".join(f"{rng.uniform(0.05, 0.95):.3f}" for _ in range(J))
            for _ in range(Z_GRID_SIZE)]


# (kind, config, t, cap, reps). A pgf op gets its point from the seed, a
# simulate op its seed.
_SPECS = {
    # J <= 2 networks with large lattices: the simplex index, the scalar
    # kernel path, the recursion and quadrature refinement do the work.
    "tandem_suite": [
        ("pmf", "tandem_batch", "3", 25, None),
        ("pmf", "mm_infty", "3", 20, None),
        ("pmf", "renewal_tandem", "4", 10, None),
        ("pgf", "tandem_batch", "3", None, None),
        ("zero-prob", "tandem_batch", "3", None, None),
        ("moments", "tandem_batch", "3", None, None),
        ("pgf", "renewal_tandem", "4", None, None),
        ("zero-prob", "renewal_tandem", "4", None, None),
        ("moments", "renewal_tandem", "4", None, None),
        ("ergodicity", "renewal_tandem", "", None, None),
        ("ergodicity", "mm_infty", "", None, None),
    ],
    # Wide and heavy-tailed batches: the compound lattice does the work.
    # Vivax stays at cap 2: cap 3 takes about 19 s per op.
    "vivax_zeta": [
        ("pmf", "vivax", "10", 2, None),
        ("pmf", "zeta_batch", "3", 15, None),
        ("pgf", "vivax", "10", None, None),
        ("zero-prob", "vivax", "10", None, None),
        ("moments", "vivax", "10", None, None),
        ("zero-prob", "zeta_batch", "3", None, None),
        ("ergodicity", "vivax", "", None, None),
        ("ergodicity", "zeta_batch", "", None, None),
    ],
    # Sampling only: the batch and service laws are drawn from, not
    # evaluated. Single-threaded, as workers=2 gave no speed-up on 2 cores.
    "monte_carlo": [
        ("simulate", "tandem_batch", "1,3", None, SIM_REPS),
        ("simulate", "vivax", "10", None, SIM_REPS),
        ("simulate", "mm_infty", "3", None, SIM_REPS),
    ],
}

#: Inputs that the validator accepts but that fail at the seed commit. They
#: run once per benchmark run, outside the timed passes, in a process with a
#: memory cap; their outcome is reported, not timed.
KNOWN_FAILURES = [
    # ConvergenceError: Simpson refinement across the rate jump at 1.3.
    Op("moments", "piecewise_mm", "3"),
    # MemoryError: the first block asks for billions of customers.
    Op("simulate", "zeta_batch", "3", reps=20_000),
]

WORKLOADS = tuple(_SPECS)


def ops(workload, seed):
    """The workload's op list for one seed."""
    rng = random.Random(seed)
    out = []
    for kind, config, t, cap, reps in _SPECS[workload]:
        z = rng.choice(z_grid(config)) if kind == "pgf" else None
        sim_seed = rng.randrange(1, 1 << 31) if kind == "simulate" else None
        out.append(Op(kind, config, t, cap, reps, z, sim_seed))
    return out


def reference_ops():
    """Every analytic op whose output is committed in the reference file."""
    out = []
    for specs in _SPECS.values():
        for kind, config, t, cap, reps in specs:
            if kind == "simulate":
                continue
            if kind == "pgf":
                out += [Op(kind, config, t, cap, reps, z) for z in z_grid(config)]
            else:
                out.append(Op(kind, config, t, cap, reps))
    return out


def setup_models(workload):
    """(config, builds_kernel) for each model the workload's ops load."""
    builds = {}
    for kind, config, *_ in _SPECS[workload]:
        builds[config] = builds.get(config, False) or kind != "simulate"
    return list(builds.items())
