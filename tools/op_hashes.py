"""Print one SHA-256 per benchmark op over everything the op writes.

    python3 tools/op_hashes.py [--seed N]

Runs every reference op of ``perfbench/workloads.py`` and the
``monte_carlo`` simulate ops of one workload seed (default 11) through
``bqnet.cli.main``, each in a fresh empty directory, as the benchmark
calls them. Each line is ``<digest>  <op key>``, the digest taken over the
op's stdout and then every file it wrote, by name. Two runs, or two
commits, print the same lines exactly when every op's output is
byte-identical. Exits 1 if any op fails.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from worker import import_bqnet, run_op  # noqa: E402
from workloads import ops, reference_ops  # noqa: E402


def digest(op):
    """(hex digest, error or None) of one op run in a fresh directory."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            _, error, stdout = run_op(op, "op")
            h = hashlib.sha256(stdout.encode())
            for path in sorted(Path(tmp).iterdir()):
                h.update(f"\0{path.name}\0".encode())
                h.update(path.read_bytes())
        finally:
            os.chdir(home)
    return h.hexdigest(), error


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()
    import_bqnet()
    failed = 0
    for op in reference_ops() + ops("monte_carlo", args.seed):
        hexdigest, error = digest(op)
        key = op.key if op.seed is None else f"{op.key}:seed={op.seed}"
        print(f"{hexdigest}  {key}" + (f"  FAILED: {error}" if error else ""), flush=True)
        failed += error is not None
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
