"""Regenerate ``reference.json``: the outputs every analytic op is checked against.

    python3 perfbench/make_reference.py

Run it only on a commit whose outputs are trusted; the committed file was
made from the seed commit of the benchmark. It runs every analytic op of
every workload once, plus each committed PGF point, through the CLI.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import checks
from worker import import_bqnet, run_op
from workloads import REFERENCE, ROOT, reference_ops


def main():
    import_bqnet()
    scratch = ROOT / ".perfbench_out" / f"reference-{os.getpid()}"
    scratch.mkdir(parents=True)
    os.chdir(scratch)
    reference = {}
    try:
        for op in reference_ops():
            seconds, error, stdout = run_op(op, "ref")
            if error:
                sys.exit(f"{op.key} failed: {error}")
            reference[op.key] = checks.read_outputs(op, "ref", stdout)
            print(f"{seconds:8.3f} s  {op.key}", file=sys.stderr)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(scratch)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
