"""Time what every CLI call pays before its computation, in a fresh interpreter.

    python3 perfbench/setup_probe.py --workload NAME

Measures ``import bqnet``, then ``load_config`` for each model the
workload uses and ``build_kernel`` for each model an analytic op needs,
and prints the three times as one JSON line. These times are not scaled
by the calibration of ``speed.py``: set-up is mostly reading and
unmarshalling modules, which slows far less than computation when the
machine is busy.
"""

import argparse
import json
import sys
import time

from workloads import SRC, WORKLOADS, Op, setup_models


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import bqnet
    imported = time.perf_counter()
    load_s = build_s = 0.0
    for config, builds_kernel in setup_models(args.workload):
        t0 = time.perf_counter()
        model = bqnet.load_config(Op("", config).config_path)
        t1 = time.perf_counter()
        if builds_kernel:
            model.build_kernel()
        load_s += t1 - t0
        build_s += time.perf_counter() - t1
    print(json.dumps({"import_s": imported - start, "load_s": load_s,
                      "build_s": build_s}))


if __name__ == "__main__":
    main()
