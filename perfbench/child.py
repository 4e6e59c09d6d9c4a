"""One timed CLI run in a fresh interpreter.

Started by ``run.py`` once per repetition, so no interpreter state (heap,
caches, allocator) carries from one timed run to the next.  Set-up is
the time from the parent's spawn to the end of config generation:
interpreter start, ``import spirallab`` and writing the config.  The
timed region is exactly one ``spirallab.cli.main`` call; a fixed
machine-speed kernel runs right before and right after it.  The result
goes to the file named by ``--result`` as one JSON object.
"""

import argparse
import contextlib
import json
import os
import resource
import time


def machine_seconds() -> float:
    """Time of a fixed kernel of small numpy calls that runs no spirallab code.

    The program's hot paths are Python loops over short numpy calls, so
    this kernel slows down with them when other tenants load the machine.
    """
    import numpy as np

    x = np.linspace(0.0, 1.0, 257) + 0.5j
    start = time.perf_counter()
    for i in range(24000):
        k = i % 256
        np.dot(x[: k + 1], x[k::-1])
    return time.perf_counter() - start


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--cli-seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spawned-ns", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    import spirallab.cli
    import workloads

    config_path = os.path.join(args.workdir, "config.json")
    report_path = os.path.join(args.workdir, "report")
    cfg = workloads.make_config(args.workload, args.cli_seed, report_path)
    with open(config_path, "w") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
    setup_s = (time.monotonic_ns() - args.spawned_ns) / 1e9

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        missing = tracer.install()

    machine_before = machine_seconds()
    argv = [workloads.WORKLOADS[args.workload]["command"], "--config", config_path]
    with open(os.path.join(args.workdir, "stdout"), "w") as sink:
        with contextlib.redirect_stdout(sink):
            c0 = time.process_time()
            t0 = time.perf_counter()
            exit_code = spirallab.cli.main(argv)
            wall_s = time.perf_counter() - t0
            cpu_s = time.process_time() - c0
    machine_after = machine_seconds()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "exit_code": exit_code,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "machine_s": (machine_before + machine_after) / 2.0,
        "program": os.path.dirname(spirallab.cli.__file__),
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
        result["missing_targets"] = missing
        stats = tracer.span_stats()
        result["span_calls"] = {name: s[0] for name, s in stats.items()}
        result["self_s_total"] = sum(s[2] for s in stats.values())
    with open(os.path.join(args.workdir, "result.json"), "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
