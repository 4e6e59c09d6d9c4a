"""Regenerate ``reference.json`` from the program in this checkout.

    python3 perfbench/pin.py

Runs every workload once per pinned CLI seed, checks each report against
the oracle, and records its sha256 and exit code; for ``search_sharp``
also the best value, which later runs must reach to within 1e-9.  The
pinned CLI seeds are those that benchmark seeds 0..15, the sized seed and
the held-out seed use in their first ``SEARCH_REPS`` repetitions.
Re-pin only when a change of the reports is intended, and say so.
"""

import json
import os
import sys

import run
import workloads

BENCH_SEEDS = sorted(set(range(16)) | {workloads.SIZED_SEED, workloads.HELD_OUT_SEED})
SEARCH_REPS = 20
EXPECTED_EXIT_CODE = 0


def main() -> int:
    reference = {
        "source_sha256": run.source_digest(),
        "expected_exit_code": {w: EXPECTED_EXIT_CODE for w in workloads.WORKLOADS},
        "sha256": {w: {} for w in workloads.WORKLOADS},
        "search_best_value": {},
    }
    for workload, spec in workloads.WORKLOADS.items():
        search = spec["command"] == "search"
        for seed in BENCH_SEEDS:
            bench = run.Run(workload, seed, reference)
            try:
                for rep in range(SEARCH_REPS if search else 1):
                    result = bench.once(rep, trace=False)
                    if result is None:
                        print(workload, seed, bench.failures[-1], file=sys.stderr)
                        return 1
                    key = str(result["cli_seed"])
                    reference["sha256"][workload][key] = result["report_sha256"]
                    if search:
                        with open(os.path.join(bench.workdir, "report")) as fh:
                            reference["search_best_value"][key] = json.load(fh)["best_value"]
            finally:
                bench.close()
        print(workload, len(reference["sha256"][workload]), "reports pinned", flush=True)
    with open(os.path.join(run.HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
