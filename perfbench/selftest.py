"""Self-test of the traced run: exact span counts on ``verify_main``.

    python3 perfbench/selftest.py

Runs ``verify_main`` once with the layer wrappers at the seed the
workloads were sized on and checks that every layer boundary was seen
the expected number of times (50 members, n = 2..20, two membership
radii), that the report is correct, and that the span self times add up
to no more than the traced wall time.  A wrapper that misses a module
binding shows up here as a count that is too low.
"""

import json
import os
import sys

import run
import workloads

EXPECTED_CALLS = {
    "inequalities.proof_trace": 950,
    "inequalities.recover_c": 950,
    "series.div": 950,
    "inequalities.psi_max": 950,
    "classes.member_from_measure": 50,
    "series.exp_zero": 50,
    "membership.check_spirallike": 50,
    "series.eval_circle": 200,
    "inequalities.successive_diff": 1900,
}


def main() -> int:
    with open(os.path.join(run.HERE, "reference.json")) as fh:
        reference = json.load(fh)
    bench = run.Run("verify_main", workloads.SIZED_SEED, reference)
    try:
        result = bench.once(0, trace=True)
    finally:
        bench.close()
    problems = [f["problem"] for f in bench.failures]
    if result is not None:
        calls = result["span_calls"]
        for name, want in EXPECTED_CALLS.items():
            if calls.get(name, 0) != want:
                problems.append(f"{name}: {calls.get(name, 0)} spans, expected {want}")
        if result["self_s_total"] > result["wall_s"]:
            problems.append(
                f"self times sum to {result['self_s_total']} s > wall {result['wall_s']} s"
            )
    for problem in problems:
        print("FAIL", problem)
    print("selftest", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
