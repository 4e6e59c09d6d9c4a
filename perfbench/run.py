"""spirallab benchmark: one workload, measured end to end or layer by layer.

    python3 perfbench/run.py --workload verify_main --seed 4 --seconds 25 --trace 0

Run from the root of a source checkout.  Each repetition starts a fresh
interpreter (``child.py``) with BLAS/OpenMP pinned to one thread, which
runs the workload once through ``spirallab.cli.main``; repetitions
continue until ``--seconds`` have passed, after one untimed warm-up.
Every report is checked against the independent reference in
``oracle.py`` and against the pinned hashes in ``reference.json``.

With ``--trace 0`` the result holds the end-to-end metrics: medians over
the repetitions, times scaled to a reference machine speed (see
``MACHINE_REF_S``).  With ``--trace 1`` each repetition is a pair, one run
plain and one with the layer wrappers of ``spans.py``, and the result
holds the per-layer metrics (medians over the traced runs) plus the
tracing overhead.  The last line of standard output is the result; the
line before it is a record of the run (environment, seeds, tail
percentiles, byte identity, problems found).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import oracle
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

#: Thread pinning for every child: load comes from one process with one thread.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

#: Fewest timed repetitions per run, whatever ``--seconds`` says.
MIN_REPS = 3

#: Time of ``child.machine_seconds`` taken as the reference machine speed:
#: about what it takes on the 2-vCPU machine the benchmark was built on.
#: Times are reported as measured times scaled by MACHINE_REF_S over the
#: kernel time measured next to them.  Other tenants of a shared machine
#: slow every repetition by up to 2x for stretches of seconds to minutes;
#: the kernel slows with them while the program's own changes leave it be.
MACHINE_REF_S = 0.05

#: A single repetition that takes longer than this has hung.
CHILD_TIMEOUT_S = 150


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = SRC + os.pathsep + HERE
    return env


def source_digest() -> str:
    """sha256 over the package sources, for checkouts that are not git repositories."""
    h = hashlib.sha256()
    package = os.path.join(SRC, "spirallab")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(package, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def tail(values: list) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    doc = {"median": statistics.median(ordered), "samples": n}
    if n > 10:
        doc["percentile"] = 100.0 * (n - 10) / n
        doc["value"] = ordered[n - 11]
    return doc


class Run:
    """The repetitions of one benchmark run and their correctness checks."""

    def __init__(self, workload: str, seed: int, reference: dict):
        self.workload = workload
        self.seed = seed
        self.reference = reference
        self.env = child_env()
        self.workdir = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
        self._expected = {}
        self.attempted = 0
        self.failures = []
        self.identical = []  # report matched its pinned sha256, per pinned repetition

    def expected_rows(self, cfg: dict) -> list:
        """Reference rows of a verify config, computed once per CLI seed."""
        if cfg["seed"] not in self._expected:
            self._expected[cfg["seed"]] = oracle.verify_rows(cfg)
        return self._expected[cfg["seed"]]

    def once(self, rep: int, trace: bool):
        """Run one repetition; returns the child's result, or None when it failed."""
        self.attempted += 1
        cli_seed = workloads.config_seed(self.workload, self.seed, rep)
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        cmd = [
            sys.executable, os.path.join(HERE, "child.py"),
            "--workload", self.workload, "--cli-seed", str(cli_seed),
            "--workdir", self.workdir, "--trace", str(int(trace)),
            "--spawned-ns", str(time.monotonic_ns()),
        ]
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True,
        )
        try:
            _, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return self._fail(rep, f"timed out after {CHILD_TIMEOUT_S} s")
        if proc.returncode != 0:
            return self._fail(rep, f"child exited {proc.returncode}: {stderr.strip()[-400:]}")
        with open(os.path.join(self.workdir, "result.json")) as fh:
            result = json.load(fh)
        if os.path.realpath(result["program"]) != os.path.realpath(os.path.join(SRC, "spirallab")):
            return self._fail(rep, f"ran spirallab from {result['program']}, not this checkout")
        expected_exit = self.reference["expected_exit_code"][self.workload]
        if result["exit_code"] != expected_exit:
            return self._fail(rep, f"exit code {result['exit_code']}, expected {expected_exit}")
        try:
            with open(os.path.join(self.workdir, "report"), "rb") as fh:
                raw = fh.read()
            text = raw.decode()
        except (OSError, UnicodeDecodeError) as exc:
            return self._fail(rep, f"report unreadable: {exc}")
        cfg = workloads.make_config(self.workload, cli_seed, "")
        result["cli_seed"] = cli_seed
        result["report_bytes"] = len(raw)
        result["report_sha256"] = hashlib.sha256(raw).hexdigest()
        pinned = self.reference["sha256"][self.workload].get(str(cli_seed))
        if pinned is not None:
            self.identical.append(result["report_sha256"] == pinned)
        result["items"] = self._check(rep, cfg, text)
        return None if result["items"] is None else result

    def _check(self, rep: int, cfg: dict, text: str):
        """Correctness of one report; returns the run's work items, or None on failure."""
        if "functions" in cfg:
            problems = oracle.check_verify(cfg, self.expected_rows(cfg), text)
            report = None
        else:
            best = self.reference["search_best_value"].get(str(cfg["seed"]))
            problems = oracle.check_search(cfg, best, text)
            report = None if problems else json.loads(text)
        if problems:
            return self._fail(rep, "; ".join(problems[:5]))
        return workloads.items(cfg, report)

    def _fail(self, rep: int, message: str):
        self.failures.append({"rep": rep, "problem": message})
        return None

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def measure(run: Run, seconds: float, trace: bool) -> tuple:
    """Warm up once, then repeat until ``seconds`` have passed."""
    run.once(0, trace=False)
    plain, traced = [], []
    start = time.monotonic()
    rep = 0
    while rep < MIN_REPS or time.monotonic() - start < seconds:
        result = run.once(rep, trace=False)
        if result is not None:
            plain.append(result)
        if trace:
            result_t = run.once(rep, trace=True)
            if result_t is not None and result is not None:
                traced.append((result, result_t))
        rep += 1
    return plain, traced


def end_to_end(plain: list, run: Run) -> tuple:
    def scaled(key):
        return [r[key] * MACHINE_REF_S / r["machine_s"] for r in plain]

    samples = {
        "wall_s": scaled("wall_s"),
        "cpu_s": scaled("cpu_s"),
        "setup_s": scaled("setup_s"),
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    samples["items_per_s"] = [r["items"] / w for r, w in zip(plain, samples["wall_s"])]
    values = {k: statistics.median(v) if v else 0.0 for k, v in samples.items()}
    values["passed_frac"] = (run.attempted - len(run.failures)) / run.attempted
    for key in ("wall_s", "cpu_s", "setup_s", "machine_s"):
        samples[f"unscaled_{key}"] = [r[key] for r in plain]
    tails = {k: tail(v) for k, v in samples.items() if v}
    return values, tails


def per_layer(traced: list, workload: str) -> dict:
    verify = workloads.WORKLOADS[workload]["command"] == "verify"
    docs = []
    for plain, result in traced:
        layers = dict(result["layers"])
        layers["cli.report_bytes"] = result["report_bytes"]
        layers["cli.rows"] = result["items"] if verify else 0
        layers["trace.overhead_frac"] = result["wall_s"] / plain["wall_s"] - 1.0
        docs.append(layers)
    return {k: statistics.median(d[k] for d in docs) for k in docs[0]} if docs else {}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "spirallab", "cli.py")):
        print(f"no spirallab sources under {SRC}: run from a source checkout", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    run = Run(args.workload, args.seed, reference)
    try:
        plain, traced = measure(run, args.seconds, bool(args.trace))
    finally:
        run.close()
    values, tails = end_to_end(plain, run)
    if args.trace:
        values = per_layer(traced, args.workload)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "cli_seeds": sorted({r["cli_seed"] for r in plain}),
        "sized_seed": workloads.SIZED_SEED,
        "held_out_seed": workloads.HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "tails": tails,
        "samples": {k: [r[k] for r in plain] for k in ("wall_s", "machine_s")},
        "byte_identical": all(run.identical) if run.identical else None,
        "pinned_reports": len(run.identical),
        "failures": run.failures[:10],
        "environment": {
            "git_commit": git_commit(),
            "source_sha256": source_digest(),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "pinned_env": PINNED_ENV,
        },
    }
    if args.trace:
        record["self_s_total_vs_wall"] = [[t["self_s_total"], t["wall_s"]] for _, t in traced]
        record["missing_trace_targets"] = sorted({m for _, t in traced for m in t["missing_targets"]})
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": not run.failures and bool(plain),
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {
            m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in declared
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
