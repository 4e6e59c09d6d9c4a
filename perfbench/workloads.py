"""The four benchmark workloads: CLI command plus a config generated from a seed.

Each workload is one ``spirallab`` CLI invocation.  The benchmark seed
becomes the config's own ``seed`` field, so the program receives nothing
but the generated JSON document.  ``search_sharp`` varies the search seed
from repetition to repetition (see ``config_seed``) because its run time
depends strongly on how fast each random restart converges; the other
workloads do the same work for every seed, so their repetitions reuse
one config.
"""

from __future__ import annotations

import copy

#: Seed the workloads were sized on; the self-test's exact span counts hold here.
SIZED_SEED = 4

#: Seed kept out of all tuning; a later gain claim must also hold on it.
HELD_OUT_SEED = 7919

#: Spacing between the search seeds of successive repetitions of one run.
_SEED_STRIDE = 100_003

WORKLOADS = {
    "verify_main": {
        "command": "verify",
        "config": {
            "order": 256,
            "spec": {"kind": "spirallike", "gamma": 0.4, "alpha": 0.2},
            "theorem": "thm_main",
            "n": [2, 20],
            "functions": [{"sampled": {"trials": 50, "k_atoms": 8}}],
            "membership": {"radii": [0.5, 0.9], "m": 1024},
        },
    },
    "suite_1000": {
        "command": "verify",
        "config": {
            "order": 256,
            "spec": {"kind": "spirallike", "gamma": 0.4, "alpha": 0.2},
            "theorem": "cor_spiral",
            "n": [2, 20],
            "functions": [{"sampled": {"trials": 1000, "k_atoms": 8}}],
        },
    },
    "search_sharp": {
        "command": "search",
        "config": {
            "spec": {"kind": "convex"},
            "n": 6,
            "functional": "one_sided_diff",
            "k_atoms": 4,
            "budget": 20000,
            "restarts": 8,
        },
    },
    "highorder_membership": {
        "command": "verify",
        "config": {
            "order": 4096,
            "spec": {"kind": "spirallike", "gamma": 0.3, "alpha": 0.25},
            "theorem": "cor_spiral",
            "n": [2, 20],
            "functions": [{"sampled": {"trials": 16, "k_atoms": 4}}],
            "membership": {"radii": [0.5, 0.9, 0.99], "m": 65536},
        },
    },
}


def config_seed(workload: str, seed: int, rep: int) -> int:
    """The CLI seed of repetition ``rep`` in a run with benchmark seed ``seed``."""
    if WORKLOADS[workload]["command"] == "search":
        return seed + _SEED_STRIDE * rep
    return seed


def make_config(workload: str, cli_seed: int, out: str) -> dict:
    """The JSON config document handed to the CLI."""
    cfg = copy.deepcopy(WORKLOADS[workload]["config"])
    cfg["seed"] = cli_seed
    cfg["out"] = out
    return cfg


def items(cfg: dict, report: dict | None) -> int:
    """Work items of one run: report rows for verify, completed restarts for search.

    ``report`` is the parsed search result; it is unused for verify.
    """
    if "functions" in cfg:
        lo, hi = cfg["n"]
        per_member = hi - lo + 1 + (1 if cfg.get("membership") else 0)
        return sum(f["sampled"]["trials"] for f in cfg["functions"]) * per_member
    # the search only stops early (skipping restarts) once the budget is spent
    if report["evaluations_used"] < cfg["budget"]:
        return cfg["restarts"]
    return report["evaluations_used"] // max(cfg["budget"] // cfg["restarts"], 1)
