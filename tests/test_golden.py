"""Golden bytes: every CLI command's report, pinned by sha256.

The other CLI tests compare two runs with each other; these compare one
run with bytes recorded once, so a refactor that moves a digit, a row or
a key shows up here.  The hashes were recorded with numpy 2.4 on x86-64;
another numpy may draw or round differently and need a fresh pin.
"""

import hashlib
import json

import pytest

from spirallab.cli import EXIT_OK, EXIT_VIOLATION, main

EMPTY = hashlib.sha256(b"").hexdigest()

SPIRAL = {"kind": "spirallike", "gamma": 0.4, "alpha": 0.2}

SUITE = {
    "seed": 4,
    "order": 256,
    "spec": SPIRAL,
    "theorem": "cor_spiral",
    "n": [2, 20],
    "functions": [{"sampled": {"trials": 60, "k_atoms": 8}}],
}

# name -> (command, config, exit code, sha256 of the report, sha256 of stdout)
CASES = {
    "verify_thm_main_membership_csv": (
        "verify",
        {
            "seed": 5,
            "order": 64,
            "spec": SPIRAL,
            "theorem": "thm_main",
            "n": [2, 6],
            "functions": [{"sampled": {"trials": 3, "k_atoms": 4}}],
            "membership": {"radii": [0.5, 0.9], "m": 256},
        },
        EXIT_OK,
        "5b4efb32abc6dfd78fb2eec972ea5d5ff2684aa7c7b3ff3d7241800e5e79d287",
        EMPTY,
    ),
    "verify_thm_main_membership_json": (
        "verify",
        {
            "seed": 5,
            "order": 64,
            "spec": SPIRAL,
            "theorem": "thm_main",
            "n": [2, 6],
            "functions": [{"sampled": {"trials": 3, "k_atoms": 4}}],
            "membership": {"radii": [0.5, 0.9], "m": 256},
            "format": "json",
        },
        EXIT_OK,
        "b1dda58e686dc8d1f7dcb08d3a8d6e15098e103f2f7e34e4285aec9de9c55bb7",
        EMPTY,
    ),
    # order 1024 pins exp_zero bits far past order 64, and the convex
    # case is the only pinned check_convex output.  Both exit 2: order
    # 1024 cannot support r = 0.99, so one member per case fails there.
    "verify_highorder_membership_spirallike": (
        "verify",
        {
            "seed": 13,
            "order": 1024,
            "spec": {"kind": "spirallike", "gamma": 0.3, "alpha": 0.25},
            "theorem": "cor_spiral",
            "n": [2, 4],
            "functions": [{"sampled": {"trials": 2, "k_atoms": 4}}],
            "membership": {"radii": [0.5, 0.9, 0.99], "m": 8192},
        },
        EXIT_VIOLATION,
        "5c055624637defca340a8763dde9ebfe1329cfe34a9cc9460a263569751f91ae",
        EMPTY,
    ),
    "verify_highorder_membership_convex_spirallike": (
        "verify",
        {
            "seed": 13,
            "order": 1024,
            "spec": {"kind": "convex_spirallike", "gamma": 0.3, "alpha": 0.2},
            "theorem": "cor_convex_gamma",
            "n": [2, 4],
            "functions": [{"sampled": {"trials": 2, "k_atoms": 4}}],
            "membership": {"radii": [0.5, 0.9, 0.99], "m": 8192},
        },
        EXIT_VIOLATION,
        "56cc8fb908c6067532e040bbf3972328830c4f96a43535f65e7f4a4171dc1514",
        EMPTY,
    ),
    # above cli._OVERLAP_MIN, so each check runs on the worker thread; pinned from the serial code
    "verify_membership_above_the_overlap_gate": (
        "verify",
        {
            "seed": 13,
            "order": 2048,
            "spec": {"kind": "spirallike", "gamma": 0.3, "alpha": 0.25},
            "theorem": "cor_spiral",
            "n": [2, 4],
            "functions": [{"sampled": {"trials": 2, "k_atoms": 4}}],
            "membership": {"radii": [0.5, 0.9, 0.99], "m": 32768},
        },
        EXIT_OK,
        "5aba6d7f483998a8d21fa3f3fafe3a5679b8735797022eb0ce5d5501d91ae0f5",
        EMPTY,
    ),
    "verify_thm_robertson": (
        "verify",
        {
            "seed": 11,
            "order": 32,
            "spec": {"kind": "c_half", "alpha": -0.5},
            "theorem": "thm_robertson",
            "n": [5, 8],
            "m": 2,
            "functions": [
                {"name": "koebe"},
                {"name": "two_point", "params": {"theta1": 0.3, "theta2": 2.0}},
                {"sampled": {"trials": 2, "k_atoms": 3}},
            ],
        },
        EXIT_VIOLATION,
        "b7828c411a4e49709ae48e28b7e0c05aa15ba0dc7dbf94bd96d43f682f8c97a9",
        EMPTY,
    ),
    "verify_cor_convex_gamma": (
        "verify",
        {
            "seed": 7,
            "order": 64,
            "spec": {"kind": "convex_spirallike", "gamma": 0.3, "alpha": 0.2},
            "theorem": "cor_convex_gamma",
            "n": [2, 6],
            "functions": [{"sampled": {"trials": 3, "k_atoms": 3}}],
            "membership": {"radii": [0.5], "m": 128},
        },
        EXIT_OK,
        "bf94a04df0f79c371eb50632060ccc5f533268539bb498ad12d0d9911ce059d0",
        EMPTY,
    ),
    # koebe is not starlike of order 0.9, so its derivation chain breaks:
    # the rows read rhs and slack nan and fail
    "verify_thm_main_nan_rows": (
        "verify",
        {
            "spec": {"kind": "starlike", "alpha": 0.9},
            "theorem": "thm_main",
            "n": [9, 11],
            "functions": [{"name": "koebe"}],
        },
        EXIT_VIOLATION,
        "8a11ae5a4e07faffb159e797cef7bcaa15f20797d788000e37ebc155423c1903",
        EMPTY,
    ),
    # exp(-M alpha cos gamma) past the double range: rhs and slack inf, every row passes
    "verify_thm_main_bound_overflows_csv": (
        "verify",
        {
            "seed": 1,
            "order": 32,
            "spec": {"kind": "starlike", "alpha": -100.0},
            "theorem": "thm_main",
            "n": [2, 4],
            "functions": [{"sampled": {"trials": 2, "k_atoms": 3}}],
        },
        EXIT_OK,
        "2b6c68de3e2d6362b05a75e920b0bb4132ef7740bfca4e001de00ab909105132",
        EMPTY,
    ),
    # the benchmark's suite_1000 at 60 trials: class-wide rows of one spec over many blocks,
    # so a CSV text memo that leaks from one block or key into another shows up here
    "verify_sampled_suite_csv": (
        "verify",
        SUITE,
        EXIT_OK,
        "92d1b5e9c8673222fd2d90314968d25ec79f4c1bfca92477cc6e50231717fba9",
        EMPTY,
    ),
    "verify_sampled_suite_json": (
        "verify",
        {**SUITE, "format": "json"},
        EXIT_OK,
        "2df99bd07a13daec311dea1bada1d5c4d9b5e408aeb1ee3a623634a81022556d",
        EMPTY,
    ),
    # the benchmark's suite_1000 at the held-out seed: 1,000 members built and judged in
    # three blocks, pinned from the code that built each member alone
    "verify_sampled_suite_blocks_csv": (
        "verify",
        {**SUITE, "seed": 7919, "functions": [{"sampled": {"trials": 1000, "k_atoms": 8}}]},
        EXIT_OK,
        "479076a132f85c955ed80c12cbcb1e51520ec05858ab75a8c36c5f58363f1756",
        EMPTY,
    ),
    "verify_sampled_suite_blocks_json": (
        "verify",
        {**SUITE, "seed": 7919, "functions": [{"sampled": {"trials": 1000, "k_atoms": 8}}],
         "format": "json"},
        EXIT_OK,
        "fb28a1cbf1a94a9d37f4c4d39420b20a68f62b5fa2fc58d264bf5f77a8f771e1",
        EMPTY,
    ),
    # the one-sided difference of sampled convex members against 1/(n + 1), in three blocks
    "verify_sampled_thm_B_convex": (
        "verify",
        {
            "seed": 3,
            "order": 64,
            "spec": {"kind": "convex"},
            "theorem": "thm_B",
            "n": [2, 40],
            "functions": [{"sampled": {"trials": 250, "k_atoms": 16}}],
        },
        EXIT_OK,
        "3bcc035932e6c2ca298853d84ea138085dafe1c484da8fc32a7165acbee78f7c",
        EMPTY,
    ),
    "trace": (
        "trace",
        {
            "seed": 2,
            "order": 32,
            "spec": {"kind": "spirallike", "gamma": 0.3, "alpha": 0.25},
            "n": [4, 5],
            "functions": [{"sampled": {"trials": 2, "k_atoms": 4}}],
        },
        EXIT_OK,
        "fc9cdadfbb5b9ddc1144892a0a69d27c83a326da1e15bb2ae974d17c3f4fb70f",
        EMPTY,
    ),
    "search_two_sided": (
        "search",
        {
            "seed": 3,
            "spec": {"kind": "starlike"},
            "n": 4,
            "k_atoms": 2,
            "budget": 400,
            "restarts": 2,
        },
        EXIT_OK,
        "434d92f6f4fbbc04f4e48e7edb800e5f01cf99bb0ade1f1588aef480f0b35f21",
        "3218eabc8ec086f94d1389ad08dc6f0a6c98251d68ab2ba8b7083a056b62510b",
    ),
    "search_one_sided_convex": (
        "search",
        {
            "seed": 4,
            "spec": {"kind": "convex"},
            "n": 5,
            "functional": "one_sided_diff",
            "k_atoms": 2,
            "budget": 400,
            "restarts": 2,
        },
        EXIT_OK,
        "c975fda153f7435d0c30a2c3ad7ae85ff30a3faf39328ab07d1ef10eeeb915dd",
        "308e0a2a263f7ce0a27df335f4d32f592e4f2efd2d6ecf42336a1d0a2d0228a1",
    ),
    "search_robertson": (
        "search",
        {
            "seed": 5,
            "spec": {"kind": "spirallike", "gamma": 0.2, "alpha": 0.1},
            "n": 4,
            "m": 2,
            "functional": "robertson",
            "k_atoms": 2,
            "budget": 400,
            "restarts": 2,
        },
        EXIT_OK,
        "0ec823ea9394a2f03c153dcc4601b54c174b7eafa397779056d37c57e2253ba3",
        "a5dec175e2d6848a62a0b562e98f76d8633e2d605bfebd23b2bf46c578aecd2e",
    ),
    "sample": (
        "sample",
        {
            "seed": 8,
            "order": 12,
            "trials": 3,
            "k_atoms": 3,
            "spec": {"kind": "convex"},
        },
        EXIT_OK,
        "a9a266e8d91c17a646344e9c20934b7db96c2fd6325ab665728146d7a2876ab6",
        EMPTY,
    ),
    "table": (
        "table",
        {"n": [2, 8]},
        EXIT_OK,
        "1849e3ecfa31d096a9b6c7fc624945946cc808d5a1a47812306d17c4042f8115",
        EMPTY,
    ),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_are_pinned(name, tmp_path, capsys):
    command, config, code, report_sha, stdout_sha = CASES[name]
    out = tmp_path / "report"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**config, "out": str(out)}))
    assert main([command, "--config", str(cfg)]) == code
    assert _sha(out.read_bytes()) == report_sha
    assert _sha(capsys.readouterr().out.encode()) == stdout_sha
