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
        "afd35a898b7e7c49f10f4c58c99f7585b89d6d23380fb0780a8b911902bd6c7d",
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
        "6a9f1ce138381dc722bfcc9d5861ea90f1e36be0be41f0e56e03c3b089d195da",
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
        "376392d5956dc0421a033f5aa9dd12d0c13aa389691a22427a67559f106b4d75",
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
        "1470d86e10ac5ca92b697a36b355aa8ab8a7aad5ac3cf3b67aab27ccd96c216f",
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
        "3d3bb0063b03ec8736d2cc382d669b762ab22b9eb22d8c76c790f977b7b6c58d",
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
        "8166038dda4f17d306f800fbbb70d1c9ed6d04bb62c85b948ef46ffe4bef07bd",
        "a657b913615c7d7aad6698aae1e5d98e29109a3ad5ef2d90ebfddb6ac752de1b",
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
        "161b97166f8678861b23ef413ef55c4518b0698e47300f358c80d2257de5ddc4",
        "9431e209cf9b42d866070dcf6df838fe8b6b500d5d9eab59b70b6b2d0cde590b",
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
        "321b1d6c28cbeea2c3eacfbe61de7c509e9730f87eed3548997fdc83344244a3",
        "cc66ac9c3daa41955b4f72991a151360d8b55f4e3eeef83ff46187c109d0f60d",
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
        "29c6a8a53ad45676e60d13d06cd7c3a194169ebd303df856ae90521f2428aefe",
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
