"""verify's grid checks on a worker thread give the bytes of the serial run.

Above ``cli._OVERLAP_MIN`` each member's membership check runs on the one
worker thread of a ``ThreadPoolExecutor`` while the main thread builds the
next member and takes its rows.  These tests open the gate for configs small
enough for tier 1 and compare every output with the gate-closed run, in which
the same loop runs each check inline through ``cli._now``.
"""

import json
import math
import sys
import threading

import pytest

import spirallab.cli as cli
from spirallab import membership
from spirallab.cli import EXIT_CONFIG, EXIT_OK, EXIT_VIOLATION, main
from test_cli import _track_members
from test_golden import CASES as GOLDEN

OPEN, CLOSED = 0, math.inf

SPIRAL = {"kind": "spirallike", "gamma": 0.4, "alpha": 0.2}

#: case -> (config, exit code)
CASES = {
    "cor_spiral_csv": (
        {
            "seed": 5,
            "order": 64,
            "spec": SPIRAL,
            "theorem": "cor_spiral",
            "n": [2, 6],
            "functions": [{"name": "koebe"}, {"sampled": {"trials": 4, "k_atoms": 4}}],
            "membership": {"radii": [0.5, 0.9], "m": 256},
        },
        EXIT_VIOLATION,  # koebe is not spirallike of order 0.2, nor member 3 at r = 0.9
    ),
    "cor_spiral_json": (
        {
            "seed": 5,
            "order": 64,
            "spec": SPIRAL,
            "theorem": "cor_spiral",
            "n": [2, 6],
            "functions": [{"sampled": {"trials": 4, "k_atoms": 4}}],
            "membership": {"radii": [0.5], "m": 256},
            "format": "json",
        },
        EXIT_OK,
    ),
    # the check_convex path
    "cor_convex_gamma": (
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
    ),
    # digit loss in recover_c gives nan rhs rows
    "thm_main_nan_rhs": (
        {
            "seed": 1,
            "order": 128,
            "spec": {"kind": "starlike", "alpha": -2.0},
            "theorem": "thm_main",
            "n": [2, 40],
            "functions": [{"sampled": {"trials": 20, "k_atoms": 4}}],
            "membership": True,
        },
        EXIT_VIOLATION,
    ),
    # the worker's check raises ZeroOnGrid: a membership lhs of inf
    "zero_on_grid": (
        {
            "seed": 1,
            "order": 1024,
            "spec": {"kind": "starlike", "alpha": -100},
            "theorem": "thm_C",
            "n": [2, 2],
            "functions": [{"sampled": {"trials": 1, "k_atoms": 1}}],
            "membership": {"radii": [0.5], "m": 4096},
        },
        EXIT_VIOLATION,
    ),
}


def run(tmp_path, capsys, monkeypatch, doc, gate):
    """(exit code, report bytes or None without a report, stdout, stderr, threads the checks ran
    on) of one verify run."""
    monkeypatch.setattr(cli, "_OVERLAP_MIN", gate)
    threads = []
    for name in ("check_spirallike", "check_convex"):
        def recorded(*args, check=getattr(membership, name)):
            threads.append(threading.current_thread())
            return check(*args)

        monkeypatch.setattr(cli, name, recorded)
    out = tmp_path / f"report-{gate}"
    cfg = tmp_path / f"cfg-{gate}.json"
    cfg.write_text(json.dumps({**doc, "out": str(out)}))
    code = main(["verify", "--config", str(cfg)])
    captured = capsys.readouterr()
    return code, out.read_bytes() if out.exists() else None, captured.out, captured.err, threads


@pytest.mark.parametrize("case", sorted(CASES))
def test_the_overlapped_checks_give_the_serial_bytes(tmp_path, capsys, monkeypatch, case):
    doc, code = CASES[case]
    serial = run(tmp_path, capsys, monkeypatch, doc, CLOSED)
    overlapped = run(tmp_path, capsys, monkeypatch, doc, OPEN)
    assert overlapped[:4] == serial[:4]
    assert serial[0] == code
    # the gate decides where each check runs
    assert {t is threading.main_thread() for t in serial[4]} == {True}
    assert {t is threading.main_thread() for t in overlapped[4]} == {False}
    assert len(set(overlapped[4])) == 1  # one worker for the whole run


def test_the_overlapped_checks_keep_their_bytes_under_a_short_switch_interval(tmp_path, capsys,
                                                                              monkeypatch):
    # the two threads trade the GIL every few microseconds; twenty members run through the slot
    doc = CASES["thm_main_nan_rhs"][0]
    serial = run(tmp_path, capsys, monkeypatch, doc, CLOSED)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        overlapped = run(tmp_path, capsys, monkeypatch, doc, OPEN)
    finally:
        sys.setswitchinterval(interval)
    assert overlapped[:4] == serial[:4]


def test_zero_on_grid_in_the_worker_is_an_infinite_lhs(tmp_path, capsys, monkeypatch):
    doc = {**CASES["zero_on_grid"][0], "format": "json"}
    code, report, *_ = run(tmp_path, capsys, monkeypatch, doc, OPEN)
    assert code == EXIT_VIOLATION
    rows = json.loads(report)
    assert [row["lhs"] for row in rows if row["theorem_id"] == "membership"] == [math.inf]


def test_at_most_two_members_are_held(tmp_path, capsys, monkeypatch):
    # member i is checked on the worker while member i + 1 is built, and no earlier one is held
    _, alive = _track_members(monkeypatch)
    doc = CASES["cor_spiral_json"][0]
    assert run(tmp_path, capsys, monkeypatch, doc, OPEN)[0] == EXIT_OK
    assert alive == [0, 1, 1, 1]


@pytest.mark.parametrize(
    "case, code",
    [("cor_spiral_json", EXIT_OK), ("thm_main_nan_rhs", EXIT_VIOLATION)],
)
def test_the_worker_is_joined_on_exit(tmp_path, capsys, monkeypatch, case, code):
    before = threading.active_count()
    assert run(tmp_path, capsys, monkeypatch, CASES[case][0], OPEN)[0] == code
    assert threading.active_count() == before


@pytest.mark.parametrize("gate", [CLOSED, OPEN])
def test_a_row_config_error_stops_before_the_next_member(tmp_path, capsys, monkeypatch, gate):
    # a_301 is past order 256: the rows' indices are checked before member 0 is built
    doc = {**CASES["cor_spiral_json"][0], "order": 256, "n": [2, 300]}
    built, _ = _track_members(monkeypatch)
    before = threading.active_count()
    code, report, out, err, _ = run(tmp_path, capsys, monkeypatch, doc, gate)
    assert (code, out, err) == (EXIT_CONFIG, "", "config error: need order >= 301, have 256\n")
    assert report is None  # nor an empty file left by the early check of the out path
    assert built == []
    assert threading.active_count() == before


@pytest.mark.parametrize("gate, members", [(CLOSED, 2), (OPEN, 3)])
def test_a_check_error_surfaces_as_in_the_serial_run(tmp_path, capsys, monkeypatch, gate, members):
    # member 1's check raises; overlapped, member 2 is built while it runs, and no later one
    built, _ = _track_members(monkeypatch)
    check = cli.check_spirallike
    calls = []

    def failing(*args):
        calls.append(args)
        if len(calls) == 2:
            raise RuntimeError("check of member 1 failed")
        return check(*args)

    monkeypatch.setattr(cli, "check_spirallike", failing)
    monkeypatch.setattr(cli, "_OVERLAP_MIN", gate)
    doc = {**CASES["cor_spiral_json"][0], "out": str(tmp_path / "out")}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="^check of member 1 failed$"):
        main(["verify", "--config", str(cfg)])
    assert len(built) == members
    assert threading.active_count() == before


def test_the_golden_above_the_gate_overlaps():
    _, config, *_ = GOLDEN["verify_membership_above_the_overlap_gate"]
    assert cli._overlaps(config["order"], config["membership"]["m"])
