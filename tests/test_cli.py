import json
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import spirallab.cli as cli
from spirallab import (
    AtomicMeasure, ClassSpec, FunctionSeries, classes, member_from_measure, random_measure
)
from spirallab.cli import CSV_COLUMNS, EXIT_CONFIG, EXIT_OK, EXIT_VIOLATION, _fmt, main
from spirallab.inequalities import FUNCTIONALS, THEOREMS, holds
from test_cli_fuzz import OVERFLOW_SEARCH
from test_golden import CASES as GOLDEN


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_table_passes_and_is_deterministic(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    cfg = write_config(tmp_path, {"n": [2, 20]})
    assert main(["table", "--config", cfg, "--out", str(out1)]) == EXIT_OK
    assert main(["table", "--config", cfg, "--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_table_builds_each_l_phi_through_its_last_read_coefficient(tmp_path, monkeypatch):
    # row n reads a_n and a_{n+1} of l_phi(pi/n), so only those two coefficients are built,
    # and no l_phi member at all
    built = []

    def recorded(phi, n):
        built.append((phi, n.tolist()))
        return classes.l_phi_coefficients(phi, n)

    monkeypatch.setattr(cli, "l_phi_coefficients", recorded)
    monkeypatch.delitem(classes._NAMED, "l_phi")
    cfg = write_config(tmp_path, {"n": [2, 12], "out": str(tmp_path / "table.csv")})
    assert main(["table", "--config", cfg]) == EXIT_OK
    assert built == [(math.pi / n, [n, n + 1]) for n in range(2, 13)]


def test_l_phi_coefficients_are_those_of_every_order():
    # np.sin rounds each element alone, so a_n and a_{n+1} built alone are the full build's bits
    for n in range(2, 8001, 7):
        full = classes.named("l_phi", n + 1, phi=math.pi / n).coeffs[n:]
        alone = classes.l_phi_coefficients(math.pi / n, np.arange(n, n + 2))
        assert full.tolist() == alone.astype(complex).tolist()


def test_table_contents(tmp_path):
    out = tmp_path / "table.csv"
    cfg = write_config(tmp_path, {"n": [2, 6]})
    assert main(["table", "--config", cfg, "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    assert header == [
        "theorem_id", "function_id", "seed", "gamma", "alpha",
        "n", "m", "lhs", "rhs", "slack", "pass",
    ]
    koebe = [l for l in lines if l.startswith("thm_A,koebe")]
    assert len(koebe) == 5
    for line in koebe:
        cells = line.split(",")
        assert cells[7] == "1"  # lhs
        assert cells[8] == "1"  # rhs
        assert cells[10] == "true"


def test_verify_c_half_extremal(tmp_path):
    out = tmp_path / "rows.csv"
    cfg = write_config(
        tmp_path,
        {
            "spec": {"kind": "c_half", "alpha": -0.5},
            "theorem": "thm_c_half",
            "n": [2, 20],
            "functions": [{"name": "c_half_extremal"}],
            "out": str(out),
        },
    )
    assert main(["verify", "--config", cfg]) == EXIT_OK
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 19
    for line in rows:
        cells = line.split(",")
        assert cells[7] == "0.5"
        assert cells[8] == "1"
        assert cells[10] == "true"


def test_verify_detects_violation(tmp_path):
    # the koebe function breaks the convex-family bound 1/(n+1): red alert
    out = tmp_path / "rows.csv"
    cfg = write_config(
        tmp_path,
        {
            "spec": {"kind": "convex"},
            "theorem": "thm_B",
            "n": [2, 5],
            "functions": [{"name": "koebe"}],
            "out": str(out),
        },
    )
    assert main(["verify", "--config", cfg]) == EXIT_VIOLATION
    assert "false" in out.read_text()


def test_verify_sampled_with_membership(tmp_path):
    out = tmp_path / "rows.csv"
    cfg = write_config(
        tmp_path,
        {
            "seed": 5,
            "order": 256,
            "spec": {"kind": "spirallike", "gamma": 0.4, "alpha": 0.2},
            "theorem": "cor_spiral",
            "n": [2, 10],
            "functions": [{"sampled": {"trials": 3, "k_atoms": 4}}],
            "membership": {"radii": [0.5, 0.9], "m": 1024},
            "out": str(out),
        },
    )
    assert main(["verify", "--config", cfg]) == EXIT_OK
    text = out.read_text()
    assert text.count("membership,") == 3
    assert "sample-0000" in text


def test_verify_thm_main_uses_per_function_bound(tmp_path):
    out = tmp_path / "rows.csv"
    cfg = write_config(
        tmp_path,
        {
            "seed": 9,
            "spec": {"kind": "spirallike", "gamma": 0.3, "alpha": 0.25},
            "theorem": "thm_main",
            "n": [2, 8],
            "functions": [{"sampled": {"trials": 2, "k_atoms": 3}}],
            "out": str(out),
        },
    )
    assert main(["verify", "--config", cfg]) == EXIT_OK
    for line in out.read_text().splitlines()[1:]:
        cells = line.split(",")
        assert float(cells[8]) < 1.0  # exponential bound strictly below 1


def test_verify_json_format(tmp_path):
    out = tmp_path / "rows.json"
    cfg = write_config(
        tmp_path,
        {
            "spec": {"kind": "starlike"},
            "theorem": "thm_A",
            "n": [2, 4],
            "functions": [{"name": "koebe"}],
            "out": str(out),
            "format": "json",
        },
    )
    assert main(["verify", "--config", cfg]) == EXIT_OK
    rows = json.loads(out.read_text())
    assert all(row["pass"] for row in rows)
    assert rows[0]["theorem_id"] == "thm_A"


def test_malformed_config_exits_one(tmp_path, capsys):
    (tmp_path / "bad.json").write_text('{"spec": ')
    (tmp_path / "list.json").write_text("[]")
    (tmp_path / "not_utf8.json").write_bytes(b"\xff\xfe")
    (tmp_path / "digits.json").write_text('{"seed": ' + "9" * 5000 + "}")
    (tmp_path / "deep.json").write_text("[" * 100000 + "]" * 100000)
    # a config that names its own out path takes no --out flag, which would replace it
    (tmp_path / "out_null.json").write_text(json.dumps({"out": "a\0b"}))
    (tmp_path / "out_surrogate.json").write_text(json.dumps({"out": "a\ud800b"}))
    out = tmp_path / "never.csv"
    for name, message in [
        ("bad.json", "bad.json:1:10: Expecting value"),
        ("missing.json", "missing.json: No such file or directory"),
        ("list.json", "config root must be a JSON object"),
        ("not_utf8.json", "not_utf8.json: 'utf-8' codec can't decode byte 0xff"),
        ("digits.json", "digits.json: Exceeds the limit (4300 digits)"),
        ("deep.json", "deep.json: maximum recursion depth exceeded"),
        ("out_null.json", "field 'out': embedded null byte"),
        ("out_surrogate.json", "field 'out': "),
    ]:
        flags = [] if name.startswith("out_") else ["--out", str(out)]
        code = main(["verify", "--config", str(tmp_path / name), *flags])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        # one line, no traceback
        assert err.startswith("config error: ") and message in err and err.count("\n") == 1
        assert not out.exists()


def test_config_error_after_the_out_check_leaves_the_out_path_as_it_was(tmp_path, capsys):
    # 'out' is opened for append before any work, so an unusable path fails first; an error
    # found later (here thm_robertson without its m) must not leave a new empty file behind,
    # nor touch a file that was there
    doc = {"spec": {"kind": "c_half", "alpha": -0.5}, "theorem": "thm_robertson",
           "n": [5, 8], "functions": [{"name": "koebe"}]}
    fresh, kept = tmp_path / "left.csv", tmp_path / "kept.csv"
    kept.write_bytes(b"an earlier report\n")
    for out in (fresh, kept):
        cfg = write_config(tmp_path, {**doc, "out": str(out)})
        assert main(["verify", "--config", cfg]) == EXIT_CONFIG
        assert "field 'm' is required" in capsys.readouterr().err
    assert not fresh.exists()
    assert kept.read_bytes() == b"an earlier report\n"


def test_missing_seed_for_sampled_exits_one(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "spec": {"kind": "starlike"},
            "theorem": "thm_A",
            "n": [2, 4],
            "functions": [{"sampled": {"trials": 2}}],
        },
    )
    assert main(["verify", "--config", cfg]) == EXIT_CONFIG
    assert "seed" in capsys.readouterr().err


def test_invalid_spec_reports_field(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "spec": {"kind": "starlike", "gamma": 0.4},
            "theorem": "thm_A",
            "n": [2, 4],
            "functions": [{"name": "koebe"}],
        },
    )
    assert main(["verify", "--config", cfg]) == EXIT_CONFIG
    assert "spec" in capsys.readouterr().err


def test_trace_command(tmp_path):
    out = tmp_path / "traces.json"
    cfg = write_config(
        tmp_path,
        {
            "seed": 2,
            "spec": {"kind": "spirallike", "gamma": 0.2, "alpha": 0.1},
            "n": 6,
            "functions": [{"sampled": {"trials": 3, "k_atoms": 4}}],
            "out": str(out),
        },
    )
    assert main(["trace", "--config", cfg]) == EXIT_OK
    docs = json.loads(out.read_text())
    assert len(docs) == 3
    for doc in docs:
        assert doc["final_bound"] <= 1.0
        assert len(doc["c"]) == 6


def test_trace_of_a_convex_kind_is_the_chain_behind_its_verify_rows(tmp_path):
    # cor_convex_gamma's per-function rhs is the final bound of the trace of z f'(z) over
    # n + 1, so trace replays that chain, not one run on the convex member f itself
    config = {
        "seed": 7,
        "spec": {"kind": "convex_spirallike", "gamma": 0.3, "alpha": 0.2},
        "n": [2, 10],
        "functions": [{"sampled": {"trials": 5, "k_atoms": 4}}],
        "theorem": "cor_convex_gamma",
        "format": "json",
    }
    rows, traces = tmp_path / "rows.json", tmp_path / "traces.json"
    cfg = write_config(tmp_path, config)
    assert main(["verify", "--config", cfg, "--out", str(rows)]) == EXIT_OK
    assert main(["trace", "--config", cfg, "--out", str(traces)]) == EXIT_OK
    rhs = {(row["function_id"], row["n"]): row["rhs"] for row in json.loads(rows.read_text())}
    docs = json.loads(traces.read_text())
    assert len(docs) == len(rhs) == 45
    for doc in docs:
        assert doc["final_bound"] / (doc["n"] + 1) == rhs[doc["function_id"], doc["n"]]


def test_search_command_streams_and_writes(tmp_path, capsys):
    out = tmp_path / "result.json"
    cfg = write_config(
        tmp_path,
        {
            "seed": 3,
            "spec": {"kind": "starlike"},
            "n": 4,
            "k_atoms": 1,
            "budget": 400,
            "restarts": 2,
            "out": str(out),
        },
    )
    assert main(["search", "--config", cfg]) == EXIT_OK
    streamed = [json.loads(l) for l in capsys.readouterr().out.splitlines() if l]
    assert streamed, "incumbent updates should stream as JSON lines"
    assert all("incumbent" in d for d in streamed)
    doc = json.loads(out.read_text())
    assert doc["best_value"] == pytest.approx(1.0, abs=1e-9)
    assert doc["bound"]["violated"] is False


def test_search_robertson_on_c_half_checks_thm_robertson(tmp_path, capsys):
    # c_half's first row bounds one_sided_diff; a robertson search reads thm_robertson
    out = tmp_path / "result.json"
    doc = {
        "seed": 1,
        "spec": {"kind": "c_half", "alpha": -0.5},
        "n": 5,
        "m": 2,
        "functional": "robertson",
        "budget": 400,
        "restarts": 2,
        "out": str(out),
    }
    assert main(["search", "--config", write_config(tmp_path, doc)]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["bound"] == {"theorem_id": "thm_robertson", "rhs": 12.0, "violated": False}
    assert report["best_value"] == pytest.approx(12.0, abs=1e-6)


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--n", "3"],
        ["verify", "--seed", "x"],
        ["nope"],
        [],
        ["table", "--format", "xml"],
        # a flag the command does not read
        ["search", "--order", "4096"],
        ["search", "--format", "csv"],
        ["table", "--seed", "3"],
        ["trace", "--format", "json"],
        ["sample", "--format", "json"],
        ["table", "--order", "64"],
    ],
)
def test_usage_error_exits_one(capsys, argv):
    assert main(argv) == EXIT_CONFIG
    assert "usage:" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["verify", "--help"]) == EXIT_OK
    assert "--config" in capsys.readouterr().out


@pytest.mark.parametrize(
    "kind, functional",
    [("spirallike", "one_sided_diff"), ("convex", "two_sided_diff")],
)
def test_search_without_a_bound_on_its_functional_runs_at_any_n(tmp_path, capsys, kind, functional):
    # the class's theorem bounds the other functional, so no bound reads n = 1
    out = tmp_path / "result.json"
    doc = {
        "seed": 0,
        "spec": {"kind": kind},
        "n": 1,
        "functional": functional,
        "budget": 200,
        "restarts": 1,
        "out": str(out),
    }
    assert main(["search", "--config", write_config(tmp_path, doc)]) == EXIT_OK
    assert "bound" not in json.loads(out.read_text())


def test_sample_command_deterministic(tmp_path):
    out1 = tmp_path / "s1.json"
    out2 = tmp_path / "s2.json"
    base = {
        "seed": 8,
        "order": 16,
        "trials": 4,
        "k_atoms": 3,
        "spec": {"kind": "starlike"},
    }
    cfg1 = write_config(tmp_path, {**base, "out": str(out1)}, "c1.json")
    cfg2 = write_config(tmp_path, {**base, "out": str(out2)}, "c2.json")
    assert main(["sample", "--config", cfg1]) == EXIT_OK
    assert main(["sample", "--config", cfg2]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    docs = json.loads(out1.read_text())
    assert len(docs) == 4
    assert all(len(d["coefficients"]) == 17 for d in docs)


@pytest.mark.parametrize("command", ["verify", "trace"])
def test_report_goes_to_stdout_without_out(tmp_path, capsys, command):
    cfg = write_config(tmp_path, _SAMPLED_MAIN)
    out = tmp_path / "report"
    code = main([command, "--config", cfg, "--out", str(out)])
    assert capsys.readouterr().out == ""
    assert main([command, "--config", cfg]) == code
    assert capsys.readouterr().out.encode() == out.read_bytes()


def test_jsonable_encodes_dataclasses_and_complex_and_rejects_the_rest():
    doc = {"z": 1.5 - 2j, "measure": AtomicMeasure((0.5,), (1.0,))}
    assert json.loads(json.dumps(doc, default=cli._jsonable)) == {
        "z": [1.5, -2.0],
        "measure": [{"t": 0.5, "w": 1.0}],
    }
    with pytest.raises(TypeError, match="not JSON serializable"):
        json.dumps({1, 2}, default=cli._jsonable)


def test_module_entry_point_writes_the_table(capsys):
    # python -m spirallab.cli runs entry(), which exits with main's code
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "spirallab.cli", "table"],
        capture_output=True, env={**os.environ, "PYTHONPATH": path}, timeout=300,
    )
    assert main(["table"]) == EXIT_OK
    assert (run.returncode, run.stderr) == (EXIT_OK, b"")
    assert run.stdout == capsys.readouterr().out.encode()


def test_table_runs_without_config(tmp_path):
    out = tmp_path / "default.csv"
    assert main(["table", "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert sum(1 for l in lines if l.startswith("thm_A,koebe")) == 19  # n = 2..20


def test_verify_robertson_theorem(tmp_path):
    out = tmp_path / "rows.csv"
    cfg = write_config(
        tmp_path,
        {
            "spec": {"kind": "c_half", "alpha": -0.5},
            "theorem": "thm_robertson",
            "n": [5, 8],
            "m": 2,
            "functions": [{"name": "c_half_extremal"}],
            "out": str(out),
        },
    )
    assert main(["verify", "--config", cfg]) == EXIT_OK
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 4
    # the extremal attains the gap bound with equality
    first = rows[0].split(",")
    assert first[6] == "2"  # m column
    assert first[7] == first[8]


def test_verify_thm_main_red_alert_for_non_member(tmp_path):
    # koebe is far outside a high-order class, so the chain breaks: exit 2
    out = tmp_path / "rows.csv"
    cfg = write_config(
        tmp_path,
        {
            "spec": {"kind": "starlike", "alpha": 0.9},
            "theorem": "thm_main",
            "n": [10, 10],
            "functions": [{"name": "koebe"}],
            "out": str(out),
        },
    )
    assert main(["verify", "--config", cfg]) == EXIT_VIOLATION
    assert "false" in out.read_text()


def test_order_too_low_is_config_error(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "order": 8,
            "spec": {"kind": "starlike"},
            "theorem": "thm_A",
            "n": [2, 40],
            "functions": [{"name": "koebe"}],
        },
    )
    assert main(["verify", "--config", cfg]) == EXIT_CONFIG
    assert "order" in capsys.readouterr().err


def test_membership_zero_on_grid_is_red_row(tmp_path):
    # two_point atoms on the 0.5-circle direction put a zero of f on the grid
    out = tmp_path / "rows.csv"
    cfg = write_config(
        tmp_path,
        {
            "spec": {"kind": "starlike"},
            "theorem": "thm_A",
            "n": [2, 3],
            "functions": [{"name": "koebe"}],
            "membership": {"radii": [0.99], "m": 64},
            "out": str(out),
        },
    )
    # koebe at default order 64 is far from its function at r = 0.99;
    # whatever the polynomial does there must land in a row, not a crash
    code = main(["verify", "--config", cfg])
    assert code in (EXIT_OK, EXIT_VIOLATION)
    assert out.exists()


#: power_map(3) = z (1 - z)^-3 has f'(-1/2) = 0, a point of the 4-point grid at r = 0.5
_CRITICAL_POINT_MEMBERSHIP = {
    "spec": {"kind": "convex"},
    "theorem": "thm_B",
    "n": [2, 3],
    "functions": [{"name": "power_map", "params": {"beta": 3}}],
    "membership": {"radii": [0.5], "m": 4},
}


def test_membership_critical_point_on_grid_is_red_row(tmp_path):
    # f' vanishing on the grid rules the class out: an inf lhs, not a crash
    out = tmp_path / "rows.json"
    cfg = write_config(tmp_path, {**_CRITICAL_POINT_MEMBERSHIP, "format": "json", "out": str(out)})
    assert main(["verify", "--config", cfg]) == EXIT_VIOLATION
    row = json.loads(out.read_text())[0]
    assert row["theorem_id"] == "membership"
    assert (row["lhs"], row["slack"], row["pass"]) == (math.inf, -math.inf, False)


def test_trace_broken_chain_writes_violation_docs(tmp_path):
    # at alpha = -3 the recovered c_k lose digits, so some chains break: exit 2, not a crash
    out = tmp_path / "traces.json"
    doc = {
        "seed": 1,
        "order": 128,
        "spec": {"kind": "starlike", "alpha": -3.0},
        "n": [2, 40],
        "functions": [{"sampled": {"trials": 20, "k_atoms": 4}}],
        "out": str(out),
    }
    assert main(["trace", "--config", write_config(tmp_path, doc)]) == EXIT_VIOLATION
    docs = json.loads(out.read_text())
    assert len(docs) == 20 * 39
    broken = [d for d in docs if "violation" in d]
    assert broken
    assert all(set(d) == {"function_id", "seed", "n", "violation"} for d in broken)


def test_seed_flag_overrides_config(tmp_path):
    out1 = tmp_path / "s1.json"
    out2 = tmp_path / "s2.json"
    base = {"seed": 8, "order": 8, "trials": 2, "k_atoms": 2, "spec": {"kind": "starlike"}}
    cfg = write_config(tmp_path, base)
    assert main(["sample", "--config", cfg, "--out", str(out1)]) == EXIT_OK
    assert main(["sample", "--config", cfg, "--seed", "9", "--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() != out2.read_bytes()



_SAMPLED_MAIN = {
    "seed": 1,
    "order": 32,
    "spec": {"kind": "spirallike", "gamma": 0.3, "alpha": 0.2},
    "theorem": "thm_main",
    "n": [2, 4],
    "functions": [{"sampled": {"trials": 2, "k_atoms": 3}}],
}

_NEGATIVE_ORDER_STARLIKE = {
    "seed": 1,
    "spec": {"kind": "starlike", "alpha": -1.0},
    "n": [2, 6],
    "functions": [{"sampled": {"trials": 3}}],
}

# case -> (command, config); each config holds one value outside the schema
_OUTSIDE_SCHEMA = {
    "radius_past_one": (
        "verify", {**_SAMPLED_MAIN, "membership": {"radii": [1.5], "m": 64}}
    ),
    "radii_not_a_list": ("verify", {**_SAMPLED_MAIN, "membership": {"radii": "x"}}),
    # a class thm_robertson is stated for, so the order check is what rejects it
    "robertson_n_past_order": (
        "verify",
        {
            **_SAMPLED_MAIN,
            "spec": {"kind": "c_half", "alpha": -0.5},
            "theorem": "thm_robertson",
            "n": [30, 40],
            "m": 2,
        },
    ),
    "robertson_without_m": (
        "verify",
        {**_SAMPLED_MAIN, "spec": {"kind": "c_half", "alpha": -0.5}, "theorem": "thm_robertson"},
    ),
    "unknown_theorem": ("verify", {**_SAMPLED_MAIN, "theorem": "thm_nonexistent"}),
    "sampled_order_zero": ("verify", {**_SAMPLED_MAIN, "order": 0}),
    "k_atoms_zero": (
        "verify", {**_SAMPLED_MAIN, "functions": [{"sampled": {"trials": 2, "k_atoms": 0}}]}
    ),
    "trials_not_int": (
        "verify", {**_SAMPLED_MAIN, "functions": [{"sampled": {"trials": "x"}}]}
    ),
    "gamma_near_half_pi": (
        "verify", {**_SAMPLED_MAIN, "spec": {"kind": "spirallike", "gamma": 1.5707963267}}
    ),
    "gamma_not_number": (
        "verify", {**_SAMPLED_MAIN, "spec": {"kind": "spirallike", "gamma": "x"}}
    ),
    "n_boolean": ("verify", {**_SAMPLED_MAIN, "n": True}),
    "n_range_empty": ("verify", {**_SAMPLED_MAIN, "n": [5, 2]}),
    "sampled_not_an_object": ("verify", {**_SAMPLED_MAIN, "functions": [{"sampled": 3}]}),
    "name_not_a_string": ("verify", {**_SAMPLED_MAIN, "functions": [{"name": 3}]}),
    "params_not_an_object": (
        "verify", {**_SAMPLED_MAIN, "functions": [{"name": "koebe", "params": []}]}
    ),
    "seed_boolean": ("verify", {**_SAMPLED_MAIN, "seed": True}),
    "named_param_not_number": (
        "verify", {**_SAMPLED_MAIN, "functions": [{"name": "l_phi", "params": {"phi": "x"}}]}
    ),
    "sample_k_atoms_zero": (
        "sample", {"seed": 1, "trials": 2, "k_atoms": 0, "spec": {"kind": "starlike"}}
    ),
    "search_minimize_string": (
        "search", {"seed": 1, "spec": {"kind": "starlike"}, "n": 4, "minimize": "false"}
    ),
    "search_format_unknown": (
        "search", {"seed": 1, "spec": {"kind": "starlike"}, "n": 4, "format": "xml"}
    ),
    "search_restarts_zero": (
        "search", {"seed": 1, "spec": {"kind": "starlike"}, "n": 4, "restarts": 0}
    ),
    "search_budget_not_int": (
        "search", {"seed": 1, "spec": {"kind": "starlike"}, "n": 4, "budget": "x"}
    ),
    # non-finite numbers, which Python's json reads from NaN and -Infinity
    "named_param_nan": (
        "verify",
        {**_SAMPLED_MAIN, "functions": [{"name": "power_map", "params": {"beta": math.nan}}]},
    ),
    "two_point_theta_nan": (
        "verify",
        {
            **_SAMPLED_MAIN,
            "functions": [{"name": "two_point", "params": {"theta1": math.nan, "theta2": 1.0}}],
        },
    ),
    "spec_alpha_negative_infinity": (
        "verify", {**_SAMPLED_MAIN, "spec": {"kind": "starlike", "alpha": -math.inf}}
    ),
    "seed_negative": ("verify", {**_SAMPLED_MAIN, "seed": -1}),
    "seed_flag_negative": ("verify", _SAMPLED_MAIN, "--seed", "-1"),
    "sample_seed_negative": (
        "sample", {"seed": -1, "trials": 2, "spec": {"kind": "starlike"}}
    ),
    "search_n_below_bound": ("search", {"seed": 1, "spec": {"kind": "starlike"}, "n": 1}),
    "search_n_zero": ("search", {"seed": 1, "spec": {"kind": "starlike"}, "n": 0}),
    "search_convex_n_below_bound": (
        "search",
        {"seed": 1, "spec": {"kind": "convex"}, "n": 1, "functional": "one_sided_diff"},
    ),
    "search_functional_not_string": (
        "search", {"seed": 1, "spec": {"kind": "starlike"}, "n": 4, "functional": ["x"]}
    ),
    "search_seed_negative": ("search", {"seed": -1, "spec": {"kind": "starlike"}, "n": 4}),
    "sample_order_zero": (
        "sample", {"seed": 1, "trials": 1, "order": 0, "spec": {"kind": "starlike"}}
    ),
    "out_not_a_string": ("table", {"out": 5}),
    "out_is_a_directory": ("table", {"out": "."}),
    "membership_string": ("verify", {**_SAMPLED_MAIN, "membership": "no"}),
    "membership_integer": ("verify", {**_SAMPLED_MAIN, "membership": 1}),
    "radius_boolean": ("verify", {**_SAMPLED_MAIN, "membership": {"radii": [True]}}),
    "named_param_string": (
        "verify", {**_SAMPLED_MAIN, "functions": [{"name": "power_map", "params": {"beta": "3"}}]}
    ),
    "named_param_boolean": (
        "verify", {**_SAMPLED_MAIN, "functions": [{"name": "l_phi", "params": {"phi": True}}]}
    ),
    "sample_trials_negative": (
        "sample", {"seed": 1, "trials": -1, "spec": {"kind": "starlike"}}
    ),
    "sampled_trials_negative": (
        "verify", {**_SAMPLED_MAIN, "functions": [{"sampled": {"trials": -1}}]}
    ),
    "entry_with_name_and_sampled": (
        "verify", {**_SAMPLED_MAIN, "functions": [{"name": "koebe", "sampled": {"trials": 1}}]}
    ),
    "search_out_is_a_directory": (
        "search",
        {"seed": 1, "spec": {"kind": "starlike"}, "n": 4, "budget": 400, "restarts": 2, "out": "."},
    ),
    # one past each size ceiling
    "k_atoms_past_ceiling": (
        "verify", {**_SAMPLED_MAIN, "functions": [{"sampled": {"trials": 2, "k_atoms": 17}}]}
    ),
    "sample_k_atoms_past_ceiling": (
        "sample", {"seed": 1, "trials": 2, "k_atoms": 17, "spec": {"kind": "starlike"}}
    ),
    "order_past_ceiling": (
        "sample", {"seed": 1, "trials": 1, "order": 65537, "spec": {"kind": "starlike"}}
    ),
    "table_n_past_ceiling": ("table", {"n": [2, 65536]}),
    "membership_m_past_ceiling": (
        "verify", {**_SAMPLED_MAIN, "membership": {"radii": [0.5], "m": 2**20 + 1}}
    ),
    "search_n_past_ceiling": ("search", {"seed": 1, "spec": {"kind": "starlike"}, "n": 65536}),
    "search_budget_past_ceiling": (
        "search", {"seed": 1, "spec": {"kind": "starlike"}, "n": 4, "budget": 1_000_001}
    ),
    "sample_trials_past_ceiling": (
        "sample", {"seed": 1, "trials": 100001, "spec": {"kind": "starlike"}}
    ),
    "sampled_trials_past_ceiling": (
        "verify", {**_SAMPLED_MAIN, "functions": [{"sampled": {"trials": 100001}}]}
    ),
    # trials x (order + 1) past the coefficient ceiling, each field within its own
    "sample_coefficients_past_ceiling": (
        "sample", {"seed": 1, "trials": 1000, "order": 65536, "spec": {"kind": "starlike"}}
    ),
    "membership_coefficients_past_ceiling": (
        "verify",
        {
            **_SAMPLED_MAIN,
            "order": 65536,
            "functions": [{"sampled": {"trials": 1000}}],
            "membership": {"radii": [0.5], "m": 64},
        },
    ),
    # two sampled entries each within the coefficient ceiling: the second is rejected at once
    "sampled_entries_coefficients_past_ceiling": (
        "verify",
        {
            **_SAMPLED_MAIN,
            "order": 65536,
            "functions": [{"sampled": {"trials": 300}}, {"sampled": {"trials": 300}}],
            "membership": {"radii": [0.5], "m": 64},
        },
    ),
    # a JSON integer too large for a double, where float() raises OverflowError
    "gamma_integer_past_double": (
        "verify", {**_SAMPLED_MAIN, "spec": {"kind": "spirallike", "gamma": 10**400}}
    ),
    # indices below 1 with members built only as far as the largest n reads
    "sampled_n_zero": ("verify", {**_SAMPLED_MAIN, "n": 0}),
    "sampled_n_negative": ("verify", {**_SAMPLED_MAIN, "n": [-1, -1]}),
    "sampled_n_from_zero": ("verify", {**_SAMPLED_MAIN, "n": [0, 3]}),
    "trace_n_zero": ("trace", {**_SAMPLED_MAIN, "n": 0}),
    "trace_n_negative": ("trace", {**_SAMPLED_MAIN, "n": [-1, -1]}),
    "trace_n_from_zero": ("trace", {**_SAMPLED_MAIN, "n": [0, 3]}),
    "table_n_negative": ("table", {"n": [-1, -1]}),
    # a theorem on a class it is not stated for, where its rhs bounds nothing
    "thm_c_on_positive_order": (
        "verify",
        {
            "seed": 3,
            "spec": {"kind": "starlike", "alpha": 0.75},
            "theorem": "thm_C",
            "n": [2, 3],
            "functions": [{"sampled": {"trials": 2}}],
        },
    ),
    "thm_a_on_negative_order": ("verify", {**_NEGATIVE_ORDER_STARLIKE, "theorem": "thm_A"}),
    "cor_spiral_on_negative_order": (
        "verify", {**_NEGATIVE_ORDER_STARLIKE, "theorem": "cor_spiral"}
    ),
    # a misspelt field in each config object, which would otherwise be ignored
    "unknown_top_level_field": ("verify", {**_SAMPLED_MAIN, "membershp": {"radii": [0.5]}}),
    "unknown_spec_field": (
        "verify", {**_SAMPLED_MAIN, "spec": {"kind": "spirallike", "gamma": 0.3, "aplha": 0.2}}
    ),
    "unknown_named_entry_field": (
        "verify", {**_SAMPLED_MAIN, "functions": [{"name": "koebe", "parms": {"x": 1.0}}]}
    ),
    "unknown_sampled_entry_field": (
        "verify", {**_SAMPLED_MAIN, "functions": [{"sampled": {"trials": 2}, "k_atoms": 3}]}
    ),
    "unknown_sampled_field": (
        "verify", {**_SAMPLED_MAIN, "functions": [{"sampled": {"trails": 1000}}]}
    ),
    "unknown_membership_field": ("verify", {**_SAMPLED_MAIN, "membership": {"radius": [0.5]}}),
    "unknown_search_field": (
        "search", {"seed": 1, "spec": {"kind": "starlike"}, "n": 4, "budgte": 400}
    ),
    # two entries that give the same function ids
    "sampled_entries_repeat_ids": (
        "verify",
        {**_SAMPLED_MAIN, "functions": [{"sampled": {"trials": 2}}, {"sampled": {"trials": 3}}]},
    ),
    "named_entries_repeat_ids": (
        "verify", {**_SAMPLED_MAIN, "functions": [{"name": "koebe"}, {"name": "koebe"}]}
    ),
    # a named function whose coefficients overflow a double
    "named_coefficients_overflow": (
        "trace",
        {
            "spec": {"kind": "starlike", "alpha": -1.0},
            "n": [50, 60],
            "order": 64,
            "functions": [{"name": "power_map", "params": {"beta": 1e9}}],
        },
    ),
    "thm_b_on_c_half": (
        "verify",
        {
            "spec": {"kind": "c_half", "alpha": -0.5},
            "theorem": "thm_B",
            "n": [2, 5],
            "functions": [{"name": "c_half_extremal"}],
        },
    ),
    # an n range far past the order: the top of the range is read, never the whole range
    "verify_n_range_past_order": ("verify", {**_SAMPLED_MAIN, "order": 64, "n": [2, 10**15]}),
    "trace_n_range_past_order": ("trace", {**_SAMPLED_MAIN, "order": 64, "n": [2, 10**15]}),
    "table_n_range_past_order_ceiling": ("table", {"n": [2, 10**15]}),
    # a field, or a nested object, that the command does not read is checked all the same
    "verify_budget_not_int": ("verify", {**_SAMPLED_MAIN, "budget": "x"}),
    "verify_trials_negative": ("verify", {**_SAMPLED_MAIN, "trials": -5}),
    "trace_minimize_string": ("trace", {**_SAMPLED_MAIN, "minimize": "no"}),
    "search_order_past_ceiling": (
        "search", {"seed": 1, "spec": {"kind": "starlike"}, "n": 4, "order": 70000}
    ),
    # a per-function rhs needs n >= 2 like every class-wide one
    "thm_main_n_one": (
        "verify", {**_SAMPLED_MAIN, "spec": {**_SAMPLED_MAIN["spec"], "alpha": 0.1}, "n": [1, 2]}
    ),
    "cor_convex_gamma_n_one": (
        "verify",
        {
            **_SAMPLED_MAIN,
            "spec": {"kind": "convex_spirallike", "gamma": 0.3, "alpha": 0.1},
            "theorem": "cor_convex_gamma",
            "n": [1, 2],
        },
    ),
    # params that name named's own arguments
    "params_order": (
        "verify", {**_SAMPLED_MAIN, "functions": [{"name": "koebe", "params": {"order": 3}}]}
    ),
    "params_name": (
        "verify", {**_SAMPLED_MAIN, "functions": [{"name": "koebe", "params": {"name": 1}}]}
    ),
    "table_order_zero": ("table", {"order": 0}),
    "table_seed_string": ("table", {"seed": "x"}),
    "table_spec_gamma_string": ("table", {"spec": {"kind": "starlike", "gamma": "x"}}),
    "trace_membership_m_zero": ("trace", {**_SAMPLED_MAIN, "membership": {"m": 0}}),
    "search_sampled_trials_negative": (
        "search",
        {
            "seed": 1,
            "spec": {"kind": "starlike"},
            "n": 4,
            "functions": [{"sampled": {"trials": -1}}],
        },
    ),
}


@pytest.mark.parametrize("case", sorted(_OUTSIDE_SCHEMA))
def test_config_outside_schema_is_config_error(tmp_path, capsys, case):
    command, doc, *flags = _OUTSIDE_SCHEMA[case]
    # a case that is about 'out' keeps its own value
    cfg = write_config(tmp_path, {"out": str(tmp_path / "out"), **doc})
    assert main([command, "--config", cfg, *flags]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:")
    assert captured.out == ""  # rejected before any work is streamed


@pytest.mark.parametrize(
    "doc",
    [
        {
            **_SAMPLED_MAIN,
            "functions": [{"name": "koebe"}, {"sampled": {"trials": 1, "k_atoms": 17}}],
        },
        {
            **{key: value for key, value in _SAMPLED_MAIN.items() if key != "seed"},
            "functions": [{"name": "koebe"}, {"sampled": {"trials": 1}}],
        },
    ],
    ids=["k_atoms_past_ceiling", "no_seed"],
)
def test_every_function_entry_is_checked_before_any_member_is_built(tmp_path, monkeypatch, doc):
    # a sampled entry's k_atoms and the config's seed are read before the named koebe is built
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return classes.named(*args, **kwargs)

    monkeypatch.setattr(cli, "named", counted)
    assert main(["verify", "--config", write_config(tmp_path, doc)]) == EXIT_CONFIG
    assert calls == []


class _Member(FunctionSeries):
    # a member a weakref can follow: FunctionSeries has no __weakref__ slot
    __slots__ = ("__weakref__",)


def _track_members(monkeypatch):
    """Wrap cli.member_from_measure and the maps of cli.member_builder; return weakrefs to the
    members and blocks of members they build and, per build, how many earlier ones are still
    alive."""
    built, alive = [], []

    def track(build):
        def tracked(*args):
            alive.append(sum(ref() is not None for ref in built))
            made = build(*args)
            built.append(weakref.ref(made))
            return made

        return tracked

    member = track(lambda *args: _Member(classes.member_from_measure(*args).coeffs))
    monkeypatch.setattr(cli, "member_from_measure", member)
    monkeypatch.setattr(cli, "member_builder", lambda *args: track(classes.member_builder(*args)))
    return built, alive


#: case -> (command, config, its config error, the sampled members or blocks built before it):
#: named functions are built before any member, a verify row's error comes before any member
#: is built, with or without a grid and a per-function rhs, and trace's stops the run at once
_LATE_ERRORS = {
    "unknown_name_after_sampled": (
        "verify",
        {**_SAMPLED_MAIN, "functions": [{"sampled": {"trials": 60}}, {"name": "nope"}]},
        "unknown function name 'nope'",
        0,
    ),
    "n_past_order": (
        "verify",
        {
            **_SAMPLED_MAIN,
            "order": 256,
            "theorem": "cor_spiral",
            "n": [2, 300],
            "functions": [{"sampled": {"trials": 40}}],
        },
        "need order >= 257, have 256",
        0,
    ),
    "robertson_m_zero": (
        "verify",
        {
            **_SAMPLED_MAIN,
            "spec": {"kind": "c_half", "alpha": -0.5},
            "theorem": "thm_robertson",
            "m": 0,
            "n": [5, 8],
            "functions": [{"sampled": {"trials": 40}}],
        },
        "robertson needs n > m >= 1",
        0,
    ),
    "grid_n_past_order": (
        "verify",
        {
            **_SAMPLED_MAIN,
            "theorem": "cor_spiral",
            "n": [2, 40],
            "functions": [{"sampled": {"trials": 40}}],
            "membership": {"radii": [0.5], "m": 64},
        },
        "need order >= 33, have 32",
        0,
    ),
    "thm_main_n_below_two": (
        "verify",
        {**_SAMPLED_MAIN, "n": [1, 4], "functions": [{"sampled": {"trials": 40}}]},
        "thm_main bound needs n >= 2",
        0,
    ),
    "trace_n_past_order": (
        "trace",
        {**_SAMPLED_MAIN, "n": [2, 40], "functions": [{"sampled": {"trials": 40}}]},
        "need order >= 33, have 32",
        1,
    ),
}


@pytest.mark.parametrize("case", sorted(_LATE_ERRORS))
def test_config_error_comes_before_the_next_member(tmp_path, monkeypatch, capsys, case):
    command, doc, message, members = _LATE_ERRORS[case]
    built, _ = _track_members(monkeypatch)
    assert main([command, "--config", write_config(tmp_path, doc)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert len(built) == members


@pytest.mark.parametrize(
    "command, doc, builds",
    [
        ("verify", {**_SAMPLED_MAIN, "membership": {"radii": [0.5], "m": 64}}, 12),
        ("verify", {**_SAMPLED_MAIN, "theorem": "cor_spiral"}, 3),
        ("trace", _SAMPLED_MAIN, 12),
    ],
    ids=["verify_thm_main_membership", "verify_cor_spiral", "trace"],
)
def test_each_member_is_dropped_after_its_rows(tmp_path, monkeypatch, command, doc, builds):
    # the loop still holds the last member, or block, while the next is built, and no earlier
    # one; a grid-less class-wide verify builds its members of order 5 in blocks of four
    built, alive = _track_members(monkeypatch)
    monkeypatch.setattr(cli, "BATCH_TERMS", 4 * 3 * 6)
    doc = {**doc, "functions": [{"sampled": {"trials": 12, "k_atoms": 3}}]}
    cfg = write_config(tmp_path, {**doc, "out": str(tmp_path / "out")})
    assert main([command, "--config", cfg]) == EXIT_OK
    assert alive == [0] + [1] * (builds - 1)


#: grid-less suites with a class-wide rhs, which verify builds and judges in blocks:
#: case -> (spec, theorem, m, n range); starlike members of order -20000 leave the double
#: range before a_202
_BLOCK_SUITES = {
    "spirallike": ({"kind": "spirallike", "gamma": 0.4, "alpha": 0.2}, "cor_spiral", None, [2, 30]),
    "starlike_negative_order": ({"kind": "starlike", "alpha": -0.5}, "thm_C", None, [2, 30]),
    "convex": ({"kind": "convex", "alpha": 0.3}, "thm_B", None, [2, 30]),
    "c_half": ({"kind": "c_half", "alpha": -0.5}, "thm_robertson", 3, [4, 30]),
    "overflow": ({"kind": "starlike", "alpha": -20000.0}, "thm_C", None, [2, 250]),
}


@pytest.mark.parametrize("trials", [1, 23])
@pytest.mark.parametrize("k_atoms", [1, 16])
@pytest.mark.parametrize("case", sorted(_BLOCK_SUITES))
def test_block_rows_are_those_of_each_member_built_alone(tmp_path, monkeypatch, case, k_atoms,
                                                         trials):
    # blocks of five members: 23 trials take four stacked builds and a last block of three,
    # and 1 trial a stack of one; the rows are FUNCTIONALS on the same draws, built alone
    spec, theorem, m, (lo, hi) = _BLOCK_SUITES[case]
    monkeypatch.setattr(cli, "BATCH_TERMS", 5 * k_atoms * (hi + 2))
    out = tmp_path / "rows.json"
    doc = {"seed": 7, "order": 512, "spec": spec, "theorem": theorem, "n": [lo, hi], "m": m,
           "functions": [{"sampled": {"trials": trials, "k_atoms": k_atoms}}],
           "format": "json", "out": str(out)}
    code = main(["verify", "--config", write_config(tmp_path, doc)])
    rows = json.loads(out.read_text())
    rng = np.random.default_rng(7)
    functional = FUNCTIONALS[THEOREMS[theorem].functional]
    expected = []
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(trials):
            f = member_from_measure(random_measure(rng, k_atoms), ClassSpec(**spec), hi + 1)
            expected += [(f"sample-{t:04d}", n, functional(f, n, m).hex()) for n in range(lo, hi + 1)]
    assert [(row["function_id"], row["n"], row["lhs"].hex()) for row in rows] == expected
    assert code == (EXIT_OK if all(row["pass"] for row in rows) else EXIT_VIOLATION)
    if case == "overflow":
        assert "nan" in {row["lhs"].hex() for row in rows}


#: a sampled suite whose members leave the double range: inf and NaN rows, a red alert
_OVERFLOW = {"seed": 1, "order": 4096, "spec": {"kind": "starlike", "alpha": -300},
             "theorem": "thm_C", "n": [2, 2000],
             "functions": [{"sampled": {"trials": 3, "k_atoms": 2}}]}

#: one member past the double range before a_450, for the derivation chains of trace and of
#: verify's thm_main
_OVERFLOW_CHAIN = {"seed": 1, "order": 500, "spec": {"kind": "starlike", "alpha": -300},
                   "n": [450, 451], "functions": [{"sampled": {"trials": 1, "k_atoms": 1}}]}

#: cli.main in a fresh interpreter; with "per_member", thm_C's rhs is given per function, with
#: the same values, so verify takes its members one at a time instead of in blocks
_RUN_MAIN = """
import sys
from spirallab import cli
if sys.argv[1] == "per_member":
    row = cli.THEOREMS["thm_C"]
    cli.THEOREMS["thm_C"] = row._replace(member=lambda f, spec, n: row.rhs(n, None, spec.alpha))
sys.exit(cli.main(sys.argv[2:]))
"""


def test_an_overflowing_sampled_member_writes_nothing_on_stderr(tmp_path):
    # numpy's overflow and invalid-value warnings are off for the whole command: verify's
    # builds and rows on both paths, the derivation chains of trace and of verify's thm_main,
    # and search's builds
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def red_alert(how: str, command: str, doc: dict) -> bytes:
        out = tmp_path / f"{how}-{command}.out"
        cfg = write_config(tmp_path, {**doc, "out": str(out)})
        run = subprocess.run(
            [sys.executable, "-c", _RUN_MAIN, how, command, "--config", cfg],
            capture_output=True, env={**os.environ, "PYTHONPATH": path}, timeout=300,
        )
        assert (run.returncode, run.stdout, run.stderr) == (EXIT_VIOLATION, b"", b"")
        return out.read_bytes()

    reports = [red_alert(how, "verify", _OVERFLOW) for how in ("blocks", "per_member")]
    assert reports[0] == reports[1]
    assert b",nan," in reports[0]
    red_alert("as_is", "trace", _OVERFLOW_CHAIN)
    red_alert("as_is", "verify", {**_OVERFLOW_CHAIN, "theorem": "thm_main"})
    red_alert("as_is", "search", OVERFLOW_SEARCH)


def test_a_modulus_past_the_double_range_is_a_config_error_on_both_paths(tmp_path, monkeypatch,
                                                                         capsys):
    # every sampled member's a_4 has finite parts and a modulus past the double range: the
    # block rows raise OverflowError, as abs does on a member alone, so both paths exit 1
    builder, from_measure = cli.member_builder, cli.member_from_measure
    huge = complex(1.3e308, 1.3e308)

    def overflowing(spec, order):
        build = builder(spec, order)

        def overflowed(angles, weights):
            a = build(angles, weights)
            a[..., 4] = huge
            return a

        return overflowed

    def overflowed_member(measure, spec, order):
        a = from_measure(measure, spec, order).coeffs.copy()
        a[4] = huge
        return FunctionSeries(a)

    monkeypatch.setattr(cli, "member_builder", overflowing)
    monkeypatch.setattr(cli, "member_from_measure", overflowed_member)
    cfg = write_config(tmp_path, {**_SAMPLED_MAIN, "theorem": "cor_spiral", "out": "-"})
    row = THEOREMS["cor_spiral"]
    for per_member in (False, True):
        if per_member:  # the same rhs, given per function: the members are taken one at a time
            monkeypatch.setitem(THEOREMS, "cor_spiral", row._replace(
                member=lambda f, spec, n: row.rhs(n, None, spec.alpha)))
        assert main(["verify", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr() == ("", "config error: absolute value too large\n")


def test_thm_main_bound_overflows(tmp_path):
    # starlike of order -100 is a valid class whose exp(-M alpha cos gamma) is
    # past the double range: the bound is inf and every row passes against it
    out = tmp_path / "rows.json"
    doc = {**_SAMPLED_MAIN, "spec": {"kind": "starlike", "alpha": -100.0}, "format": "json"}
    cfg = write_config(tmp_path, {**doc, "out": str(out)})
    assert main(["verify", "--config", cfg]) == EXIT_OK
    rows = json.loads(out.read_text())
    assert len(rows) == 6
    assert all(row["rhs"] == math.inf and row["pass"] for row in rows)


def test_empty_membership_object_is_the_default_grid(tmp_path):
    runs = []
    for block in (True, {}):
        out = tmp_path / f"{len(runs)}.csv"
        cfg = write_config(tmp_path, {**_SAMPLED_MAIN, "membership": block, "out": str(out)})
        runs.append((main(["verify", "--config", cfg]), out.read_bytes()))
    assert runs[0] == runs[1]
    assert runs[0][1].count(b"membership,") == 2


#: command and config of reports written in both formats; the golden ones hold
#: named and sampled entries together, and nan and inf cells
_BOTH_FORMATS = {
    "named_and_sampled": ("verify", GOLDEN["verify_thm_robertson"][1]),
    "sampled_membership": ("verify", {**_SAMPLED_MAIN, "membership": True}),
    "class_wide_membership": (
        "verify", {**_SAMPLED_MAIN, "theorem": "cor_spiral", "membership": {"radii": [0.5]}}
    ),
    "nan_cells": ("verify", GOLDEN["verify_thm_main_nan_rows"][1]),
    "critical_point_membership": ("verify", _CRITICAL_POINT_MEMBERSHIP),
    "inf_cells": ("verify", GOLDEN["verify_thm_main_bound_overflows_csv"][1]),
    "table": ("table", {"n": [2, 8]}),
}


@pytest.mark.parametrize("case", sorted(_BOTH_FORMATS))
def test_csv_rows_are_the_json_rows_formatted(tmp_path, case):
    # the CSV writer formats its fields inline: each must be _fmt of the JSON value
    command, doc = _BOTH_FORMATS[case]
    codes, reports = set(), {}
    for fmt in ("csv", "json"):
        out = tmp_path / fmt
        cfg = write_config(tmp_path, {**doc, "format": fmt, "out": str(out)})
        codes.add(main([command, "--config", cfg]))
        reports[fmt] = out.read_text()
    assert len(codes) == 1
    header, *lines = reports["csv"].splitlines()
    rows = json.loads(reports["json"])
    assert header == ",".join(CSV_COLUMNS)
    assert len(lines) == len(rows) > 0
    for line, row in zip(lines, rows):
        # function ids may hold commas, so the whole line is compared
        assert line == ",".join(_fmt(row[col]) for col in CSV_COLUMNS)


def test_csv_writer_gives_each_rhs_of_a_key_its_own_text(tmp_path):
    # the writer keeps one rhs text per (theorem, n, m) while the rhs is the same float object,
    # and one gamma/alpha text while the spec is the same object: equal floats of the other
    # sign, nan and inf each get their own text
    shared = float("0.25")
    rhs = [shared, shared, 0.0, -0.0, math.nan, math.inf, -math.inf, shared]
    specs = [ClassSpec("spirallike", 0.0, 0.0), ClassSpec("spirallike", -0.0, -0.0)]
    cells = [("cor_spiral", 2, None, 0.125), ("membership", None, None, 0.0)]
    blocks = [cli._Block(f"f{i}", i, specs[i % 2], [(*cell, r) for cell in cells])
              for i, r in enumerate(rhs)]
    out = tmp_path / "rows.csv"
    assert cli._write_blocks({"out": str(out)}, list(blocks)) == EXIT_VIOLATION
    expected = [
        ",".join(_fmt(v) for v in (theorem, b.fid, b.seed, b.spec.gamma, b.spec.alpha,
                                   n, m, lhs, r, r - lhs, holds(lhs, r)))
        for b in blocks
        for theorem, n, m, lhs, r in b.cells
    ]
    assert out.read_text().splitlines()[1:] == expected
    # JSON rows go through the same loop: each row is judged once, so both formats give the
    # same pass per row and the same exit code, failing or not
    for kept, code in ((blocks, EXIT_VIOLATION), (blocks[:2], EXIT_OK)):
        for fmt in ("csv", "json"):
            cfg = {"out": str(tmp_path / f"rows.{fmt}"), "format": fmt}
            assert cli._write_blocks(cfg, list(kept)) == code
        lines = (tmp_path / "rows.csv").read_text().splitlines()[1:]
        rows = json.loads((tmp_path / "rows.json").read_text())
        verdicts = [holds(lhs, r) for b in kept for _, _, _, lhs, r in b.cells]
        assert [line.endswith(",true") for line in lines] == verdicts
        assert [row["pass"] for row in rows] == verdicts


# Open false red alerts, strict so that the item that removes one turns its test green.


@pytest.mark.xfail(strict=True, reason="absolute verdict tolerance at |a_n| near 6.7e7 (ROADMAP 1)")
def test_table_at_large_n_has_no_false_row(tmp_path):
    # today one thm_C row fails: power_map(3) at n = 11591, slack -1.50266714627e-08
    out = tmp_path / "table.csv"
    cfg = write_config(tmp_path, {"n": [11580, 11600], "out": str(out)})
    assert main(["table", "--config", cfg]) == EXIT_OK
    assert not [line for line in out.read_text().splitlines() if line.endswith(",false")]


@pytest.mark.xfail(strict=True, reason="recover_c loses its digits at alpha = -3 (ROADMAP 2)")
def test_thm_main_at_strongly_negative_order_has_no_nan_row(tmp_path):
    # today 40 rows read rhs nan: the derivation chain breaks on the recovered c_k
    out = tmp_path / "rows.csv"
    doc = {"seed": 1, "order": 128, "spec": {"kind": "starlike", "alpha": -3.0},
           "theorem": "thm_main", "n": [2, 40],
           "functions": [{"sampled": {"trials": 20, "k_atoms": 4}}], "out": str(out)}
    assert main(["verify", "--config", write_config(tmp_path, doc)]) == EXIT_OK
    assert not [line for line in out.read_text().splitlines() if ",nan," in line]
