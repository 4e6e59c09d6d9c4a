import json
import math
import weakref

import pytest

import spirallab.cli as cli
from spirallab import FunctionSeries, classes
from spirallab.cli import CSV_COLUMNS, EXIT_CONFIG, EXIT_OK, EXIT_VIOLATION, _fmt, main
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
    # row n reads a_n and a_{n+1} of l_phi(pi/n), so that member is built at order n + 1
    orders = []
    build = classes._NAMED["l_phi"]

    def recorded(order, phi):
        orders.append(order)
        return build(order, phi)

    monkeypatch.setitem(classes._NAMED, "l_phi", recorded)
    cfg = write_config(tmp_path, {"n": [2, 12], "out": str(tmp_path / "table.csv")})
    assert main(["table", "--config", cfg]) == EXIT_OK
    assert orders == [n + 1 for n in range(2, 13)]


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
    path = tmp_path / "bad.json"
    path.write_text('{"spec": ')
    out = tmp_path / "never.csv"
    code = main(["verify", "--config", str(path), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


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
    "search_n_past_ceiling": ("search", {"seed": 1, "spec": {"kind": "starlike"}, "n": 32769}),
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
    """Wrap cli.member_from_measure; return weakrefs to the members it builds and, per
    build, how many earlier members are still alive."""
    built, alive = [], []

    def tracked(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in built))
        member = _Member(classes.member_from_measure(*args, **kwargs).coeffs)
        built.append(weakref.ref(member))
        return member

    monkeypatch.setattr(cli, "member_from_measure", tracked)
    return built, alive


#: case -> (command, config, its config error, the sampled members built before it):
#: named functions are built before any member, and a row's error stops the run at once
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
        1,
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
        1,
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
    "command, doc",
    [
        ("verify", {**_SAMPLED_MAIN, "membership": {"radii": [0.5], "m": 64}}),
        ("verify", {**_SAMPLED_MAIN, "theorem": "cor_spiral"}),
        ("trace", _SAMPLED_MAIN),
    ],
    ids=["verify_thm_main_membership", "verify_cor_spiral", "trace"],
)
def test_each_member_is_dropped_after_its_rows(tmp_path, monkeypatch, command, doc):
    # the loop still holds the last member while the next is built, and no earlier one
    built, alive = _track_members(monkeypatch)
    doc = {**doc, "functions": [{"sampled": {"trials": 6, "k_atoms": 3}}]}
    cfg = write_config(tmp_path, {**doc, "out": str(tmp_path / "out")})
    assert main([command, "--config", cfg]) == EXIT_OK
    assert alive == [0, 1, 1, 1, 1, 1]


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
