"""What perfbench/ relies on in the package, checked without changing perfbench/.

The benchmark wraps package functions by name (perfbench/spans.py) and
recomputes every report with its own copy of the verdict tolerances and
CSV header (perfbench/oracle.py); a rename or a new tolerance in the
package would otherwise show up only when the benchmark runs.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import spirallab.cli as cli
from spirallab import TOL_INEQ, TOL_MEMBER
from spirallab.membership import Grid
from spirallab.series import ORDER_DEFAULT, FunctionSeries, Series

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name, monkeypatch):
    """perfbench/<name>.py as a module, leaving no bytecode cache behind."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings():
    """(holder, name) -> value for every name in the package's modules and series classes."""
    holders = [m for name, m in sys.modules.items() if name.startswith("spirallab")]
    holders += [Series, FunctionSeries]
    return {(id(h), name): value for h in holders for name, value in vars(h).items()}


def test_every_span_target_exists_and_uninstall_restores_it(monkeypatch):
    tracer = load("spans", monkeypatch).Tracer()
    before = bindings()
    try:
        assert tracer.install() == []
        assert any(bindings()[key] is not value for key, value in before.items())
    finally:
        tracer.uninstall()
    after = bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []


@pytest.mark.parametrize(
    "name, package_value",
    [
        ("PASS_TOL", TOL_INEQ),
        ("MEMBER_RHS", TOL_MEMBER),
        ("CSV_COLUMNS", list(cli.CSV_COLUMNS)),
    ],
)
def test_oracle_copies_match_the_package(monkeypatch, name, package_value):
    assert getattr(load("oracle", monkeypatch), name) == package_value


def test_span_counts_per_member_and_row(tmp_path, monkeypatch):
    # the call shape perfbench/selftest.py pins on verify_main, at 2 members and n = 2..4:
    # each row's lhs and its proof trace call successive_diff by its module-level name,
    # which is the binding the tracer rebinds, and each member is built by one exp_zero
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps(
            {
                "seed": 1,
                "order": 32,
                "spec": {"kind": "spirallike", "gamma": 0.3, "alpha": 0.2},
                "theorem": "thm_main",
                "n": [2, 4],
                "functions": [{"sampled": {"trials": 2, "k_atoms": 3}}],
                "membership": {"radii": [0.5], "m": 64},
                "out": str(tmp_path / "report.csv"),
            }
        )
    )
    tracer = load("spans", monkeypatch).Tracer()
    try:
        assert tracer.install() == []
        assert cli.main(["verify", "--config", str(config)]) == cli.EXIT_OK
    finally:
        tracer.uninstall()
    calls = {name: stats[0] for name, stats in tracer.span_stats().items()}
    members, rows = 2, 2 * 3
    assert calls["inequalities.successive_diff"] == 2 * rows
    assert calls["classes.member_from_measure"] == members
    assert calls["series.exp_zero"] == members


def test_only_the_high_order_workload_checks_on_a_worker_thread(monkeypatch):
    # overlapped with the builds, the grid checks of verify_main (order 256, m = 1,024) took
    # 1.02-1.30x the serial time in fresh processes and 1.65x in one process
    # (BENCH_check_overlap.json): two threads with short kernels convoy on the GIL
    workloads = load("workloads", monkeypatch).WORKLOADS
    overlaps = {
        name: cli._overlaps(w["config"]["order"], w["config"]["membership"]["m"])
        for name, w in workloads.items()
        if "membership" in w["config"]
    }
    assert overlaps == {"verify_main": False, "highorder_membership": True}
    assert not cli._overlaps(ORDER_DEFAULT, Grid.m)  # "membership": true at the default order
