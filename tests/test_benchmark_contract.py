"""What perfbench/ relies on in the package, checked without changing perfbench/.

The benchmark wraps package functions by name (perfbench/spans.py) and
recomputes every report with its own copy of the verdict tolerances and
CSV header (perfbench/oracle.py); a rename or a new tolerance in the
package would otherwise show up only when the benchmark runs.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import spirallab.cli as cli
from spirallab import TOL_INEQ, TOL_MEMBER
from spirallab.series import FunctionSeries, Series

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
