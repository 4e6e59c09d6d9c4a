import json

import numpy as np
import pytest

from spirallab import (
    AtomicMeasure, ClassSpec, SearchProblem, SearchResult, member_from_measure, search
)
from spirallab import extremal
from spirallab.classes import InvalidParams, check_atoms
from spirallab.cli import EXIT_OK, main
from spirallab.extremal import _atoms_from_vector, _objective
from spirallab.inequalities import FUNCTIONALS, TOL_INEQ
from spirallab.series import ORDER_DEFAULT
from oracles import search_in_turn


def test_problem_validation():
    spec = ClassSpec("starlike")
    with pytest.raises(ValueError):
        SearchProblem(spec, 5, k_atoms=0)
    with pytest.raises(ValueError):
        SearchProblem(spec, 5, k_atoms=17)
    with pytest.raises(ValueError):
        SearchProblem(spec, 5, k_atoms=4, budget=399)
    with pytest.raises(ValueError):
        SearchProblem(spec, 5, functional="robertson")  # m missing
    with pytest.raises(ValueError):
        SearchProblem(spec, 5, functional="supremum")


def test_single_atom_starlike_reaches_one():
    problem = SearchProblem(ClassSpec("starlike"), n=6, k_atoms=1, budget=800, restarts=2, seed=3)
    result = search(problem)
    assert result.best_value == pytest.approx(1.0, abs=1e-9)


def search_report(tmp_path, name, **doc):
    """The report `search` writes for the config doc, as bytes."""
    out = tmp_path / f"{name}.json"
    cfg = tmp_path / f"{name}-cfg.json"
    cfg.write_text(json.dumps({**doc, "out": str(out)}))
    assert main(["search", "--config", str(cfg)]) == EXIT_OK
    return out.read_bytes()


def test_search_is_deterministic_bit_for_bit(tmp_path):
    doc = {"spec": {"kind": "starlike"}, "n": 4, "k_atoms": 2, "budget": 1200, "restarts": 3,
           "seed": 11}
    assert search_report(tmp_path, "first", **doc) == search_report(tmp_path, "second", **doc)


def test_history_is_monotone_and_finishes_at_best():
    problem = SearchProblem(
        ClassSpec("starlike"), n=5, k_atoms=2, budget=1500, restarts=3, seed=7
    )
    result = search(problem)
    values = [v for _, v in result.history]
    assert values == sorted(values)
    assert values[-1] == result.best_value
    counts = [e for e, _ in result.history]
    assert counts == sorted(counts)
    assert result.evaluations_used <= problem.budget


def test_search_soundness_against_bound():
    problem = SearchProblem(
        ClassSpec("starlike"), n=5, k_atoms=2, budget=2000, restarts=4, seed=1
    )
    result = search(problem)
    assert result.best_value <= 1.0 + 1e-8


def test_search_convex_kind_goes_through_alexander():
    problem = SearchProblem(
        ClassSpec("convex"), n=3, functional="one_sided_diff",
        k_atoms=2, budget=2000, restarts=4, seed=5,
    )
    result = search(problem)
    assert result.best_value <= 0.25 + 1e-8
    assert result.best_value >= 0.2  # should get close to the 1/(n+1) = 1/4 target


def test_search_robertson_functional():
    problem = SearchProblem(
        ClassSpec("c_half", alpha=-0.5), n=5, m=2, functional="robertson",
        k_atoms=2, budget=1000, restarts=2, seed=9,
    )
    result = search(problem)
    assert result.best_value <= 12.0 + 1e-8


def test_exploratory_minimize_direction():
    problem = SearchProblem(
        ClassSpec("convex"), n=2, functional="one_sided_diff",
        k_atoms=2, budget=1500, restarts=3, seed=13, minimize=True,
    )
    result = search(problem)
    assert result.best_value < -0.3  # signed difference can go well below zero
    values = [v for _, v in result.history]
    assert values == sorted(values, reverse=True)


@pytest.mark.parametrize(
    "problem",
    [
        SearchProblem(ClassSpec("convex"), n=6, functional="one_sided_diff", k_atoms=4),
        SearchProblem(ClassSpec("spirallike", 0.4, 0.2), n=40, k_atoms=8, budget=800),
        SearchProblem(ClassSpec("c_half", alpha=-0.5), n=5, m=2, functional="robertson"),
        pytest.param(
            SearchProblem(ClassSpec("convex_spirallike", -0.7, 0.5), n=12,
                          functional="one_sided_diff", k_atoms=16),
            id="convex_spirallike",
        ),
        pytest.param(
            SearchProblem(ClassSpec("starlike", alpha=-2.0), n=3, k_atoms=1, budget=100),
            id="starlike_negative_order",
        ),
    ],
    ids=lambda problem: problem.functional,
)
def test_objective_equals_the_functional_on_the_full_order_member(problem):
    order = max(ORDER_DEFAULT, 2 * problem.n)
    objective = _objective(problem)
    functional = FUNCTIONALS[problem.functional]
    k = problem.k_atoms

    def full_order_value(x):
        full = member_from_measure(AtomicMeasure(*_atoms_from_vector(x, k)), problem.spec, order)
        return functional(full, problem.n, problem.m)

    rng = np.random.default_rng(17)
    points = np.concatenate(
        [rng.uniform(-np.pi, 3.0 * np.pi, (200, k)), rng.uniform(0.0, 1.0, (200, k))], axis=1
    )
    batch = objective(points)
    assert len(batch) == len(points)
    for x, value in zip(points, batch):
        assert value == objective(x) == full_order_value(x)

    # all-zero weights (the uniform fallback); -1e-17 wraps to exactly 0.0
    for t in (-1e-17, 1e6, -1e6):
        angles = np.concatenate([[t], np.linspace(1.0, 5.0, k - 1)])
        for weights in (np.zeros(k), np.linspace(1.0, 0.25, k)):
            x = np.concatenate([angles, weights])
            assert objective(x) == full_order_value(x)
    x = np.array([-1e-17] * k + [1.0] * k)
    assert AtomicMeasure(*_atoms_from_vector(x, k)).angles[0] == 0.0

    with np.errstate(all="ignore"):
        # the square of a weight of 1e200 overflows and the normalized weights are NaN
        x = np.concatenate([np.linspace(0.5, 2.0, k), [1e200], np.full(k - 1, 0.5)])
        for evaluate in (objective, full_order_value):
            with pytest.raises(InvalidParams):
                evaluate(x)
        for bad in (np.inf, -np.inf, np.nan):
            x = np.concatenate([[bad], np.linspace(1.0, 5.0, k - 1), np.full(k, 0.5)])
            with pytest.raises(InvalidParams):
                objective(x)
            # one bad row, angle or weight, fails the whole batch
            for column in (0, k):
                rows = points[:5].copy()
                rows[3, column] = bad
                with pytest.raises(InvalidParams):
                    objective(rows)


def test_vector_map_returns_only_atoms_that_check_atoms_accepts():
    # the map runs check_atoms only when its angle and weight-total sums are NaN or inf, so
    # every vector it maps without raising must give atoms the full check accepts
    k = 3
    values = [0.0, 1e-170, 0.5, -3.0, 1e154, 1.3e154, 1e200, np.inf, -np.inf, np.nan]
    rows = np.random.default_rng(5).choice(values, size=(2000, 2 * k))
    rejected = 0
    with np.errstate(all="ignore"):
        for x in [*rows, *rows.reshape(-1, 8, 2 * k)]:
            try:
                angles, weights = _atoms_from_vector(x, k)
            except InvalidParams:
                rejected += 1
                continue
            check_atoms(angles, weights)
        # squares that are each finite but overflow their sum give all-zero weights
        with pytest.raises(InvalidParams, match="sum to 0.0, not 1"):
            _atoms_from_vector(np.array([1.0, 2.0, 1.3e154, 1.3e154]), 2)
    assert 0 < rejected < 2250


def test_budget_is_a_hard_cap():
    # the contraction after a reflection once ran past a restart's share: this search used 301
    spec = ClassSpec("spirallike", 0.4, 0.2)
    problem = SearchProblem(spec, 8, k_atoms=3, budget=300, restarts=2, seed=0)
    assert search(problem).evaluations_used == 300
    for seed in range(6):
        for restarts in (1, 2, 3, 7):
            problem = SearchProblem(spec, 5, k_atoms=2, budget=200 + 37 * seed, restarts=restarts,
                                    seed=seed)
            assert search(problem).evaluations_used <= problem.budget


@pytest.mark.parametrize(
    "problem",
    [
        pytest.param(SearchProblem(ClassSpec("spirallike", 0.4, 0.2), n=4, k_atoms=1, budget=600,
                                   restarts=4, seed=1), id="spirallike-k1"),
        pytest.param(SearchProblem(ClassSpec("convex_spirallike", -0.7, 0.5), n=5,
                                   functional="one_sided_diff", k_atoms=16, budget=1700,
                                   restarts=4, seed=2), id="convex_spirallike-k16"),
        pytest.param(SearchProblem(ClassSpec("starlike", alpha=-0.5), n=5, m=2,
                                   functional="robertson", k_atoms=2, budget=900, restarts=4,
                                   seed=3, minimize=True), id="starlike-robertson-minimize"),
        pytest.param(SearchProblem(ClassSpec("convex"), n=6, functional="one_sided_diff",
                                   k_atoms=4, budget=4000, restarts=8, seed=4), id="convex"),
        pytest.param(SearchProblem(ClassSpec("c_half", alpha=-0.5), n=5, m=2,
                                   functional="robertson", k_atoms=2, budget=1000, restarts=4,
                                   seed=9), id="c_half-robertson"),
        pytest.param(SearchProblem(ClassSpec("c_half", alpha=-0.5), n=3,
                                   functional="one_sided_diff", k_atoms=3, budget=1200,
                                   restarts=5, seed=5, minimize=True), id="c_half-minimize"),
        pytest.param(SearchProblem(ClassSpec("starlike"), n=3, k_atoms=1, budget=100,
                                   restarts=130, seed=6), id="budget-below-restarts"),
        pytest.param(SearchProblem(ClassSpec("spirallike", 0.4, 0.2), n=8, k_atoms=3, budget=300,
                                   restarts=2, seed=0), id="share-exhausted"),
    ],
)
def test_search_equals_the_restarts_run_in_turn(problem):
    seen, expected = [], []
    result = search(problem, on_improve=lambda e, v: seen.append((e, v)))
    assert result == search_in_turn(problem, on_improve=lambda e, v: expected.append((e, v)))
    assert seen == expected and tuple(seen) == result.history
    assert result.evaluations_used <= problem.budget


@pytest.mark.parametrize("terms, min_batch", [(1, 4), (5 * 4 * 7, 4), (3 * 4 * 7, 2)])
def test_search_with_fewer_live_restarts_than_restarts(monkeypatch, terms, min_batch):
    # one live restart at a time, then five or three, each later restart starting as a slot
    # frees; a round of fewer than min_batch live restarts evaluates each point alone
    problem = SearchProblem(ClassSpec("convex"), n=6, functional="one_sided_diff", k_atoms=4,
                            budget=4000, restarts=8, seed=7919)
    expected = []
    reference = search_in_turn(problem, on_improve=lambda e, v: expected.append((e, v)))
    monkeypatch.setattr("spirallab.extremal.BATCH_TERMS", terms)
    monkeypatch.setattr("spirallab.extremal._MIN_BATCH", min_batch)
    seen = []
    assert search(problem, on_improve=lambda e, v: seen.append((e, v))) == reference
    assert seen == expected


def test_a_modulus_past_the_double_range_raises_in_a_batch_as_alone(monkeypatch):
    # every member's a_7 has finite parts and a modulus past the double range: the batched
    # rounds raise OverflowError as a point evaluated alone does, rather than read inf
    builder = extremal.member_builder

    def overflowing(spec, order):
        build = builder(spec, order)

        def overflowed(angles, weights):
            a = build(angles, weights)
            a[..., 7] = complex(1.3e308, 1.3e308)
            return a

        return overflowed

    monkeypatch.setattr(extremal, "member_builder", overflowing)
    problem = SearchProblem(ClassSpec("convex"), n=6, functional="one_sided_diff", k_atoms=4,
                            budget=4000, restarts=8, seed=7919)
    for run in (search, search_in_turn):
        with pytest.raises(OverflowError, match="^absolute value too large$"):
            run(problem)


@pytest.mark.parametrize("live", [None, 3])
@pytest.mark.parametrize("k", [2, 3])
def test_search_stops_each_restart_at_a_small_share(monkeypatch, k, live):
    # a share of s evaluations stops every restart inside its initial fill (s <= 2k + 1) or at
    # a reflection, expansion, contraction or shrink point after it; with live = 3 each round
    # evaluates its points alone, else all restarts go in one batch
    n = 4
    if live is not None:
        monkeypatch.setattr("spirallab.extremal.BATCH_TERMS", live * k * (n + 1))
    for s in range(1, 3 * (2 * k + 1) + 1):
        restarts = max(4, -(-100 * k // s))  # budget = restarts * s >= 100 * k
        problem = SearchProblem(ClassSpec("spirallike", 0.4, 0.2), n=n, k_atoms=k,
                                budget=restarts * s, restarts=restarts, seed=s)
        seen, expected = [], []
        result = search(problem, on_improve=lambda e, v: seen.append((e, v)))
        assert result == search_in_turn(problem, on_improve=lambda e, v: expected.append((e, v)))
        assert seen == expected and tuple(seen) == result.history
        assert result.evaluations_used == problem.budget and result.budget_exhausted


def test_on_improve_stream_matches_history():
    seen = []
    problem = SearchProblem(
        ClassSpec("starlike"), n=4, k_atoms=1, budget=400, restarts=2, seed=2
    )
    result = search(problem, on_improve=lambda e, v: seen.append((e, v)))
    assert tuple(seen) == result.history


def verified_rows(tmp_path, spec, theorem, n, functions, seed=0):
    """JSON report rows of a ``verify`` run; every row must pass (slack >= -TOL_INEQ)."""
    out = tmp_path / "rows.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "spec": spec, "theorem": theorem, "n": n, "seed": seed,
        "functions": functions, "format": "json", "out": str(out),
    }))
    assert main(["verify", "--config", str(cfg)]) == EXIT_OK
    rows = json.loads(out.read_text())
    assert max(r["lhs"] for r in rows) <= min(r["rhs"] for r in rows) + TOL_INEQ
    return rows


def test_certify_starlike_alpha_zero(tmp_path):
    sampled = [{"sampled": {"trials": 200, "k_atoms": 8}}]
    rows = verified_rows(tmp_path, {"kind": "starlike"}, "thm_A", 10, sampled, seed=4)
    assert len(rows) == 200
    assert {r["rhs"] for r in rows} == {1.0}
    assert max(r["lhs"] for r in rows) > 0.2  # random members do exercise the functional


def test_certify_negative_order_starlike(tmp_path):
    sampled = [{"sampled": {"trials": 200, "k_atoms": 8}}]
    spec = {"kind": "starlike", "alpha": -0.5}
    rows = verified_rows(tmp_path, spec, "thm_C", 6, sampled, seed=8)
    assert len(rows) == 200
    assert rows[0]["rhs"] == pytest.approx(7.0, rel=1e-12)


def test_certify_c_half(tmp_path):
    sampled = [{"sampled": {"trials": 100, "k_atoms": 8}}]
    spec = {"kind": "c_half", "alpha": -0.5}
    rows = verified_rows(tmp_path, spec, "thm_c_half", 8, sampled, seed=6)
    assert len(rows) == 100
    assert {r["rhs"] for r in rows} == {1.0}


def test_certify_includes_incumbents(tmp_path):
    # the extremal function itself reaches the bound
    rows = verified_rows(tmp_path, {"kind": "starlike"}, "thm_A", 5, [{"name": "koebe"}])
    assert rows[0]["lhs"] == pytest.approx(1.0, abs=1e-10)


def test_result_serialization_shape(tmp_path):
    doc = json.loads(search_report(
        tmp_path, "shape", spec={"kind": "starlike"}, n=3, k_atoms=1, budget=300, restarts=1,
        seed=0,
    ))
    assert set(doc) == {
        "best_value",
        "best_measure",
        "history",
        "evaluations_used",
        "budget_exhausted",
        "problem",
        "bound",
    }
    assert set(doc["problem"]) == {
        "kind", "gamma", "alpha", "n", "functional", "m", "k_atoms", "budget", "restarts",
        "seed", "minimize",
    }
    assert all(len(entry) == 2 for entry in doc["history"])
    atoms = doc["best_measure"]["atoms"]
    assert all(set(a) == {"t", "w"} for a in atoms)
    assert sum(a["w"] for a in atoms) == pytest.approx(1.0, abs=1e-12)
