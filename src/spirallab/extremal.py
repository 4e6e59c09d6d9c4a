"""Derivative-free sharpness search over atomic-measure parameter space.

The searcher maximizes a coefficient functional over class members built
from k-atom measures, using multi-start simplex reflection on an
unconstrained parameterization: atom angles live raw in R (wrapped mod
2 pi when a measure is built) and weights are squared then renormalized,
which keeps the simplex constraint implicit.  A bound is corroborated as
sharp when the incumbent approaches it from below; an incumbent past the
bound is a red-alert finding, reported in-band rather than raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classes import (
    MAX_ATOMS, TWO_PI, AtomicMeasure, ClassSpec, InvalidParams, check_atoms, member_builder
)
from .inequalities import FUNCTIONALS, ON_COEFFICIENTS, check_indices

#: Per-restart convergence tolerance on the simplex objective spread.
SPREAD_TOL = 1e-10

#: Initial simplex edge lengths for angle and weight coordinates.
_STEP_ANGLE = 0.5
_STEP_WEIGHT = 0.25


@dataclass(frozen=True)
class SearchProblem:
    """One sharpness-search instance over k-atom measures."""

    spec: ClassSpec
    n: int
    functional: str = "two_sided_diff"
    m: int | None = None
    k_atoms: int = 2
    budget: int = 5000
    restarts: int = 8
    seed: int = 0
    minimize: bool = False

    def __post_init__(self):
        if self.functional not in FUNCTIONALS:
            raise InvalidParams(f"unknown functional {self.functional!r}")
        check_indices(self.functional, self.n, self.m)
        if not 1 <= self.k_atoms <= MAX_ATOMS:
            raise InvalidParams(f"k_atoms must lie in 1..{MAX_ATOMS}")
        if self.budget < 100 * self.k_atoms:
            raise InvalidParams("budget must be at least 100 * k_atoms")
        if self.restarts < 1:
            raise InvalidParams("restarts must be >= 1")
        if self.n < 1:
            raise InvalidParams("n must be >= 1")


@dataclass(frozen=True)
class SearchResult:
    """Best measure found, with the incumbent history of the whole run."""

    best_value: float
    best_measure: AtomicMeasure
    history: tuple  # (evaluation count, incumbent value) at each improvement
    evaluations_used: int
    budget_exhausted: bool


def _atoms_from_vector(x: np.ndarray, k: int) -> tuple:
    """Checked (angles, weights) of a search vector: x[:k] wrapped mod 2pi, x[k:] squared.

    An angle wraps by Python's float ``%`` (``np.remainder``), and a result
    of exactly 2pi, which a tiny negative angle rounds to, folds to 0, so
    every angle lands in [0, 2pi).  The squared weights are normalized to
    sum 1; all-zero weights fall back to uniform ones.
    """
    angles = np.remainder(x[:k], TWO_PI)
    angles[angles >= TWO_PI] = 0.0
    w = x[k:] ** 2
    total = w.sum()
    weights = np.full(k, 1.0 / k) if total <= 1e-300 else w / total
    check_atoms(angles, weights)
    return angles, weights


def _measure_from_vector(x: np.ndarray, k: int) -> AtomicMeasure:
    return AtomicMeasure(*_atoms_from_vector(x, k))


def _objective(problem: SearchProblem):
    n, m, k = problem.n, problem.m, problem.k_atoms
    functional = ON_COEFFICIENTS[problem.functional]
    # every functional reads at most a_{n+1}
    build = member_builder(problem.spec, n + 1)

    def value(x: np.ndarray) -> float:
        return functional(build(*_atoms_from_vector(x, k)).item, n, m)

    return value


def _simplex_min(cost, x0: np.ndarray, steps: np.ndarray, max_evals: int):
    """Simplex-reflection minimization of cost; returns whether the spread converged."""
    d = x0.size
    pts = np.vstack([x0] + [x0 + steps[i] * np.eye(d)[i] for i in range(d)])
    vals = np.empty(d + 1)
    evals = 0
    for i in range(d + 1):
        if evals >= max_evals:
            vals[i:] = np.inf
            break
        vals[i] = cost(pts[i])
        evals += 1
    while evals < max_evals:
        idx = np.argsort(vals, kind="stable")
        pts, vals = pts[idx], vals[idx]
        if vals[-1] - vals[0] < SPREAD_TOL:
            return True
        centroid = np.add.reduce(pts[:-1], axis=0) / d
        xr = centroid + (centroid - pts[-1])
        fr = cost(xr)
        evals += 1
        if fr < vals[0]:
            if evals >= max_evals:
                break
            xe = centroid + 2.0 * (centroid - pts[-1])
            fe = cost(xe)
            evals += 1
            if fe < fr:
                pts[-1], vals[-1] = xe, fe
            else:
                pts[-1], vals[-1] = xr, fr
        elif fr < vals[-2]:
            pts[-1], vals[-1] = xr, fr
        else:
            xc = centroid + 0.5 * (pts[-1] - centroid)
            fc = cost(xc)
            evals += 1
            if fc < vals[-1]:
                pts[-1], vals[-1] = xc, fc
            else:
                for i in range(1, d + 1):
                    if evals >= max_evals:
                        break
                    pts[i] = pts[0] + 0.5 * (pts[i] - pts[0])
                    vals[i] = cost(pts[i])
                    evals += 1
    return False


def search(problem: SearchProblem, on_improve=None) -> SearchResult:
    """Run the multi-start search; deterministic for a fixed seed.

    The budget is the total evaluation count, split evenly across
    restarts; a restart that hits its share before the simplex spread
    converges marks the result budget_exhausted.  ``on_improve`` is
    called as (evaluation count, incumbent value) at each improvement,
    which is how the CLI streams progress.
    """
    raw = _objective(problem)
    sign = 1.0 if problem.minimize else -1.0
    k = problem.k_atoms

    state = {
        "evals": 0,
        "best_cost": math.inf,
        "best_x": None,
        "history": [],
    }

    def cost(x: np.ndarray) -> float:
        c = sign * raw(x)
        state["evals"] += 1
        if c < state["best_cost"]:
            state["best_cost"] = c
            state["best_x"] = np.array(x)
            state["history"].append((state["evals"], sign * c))
            if on_improve is not None:
                on_improve(state["evals"], sign * c)
        return c

    rng = np.random.default_rng(problem.seed)
    share = max(problem.budget // problem.restarts, 1)
    steps = np.concatenate([np.full(k, _STEP_ANGLE), np.full(k, _STEP_WEIGHT)])
    exhausted = False
    for _ in range(problem.restarts):
        x0 = np.concatenate([rng.uniform(0.0, 2.0 * np.pi, k), rng.uniform(0.3, 1.0, k)])
        converged = _simplex_min(cost, x0, steps, min(share, problem.budget - state["evals"]))
        exhausted = exhausted or not converged
        if state["evals"] >= problem.budget:
            break
    best_measure = _measure_from_vector(state["best_x"], k)
    return SearchResult(
        best_value=sign * state["best_cost"],
        best_measure=best_measure,
        history=tuple(state["history"]),
        evaluations_used=state["evals"],
        budget_exhausted=exhausted,
    )

