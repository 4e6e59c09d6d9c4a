"""Acceptance suite: every release criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one pass/fail
line per criterion, including the measured runtime against its cap.
"""

import math
import time

import numpy as np
import pytest

from spirallab import (
    AtomicMeasure,
    ClassSpec,
    Grid,
    SearchProblem,
    bound_rhs,
    check_convex,
    lemma31_check,
    member_from_measure,
    milin_third,
    named,
    one_sided_diff,
    proof_trace,
    psi_max,
    robertson_gap,
    search,
    successive_diff,
)


class criterion:
    """Times a criterion body and prints its pass/fail line."""

    def __init__(self, number, limit_s, label):
        self.number = number
        self.limit = limit_s
        self.label = label

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number:02d} {status} {elapsed:7.3f}s  {self.label}")
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.number} exceeded its {self.limit:g}s runtime cap"
            )
        return False


def harmonic(n):
    return sum(1.0 / k for k in range(1, n + 1))


def test_criterion_01_koebe_equality_chain():
    with criterion(1, 1.0, "koebe successive differences are exactly 1"):
        f = named("koebe", 51)
        for n in range(2, 51):
            assert abs(successive_diff(f, n) - 1.0) <= 1e-12


def test_criterion_02_negative_order_equality():
    with criterion(2, 1.0, "cube power map meets the negative-order bound with equality"):
        f = named("power_map", 41, beta=3.0)
        for n in range(2, 41):
            oracle = n * (n + 1) / 2  # closed form a_n
            assert abs(f.a(n).real - oracle) <= 1e-9 * oracle
            assert abs(successive_diff(f, n) - (n + 1)) <= 1e-9
            assert abs(bound_rhs("thm_C", n, alpha=-0.5) - (n + 1)) <= 1e-9


def test_criterion_03_c_half_equality_function():
    with criterion(3, 2.0, "close-to-convex extremal: membership, diff, gap equalities"):
        f = named("c_half_extremal", 4096)
        report = check_convex(f, ClassSpec("c_half", alpha=-0.5), Grid((0.99,), 4096))
        assert report.margin > 0
        small = named("c_half_extremal", 31)
        for n in range(1, 31):
            assert successive_diff(small, n) == 0.5
        for n in range(2, 31):
            for m in range(1, n):
                gap = robertson_gap(small, n, m)
                assert abs(gap - bound_rhs("thm_robertson", n, m)) <= 1e-12


def test_criterion_04_sharp_convex_family():
    with criterion(4, 1.0, "log extremal at phi = pi/n attains 1/(n+1)"):
        for n in range(2, 31):
            f = named("l_phi", n + 1, phi=math.pi / n)
            assert abs(one_sided_diff(f, n) - 1.0 / (n + 1)) <= 1e-12


def test_criterion_05_spiral_diff_never_exceeds_one():
    with criterion(5, 30.0, "1000 spiral members: two-sided diff <= 1"):
        rng = np.random.default_rng(50505)
        for trial in range(1000):
            k = int(rng.integers(1, 9))
            angles = rng.uniform(0.0, 2.0 * math.pi, k)
            w = rng.dirichlet(np.ones(k))
            measure = AtomicMeasure(tuple(angles), tuple(w / w.sum()))
            gamma = float(rng.uniform(-1.4, 1.4))
            spec = ClassSpec("spirallike", gamma=gamma, alpha=0.0)
            f = member_from_measure(measure, spec, 64)
            for n in range(2, 21):
                assert successive_diff(f, n) <= 1.0 + 1e-8, (trial, n)


def test_criterion_06_proof_trace_chain():
    with criterion(6, 60.0, "500 spiral members: derivation chain slack >= -1e-8"):
        rng = np.random.default_rng(60606)
        for trial in range(500):
            k = int(rng.integers(1, 9))
            angles = rng.uniform(0.0, 2.0 * math.pi, k)
            w = rng.dirichlet(np.ones(k))
            measure = AtomicMeasure(tuple(angles), tuple(w / w.sum()))
            gamma = float(rng.uniform(-1.2, 1.2))
            alpha = float(rng.uniform(0.0, 0.9))
            if alpha == 0.0:
                alpha = 1e-6
            n = int(rng.integers(2, 21))
            spec = ClassSpec("spirallike", gamma=gamma, alpha=alpha)
            f = member_from_measure(measure, spec, 64)
            # proof_trace raises ChainInequalityViolation on any failed link
            trace = proof_trace(f, gamma, alpha, n)
            assert abs(abs(trace.xi0) - 1.0) <= 1e-12
            lemma_cap = -2.0 * trace.M * alpha * math.cos(gamma)
            assert trace.milin_exponent - lemma_cap <= 1e-8
            assert trace.beta_bound**2 - math.exp(trace.milin_exponent) <= 1e-8
            assert successive_diff(f, n) - trace.final_bound <= 1e-8


def test_criterion_07_weighted_lemma_suite():
    with criterion(7, 30.0, "1000 weighted-lemma instances plus the equality case"):
        rng = np.random.default_rng(70707)
        for trial in range(1000):
            k = int(rng.integers(1, 9))
            angles = rng.uniform(0.0, 2.0 * math.pi, k)
            w = rng.dirichlet(np.ones(k))
            w = w / w.sum()
            gamma = float(rng.uniform(-1.4, 1.4))
            alpha = float(rng.uniform(0.0, 0.9))
            n = int(rng.integers(1, 21))
            ks = np.arange(1, n + 1)
            h = 2.0 * np.sum(w[:, None] * np.exp(-1j * np.outer(angles, ks)), axis=0)
            c = (1.0 - alpha) * h
            lam = 1.0 / ks
            M, _ = psi_max(c, n, gamma)
            lhs, rhs = lemma31_check(c, lam, gamma, alpha, M)
            assert rhs - lhs >= -1e-8, (trial, rhs - lhs)
        # equality case: constant-2 data, lam = 1/k, gamma = alpha = 0
        n = 20
        c = np.full(n, 2.0)
        M, _ = psi_max(c, n, 0.0)
        lhs, rhs = lemma31_check(c, 1.0 / np.arange(1, n + 1), 0.0, 0.0, M)
        assert abs(lhs - rhs) <= 1e-9


def test_criterion_08_exponentiation_inequality_suite():
    with criterion(8, 10.0, "1000 random exponentiated sequences: lhs <= rhs"):
        rng = np.random.default_rng(80808)
        for trial in range(1000):
            n = int(rng.integers(1, 31))
            mags = np.sqrt(rng.uniform(0.0, 1.0, n))
            args = rng.uniform(0.0, 2.0 * math.pi, n)
            alpha_seq = mags * np.exp(1j * args)
            lhs, rhs = milin_third(alpha_seq, n)
            assert lhs <= rhs, (trial, lhs, rhs)


def test_criterion_09_sharpness_searches():
    with criterion(9, 120.0, "searches reach the two-point and log-extremal bounds"):
        star = SearchProblem(
            ClassSpec("starlike"), n=5, functional="two_sided_diff",
            k_atoms=2, budget=5000, restarts=8, seed=905,
        )
        result = search(star)
        assert 0.999 <= result.best_value <= 1.0 + 1e-8

        convex = SearchProblem(
            ClassSpec("convex"), n=4, functional="one_sided_diff",
            k_atoms=2, budget=5000, restarts=8, seed=904,
        )
        result = search(convex)
        assert 0.199 <= result.best_value <= 0.2 + 1e-8


def test_criterion_10_single_atom_example():
    with criterion(10, 5.0, "single-atom members: M equals the harmonic form and bounds hold"):
        for alpha in (0.25, 0.5):
            spec = ClassSpec("starlike", alpha=alpha)
            f = member_from_measure(AtomicMeasure((0.0,), (1.0,)), spec, 32)
            for n in range(2, 21):
                c = np.full(n, 2.0 * (1.0 - alpha))
                M, _ = psi_max(c, n, 0.0)
                assert abs(M - 2.0 * (1.0 - alpha) * harmonic(n)) <= 1e-9
                assert M <= 2.0 * (1.0 - alpha) * (math.log(n) + 1.0) + 1e-12
                assert successive_diff(f, n) <= math.exp(-alpha * M) + 1e-8
