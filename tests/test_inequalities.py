import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spirallab import (
    AtomicMeasure,
    ChainInequalityViolation,
    ClassSpec,
    FunctionSeries,
    InvalidParams,
    ProofTrace,
    TOL_INEQ,
    alexander_forward,
    bound_rhs,
    gamma_ratio,
    lemma31_check,
    member_from_measure,
    milin_third,
    named,
    one_sided_diff,
    proof_trace,
    psi_max,
    random_measure,
    recover_c,
    robertson_gap,
    successive_diff,
)
from spirallab import cli, inequalities
from spirallab.inequalities import THEOREMS, bound_rhs_walk, chain_trace, class_bound, holds
from oracles import (
    alexander_inverse, chain_replay, fixed_measure, gamma_ratios, psi_max_reference
)


def harmonic(n):
    return sum(1.0 / k for k in range(1, n + 1))


def identity_map(order=8):
    c = np.zeros(order + 1)
    c[1] = 1.0
    return FunctionSeries(c)


# ----------------------------------------------------------------------
# successive differences


def test_successive_diff_koebe_is_one():
    f = named("koebe", 40)
    assert all(successive_diff(f, n) == 1.0 for n in range(1, 40))


def test_successive_diff_c_half_extremal_is_half():
    f = named("c_half_extremal", 30)
    assert all(successive_diff(f, n) == 0.5 for n in range(1, 30))


def test_successive_diff_cube_power_map():
    # a_n = n(n+1)/2, so the difference at n is n+1
    f = named("power_map", 30, beta=3.0)
    for n in range(1, 30):
        assert successive_diff(f, n) == pytest.approx(n + 1, abs=1e-12)


def test_successive_diff_guards():
    f = named("koebe", 10)
    with pytest.raises(InvalidParams, match="^need order >= 11, have 10$"):
        successive_diff(f, 10)
    with pytest.raises(InvalidParams, match="^successive difference needs n >= 1$"):
        successive_diff(f, 0)


def test_functionals_on_a_stack_are_those_of_each_row_alone():
    # np.hypot gives abs(complex)'s bits (np.abs is an ulp off in about a third of values),
    # for every exponent, signed zeros, inf and NaN alike, and the formula is the same
    rng = np.random.default_rng(3)
    parts = rng.standard_normal((2, 400, 12)) * 10.0 ** rng.integers(-300, 300, (2, 400, 12))
    a = parts[0] + 1j * parts[1]
    a[rng.random(a.shape) < 0.05] = np.inf
    a[rng.random(a.shape) < 0.05] = complex(math.nan, 1.0)
    a[rng.random(a.shape) < 0.05] = complex(-0.0, 0.0)
    a[:, :2] = 0.0, 1.0
    ns, m = range(3, 11), 2
    for functional, scalar in inequalities.FUNCTIONALS.items():
        rows = inequalities.on_rows(functional, a, ns, m).T.tolist()
        alone = [[scalar(FunctionSeries(row), n, m) for n in ns] for row in a]
        assert [[v.hex() for v in row] for row in rows] == [[v.hex() for v in r] for r in alone]


def test_a_modulus_past_the_double_range_raises_on_a_stack_as_alone():
    # a_5 of the second row has finite parts and a modulus past the double range: abs raises
    # OverflowError on it, so on_rows does wherever it reads a_5, and reads the rest alike
    a = np.tile(np.arange(12.0) + 0.5j, (3, 1))
    a[:, :2] = 0.0, 1.0
    a[1, 5] = complex(1.3e308, 1.3e308)
    a[2, 6] = complex(math.inf, 1.0)  # an infinite part is an inf modulus, not an error
    a[0, 8] = 1.7e308  # robertson's 8 |a_8| is inf, not an error
    for functional, scalar in inequalities.FUNCTIONALS.items():
        for n in range(3, 11):
            try:
                alone = [scalar(FunctionSeries(row), n, 2).hex() for row in a]
            except OverflowError:
                with pytest.raises(OverflowError, match="^absolute value too large$"):
                    inequalities.on_rows(functional, a, (n,), 2)
                assert n in (4, 5)
            else:
                rows = inequalities.on_rows(functional, a, (n,), 2)[0].tolist()
                assert [v.hex() for v in rows] == alone


# ----------------------------------------------------------------------
# bound evaluators


def test_bound_thm_C_at_minus_half_is_n_plus_one():
    for n in range(2, 41):
        assert bound_rhs("thm_C", n, alpha=-0.5) == pytest.approx(n + 1, rel=1e-14)


def test_bound_thm_C_matches_lgamma():
    for alpha in (-0.25, -1.0, -2.0, 0.3):
        for n in (2, 7, 19):
            expect = math.exp(
                math.lgamma(1 - 2 * alpha + n)
                - math.lgamma(1 - 2 * alpha)
                - math.lgamma(n + 1)
            )
            assert gamma_ratio(alpha, n) == pytest.approx(expect, rel=1e-12)
            assert bound_rhs("thm_C", n, alpha=alpha) == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("alpha", [-3.0, -0.5, -0.25, 0.0, 0.3, 0.75])
def test_gamma_ratio_matches_the_k_loop_bit_for_bit(alpha):
    assert [gamma_ratio(alpha, n) for n in range(2001)] == gamma_ratios(alpha, 2000)


@pytest.mark.parametrize("alpha", [-100.0, -3.0, -0.5, 0.3])
def test_bound_rhs_walk_is_bound_rhs_at_every_n(alpha):
    # rising, then back down and on past the end: thm_C's rhs is a gamma_ratio per n, bit for
    # bit, the other rows' their own rhs, and bound_rhs reads the same
    ns = [*range(2, 400), 7, 2, 399, 1000, 3, 5000]
    for theorem in ("thm_C", "cor_spiral", "thm_B"):
        walk = bound_rhs_walk(theorem, alpha=alpha)
        rhs = THEOREMS[theorem].rhs
        expected = [(gamma_ratio(alpha, n) if theorem == "thm_C" else rhs(n, None, alpha)).hex()
                    for n in ns]
        assert [walk(n).hex() for n in ns] == expected
        assert [bound_rhs(theorem, n, alpha=alpha).hex() for n in ns] == expected
    with pytest.raises(InvalidParams, match="^thm_C bound needs n >= 2$"):
        bound_rhs_walk("thm_C", alpha=alpha)(1)


def test_bound_thm_B():
    assert bound_rhs("thm_B", 4) == pytest.approx(0.2)


def test_bound_robertson():
    assert bound_rhs("thm_robertson", 5, 2) == 12.0


def test_bound_constants():
    assert bound_rhs("thm_A", 3) == 1.0
    assert bound_rhs("cor_spiral", 2) == 1.0
    assert bound_rhs("thm_c_half", 9) == 1.0


def test_bound_exponential_forms():
    # class-wide only at alpha = 0; otherwise the bound is per-function
    assert bound_rhs("thm_main", 5, alpha=0.0) == 1.0
    assert bound_rhs("cor_convex_gamma", 5, alpha=0.0) == pytest.approx(1 / 6)
    for theorem in ("thm_main", "cor_convex_gamma"):
        with pytest.raises(InvalidParams, match="Theorem.member"):
            bound_rhs(theorem, 5, alpha=0.5)


@pytest.mark.parametrize("theorem", sorted(set(THEOREMS) - {"thm_robertson"}))
def test_every_bound_row_needs_n_at_least_two(theorem):
    # per-function rows too: trace may run the chain at n = 1, but no theorem bounds it there
    # (thm_robertson's n > m >= 1 rules n = 1 out first)
    assert inequalities.bound_row(theorem, 2) is THEOREMS[theorem]
    with pytest.raises(InvalidParams, match=f"^{theorem} bound needs n >= 2$"):
        inequalities.bound_row(theorem, 1)


def test_bound_invalid_indices():
    with pytest.raises(InvalidParams, match="^thm_B bound needs n >= 2$"):
        bound_rhs("thm_B", 1)
    with pytest.raises(InvalidParams, match="^robertson needs n > m >= 1$"):
        bound_rhs("thm_robertson", 3, 3)
    with pytest.raises(InvalidParams, match="^thm_C bound needs alpha$"):
        bound_rhs("thm_C", 5)  # alpha missing


#: (kind, functional) -> (theorem_id, rhs at n = 5, m = 2) for a row past the class's first
_LATER_ROWS = {("c_half", "robertson"): ("thm_robertson", 12.0)}


@pytest.mark.parametrize(
    "spec, theorem, functional, rhs",
    [
        (ClassSpec("c_half", alpha=-0.5), "thm_c_half", "one_sided_diff", 1.0),
        (ClassSpec("convex"), "thm_B", "one_sided_diff", 1 / 6),
        (ClassSpec("convex_spirallike", alpha=0.3), "thm_B", "one_sided_diff", 1 / 6),
        (ClassSpec("convex_spirallike", gamma=0.4, alpha=0.3), "cor_convex_gamma",
         "one_sided_diff", 1 / 6),
        (ClassSpec("starlike", alpha=-0.5), "thm_C", "two_sided_diff", 6.0),
        (ClassSpec("starlike", alpha=0.25), "thm_A", "two_sided_diff", 1.0),
        (ClassSpec("spirallike", gamma=0.4, alpha=0.3), "cor_spiral", "two_sided_diff", 1.0),
    ],
)
def test_class_bound_picks_the_class_theorem(spec, theorem, functional, rhs):
    assert class_bound(spec, functional, 5) == (theorem, pytest.approx(rhs, rel=1e-14))
    # the first row that admits the class and bounds the functional
    for other in ("two_sided_diff", "one_sided_diff", "robertson"):
        if other != functional:
            assert class_bound(spec, other, 5, 2) == _LATER_ROWS.get((spec.kind, other))


@pytest.mark.parametrize(
    "theorem, kind", [("thm_main", "spirallike"), ("cor_convex_gamma", "convex_spirallike")]
)
def test_member_rhs_at_alpha_zero_is_the_class_wide_rhs(theorem, kind):
    # bound_rhs and class_bound give a per-function row its class-wide rhs at alpha = 0
    row = THEOREMS[theorem]
    rng = np.random.default_rng(41)
    for _ in range(20):
        spec = ClassSpec(kind, gamma=float(rng.uniform(-1.2, 1.2)), alpha=0.0)
        assert spec.gamma != 0.0
        f = member_from_measure(random_measure(rng, 6), spec, 32)
        for n in range(2, 21):
            assert row.member(f, spec, n) == row.rhs(n, None, 0.0)


def test_class_bound_thm_c_reads_alpha():
    for alpha in (-0.5, -0.25, -1.0):
        _, rhs = class_bound(ClassSpec("starlike", alpha=alpha), "two_sided_diff", 5)
        assert rhs == gamma_ratio(alpha, 5)


def test_readme_theorem_table_mirrors_theorems():
    # README's theorem table lists every THEOREMS row, in order, with its functional
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \|", readme, re.MULTILINE)
    assert rows == [(theorem, row.functional) for theorem, row in THEOREMS.items()]


def test_readme_flags_sentence_mirrors_commands():
    # README's per-command flags sentence names each command's override flags, in order
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sentence = re.search(r"the fields it reads: (.*?)\.", readme, re.DOTALL).group(1)
    flags = {}
    for clause in sentence.split(";"):
        commands, taken = re.split(r"\btakes?\b", clause)
        for command in re.findall(r"`(\w+)`", commands):
            flags[command] = re.findall(r"`--(\w+)`", taken)
    assert flags == {name: list(reads) for name, (_, _, reads) in cli._COMMANDS.items()}


def test_readme_config_fields_mirror_the_schema():
    # README's Config fields section names every top-level field, and its tables no other
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = re.search(r"^### Config fields$(.*?)^#", readme, re.MULTILINE | re.DOTALL).group(1)
    fields = set(cli._FIELDS["config"])
    assert fields <= set(re.findall(r"`(\w+)`", section))
    in_tables = set(re.findall(r"^\| `(\w+)` \|", section, re.MULTILINE))
    assert in_tables and in_tables <= fields


def test_readme_heredoc_configs_run(tmp_path, capsys):
    # each config README writes with a heredoc runs through the command that follows it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    runs = re.findall(
        r"cat > (\S+) <<'EOF'\n(.*?)\nEOF\nspirallab (\w+) --config (\S+)\n", readme, re.DOTALL
    )
    assert [(name, command) for name, _, command, _ in runs] == [
        ("verify.json", "verify"), ("trace.json", "trace"), ("search.json", "search")
    ]
    for name, text, command, path in runs:
        assert path == name
        doc = json.loads(text)
        config = tmp_path / name
        config.write_text(json.dumps({**doc, "out": str(tmp_path / doc["out"])}))
        assert cli.main([command, "--config", str(config)]) == cli.EXIT_OK
        assert (tmp_path / doc["out"]).stat().st_size > 0


# ----------------------------------------------------------------------
# psi_max


def test_psi_max_koebe_data_is_harmonic_sum():
    for n in (3, 10, 20):
        c = np.full(n, 2.0)
        M, angle = psi_max(c, n, 0.0)
        assert M == pytest.approx(2.0 * harmonic(n), abs=1e-9)
        assert abs(angle) < 1e-12 or abs(angle - 2 * math.pi) < 1e-12


def test_psi_max_zero_sequence():
    M, angle = psi_max(np.zeros(5), 5, 0.3)
    assert M == 0.0
    assert angle == pytest.approx(0.0, abs=1e-2)


def test_psi_max_single_mode_rotates():
    # c_1 only: Re(e^{i gamma} c_1 e^{i theta}) peaks where the phases cancel
    gamma, phase = 0.5, 1.2
    c = np.array([2.0 * np.exp(-1j * phase)])
    M, angle = psi_max(c, 1, gamma)
    assert M == pytest.approx(2.0, abs=1e-12)
    assert angle == pytest.approx((phase - gamma) % (2 * math.pi), abs=1e-6)


def test_psi_max_scaled_koebe_bound():
    # single-atom data at order alpha: M = 2(1-alpha) H_n <= 2(1-alpha)(log n + 1)
    for alpha in (0.25, 0.5):
        for n in (2, 10, 20):
            c = np.full(n, 2.0 * (1 - alpha))
            M, _ = psi_max(c, n, 0.0)
            assert M == pytest.approx(2 * (1 - alpha) * harmonic(n), abs=1e-9)
            assert M <= 2 * (1 - alpha) * (math.log(n) + 1) + 1e-12


def measure_c(weights, angles, n):
    """c_1..c_n = 2 sum_j w_j e^{-ik t_j} of an atomic measure."""
    return 2.0 * (np.asarray(weights) @ np.exp(-1j * np.outer(angles, np.arange(1, n + 1))))


def test_psi_max_meets_its_definition():
    # M is Re sum d_k e^{ik theta}, d_k = e^{i gamma} c_k / k, at a stationary
    # angle, and no point of a 4096-angle grid lies above it.
    rng = np.random.default_rng(31)
    grid = np.exp(1j * np.outer(2.0 * np.pi * np.arange(4096) / 4096, np.arange(1, 41)))
    draws = []
    for _ in range(200):
        n = int(rng.integers(1, 41))
        c = rng.normal(size=n) + 1j * rng.normal(size=n)
        draws.append((n, c, float(rng.uniform(-1.4, 1.4))))
    # near-symmetric measures: p atoms of weight 1/p and spacing 2 pi / p, each
    # off by up to 1e-4, so p basins of Re psi tie to within about 1e-4
    for _ in range(200):
        n, p = int(rng.integers(1, 41)), int(rng.integers(2, 7))
        weights = 1.0 / p + rng.uniform(-1e-4, 1e-4, p)
        angles = rng.uniform(0.0, 2 * np.pi) + 2 * np.pi * np.arange(p) / p
        angles += rng.uniform(-1e-4, 1e-4, p)
        draws.append((n, measure_c(weights, angles, n), float(rng.uniform(-1.4, 1.4))))
    for n, c, gamma in draws:
        M, angle = psi_max(c, n, gamma)
        k = np.arange(1, n + 1)
        d = np.exp(1j * gamma) * c / k
        slope = np.real(np.sum(1j * k * d * np.exp(1j * k * angle)))
        assert abs(slope) <= 1e-12 * np.sum(k * np.abs(d))
        assert M >= np.real(grid[:, :n] * d).sum(axis=1).max()


def test_psi_max_takes_the_larger_of_near_tied_basins():
    # three atoms 2 pi / 3 apart whose weights differ by 1e-7: the three
    # basins of Re psi tie to about 1e-6, and M must be the highest of them
    n = 10
    c = measure_c([1 / 3 + 1e-7, 1 / 3 - 1e-7, 1 / 3], 0.1 + 2 * np.pi * np.arange(3) / 3, n)
    M, _ = psi_max(c, n, 0.0)
    size = 2**20
    half = np.zeros(size // 2 + 1, dtype=np.complex128)
    half[1 : n + 1] = c / np.arange(1, n + 1)
    assert M >= (size / 2) * np.fft.irfft(half, size).max() - 1e-12


def test_psi_max_is_bitwise_the_reference():
    # psi_max runs its Newton steps on Python floats through ndarray.dot; the reference
    # keeps numpy scalars and @, and (M, angle) must agree bit for bit, also where the
    # curvature screen refines several basins (equal atoms spaced evenly)
    rng = np.random.default_rng(24)
    cases = []
    for draw in range(600):
        n = int(rng.integers(1, 65))
        k = int(rng.integers(1, 9))
        if draw % 3 == 2:
            start = rng.uniform(0, 2 * np.pi)
            weights, angles = np.full(k, 1.0 / k), start + 2 * np.pi * np.arange(k) / k
        else:
            weights, angles = rng.dirichlet(np.ones(k)), rng.uniform(0, 2 * np.pi, k)
        cases.append((measure_c(weights, angles, n), n, float(rng.uniform(-1.2, 1.2))))
    tied = measure_c([1 / 3 + 1e-7, 1 / 3 - 1e-7, 1 / 3], 0.1 + 2 * np.pi * np.arange(3) / 3, 10)
    cases.append((tied, 10, 0.0))
    for c, n, gamma in cases:
        M, angle = psi_max(c, n, gamma)
        M_ref, angle_ref = psi_max_reference(c, n, gamma)
        assert (M.hex(), float(angle).hex()) == (M_ref.hex(), float(angle_ref).hex()), (n, gamma)


def test_psi_max_guards():
    with pytest.raises(InvalidParams, match="^psi_max needs n >= 1$"):
        psi_max(np.ones(3), 0, 0.0)
    with pytest.raises(InvalidParams, match="^need 5 coefficients, have 3$"):
        psi_max(np.ones(3), 5, 0.0)


# ----------------------------------------------------------------------
# weighted lemma


def test_lemma31_zero_sequence():
    lhs, rhs = lemma31_check(np.zeros(4), np.ones(4), 0.0, 0.0, 0.0)
    assert lhs == 0.0
    assert rhs == 0.0


def test_lemma31_koebe_equality():
    n = 12
    c = np.full(n, 2.0)
    lam = 1.0 / np.arange(1, n + 1)
    M, _ = psi_max(c, n, 0.0)
    lhs, rhs = lemma31_check(c, lam, 0.0, 0.0, M)
    assert lhs == pytest.approx(4 * harmonic(n), rel=1e-12)
    assert abs(rhs - lhs) <= 1e-9


def test_lemma31_random_measures_pass():
    rng = np.random.default_rng(5)
    for trial in range(100):
        k = int(rng.integers(1, 9))
        measure = fixed_measure(900 + trial, k)
        gamma = float(rng.uniform(-1.4, 1.4))
        alpha = float(rng.uniform(0.0, 0.9))
        n = int(rng.integers(1, 21))
        h = np.array(
            2.0
            * np.sum(
                np.array(measure.weights)[:, None]
                * np.exp(-1j * np.outer(measure.angles, np.arange(1, n + 1))),
                axis=0,
            )
        )
        c = (1 - alpha) * h
        lam = 1.0 / np.arange(1, n + 1)
        M, _ = psi_max(c, n, gamma)
        lhs, rhs = lemma31_check(c, lam, gamma, alpha, M)
        assert rhs - lhs >= -TOL_INEQ, (trial, rhs - lhs)


# ----------------------------------------------------------------------
# third exponentiation inequality


def test_milin_third_koebe_log_coefficients_at_one():
    lhs, rhs = milin_third([2.0], 1)
    assert lhs == pytest.approx(4.0)
    assert rhs == pytest.approx(math.exp(3.0))


def test_milin_third_zero_sequence():
    lhs, rhs = milin_third(np.zeros(6), 6)
    assert lhs == 0.0
    assert rhs == pytest.approx(math.exp(-harmonic(6)))


@given(
    st.integers(1, 30).flatmap(
        lambda n: st.lists(
            st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
            min_size=n,
            max_size=n,
        )
    )
)
def test_milin_third_is_universal(alpha_seq):
    n = len(alpha_seq)
    lhs, rhs = milin_third(alpha_seq, n)
    assert lhs <= rhs * (1 + 1e-12) + 1e-300


def test_milin_third_guards():
    with pytest.raises(InvalidParams, match="^need 5 coefficients, have 1$"):
        milin_third([1.0], 5)


# ----------------------------------------------------------------------
# proof trace


def test_recover_c_round_trips_measure_data():
    measure = fixed_measure(17, 5)
    gamma, alpha = 0.4, 0.3
    spec = ClassSpec("spirallike", gamma=gamma, alpha=alpha)
    f = member_from_measure(measure, spec, 64)
    c = recover_c(f, gamma, 20)
    n = np.arange(1, 21)
    h = 2.0 * np.sum(
        np.array(measure.weights)[:, None] * np.exp(-1j * np.outer(measure.angles, n)),
        axis=0,
    )
    assert np.max(np.abs(c - (1 - alpha) * h)) < 1e-10
    # each prefix is bit-for-bit the prefix of the full-order recovery
    members = [
        (named("koebe", 256), 0.0),
        (named("two_point", 256, theta1=0.3, theta2=2.0), 0.0),
        (member_from_measure(measure, spec, 256), gamma),
    ]
    for g, g_gamma in members:
        full = recover_c(g, g_gamma, g.order - 1)
        for count in range(1, 21):
            assert np.array_equal(recover_c(g, g_gamma, count), full[:count])


def test_proof_trace_koebe_full_equality_chain():
    f = named("koebe", 40)
    for n in (2, 10, 25):
        trace = proof_trace(f, 0.0, 0.0, n)
        assert abs(trace.xi0 - 1.0) < 1e-8
        assert trace.M == pytest.approx(2 * harmonic(n), abs=1e-9)
        assert trace.final_bound == 1.0
        assert trace.beta_bound == pytest.approx(1.0, abs=1e-8)
        assert trace.milin_exponent == pytest.approx(0.0, abs=1e-8)
        assert successive_diff(f, n) == 1.0


def test_proof_trace_identity_map():
    trace = proof_trace(identity_map(16), 0.0, 0.0, 1)
    assert trace.M == 0.0
    assert trace.final_bound == 1.0
    assert trace.beta_bound == pytest.approx(1.0, abs=1e-12)
    assert successive_diff(identity_map(16), 1) == 1.0


def test_proof_trace_sampled_members():
    rng = np.random.default_rng(23)
    for trial in range(50):
        k = int(rng.integers(1, 9))
        measure = fixed_measure(3000 + trial, k)
        gamma = float(rng.uniform(-1.2, 1.2))
        alpha = float(rng.uniform(0.01, 0.89))
        n = int(rng.integers(2, 21))
        spec = ClassSpec("spirallike", gamma=gamma, alpha=alpha)
        f = member_from_measure(measure, spec, 64)
        trace = proof_trace(f, gamma, alpha, n)
        # proof_trace checked the chain; check the reported slacks again
        lemma_cap = -2 * trace.M * alpha * math.cos(gamma)
        assert trace.milin_exponent <= lemma_cap + TOL_INEQ
        assert trace.beta_bound**2 <= math.exp(trace.milin_exponent) + TOL_INEQ
        assert successive_diff(f, n) <= trace.final_bound + TOL_INEQ
        assert trace.final_bound <= 1.0 + 1e-12


@settings(max_examples=25, derandomize=True)
@given(
    st.sampled_from(["spirallike", "starlike", "convex", "convex_spirallike"]),
    st.floats(-1.2, 1.2),
    st.floats(0.0, 0.9),
    st.lists(st.tuples(st.floats(0.0, 2 * math.pi, exclude_max=True), st.floats(0.01, 1.0)),
             min_size=1, max_size=4),
    st.integers(2, 12),
)
def test_chain_trace_matches_its_40_digit_replay(kind, gamma, alpha, atoms, n):
    # every field of the chain, from the double member, within 1e-12 of the replay from the
    # measure alone, relative to max(|x|, 1); the replay takes the trace's angle only where
    # Re psi reaches M there within 1e-12; alpha < 0 loses digits in recover_c (ROADMAP 2)
    pytest.importorskip("mpmath")
    spec = ClassSpec(kind, gamma if "spirallike" in kind else 0.0, alpha)
    total = sum(w for _, w in atoms)
    measure = AtomicMeasure([t for t, _ in atoms], [w / total for _, w in atoms])
    f = member_from_measure(measure, spec, n + 1)
    trace = chain_trace(f, spec, n)
    got = {**vars(trace), "c": np.array(trace.c),
           "a": (alexander_forward(f) if spec.is_convex_kind else f).coeffs}
    for field, exact in chain_replay(measure, spec, n, near=trace.max_angle).items():
        err = np.max(np.abs(got[field] - exact) / np.maximum(np.abs(exact), 1.0))
        assert err <= 1e-12, (field, err)


def test_chain_trace_reports_the_stationary_angle_of_a_flat_maximum():
    # one atom at t = 1e-10: Re psi is flat at its top to within an ulp, so Newton's point
    # ties the grid sample at t = 0 in value, and the tie must keep the stationary angle
    spec = ClassSpec("spirallike")
    f = member_from_measure(AtomicMeasure((1e-10,), (1.0,)), spec, 8)
    trace = chain_trace(f, spec, 2)
    assert trace.max_angle == pytest.approx(1e-10, rel=1e-12, abs=0.0)
    assert trace.xi0.real == 1.0
    assert trace.xi0.imag == pytest.approx(-1e-10, rel=1e-12, abs=0.0)


def test_proof_trace_final_bound_is_one_iff_alpha_zero():
    measure = fixed_measure(8, 3)
    f0 = member_from_measure(measure, ClassSpec("spirallike", gamma=0.5), 32)
    assert proof_trace(f0, 0.5, 0.0, 6).final_bound == 1.0
    f1 = member_from_measure(
        measure, ClassSpec("spirallike", gamma=0.5, alpha=0.3), 32
    )
    assert proof_trace(f1, 0.5, 0.3, 6).final_bound < 1.0


def test_proof_trace_degenerate_gamma():
    with pytest.raises(InvalidParams, match=r"^cos\(gamma\) = 1\.571e-10$"):
        proof_trace(identity_map(8), math.pi / 2 * 0.9999999999, 0.0, 2)


def test_proof_trace_rejects_non_members():
    # coefficient growth far beyond the class forces a chain violation
    c = np.zeros(13)
    c[1] = 1.0
    c[12] = 500.0
    fake = FunctionSeries(c)
    with pytest.raises(ChainInequalityViolation, match="milin exponent .* exceeds"):
        proof_trace(fake, 0.0, 0.5, 11)


@pytest.mark.parametrize(
    "name, broken, message",
    [
        # psi_max's angle becomes imaginary, so |xi0| = e^0.5
        ("psi_max", lambda c, n, gamma: (0.0, 0.5j), r"\|xi0\| = .* is not 1"),
        ("_exp", lambda x: 0.0, "beta bound .* breaks the exponentiation step"),
        ("successive_diff", lambda f, n: 10.0, r"successive difference 1.0+e\+01 exceeds final"),
    ],
)
def test_proof_trace_checks_each_link(monkeypatch, name, broken, message):
    # the chain of koebe at alpha = 0 holds with equality; break one link at a time
    monkeypatch.setattr(inequalities, name, broken)
    with pytest.raises(ChainInequalityViolation, match=message):
        proof_trace(named("koebe", 20), 0.0, 0.0, 5)


def test_holds_boundary():
    # slack rhs - lhs exactly -TOL_INEQ passes; the next float below it fails
    assert holds(TOL_INEQ, 0.0)
    assert not holds(math.nextafter(TOL_INEQ, math.inf), 0.0)
    assert holds(1.0, math.inf) and holds(-math.inf, 1.0)
    for lhs, rhs in [(math.nan, 1.0), (0.0, math.nan), (math.inf, math.inf)]:
        assert not holds(lhs, rhs)  # NaN, read or made by inf - inf, fails


def test_proof_trace_fails_on_nan():
    # a NaN coefficient makes M and the links that read it NaN, which must not pass
    c = named("koebe", 20).coeffs.copy()
    c[6] = math.nan
    with pytest.raises(ChainInequalityViolation):
        proof_trace(FunctionSeries(c), 0.0, -1.0, 8)


def test_proof_trace_serializes(tmp_path):
    out = tmp_path / "trace.json"
    config = tmp_path / "trace-cfg.json"
    config.write_text(json.dumps({
        "spec": {"kind": "starlike"}, "order": 20, "n": 5, "functions": [{"name": "koebe"}],
        "out": str(out),
    }))
    assert cli.main(["trace", "--config", str(config)]) == cli.EXIT_OK
    [doc] = json.loads(out.read_text())
    assert set(doc) == {"function_id", "seed"} | set(ProofTrace.__dataclass_fields__)
    assert doc["n"] == 5
    assert len(doc["c"]) == 5 and len(doc["C"]) == 5
    assert all(len(v) == 2 for v in [*doc["c"], *doc["C"], doc["xi0"]])  # [re, im] pairs
    assert doc["final_bound"] == 1.0


# ----------------------------------------------------------------------
# corollary chains through the Alexander transform


def test_convex_one_sided_bound_via_parent_trace():
    rng = np.random.default_rng(31)
    for trial in range(25):
        k = int(rng.integers(1, 7))
        measure = fixed_measure(5000 + trial, k)
        gamma = float(rng.uniform(-1.2, 1.2))
        alpha = float(rng.uniform(0.0, 0.9))
        n = int(rng.integers(2, 16))
        g = member_from_measure(
            measure, ClassSpec("spirallike", gamma=gamma, alpha=alpha), 48
        )
        trace = proof_trace(g, gamma, alpha, n)
        f = alexander_inverse(g)
        bound = trace.final_bound / (n + 1)
        assert one_sided_diff(f, n) <= bound + TOL_INEQ


def test_two_sided_diff_at_most_one_for_spiral_members():
    rng = np.random.default_rng(41)
    for trial in range(50):
        k = int(rng.integers(1, 9))
        measure = fixed_measure(8000 + trial, k)
        gamma = float(rng.uniform(-1.4, 1.4))
        f = member_from_measure(
            measure, ClassSpec("spirallike", gamma=gamma, alpha=0.0), 64
        )
        for n in range(2, 31):
            assert successive_diff(f, n) <= 1.0 + TOL_INEQ


def test_two_sided_diff_bounded_for_negative_order_starlike():
    rng = np.random.default_rng(37)
    for alpha in (-0.5, -1.0, -2.0):
        spec = ClassSpec("starlike", alpha=alpha)
        for trial in range(20):
            k = int(rng.integers(1, 7))
            measure = fixed_measure(7000 + trial, k)
            f = member_from_measure(measure, spec, 32)
            for n in range(2, 21):
                cap = bound_rhs("thm_C", n, alpha=alpha)
                assert successive_diff(f, n) <= cap + TOL_INEQ


# ----------------------------------------------------------------------
# Robertson-type gaps


def test_robertson_gap_equality_for_c_half_extremal():
    f = named("c_half_extremal", 35)
    for n in range(2, 31):
        for m in range(1, n):
            gap = robertson_gap(f, n, m)
            assert abs(bound_rhs("thm_robertson", n, m) - gap) <= 1e-12


def test_robertson_gap_identity_map():
    assert robertson_gap(identity_map(8), 3, 2) == 0.0  # a_2 = a_3 = 0
    assert bound_rhs("thm_robertson", 3, 2) == 3.0


def test_robertson_gap_sampled_c_half_members():
    for seed in range(10):
        measure = fixed_measure(111 + seed, 5)
        f = member_from_measure(measure, ClassSpec("c_half", alpha=-0.5), 16)
        assert robertson_gap(f, 8, 3) <= bound_rhs("thm_robertson", 8, 3) + TOL_INEQ


def test_robertson_gap_guards():
    f = named("koebe", 10)
    with pytest.raises(InvalidParams, match="^robertson needs n > m >= 1$"):
        robertson_gap(f, 3, 3)
    with pytest.raises(InvalidParams, match="^need order >= 12, have 10$"):
        robertson_gap(f, 12, 3)
