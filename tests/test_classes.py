import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spirallab import (
    AtomicMeasure,
    ClassSpec,
    InvalidParams,
    Series,
    alexander_forward,
    classes,
    herglotz,
    member_from_measure,
    named,
    random_measure,
)
from spirallab.classes import MAX_ATOMS, member_builder
from spirallab.cli import EXIT_OK, ConfigError, _class_spec, main
from spirallab.extremal import SearchProblem, _atoms_from_vector
from spirallab.inequalities import (
    bound_row,
    lemma31_check,
    milin_third,
    recover_c,
    successive_diff,
)
from spirallab.membership import Grid
from conftest import assert_series_close
from oracles import alexander_inverse, fixed_measure, herglotz_by_atom, log_unit

#: One atom at angle 0: the Koebe measure.
KOEBE_ATOM = AtomicMeasure((0.0,), (1.0,))


# ----------------------------------------------------------------------
# measures and specs


def test_measure_invariants():
    m = AtomicMeasure((0.0, math.pi), (0.5, 0.5))
    assert len(m.angles) == 2
    with pytest.raises(InvalidParams):
        AtomicMeasure((), ())
    with pytest.raises(InvalidParams):
        AtomicMeasure((0.0,), (0.5,))  # weights must sum to 1
    with pytest.raises(InvalidParams):
        AtomicMeasure((0.0, 1.0), (1.5, -0.5))  # nonnegative weights
    with pytest.raises(InvalidParams):
        AtomicMeasure((7.0,), (1.0,))  # angle outside [0, 2pi)
    with pytest.raises(InvalidParams):
        AtomicMeasure((0.0, 1.0), (math.nan, 1.0))  # NaN fails every comparison


def test_class_spec_invariants():
    ClassSpec("spirallike", gamma=0.7, alpha=0.3)
    ClassSpec("starlike", alpha=-2.0)
    ClassSpec("c_half", alpha=-0.5)
    with pytest.raises(InvalidParams):
        ClassSpec("starlike", gamma=0.3)
    with pytest.raises(InvalidParams):
        ClassSpec("c_half", alpha=0.0)
    with pytest.raises(InvalidParams):
        ClassSpec("spirallike", gamma=math.pi / 2)
    with pytest.raises(InvalidParams):
        ClassSpec("spirallike", alpha=-0.1)
    with pytest.raises(InvalidParams):
        ClassSpec("convex", alpha=1.0)
    with pytest.raises(InvalidParams):
        ClassSpec("elliptic")


# ----------------------------------------------------------------------
# herglotz


def test_herglotz_single_atom_is_half_plane_kernel():
    h = herglotz(KOEBE_ATOM, 32)
    expect = np.full(33, 2.0)
    expect[0] = 1.0
    assert np.allclose(h.coeffs, expect)


def test_herglotz_two_opposite_atoms():
    h = herglotz(AtomicMeasure((0.0, math.pi), (0.5, 0.5)), 32)
    n = np.arange(33)
    expect = np.where(n % 2 == 0, 2.0, 0.0)
    expect[0] = 1.0
    assert np.allclose(h.coeffs, expect, atol=1e-14)


def test_herglotz_adds_its_atoms_one_at_a_time():
    # no BLAS product: each sum takes its atoms in their order, whatever the order of h
    for k in range(1, MAX_ATOMS + 1):
        measure = fixed_measure(k, k)
        for order in (1, 2, 5, 64):
            assert np.array_equal(herglotz(measure, order).coeffs, herglotz_by_atom(measure, order))


def test_herglotz_constant_term_is_one():
    for seed in range(5):
        m = fixed_measure(seed, 5)
        assert herglotz(m, 8).coeffs[0] == 1.0


# ----------------------------------------------------------------------
# measure-driven members


def test_single_atom_reproduces_koebe():
    f = member_from_measure(KOEBE_ATOM, ClassSpec("starlike"), 50)
    assert np.max(np.abs(f.coeffs - np.arange(51))) < 1e-10


def test_single_atom_general_parameters_is_complex_power_map():
    # one atom at t=0 gives f = z (1-z)^{-B} with B = 2(1-alpha) e^{i gamma} cos(gamma)
    gamma, alpha = 0.7, 0.3
    spec = ClassSpec("spirallike", gamma=gamma, alpha=alpha)
    f = member_from_measure(KOEBE_ATOM, spec, 50)
    B = 2.0 * (1 - alpha) * np.exp(1j * gamma) * math.cos(gamma)
    g = named("power_map", 50, beta=B)
    assert_series_close(f, g, 1e-9)


def test_real_exponent_power_map_disagrees_for_nonzero_gamma():
    # with gamma != 0 the real exponent 2(1-alpha)cos(gamma) produces different
    # coefficients than the single-atom member; record the gap rather than
    # pretending the two constructions coincide
    gamma, alpha = 0.6, 0.2
    spec = ClassSpec("spirallike", gamma=gamma, alpha=alpha)
    f = member_from_measure(KOEBE_ATOM, spec, 30)
    beta_real = 2.0 * (1 - alpha) * math.cos(gamma)
    g = named("power_map", 30, beta=beta_real)
    gap = np.max(np.abs(f.coeffs - g.coeffs))
    assert gap > 1e-2


def test_two_atoms_match_two_point_extremal():
    th1, th2 = 0.9, 4.1
    m = AtomicMeasure((th1, th2), (0.5, 0.5))
    f = member_from_measure(m, ClassSpec("starlike"), 40)
    g = named("two_point", 40, theta1=th1, theta2=th2)
    assert_series_close(f, g, 1e-9)


def test_member_from_measure_convex_kind_goes_through_alexander():
    # a convex kind's member is, bit for bit, a_k / k of the spiral member with its own
    # (gamma, alpha); a zero gamma of either sign gives the same bits
    cases = [
        ("c_half", "starlike", 0.0, -0.5),
        ("convex", "starlike", 0.0, 0.3),
        ("convex", "starlike", -0.0, 0.3),
        ("convex_spirallike", "spirallike", 0.5, 0.2),
        ("convex_spirallike", "spirallike", -0.0, 0.2),
    ]
    n = np.arange(1, 21)
    for seed, (kind, parent_kind, gamma, alpha) in enumerate(cases):
        m = fixed_measure(seed + 3, 4)
        f = member_from_measure(m, ClassSpec(kind, gamma, alpha), 20)
        for parent_gamma in (0.0, -0.0) if gamma == 0.0 else (gamma,):
            g = member_from_measure(m, ClassSpec(parent_kind, parent_gamma, alpha), 20)
            assert f.coeffs[0] == 0.0
            assert f.coeffs[1:].tobytes() == (g.coeffs[1:] / n).tobytes(), (kind, parent_gamma)


def test_member_from_measure_convex_spirallike():
    m = fixed_measure(4, 3)
    spec = ClassSpec("convex_spirallike", gamma=0.5, alpha=0.2)
    g = member_from_measure(m, ClassSpec("spirallike", spec.gamma, spec.alpha), 20)
    f = member_from_measure(m, spec, 20)
    n = np.arange(1, 21)
    assert f.coeffs[1:].tobytes() == (g.coeffs[1:] / n).tobytes()


@pytest.mark.parametrize(
    "spec",
    [
        ClassSpec("spirallike", 0.4, 0.2),
        ClassSpec("starlike", 0.0, -0.5),
        ClassSpec("convex", 0.0, 0.3),
        ClassSpec("convex_spirallike", -0.6, 0.1),
        ClassSpec("c_half", alpha=-0.5),
    ],
    ids=lambda spec: spec.kind,
)
@pytest.mark.parametrize("order", [64, 256])
def test_member_upto_is_a_bitwise_prefix_of_the_full_member(spec, order):
    # a member of each order 1..41 is the first coefficients of the order-`order` one: its
    # Herglotz sums end at every remainder mod 4, the column block a BLAS product rounds by,
    # at every atom count a sampled or searched measure may have
    for k in range(1, MAX_ATOMS + 1):
        measure = fixed_measure(order + k, k)
        full = member_from_measure(measure, spec, order).coeffs
        atoms = np.asarray(measure.angles), np.asarray(measure.weights)
        for short in range(1, 42):
            assert np.array_equal(member_from_measure(measure, spec, short).coeffs,
                                  full[: short + 1])
            # the search objective's map at index n = short - 1
            assert np.array_equal(member_builder(spec, short)(*atoms), full[: short + 1])


@pytest.mark.parametrize("kind", classes.KINDS)
def test_member_builder_batch_rows_are_each_member_alone(kind):
    spec = _class_spec({"spec": {"kind": kind, **({"alpha": -0.5} if kind == "c_half" else {})}})
    build = member_builder(spec, 40)
    for k in (1, 4, 8, 9, MAX_ATOMS):
        measures = [fixed_measure(100 * k + i, k) for i in range(6)]
        angles = np.array([m.angles for m in measures])
        weights = np.array([m.weights for m in measures])
        batch = build(angles, weights)
        for m, row in zip(measures, batch):
            assert np.array_equal(row, member_from_measure(m, spec, 40).coeffs)


def test_members_of_one_class_and_order_share_one_builder():
    # a sampled suite makes its map once; an equal spec with zeros of the other sign hashes
    # alike and shares it, which keeps every bit, since e^{i gamma} is 1 + 0i at gamma = -0.0
    member_builder.cache_clear()
    measure = fixed_measure(3, 3)
    atoms = np.asarray(measure.angles), np.asarray(measure.weights)
    for spec in (ClassSpec("spirallike", 0.0, 0.0), ClassSpec("spirallike", -0.0, -0.0)):
        fresh = member_builder.__wrapped__(spec, 24)(*atoms)
        for _ in range(3):
            assert member_from_measure(measure, spec, 24).coeffs.tobytes() == fresh.tobytes()
    assert member_builder.cache_info().misses == 1


def test_check_atoms_checks_each_row_of_a_batch():
    angles = np.array([[0.5, 1.0], [2.0, 3.0], [1.0, 6.0]])
    weights = np.array([[0.5, 0.5], [0.25, 0.75], [1.0, 0.0]])
    classes.check_atoms(angles, weights)
    for bad in (-0.1, 2 * math.pi, np.nan):
        rows = angles.copy()
        rows[1, 1] = bad
        with pytest.raises(InvalidParams, match=r"angles must lie in \[0, 2pi\)"):
            classes.check_atoms(rows, weights)
    for bad in (-0.1, np.nan):
        rows = weights.copy()
        rows[2, 1] = bad
        with pytest.raises(InvalidParams, match="nonnegative"):
            classes.check_atoms(angles, rows)
    # the first row whose weights do not sum to 1 is named, as it is when checked alone
    rows = weights.copy()
    rows[1, 0], rows[2, 0] = 0.3, 0.875
    with pytest.raises(InvalidParams) as alone:
        classes.check_atoms(angles[1], rows[1])
    with pytest.raises(InvalidParams) as batched:
        classes.check_atoms(angles, rows)
    assert str(batched.value) == str(alone.value) == "atom weights sum to 1.05, not 1"


def test_sample_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # 16 atoms x 1026 columns is past OpenBLAS's threading threshold, where a BLAS product
    # splits its columns at ceil(1026 / T) on T threads and rounds some of them otherwise;
    # at order 12000 the exponential recurrence sums up to 11999 terms, past the 10,000
    # elements up to which OpenBLAS runs a dot on one thread
    src = str(Path(classes.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    spec = {"kind": "spirallike", "gamma": 0.3, "alpha": 0.25}
    for order, trials in ((1026, 4), (12000, 1)):
        config = tmp_path / "sample.json"
        config.write_text(json.dumps({
            "seed": 4, "order": order, "trials": trials, "k_atoms": 16, "spec": spec,
        }))
        reports = []
        for threads in ("1", "2", "3"):
            out = tmp_path / f"sample-{threads}.json"
            env = {**os.environ, "PYTHONPATH": path,
                   "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
            run = subprocess.run(
                [sys.executable, "-m", "spirallab.cli", "sample", "--config", str(config),
                 "--out", str(out)],
                capture_output=True, env=env, timeout=300,
            )
            assert (run.returncode, run.stderr) == (EXIT_OK, b"")
            reports.append(out.read_bytes())
        assert reports[1] == reports[0] and reports[2] == reports[0], order


# ----------------------------------------------------------------------
# Alexander transform, and the reference inverse the tests use


def test_alexander_inverse_of_koebe_is_half_plane_map():
    f = alexander_inverse(named("koebe", 30))
    assert np.allclose(f.coeffs[1:], np.ones(30))


def test_alexander_on_identity_map():
    z = named("power_map", 10, beta=0.0)  # just z
    assert np.allclose(alexander_forward(z).coeffs, z.coeffs)
    assert np.allclose(alexander_inverse(z).coeffs, z.coeffs)


def test_alexander_round_trip():
    # (n a_n) / n costs at most one ulp per coefficient in doubles, so the
    # round trip is identity to machine precision rather than bitwise
    f = named("two_point", 25, theta1=0.3, theta2=2.0)
    g = alexander_inverse(alexander_forward(f))
    err = np.abs(g.coeffs - f.coeffs)
    assert np.all(err <= 5e-16 * np.abs(f.coeffs))


def test_alexander_forward_of_log_extremal():
    phi = 0.8
    f = named("l_phi", 30, phi=phi)
    g = alexander_forward(f)
    n = np.arange(1, 31)
    expect = np.sin(n * phi) / math.sin(phi)
    assert np.allclose(g.coeffs[1:], expect, atol=1e-12)
    assert np.all(np.abs(g.coeffs[1:]) <= n + 1e-12)


# ----------------------------------------------------------------------
# named functions


def test_koebe_coefficients():
    f = named("koebe", 10)
    assert f.a(5) == 5


def test_c_half_extremal_coefficients():
    f = named("c_half_extremal", 10)
    assert [f.a(n).real for n in range(1, 5)] == [1.0, 1.5, 2.0, 2.5]


def test_l_phi_sharp_index():
    f = named("l_phi", 10, phi=math.pi / 5)
    assert abs(f.a(5)) < 1e-15
    assert f.a(6).real == pytest.approx(-1 / 6, abs=1e-15)


def test_power_map_cube_is_triangular_numbers():
    f = named("power_map", 20, beta=3.0)
    n = np.arange(1, 21)
    assert np.allclose(f.coeffs[1:], n * (n + 1) / 2)


def test_power_map_ratio_recurrence_property():
    for beta in (1.5, 3.0, 0.5, 2.0 + 1.2j):
        f = named("power_map", 40, beta=beta)
        a = f.coeffs
        for n in range(1, 40):
            expect = a[n] * (n - 1 + beta) / n
            assert abs(a[n + 1] - expect) <= 1e-12 * max(1.0, abs(expect))


def test_power_map_against_lgamma_oracle():
    # a_n = Gamma(n-1+beta) / (Gamma(beta) Gamma(n)) for real beta
    beta = 1.5
    f = named("power_map", 25, beta=beta)
    for n in range(1, 26):
        expect = math.exp(
            math.lgamma(n - 1 + beta) - math.lgamma(beta) - math.lgamma(n)
        )
        assert f.a(n).real == pytest.approx(expect, rel=1e-12)


def test_odd_sqrt_is_central_binomials():
    f = named("odd_sqrt", 11)
    assert f.a(3).real == pytest.approx(0.5)
    assert f.a(5).real == pytest.approx(3 / 8)
    assert f.a(7).real == pytest.approx(5 / 16)
    assert all(f.a(n) == 0 for n in range(2, 11, 2))


def test_odd_sqrt_matches_series_engine():
    # independent route: z (1-z^2)^{-1/2} via exp(-log(1-z^2)/2)
    order = 31
    c = np.zeros(order, dtype=complex)
    c[0] = 1.0
    if order > 2:
        c[2] = -1.0
    u = Series(-0.5 * log_unit(Series(c)).coeffs).exp_zero()  # (1-z^2)^{-1/2}, orders 0..order-1
    f = named("odd_sqrt", order)
    assert np.allclose(f.coeffs[1:], u.coeffs, atol=1e-12)


#: (call, message) of input guards: one raise site of each former InvalidParams subclass
#: (unknown name, order too low, invalid indices, degenerate cos gamma), then guards that
#: no other test reaches.
INPUT_ERRORS = {
    "unknown_name": (lambda: named("nope", 8), "unknown function name 'nope'"),
    "order_too_low": (
        lambda: successive_diff(named("koebe", 10), 10),
        "need order >= 11, have 10",
    ),
    "invalid_indices": (
        lambda: successive_diff(named("koebe", 10), 0),
        "successive difference needs n >= 1",
    ),
    "degenerate_cos_gamma": (
        lambda: recover_c(named("koebe", 8), math.pi / 2, 2),
        f"cos(gamma) = {math.cos(math.pi / 2):.3e}",
    ),
    "member_builder_order": (
        lambda: member_builder(ClassSpec("starlike"), 0),
        "order must be >= 1",
    ),
    "random_measure_k_atoms": (
        lambda: random_measure(np.random.default_rng(0), MAX_ATOMS + 1),
        f"k_atoms must lie in 1..{MAX_ATOMS}",
    ),
    "search_restarts": (
        lambda: SearchProblem(ClassSpec("starlike"), 4, restarts=0),
        "restarts must be >= 1",
    ),
    "bound_row_unknown_theorem": (lambda: bound_row("nope", 2), "unknown theorem id 'nope'"),
    "lemma31_more_weights": (
        lambda: lemma31_check([1.0], [1.0, 1.0], 0.0, 0.0, 1.0),
        "need 2 coefficients, have 1",
    ),
    "lemma31_negative_weight": (
        lambda: lemma31_check([1.0, 1.0], [1.0, -1.0], 0.0, 0.0, 1.0),
        "weights must be nonnegative",
    ),
    "milin_third_n": (lambda: milin_third([1.0], 0), "milin_third needs n >= 1"),
}


@pytest.mark.parametrize("case", sorted(INPUT_ERRORS))
def test_every_input_error_is_invalid_params(case):
    call, message = INPUT_ERRORS[case]
    with pytest.raises(InvalidParams) as info:
        call()
    assert type(info.value) is InvalidParams
    assert str(info.value) == message


def test_config_error_is_an_invalid_params():
    assert issubclass(ConfigError, InvalidParams)


def test_bad_search_problem_grid_and_name_raise_invalid_params():
    with pytest.raises(InvalidParams, match="budget must be at least"):
        SearchProblem(ClassSpec("starlike"), 4, budget=10)
    with pytest.raises(InvalidParams, match="unknown functional"):
        SearchProblem(ClassSpec("starlike"), 4, functional="nope")
    with pytest.raises(InvalidParams, match="radii must lie in"):
        Grid((1.5,))
    with pytest.raises(InvalidParams, match="^field 'membership': radii must not be empty$"):
        Grid(())
    with pytest.raises(InvalidParams, match="m must be >= 1"):
        Grid(m=0)
    with pytest.raises(InvalidParams, match="^unknown function name 'nope'$") as info:
        named("nope", 8)
    assert not isinstance(info.value, KeyError)
    # named's own arguments are positional, so params can only reach the builder
    with pytest.raises(InvalidParams, match="koebe: "):
        named("koebe", 8, order=3)


def test_named_rejects_unknown_and_bad_params():
    with pytest.raises(InvalidParams, match="^unknown function name 'lemniscate'$"):
        named("lemniscate", 10)
    with pytest.raises(InvalidParams):
        named("l_phi", 10, phi=0.0)
    with pytest.raises(InvalidParams):
        named("koebe", 10, beta=2.0)
    # a_n of z (1-z)^{-beta} grows like beta^(n-1) / (n-1)!, past the double range by order 64
    with pytest.raises(InvalidParams, match="double range"):
        named("power_map", 64, beta=1e9)


# ----------------------------------------------------------------------
# sampling and serialization


def test_sample_measure_deterministic():
    # reports depend on random_measure drawing the same measures from the same stream
    a = [random_measure(np.random.default_rng(42), 8) for _ in range(2)]
    b = [random_measure(np.random.default_rng(42), 8) for _ in range(2)]
    assert a == b


def test_sample_measure_invariants():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = random_measure(rng, 8)
        assert 1 <= len(m.angles) <= 8
        assert abs(sum(m.weights) - 1.0) <= 1e-12
        assert all(0.0 <= t < 2 * math.pi for t in m.angles)


def test_sample_measure_single_atom_forced_weight():
    m = random_measure(np.random.default_rng(0), 1)
    assert m.weights == (1.0,)


def test_wrap_angle_never_returns_two_pi():
    # -1e-20 % 2pi rounds up to exactly 2pi in doubles; wrap must land in range
    for t in (-1e-20, -1e-300, 2 * math.pi, -2 * math.pi, 7.0, -7.0):
        angles, _ = _atoms_from_vector(np.array([t, 1.0]), 1)
        assert 0.0 <= angles[0] < 2 * math.pi


def test_measure_spec_json_round_trip(tmp_path):
    # each sample document's atoms and spec rebuild its member bit for bit
    spec = {"kind": "convex_spirallike", "gamma": 0.4, "alpha": 0.3}
    out = tmp_path / "sample.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"seed": 9, "order": 128, "trials": 20, "k_atoms": 16, "spec": spec, "out": str(out)}
    ))
    assert main(["sample", "--config", str(cfg)]) == EXIT_OK
    docs = json.loads(out.read_text())
    assert len(docs) == 20
    for doc in docs:
        atoms = doc["atoms"]
        measure = AtomicMeasure(tuple(a["t"] for a in atoms), tuple(a["w"] for a in atoms))
        read = _class_spec({"spec": {key: doc[key] for key in spec}})
        assert read == ClassSpec("convex_spirallike", 0.4, 0.3)
        f = member_from_measure(measure, read, 128)
        assert [[c.real, c.imag] for c in f.coeffs] == doc["coefficients"]


# ----------------------------------------------------------------------
# high-precision oracle: the closed product formula at 40 digits

ORACLE_TOL = 1e-13


def product_formula_coeffs(measure, spec, order):
    """a_0..a_order of z prod_j (1 - e^{-i t_j} z)^{-2 w_j (1-alpha) e^{i gamma} cos gamma}.

    That product is the spirallike member of the measure; convex kinds
    then take the Alexander inverse a_n / n of their spiral parent, which
    has their (gamma, alpha).
    Each factor expands by the rising-factorial ratio (b + n - 1) x / n.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        scale = 2 * (1 - mpmath.mpf(spec.alpha)) * mpmath.expj(spec.gamma)
        scale *= mpmath.cos(spec.gamma)
        u = [mpmath.mpc(1)] + [mpmath.mpc(0)] * (order - 1)
        for t, w in zip(measure.angles, measure.weights):
            b, x = scale * w, mpmath.expj(-mpmath.mpf(t))
            factor = [mpmath.mpc(1)]
            for n in range(1, order):
                factor.append(factor[-1] * (b + n - 1) / n * x)
            u = [mpmath.fsum(u[j] * factor[k - j] for j in range(k + 1)) for k in range(order)]
        a = [0, *u]
        if spec.is_convex_kind:
            a = [0] + [a[n] / n for n in range(1, order + 1)]
    return np.array([complex(v) for v in a])


@pytest.mark.parametrize(
    "spec",
    [
        ClassSpec("spirallike", 0.4, 0.2),
        ClassSpec("starlike", 0.0, -0.5),
        ClassSpec("convex", 0.0, 0.3),
        ClassSpec("convex_spirallike", -0.6, 0.1),
    ],
    ids=lambda spec: spec.kind,
)
def test_sampled_members_match_product_formula_oracle(spec):
    rng = np.random.default_rng(2024)
    for _ in range(4):
        measure = random_measure(rng, 4)
        got = member_from_measure(measure, spec, 64).coeffs
        exact = product_formula_coeffs(measure, spec, 64)
        rel = np.abs(got[1:] - exact[1:]) / np.abs(exact[1:])
        assert np.max(rel) <= ORACLE_TOL
