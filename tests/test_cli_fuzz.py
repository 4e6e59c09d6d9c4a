"""Fuzz the CLI boundary: any config document ends in exit 0, 1 or 2.

Documents for all five commands are drawn from well-formed values, with
at most one field per object swapped for a value of the wrong type or
an edge value.  A traceback anywhere fails the test, so a config the
schema checks miss shows up here.  A verify document that pairs a valid
class with a theorem not stated for it must end in exit 1.  Sizes are
capped (order <= 64, trials <= 3, budget <= 400) to keep the run short.
"""

import json

import numpy as np
from hypothesis import example, given, settings, strategies as st

from spirallab.cli import (
    EXIT_CONFIG, EXIT_OK, EXIT_VIOLATION, ConfigError, _check, _class_spec, main
)
from spirallab.inequalities import THEOREMS

NAN = float("nan")
EDGE = st.sampled_from([True, False, "x", "3", -1, 0, -0.5, NAN, None, [], [1], {}])


def mostly(good, *edges):
    """good four draws in five, else one of a few edge values."""
    return st.sampled_from([False] * 4 + [True]).flatmap(
        lambda edge: st.sampled_from(edges) if edge else good
    )


def obj(required, optional=None):
    """An object with these fields; one draw in three swaps one field for an EDGE value."""
    keys = [*required, *(optional or {})]
    base = st.fixed_dictionaries(required, optional=optional or {})
    return st.tuples(base, st.sampled_from([None] * 2 * len(keys) + keys), EDGE).map(
        lambda d: d[0] if d[1] is None else {**d[0], d[1]: d[2]}
    )


INDEX = mostly(st.integers(1, 12), 0, -1, 70)
SPAN = st.tuples(INDEX, mostly(st.integers(0, 8), -1)).map(lambda p: [p[0], p[0] + p[1]])
N = st.one_of(INDEX, SPAN)
COUNT = mostly(st.integers(1, 3), 0, -1)
K_ATOMS = mostly(st.integers(1, 4), 0, -1)
SEED = mostly(st.integers(0, 10**6), -1)
SPEC = obj(
    {"kind": st.sampled_from(["spirallike", "convex_spirallike", "starlike", "convex", "c_half"])},
    {
        "gamma": mostly(st.just(0.0), 0.4, -1.2, 1.6, NAN, True),
        "alpha": mostly(st.just(0.0), 0.2, -0.5, 0.99, -1.0, -1000.0, NAN, "0.5"),
    },
)
NAMED = obj(
    {"name": st.sampled_from(["koebe", "two_point", "l_phi", "power_map", "odd_sqrt", "nope"])},
    {
        "params": st.dictionaries(
            st.sampled_from(["theta1", "theta2", "phi", "beta", "x"]),
            mostly(st.floats(-2.0, 2.0), 0, NAN, True, "3"),
            max_size=2,
        )
    },
)
SAMPLED = obj(
    {"sampled": obj({}, {"trials": COUNT, "k_atoms": K_ATOMS})}, {"name": st.just("koebe")}
)
FUNCTIONS = st.lists(st.one_of(SAMPLED, NAMED, EDGE), max_size=2)
MEMBERSHIP = st.one_of(
    st.booleans(),
    obj(
        {},
        {
            "radii": st.lists(mostly(st.floats(0.1, 0.9), -0.5, 0, 1, 1.5, NAN, True), max_size=3),
            "m": mostly(st.integers(16, 256), 0, -1),
        },
    ),
)
ORDER = mostly(st.integers(8, 64), 0, -1, 1)
FORMAT = mostly(st.sampled_from(["csv", "json"]), "xml")
THEOREM = st.sampled_from(
    ["thm_main", "cor_spiral", "thm_A", "thm_B", "thm_C", "cor_convex_gamma",
     "thm_c_half", "thm_robertson", "thm_nope"]
)

# command -> (required fields, optional fields)
FIELDS = {
    "verify": (
        {"spec": SPEC, "theorem": THEOREM, "n": N, "functions": FUNCTIONS, "seed": SEED},
        {"order": ORDER, "format": FORMAT, "m": INDEX, "membership": MEMBERSHIP},
    ),
    "trace": (
        {"spec": SPEC, "n": N, "functions": FUNCTIONS, "seed": SEED},
        {"order": ORDER, "format": FORMAT},
    ),
    "search": (
        {
            "spec": SPEC,
            "n": INDEX,
            "seed": SEED,
            "budget": mostly(st.sampled_from([400, 200]), 100, 0, -1),
        },
        {
            "format": FORMAT,
            "functional": mostly(
                st.sampled_from(["two_sided_diff", "one_sided_diff"]), "robertson"
            ),
            "m": INDEX,
            "k_atoms": mostly(st.integers(1, 2), 4, 0, -1),
            "restarts": COUNT,
            "minimize": st.booleans(),
        },
    ),
    "sample": (
        {"spec": SPEC, "trials": COUNT, "seed": SEED},
        {"order": ORDER, "format": FORMAT, "k_atoms": K_ATOMS},
    ),
    "table": ({}, {"order": ORDER, "format": FORMAT, "n": N}),
}

CONFIGS = st.sampled_from(sorted(FIELDS)).flatmap(
    lambda command: st.tuples(st.just(command), obj(*FIELDS[command]))
)

#: a search whose every member leaves the double range, so that no evaluation reads below inf
OVERFLOW_SEARCH = {"seed": 1, "spec": {"kind": "starlike", "alpha": -300}, "n": 3000,
                   "k_atoms": 2, "budget": 200, "restarts": 2}


def outside_its_class(doc: dict) -> bool:
    """True when doc pairs a valid class spec with a theorem not stated for that class."""
    theorem, spec = doc.get("theorem"), doc.get("spec")
    if not (isinstance(theorem, str) and theorem in THEOREMS and isinstance(spec, dict)):
        return False
    try:
        _check(spec, "spec")  # main checks the whole config before it reads the spec
        return not THEOREMS[theorem].admits(_class_spec(doc))
    except ConfigError:
        return False


def test_any_config_ends_in_an_exit_code(tmp_path_factory):
    work = tmp_path_factory.mktemp("fuzz")
    cfg = work / "cfg.json"

    @settings(max_examples=200, derandomize=True)
    @given(CONFIGS)
    @example(("search", OVERFLOW_SEARCH))
    def run(case):
        command, doc = case
        cfg.write_text(json.dumps({**doc, "out": str(work / "out")}))
        code = main([command, "--config", str(cfg)])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_VIOLATION)
        if command == "verify" and outside_its_class(doc):
            # rejected before any member is built, whatever else the document holds
            assert code == EXIT_CONFIG

    run()


def test_a_search_with_no_value_below_inf_is_a_red_alert(tmp_path, capsys):
    # no history and a NaN best value at the first restart's start point, which thm_C's
    # bound (inf here) fails
    out = tmp_path / "result.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**OVERFLOW_SEARCH, "out": str(out)}))
    assert main(["search", "--config", str(cfg)]) == EXIT_VIOLATION
    assert capsys.readouterr() == ("", "")
    doc = json.loads(out.read_text())
    rng = np.random.default_rng(OVERFLOW_SEARCH["seed"])
    angles, weights = rng.uniform(0.0, 2.0 * np.pi, 2), rng.uniform(0.3, 1.0, 2) ** 2
    weights /= weights.sum()
    assert doc["best_measure"] == {
        "atoms": [{"t": t, "w": w} for t, w in zip(angles.tolist(), weights.tolist())]
    }
    assert np.isnan(doc["best_value"]) and doc["history"] == []
    assert doc["bound"] == {"theorem_id": "thm_C", "rhs": float("inf"), "violated": True}
