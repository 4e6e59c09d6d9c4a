"""Batch driver: build functions, run verification suites and searches
from JSON configs, and write deterministic CSV/JSON reports.

Exit status: 0 all checks passed, 1 usage or config error, 2 at least
one bound violation (red alert).  All angles are radians everywhere.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import cache
from itertools import chain
from typing import NamedTuple

import numpy as np

from .classes import (
    MAX_ATOMS,
    ClassSpec,
    InvalidParams,
    UnknownName,
    encode_measure_spec,
    member_from_measure,
    named,
    random_measure,
)
from .extremal import SearchProblem, search
from .inequalities import (
    FUNCTIONALS,
    THEOREMS,
    ChainInequalityViolation,
    DegenerateCosGamma,
    InvalidIndices,
    OrderTooLow,
    bound_rhs,
    class_bound,
    holds,
    proof_trace,
)
from .membership import (
    TOL_MEMBER,
    CriticalPointOnGrid,
    Grid,
    ZeroOnGrid,
    check_convex,
    check_spirallike,
)
from .series import ORDER_DEFAULT

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VIOLATION = 2

CSV_COLUMNS = (
    "theorem_id",
    "function_id",
    "seed",
    "gamma",
    "alpha",
    "n",
    "m",
    "lhs",
    "rhs",
    "slack",
    "pass",
)

#: Ceilings on the integer sizes a config allocates from, checked by _positive;
#: search builds members at order max(64, 2n), so n stays within the order ceiling.
#: "coefficients" bounds trials x (built order + 1) of a run's one sampled suite: as members,
#: 2**25 complex coefficients are 512 MiB.  verify and trace hold one member at a time, but
#: their rows (about 420 B each) scale with it; sample holds every coefficient as a JSON
#: [re, im] pair, about 500 B each (about 285 MiB for 64 trials at order 8192).
#: "budget" caps the objective evaluations of one search, which run one after another.
_CEILINGS = {
    "order": 65536,
    "m": 2**20,
    "n": 32768,
    "trials": 100000,
    "k_atoms": MAX_ATOMS,
    "coefficients": 2**25,
    "budget": 1_000_000,
}

#: The fields each config object may hold; any other is a config error, never ignored.  The
#: top level takes every field some command reads, so one config can serve several commands.
_FIELDS = {
    "config": {
        "seed", "order", "out", "format", "spec", "theorem", "n", "m", "functions",
        "membership", "functional", "k_atoms", "budget", "restarts", "minimize", "trials",
    },
    "spec": {"kind", "gamma", "alpha"},
    "named entry": {"name", "params"},
    "sampled entry": {"sampled"},
    "sampled object": {"trials", "k_atoms"},
    "membership object": {"radii", "m"},
}


class ConfigError(ValueError):
    """Config file or flag contents outside the accepted schema."""


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None


def _known(doc: dict, what: str) -> None:
    """Reject any field of doc outside the fields _FIELDS gives the object ``what``."""
    unknown = sorted(set(doc) - _FIELDS[what])
    if unknown:
        raise ConfigError(f"unknown field {unknown[0]!r} in the {what}")


def _merged(args: argparse.Namespace) -> dict:
    cfg = _load_config(args.config) if args.config else {}
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    _known(cfg, "config")
    for key in ("seed", "order", "out", "format"):
        override = getattr(args, key, None)
        if override is not None:
            cfg[key] = override
    cfg["command"] = args.command
    if cfg.get("format", "csv") not in ("csv", "json"):
        raise ConfigError("field 'format' must be 'csv' or 'json'")
    out = _optional(cfg, "out", "")  # a path string; an int would be taken as a file descriptor
    if out:
        _open_out(out, "a").close()  # an unusable path fails before any work
    return cfg


def _open_out(out: str, mode: str):
    try:
        return open(out, mode)
    except OSError as exc:
        raise ConfigError(f"field 'out': {out}: {exc.strerror}") from None


def _require(cfg: dict, key: str, kind=None):
    if key not in cfg:
        raise ConfigError(f"field '{key}' is required for command '{cfg['command']}'")
    value = cfg[key]
    # exact types: JSON true/false load as bool, which isinstance counts as int
    if kind is not None and type(value) is not kind:
        raise ConfigError(f"field '{key}' has the wrong type")
    return value


def _optional(doc: dict, key: str, default):
    """doc[key], or default when absent; a value must have the default's exact type."""
    value = doc.get(key, default)
    if type(value) is not type(default):
        raise ConfigError(f"field '{key}' has the wrong type")
    return value


def _positive(doc: dict, key: str, default: int | None = None) -> int:
    """doc[key] as an integer >= 1 and within its ceiling; required when there is no default."""
    value = _require(doc, key, int) if default is None else _optional(doc, key, default)
    if value < 1:
        raise ConfigError(f"field '{key}' must be >= 1")
    if value > _CEILINGS.get(key, value):
        raise ConfigError(f"field '{key}' must be <= {_CEILINGS[key]}")
    return value


def _class_spec(cfg: dict) -> ClassSpec:
    doc = _require(cfg, "spec", dict)
    _known(doc, "spec")
    try:
        return ClassSpec.from_json(doc)
    except InvalidParams as exc:
        raise ConfigError(f"field 'spec': {exc}") from None


def _n_range(cfg: dict) -> range:
    raw = _require(cfg, "n")
    if type(raw) is int:
        return range(raw, raw + 1)
    if type(raw) is list and len(raw) == 2 and all(type(v) is int for v in raw):
        lo, hi = raw
        if hi < lo:
            raise ConfigError("field 'n': empty range")
        return range(lo, hi + 1)
    raise ConfigError("field 'n' must be an integer or [lo, hi]")


def _seed(cfg: dict) -> int:
    seed = _require(cfg, "seed")
    if type(seed) is not int or seed < 0:
        raise ConfigError("field 'seed' must be a non-negative integer (no wall-clock defaults)")
    return seed


def _check_coefficients(trials: int, order: int, upto: int) -> None:
    """Reject trials members built through a_upto when they would pass the coefficient ceiling."""
    coefficients = trials * (min(max(upto, 1), order) + 1)
    if coefficients > _CEILINGS["coefficients"]:
        raise ConfigError(
            f"trials x (built order + 1) = {coefficients} coefficients must be"
            f" <= {_CEILINGS['coefficients']}"
        )


def _suite(seed: int, spec: ClassSpec, order: int, upto: int, trials: int, k_atoms: int):
    """(measure, member through a_upto) per trial, drawn from one stream seeded by seed and
    built one at a time; building draws nothing, so the draws are those of drawing all first."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        measure = random_measure(rng, k_atoms)
        yield measure, member_from_measure(measure, spec, order, upto=upto)


def _build_functions(cfg: dict, spec: ClassSpec, order: int, upto: int):
    """An iterator of (function_id, FunctionSeries, seed-or-None), one per function named.

    One pass checks every entry first: ids must not repeat, so at most one entry is sampled
    (any two number their members from sample-0000), within the coefficient ceiling.  The
    named functions, closed forms built in full, come next, so a bad name or params fail
    before any member is drawn.  The sampled members come last, built through a_upto one at
    a time as the iterator is read.
    """
    entries = _require(cfg, "functions", list)
    named_entries = {}  # function id -> (name, params)
    trials = k_atoms = 0  # of the sampled entry; without one, no member is drawn
    for entry in entries:
        if not isinstance(entry, dict) or ("name" in entry) == ("sampled" in entry):
            raise ConfigError("a function entry is an object with one of 'name' and 'sampled'")
        if "sampled" in entry:
            if trials:
                raise ConfigError("function id 'sample-0000' repeats")
            _known(entry, "sampled entry")
            if not isinstance(entry["sampled"], dict):
                raise ConfigError("field 'sampled' must be an object")
            _known(entry["sampled"], "sampled object")
            trials = _positive(entry["sampled"], "trials", 1)
            k_atoms = _positive(entry["sampled"], "k_atoms", 2)
            continue
        _known(entry, "named entry")
        params = entry.get("params", {})
        if not isinstance(entry["name"], str) or not isinstance(params, dict):
            raise ConfigError("field 'name' must be a string and 'params' an object")
        # math.isfinite of an integer past the double range raises OverflowError
        if not all(type(v) in (int, float) and math.isfinite(v) for v in params.values()):
            raise ConfigError("function parameters must be finite numbers")
        tag = entry["name"]
        if params:
            inner = ",".join(f"{k}={_fmt(v)}" for k, v in sorted(params.items()))
            tag = f"{tag}({inner})"
        if tag in named_entries:
            raise ConfigError(f"function id {tag!r} repeats")
        named_entries[tag] = (entry["name"], params)
    _check_coefficients(trials, order, upto)
    seed = _seed(cfg) if trials else None
    functions = []
    for tag, (name, params) in named_entries.items():
        try:
            functions.append((tag, named(name, order, **params), None))
        except UnknownName as exc:
            raise ConfigError(f"unknown function name {exc}") from None
        except ValueError as exc:  # InvalidParams, or coefficients that break a_1 = 1
            raise ConfigError(str(exc)) from None
    members = _suite(seed, spec, order, upto, trials, k_atoms) if trials else ()
    return chain(functions, ((f"sample-{t:04d}", f, seed) for t, (_, f) in enumerate(members)))


def _write(cfg: dict, doc) -> None:
    """Write doc to cfg's 'out' path, or to stdout without one: a str as it is, else as JSON."""
    text = doc if isinstance(doc, str) else json.dumps(doc, indent=2, sort_keys=True) + "\n"
    out = cfg.get("out")
    if out:
        with _open_out(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


class _Block(NamedTuple):
    """One function's report rows: a cell (theorem, n, m, lhs, rhs) each, membership first."""

    fid: str
    seed: int | None
    spec: ClassSpec
    cells: list


def _write_blocks(cfg: dict, blocks: list) -> int:
    """Write the blocks' rows by function id, then n, in cfg's 'format'; return the exit code.

    Each row's slack is rhs - lhs and its pass holds(lhs, rhs).  CSV fields
    follow _fmt (.12g floats, "" for None, true/false), written inline; the
    id, seed, gamma and alpha fields are formatted once per block.
    """
    blocks.sort(key=lambda b: b.fid)  # function ids are unique
    if cfg.get("format", "csv") == "json":
        rows = [
            dict(zip(CSV_COLUMNS, (theorem, fid, seed, spec.gamma, spec.alpha, n, m,
                                   lhs, rhs, rhs - lhs, holds(lhs, rhs))))
            for fid, seed, spec, cells in blocks
            for theorem, n, m, lhs, rhs in cells
        ]
        _write(cfg, rows)
        return EXIT_OK if all(row["pass"] for row in rows) else EXIT_VIOLATION
    lines = [",".join(CSV_COLUMNS)]
    failed = False
    for fid, seed, spec, cells in blocks:
        ids = ",".join(_fmt(v) for v in (fid, seed, spec.gamma, spec.alpha))
        for theorem, n, m, lhs, rhs in cells:
            ok = holds(lhs, rhs)
            failed = failed or not ok
            lines.append(
                f"{theorem},{ids},{'' if n is None else n},{'' if m is None else m},"
                f"{lhs:.12g},{rhs:.12g},{rhs - lhs:.12g},{'true' if ok else 'false'}"
            )
    _write(cfg, "\n".join(lines) + "\n")
    return EXIT_VIOLATION if failed else EXIT_OK


def _grid(cfg: dict) -> Grid | None:
    """The membership grid: None for false or absent, the default grid for true or {}."""
    block = cfg.get("membership", False)
    if block is False:
        return None
    block = {} if block is True else block
    if not isinstance(block, dict):
        raise ConfigError("field 'membership' must be true, false or an object")
    _known(block, "membership object")
    radii = _optional(block, "radii", list(Grid.radii))
    if not all(type(r) in (int, float) for r in radii):
        raise ConfigError("field 'radii' must be a list of numbers")
    try:
        return Grid(tuple(radii), _positive(block, "m", Grid.m))
    except ValueError as exc:
        raise ConfigError(f"field 'membership': {exc}") from None


def _cmd_verify(cfg: dict) -> int:
    order = _positive(cfg, "order", ORDER_DEFAULT)
    spec = _class_spec(cfg)
    theorem = _require(cfg, "theorem", str)
    if theorem not in THEOREMS:
        raise ConfigError(f"unknown theorem id {theorem!r}")
    row = THEOREMS[theorem]
    if not row.admits(spec):
        raise ConfigError(f"theorem {theorem!r} is not stated for the class {spec.to_json()}")
    functional = FUNCTIONALS[row.functional]
    m = _require(cfg, "m", int) if row.functional == "robertson" else None
    ns = _n_range(cfg)
    grid = _grid(cfg)
    # membership reads every coefficient, the bounds none past a_{max n + 1}
    # (ns[-1]: max() would walk the whole range)
    functions = _build_functions(cfg, spec, order, order if grid is not None else ns[-1] + 1)
    # without a per-function rhs the row's rhs depends on n alone: each n's is
    # computed once, when the first function reaches it
    class_rhs = cache(lambda n: bound_rhs(theorem, n, m, alpha=spec.alpha))

    blocks = []
    for fid, f, seed in functions:
        cells = []
        if grid is not None:
            check = check_convex if spec.is_convex_kind else check_spirallike
            try:
                lhs = -check(f, spec, grid).margin
            except (ZeroOnGrid, CriticalPointOnGrid):
                # a vanishing f or f' on the grid rules the class out outright
                lhs = math.inf
            cells.append(("membership", None, None, lhs, TOL_MEMBER))
        for n in ns:
            lhs = functional(f, n, m)
            if row.member is None:
                rhs = class_rhs(n)
            else:
                try:
                    rhs = row.member(f, spec, n)
                except ChainInequalityViolation:
                    # a broken derivation chain is a red-alert row, not a crash
                    rhs = math.nan
            cells.append((theorem, n, m, lhs, rhs))
        blocks.append(_Block(fid, seed, spec, cells))
    return _write_blocks(cfg, blocks)


def _cmd_trace(cfg: dict) -> int:
    order = _positive(cfg, "order", ORDER_DEFAULT)
    spec = _class_spec(cfg)
    ns = _n_range(cfg)
    functions = _build_functions(cfg, spec, order, ns[-1] + 1)
    docs = []
    for fid, f, seed in functions:
        for n in ns:
            doc = {"function_id": fid, "seed": seed}
            try:
                doc.update(proof_trace(f, spec.gamma, spec.alpha, n).to_json())
            except ChainInequalityViolation as exc:
                doc.update({"n": n, "violation": str(exc)})
            docs.append(doc)
    docs.sort(key=lambda d: (d["function_id"], d["n"]))
    _write(cfg, docs)
    return EXIT_VIOLATION if any("violation" in d for d in docs) else EXIT_OK


def _cmd_search(cfg: dict) -> int:
    spec = _class_spec(cfg)
    n = _positive(cfg, "n")
    try:
        problem = SearchProblem(
            spec=spec,
            n=n,
            functional=_optional(cfg, "functional", SearchProblem.functional),
            m=None if cfg.get("m") is None else _optional(cfg, "m", 0),
            k_atoms=_optional(cfg, "k_atoms", SearchProblem.k_atoms),
            budget=_positive(cfg, "budget", SearchProblem.budget),
            restarts=_optional(cfg, "restarts", SearchProblem.restarts),
            seed=_seed(cfg),
            minimize=_optional(cfg, "minimize", SearchProblem.minimize),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    def stream(evals: int, value: float):
        sys.stdout.write(json.dumps({"evaluations": evals, "incumbent": value}) + "\n")

    # the bound is taken before the search, so an n it rejects streams nothing
    bound = None if problem.minimize else class_bound(spec, problem.functional, n, problem.m)
    result = search(problem, on_improve=stream)
    doc = {**result.to_json(), "problem": problem.to_json()}
    violated = False
    if bound is not None:
        theorem, rhs = bound
        violated = not holds(result.best_value, rhs)
        doc["bound"] = {"theorem_id": theorem, "rhs": rhs, "violated": violated}
    _write(cfg, doc)
    return EXIT_VIOLATION if violated else EXIT_OK


def _cmd_sample(cfg: dict) -> int:
    order = _positive(cfg, "order", ORDER_DEFAULT)
    spec = _class_spec(cfg)
    trials = _positive(cfg, "trials")
    k_atoms = _positive(cfg, "k_atoms", 2)
    seed = _seed(cfg)
    _check_coefficients(trials, order, order)
    docs = [
        {
            **encode_measure_spec(measure, spec),
            "trial": t,
            "seed": seed,
            "coefficients": [[c.real, c.imag] for c in f.coeffs],
        }
        for t, (measure, f) in enumerate(_suite(seed, spec, order, order, trials, k_atoms))
    ]
    _write(cfg, docs)
    return EXIT_OK


def _cmd_table(cfg: dict) -> int:
    """Golden table: the named extremal functions against their theorems."""
    ns = _n_range(cfg) if "n" in cfg else range(2, 21)
    # built through a_{n+1}, the last coefficient a row reads; a row rejects an n below 2
    order = max(ns[-1] + 1, 1)
    if order > _CEILINGS["order"]:
        raise ConfigError(f"field 'n' must be <= {_CEILINGS['order'] - 1}")
    koebe = named("koebe", order)
    chalf = named("c_half_extremal", order)
    cube = named("power_map", order, beta=3.0)

    def sharp(n):
        return named("l_phi", n + 1, phi=math.pi / n)

    # (theorem, function id, class, builder of the function used at index n)
    cases = (
        ("thm_A", "koebe", ClassSpec("starlike"), lambda n: koebe),
        ("thm_c_half", "c_half_extremal", ClassSpec("c_half", alpha=-0.5), lambda n: chalf),
        ("thm_C", "power_map(beta=3)", ClassSpec("starlike", alpha=-0.5), lambda n: cube),
        ("thm_B", "l_phi(pi/n)", ClassSpec("convex"), sharp),
    )
    blocks = [_Block(fid, None, spec, []) for _, fid, spec, _ in cases]
    for n in ns:
        for (theorem, _, spec, build), block in zip(cases, blocks):
            lhs = FUNCTIONALS[THEOREMS[theorem].functional](build(n), n)
            block.cells.append((theorem, n, None, lhs, bound_rhs(theorem, n, alpha=spec.alpha)))
    return _write_blocks(cfg, blocks)


#: command -> (handler, help, the override flags it reads besides --config and --out)
_COMMANDS = {
    "verify": (_cmd_verify, "membership and bound suites over named or sampled functions",
               ("seed", "order", "format")),
    "trace": (_cmd_trace, "derivation-chain traces per function", ("seed", "order")),
    "search": (_cmd_search, "sharpness search over atomic measures", ("seed",)),
    "sample": (_cmd_sample, "write sampled measures and their coefficients", ("seed", "order")),
    "table": (_cmd_table, "golden table of the named extremal functions", ("format",)),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spirallab",
        description="verification suites for successive-coefficient bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    options = {
        "seed": {"type": int, "help": "override config seed"},
        "order": {"type": int, "help": "override truncation order"},
        "format": {"choices": ("csv", "json"), "help": "override output format"},
    }
    for name, (_, blurb, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", help="JSON config path")
        p.add_argument("--out", help="override output path")
        for flag in flags:
            p.add_argument(f"--{flag}", **options[flag])
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse printed the help (code 0) or a usage error, which exits 1 like a config error
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        cfg = _merged(args)
        return _COMMANDS[args.command][0](cfg)
    except (ConfigError, OrderTooLow, InvalidIndices, InvalidParams, DegenerateCosGamma,
            OverflowError) as exc:
        # every one of these traces back to a config value outside its valid range;
        # OverflowError: float() of a JSON integer past the double range, such as a
        # 400-digit "gamma" in the spec, a radius or a named function's parameter
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
