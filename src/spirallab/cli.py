"""Batch driver: build functions, run verification suites and searches
from JSON configs, and write deterministic CSV/JSON reports.

Exit status: 0 all checks passed, 1 usage or config error, 2 at least
one bound violation (red alert).  All angles are radians everywhere.
"""

from __future__ import annotations

import argparse
import contextvars
import json
import math
import os
import sys
from collections import namedtuple
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from itertools import chain
from typing import NamedTuple

import numpy as np

from .classes import (
    BATCH_TERMS,
    MAX_ATOMS,
    AtomicMeasure,
    ClassSpec,
    InvalidParams,
    check_atoms,
    l_phi_coefficients,
    member_builder,
    member_from_measure,
    named,
    random_atoms,
    random_measure,
)
from .extremal import SearchProblem, search
from .inequalities import (
    FUNCTIONALS,
    ON_COEFFICIENTS,
    THEOREMS,
    ChainInequalityViolation,
    bound_rhs,
    bound_row,
    chain_trace,
    check_reads,
    class_bound,
    holds,
    on_rows,
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

#: Ceiling on trials x (built order + 1) of a run's one sampled suite: as members, 2**25 complex
#: coefficients are 512 MiB.  verify and trace hold a member, or verify without a grid a block
#: of at most BATCH_TERMS atom terms, and the one before it, but their rows (a peak of about
#: 250 B each as CSV, 550 B as JSON) scale with the suite; sample holds and writes one trial
#: at a time (64 trials at order 8192 peaked at about 41 MiB, 57 MiB when it held them all).
_COEFFICIENTS = 2**25

#: A config field: its exact JSON types and, for an integer, its range lo..hi; holds names the
#: config object that its value is, or that each item of its list is.
_Field = namedtuple("_Field", "types lo hi holds", defaults=(-math.inf, math.inf, None))

#: The size of a sampled suite: a `sampled` object's fields, and `sample`'s at the top level.
_SUITE = {"trials": _Field((int,), 1, 100000), "k_atoms": _Field((int,), 1, MAX_ATOMS)}

#: The config contract: the fields each config object may hold, any other being a config error,
#: never ignored.  _check applies it to the whole config whichever command runs, so a config is
#: valid for every command or for none.  The top level takes every field some command reads,
#: so one config can serve several commands.
_FIELDS = {
    "config": {
        "seed": _Field((int,), 0),
        "order": _Field((int,), 1, 65536),
        "out": _Field((str,)),  # a path: an int would be taken as a file descriptor
        "format": _Field((str,)),
        "spec": _Field((dict,), holds="spec"),
        "theorem": _Field((str,)),
        "n": _Field((int, list)),
        "m": _Field((int, type(None))),
        "functions": _Field((list,), holds="function entry"),
        "membership": _Field((bool, dict), holds="membership object"),
        "functional": _Field((str,)),
        "budget": _Field((int,), 1, 1_000_000),  # a cap on one search's evaluations
        "restarts": _Field((int,), 1),
        "minimize": _Field((bool,)),
        **_SUITE,
    },
    "spec": {"kind": _Field((str,)), "gamma": _Field((int, float)), "alpha": _Field((int, float))},
    "named entry": {"name": _Field((str,)), "params": _Field((dict,))},
    "sampled entry": {"sampled": _Field((dict,), holds="sampled object")},
    "sampled object": _SUITE,
    "membership object": {"radii": _Field((list,)), "m": _Field((int,), 1, 2**20)},
}

#: table and search build through a_{n+1}, so their n stays below this
_ORDER_MAX = _FIELDS["config"]["order"].hi


class ConfigError(InvalidParams):
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
    except (ValueError, RecursionError) as exc:  # not UTF-8, an int past 4300 digits, too deep
        raise ConfigError(f"{path}: {exc}") from None


def _check(doc: dict, what: str) -> None:
    """Check the config object ``what`` in doc against _FIELDS: each field known, of an exact
    type and, for an integer, within its range; then each config object it holds."""
    if what == "function entry":  # which of 'name' and 'sampled' it holds says which it is
        if type(doc) is not dict or ("name" in doc) == ("sampled" in doc):
            raise ConfigError("a function entry is an object with one of 'name' and 'sampled'")
        what = "sampled entry" if "sampled" in doc else "named entry"
    fields = _FIELDS[what]
    for key, value in doc.items():
        if key not in fields:
            raise ConfigError(f"unknown field {key!r} in the {what}")
        types, lo, hi, holds = fields[key]
        # exact types: JSON true/false load as bool, which isinstance counts as int
        if type(value) not in types:
            raise ConfigError(f"field '{key}' has the wrong type")
        if type(value) is int and not lo <= value <= hi:
            raise ConfigError(f"field '{key}' must lie in {lo}..{hi}")
        if holds is not None and type(value) is not bool:  # membership true or false holds none
            for item in value if type(value) is list else (value,):
                _check(item, holds)


def _merged(args: argparse.Namespace) -> dict:
    cfg = _load_config(args.config) if args.config else {}
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    for key in ("seed", "order", "out", "format"):
        override = getattr(args, key, None)
        if override is not None:
            cfg[key] = override
    _check(cfg, "config")
    if cfg.get("format", "csv") not in ("csv", "json"):
        raise ConfigError("field 'format' must be 'csv' or 'json'")
    if cfg.get("out"):
        # an unusable path fails before any work, and a later config error leaves no file
        new = not os.path.lexists(cfg["out"])
        _open_out(cfg["out"], "a").close()
        if new:
            os.remove(cfg["out"])
    cfg["command"] = args.command
    return cfg


def _open_out(out: str, mode: str):
    try:
        return open(out, mode)
    except OSError as exc:
        raise ConfigError(f"field 'out': {out}: {exc.strerror}") from None
    except ValueError as exc:  # a null byte or a lone surrogate in the path
        raise ConfigError(f"field 'out': {exc}") from None


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"field '{key}' is required for command '{cfg['command']}'")
    return cfg[key]


def _class_spec(cfg: dict) -> ClassSpec:
    doc = _require(cfg, "spec")
    try:
        return ClassSpec(doc.get("kind"), float(doc.get("gamma", 0)), float(doc.get("alpha", 0)))
    except InvalidParams as exc:
        raise ConfigError(f"field 'spec': {exc}") from None


def _n_range(cfg: dict) -> range:
    raw = _require(cfg, "n")
    if type(raw) is int:
        return range(raw, raw + 1)
    if len(raw) == 2 and all(type(v) is int for v in raw):
        lo, hi = raw
        if hi < lo:
            raise ConfigError("field 'n': empty range")
        return range(lo, hi + 1)
    raise ConfigError("field 'n' must be an integer or [lo, hi]")


def _check_coefficients(trials: int, order: int) -> None:
    """Reject trials members of this order when they would pass the coefficient ceiling."""
    coefficients = trials * (order + 1)
    if coefficients > _COEFFICIENTS:
        raise ConfigError(
            f"trials x (built order + 1) = {coefficients} coefficients must be <= {_COEFFICIENTS}"
        )


class _Suite(NamedTuple):
    """A sampled suite: trials measures of at most k_atoms atoms, drawn in turn from one stream
    seeded by seed, and their members built through a_order.  Building draws nothing, so the
    draws are those of drawing all first."""

    seed: int | None
    trials: int
    k_atoms: int
    order: int

    def members(self, spec: ClassSpec) -> Iterator:
        """(function id, measure, member) per trial, built one at a time as it is read."""
        rng = np.random.default_rng(self.seed)
        for t in range(self.trials):
            measure = random_measure(rng, self.k_atoms)
            yield f"sample-{t:04d}", measure, member_from_measure(measure, spec, self.order)

    def blocks(self, spec: ClassSpec) -> Iterator:
        """(function ids, coefficients) per block of trials, built as it is read: a
        (members, order + 1) array, each row bit for bit the member built alone, within
        BATCH_TERMS atom terms (members x k_atoms x (order + 1)).

        Each trial's atoms (random_atoms, random_measure's draws) fill a row of the block,
        trimmed to its widest draw; zero-weight atoms at angle 0 pad a row, whose +0 terms
        leave every Herglotz sum's bits as they were.  One check_atoms call checks a block.
        """
        rng = np.random.default_rng(self.seed)
        build = member_builder(spec, self.order)
        size = max(1, BATCH_TERMS // (self.k_atoms * (self.order + 1)))
        for first in range(0, self.trials, size):
            count = min(size, self.trials - first)
            atoms = np.zeros((2, count, self.k_atoms))  # angles, weights
            k = 1
            for i in range(count):
                angles, weights = random_atoms(rng, self.k_atoms)
                k = max(k, len(angles))
                atoms[:, i, :len(angles)] = angles, weights
            atoms = atoms[..., :k]
            check_atoms(*atoms)
            yield [f"sample-{t:04d}" for t in range(first, first + count)], build(*atoms)


def _build_functions(cfg: dict, spec: ClassSpec, order: int, last: int) -> tuple:
    """(named, suite): a list of (function_id, FunctionSeries, None), one per named function,
    and the _Suite of the sampled entry, of no trials without one.

    One pass checks every entry first: ids must not repeat, so at most one entry is sampled
    (any two number their members from sample-0000), within the coefficient ceiling.  The
    named functions, closed forms built in full, come next, so a bad name or params fail
    before any member is drawn.  The suite's members are built through a_last (within
    a_1..a_order), the last coefficient read, as its caller reads them.
    """
    named_entries = {}  # function id -> (name, params)
    trials = k_atoms = 0  # of the sampled entry; without one, no member is drawn
    for entry in _require(cfg, "functions"):
        if "sampled" in entry:
            if trials:
                raise ConfigError("function id 'sample-0000' repeats")
            trials = entry["sampled"].get("trials", 1)
            k_atoms = entry["sampled"].get("k_atoms", 2)
            continue
        params = entry.get("params", {})
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
    built = min(max(last, 1), order)
    _check_coefficients(trials, built)
    seed = _require(cfg, "seed") if trials else None
    functions = [(tag, named(name, order, **params), None)
                 for tag, (name, params) in named_entries.items()]
    return functions, _Suite(seed, trials, k_atoms, built)


def _jsonable(obj):
    """The JSON form of what json cannot encode itself, for every JSON report.

    A complex number is [re, im] and an AtomicMeasure its atoms [{"t", "w"}, ...].
    """
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, AtomicMeasure):
        return [{"t": t, "w": w} for t, w in zip(obj.angles, obj.weights)]
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _write(cfg: dict, doc) -> None:
    """Write doc to cfg's 'out' path, or to stdout without one: a str as it is, else streamed
    as JSON, so the whole text is never held (an encoder error leaves a partial report).

    An iterator is written as the JSON array of its items, in json.dump's bytes for the
    list, one item at a time as it is made, so its items are never all held."""
    with _open_out(cfg["out"], "w") if cfg.get("out") else nullcontext(sys.stdout) as fh:
        if isinstance(doc, str):
            fh.write(doc)
        elif isinstance(doc, Iterator):
            sep = "[\n  "
            for item in doc:
                # an item sits one level deeper; no JSON string holds a raw newline
                text = json.dumps(item, indent=2, sort_keys=True, default=_jsonable)
                fh.write(sep + text.replace("\n", "\n  "))
                sep = ",\n  "
            fh.write("[]\n" if sep == "[\n  " else "\n]\n")
        else:
            json.dump(doc, fh, indent=2, sort_keys=True, default=_jsonable)
            fh.write("\n")


class _Block(NamedTuple):
    """A unit's rows: per key (theorem, n, m), membership first, a rhs and each function's lhs."""

    fids: list
    seed: int | None
    spec: ClassSpec
    keys: list
    lhs: np.ndarray  # (len(keys), len(fids)), or nested lists of that shape
    rhs: list  # one per key


def _csv_field(text: str) -> str:
    """text as one CSV field: quoted, with its quotes doubled, when it holds a comma, a quote
    or a line break (RFC 4180, as the csv module's minimal quoting); else as it is."""
    return '"%s"' % text.replace('"', '""') if any(map(text.__contains__, ',"\r\n')) else text


def _write_blocks(cfg: dict, blocks: list) -> int:
    """Write the blocks' rows by function id, then key, in cfg's 'format'; return the exit code.

    Each unit is judged once, as arrays: its slack is rhs - lhs and its pass holds(lhs, rhs),
    the bits of Python floats, and any failed row sets the exit code, in either format.  A
    JSON row is an object keyed by CSV_COLUMNS.  CSV fields follow _fmt (.12g floats, "" for
    None, true/false), and a function id is quoted by _csv_field.  A unit's seed, spec, ids
    and rhs, and the theorem, n and m of units sharing keys (verify's), are formatted once."""
    as_json = cfg.get("format", "csv") == "json"
    chunks, failed, last_keys = [], False, None  # chunks: (function id, its rows)
    for fids, seed, spec, keys, lhs, rhs in blocks:
        lhs, rhs = np.asarray(lhs, dtype=float), np.array(rhs, dtype=float)[:, None]
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, as for Python floats
            slack, ok = rhs - lhs, holds(lhs, rhs)
        failed = failed or not ok.all()
        rhs = rhs[:, 0].tolist()
        columns = zip(fids, lhs.T.tolist(), slack.T.tolist(), ok.T.tolist())
        if as_json:
            chunks += ((fid, [dict(zip(CSV_COLUMNS, (theorem, fid, seed, spec.gamma, spec.alpha,
                                                     n, m, v, r, s, p)))
                              for (theorem, n, m), v, r, s, p in zip(keys, ls, rhs, ss, ps)])
                       for fid, ls, ss, ps in columns)
            continue
        if keys is not last_keys:
            last_keys, heads = keys, [f"{theorem}," for theorem, _, _ in keys]
            nms = [f"{_fmt(n)},{_fmt(m)}," for _, n, m in keys]
        params = f"{_fmt(seed)},{_fmt(spec.gamma)},{_fmt(spec.alpha)},"
        rts = [f"{r:.12g}," for r in rhs]
        for fid, ls, ss, ps in columns:
            ids = f"{_csv_field(fid)},{params}"
            chunks.append((fid, "".join([
                f"{head}{ids}{nm}{v:.12g},{r}{s:.12g},{'true' if p else 'false'}\n"
                for head, nm, r, v, s, p in zip(heads, nms, rts, ls, ss, ps)])))
    chunks.sort(key=lambda c: c[0])  # function ids are unique
    _write(cfg, [row for _, rows in chunks for row in rows] if as_json
           else "".join([",".join(CSV_COLUMNS) + "\n", *(text for _, text in chunks)]))
    return EXIT_VIOLATION if failed else EXIT_OK


def _grid(cfg: dict) -> Grid | None:
    """The membership grid: None for false or absent, the default grid for true or {}."""
    block = cfg.get("membership", False)
    if block is False:
        return None
    block = {} if block is True else block
    radii = block.get("radii", Grid.radii)
    if not all(type(r) in (int, float) for r in radii):
        raise ConfigError("field 'radii' must be a list of numbers")
    return Grid(tuple(radii), block.get("m", Grid.m))


#: The least built order x grid points per circle at which verify checks each member on a
#: worker thread, overlapped with building the next member (see _overlaps).
_OVERLAP_MIN = 2**26


def _overlaps(order: int, m: int) -> bool:
    """Whether members of this order gain from a worker-thread grid check with m points a circle.

    Both sides must be long kernels that release the GIL: below the gate the two threads
    convoy on it (verify_main, order 256 with m = 1024, took 1.02-1.30x the serial time
    overlapped in fresh processes and 1.65x in one process; BENCH_check_overlap.json).
    """
    return order * m >= _OVERLAP_MIN


def _now(fn, *args):
    """Call fn(*args) at once; return the collector of its value, as Future.result is."""
    value = fn(*args)
    return lambda: value


def _cmd_verify(cfg: dict) -> int:
    order = cfg.get("order", ORDER_DEFAULT)
    spec = _class_spec(cfg)
    theorem = _require(cfg, "theorem")
    if theorem not in THEOREMS:
        raise ConfigError(f"unknown theorem id {theorem!r}")
    row = THEOREMS[theorem]
    if not row.admits(spec):
        raise ConfigError(f"theorem {theorem!r} is not stated for the class {vars(spec)}")
    functional = FUNCTIONALS[row.functional]
    m = cfg.get("m") if row.functional == "robertson" else None
    if row.functional == "robertson" and m is None:
        raise ConfigError(f"field 'm' is required for theorem {theorem!r}")
    ns = _n_range(cfg)
    grid = _grid(cfg)
    # membership reads every coefficient, the bounds none past a_{max n + 1}
    # (ns[-1]: max() would walk the whole range)
    last = order if grid is not None else ns[-1] + 1
    functions, suite = _build_functions(cfg, spec, order, last)
    # a row's config error comes before any member is built: every rule bounds n from below
    # and the order bounds it from above, so the range is checked at its two ends; without a
    # per-function rhs the row's rhs depends on n alone and is computed here
    bound_row(theorem, ns[0], m)
    check_reads(row.functional, ns[-1], m, suite.order)
    per_function = row.member is not None
    class_rhs = None if per_function else bound_rhs(theorem, ns, m, alpha=spec.alpha)

    def units() -> Iterator:
        """(function ids, seed, coefficient stack, member or None): each named function, then
        the members, whole for a grid or a per-function rhs, else in blocks (_Suite.blocks)."""
        for fid, f, seed in functions:
            yield [fid], seed, f.coeffs[None], f
        if grid is not None or per_function:
            for fid, _, f in suite.members(spec):
                yield [fid], suite.seed, f.coeffs[None], f
        elif suite.trials:
            for fids, a in suite.blocks(spec):
                yield fids, suite.seed, a, None

    def membership(f) -> list:
        """f's membership lhs, as the unit's first row, or no row without a grid."""
        if grid is None:
            return []
        check = check_convex if spec.is_convex_kind else check_spirallike
        try:
            return [[-check(f, spec, grid).margin]]
        except (ZeroOnGrid, CriticalPointOnGrid):
            return [[math.inf]]  # a vanishing f or f' on the grid rules the class out outright

    def member_rhs(f, n: int) -> float:
        try:
            return row.member(f, spec, n)
        except ChainInequalityViolation:  # a broken derivation chain is a red-alert row
            return math.nan

    keys = [("membership", None, None)] * (grid is not None) + [(theorem, n, m) for n in ns]
    blocks = []
    todo = units()
    overlap = grid is not None and _overlaps(order, grid.m)
    with ThreadPoolExecutor(max_workers=1) if overlap else nullcontext() as pool:
        unit = next(todo, None)
        while unit is not None:
            fids, seed, a, f = unit
            # a pool check runs in a copy of this context: numpy's errstate is a context variable
            collect = (_now(membership, f) if pool is None
                       else pool.submit(contextvars.copy_context().run, membership, f).result)
            try:
                if per_function:  # FUNCTIONALS and the member's own rhs at each n
                    lhs = [[functional(f, n, m)] for n in ns]
                    rhs = [member_rhs(f, n) for n in ns]
                else:  # every row of the stack from one on_rows call
                    lhs, rhs = on_rows(row.functional, a, ns, m), class_rhs
                unit = next(todo, None)  # above the gate, built while f is checked
            finally:
                # a check's exception comes first, as when the check runs before the rows
                check = collect()
            blocks.append(_Block(fids, seed, spec, keys, np.vstack([*check, lhs]),
                                 [TOL_MEMBER] * len(check) + rhs))
    return _write_blocks(cfg, blocks)


def _cmd_trace(cfg: dict) -> int:
    order = cfg.get("order", ORDER_DEFAULT)
    spec = _class_spec(cfg)
    ns = _n_range(cfg)
    functions, suite = _build_functions(cfg, spec, order, ns[-1] + 1)
    # each trace reads a_{n+1} of an n >= 1: the range's two ends are checked before any build
    check_reads("two_sided_diff", ns[0], None)
    check_reads("two_sided_diff", ns[-1], None, order)
    members = ((fid, f, suite.seed) for fid, _, f in suite.members(spec))
    docs = []
    for fid, f, seed in chain(functions, members):
        for n in ns:
            doc = {"function_id": fid, "seed": seed}
            try:
                doc.update(vars(chain_trace(f, spec, n)))
            except ChainInequalityViolation as exc:
                doc.update({"n": n, "violation": str(exc)})
            docs.append(doc)
    docs.sort(key=lambda d: (d["function_id"], d["n"]))
    _write(cfg, docs)
    return EXIT_VIOLATION if any("violation" in d for d in docs) else EXIT_OK


def _cmd_search(cfg: dict) -> int:
    spec = _class_spec(cfg)
    n = _require(cfg, "n")
    if type(n) is not int or n >= _ORDER_MAX:
        raise ConfigError(f"field 'n' must be an integer <= {_ORDER_MAX - 1}")
    seed = _require(cfg, "seed")
    given = ("functional", "m", "k_atoms", "budget", "restarts", "minimize")
    problem = SearchProblem(spec, n, seed=seed, **{k: cfg[k] for k in given if k in cfg})

    def stream(evals: int, value: float):
        sys.stdout.write(json.dumps({"evaluations": evals, "incumbent": value}) + "\n")

    # the bound is taken before the search, so an n it rejects streams nothing
    bound = None if problem.minimize else class_bound(spec, problem.functional, n, problem.m)
    result = search(problem, on_improve=stream)
    # the problem's fields, with the spec's in place of spec
    fields = {**vars(problem), **vars(spec)}
    del fields["spec"]
    doc = {**vars(result), "best_measure": {"atoms": result.best_measure}, "problem": fields}
    violated = False
    if bound is not None:
        theorem, rhs = bound
        violated = not holds(result.best_value, rhs)
        doc["bound"] = {"theorem_id": theorem, "rhs": rhs, "violated": violated}
    _write(cfg, doc)
    return EXIT_VIOLATION if violated else EXIT_OK


def _cmd_sample(cfg: dict) -> int:
    order = cfg.get("order", ORDER_DEFAULT)
    spec = _class_spec(cfg)
    trials = _require(cfg, "trials")
    k_atoms = cfg.get("k_atoms", 2)
    seed = _require(cfg, "seed")
    _check_coefficients(trials, order)
    members = enumerate(_Suite(seed, trials, k_atoms, order).members(spec))
    _write(cfg, ({"atoms": measure, **vars(spec), "trial": t, "seed": seed,
                  "coefficients": f.coeffs.tolist()} for t, (_, measure, f) in members))
    return EXIT_OK


def _cmd_table(cfg: dict) -> int:
    """Golden table: the named extremal functions against their theorems."""
    ns = _n_range(cfg) if "n" in cfg else range(2, 21)
    # built through a_{n+1}, the last coefficient a row reads; a row rejects an n below 2
    order = max(ns[-1] + 1, 1)
    if order > _ORDER_MAX:
        raise ConfigError(f"field 'n' must be <= {_ORDER_MAX - 1}")

    def moduli(name, **params):
        """The getter k -> |a_k| of the named function for the row at any n."""
        item = named(name, order, **params).coeffs.item
        return lambda n: lambda k: abs(item(k))

    def sharp(n):
        # l_phi(pi/n): row n reads a_n and a_{n+1} alone, so only those two are built
        a = l_phi_coefficients(math.pi / n, np.arange(n, n + 2))
        return lambda k: abs(a.item(k - n))

    # (theorem, function id, class, the moduli getter of the function used at index n)
    cases = (
        ("thm_A", "koebe", ClassSpec("starlike"), moduli("koebe")),
        ("thm_c_half", "c_half_extremal", ClassSpec("c_half", alpha=-0.5),
         moduli("c_half_extremal")),
        ("thm_C", "power_map(beta=3)", ClassSpec("starlike", alpha=-0.5),
         moduli("power_map", beta=3.0)),
        ("thm_B", "l_phi(pi/n)", ClassSpec("convex"), sharp),
    )
    blocks = []
    for theorem, fid, spec, at in cases:
        # checks the range's smallest n; its largest reads a_{n+1}, the last one built
        rhs = bound_rhs(theorem, ns, alpha=spec.alpha)
        on = ON_COEFFICIENTS[THEOREMS[theorem].functional]
        blocks.append(_Block([fid], None, spec, [(theorem, n, None) for n in ns],
                             [[on(at(n), n)] for n in ns], rhs))
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
        # a member past the double range reads inf or NaN, a red alert, without numpy's
        # warnings, in every command and in verify's worker, which runs in a copy of this context
        with np.errstate(over="ignore", invalid="ignore"):
            return _COMMANDS[args.command][0](cfg)
    except (InvalidParams, OverflowError) as exc:
        # InvalidParams is the type of every input error the package raises, ConfigError too;
        # OverflowError: float() of a JSON integer past the double range, such as a
        # 400-digit "gamma" in the spec, a radius or a named function's parameter
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
