"""Independent reference for the benchmark reports.

Every number a workload reports is recomputed here from the config
alone, without ``spirallab``: members come from the closed product
z * prod_j (1 - e^{-i t_j} z)^(-beta_j) instead of the package's
exponential recurrence, the positive-real-part coefficients c_k come
straight from the measure instead of being recovered by series division,
and the circle maximum of Re psi is refined by Newton steps instead of
golden section.  Only the sampling draw order is shared with the CLI,
because it is what the config's seed means.

A numeric field matches when it is within ``REL_TOL`` of the reference,
relative to max(|value|, 1): values near zero, such as a membership
margin at r = 0.99, carry the rounding of the much larger terms they
are computed from.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

REL_TOL = 1e-9

#: The CLI's row verdict: slack >= -PASS_TOL.
PASS_TOL = 1e-8

#: Right-hand side of membership rows (the package's membership tolerance).
MEMBER_RHS = 1e-7

#: Reference for a search seed without a pinned best value: the sharp bound
#: minus SHARP_TOL.  The gaps of the pinned searches have a heavy tail (3 of
#: 340 above 1e-8, the largest 9.3e-8), so this leaves two decades of room.
SHARP_TOL = 1e-5

CSV_COLUMNS = ["theorem_id", "function_id", "seed", "gamma", "alpha",
               "n", "m", "lhs", "rhs", "slack", "pass"]


def close(value: float, ref: float) -> bool:
    if math.isinf(ref) or math.isinf(value):
        return value == ref
    return abs(value - ref) <= REL_TOL * max(abs(value), abs(ref), 1.0)


def sampled_measures(seed: int, trials: int, k_atoms: int) -> list:
    """(angles, weights) per trial, in the CLI's draw order."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(trials):
        k = int(rng.integers(1, k_atoms + 1))
        w = rng.dirichlet(np.ones(k))
        t = rng.uniform(0.0, 2.0 * math.pi, k)
        out.append((t, w / w.sum()))
    return out


def product_coeffs(angles, exponents, order: int) -> np.ndarray:
    """a_0..a_order of z * prod_j (1 - e^{-i t_j} z)^(-exponents_j)."""
    k = np.arange(1, order)
    g = np.ones(1, dtype=np.complex128)
    for t, beta in zip(angles, exponents):
        ratio = np.empty(order, dtype=np.complex128)
        ratio[0] = 1.0
        ratio[1:] = np.exp(-1j * t) * (beta + k - 1) / k
        g = np.convolve(g, np.cumprod(ratio))[:order]
    return np.concatenate(([0.0], g))


def spiral_member(angles, weights, gamma: float, alpha: float, order: int) -> np.ndarray:
    """Spirallike (or starlike, gamma = 0) member driven by an atomic measure."""
    beta = 2.0 * np.asarray(weights) * np.exp(1j * gamma) * math.cos(gamma) * (1.0 - alpha)
    return product_coeffs(angles, beta, order)


def circle_values(c: np.ndarray, r: float, m: int) -> np.ndarray:
    """sum_n c_n (r w^j)^n at the m-th roots of unity w^j."""
    scaled = c * r ** np.arange(c.size)
    folded = np.zeros(m, dtype=np.complex128)
    for start in range(0, scaled.size, m):
        block = scaled[start:start + m]
        folded[: block.size] += block
    return m * np.fft.ifft(folded)


def spiral_margin(a: np.ndarray, gamma: float, alpha: float, radii, m: int) -> float:
    """min over the grid of Re(e^{-i gamma} z f'/f) - alpha cos(gamma); -inf if f vanishes."""
    fp = a[1:] * np.arange(1, a.size)
    best = math.inf
    for r in radii:
        z = r * np.exp(2j * np.pi * np.arange(m) / m)
        vf = circle_values(a, r, m)
        if np.min(np.abs(vf)) <= 1e-12 * r:
            return -math.inf
        vals = np.real(np.exp(-1j * gamma) * z * circle_values(fp, r, m) / vf)
        best = min(best, float(vals.min()) - alpha * math.cos(gamma))
    return best


def psi_max(d: np.ndarray) -> float:
    """max over |z| = 1 of Re sum_k d_k z^k (d[0] is d_1).

    Same grid as the package (at least 8192 points) to pick the basin,
    then Newton steps on the derivative inside the grid cell.
    """
    n = d.size
    m = max(8192, 4 * (n + 1))
    buf = np.zeros(m, dtype=np.complex128)
    buf[1:n + 1] = d
    vals = (m * np.fft.ifft(buf)).real
    j = int(np.argmax(vals))
    h = 2.0 * math.pi / m
    k = np.arange(1, n + 1)
    theta = j * h
    for _ in range(20):
        e = d * np.exp(1j * k * theta)
        slope = float(np.real(1j * k * e).sum())
        curve = float(np.real(-(k * k) * e).sum())
        if curve >= 0.0:
            break
        step = slope / curve
        theta = min(max(theta - step, j * h - h), j * h + h)
        if abs(step) < 1e-15:
            break
    return max(float(vals[j]), float(np.real((d * np.exp(1j * k * theta)).sum())))


def verify_rows(cfg: dict) -> list:
    """Expected rows of a ``verify`` report: (theorem, function_id, n, lhs, rhs)."""
    gamma = float(cfg["spec"].get("gamma", 0.0))
    alpha = float(cfg["spec"].get("alpha", 0.0))
    theorem = cfg["theorem"]
    if cfg["spec"]["kind"] != "spirallike" or theorem not in ("thm_main", "cor_spiral"):
        raise ValueError("the oracle covers spirallike thm_main/cor_spiral suites only")
    lo, hi = cfg["n"]
    member = cfg.get("membership")
    rows = []
    for entry in cfg["functions"]:
        block = entry["sampled"]
        measures = sampled_measures(cfg["seed"], block["trials"], block["k_atoms"])
        for t, (angles, weights) in enumerate(measures):
            fid = f"sample-{t:04d}"
            order = cfg["order"] if member else hi + 1
            a = spiral_member(angles, weights, gamma, alpha, order)
            if member:
                margin = spiral_margin(a, gamma, alpha, member["radii"], member["m"])
                rows.append(("membership", fid, None, -margin, MEMBER_RHS))
            h = 2.0 * (np.asarray(weights) @ np.exp(-1j * np.outer(angles, np.arange(1, hi + 1))))
            d_all = np.exp(1j * gamma) * (1.0 - alpha) * h / np.arange(1, hi + 1)
            for n in range(lo, hi + 1):
                lhs = abs(abs(a[n + 1]) - abs(a[n]))
                rhs = 1.0
                if theorem == "thm_main":
                    rhs = math.exp(-psi_max(d_all[:n]) * alpha * math.cos(gamma))
                rows.append((theorem, fid, n, lhs, rhs))
    rows.sort(key=lambda r: (r[1], -1 if r[2] is None else r[2]))
    return rows


def check_verify(cfg: dict, expected: list, text: str) -> list:
    """Problems found in a ``verify`` CSV report (empty when it is correct)."""
    records = list(csv.reader(io.StringIO(text)))
    if not records or records[0] != CSV_COLUMNS:
        return ["report header differs from the CSV column contract"]
    body = records[1:]
    if len(body) != len(expected):
        return [f"report has {len(body)} rows, expected {len(expected)}"]
    gamma = float(cfg["spec"].get("gamma", 0.0))
    alpha = float(cfg["spec"].get("alpha", 0.0))
    problems = []
    for i, (row, (theorem, fid, n, lhs, rhs)) in enumerate(zip(body, expected)):
        if len(row) != len(CSV_COLUMNS):
            problems.append(f"row {i}: {len(row)} fields")
            continue
        got = dict(zip(CSV_COLUMNS, row))
        try:
            keys_ok = (
                got["theorem_id"] == theorem
                and got["function_id"] == fid
                and int(got["seed"]) == cfg["seed"]
                and close(float(got["gamma"]), gamma)
                and close(float(got["alpha"]), alpha)
                and got["n"] == ("" if n is None else str(n))
                and got["m"] == ""
            )
            values = [float(got[k]) for k in ("lhs", "rhs", "slack")]
        except ValueError:
            problems.append(f"row {i}: unparsable field")
            continue
        if not keys_ok:
            problems.append(f"row {i}: identifying fields differ from ({theorem}, {fid}, {n})")
            continue
        ref_values = (lhs, rhs, rhs - lhs)
        for key, value, ref in zip(("lhs", "rhs", "slack"), values, ref_values):
            if not close(value, ref):
                problems.append(f"row {i} ({fid}, n={n}): {key} {value!r} vs reference {ref!r}")
        verdict = "true" if rhs - lhs >= -PASS_TOL else "false"
        if got["pass"] != verdict:
            problems.append(f"row {i} ({fid}, n={n}): pass {got['pass']} vs reference {verdict}")
        if len(problems) > 20:
            break
    return problems


def check_search(cfg: dict, pinned_best: float | None, text: str) -> list:
    """Problems found in a ``search`` JSON report of a convex one-sided search."""
    if cfg["spec"]["kind"] != "convex" or cfg["functional"] != "one_sided_diff":
        raise ValueError("the oracle covers convex one_sided_diff searches only")
    try:
        doc = json.loads(text)
        best = float(doc["best_value"])
        atoms = doc["best_measure"]["atoms"]
        angles = [float(a["t"]) for a in atoms]
        weights = [float(a["w"]) for a in atoms]
        bound = doc["bound"]
        problem = doc["problem"]
        evaluations = int(doc["evaluations_used"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"search report unreadable: {exc!r}"]
    n = cfg["n"]
    rhs = 1.0 / (n + 1)  # thm_B, sharp for convex functions
    problems = []
    for key in ("n", "functional", "k_atoms", "budget", "restarts", "seed"):
        if problem.get(key) != cfg[key]:
            problems.append(f"problem.{key} {problem.get(key)!r} vs config {cfg[key]!r}")
    if bound.get("theorem_id") != "thm_B" or not close(float(bound.get("rhs", math.nan)), rhs):
        problems.append(f"bound {bound!r} is not thm_B with rhs 1/{n + 1}")
    if bound.get("violated") is not False:
        problems.append("bound.violated is not false")
    if best > rhs + PASS_TOL:
        problems.append(f"best_value {best!r} exceeds the bound {rhs!r}")
    reference = pinned_best if pinned_best is not None else rhs - SHARP_TOL
    if best < reference - REL_TOL:
        problems.append(f"best_value {best!r} below reference {reference!r}")
    if not 0 < evaluations <= cfg["budget"]:
        problems.append(f"evaluations_used {evaluations} outside 1..budget")
    # the reported measure must attain the reported value: the convex member
    # is the Alexander inverse (a_k = b_k / k) of the starlike member
    b = spiral_member(angles, weights, 0.0, 0.0, n + 2)
    attained = abs(b[n + 1]) / (n + 1) - abs(b[n]) / n
    if not close(best, attained):
        problems.append(f"best_measure gives {attained!r}, report says {best!r}")
    return problems
