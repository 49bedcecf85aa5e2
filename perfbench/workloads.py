"""The benchmark's workloads: seeded input files, the CLI calls made on them,
and a check of every call's exit code and output.

Each workload is a list of ``Case``s that a single client runs in a closed
loop.  Inputs are written to disk before timing starts; pcrank sees only the
files.  A check returns ``None`` when the call's result is right, otherwise a
short reason that the run tallies.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import gen

#: GM and LLS solve the same least-squares problem; consistent inputs must be
#: recovered exactly.  Both only up to rounding.
WEIGHT_TOL = 1e-9
#: Relative bound on the linear and eigen residuals reported by pcrank.
RESIDUAL_TOL = 1e-9
#: Plain output prints weights with four decimals.
PLAIN_TOL = 5e-5 + 1e-12

Check = Callable[[int, str, str], "str | None"]


@dataclass(frozen=True)
class Case:
    argv: tuple[str, ...]
    check: Check


@dataclass(frozen=True)
class Instance:
    """One generated matrix and what a correct run on it must report."""

    values: np.ndarray
    labels: tuple[str, ...]
    known: np.ndarray | None = None  # generating vector of a consistent matrix
    invalid: tuple[str, str] | None = None  # (violation kind, text that must appear)

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class Workload:
    cases: list[Case]
    warmup: list[Case]  # one small call per command, run untimed


def _write(path: Path, inst: Instance) -> str:
    custom = inst.labels != _default_labels(inst.n)
    path.write_text(gen.matrix_text(inst.values, list(inst.labels) if custom else None))
    return str(path)


def _default_labels(n: int) -> tuple[str, ...]:
    return tuple(f"a{i + 1}" for i in range(n))


def _close(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    return a.shape == b.shape and bool(np.abs(a - b).max() <= tol)


# -- checks ------------------------------------------------------------------


def check_rejected(inst: Instance, code: int, out: str, err: str) -> str | None:
    """An invalid matrix: exit 1, nothing on stdout, exactly the planted violation."""
    kind, where = inst.invalid
    if code != 1:
        return f"invalid input: exit {code}, expected 1"
    if out:
        return "invalid input: output on stdout"
    kinds = {line.split(" ", 1)[0].rstrip(":") for line in err.splitlines()}
    if kinds != {kind} or where not in err:
        return f"invalid input: expected {where!r}, got kinds {sorted(kinds)}"
    return None


def check_compare(inst: Instance, ref: dict, code: int, out: str, err: str) -> str | None:
    """``compare --format structured`` on a valid matrix."""
    if code != 0:
        return f"compare: exit {code}"
    try:
        record = json.loads(out)
        methods = {m["method"]: m for m in record["methods"]}
        w = {k: np.array(m["weights"], dtype=float) for k, m in methods.items()}
    except (ValueError, KeyError, TypeError):
        return "compare: unreadable output"
    if record.get("labels") != list(inst.labels) or record.get("errors"):
        return "compare: wrong labels or a method error"
    if sorted(w) != ["gm", "harker", "lls"]:
        return f"compare: methods {sorted(w)}"
    for v in w.values():
        if not (v.shape == (inst.n,) and (v > 0).all() and abs(v.sum() - 1.0) <= WEIGHT_TOL):
            return "compare: weights are not positive and summing to 1"
    if not _close(w["gm"], w["lls"], WEIGHT_TOL):
        return "compare: GM and LLS weights disagree"
    if not _close(w["gm"], ref["gm"], WEIGHT_TOL):
        return "compare: GM weights differ from the reference solve"
    if inst.known is not None and not all(_close(v, inst.known, WEIGHT_TOL) for v in w.values()):
        return "compare: consistent matrix, generating vector not recovered"
    try:
        linear = [methods[k]["diagnostics"]["linear_residual"] for k in ("gm", "lls")]
        lam = methods["harker"]["diagnostics"]["lambda_max"]
        eigen = methods["harker"]["diagnostics"]["eigen_residual"]
        s_gm, s_harker = methods["gm"]["s_star"], methods["harker"]["s_star"]
    except (KeyError, TypeError):
        return "compare: diagnostics missing"
    if not (max(linear) <= RESIDUAL_TOL * ref["rhs_scale"] and eigen <= RESIDUAL_TOL * lam):
        return "compare: large residual"
    v = w["harker"]
    bv = ref["harker_b"] @ v
    if not np.abs(bv - bv.sum() * v).max() <= RESIDUAL_TOL * bv.sum() * v.max():
        return "compare: Harker weights are not an eigenvector of B"
    if not s_gm <= s_harker * (1 + 1e-9) + 1e-12:
        return "compare: GM does not minimize S*"
    return None


def check_rank_plain(inst: Instance, ref: dict, code: int, out: str, err: str) -> str | None:
    """``rank --method harker`` in plain format: weights to four decimals."""
    if code != 0:
        return f"rank: exit {code}"
    lines = out.splitlines()
    if len(lines) != inst.n + 2:
        return "rank: wrong line count"
    try:
        pairs = [line.split(" ") for line in lines[: inst.n]]
        weights = np.array([float(p[1]) for p in pairs])
    except (ValueError, IndexError):
        return "rank: unreadable weights"
    if [p[0] for p in pairs] != list(inst.labels) or not _close(weights, ref["harker"], PLAIN_TOL):
        return "rank: weights differ from the reference eigenvector"
    if not (lines[-2].startswith("ranking: ") and lines[-1].startswith("S*(C) = ")):
        return "rank: missing ranking or S* line"
    return None


def check_complete_plain(inst: Instance, ref: dict, code: int, out: str, err: str) -> str | None:
    """``complete`` in plain format: re-parses, keeps present entries, fills
    missing ones with the weight ratios."""
    if code != 0:
        return f"complete: exit {code}"
    try:
        values = np.array([line.split(",") for line in out.splitlines()], dtype=float)
    except ValueError:
        return "complete: output does not re-parse as a complete matrix"
    if values.shape != inst.values.shape or not np.isfinite(values).all():
        return "complete: wrong shape or a non-finite entry"
    given = ~np.isnan(inst.values)
    if not np.array_equal(values[given], inst.values[given]):
        return "complete: a present entry changed"
    ratio = ref["ratios"][~given]
    if not np.abs(values[~given] / ratio - 1.0).max(initial=0.0) <= WEIGHT_TOL:
        return "complete: filled entries differ from the weight ratios"
    return None


def reference(inst: Instance) -> dict:
    """Expected quantities from the benchmark's own numpy solves."""
    x = gen.gm_log_weights(inst.values)
    rhs = np.abs(np.nansum(np.log(inst.values), axis=1)).max()
    return {
        "gm": gen.sum_normalized(x),
        "ratios": np.exp(x[:, None] - x[None, :]),
        "rhs_scale": max(1.0, float(rhs)),
        "harker_b": gen.harker_matrix(inst.values),
    }


def _bind(check, inst: Instance, ref: dict | None = None) -> Check:
    if ref is None:
        return lambda code, out, err: check(inst, code, out, err)
    return lambda code, out, err: check(inst, ref, code, out, err)


# -- workloads ---------------------------------------------------------------


def _ahp_instance(rng: np.random.Generator) -> Instance:
    n = int(rng.integers(3, 13))
    missing = float(rng.uniform(0.0, 0.5))
    labels = tuple(f"opt{i + 1}" for i in range(n)) if rng.random() < 0.5 else _default_labels(n)
    u = rng.random()
    if u < 0.05 or (u < 0.10 and n < 4):
        values = gen.saaty(n, missing, rng)
        i, j = gen.break_reciprocity(values, rng)
        return Instance(values, labels, invalid=("NonReciprocal", f"NonReciprocal ({i + 1},{j + 1})"))
    if u < 0.10:
        return Instance(gen.disconnected(n, missing, rng), labels, invalid=("Disconnected", "Disconnected:"))
    if u < 0.40:
        values, v = gen.consistent(n, missing, rng)
        return Instance(values, labels, known=v)
    return Instance(gen.saaty(n, missing, rng), labels)


def _compare_case(path: str, inst: Instance) -> Case:
    argv = ("compare", path, "--format", "structured")
    if inst.invalid is not None:
        return Case(argv, _bind(check_rejected, inst))
    return Case(argv, _bind(check_compare, inst, reference(inst)))


def _large(n: int, missing: float, count: int, rng: np.random.Generator) -> list[Instance]:
    """``count`` matrices of size n; every third is consistent."""
    out = []
    for k in range(count):
        if k % 3 == 2:
            values, v = gen.consistent(n, missing, rng)
            out.append(Instance(values, _default_labels(n), known=v))
        else:
            out.append(Instance(gen.inconsistent(n, missing, rng), _default_labels(n)))
    return out


def _dense_cases(path: str, inst: Instance) -> list[Case]:
    ref = reference(inst)
    ref["harker"] = inst.known if inst.known is not None else gen.harker_weights(inst.values)
    return [
        Case(("rank", path, "--method", "harker"), _bind(check_rank_plain, inst, ref)),
        Case(("complete", path), _bind(check_complete_plain, inst, ref)),
    ]


#: Input sizes per workload; ``tiny`` is for the smoke test.
SIZES = {
    "full": {"ahp_batch": (1000, None), "sparse_600": (3, 600), "dense_300": (3, 300)},
    "tiny": {"ahp_batch": (20, None), "sparse_600": (2, 40), "dense_300": (2, 30)},
}

NAMES = ("ahp_batch", "sparse_600", "dense_300")


def build(name: str, seed: int, workdir: Path, size: str = "full") -> Workload:
    """Generate the workload's inputs under ``workdir`` and its checked calls."""
    rng = np.random.default_rng([seed, NAMES.index(name)])
    count, n = SIZES[size][name]
    warm_rng = np.random.default_rng(0)
    warm_values, warm_v = gen.consistent(5, 0.3, warm_rng)
    warm = Instance(warm_values, _default_labels(5), known=warm_v)
    warm_path = _write(workdir / "warmup.pcm", warm)
    cases: list[Case] = []
    if name == "ahp_batch":
        for k in range(count):
            inst = _ahp_instance(rng)
            cases.append(_compare_case(_write(workdir / f"m{k}.pcm", inst), inst))
        bad_values = gen.disconnected(6, 0.2, warm_rng)
        bad = Instance(bad_values, _default_labels(6), invalid=("Disconnected", "Disconnected:"))
        warmup = [_compare_case(warm_path, warm), _compare_case(_write(workdir / "bad.pcm", bad), bad)]
    elif name == "sparse_600":
        for k, inst in enumerate(_large(n, 0.9, count, rng)):
            cases.append(_compare_case(_write(workdir / f"m{k}.pcm", inst), inst))
        warmup = [_compare_case(warm_path, warm)]
    elif name == "dense_300":
        for k, inst in enumerate(_large(n, 0.2, count, rng)):
            cases += _dense_cases(_write(workdir / f"m{k}.pcm", inst), inst)
        warmup = _dense_cases(warm_path, warm)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(cases, warmup)
