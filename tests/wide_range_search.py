"""Runs GM, LLS and Harker over four seeded searches of wide-range matrices
and counts their outcomes: weights, or an error by type.

Each draw is an n x n matrix, n from 3 to 12, with c_ij = exp(x_ij) above
the diagonal and 1 / c_ij below it, where x_ij is uniform on [lo, hi] with a
random sign; each upper pair is missing with a probability drawn from
[0, 0.6].  The searches are ROADMAP D15's:

    default_rng(12) on [690, 709.7], 3 800 draws
    default_rng(7)  on [300, 708],   3 000 draws
    default_rng(3)  on [0, 30],      2 000 draws
    default_rng(4)  on [100, 300],   2 000 draws

A draw is valid when ``prepare`` accepts it.  For each search the script
prints the valid count and, per method, the weight vectors, those of them
with an entry below the smallest normal double, and the errors by type:

    PYTHONPATH=src python tests/wide_range_search.py

``--save FILE`` writes every outcome, weights bit for bit, as JSON.
``--against FILE`` compares each outcome with the one saved there, and
exits 1 if any differs.  Per search and method it prints how many weight
vectors moved only in their bits, with the largest relative change of an
entry, over all entries and over those in the normal range; then it lists,
draw by draw, every other outcome that differs: the class (weights, or the
error's type) or the message moved, or the draw's validity.  So a run from
a parent checkout with ``--save`` and one from a changed checkout with
``--against`` show exactly the outcomes the change moves.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from collections.abc import Iterator

import numpy as np

from pcrank import (
    ConvergenceError,
    InvalidMatrixError,
    PCMatrix,
    prepare,
    rank_gm,
    rank_harker,
    rank_lls,
)

#: (seed, lo, hi, draws) of each search.
SEARCHES = [
    (12, 690.0, 709.7, 3800),
    (7, 300.0, 708.0, 3000),
    (3, 0.0, 30.0, 2000),
    (4, 100.0, 300.0, 2000),
]
METHODS = {"gm": rank_gm, "lls": rank_lls, "harker": rank_harker}
TINY = float(np.finfo(float).tiny)


def draws(seed: int, lo: float, hi: float, count: int) -> Iterator[PCMatrix]:
    """The search's matrices, in draw order."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(3, 13))
        x = rng.uniform(lo, hi, (n, n)) * rng.choice([-1, 1], (n, n))
        upper = np.triu_indices(n, 1)
        missing = rng.random(upper[0].size) < rng.uniform(0, 0.6)
        c = np.exp(x[upper])
        c[missing] = np.nan
        values = np.ones((n, n))
        values[upper] = c
        values[upper[::-1]] = 1.0 / c
        yield PCMatrix(values)


def outcome(method, p) -> str:
    """``weights`` and the weights as hex floats, or the error's type and message."""
    try:
        weights = method(p).weights
    except (ArithmeticError, ConvergenceError) as e:  # pcrank's numeric errors
        return f"{type(e).__name__}: {e}"
    return "weights " + " ".join(float(w).hex() for w in weights)


def search(seed: int, lo: float, hi: float, count: int) -> dict[str, dict[str, str]]:
    """Outcomes of the valid draws, by draw index and method."""
    found = {}
    for k, m in enumerate(draws(seed, lo, hi, count)):
        try:
            p = prepare(m)
        except InvalidMatrixError:
            continue
        found[str(k)] = {name: outcome(method, p) for name, method in METHODS.items()}
    return found


def summary(found: dict[str, dict[str, str]]) -> list[str]:
    lines = [f"  valid {len(found)}"]
    for name in METHODS:
        kinds: Counter = Counter()
        for result in found.values():
            got = result[name]
            if got.startswith("weights "):
                smallest = min(float.fromhex(w) for w in got.split()[1:])
                kinds["weights"] += 1
                kinds["with a subnormal entry"] += smallest < TINY
            else:
                kinds[got.split(":")[0]] += 1
        lines.append(f"  {name:<7}" + ", ".join(f"{kind} {k}" for kind, k in kinds.items()))
    return lines


def moved(found: dict[str, dict[str, str]], saved: dict[str, dict[str, str]]) -> list[str]:
    """One line per method on the weight vectors that moved only in their
    bits, then one per draw and method whose outcome differs otherwise, the
    draw's validity included."""
    bits: dict[str, list[tuple[float, float]]] = {name: [] for name in METHODS}
    lines = []
    for k in sorted(found.keys() | saved.keys(), key=int):
        for name in METHODS:
            was, now = (d.get(k, {}).get(name, "invalid") for d in (saved, found))
            if was == now:
                continue
            if was.startswith("weights ") and now.startswith("weights "):
                bits[name].append(_relative_change(was, now))
            else:
                lines.append(f"  draw {k} {name}: {_brief(was)} -> {_brief(now)}")
    summary = []
    for name, changes in bits.items():
        if changes:
            every, normal = (max(c[i] for c in changes) for i in (0, 1))
            summary.append(
                f"  {name:<7}{len(changes)} weight vectors moved only in their bits, by at most "
                f"{every:.2g} relative ({normal:.2g} over normal-range entries)"
            )
        else:
            summary.append(f"  {name:<7}no weight vector moved in its bits")
    return summary + (lines or ["  no other outcome moved"])


def _relative_change(was: str, now: str) -> tuple[float, float]:
    """The largest |new - old| / max(old, new) over two weight vectors'
    entries, and over the entries that are normal doubles in both."""
    old, new = (np.array([float.fromhex(w) for w in got.split()[1:]]) for got in (was, now))
    scale = np.maximum(old, new)
    change = np.abs(new - old) / np.where(scale > 0.0, scale, 1.0)
    normal = (old >= TINY) & (new >= TINY)
    return float(change.max()), float(change.max(where=normal, initial=0.0))


def _brief(got: str) -> str:
    """An outcome with its weights' range in place of their bits."""
    if not got.startswith("weights "):
        return got
    weights = [float.fromhex(w) for w in got.split()[1:]]
    return f"weights from {min(weights):.3g} to {max(weights):.3g}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--save", metavar="FILE", help="write every outcome to FILE as JSON")
    parser.add_argument("--against", metavar="FILE", help="list outcomes that differ from FILE's")
    args = parser.parse_args(argv)
    saved = None
    if args.against:
        with open(args.against) as fh:
            saved = json.load(fh)
    everything, differs = {}, False
    for seed, lo, hi, count in SEARCHES:
        name = f"default_rng({seed}) [{lo:g}, {hi:g}], {count} draws"
        found = everything[name] = search(seed, lo, hi, count)
        print(name)
        print("\n".join(summary(found)))
        if saved is not None:
            previous = saved.get(name, {})
            differs |= found != previous
            print("\n".join(moved(found, previous)))
    if args.save:
        with open(args.save, "w") as fh:
            json.dump(everything, fh)
    return int(differs)


if __name__ == "__main__":
    sys.exit(main())
