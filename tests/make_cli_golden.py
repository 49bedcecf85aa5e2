"""Writes ``data/cli_golden.json``, the corpus ``test_cli_golden.py`` checks.

Each seeded matrix is run through ``rank`` (all three methods), ``validate``,
``complete`` and ``compare``, in plain and structured format, plus a few runs
with ``--tol 0``, ``--normalize`` or ``--repair-reciprocal``.  Regenerate only
when the command line's output is meant to change:

    PYTHONPATH=src python tests/make_cli_golden.py

With ``--diff`` it writes nothing and lists each run whose exit code, stdout
or stderr differs from the corpus, byte for byte, with the largest absolute
and relative change among the run's numbers, or a note that more than its
numbers changed.  It exits 1 when any run differs and prints "no run
differs" and exits 0 otherwise:

    PYTHONPATH=src python tests/make_cli_golden.py --diff
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

import numpy as np

from helpers import run_cli

GOLDEN = Path(__file__).with_name("data") / "cli_golden.json"
SAATY = [1, 2, 3, 4, 5, 6, 7, 8, 9]


def _saaty_pair(rng) -> tuple[str, str]:
    k = int(rng.choice(SAATY))
    return (str(k), f"1/{k}") if rng.random() < 0.5 else (f"1/{k}", str(k))


def _decimal_pair(rng) -> tuple[str, str]:
    c = float(np.exp(rng.uniform(-np.log(9), np.log(9))))
    return f"{c:.12g}", f"{1 / c:.12g}"


def _spanning_pairs(n: int, rng) -> set[tuple[int, int]]:
    """Edges of a random spanning tree, so the graph stays connected."""
    order = rng.permutation(n).tolist()
    return {tuple(sorted((order[k], order[int(rng.integers(0, k))]))) for k in range(1, n)}


def _grid(n: int, rng, missing: float, pair) -> list[list[str]]:
    grid = [["1" if i == j else "?" for j in range(n)] for i in range(n)]
    keep = _spanning_pairs(n, rng)
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) in keep or rng.random() >= missing:
                grid[i][j], grid[j][i] = pair(rng)
    return grid


def _consistent_grid(n: int, rng, missing: float) -> list[list[str]]:
    """c[i,j] = v_i / v_j for small integer v with repeats, so rankings tie."""
    v = rng.integers(1, 4, size=n).tolist()
    grid = _grid(n, rng, missing, lambda _: ("", ""))
    for i in range(n):
        for j in range(n):
            if i != j and grid[i][j] != "?":
                grid[i][j] = f"{v[i]}/{v[j]}"
    return grid


def _text(grid: list[list[str]], labels: list[str] | None = None) -> str:
    head = f"# labels: {','.join(labels)}\n" if labels else ""
    return head + "".join(",".join(row) + "\n" for row in grid)


def _corpus() -> list[tuple[str, str, list[list[str]]]]:
    rng = np.random.default_rng(20261017)
    extra_tol = [["--tol", "0"]]
    norms = [[["--normalize", "none"]], [["--normalize", "max"]]]
    extra_repair = [["--repair-reciprocal"]]
    entries = []
    for k in range(10):
        n = 2 + k
        missing = [0.0, 0.3, 0.6][k % 3]
        text = _text(_grid(n, rng, missing, _saaty_pair))
        entries.append((f"saaty-n{n}", text, norms[k % 2]))
    for k in range(6):
        n = 2 + 2 * k
        text = _text(_grid(n, rng, 0.4, _decimal_pair))
        entries.append((f"decimal-n{n}", text, extra_tol))
    for k in range(6):
        n = 2 + 2 * k
        text = _text(_consistent_grid(n, rng, 0.5 if k % 2 else 0.0))
        entries.append((f"ties-n{n}", text, norms[k % 2]))
    for k in range(5):
        n = 3 + 2 * k
        grid = _grid(n, rng, 0.3, _saaty_pair)
        present = [(i, j) for i in range(n) for j in range(n) if i != j and grid[i][j] != "?"]
        for idx in rng.choice(len(present), size=1 + k // 2, replace=False):
            i, j = present[idx]
            grid[i][j] = "?"
        entries.append((f"one-sided-n{n}", _text(grid), extra_repair))
    for k in range(3):
        n = 4 + 3 * k
        labels = [f"opt{i}" for i in range(n)]
        text = _text(_grid(n, rng, 0.5, _saaty_pair), labels)
        entries.append((f"labelled-n{n}", text, norms[k % 2]))

    bad = _grid(5, rng, 0.2, _saaty_pair)
    bad[0][1] = "7" if bad[0][1] != "7" else "5"
    entries.append(("non-reciprocal-n5", _text(bad), extra_tol))
    bad = _grid(4, rng, 0.0, _saaty_pair)
    bad[2][2] = "2"
    entries.append(("diagonal-n4", _text(bad), []))
    two = _grid(6, rng, 0.0, _saaty_pair)
    for i in range(6):
        for j in range(6):
            if (i < 3) != (j < 3):
                two[i][j] = "?"
    entries.append(("disconnected-n6", _text(two), []))
    lone = _grid(5, rng, 0.0, _saaty_pair)
    for j in range(5):
        if j != 3:
            lone[3][j] = lone[j][3] = "?"
    entries.append(("row-all-missing-n5", _text(lone), []))
    mixed = _grid(7, rng, 0.3, _decimal_pair)
    mixed[1][1] = "0.5"
    mixed[0][2], mixed[5][6] = "?", "3"
    entries.append(("several-defects-n7", _text(mixed), extra_repair + extra_tol))
    entries.append(("tolerance-n2", "1,0.3333333333\n3,1\n", extra_tol))
    entries.append(("single-pair-n2", "1,4\n1/4,1\n", norms[0]))
    entries.append(("tree-n8", _text(_grid(8, rng, 1.0, _saaty_pair)), norms[1]))
    entries.append(("example4", "1,?,?,2\n?,1,3,?\n?,1/3,1,2\n1/2,?,1/2,1\n", norms[0]))
    return entries


COMMANDS = [["rank", "--method", m] for m in ("gm", "lls", "harker")] + [
    ["validate"],
    ["complete"],
    ["compare"],
]


def _runs(text: str, extras: list[list[str]]) -> list[dict]:
    runs = []
    for command in COMMANDS:
        variants = [[], ["--format", "structured"]]
        normalizes = command[0] in ("rank", "compare")
        variants += [x for x in extras if x[0] != "--normalize" or normalizes]
        for variant in variants:
            argv = [*command, *variant]
            runs.append({"argv": argv, **run_cli(argv, text)})
    return runs


def write_golden() -> None:
    corpus = [
        {"name": name, "text": text, "runs": _runs(text, extras)}
        for name, text, extras in _corpus()
    ]
    GOLDEN.parent.mkdir(exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(corpus, fh, indent=1)
        fh.write("\n")


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
_SEPARATORS = re.compile(r"([,\s]+)")


def _split_numbers(text: str, structured: bool) -> tuple[object, list[float]]:
    """The output with its numbers blanked out, and the numbers in order: a
    structured output's JSON floats, or a plain output's comma- or
    space-separated numeric tokens.  A plain output's runs of blanks count
    as one, since column padding follows the width of the numbers."""
    numbers: list[float] = []
    if not structured:
        pieces = _SEPARATORS.split(text)
        for k, piece in enumerate(pieces):
            if _NUMBER.fullmatch(piece):
                numbers.append(float(piece))
                pieces[k] = "#"
            elif k % 2:
                pieces[k] = re.sub(r"[^\S\n]+", " ", piece)
        return pieces, numbers

    def blank(x):
        if isinstance(x, float):
            numbers.append(x)
            return None
        if isinstance(x, dict):
            return {key: blank(value) for key, value in x.items()}
        if isinstance(x, list):
            return [blank(value) for value in x]
        return x

    return blank(json.loads(text)), numbers


def largest_change(want: dict, got: dict, structured: bool) -> str:
    """How far run output ``got`` is from ``want``: the largest absolute and
    relative change among their numbers, when nothing else differs."""
    if got["exit"] != want["exit"]:
        return "exit code differs"
    pairs = []
    for key in ("stdout", "stderr"):
        as_json = structured and key == "stdout" and bool(want[key]) and bool(got[key])
        (shape_w, w), (shape_g, g) = (_split_numbers(r[key], as_json) for r in (want, got))
        if shape_w != shape_g or len(w) != len(g):
            return "more than the numbers differs"
        pairs += zip(w, g)
    absolute = relative = (0.0, 0.0)  # (change, the value it changed)
    for w, g in pairs:
        if w != g:
            change = abs(g - w)
            absolute = max(absolute, (change, w))
            relative = max(relative, (change / max(abs(w), abs(g)), w))
    return (
        f"largest change {absolute[0]:.3g} absolute (of {absolute[1]:.6g}), "
        f"{relative[0]:.3g} relative (of {relative[1]:.6g})"
    )


def diff_golden() -> list[str]:
    """One line per corpus run whose output differs now, naming what differs
    and how far its numbers moved."""
    with open(GOLDEN, encoding="utf-8") as fh:
        corpus = json.load(fh)
    changed = []
    for entry in corpus:
        for run in entry["runs"]:
            got = run_cli(run["argv"], entry["text"])
            fields = [key for key in ("exit", "stdout", "stderr") if got[key] != run[key]]
            if fields:
                size = largest_change(run, got, "structured" in run["argv"])
                argv = " ".join(run["argv"])
                changed.append(f"{entry['name']}: {argv} ({', '.join(fields)}): {size}")
    return changed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Write or check the golden CLI corpus.")
    parser.add_argument(
        "--diff", action="store_true", help="write nothing; list the runs that differ"
    )
    if not parser.parse_args(argv).diff:
        write_golden()
        return 0
    changed = diff_golden()
    print("\n".join(changed) or "no run differs")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
