"""
The matrix file format and the command-line interface
=====================================================

Matrices live in plain text files: one row per line, comma-separated fields,
``?`` for a missing comparison, fractions or decimals for the ratios, and an
optional ``# labels:`` comment naming the alternatives.  The same operations
exposed by the library are available as ``pcrank`` subcommands with stable
exit codes (0 success, 1 invalid data, 2 unreadable/syntax), so they compose
in shell pipelines.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from pcrank import parse_matrix, serialize_matrix

TEXT = """\
# labels: espresso,filter,instant
1,    3/2, 4
2/3,  1,   5/2
1/4,  2/5, 1
"""

workdir = Path(tempfile.mkdtemp())
path = workdir / "coffee.pcm"
path.write_text(TEXT)

# Parsing and serializing are exact inverses: values round-trip bit for bit,
# labels and missing markers included.
matrix = parse_matrix(TEXT)
print("labels:", matrix.labels)
print("serialized again:\n" + serialize_matrix(matrix))
assert parse_matrix(serialize_matrix(matrix)).equals(matrix)


def run(*argv: str) -> subprocess.CompletedProcess:
    # python -m pcrank is the pcrank script, run by this interpreter.
    proc = subprocess.run([sys.executable, "-m", "pcrank", *argv], capture_output=True, text=True)
    print(f"$ pcrank {' '.join(argv)}   -> exit {proc.returncode}")
    print(proc.stdout or proc.stderr)
    return proc


run("validate", str(path))
run("rank", str(path))
run("compare", str(path))

# --format structured emits one JSON record with full-precision weights,
# made for scripting:
proc = run("rank", "--format", "structured", str(path))
record = json.loads(proc.stdout)
print("parsed back from JSON:", dict(zip(record["labels"], record["weights"])))

# Exit codes separate data problems (1) from file problems (2):
bad = workdir / "bad.pcm"
bad.write_text("1,2\n3,1\n")  # 2 and 3 are not reciprocal
run("validate", str(bad))
run("rank", str(workdir / "does-not-exist.pcm"))
