#!/usr/bin/env python3
"""Byte-compare qprep's command-line outputs between two checkouts.

    python3 tools/same_outputs.py OTHER_CHECKOUT

Runs one fixed set of ``qprep`` commands twice: against the sources of the
checkout this script lives in and against those of OTHER_CHECKOUT (each run
imports ``qprep`` from its checkout's ``src``).  Every command runs in a
fresh working directory of its own, on inputs written once and shared by
both runs.  The exit code, stdout, stderr and every file the command writes
must be byte-identical; each mismatch is printed, and the script exits 1 if
there is any, 0 otherwise.  When both sides of a mismatch parse as one JSON
document, as JSON lines or as CSV, and every value but the floats is the
same, its line also gives the largest absolute difference of the floats.
Standard library only.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
TAU = 2.0 * math.pi


def _write_inputs(root: Path) -> dict[str, str]:
    """The shared input files, by name: seeded vectors and phase lists."""
    rng = random.Random(20190601)
    paths = {}

    def vector(name, n, complex_phases=True, zeros=0.0):
        magnitudes = [abs(rng.gauss(0.0, 1.0)) for _ in range(1 << n)]
        for index in range(1, 1 << n):
            if rng.random() < zeros:
                magnitudes[index] = 0.0
        phases = [rng.uniform(0.0, 6.28) if complex_phases and m else 0.0
                  for m in magnitudes]
        path = root / name
        if name.endswith(".csv"):
            path.write_text("index,magnitude,phase\n" + "".join(
                f"{i},{m!r},{p!r}\n" for i, (m, p) in enumerate(zip(magnitudes, phases))))
        else:
            path.write_text(json.dumps({"n": n, "entries": [
                {"magnitude": m, "phase": p} for m, p in zip(magnitudes, phases)]}))
        paths[name] = str(path)

    def phases(name, n, support=None):
        values = [rng.uniform(0.0, 6.28) if support is None or i in support else 0.0
                  for i in range(1 << n)]
        path = root / name
        if name.endswith(".csv"):
            path.write_text("".join(f"{i},{v!r}\n" for i, v in reversed(list(enumerate(values)))))
        else:
            path.write_text(json.dumps({"n": n, "phases": values}))
        paths[name] = str(path)

    vector("real2.json", 2, complex_phases=False)
    vector("complex3.json", 3)
    vector("zeros4.json", 4, zeros=0.4)
    vector("complex2.csv", 2)
    phases("p2.json", 2)
    phases("p3.csv", 3)
    phases("p6.json", 6)
    phases("sparse5.json", 5, support={1, 7, 18, 30})
    phases("p8.json", 8)
    phases("sparse8.json", 8, support={0, 37, 128, 200, 255})
    vector("one1.json", 1)
    vector("half10.json", 10, zeros=0.5)
    bad = {
        "negative.json": '{"n": 1, "entries": [{"magnitude": 1.0, "phase": 0.0},'
                         ' {"magnitude": -2.0, "phase": 0.0}]}',
        "nan.json": '{"n": 1, "entries": [{"magnitude": 1.0, "phase": 0.0},'
                    ' {"magnitude": NaN, "phase": 0.0}]}',
        "invalid.json": '{"n": 1, "entries": [{"magnitude": 1.0, "phase": 0.0},]}',
        "count.json": '{"n": 2, "entries": [{"magnitude": 1.0, "phase": 0.0}]}',
        "phase.json": '{"n": 1, "entries": [{"magnitude": 1.0, "phase": 7.0},'
                      ' {"magnitude": 1.0, "phase": 0.0}]}',
        "duplicate.csv": "0,0.1\n0,0.2\n",
        "range.csv": "0,0.1\n5,0.2\n",
        "index.csv": "index,phase\n0,0.1\nx,0.2\n",
        "first-row.csv": ",0.5,0.1\n0,1.0,0.0\n1,0.5,0.0\n2,0.25,0.0\n3,0.125,0.0\n",
        "first-row-phases.csv": ",0.9\n0,0.1\n1,0.2\n",
    }
    for name, text in bad.items():
        (root / name).write_text(text)
        paths[name] = str(root / name)
    loader = {
        "bom.json": b"\xef\xbb\xbf" + (root / "real2.json").read_bytes(),
        "latin1.csv": b"index,magnitude,phase\n0,1.0,0.0\n1,0.5,0.0 caf\xe9\n",
        "deep.json": b'{"n": 1, "entries": [' + b"[" * 100_000 + b"]" * 100_000 + b"]}",
        "huge.json": b'{"n": 1, "entries": [{"magnitude": 1.0, "phase": 0.0}, '
                     b'{"magnitude": ' + b"9" * 401 + b', "phase": 0.0}]}',
        "range-phase.json": b'{"n": 1, "phases": [-3.0, 0.5]}',
        "long-string.json": b'{"n": 1, "phases": [0.5, "' + b"x" * 100_000 + b'"]}',
        "long-cell.csv": b"0,0.5\n1," + b"x" * 100_000 + b"\n",
        "long-index.csv": b"0,0.5\n" + b"x" * 100_000 + b",0.2\n",
        "long-row.csv": b"0,0.5\n1,0.2" + b",0" * 50_000 + b"\n",
        "long-phase.json": b'{"n": 1, "phases": [' + b"9" * 5000 + b', 0.5]}',
        "long-n.json": b'{"n": ' + b"9" * 5000 + b', "phases": [0.5, 1.0]}',
        "long-integer-index.csv": b"0,0.5\n" + b"9" * 5000 + b",0.2\n",
        "long-n-within-limit.json": b'{"n": ' + b"9" * 4000 + b', "phases": [0.5, 1.0]}',
    }
    for name, data in loader.items():
        (root / name).write_bytes(data)
        paths[name] = str(root / name)
    return paths


def commands(inputs: dict[str, str]) -> list[list[str]]:
    """The argv lists (after ``qprep``) both checkouts run."""
    runs = []
    out = ["--report", "report.json", "--emit", "gates.txt"]
    for name in ("real2.json", "complex3.json", "zeros4.json", "complex2.csv"):
        for mode in ("det", "prob"):
            for path in ("--fast-path", "--full-circuit"):
                runs.append(["prepare", inputs[name], "--mode", mode,
                             "--epsilon", "0.1", path, *out])
    for mode in ("det", "prob"):
        for path in ("--fast-path", "--full-circuit"):
            vector = inputs["complex3.json"]
            runs.append(["prepare", vector, "--mode", mode, "--t", "7",
                         "--t-prime", "5", path, *out])
            runs.append(["prepare", vector, "--mode", mode, "--epsilon", "0.5",
                         "--sample", "--seed", "7", path, *out])
            runs.append(["prepare", inputs["real2.json"], "--mode", mode,
                         "--epsilon", "0.3", path])
    for multiplier in ("1", "4"):
        runs.append(["prepare", inputs["real2.json"], "--mode", "det", "--epsilon",
                     "0.2", "--multiplier", multiplier, *out])
    runs.append(["prepare", inputs["zeros4.json"], "--mode", "prob", "--fast-path",
                 "--t", "5", "--t-prime", "70", *out])
    # One data qubit: the full simulation starts from the empty state, and
    # det mode runs no estimation round.
    runs.append(["prepare", inputs["one1.json"], "--mode", "prob", "--epsilon", "0.1",
                 "--full-circuit", *out])
    runs.append(["prepare", inputs["one1.json"], "--mode", "det", "--t", "5",
                 "--t-prime", "4", "--full-circuit", *out])
    # So det --epsilon on one qubit gives t = 1, and the bounds suite runs
    # from --n 1.  Checkouts from before this change refuse both.
    runs.append(["prepare", inputs["one1.json"], "--mode", "det", "--epsilon", "0.1"])
    runs.append(["verify", "--suite", "bounds", "--n", "1"])
    # RY and DIAG angles finer than level 32, written without p= m=, and a
    # 34-qubit QFT expansion.
    for mode in ("det", "prob"):
        runs.append(["prepare", inputs["complex3.json"], "--mode", mode, "--fast-path",
                     "--t", "34", "--t-prime", "4", *out])
    for name, m in (("p2.json", "1"), ("p3.csv", "3"), ("p6.json", "10"),
                    ("p6.json", "70"), ("sparse5.json", "6")):
        runs.append(["synth-diag", inputs[name], "--m", m])
        runs.append(["synth-diag", inputs[name], "--m", m, "--emit", "gates.txt"])
        runs.append(["synth-diag", inputs[name], "--m", m, "--sparse", "--emit", "gates.txt"])
    # A 256-entry peel at level 70, and a sparse support holding the indices
    # that flip every qubit and none.
    runs.append(["synth-diag", inputs["p8.json"], "--m", "70", "--emit", "gates.txt"])
    runs.append(["synth-diag", inputs["sparse8.json"], "--m", "12", "--sparse",
                 "--emit", "gates.txt"])
    for suite, n, trials in (("synth", "3", "5"), ("synth", "4", "3"),
                             ("dualpath", "2", "2"), ("bounds", "2", "1"),
                             ("bounds", "3", "1")):
        for rows in ("rows.jsonl", "rows.csv"):
            runs.append(["verify", "--suite", suite, "--n", n, "--trials", trials,
                         "--seed", "5", "--out", rows])
    runs.append(["verify", "--suite", "synth", "--n", "2", "--trials", "2"])
    # Errors whose exit code and message this round leaves as they were.
    for name in ("negative.json", "nan.json", "invalid.json", "count.json",
                 "phase.json", "missing.json"):
        runs.append(["prepare", inputs.get(name, name), "--mode", "det", "--epsilon", "0.1"])
    for name in ("duplicate.csv", "range.csv", "index.csv"):
        runs.append(["synth-diag", inputs[name], "--m", "2"])
    vector = inputs["real2.json"]
    runs += [
        ["prepare", vector, "--mode", "det"],
        ["prepare", vector, "--mode", "det", "--epsilon", "0.1", "--t", "6", "--t-prime", "4"],
        ["prepare", vector, "--mode", "nope", "--epsilon", "0.1"],
        ["prepare", vector, "--mode", "det", "--epsilon", "1.5"],
        ["prepare", vector, "--mode", "det", "--t", "0", "--t-prime", "4"],
        ["prepare", vector, "--mode", "prob", "--epsilon", "1e-9"],
        ["synth-diag", inputs["p2.json"], "--m", "0"],
        ["verify", "--suite", "nope"],
        # Refusals before any work: memory, one file named twice (both
        # names in the command's own working directory), and bad verify
        # arguments.
        ["prepare", vector, "--mode", "prob", "--t", "40", "--t-prime", "4"],
        ["prepare", vector, "--mode", "det", "--epsilon", "0.1",
         "--report", "report.json", "--emit", "report.json"],
        ["verify", "--suite", "synth", "--trials", "-1"],
        ["verify", "--suite", "bounds", "--n", "31", "--trials", "0"],
        ["verify", "--suite", "synth", "--n", "40"],
        # A first CSV row that holds a number is data, not a header to drop,
        # and a negative --seed is a usage error naming the flag.  Checkouts
        # from before these refusals differ here: they exit 0, or print
        # numpy's message.
        ["prepare", inputs["first-row.csv"], "--mode", "det", "--epsilon", "0.3",
         "--fast-path"],
        ["synth-diag", inputs["first-row-phases.csv"], "--m", "2"],
        ["verify", "--suite", "synth", "--n", "2", "--trials", "1", "--seed", "-1"],
        ["prepare", vector, "--mode", "det", "--epsilon", "0.1", "--seed", "-5"],
        # JSON read as UTF-8 after an optional byte-order mark, and loader
        # refusals that name the file: undecodable bytes, deep nesting, an
        # integer past the largest float, and a phase outside [0, 2*pi).
        # Checkouts from before these refusals differ here: they refuse the
        # BOM, print tracebacks, or print messages that name no file.
        ["prepare", inputs["bom.json"], "--mode", "prob", "--epsilon", "0.1", *out],
        ["prepare", inputs["latin1.csv"], "--mode", "det", "--epsilon", "0.1",
         "--fast-path"],
        ["prepare", inputs["deep.json"], "--mode", "det", "--epsilon", "0.1"],
        ["prepare", inputs["huge.json"], "--mode", "det", "--epsilon", "0.1"],
        ["synth-diag", inputs["range-phase.json"], "--m", "2"],
    ]
    # Refusals that quote a bad value or row only up to a fixed prefix, and
    # JSON integers past the digits int() reads from text.  Checkouts from
    # before these refusals differ here: they quote the whole value, or name
    # no entry.
    runs += [["synth-diag", inputs[name], "--m", "2"] for name in (
        "long-string.json", "long-cell.csv", "long-index.csv", "long-row.csv",
        "long-phase.json", "long-n.json")]
    # An integer CSV index past those digits is outside the index range, and
    # an n within them is quoted only up to the same prefix.  Checkouts from
    # before differ here: they call the index not an integer, or print the
    # whole n.
    runs += [["synth-diag", inputs[name], "--m", "2"] for name in (
        "long-integer-index.csv", "long-n-within-limit.json")]
    # A width refusal names the flags that set the width, then the library's
    # reason.  Checkouts from before differ here: they name only the
    # library's parameter.
    runs += [
        ["prepare", vector, "--mode", "det", "--t", "64", "--t-prime", "3"],
        ["prepare", vector, "--mode", "det", "--t", "3", "--t-prime", "1022"],
        ["prepare", vector, "--mode", "det", "--epsilon", "1e-300"],
        ["prepare", vector, "--mode", "prob", "--epsilon", "0.1", "--multiplier", "2"],
        ["synth-diag", inputs["p2.json"], "--m", "2000"],
    ]
    # Gate lists of the size the benchmark writes: n = 10, about half the
    # magnitudes zero.
    for mode in ("det", "prob"):
        runs.append(["prepare", inputs["half10.json"], "--mode", mode, "--fast-path",
                     "--epsilon", "0.1", *out])
    # det --multiplier 4 on vectors with zero left children, whose angle
    # pi/2 wraps onto the top grid cell.  Checkouts from before this change
    # refuse them.
    runs.append(["prepare", inputs["zeros4.json"], "--mode", "det", "--multiplier", "4",
                 "--epsilon", "0.1", "--full-circuit", *out])
    runs.append(["prepare", inputs["half10.json"], "--mode", "det", "--multiplier", "4",
                 "--epsilon", "0.1", "--fast-path", *out])
    # An epsilon one ulp below pi/8 on two qubits: half of it is just below
    # pi/16, the phase bound at t' = 7 and the prob bound at t = 8, so the
    # least widths that fit it are t' = 8 and prob t = 9.  Checkouts from
    # before differ here: their logarithms give t' = 7 and prob t = 8.
    for mode in ("det", "prob"):
        runs.append(["prepare", inputs["complex2.csv"], "--mode", mode, "--epsilon",
                     "0.3926990816987241", "--fast-path", *out])
    return runs


def parsed(data: bytes | None):
    """``data`` as one JSON document, else as JSON lines, else as CSV rows
    whose cells are read as JSON where they can be; None if it is not text."""
    try:
        text = data.decode("utf-8")
    except (AttributeError, UnicodeDecodeError):
        return None
    try:
        return json.loads(text)
    except ValueError:
        pass
    try:
        return [json.loads(line) for line in text.splitlines()]
    except ValueError:
        pass
    rows = []
    for row in csv.reader(io.StringIO(text, newline="")):
        cells = []
        for cell in row:
            try:
                cells.append(json.loads(cell))
            except ValueError:
                cells.append(cell)
        rows.append(cells)
    return rows


def float_gap(a, b) -> float | None:
    """The largest |x - y| over the floats at one place in two parsed
    outputs, or None unless they have one shape and equal other values."""
    if isinstance(a, float) and isinstance(b, float):
        return 0.0 if a == b else abs(a - b)
    if type(a) is not type(b):
        return None
    if isinstance(a, dict):
        if a.keys() != b.keys():
            return None
        a, b = list(a.values()), list(b.values())
    if isinstance(a, list):
        if len(a) != len(b):
            return None
        gaps = [float_gap(x, y) for x, y in zip(a, b)]
        return None if None in gaps else max(gaps, default=0.0)
    return 0.0 if a == b else None


def run(checkout: Path, argv: list[str], workdir: Path) -> dict[str, bytes]:
    """Everything one command leaves behind, by name."""
    workdir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, "-m", "qprep.cli", *argv], cwd=workdir,
                          env=env, capture_output=True, timeout=600)
    record = {"exit code": str(proc.returncode).encode(),
              "stdout": proc.stdout, "stderr": proc.stderr}
    for path in sorted(workdir.rglob("*")):
        if path.is_file():
            record[f"file {path.relative_to(workdir)}"] = path.read_bytes()
    return record


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not (Path(argv[0]) / "src" / "qprep").is_dir():
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        print("OTHER_CHECKOUT must hold src/qprep", file=sys.stderr)
        return 2
    other = Path(argv[0]).resolve()
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        root = Path(tmp)
        (root / "inputs").mkdir()
        runs = commands(_write_inputs(root / "inputs"))
        mismatches = 0
        for index, command in enumerate(runs):
            mine = run(HERE, command, root / "here" / str(index))
            theirs = run(other, command, root / "other" / str(index))
            for key in sorted(set(mine) | set(theirs)):
                if mine.get(key) != theirs.get(key):
                    mismatches += 1
                    gap = float_gap(parsed(mine.get(key)), parsed(theirs.get(key)))
                    floats = "" if gap is None else f" (largest float difference {gap:.3g})"
                    print(f"MISMATCH {key}: qprep {' '.join(command)}{floats}")
        print(f"{len(runs)} commands, {mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
