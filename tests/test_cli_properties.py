"""A property test of the command-line loaders on mutated input files.

Each example writes a valid vector or phases file (JSON or CSV, n <= 2),
mutates it, and runs ``main`` on it: ``prepare`` with ``--fast-path``, so no
case allocates a large state, or ``synth-diag``.  Nothing may escape
``main``, the exit code is 0, 1 or 2, and an exit 1 prints one line that
names the file.  Derandomized, so every run draws the same examples.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from qprep.cli import main

# One number of a serialized file: the tokens the replacements below aim at.
_NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")

_REPLACEMENTS = st.one_of(
    st.sampled_from([401, 5000]).map(lambda digits: b"9" * digits),  # huge integers
    st.sampled_from([3, 100_000]).map(lambda depth: b"[" * depth + b"]" * depth),
    st.sampled_from([b'"1"', b"true", b"null", b"{}", b"[]", b"1.5", b"-1", b"x"]),
)


def _serialize(kind: str, fmt: str, n: int, rows: list[tuple]) -> bytes:
    """``rows`` are (index, *values); JSON keeps their order and drops the
    index, CSV writes it."""
    if fmt == "csv":
        header = "index,magnitude,phase\n" if kind == "vector" else ""
        return (header + "".join(",".join(map(repr, row)) + "\n" for row in rows)).encode()
    if kind == "vector":
        payload = {"n": n, "entries": [{"magnitude": m, "phase": p} for _, m, p in rows]}
    else:
        payload = {"n": n, "phases": [p for _, p in rows]}
    return json.dumps(payload).encode()


@st.composite
def mutated_inputs(draw):
    kind = draw(st.sampled_from(["vector", "phases"]))
    fmt = draw(st.sampled_from(["json", "csv"]))
    n = draw(st.integers(1, 2))
    phase = st.floats(0.0, 6.28)
    value = st.tuples(st.floats(0.0, 2.0), phase) if kind == "vector" else st.tuples(phase)
    rows = [(index, *draw(value)) for index in range(1 << n)]
    rows = draw(st.permutations(rows)) if fmt == "csv" else rows
    # Repeated or missing indices.
    edit = draw(st.sampled_from(["none", "drop", "repeat", "reindex"]))
    where = draw(st.integers(0, len(rows) - 1))
    if edit == "drop":
        rows = rows[:where] + rows[where + 1:]
    elif edit == "repeat":
        rows = rows + [rows[where]]
    elif edit == "reindex":
        rows[where] = (rows[(where + 1) % len(rows)][0], *rows[where][1:])
    data = _serialize(kind, fmt, n, rows)
    for mutation in draw(st.lists(st.sampled_from(
            ["bom", "truncate", "flip", "nul", "replace"]), max_size=2)):
        at = draw(st.integers(0, len(data)))
        if mutation == "bom":
            data = b"\xef\xbb\xbf" + data
        elif mutation == "truncate":
            data = data[:at]
        elif mutation == "flip" and data:
            at = min(at, len(data) - 1)
            data = data[:at] + bytes([data[at] ^ (1 << draw(st.integers(0, 7)))]) + data[at + 1:]
        elif mutation == "nul":
            data = data[:at] + b"\x00" + data[at:]
        elif mutation == "replace":
            numbers = list(_NUMBER.finditer(data))
            if numbers:
                token = numbers[draw(st.integers(0, len(numbers) - 1))]
                data = data[:token.start()] + draw(_REPLACEMENTS) + data[token.end():]
    if kind == "vector":
        options = ["--mode", draw(st.sampled_from(["det", "prob"])), "--epsilon", "0.1",
                   "--fast-path", "--report", "report.json"]
    else:
        options = ["--m", str(draw(st.integers(1, 4)))]
    return kind, fmt, data, options


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(mutated_inputs())
def test_main_on_mutated_inputs_exits_cleanly_naming_the_file(case):
    kind, fmt, data, options = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"input.{fmt}"
        path.write_bytes(data)
        options = [str(Path(tmp) / o) if o == "report.json" else o for o in options]
        command = "prepare" if kind == "vector" else "synth-diag"
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, str(path), *options])
    assert code in (0, 1, 2)
    if code == 1:
        message = err.getvalue()
        assert str(path) in message, message
        assert message.count("\n") == 1, message
