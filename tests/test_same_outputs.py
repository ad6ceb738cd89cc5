"""The output comparer in tools/same_outputs.py: the float difference it
prints beside a mismatch."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "same_outputs", Path(__file__).resolve().parent.parent / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_outputs)


def _gap(mine: bytes, theirs: bytes):
    return same_outputs.float_gap(same_outputs.parsed(mine), same_outputs.parsed(theirs))


def test_float_gap_of_json_json_lines_and_csv():
    assert _gap(b'{"a": [0.5, 2], "ok": true}', b'{"a": [0.75, 2], "ok": true}') == 0.25
    assert _gap(b'{"d": 1.5}\n{"d": 1.0}\n', b'{"d": 1.5}\n{"d": 1.125}\n') == 0.125
    assert _gap(b'seed,d,counts\n1,0.5,"{""1,1"": 3}"\n',
                b'seed,d,counts\n1,0.25,"{""1,1"": 3}"\n') == 0.25


def test_no_float_gap_when_anything_but_a_float_differs():
    assert _gap(b'{"a": 0.5, "ok": true}', b'{"a": 0.75, "ok": false}') is None
    assert _gap(b'{"count": 3}', b'{"count": 4}') is None
    assert _gap(b'{"a": 0.5}', b'{"b": 0.5}') is None
    assert _gap(b'[0.5, 1.0]', b'[0.5]') is None
    assert _gap(b'1,0.5\n', b'2,0.5\n') is None
    assert _gap(b"suite bounds: 7/7 cells satisfied\n",
                b"suite bounds: 6/7 cells satisfied\n") is None
    assert _gap(b"\xff", b"0.5") is None
    assert _gap(None, b"0.5") is None
