"""Command-line entry point: prepare vectors, synthesize diagonals, verify bounds.

Exit codes: 0 on success/bound satisfaction, 1 on usage or input errors,
2 on bound violation, reconstruction mismatch, or unsatisfied verify cells.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import itertools
import json
import math
import os
import re
import sys

import numpy as np

from . import analysis
from .dyadic import TAU, PhaseSpec, quantize
from .gateformat import save_circuit, written_gate_count
from .prepare import (
    ANGLE_MULTIPLIERS,
    DETERMINISTIC,
    PROBABILISTIC,
    LeakageError,
    PrecisionConfig,
    RegisterMap,
    TargetVector,
    fast_path_prepare,
    memory_shortfall,
    required_precision,
)
from .sim import Circuit
from .synth import count_gate_list, peel_synthesize, reconstruct, sparse_synthesize

_MODES = {"det": DETERMINISTIC, "prob": PROBABILISTIC}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise UsageError(message)


@contextlib.contextmanager
def _refused_as(flags: str):
    """A library refusal of what ``flags`` set, as a usage error naming them."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(f"{flags}: {exc}") from None


def _clip(text: str, limit: int = 60) -> str:
    return text if len(text) <= limit else text[:limit] + "..."


class _LongInteger(str):
    """A JSON integer too long for ``int`` to read, clipped: past any float."""

    def __float__(self) -> float:
        raise OverflowError


def _json_int(digits: str) -> int | _LongInteger:
    try:
        return int(digits)
    except ValueError:  # past the digit limit
        return _LongInteger(_clip(digits))


def _number(where: str, name: str, value) -> float:
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{where}: {name} {_clip(repr(value))} is not a number") from None
    except OverflowError:  # an integer past the largest float
        raise ValueError(f"{where}: {name} is an integer too large for a float") from None
    if not math.isfinite(number):
        raise ValueError(f"{where}: {name} {number!r} is not finite")
    return number


# An integer literal as int() reads it from text.
_INTEGER = re.compile(r"\s*([+-]?)(\d+(?:_\d+)*)\s*")


def _csv_index(where: str, cell: str, size: int) -> int:
    """The index in a CSV row's first cell, refused unless it is an integer
    in [0, size).  One past the digits ``int`` reads from text is larger
    than any index, unless only its leading zeros make it that long."""
    try:
        index = int(cell)
    except ValueError:
        literal = _INTEGER.fullmatch(cell)
        if literal is None:
            raise ValueError(f"{where}: index {_clip(repr(cell))} is not an integer") from None
        sign, digits = literal.group(1), literal.group(2).replace("_", "").lstrip("0")
        long = len(digits) > sys.get_int_max_str_digits()
        index = None if long else int(sign + (digits or "0"))
    if index is None or not 0 <= index < size:
        shown = cell.strip() if index is None else str(index)
        raise ValueError(f"{where}: index {_clip(shown)} outside [0, {size})")
    return index


def _reads_as_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _load_table(path: str, key: str, fields: tuple[str, ...], values) -> np.ndarray:
    """One column of finite numbers per name in ``fields``, one row per basis
    index, read from JSON {"n", key} (``values`` unpacks each entry; n must be
    a JSON integer and every value a JSON number) or from CSV rows
    index,<fields> in any order under an optional header, whose cells are
    parsed as text.  Either is UTF-8, optionally after the byte-order mark
    spreadsheet programs write.  The first CSV row is the header only if none
    of its cells reads as a number, so a data row is never dropped.  Every
    error names the file and, where known, the entry or row at fault.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:  # its object is the input past any mark
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}: line {line}: byte {exc.object[exc.start]:#04x} "
                         f"is not UTF-8") from None
    if str(path).endswith(".csv"):
        reader = csv.reader(io.StringIO(text, newline=""))
        try:
            rows = [(reader.line_num, row) for row in reader if row]
        except csv.Error as exc:  # e.g. a field past csv.field_size_limit()
            raise ValueError(f"{path}: row {reader.line_num}: {exc}") from None
        if rows and not any(map(_reads_as_number, rows[0][1])):
            rows = rows[1:]  # header row
        size = len(rows)
        if size < 2 or size & (size - 1):
            raise ValueError(f"{path}: row count {size} is not a power of two >= 2")
        cells = [None] * size
        for line, row in rows:
            where = f"{path}: row {line}"
            if len(row) != 1 + len(fields):
                raise ValueError(f"{where}: {_clip(repr(row))} needs index,{','.join(fields)}")
            index = _csv_index(where, row[0], size)
            if cells[index] is not None:
                raise ValueError(f"{where}: index {index} repeated")
            cells[index] = (where, row[1:])
    else:
        try:
            raw = json.loads(text, parse_int=_json_int)
            n = raw["n"]
            cells = [(f"{path}: entry {index}", values(entry))
                     for index, entry in enumerate(raw[key])]
        # json raises RecursionError on arrays or objects nested too deeply.
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise ValueError(f"malformed file {path}: {exc}") from exc
        if isinstance(n, bool) or not isinstance(n, (int, _LongInteger)):
            raise ValueError(f"{path}: n {_clip(json.dumps(n))} is not an integer")
        size = len(cells)
        if isinstance(n, _LongInteger) or n < 1 or size.bit_length() != n + 1 or size & (size - 1):
            raise ValueError(f"{path}: expected 2^n >= 2 entries for n={_clip(str(n))}, "
                             f"got {size}")
        # float() would read true as 1 and "0" as 0; only JSON numbers, _LongInteger too, count.
        for where, row in cells:
            for name, value in zip(fields, row):
                if isinstance(value, bool) or type(value) is str:
                    raise ValueError(f"{where}: {name} {_clip(json.dumps(value))} "
                                     f"is not a number")
    return np.array([[_number(where, name, value) for name, value in zip(fields, row)]
                     for where, row in cells]).T.copy()


def load_vector(path: str) -> TargetVector:
    """Read a target vector from JSON {"n", "entries"} or CSV index,magnitude,phase."""
    magnitudes, phases = _load_table(path, "entries", ("magnitude", "phase"),
                                     lambda e: (e["magnitude"], e["phase"]))
    try:
        return TargetVector(magnitudes.size.bit_length() - 1, magnitudes, phases)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def load_phases(path: str) -> list[float]:
    """Read diagonal phases from JSON {"n", "phases"} or CSV index,phase."""
    (phases,) = _load_table(path, "phases", ("phase",), lambda v: (v,))
    for index, value in enumerate(phases):
        if not 0.0 <= value < TAU:
            raise ValueError(f"{path}: entry {index}: phase {float(value)!r} "
                             f"outside [0, 2*pi)")
    return phases.tolist()


def _refuse_one_file_twice(*named: tuple[str, str | None]) -> None:
    """Refuse two (option, path) pairs that name one file, before any work."""
    given = [(option, path) for option, path in named if path]
    for (first, a), (second, b) in itertools.combinations(given, 2):
        try:
            same = os.path.samefile(a, b)
        except OSError:  # one of them does not exist yet
            same = os.path.realpath(a) == os.path.realpath(b)
        if same:
            raise UsageError(f"{first} and {second} name the same file {b}")


def _refuse_negative_seed(seed: int | None) -> None:
    """numpy's generator refuses a negative seed without naming the flag."""
    if seed is not None and seed < 0:
        raise UsageError(f"--seed must be >= 0, got {seed}")


def cmd_prepare(args) -> int:
    _refuse_negative_seed(args.seed)
    _refuse_one_file_twice(("the input", args.input), ("--report", args.report),
                           ("--emit", args.emit))
    x = load_vector(args.input)
    mode = _MODES[args.mode]
    if args.epsilon is not None:
        if args.t is not None or args.t_prime is not None:
            raise UsageError("give either --epsilon or --t/--t-prime, not both")
        with _refused_as(f"--epsilon {args.epsilon}"):
            cfg = required_precision(x.num_qubits, args.epsilon, mode)
    else:
        if args.t is None or args.t_prime is None:
            raise UsageError("give --epsilon, or both --t and --t-prime")
        with _refused_as(f"--t {args.t} --t-prime {args.t_prime}"):
            cfg = PrecisionConfig(args.t, args.t_prime, mode)
    if args.multiplier is not None:
        with _refused_as(f"--multiplier {args.multiplier}"):
            cfg = PrecisionConfig(cfg.estimation_bits, cfg.phase_bits, mode, args.multiplier)

    qubits = RegisterMap.layout(x.num_qubits, cfg).num_qubits
    if not args.fast_path:
        shortfall = memory_shortfall(qubits)
        if shortfall:
            raise ValueError(f"{shortfall}; use --fast-path")
    try:
        record = analysis.evaluate_bounds(x, cfg, epsilon=args.epsilon,
                                          fast_path=args.fast_path)
    except MemoryError:
        if args.fast_path:
            raise
        # The refusal above passed, but what the process gets can be less.
        raise MemoryError(f"simulating {qubits} qubits; use --fast-path") from None
    success = record.measured_success_probability
    sampled = None
    if args.sample and mode == PROBABILISTIC:
        rng = np.random.default_rng(args.seed)
        outcome = 0 if rng.random() < success else 1
        sampled = {"ancilla_outcome": outcome, "accepted": outcome == 0}

    report = {
        "format": "qprep-report v1",
        "mode": mode,
        "n": x.num_qubits,
        "t": cfg.estimation_bits,
        "t_prime": cfg.phase_bits,
        "angle_multiplier": cfg.angle_multiplier,
        "epsilon": args.epsilon,
        "computation_path": "fast-path" if args.fast_path else "full-circuit",
        "seed": args.seed,
        "qubits": record.built.circuit.num_qubits,
        "gate_count": written_gate_count(record.built.circuit),
        "prepared_amplitudes": [[float(a.real), float(a.imag)] for a in record.amplitudes],
        "distance_to_target": record.measured_distance,
        "overlap_fidelity": record.overlap_fidelity,
        "theoretical_bound": record.theoretical_bound,
        "bound_satisfied": record.satisfied,
        "success_probability": success,
        "success_lower_bound": record.success_lower_bound,
        "estimation_residual": record.estimation_residual,
        "sampled_outcome": sampled,
    }
    text = json.dumps(report, indent=2)
    if args.report:
        with open(args.report, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    if args.emit:
        save_circuit(args.emit, record.built.circuit, x.num_qubits)
    if not record.satisfied:
        print(f"bound violated: distance {record.measured_distance:.6g}"
              f" > {record.theoretical_bound:.6g}", file=sys.stderr)
        return 2
    return 0


def _synthesize_checked(spec: PhaseSpec, support: list[int] | None = None):
    """Peel synthesis of ``spec``, or sparse synthesis on ``support``, with
    its gate-count ceiling and whether ``reconstruct`` gives ``spec`` back."""
    n, m = spec.num_qubits, spec.level
    if support is None:
        result, bound = peel_synthesize(spec), m * ((1 << n) - 1)
    else:
        result, bound = sparse_synthesize(spec, support), len(support) * (2 * n + m)
    return result, bound, reconstruct(result) == spec


def cmd_synth_diag(args) -> int:
    _refuse_one_file_twice(("the input", args.input), ("--emit", args.emit))
    if args.m < 1:
        raise UsageError(f"--m must be >= 1, got {args.m}")
    angles = load_phases(args.input)
    with _refused_as(f"--m {args.m}"):
        spec = quantize(angles, args.m)
    n = spec.num_qubits
    support = [i for i, p in enumerate(spec.numerators) if p] if args.sparse else None
    result, bound, exact = _synthesize_checked(spec, support)
    ceiling = "m*(2^n - 1)" if support is None else "|support|*(2n+m)"
    print(f"n={n} m={args.m} gates={len(result.gates)} bound {ceiling} = {bound}")
    for (arity, level), count in sorted(count_gate_list(result.gates).items()):
        kind = "X" if level == 0 else f"CZP(l={level})"
        print(f"  arity {arity:>2}  {kind:<12} x{count}")
    if result.global_phase:
        print(f"  global phase 2*pi*{result.global_phase}"
              f"/2^{result.level} (as conjugated gate block)")
    if args.emit:
        save_circuit(args.emit, Circuit(n, result.product_gates()), n)
    if not exact:
        print("reconstruction mismatch", file=sys.stderr)
        return 2
    print("reconstruction exact")
    return 0


def _synth_row(case: str, spec: PhaseSpec, support: list[int] | None = None) -> dict:
    result, bound, exact = _synthesize_checked(spec, support)
    return {"suite": "synth", "case": case, "gate_count": len(result.gates),
            "bound": bound, "exact": exact,
            "satisfied": bool(exact and len(result.gates) <= bound)}


def _suite_synth(n: int, trials: int, rng: np.random.Generator) -> list[dict]:
    rows = []
    if n <= 3:  # exhaustive +/-1 diagonals
        for pattern in range(1 << (1 << n)):
            numerators = tuple((pattern >> i) & 1 for i in range(1 << n))
            rows.append(_synth_row(f"exhaustive-m1-{pattern}", PhaseSpec(1, numerators)))
    for trial in range(trials):
        nn = int(rng.integers(1, n + 1))
        m = int(rng.integers(1, 6))
        numerators = tuple(int(v) for v in rng.integers(0, 1 << m, 1 << nn))
        rows.append(_synth_row(f"random-peel-{trial}", PhaseSpec(m, numerators)))
        support_size = int(rng.integers(1, nn + 1))
        support = [int(v) for v in
                   rng.choice(1 << nn, size=support_size, replace=False)]
        sparse_numerators = [0] * (1 << nn)
        for index in support:
            sparse_numerators[index] = int(rng.integers(0, 1 << m))
        rows.append(_synth_row(f"random-sparse-{trial}",
                               PhaseSpec(m, tuple(sparse_numerators)), support))
    return rows


# The dualpath suite's widths, one per mode, and what a satisfied row allows:
# the largest amplitude deviation from the fast path and estimation residual.
_DUALPATH_CONFIGS = tuple(PrecisionConfig(8, 6, mode) for mode in (DETERMINISTIC, PROBABILISTIC))
_DUALPATH_DEVIATION = 1e-9
_DUALPATH_RESIDUAL = 1e-10


def _suite_dualpath(n: int, trials: int, rng: np.random.Generator) -> list[dict]:
    rows = []
    for trial in range(trials):
        x = analysis.random_target_vector(n, rng)
        for cfg in _DUALPATH_CONFIGS:
            full = analysis.evaluate_bounds(x, cfg)
            fast = fast_path_prepare(x, cfg)
            deviation = float(np.max(np.abs(full.amplitudes - fast.amplitudes)))
            rows.append({
                "suite": "dualpath", "mode": cfg.mode, "trial": trial,
                "deviation": deviation,
                "estimation_residual": full.estimation_residual,
                "satisfied": bool(deviation <= _DUALPATH_DEVIATION
                                  and full.estimation_residual <= _DUALPATH_RESIDUAL),
            })
    return rows


def _bounds_configs(n: int) -> tuple[list[PrecisionConfig], list[PrecisionConfig]]:
    """The bounds suite's widths: fixed ones for a real vector, then those
    ``required_precision`` gives at epsilon 0.5 for a complex one."""
    fixed = [PrecisionConfig(t, 1, DETERMINISTIC) for t in (6, 8, 10)]
    fixed += [PrecisionConfig(2 * n + math.ceil(math.log2(math.pi / epsilon)), 1,
                              PROBABILISTIC) for epsilon in (0.5, 0.1)]
    return fixed, [required_precision(n, 0.5, mode) for mode in (DETERMINISTIC, PROBABILISTIC)]


def _bounds_row(x: TargetVector, cfg: PrecisionConfig, epsilon: float | None, trial: int) -> dict:
    """One bounds row; its keys, and those of its config, are in column order."""
    report = analysis.evaluate_bounds(x, cfg, epsilon=epsilon)
    counts = count_gate_list(report.built.circuit.gates[report.built.phase_start:])
    return {
        "suite": "bounds",
        "config": {"n": x.num_qubits, "t": cfg.estimation_bits, "t_prime": cfg.phase_bits,
                   "mode": cfg.mode, "angle_multiplier": cfg.angle_multiplier,
                   "epsilon": epsilon},
        "measured_distance": report.measured_distance,
        "theoretical_bound": report.theoretical_bound,
        "measured_success_probability": report.measured_success_probability,
        "success_lower_bound": report.success_lower_bound,
        "gate_counts": {f"{k},{l}": c for (k, l), c in sorted(counts.items())},
        "satisfied": report.satisfied,
        "seed": trial,
    }


def _suite_bounds(n: int, trials: int, rng: np.random.Generator) -> list[dict]:
    fixed, by_epsilon = _bounds_configs(n)
    rows = []
    for trial in range(trials):
        real = analysis.random_target_vector(n, rng, complex_phases=False)
        rows += [_bounds_row(real, cfg, None, trial) for cfg in fixed]
        full = analysis.random_target_vector(n, rng)
        rows += [_bounds_row(full, cfg, 0.5, trial) for cfg in by_epsilon]
    return rows


# Each suite by name, in the order --suite lists them: the widths it
# simulates at an --n, and the function that makes its rows.
_SUITES = {
    "bounds": (lambda n: sum(_bounds_configs(n), []), _suite_bounds),
    "synth": (lambda n: (), _suite_synth),
    "dualpath": (lambda n: _DUALPATH_CONFIGS, _suite_dualpath),
}


def _check_verify_size(suite: str, n: int, trials: int) -> None:
    """Refuse, before anything is allocated, an ``--n`` or ``--trials`` the
    suite cannot run, including an ``--n`` whose largest circuit (the
    n-qubit diagonal in the synth suite) would not fit in the memory the
    process can get as a full simulation."""
    if trials < 0:
        raise UsageError(f"--trials must be >= 0, got {trials}")
    if n < 1:
        raise UsageError(f"--n must be >= 1 for the {suite} suite, got {n}")
    with _refused_as(f"--n {n}"):  # widths past PrecisionConfig's limits
        configs = _SUITES[suite][0](n)
    shortfall = memory_shortfall(
        max([n] + [RegisterMap.layout(n, cfg).num_qubits for cfg in configs]))
    if shortfall:
        raise UsageError(f"--n {n}: {shortfall}")


def _write_rows(path: str | None, rows: list[dict]) -> None:
    """Write rows as JSON lines, to stdout when ``path`` is None, or as CSV
    when ``path`` ends in ``.csv``: its columns are the first row's keys in
    the order the row builders insert them (just ``suite`` when there are no
    rows), and dict values are written as JSON, their keys in that order."""
    if path is not None and str(path).endswith(".csv"):
        with open(path, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0]) if rows else ["suite"])
            writer.writeheader()
            for row in rows:
                writer.writerow({k: json.dumps(v) if isinstance(v, dict) else v
                                 for k, v in row.items()})
        return
    with contextlib.nullcontext(sys.stdout) if path is None else open(path, "w") as handle:
        handle.writelines(json.dumps(row, sort_keys=True) + "\n" for row in rows)


def cmd_verify(args) -> int:
    _refuse_negative_seed(args.seed)
    _check_verify_size(args.suite, args.n, args.trials)
    rows = _SUITES[args.suite][1](args.n, args.trials, np.random.default_rng(args.seed))
    _write_rows(args.out, rows)
    failing = [row for row in rows if not row["satisfied"]]
    # stderr, so that stdout holds only the rows when they go there.
    print(f"suite {args.suite}: {len(rows) - len(failing)}/{len(rows)} cells satisfied",
          file=sys.stderr)
    for row in failing:
        print(f"unsatisfied: {json.dumps(row, sort_keys=True)}", file=sys.stderr)
    return 2 if failing else 0


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built on the first call and shared after:
    ``parse_args`` keeps no state in it (no append actions, no list
    defaults)."""
    parser = _Parser(prog="qprep", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    prepare = sub.add_parser("prepare", help="compile and run a preparation circuit")
    prepare.add_argument("input", help="vector file (JSON or CSV)")
    prepare.add_argument("--mode", choices=_MODES, required=True)
    prepare.add_argument("--epsilon", type=float)
    prepare.add_argument("--t", type=int, help="estimation register width")
    prepare.add_argument("--t-prime", dest="t_prime", type=int,
                         help="phase stage width")
    prepare.add_argument("--multiplier", type=int, choices=ANGLE_MULTIPLIERS)
    prepare.add_argument("--emit", help="write the gate list here")
    prepare.add_argument("--report", help="write the JSON report here (default stdout)")
    path = prepare.add_mutually_exclusive_group()
    path.add_argument("--full-circuit", dest="fast_path", action="store_false")
    path.add_argument("--fast-path", dest="fast_path", action="store_true")
    prepare.set_defaults(fast_path=False)
    prepare.add_argument("--sample", action="store_true",
                         help="sample the ancilla outcome with the seeded generator")
    prepare.add_argument("--seed", type=int)

    synth = sub.add_parser("synth-diag", help="synthesize a diagonal unitary")
    synth.add_argument("input", help="phases file (JSON or CSV)")
    synth.add_argument("--m", type=int, required=True, help="grid level")
    synth.add_argument("--sparse", action="store_true")
    synth.add_argument("--emit", help="write the gate list here")

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("--suite", choices=_SUITES, required=True)
    verify.add_argument("--n", type=int, default=3)
    verify.add_argument("--trials", type=int, default=20)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--out", help="write rows here (.csv or JSON lines)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "prepare":
            return cmd_prepare(args)
        if args.command == "synth-diag":
            return cmd_synth_diag(args)
        return cmd_verify(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's _ArrayMemoryError is one
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except LeakageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
