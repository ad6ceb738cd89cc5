#!/usr/bin/env python3
"""Mutation checks that can be run again.

    python3 tools/mutants.py

Each row of ``MUTANTS`` is a one-site source edit that some tier-1 test must
fail on: a name, a file, an exact ``old`` snippet (which must occur exactly
once in that file), its replacement and the test files that must kill it.
For each row the script copies ``src``, ``tests`` and ``pyproject.toml`` to
a temporary directory, applies the edit there and runs ``python -m pytest -x
-q`` on the row's test files, for at most ``TIMEOUT`` seconds.  A row's test
files must not need ``tools`` or ``perfbench``, which are not copied.  It
prints killed, survived or timed out for each row with the seconds taken; a
timeout counts as killed, since the suite would hang on it.  A run that
pytest ends with neither passing nor failing tests (a collection error, say)
is printed as an error: the row shows nothing.  It exits 1 if any mutant
survives or errs, 0 otherwise.  The checkout itself is never edited.
Standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent.parent
# Each row's test files pass in under 10 s on 2 vCPUs; a timeout counts as
# killed, so it stays well above that.
TIMEOUT = 60.0


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the checkout
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    # The simulator.
    Mutant("apply-2x2-reads-c-low-after-overwrite", "src/qprep/sim.py",
           "    c_low = c * low\n    low *= a\n",
           "    low *= a\n    c_low = c * low\n",
           ("tests/test_sim.py",)),
    Mutant("state-vector-num-qubits-off-by-one", "src/qprep/sim.py",
           "return self.amplitudes.size.bit_length() - 1",
           "return self.amplitudes.size.bit_length()",
           ("tests/test_sim.py",)),
    Mutant("validate-gate-without-czp-level-limit", "src/qprep/sim.py",
           "if not 0 < abs(gate.level) <= MAX_LEVEL:",
           "if not 0 < abs(gate.level):",
           ("tests/test_sim.py", "tests/test_gateformat.py")),
    Mutant("validate-gate-without-diag-power-limit", "src/qprep/sim.py",
           "if abs(gate.power) > sys.float_info.max:",
           "if False:",
           ("tests/test_sim.py", "tests/test_gateformat.py")),
    Mutant("validate-gate-names-a-gate-by-its-repr", "src/qprep/sim.py",
           'raise ValueError(f"{type(gate).__name__} on qubits {list(qubits)}: "',
           'raise ValueError(f"{gate!r}: "',
           ("tests/test_sim.py", "tests/test_gateformat.py")),
    # Exact dyadic angles.
    Mutant("floor-fraction-refuses-a-full-turn", "src/qprep/dyadic.py",
           "if not 0.0 <= fraction <= 1.0:",
           "if not 0.0 <= fraction < 1.0:",
           ("tests/test_dyadic.py", "tests/test_prepare.py")),
    Mutant("phase-spec-num-qubits-off-by-one", "src/qprep/dyadic.py",
           "return len(self.numerators).bit_length() - 1",
           "return len(self.numerators).bit_length()",
           ("tests/test_dyadic.py", "tests/test_synth.py")),
    Mutant("phase-spec-accepts-three-entries", "src/qprep/dyadic.py",
           "if size < 1 or size & (size - 1):",
           "if size < 1 or size & (size - 1) and size != 3:",
           ("tests/test_dyadic.py",)),
    Mutant("phase-spec-without-level-limit", "src/qprep/dyadic.py",
           "if self.level > MAX_LEVEL:",
           "if False:",
           ("tests/test_dyadic.py",)),
    # The gate-list writer and reader.
    Mutant("expansion-cache-keyed-on-the-register-alone", "src/qprep/gateformat.py",
           "expanded[block] = qft_circuit(*block)",
           "expanded[block] = next((g for (r, _), g in expanded.items() if r == block[0]),"
           " None) or qft_circuit(*block)",
           ("tests/test_gateformat.py",)),
    Mutant("expansion-kept-to-the-end-of-the-pass", "src/qprep/gateformat.py",
           "yield from expanded[block] if uses[block] else expanded.pop(block)",
           "yield from expanded[block]",
           ("tests/test_gateformat.py",)),
    Mutant("expansion-made-at-every-use", "src/qprep/gateformat.py",
           "if block not in expanded:",
           "if True:",
           ("tests/test_gateformat.py",)),
    Mutant("reader-without-level-limit", "src/qprep/gateformat.py",
           "if not 0 <= level <= MAX_LEVEL:",
           "if not 0 <= level:",
           ("tests/test_gateformat.py",)),
    Mutant("reader-lets-an-overflow-through", "src/qprep/gateformat.py",
           "except (ValueError, OverflowError) as exc:",
           "except ValueError as exc:",
           ("tests/test_gateformat.py",)),
    Mutant("as-dyadic-rounds-a-non-finite-angle", "src/qprep/gateformat.py",
           "    if not math.isfinite(scaled):\n        return None\n",
           "",
           ("tests/test_gateformat.py",)),
    # Register widths and the fast path.
    Mutant("least-width-strict", "src/qprep/prepare.py",
           "if bound(num_qubits, width) <= epsilon)",
           "if bound(num_qubits, width) < epsilon)",
           ("tests/test_cli.py",)),
    Mutant("deterministic-width-search-starts-at-two", "src/qprep/prepare.py",
           "least_width(deterministic_distance_bound, num_qubits, 1, half)",
           "least_width(deterministic_distance_bound, num_qubits, 2, half)",
           ("tests/test_prepare.py", "tests/test_analysis.py")),
    Mutant("probabilistic-width-search-starts-past-the-least", "src/qprep/prepare.py",
           "least_width(probabilistic_distance_bound, num_qubits, 2 * num_qubits, half)",
           "least_width(probabilistic_distance_bound, num_qubits, 2 * num_qubits + 5, half)",
           ("tests/test_prepare.py", "tests/test_analysis.py")),
    Mutant("required-precision-accepts-no-qubits", "src/qprep/prepare.py",
           "    if num_qubits < 1:\n        raise ValueError(f\"num_qubits must be >= 1, "
           "got {num_qubits}\")\n    if not 0.0 < epsilon < 1.0:",
           "    if num_qubits < 0:\n        raise ValueError(f\"num_qubits must be >= 1, "
           "got {num_qubits}\")\n    if not 0.0 < epsilon < 1.0:",
           ("tests/test_prepare.py",)),
    Mutant("fast-path-at-multiplier-two", "src/qprep/prepare.py",
           "step = TAU / (cfg.angle_multiplier << cfg.estimation_bits)",
           "step = TAU / (2 << cfg.estimation_bits)",
           ("tests/test_prepare.py", "tests/test_analysis.py")),
    Mutant("fast-path-at-the-mode-default-multiplier", "src/qprep/prepare.py",
           "step = TAU / (cfg.angle_multiplier << cfg.estimation_bits)",
           "step = TAU / ((4 if cfg.mode == PROBABILISTIC else 2) << cfg.estimation_bits)",
           ("tests/test_prepare.py", "tests/test_sim_properties.py")),
)


def apply(mutant: Mutant, root: Path) -> None:
    """Make the mutant's edit in the tree at ``root``."""
    path = root / mutant.path
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: the old snippet occurs {text.count(mutant.old)} "
                         f"times in {mutant.path}, not once")
    path.write_text(text.replace(mutant.old, mutant.new))


def run(mutant: Mutant) -> tuple[str, float]:
    """The outcome, killed, survived, timed out or error, and the seconds taken."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        root = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(HERE / name, root / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(HERE / "pyproject.toml", root)
        apply(mutant, root)
        env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                   *mutant.tests]
        start = time.perf_counter()
        try:
            done = subprocess.run(command, cwd=root, env=env, timeout=TIMEOUT,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        except subprocess.TimeoutExpired:
            return "timed out", time.perf_counter() - start
        outcome = {0: "survived", 1: "killed"}.get(done.returncode, "error")
        return outcome, time.perf_counter() - start


def main() -> int:
    unkilled = 0
    start = time.perf_counter()
    for mutant in MUTANTS:
        outcome, seconds = run(mutant)
        unkilled += outcome in ("survived", "error")
        print(f"{outcome:<9} {seconds:6.1f} s  {mutant.name}", flush=True)
    print(f"{len(MUTANTS)} mutants, {unkilled} survived or erred, "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if unkilled else 0


if __name__ == "__main__":
    sys.exit(main())
