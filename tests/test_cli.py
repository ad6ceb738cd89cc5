import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from _util import extract_data_amplitudes, reference_peel, reference_phase_stage
from qprep import analysis
from qprep import cli as cli_module
from qprep import prepare as prepare_module
from qprep.cli import load_phases, load_vector, main
from qprep.dyadic import quantize
from qprep.gateformat import load_circuit, save_circuit
from qprep.prepare import (
    DETERMINISTIC,
    PROBABILISTIC,
    SIMULATION_BYTES_PER_AMPLITUDE,
    TargetVector,
    build,
    required_precision,
    simulate_preparation,
)
from qprep.sim import (
    Circuit,
    apply_circuit,
    new_basis_state,
)

TAU = 2.0 * math.pi


def write_vector(path, magnitudes, phases=None):
    n = int(len(magnitudes)).bit_length() - 1
    phases = phases if phases is not None else [0.0] * len(magnitudes)
    payload = {"n": n, "entries": [
        {"magnitude": float(m), "phase": float(p)}
        for m, p in zip(magnitudes, phases)]}
    path.write_text(json.dumps(payload))
    return path


def write_phases(path, phases):
    n = int(len(phases)).bit_length() - 1
    path.write_text(json.dumps({"n": n, "phases": [float(p) for p in phases]}))
    return path


def test_prepare_uniform_probabilistic(tmp_path, capsys):
    vec = write_vector(tmp_path / "v.json", [1, 1, 1, 1])
    report_path = tmp_path / "report.json"
    rc = main(["prepare", str(vec), "--mode", "prob", "--epsilon", "0.5",
               "--report", str(report_path)])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["success_probability"] == pytest.approx(1.0, abs=1e-12)
    assert report["bound_satisfied"] is True


def test_prepare_refuses_a_simulation_larger_than_memory(tmp_path, capsys):
    # prob mode at n = 2 and epsilon 1e-9 estimates 37 bits: 40 qubits, whose
    # full simulation needs SIMULATION_BYTES_PER_AMPLITUDE * 2^40 bytes.
    vec = write_vector(tmp_path / "v.json", [1, 2, 3, 4])
    args = ["prepare", str(vec), "--mode", "prob", "--epsilon", "1e-9",
            "--report", str(tmp_path / "report.json")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "40 qubits" in err and "--fast-path" in err
    assert str(SIMULATION_BYTES_PER_AMPLITUDE << 40) in err
    assert main(args + ["--fast-path"]) == 0
    # The library refusal names no flag of a command its caller did not run.
    x = TargetVector(2, np.array([1.0, 2.0, 3.0, 4.0]), np.zeros(4))
    with pytest.raises(ValueError, match="40 qubits") as refused:
        simulate_preparation(build(x, required_precision(2, 1e-9, PROBABILISTIC)))
    assert "--" not in str(refused.value)


def test_prepare_out_of_memory_is_one_line_naming_the_qubits(tmp_path, monkeypatch,
                                                             capsys):
    # The memory refusal can pass and the simulation still run out, e.g. under
    # an address-space limit the interpreter already uses part of.
    def exhausted(built):  # numpy's _ArrayMemoryError is a MemoryError
        raise MemoryError("Unable to allocate 8.00 MiB for an array with shape "
                          "(524288,) and data type complex128")

    monkeypatch.setattr(analysis, "simulate_preparation", exhausted)
    vec = write_vector(tmp_path / "v.json", [1, 2, 3, 4])
    args = ["prepare", str(vec), "--mode", "prob", "--t", "6", "--t-prime", "3"]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err == "error: out of memory: simulating 9 qubits; use --fast-path\n"
    assert main(args + ["--fast-path"]) == 0


PAGE = 4096


def pin_memory_limits(monkeypatch, tmp_path, physical, address_space, cgroup,
                      mapped_pages=0):
    """Fixes the three limits ``memory_shortfall`` reads, whatever the
    machine has: physical memory, the soft RLIMIT_AS and memory.max, and the
    address space the process maps (statm's first field, in pages)."""
    sizes = {"SC_PAGE_SIZE": PAGE, "SC_PHYS_PAGES": physical // PAGE}
    monkeypatch.setattr(prepare_module.os, "sysconf", sizes.__getitem__)
    monkeypatch.setattr(prepare_module.resource, "getrlimit",
                        lambda which: (address_space, resource.RLIM_INFINITY))
    memory_max = tmp_path / "memory.max"
    memory_max.write_text(f"{cgroup}\n")
    monkeypatch.setattr(prepare_module, "CGROUP_MEMORY_MAX", str(memory_max))
    statm = tmp_path / "statm"
    statm.write_text(f"{mapped_pages} 700 300 1 0 900 0\n")
    monkeypatch.setattr(prepare_module, "PROC_SELF_STATM", str(statm))


@pytest.mark.parametrize("spare_pages, refused", [(0, False), (-1, True)])
def test_memory_refusal_is_at_the_simulation_peak(monkeypatch, tmp_path, spare_pages,
                                                  refused):
    # 30 qubits peak at SIMULATION_BYTES_PER_AMPLITUDE * 2^30 bytes: that
    # much memory passes, one page less refuses.
    peak = SIMULATION_BYTES_PER_AMPLITUDE << 30
    pin_memory_limits(monkeypatch, tmp_path, peak + spare_pages * PAGE,
                      resource.RLIM_INFINITY, "max")
    shortfall = prepare_module.memory_shortfall(30)
    if refused:
        assert shortfall == (f"simulating 30 qubits needs {peak} bytes, more than "
                             f"the {peak - PAGE} bytes of physical memory")
    else:
        assert shortfall is None


@pytest.mark.parametrize("source", ["RLIMIT_AS", "memory.max"])
@pytest.mark.parametrize("spare_pages, refused", [(0, False), (-1, True)])
def test_memory_refusal_takes_the_smallest_limit(monkeypatch, tmp_path, source,
                                                 spare_pages, refused):
    # Physical memory is ample; the other limit alone decides and is named.
    limit = (SIMULATION_BYTES_PER_AMPLITUDE << 30) + spare_pages * PAGE
    pin_memory_limits(monkeypatch, tmp_path, 1 << 50,
                      limit if source == "RLIMIT_AS" else resource.RLIM_INFINITY,
                      limit if source == "memory.max" else "max")
    shortfall = prepare_module.memory_shortfall(30)
    if refused:
        assert shortfall and str(limit) in shortfall and source in shortfall
        assert "physical memory" not in shortfall
    else:
        assert shortfall is None


def test_memory_refusal_counts_the_address_space_already_mapped(monkeypatch, tmp_path,
                                                                capsys):
    # prob n = 2 at t = 6 is 9 qubits, SIMULATION_BYTES_PER_AMPLITUDE * 2^9
    # bytes.  The soft RLIMIT_AS alone would pass; what is left of it after
    # the mapped pages does not.
    needed, limit = SIMULATION_BYTES_PER_AMPLITUDE << 9, 1 << 30
    mapped = (limit - needed) // PAGE + 1
    pin_memory_limits(monkeypatch, tmp_path, 1 << 50, limit, "max", mapped)
    left = limit - mapped * PAGE
    vec = write_vector(tmp_path / "v.json", [1, 2, 3, 4])
    args = ["prepare", str(vec), "--mode", "prob", "--t", "6", "--t-prime", "3"]
    assert main(args) == 1
    assert capsys.readouterr().err == (
        f"error: simulating 9 qubits needs {needed} bytes, more than the {left} bytes "
        f"left of the soft address-space limit RLIMIT_AS ({limit} bytes, "
        f"{mapped * PAGE} already mapped); use --fast-path\n")
    assert main(args + ["--fast-path"]) == 0
    # Unreadable statm: the whole soft limit is compared, and it passes.
    monkeypatch.setattr(prepare_module, "PROC_SELF_STATM", str(tmp_path / "missing"))
    assert prepare_module.memory_shortfall(9) is None
    pin_memory_limits(monkeypatch, tmp_path, 1 << 50, needed - 1, "max", 0)
    monkeypatch.setattr(prepare_module, "PROC_SELF_STATM", str(tmp_path / "missing"))
    assert prepare_module.memory_shortfall(9) == (
        f"simulating 9 qubits needs {needed} bytes, more than the {needed - 1} "
        f"bytes of the soft address-space limit RLIMIT_AS")


def test_full_circuit_accepts_a_valid_19_qubit_state_under_one_blas_thread(tmp_path):
    # A one-thread OpenBLAS dot put this state's norm at 1 - 1.05e-12 after
    # 61 of its 177 gates, beyond NORM_TOLERANCE, so the norm check refused a
    # valid circuit; numpy's pairwise sum stays within 1.1e-16.
    rng = np.random.default_rng(1)
    vectors = [(np.abs(rng.standard_normal(1 << n)), rng.uniform(0, 6.28, 1 << n))
               for _ in range(4) for n in (4, 6)]
    vec = write_vector(tmp_path / "v.json", *vectors[6])
    src = str(Path(analysis.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "qprep.cli", "prepare", str(vec), "--mode", "prob",
         "--epsilon", "0.1", "--full-circuit", "--report", str(tmp_path / "r.json")],
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads((tmp_path / "r.json").read_text())["qubits"] == 19


def test_prepare_basis_vector_deterministic(tmp_path):
    vec = write_vector(tmp_path / "v.json", [0, 0, 1, 0])
    report_path = tmp_path / "report.json"
    rc = main(["prepare", str(vec), "--mode", "det", "--epsilon", "0.1",
               "--report", str(report_path)])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["distance_to_target"] <= 1e-12


def test_prepare_random_eight_entries(tmp_path):
    rng = np.random.default_rng(6)
    vec = write_vector(tmp_path / "v.json", np.abs(rng.standard_normal(8)),
                       rng.uniform(0, 6.0, 8))
    report_path = tmp_path / "report.json"
    rc = main(["prepare", str(vec), "--mode", "det", "--epsilon", "0.1",
               "--report", str(report_path)])
    assert rc == 0
    assert json.loads(report_path.read_text())["distance_to_target"] <= 0.1


def test_prepare_fast_path(tmp_path):
    vec = write_vector(tmp_path / "v.json", [1, 2, 3, 4])
    report_path = tmp_path / "report.json"
    rc = main(["prepare", str(vec), "--mode", "prob", "--t", "8",
               "--t-prime", "4", "--fast-path", "--report", str(report_path)])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["computation_path"] == "fast-path"
    assert report["estimation_residual"] is None


def test_prepare_usage_errors(tmp_path, capsys):
    vec = write_vector(tmp_path / "v.json", [1, 1])
    assert main(["prepare", str(vec), "--mode", "det"]) == 1
    assert main(["prepare", str(vec), "--mode", "det",
                 "--epsilon", "0.1", "--t", "6", "--t-prime", "4"]) == 1
    assert main(["prepare", str(vec), "--mode", "nope",
                 "--epsilon", "0.1"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv, seed", [
    (["verify", "--suite", "synth", "--n", "2", "--trials", "1", "--seed", "-1"], -1),
    (["prepare", "VECTOR", "--mode", "prob", "--epsilon", "0.5", "--sample",
      "--seed", "-1"], -1),
    (["prepare", "VECTOR", "--mode", "det", "--epsilon", "0.1", "--seed", "-5"], -5),
], ids=["verify", "prepare-sample", "prepare-unsampled"])
def test_negative_seed_is_a_usage_error_naming_the_flag(tmp_path, capsys, argv, seed):
    vec = write_vector(tmp_path / "v.json", [1, 2, 3, 4])
    assert main([str(vec) if arg == "VECTOR" else arg for arg in argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"usage error: --seed must be >= 0, got {seed}\n"


@pytest.mark.parametrize("command, outputs, named", [
    ("prepare", ["--report", "out", "--emit", "out"], "--report and --emit"),
    ("prepare", ["--report", "in.json"], "the input and --report"),
    ("prepare", ["--emit", "in.json"], "the input and --emit"),
    ("prepare", ["--report", "missing/../in.json"], "the input and --report"),
    ("prepare", ["--emit", "link.json"], "the input and --emit"),
    ("synth-diag", ["--emit", "in.json"], "the input and --emit"),
    ("synth-diag", ["--emit", "link.json"], "the input and --emit"),
], ids=["report-is-emit", "report-is-input", "emit-is-input", "report-resolves-to-input",
        "emit-links-to-input", "synth-emit-is-input", "synth-emit-links-to-input"])
def test_files_named_twice_are_refused_before_any_work(tmp_path, monkeypatch, capsys,
                                                      command, outputs, named):
    # Writing the later file would replace the input or the other output.
    monkeypatch.chdir(tmp_path)
    if command == "prepare":
        write_vector(tmp_path / "in.json", [1, 2, 3, 4])
        argv = ["prepare", "in.json", "--mode", "det", "--epsilon", "0.1"]
    else:
        write_phases(tmp_path / "in.json", [0.0, 0.5, 1.0, 1.5])
        argv = ["synth-diag", "in.json", "--m", "3"]
    (tmp_path / "link.json").symlink_to("in.json")
    before = sorted((path.name, path.read_bytes()) for path in tmp_path.iterdir())
    assert main(argv + outputs) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error: ") and named in captured.err
    assert captured.out == ""
    assert sorted((path.name, path.read_bytes()) for path in tmp_path.iterdir()) == before


def test_prepare_malformed_input_names_entry(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 1, "entries": [
        {"magnitude": 1.0, "phase": 0.0},
        {"magnitude": -2.0, "phase": 0.0}]}))
    rc = main(["prepare", str(bad), "--mode", "det", "--epsilon", "0.1"])
    assert rc == 1
    assert "entry 1" in capsys.readouterr().err


def test_prepare_bound_violation_exits_two(tmp_path, monkeypatch, capsys):
    vec = write_vector(tmp_path / "v.json", [1, 2, 3, 4])
    monkeypatch.setattr(analysis, "total_distance_bound", lambda x, cfg: 0.0)
    rc = main(["prepare", str(vec), "--mode", "det", "--t", "6",
               "--t-prime", "4", "--report", str(tmp_path / "r.json")])
    assert rc == 2
    assert "bound violated" in capsys.readouterr().err


def test_prepare_determinism_byte_identical(tmp_path):
    rng = np.random.default_rng(9)
    vec = write_vector(tmp_path / "v.json", np.abs(rng.standard_normal(4)),
                       rng.uniform(0, 6.0, 4))
    outputs = []
    for tag in ("a", "b"):
        report_path = tmp_path / f"report-{tag}.json"
        gates_path = tmp_path / f"gates-{tag}.txt"
        rc = main(["prepare", str(vec), "--mode", "prob", "--epsilon", "0.5",
                   "--seed", "42", "--sample",
                   "--report", str(report_path), "--emit", str(gates_path)])
        assert rc == 0
        outputs.append((report_path.read_bytes(), gates_path.read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("mode", ["det", "prob"])
def test_emitted_gate_list_resimulates_to_reported_amplitudes(tmp_path, mode):
    rng = np.random.default_rng(13)
    vec = write_vector(tmp_path / "v.json", np.abs(rng.standard_normal(4)),
                       rng.uniform(0, 6.0, 4))
    report_path = tmp_path / "report.json"
    gates_path = tmp_path / "gates.txt"
    rc = main(["prepare", str(vec), "--mode", mode, "--epsilon", "0.5",
               "--report", str(report_path), "--emit", str(gates_path)])
    assert rc == 0
    report = json.loads(report_path.read_text())
    data_qubits, circuit = load_circuit(gates_path)
    # The built circuit holds Fourier blocks; the report counts the gates
    # as written, one per line.
    assert (circuit.num_qubits, len(circuit.gates)) == (report["qubits"],
                                                        report["gate_count"])
    state = apply_circuit(new_basis_state(circuit.num_qubits, 0), circuit)
    resimulated = extract_data_amplitudes(state.amplitudes, data_qubits, mode == "prob")
    reported = np.array([complex(re, im)
                         for re, im in report["prepared_amplitudes"]])
    assert np.max(np.abs(resimulated - reported)) <= 1e-10


@pytest.mark.parametrize("path", ["--full-circuit", "--fast-path"])
@pytest.mark.parametrize("magnitudes, mode, widths", [
    ([1e308, 1e308, 1e307, 0.0], "det", ["--epsilon", "0.1"]),
    ([1e308, 1e308, 1e307, 0.0], "prob", ["--epsilon", "0.1"]),
    ([1e-200, 3e-200], "det", ["--t", "4", "--t-prime", "4"]),
    ([1e-200, 3e-200], "prob", ["--epsilon", "0.1"]),
], ids=["huge-det", "huge-prob", "tiny-det", "tiny-prob"])
def test_extreme_magnitudes_prepare_within_the_bound(tmp_path, magnitudes, mode,
                                                     widths, path):
    # Squaring these magnitudes unscaled overflows to inf or underflows to 0.
    vec = write_vector(tmp_path / "v.json", magnitudes)
    report_path = tmp_path / "report.json"
    rc = main(["prepare", str(vec), "--mode", mode, *widths, path,
               "--report", str(report_path)])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["bound_satisfied"] is True
    assert report["distance_to_target"] <= report["theoretical_bound"] + 1e-12
    if mode == "prob":
        assert report["success_probability"] >= report["success_lower_bound"] - 1e-12


@pytest.mark.parametrize("header", ["index,magnitude,phase\n",
                                    "\ufeffindex,magnitude,phase\n",
                                    "i,r,theta\n", "", "\ufeff"],
                         ids=["named", "bom", "other-names", "none", "bom-none"])
def test_prepare_accepts_csv_vectors(tmp_path, header):
    csv_file = tmp_path / "v.csv"
    csv_file.write_text(header + "0,1.0,0.0\n1,1.0,0.0\n2,1.0,0.0\n3,1.0,0.0\n",
                        encoding="utf-8")
    report_path = tmp_path / "report.json"
    rc = main(["prepare", str(csv_file), "--mode", "det", "--epsilon", "0.5",
               "--report", str(report_path)])
    assert rc == 0
    assert json.loads(report_path.read_text())["n"] == 2


@pytest.mark.parametrize("header", ["", "index,phase\n"], ids=["none", "named"])
def test_synth_diag_reads_a_csv_with_a_byte_order_mark(tmp_path, capsys, header):
    phases = tmp_path / "p.csv"
    phases.write_text("\ufeff" + header + "0,0.5\n1,1.0\n", encoding="utf-8")
    assert main(["synth-diag", str(phases), "--m", "4"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "reconstruction exact"


def test_parser_is_built_once_and_keeps_no_state(tmp_path):
    vec = write_vector(tmp_path / "v.json", [0.6, 0.8])
    reports = [tmp_path / "fast.json", tmp_path / "full.json"]
    assert main(["prepare", str(vec), "--mode", "det", "--t", "4", "--t-prime", "3",
                 "--fast-path", "--report", str(reports[0])]) == 0
    assert main(["prepare", str(vec), "--mode", "det", "--t", "4", "--t-prime", "3",
                 "--report", str(reports[1])]) == 0
    residuals = [json.loads(path.read_text())["estimation_residual"] for path in reports]
    assert residuals[0] is None and residuals[1] is not None
    assert cli_module.build_parser() is cli_module.build_parser()


def test_synth_diag_golden_single_cz(tmp_path, capsys):
    phases = write_phases(tmp_path / "p.json", [0, 0, 0, math.pi])
    emitted = tmp_path / "gates.txt"
    rc = main(["synth-diag", str(phases), "--m", "1", "--emit", str(emitted)])
    assert rc == 0
    assert emitted.read_text() == "# qprep v1 n=2 qubits=2\nCZP l=1 q=0,1\n"
    assert "reconstruction exact" in capsys.readouterr().out


def test_synth_diag_zero_phases_empty_list(tmp_path):
    phases = write_phases(tmp_path / "p.json", [0.0, 0.0])
    emitted = tmp_path / "gates.txt"
    rc = main(["synth-diag", str(phases), "--m", "3", "--emit", str(emitted)])
    assert rc == 0
    assert emitted.read_text() == "# qprep v1 n=1 qubits=1\n"


def test_synth_diag_random_respects_bound(tmp_path, capsys):
    rng = np.random.default_rng(8)
    phases = write_phases(tmp_path / "p.json", rng.uniform(0, TAU, 16))
    rc = main(["synth-diag", str(phases), "--m", "3"])
    assert rc == 0
    summary = capsys.readouterr().out.splitlines()[0]
    gates = int(summary.split("gates=")[1].split()[0])
    assert gates <= 45  # 3 * (2**4 - 1)


def test_synth_diag_sparse(tmp_path, capsys):
    values = [0.0] * 8
    values[5] = math.pi
    phases = write_phases(tmp_path / "p.json", values)
    emitted = tmp_path / "gates.txt"
    rc = main(["synth-diag", str(phases), "--m", "1", "--sparse",
               "--emit", str(emitted)])
    assert rc == 0
    assert emitted.read_text() == ("# qprep v1 n=3 qubits=3\n"
                                   "X q=1\nCZP l=1 q=0,1,2\nX q=1\n")


def test_synth_diag_level_validation(tmp_path, capsys):
    phases = write_phases(tmp_path / "p.json", [0.0, 0.0])
    assert main(["synth-diag", str(phases), "--m", "0"]) == 1
    capsys.readouterr()


def test_verify_synth_suite_is_exhaustive_at_three_qubits(tmp_path, capsys):
    out = tmp_path / "rows.jsonl"
    rc = main(["verify", "--suite", "synth", "--n", "3", "--trials", "5",
               "--seed", "1", "--out", str(out)])
    assert rc == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert sum(row["case"].startswith("exhaustive") for row in rows) == 256
    assert len(rows) == 256 + 10
    assert all(row["satisfied"] for row in rows)
    capsys.readouterr()


def test_verify_dualpath_suite(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    rc = main(["verify", "--suite", "dualpath", "--n", "2", "--trials", "3",
               "--seed", "2", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("suite,")
    assert len(lines) == 1 + 6
    capsys.readouterr()


def test_verify_dualpath_simulates_only_through_evaluate_bounds(monkeypatch, capsys):
    evaluate, simulate = analysis.evaluate_bounds, prepare_module.simulate_preparation
    configs, inside = [], []

    def spy_evaluate(x, cfg, *args, **kwargs):
        configs.append(cfg)
        inside.append(None)
        try:
            return evaluate(x, cfg, *args, **kwargs)
        finally:
            inside.pop()

    def spy_simulate(built):
        assert inside, "simulate_preparation ran outside evaluate_bounds"
        return simulate(built)

    monkeypatch.setattr(analysis, "evaluate_bounds", spy_evaluate)
    for module in (analysis, prepare_module, cli_module):
        if hasattr(module, "simulate_preparation"):
            monkeypatch.setattr(module, "simulate_preparation", spy_simulate)
    assert main(["verify", "--suite", "dualpath", "--n", "2", "--trials", "1"]) == 0
    assert configs == list(cli_module._DUALPATH_CONFIGS)
    capsys.readouterr()


def test_verify_bounds_suite(tmp_path, capsys):
    # From one qubit up, as every suite runs.
    out = tmp_path / "rows.jsonl"
    for n in (1, 2):
        rc = main(["verify", "--suite", "bounds", "--n", str(n), "--trials", "2",
                   "--seed", "3", "--out", str(out)])
        assert rc == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 2 * 7 and all(row["satisfied"] for row in rows)
        assert {row["config"]["n"] for row in rows} == {n}
        captured = capsys.readouterr()
        assert captured.out == "" and "14/14 cells satisfied" in captured.err


def test_verify_without_out_writes_only_rows_to_stdout(capsys):
    # The summary goes to stderr, so stdout reads as JSON lines to its end.
    assert main(["verify", "--suite", "synth", "--n", "2", "--trials", "2"]) == 0
    captured = capsys.readouterr()
    rows = [json.loads(line) for line in captured.out.splitlines()]
    assert len(rows) == 16 + 2 * 2 and all(row["satisfied"] for row in rows)
    assert captured.err == "suite synth: 20/20 cells satisfied\n"


@pytest.mark.parametrize("argv, listed", [
    (["verify", "--suite", "nope"], "'bounds', 'synth', 'dualpath'"),
    (["prepare", "v.json", "--mode", "nope"], "'det', 'prob'"),
    (["prepare", "v.json", "--mode", "det", "--multiplier", "3"], "1, 2, 4"),
], ids=["suite", "mode", "multiplier"])
def test_choices_come_from_the_tables_in_their_order(capsys, argv, listed):
    assert list(cli_module._SUITES) == ["bounds", "synth", "dualpath"]
    assert main(argv) == 1
    assert f"(choose from {listed})" in capsys.readouterr().err


_VECTOR_ENTRIES = '{"magnitude": 1.0, "phase": 0.0}'
_DEEP = "[" * 100_000 + "]" * 100_000
_HUGE = "9" * 401
# Past the 4,300 digits Python's int() reads from text by default.
_LONG_DIGITS = "9" * 5000
_LONG_TEXT = "x" * 100_000


@pytest.mark.parametrize("command, name, content, where", [
    ("synth-diag", "p.csv", "0,0.1\n5,0.2\n", "row 2"),
    ("synth-diag", "p.csv", "0,0.1\n0,0.2\n", "row 2"),
    ("synth-diag", "p.csv", "0,0.1\n-1,0.2\n", "row 2"),
    ("synth-diag", "p.csv", "index,phase\n0,0.1\nx,0.2\n", "row 3"),
    # A first row that holds a number is data, never a header to drop.
    ("prepare", "v.csv", ",0.5,0.1\n0,1,0\n1,1,0\n2,1,0\n", "row 1: index ''"),
    ("synth-diag", "p.csv", "x,0.9\n0,0.1\n1,0.2\n2,0.3\n", "row 1: index 'x'"),
    ("synth-diag", "p.csv", "1.0,0.9\n0,0.1\n1,0.2\n2,0.3\n", "row 1: index '1.0'"),
    ("prepare", "v.json", '{"n": 1, "entries": [%s, {"magnitude": NaN, '
     '"phase": 0.0}]}' % _VECTOR_ENTRIES, "entry 1"),
    ("prepare", "v.json", '{"n": 2, "entries": [%s, %s, %s, {"magnitude": '
     'Infinity, "phase": 0.0}]}' % ((_VECTOR_ENTRIES,) * 3), "entry 3"),
    ("prepare", "v.json", '{"n": 1, "entries": [%s,]}' % _VECTOR_ENTRIES,
     "line 1"),
    ("prepare", "v.csv", "index,magnitude,phase\n0,1,0\n1,-1,0\n", "entry 1"),
    ("prepare", "v.json", '{"n": 1, "entries": [{"magnitude": true, "phase": 0.0}, '
     '%s]}' % _VECTOR_ENTRIES, "entry 0: magnitude true"),
    ("prepare", "v.json", '{"n": 1, "entries": [%s, {"magnitude": 1.0, '
     '"phase": "0"}]}' % _VECTOR_ENTRIES, 'entry 1: phase "0"'),
    ("prepare", "v.json", '{"n": 1.7, "entries": [%s, %s]}' % ((_VECTOR_ENTRIES,) * 2),
     "n 1.7"),
    ("prepare", "v.json", '{"n": true, "entries": [%s, %s]}' % ((_VECTOR_ENTRIES,) * 2),
     "n true"),
    ("synth-diag", "p.json", '{"n": 1, "phases": [0.5, false]}', "entry 1: phase false"),
    ("synth-diag", "p.json", '{"n": %d, "phases": [0.5, 1.0]}' % 10 ** 30,
     "n=%d" % 10 ** 30),
    ("prepare", "v.csv", "index,magnitude,phase\n0,1.0,0.0\n1,1.0,0.0 caf\xe9\n",
     "line 3: byte 0xe9 is not UTF-8"),
    ("synth-diag", "p.csv", "\xef\xbb\xbf0,0.5\n\xe91,1.0\n",
     "line 2: byte 0xe9 is not UTF-8"),
    ("prepare", "v.json", '{"n": 1, "entries": %s}' % _DEEP, "malformed file"),
    ("synth-diag", "p.json", '{"n": 1, "phases": [0.5, %s]}' % _DEEP, "malformed file"),
    ("prepare", "v.json", '{"n": 1, "entries": [%s, {"magnitude": %s, "phase": 0.0}]}'
     % (_VECTOR_ENTRIES, _HUGE), "entry 1: magnitude is an integer too large for a float"),
    ("synth-diag", "p.json", '{"n": 1, "phases": [%s, 0.5]}' % _HUGE,
     "entry 0: phase is an integer too large for a float"),
    ("synth-diag", "p.json", '{"n": 1, "phases": [-3.0, 0.5]}',
     "entry 0: phase -3.0 outside [0, 2*pi)"),
    ("synth-diag", "p.csv", "1,0.5\n0,7.0\n", "entry 0: phase 7.0 outside [0, 2*pi)"),
    ("synth-diag", "p.csv", "0,0.5\n1,%s\n" % ("1" * 200_000),
     "row 2: field larger than field limit"),
    # Bad values and rows are quoted only up to a fixed prefix.
    ("synth-diag", "p.json", '{"n": 1, "phases": [0.5, "%s"]}' % _LONG_TEXT,
     'entry 1: phase "%s... is not a number' % _LONG_TEXT[:59]),
    ("synth-diag", "p.csv", "0,0.5\n1,%s\n" % _LONG_TEXT,
     "row 2: phase '%s... is not a number" % _LONG_TEXT[:59]),
    ("synth-diag", "p.csv", "0,0.5\n%s,0.2\n" % _LONG_TEXT,
     "row 2: index '%s... is not an integer" % _LONG_TEXT[:59]),
    ("synth-diag", "p.csv", "0,0.5\n1,0.2%s\n" % (",0" * 50_000),
     "row 2: ['1', '0.2', '0', '0', '0', '0', '0', '0', '0', '0', '0', '0... "
     "needs index,phase"),
    ("synth-diag", "p.json", '{"n": 1, "phases": [%s, 0.5]}' % _LONG_DIGITS,
     "entry 0: phase is an integer too large for a float"),
    ("synth-diag", "p.json", '{"n": %s, "phases": [0.5, 1.0]}' % _LONG_DIGITS,
     "expected 2^n >= 2 entries for n=%s..., got 2" % _LONG_DIGITS[:60]),
    # An integer index past int()'s digit limit is outside the range, and an
    # n within the limit is quoted only up to the same prefix.
    ("synth-diag", "p.csv", "0,0.5\n%s,0.2\n" % _LONG_DIGITS,
     "row 2: index %s... outside [0, 2)" % _LONG_DIGITS[:60]),
    ("synth-diag", "p.json", '{"n": %s, "phases": [0.5, 1.0]}' % ("9" * 4000),
     "expected 2^n >= 2 entries for n=%s..., got 2" % ("9" * 60)),
], ids=["index-out-of-range", "duplicate-index", "negative-index",
        "non-integer-index", "empty-first-index", "letter-first-index",
        "fractional-first-index", "nan-magnitude", "infinite-magnitude",
        "invalid-json", "negative-magnitude", "boolean-magnitude", "string-phase",
        "fractional-n", "boolean-n", "boolean-phase", "huge-n", "latin-1-csv",
        "latin-1-after-bom", "deep-json", "deep-json-phases", "huge-integer-magnitude",
        "huge-integer-phase", "phase-below-zero", "csv-phase-past-two-pi",
        "csv-field-past-the-csv-limit", "long-json-string", "long-csv-cell",
        "long-csv-index", "long-csv-row", "long-integer-phase", "long-integer-n",
        "long-integer-csv-index", "long-n-within-the-digit-limit"])
def test_malformed_input_names_file_and_entry(tmp_path, capsys, command, name,
                                              content, where):
    path = tmp_path / name
    # Latin-1 writes each character below 256 as that one byte, so a case
    # can hold bytes that are not UTF-8.
    path.write_text(content, encoding="latin-1")
    if command == "prepare":
        argv = ["prepare", str(path), "--mode", "det", "--epsilon", "0.1"]
    else:
        argv = ["synth-diag", str(path), "--m", "2"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert str(path) in err and where in err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "np.float64" not in err and "set_int_max_str_digits" not in err
    assert len(err.replace(str(path), "").encode()) <= 200


def test_csv_index_long_only_by_its_leading_zeros_is_read(tmp_path, capsys):
    # Past int()'s digit limit by its zeros alone, the index is 1.
    path = tmp_path / "p.csv"
    path.write_text("0,0.5\n%s1,0.2\n" % ("0" * 5000))
    assert main(["synth-diag", str(path), "--m", "2"]) == 0
    assert "reconstruction exact" in capsys.readouterr().out


def test_deterministic_epsilon_on_one_qubit_prepares_at_width_one(tmp_path):
    # One qubit runs no estimation round, so its bound is 0 at every width
    # and the least, t = 1, gives the root rotation and an idle register.
    vec = write_vector(tmp_path / "one.json", [0.6, 0.8], [0.5, 0.0])
    report_path = tmp_path / "r.json"
    for route in ("--fast-path", "--full-circuit"):
        assert main(["prepare", str(vec), "--mode", "det", "--epsilon", "0.1", route,
                     "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert (report["t"], report["qubits"], report["bound_satisfied"]) == (1, 2, True)
        assert report["distance_to_target"] <= 0.1


@pytest.mark.parametrize("command, content", [
    ("prepare", {"n": 1, "entries": [{"magnitude": 0.6, "phase": 0.5},
                                     {"magnitude": 0.8, "phase": 0.0}]}),
    ("synth-diag", {"n": 1, "phases": [0.5, 1.0]}),
])
def test_json_inputs_may_start_with_a_byte_order_mark(tmp_path, capsys, command, content):
    plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
    plain.write_text(json.dumps(content), encoding="utf-8")
    marked.write_text("\ufeff" + json.dumps(content), encoding="utf-8")
    outputs = []
    for path in (plain, marked):
        argv = [command, str(path), *(["--mode", "prob", "--t", "4", "--t-prime", "3"]
                                      if command == "prepare" else ["--m", "4"])]
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("argv, named", [
    (["prepare", "--mode", "det", "--t", "6", "--t-prime", "1024", "--fast-path"],
     "phase_bits 1024 exceeds the limit 1021"),
    (["prepare", "--mode", "det", "--t", "6", "--t-prime", "1022", "--fast-path"],
     "phase_bits 1022 exceeds the limit 1021"),
    (["synth-diag", "--m", "1024"], "level 1024 exceeds the limit 1021"),
    (["prepare", "--mode", "prob", "--t", "64", "--t-prime", "4", "--fast-path"],
     "estimation_bits 64 exceeds the limit 63"),
    (["prepare", "--mode", "prob", "--epsilon", "1e-300", "--fast-path"],
     "estimation_bits 1004 exceeds the limit 63"),
    (["prepare", "--mode", "det", "--epsilon", "5e-324", "--fast-path"],
     "estimation_bits 1079 exceeds the limit 63"),
], ids=["t-prime-1024", "t-prime-1022", "m-1024", "t-64", "epsilon-1e-300",
        "epsilon-subnormal"])
def test_oversized_widths_exit_one_naming_the_limit(tmp_path, capsys, argv, named):
    # A width past its limit is refused by name, never left to overflow into
    # a traceback or (t' = 1022) into NaN amplitudes.
    if argv[0] == "prepare":
        path = write_vector(tmp_path / "v.json", [1, 2, 3, 4], [0.5, 1.0, 6.0, 3.0])
    else:
        path = write_phases(tmp_path / "p.json", [0.5, 1.0, 6.0, 3.0])
    assert main([argv[0], str(path), *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err


@pytest.mark.parametrize("argv, refusal", [
    (["prepare", "--mode", "det", "--t", "64", "--t-prime", "3"],
     "--t 64 --t-prime 3: estimation_bits 64 exceeds the limit 63"),
    (["prepare", "--mode", "det", "--t", "3", "--t-prime", "1022"],
     "--t 3 --t-prime 1022: phase_bits 1022 exceeds the limit 1021"),
    (["prepare", "--mode", "det", "--epsilon", "1e-300"],
     "--epsilon 1e-300: estimation_bits 1001 exceeds the limit 63"),
    (["prepare", "--mode", "prob", "--epsilon", "0.1", "--multiplier", "2"],
     "--multiplier 2: probabilistic mode fixes angle_multiplier = 4"),
    (["prepare", "--mode", "prob", "--t", "6", "--t-prime", "3", "--multiplier", "1"],
     "--multiplier 1: probabilistic mode fixes angle_multiplier = 4"),
    (["synth-diag", "--m", "2000"], "--m 2000: level 2000 exceeds the limit 1021"),
], ids=["t-64", "t-prime-1022", "epsilon-1e-300", "epsilon-multiplier", "t-multiplier",
        "m-2000"])
def test_width_refusals_name_the_flags_that_set_them(tmp_path, capsys, argv, refusal):
    # The flag and its value come first, then the library's own reason.
    if argv[0] == "prepare":
        path = write_vector(tmp_path / "v.json", [1, 2, 3, 4], [0.5, 1.0, 6.0, 3.0])
    else:
        path = write_phases(tmp_path / "p.json", [0.5, 1.0, 6.0, 3.0])
    assert main([argv[0], str(path), *argv[1:]]) == 1
    assert capsys.readouterr().err == f"usage error: {refusal}\n"


@pytest.mark.parametrize("mode, widths", [
    ("det", ["--t", "6", "--t-prime", "1021"]),
    ("prob", ["--t", "63", "--t-prime", "4"]),
], ids=["t-prime-1021", "t-63"])
def test_widths_at_the_limit_prepare_within_the_bound(tmp_path, mode, widths):
    vec = write_vector(tmp_path / "v.json", [1, 2, 3, 4], [0.5, 1.0, 6.0, 3.0])
    report_path = tmp_path / "r.json"
    assert main(["prepare", str(vec), "--mode", mode, *widths, "--fast-path",
                 "--report", str(report_path), "--emit", str(tmp_path / "g.txt")]) == 0
    report = json.loads(report_path.read_text())
    assert report["distance_to_target"] <= report["theoretical_bound"]


@pytest.mark.parametrize("argv, named", [
    (["--suite", "synth", "--n", "-1"], "--n must be >= 1"),
    (["--suite", "synth", "--n", "0"], "--n must be >= 1"),
    (["--suite", "bounds", "--n", "0"], "--n must be >= 1"),
    (["--suite", "bounds", "--trials", "-3"], "--trials must be >= 0"),
    (["--suite", "bounds", "--n", "40"], "--n 40: estimation_bits"),
    (["--suite", "bounds", "--n", "8"], "--n 8: simulating 30 qubits"),
    (["--suite", "dualpath", "--n", "40"], "--n 40: simulating 49 qubits"),
    (["--suite", "synth", "--n", "40"], "--n 40: simulating 40 qubits"),
], ids=["negative-n", "synth-n-0", "bounds-n-0", "negative-trials", "bounds-n-40",
        "bounds-n-8", "dualpath-n-40", "synth-n-40"])
def test_verify_refuses_bad_sizes_before_allocating(monkeypatch, capsys, argv, named):
    # 8 GiB of physical memory, whatever the machine has.
    sizes = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1 << 21}
    monkeypatch.setattr(prepare_module.os, "sysconf", sizes.__getitem__)

    def no_generator(*args, **kwargs):
        raise AssertionError("verify drew a random generator before refusing")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    assert main(["verify", *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and named in err
    assert "--fast-path" not in err


def test_prepare_report_agrees_with_verify_bounds_row(tmp_path, capsys):
    rows_path = tmp_path / "rows.jsonl"
    assert main(["verify", "--suite", "bounds", "--n", "2", "--trials", "1",
                 "--seed", "11", "--out", str(rows_path)]) == 0
    rows = [json.loads(line) for line in rows_path.read_text().splitlines()]
    # The suite's first vector is real, evaluated first at t = 6, t' = 1
    # against the analytic bound; its second is complex, evaluated last in
    # probabilistic mode at the widths for epsilon = 0.5.
    rng = np.random.default_rng(11)
    real = analysis.random_target_vector(2, rng, complex_phases=False)
    full = analysis.random_target_vector(2, rng)
    cases = [(real, rows[0], ["--mode", "det", "--t", "6", "--t-prime", "1"]),
             (full, rows[-1], ["--mode", "prob", "--epsilon", "0.5"])]
    for index, (x, row, options) in enumerate(cases):
        vec = write_vector(tmp_path / f"v{index}.json", x.magnitudes, x.phases)
        report_path = tmp_path / f"report{index}.json"
        assert main(["prepare", str(vec), *options,
                     "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert (report["t"], report["t_prime"], report["epsilon"]) == (
            row["config"]["t"], row["config"]["t_prime"], row["config"]["epsilon"])
        assert report["distance_to_target"] == row["measured_distance"]
        assert report["theoretical_bound"] == row["theoretical_bound"]
        assert report["success_probability"] == row["measured_success_probability"]
        assert report["success_lower_bound"] == row["success_lower_bound"]
        assert report["bound_satisfied"] is row["satisfied"] is True
    capsys.readouterr()


@pytest.mark.parametrize("command", ["det", "prob", "synth-diag"])
def test_emitted_gate_lists_are_the_reference_peel_bytes(tmp_path, command):
    # The emitted files must equal, byte for byte, the gate lists whose phase
    # gates come from the reference peel loop.
    rng = np.random.default_rng(66)
    n = 6
    magnitudes, phases = rng.uniform(0.1, 1.0, 1 << n), rng.uniform(0, TAU, 1 << n)
    emitted, expected = tmp_path / "emitted.txt", tmp_path / "expected.txt"
    if command == "synth-diag":
        path = str(write_phases(tmp_path / "p.json", phases))
        assert main(["synth-diag", path, "--m", "10", "--emit", str(emitted)]) == 0
        circuit = Circuit(n, reference_peel(quantize(load_phases(path), 10)).product_gates())
    else:
        path = str(write_vector(tmp_path / "v.json", magnitudes, phases))
        assert main(["prepare", path, "--mode", command, "--epsilon", "0.1", "--fast-path",
                     "--report", str(tmp_path / "r.json"), "--emit", str(emitted)]) == 0
        x = load_vector(path)
        cfg = required_precision(n, 0.1, DETERMINISTIC if command == "det" else PROBABILISTIC)
        built = build(x, cfg)
        rounds = built.circuit.gates[:built.phase_start]
        stage = reference_phase_stage(x, cfg.phase_bits, built.registers.data)
        assert len(stage) > 1 << n
        circuit = Circuit(built.circuit.num_qubits, rounds + stage)
    save_circuit(expected, circuit, n)
    assert emitted.read_bytes() == expected.read_bytes()


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("argv, golden", [
    (["prepare", "vector2.json", "--mode", "det", "--fast-path", "--t", "3",
      "--t-prime", "3"], "prepare_det.txt"),
    (["prepare", "vector2.json", "--mode", "prob", "--fast-path", "--t", "3",
      "--t-prime", "3"], "prepare_prob.txt"),
    (["synth-diag", "phases3.json", "--m", "3"], "synth_diag.txt"),
    (["synth-diag", "phases3.json", "--m", "3", "--sparse"], "synth_diag_sparse.txt"),
], ids=["det", "prob", "synth-diag", "synth-diag-sparse"])
def test_emitted_gate_lists_are_the_golden_bytes(tmp_path, capsys, argv, golden):
    # Committed files, not a second save_circuit: a change to how any gate is
    # written, the QFT expansion included, fails here.
    emitted = tmp_path / golden
    args = [str(DATA / arg) if arg.endswith(".json") else arg for arg in argv]
    assert main([*args, "--emit", str(emitted)]) == 0
    assert emitted.read_bytes() == (DATA / golden).read_bytes()
