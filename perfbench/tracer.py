"""Per-layer timing of qprep from outside the program.

The layers are the package's modules.  ``Tracer.install`` wraps every public
function of each module at every name it is bound to: ``cli``, ``prepare``
and ``analysis`` import functions by name, so ``qprep.cli.build`` and
``qprep.prepare.build`` each need the wrapper.  Modules are reached through
``importlib``, because ``qprep.prepare`` as an attribute of the package is
the re-exported function, not the module.

Coarse functions become spans: calls, inclusive time and self time (the
span's time minus its traced children) are summed per name in memory.
Functions called once per gate or per grid entry are only counted, so the
wrapper cost stays small next to the work.  ``apply_gate`` is a span named
by the gate kind.  Counts made while the simulator runs carry the ``sim``
prefix; ``validate_gate`` calls made while building circuits are counted
apart from them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

LAYERS = ("cli", "prepare", "sim", "synth", "dyadic", "gateformat", "analysis")

# Called per gate or per entry: counted, never timed.
COUNTED = ("sim.validate_gate", "dyadic.floor_fraction", "gateformat.as_dyadic")
# Per-gate helpers and formatting whose time belongs to the caller's span.
# qft_circuit builds a gate list (inside the builders), not a simulation.
UNWRAPPED = ("sim.gate_qubits", "sim.inverse_gate", "sim.qft_circuit",
             "gateformat.format_float", "gateformat.gate_lines",
             "gateformat.circuit_lines", "gateformat.write_circuit",
             "gateformat.parse_gate_line", "cli.build_parser")
SIM_SPANS = ("sim.apply_circuit", "sim.apply_gate", "sim.new_basis_state",
             "sim.project_measure")
GATE_KINDS = ("H", "X", "RY", "CRY", "CZP", "DIAG", "QFT")
BYTES_PER_AMPLITUDE = 16  # complex128


@dataclass
class Span:
    calls: int = 0
    inclusive: float = 0.0
    own: float = 0.0


@dataclass
class JobTrace:
    """Everything one traced job recorded."""

    spans: dict[str, Span] = field(default_factory=dict)
    counts: Counter = field(default_factory=Counter)
    maxima: Counter = field(default_factory=Counter)
    sim_top_s: float = 0.0

    def span(self, name: str) -> Span:
        return self.spans.get(name) or Span()


class Tracer:
    def __init__(self) -> None:
        self._stack: list[list[float]] = []
        self._sim_depth = 0
        self.job = JobTrace()
        modules = {layer: importlib.import_module(f"qprep.{layer}")
                   for layer in LAYERS}
        namespaces = [importlib.import_module("qprep"), *modules.values()]
        self._patches: list[tuple[object, str, object, object]] = []
        for layer, module in modules.items():
            for name, fn in vars(module).items():
                qualified = f"{layer}.{name}"
                # A generator's work runs after the call returns, outside
                # any span around the call; its caller's span covers it.
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or inspect.isgeneratorfunction(fn)
                        or fn.__module__ != module.__name__
                        or qualified in UNWRAPPED):
                    continue
                wrapper = self._wrap(qualified, fn)
                for namespace in namespaces:
                    for attr, value in list(vars(namespace).items()):
                        if value is fn:
                            self._patches.append((namespace, attr, fn, wrapper))
        state_vector = modules["sim"].StateVector
        self._patches.append((state_vector, "__post_init__",
                              state_vector.__post_init__,
                              self._wrap_state_vector(state_vector.__post_init__)))

    def install(self) -> None:
        for namespace, attr, _, wrapper in self._patches:
            setattr(namespace, attr, wrapper)

    def uninstall(self) -> None:
        for namespace, attr, original, _ in self._patches:
            setattr(namespace, attr, original)

    def take(self) -> JobTrace:
        """The record of the job so far; the next job starts empty."""
        job, self.job = self.job, JobTrace()
        return job

    def _wrap(self, qualified: str, fn):
        if qualified in COUNTED:
            return self._wrap_counted(qualified, fn)
        if qualified == "sim.apply_gate":
            return self._wrap_apply_gate(fn)
        after = _AFTER.get(qualified)
        sim = qualified in SIM_SPANS
        return self._wrap_span(fn, lambda args: qualified, after, sim)

    def _wrap_span(self, fn, name_of, after, sim):
        stack = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            self._sim_depth += sim
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self._sim_depth -= sim
                if stack:
                    stack[-1][0] += elapsed
                if sim and not self._sim_depth:
                    self.job.sim_top_s += elapsed
                record = self.job.spans.setdefault(name_of(args), Span())
                record.calls += 1
                record.inclusive += elapsed
                record.own += elapsed - frame[0]
            if after is not None:
                after(self.job, result, args, kwargs)
            return result

        return span

    def _wrap_apply_gate(self, fn):
        def name_of(args):
            return f"sim.gate.{_gate_kind(args[1])}"

        def after(job, result, args, kwargs):
            kind = _gate_kind(args[1])
            amplitudes = 1 << result.num_qubits
            job.counts[f"sim.gate.{kind}.calls"] += 1
            job.counts["sim.amplitudes"] += amplitudes
            job.counts["sim.bytes_moved.computed"] += 2 * BYTES_PER_AMPLITUDE * amplitudes

        return self._wrap_span(fn, name_of, after, sim=True)

    def _wrap_counted(self, qualified: str, fn):
        inside = f"{qualified}.calls"
        # Only validate_gate runs both in the simulator and while circuits
        # are built; the builders live in prepare.
        outside = inside.replace("sim.", "prepare.")

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.job.counts[inside if self._sim_depth else outside] += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap_state_vector(self, post_init):
        @functools.wraps(post_init)
        def counted(state):
            if self._sim_depth:
                self.job.counts["sim.statevector.created"] += 1
            maxima = self.job.maxima
            size = BYTES_PER_AMPLITUDE << state.num_qubits
            maxima["prepare.state_bytes_max"] = max(maxima["prepare.state_bytes_max"], size)
            return post_init(state)

        return counted


def _gate_kind(gate) -> str:
    kind = type(gate).__name__
    if kind == "RotationY":
        return "CRY" if gate.controls else "RY"
    return {"Hadamard": "H", "PauliX": "X", "ControlledZPow": "CZP",
            "DiagonalOracle": "DIAG", "QFTBlock": "QFT"}[kind]


def _after_build(job, result, args, kwargs):
    job.counts["prepare.circuit.gates"] += len(result.circuit.gates)
    job.maxima["prepare.circuit.qubits_max"] = max(
        job.maxima["prepare.circuit.qubits_max"], result.circuit.num_qubits)


def _after_peel(job, result, args, kwargs):
    job.counts["synth.gates"] += len(result.gates)
    job.counts["synth.gate_bound"] += result.level * ((1 << result.num_qubits) - 1)


def _after_sparse(job, result, args, kwargs):
    job.counts["synth.gates"] += len(result.gates)
    job.counts["synth.gate_bound"] += len(args[1]) * (2 * result.num_qubits + result.level)


def _after_save(job, result, args, kwargs):
    job.counts["gateformat.bytes_written"] += os.path.getsize(args[0])


_AFTER = {
    "prepare.build": _after_build,
    "synth.peel_synthesize": _after_peel,
    "synth.sparse_synthesize": _after_sparse,
    "gateformat.save_circuit": _after_save,
}


# (name, unit, better) of every per-layer metric, in report order.  Times
# are seconds per job, averaged over the traced jobs after the first; counts
# are exact and computed on the first job, so they repeat for a seed.
PER_LAYER = (
    [("sim.apply_circuit.s", "s", "lower")]
    + [(f"sim.gate.{kind}.s", "s", "lower") for kind in GATE_KINDS]
    + [(f"sim.gate.{kind}.calls", "count", "lower") for kind in GATE_KINDS]
    + [
        ("sim.amps_per_s", "1/s", "higher"),
        ("sim.bytes_moved.computed", "B", "lower"),
        ("sim.validate_gate.calls", "count", "lower"),
        ("sim.statevector.created", "count", "lower"),
        ("sim.project_measure.s", "s", "lower"),
        ("sim.job_share", "ratio", "lower"),
        ("prepare.compute_marginals.s", "s", "lower"),
        ("prepare.compute_angles.s", "s", "lower"),
        ("prepare.build.self_s", "s", "lower"),
        ("prepare.build_phase_stage.s", "s", "lower"),
        ("prepare.simulate_preparation.self_s", "s", "lower"),
        ("prepare.fast_path_prepare.s", "s", "lower"),
        ("prepare.circuit.gates", "count", "lower"),
        ("prepare.circuit.qubits_max", "count", "lower"),
        ("prepare.state_bytes_max", "B", "lower"),
        ("prepare.validate_gate.calls", "count", "lower"),
        ("synth.peel_synthesize.s", "s", "lower"),
        ("synth.sparse_synthesize.s", "s", "lower"),
        ("synth.reconstruct.s", "s", "lower"),
        ("synth.gates", "count", "lower"),
        ("synth.gate_bound", "count", "lower"),
        ("synth.gate_bound_ratio", "ratio", "lower"),
        ("dyadic.quantize.s", "s", "lower"),
        ("dyadic.floor_fraction.calls", "count", "lower"),
        ("gateformat.save_circuit.s", "s", "lower"),
        ("gateformat.bytes_written", "B", "lower"),
        ("gateformat.as_dyadic.calls", "count", "lower"),
        ("analysis.evaluate_bounds.self_s", "s", "lower"),
        ("cli.prepare.s", "s", "lower"),
        ("cli.synth_diag.s", "s", "lower"),
        ("cli.verify.s", "s", "lower"),
        ("cli.load_vector.s", "s", "lower"),
        ("cli.load_phases.s", "s", "lower"),
        ("cli.self_s", "s", "lower"),
        ("trace.job_ms.traced", "ms", "lower"),
        ("trace.job_ms.untraced", "ms", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
)

# Exact counts of the first job; the benchmark's test checks they repeat.
COUNTS = tuple(name for name, unit, _ in PER_LAYER if unit in ("count", "B"))


def layer_metrics(first: JobTrace, timed: list[JobTrace],
                  traced_ms: list[float], untraced_ms: list[float]) -> dict[str, float]:
    """Per-layer values from the first traced job (counts) and the timed
    traced jobs (seconds per job); ``traced_ms`` are those jobs' times and
    ``untraced_ms`` the times of the same inputs without the wrappers."""

    def per_job(name: str, own: bool = False) -> float:
        return sum(job.span(name).own if own else job.span(name).inclusive
                   for job in timed) / len(timed)

    counts = first.counts + first.maxima
    values = {name: counts[name] for name in COUNTS}
    values["sim.apply_circuit.s"] = per_job("sim.apply_circuit")
    for kind in GATE_KINDS:
        values[f"sim.gate.{kind}.s"] = per_job(f"sim.gate.{kind}", own=True)
    sim_s = per_job("sim.apply_circuit")
    amplitudes = sum(job.counts["sim.amplitudes"] for job in timed) / len(timed)
    values["sim.amps_per_s"] = amplitudes / sim_s if sim_s else 0.0
    values["sim.project_measure.s"] = per_job("sim.project_measure")
    values["sim.job_share"] = (sum(job.sim_top_s for job in timed)
                               / (sum(traced_ms) / 1e3))
    for name in ("compute_marginals", "compute_angles", "build_phase_stage",
                 "fast_path_prepare"):
        values[f"prepare.{name}.s"] = per_job(f"prepare.{name}")
    values["prepare.build.self_s"] = sum(
        per_job(f"prepare.{name}", own=True)
        for name in ("build", "build_deterministic", "build_probabilistic"))
    values["prepare.simulate_preparation.self_s"] = per_job(
        "prepare.simulate_preparation", own=True)
    for name in ("peel_synthesize", "sparse_synthesize", "reconstruct"):
        values[f"synth.{name}.s"] = per_job(f"synth.{name}")
    bound = counts["synth.gate_bound"]
    values["synth.gate_bound_ratio"] = counts["synth.gates"] / bound if bound else 0.0
    values["dyadic.quantize.s"] = per_job("dyadic.quantize")
    values["gateformat.save_circuit.s"] = per_job("gateformat.save_circuit")
    values["analysis.evaluate_bounds.self_s"] = per_job("analysis.evaluate_bounds",
                                                        own=True)
    for command in ("prepare", "synth_diag", "verify"):
        values[f"cli.{command}.s"] = per_job(f"cli.cmd_{command}")
    for name in ("load_vector", "load_phases"):
        values[f"cli.{name}.s"] = per_job(f"cli.{name}")
    cli_spans = {name for job in timed for name in job.spans if name.startswith("cli.")}
    values["cli.self_s"] = sum(per_job(name, own=True) for name in cli_spans)
    traced, untraced = statistics.median(traced_ms), statistics.median(untraced_ms)
    values["trace.job_ms.traced"] = traced
    values["trace.job_ms.untraced"] = untraced
    values["trace.overhead_frac"] = traced / untraced - 1.0
    return {name: values[name] for name, _, _ in PER_LAYER}
