"""qprep: amplitude encoding via quantum phase estimation.

Compiles a classical complex vector into explicit gate sequences (deterministic
and probabilistic schemes), synthesizes the required diagonal unitaries into
multi-controlled phase gates, simulates everything exactly, and verifies the
analytic error and success-probability bounds.
"""

from .dyadic import PhaseSpec, quantize
from .gateformat import qft_circuit
from .prepare import (
    DETERMINISTIC,
    PROBABILISTIC,
    BuildResult,
    PrecisionConfig,
    TargetVector,
    build,
    build_phase_stage,
    compute_angles,
    compute_marginals,
    fast_path_prepare,
    required_precision,
    simulate_preparation,
)
from .sim import (
    Circuit,
    ControlledZPow,
    DiagonalOracle,
    Gate,
    Hadamard,
    PauliX,
    QFTBlock,
    RotationY,
    StateVector,
    apply_circuit,
    new_basis_state,
    project_measure,
)
from .synth import (
    SynthesisResult,
    count_gate_list,
    peel_synthesize,
    reconstruct,
    sparse_synthesize,
)

__version__ = "0.1.0"
