"""Coherently controlled two-qubit open systems in the coherence-vector picture.

The package simulates a pair of interacting qubits where only the first
one (A) sees the controls and the environment, and analyzes when the
reduced state of the second one (B) can be kept pure.
"""

__version__ = "0.1.0"

from .coherence import (
    embed_factorized,
    factorization_residual,
    from_coherence,
    is_density_image,
    lambda_basis,
    physicality_defect,
    to_coherence,
)
from .dynamics import (
    BoundaryStateError,
    ControlLaw,
    PhysicalityError,
    Trajectory,
    integrate,
    purification_scan,
    purity_rate_b,
    random_control_laws,
    write_trajectory_csv,
    write_trajectory_json,
)
from .generator import (
    GeneratorBlocks,
    assemble_blocks,
    assemble_generator,
    control_generators,
    dissipator_blocks,
    generator,
    numeric_generator,
    t_matrices,
)
from .model import TwoQubitModel, load_model, save_model
from .protection import (
    Coupling,
    IncompatibleDissipationError,
    axis1_escape_report,
    closed_form_drift,
    compatibility,
    dispersive_invariant_report,
    dispersive_zero_pattern,
    make_model,
    protected_run,
    protecting_control,
    protecting_law,
    reduced_b_generator,
    resonant_obstruction_report,
    transcription_report,
)
from .quantum import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    gksl_rhs,
    is_density_matrix,
    partial_trace_a,
    partial_trace_b,
    pauli,
    purity,
    tensor,
    validate_density_matrix,
)

__all__ = [name for name in dir() if not name.startswith("_")]
