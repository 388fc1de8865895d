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
    drift_batch,
    make_model,
    protecting_control,
    protecting_law,
    reduced_b_generator,
    resonant_obstruction_report,
    transcription_report,
)
from .quantum import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    pauli,
    validate_density_matrix,
)

# The one list of public names, in the order of the README's "Public API" list.
__all__ = [
    "BoundaryStateError",
    "ControlLaw",
    "Coupling",
    "IncompatibleDissipationError",
    "PhysicalityError",
    "SIGMA_MINUS",
    "SIGMA_PLUS",
    "Trajectory",
    "TwoQubitModel",
    "assemble_blocks",
    "assemble_generator",
    "axis1_escape_report",
    "closed_form_drift",
    "compatibility",
    "control_generators",
    "dispersive_invariant_report",
    "dispersive_zero_pattern",
    "dissipator_blocks",
    "drift_batch",
    "embed_factorized",
    "factorization_residual",
    "from_coherence",
    "generator",
    "integrate",
    "lambda_basis",
    "load_model",
    "make_model",
    "numeric_generator",
    "pauli",
    "physicality_defect",
    "protecting_control",
    "protecting_law",
    "purification_scan",
    "purity_rate_b",
    "random_control_laws",
    "reduced_b_generator",
    "resonant_obstruction_report",
    "save_model",
    "t_matrices",
    "to_coherence",
    "transcription_report",
    "validate_density_matrix",
    "write_trajectory_csv",
    "write_trajectory_json",
]
