"""Physical model of the controlled qubit pair.

The first qubit (A) carries the drift ``omega_a * sigma_3``, three
control Hamiltonians (``sigma_i`` by default) and all jump operators;
the second qubit (B) evolves under ``omega_b * sigma_3`` and is touched
only through the coupling ``H_I = (1/2) sum_ij lam[i, j] sigma_i x sigma_j``.
Jump operators are supplied as 2x2 traceless matrices acting on A and
are embedded as ``ell x I_2``; rates are absorbed into their magnitude.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .quantum import IDENTITY_2, hermiticity_defect, pauli

#: largest ``|trace|`` of an operator, and Hermiticity defect of a control Hamiltonian, a model takes
_TRACELESS_TOL = 1e-12
#: entrywise distance within which control Hamiltonians count as the Pauli set
_DEFAULT_CONTROLS_TOL = 1e-12


def default_control_hams() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The standard control set ``(sigma_1, sigma_2, sigma_3)``."""
    return (pauli(1), pauli(2), pauli(3))


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class TwoQubitModel:
    """Immutable container for the drift, controls, coupling and noise.

    Parameters
    ----------
    omega_a, omega_b : float
        Drift coefficients; the local Hamiltonians are
        ``omega_a * sigma_3`` on A and ``omega_b * sigma_3`` on B.
    lam : (3, 3) real array
        Coupling matrix of ``H_I = (1/2) sum lam[i, j] sigma_i x sigma_j``.
    jumps : sequence of (2, 2) arrays
        Traceless jump operators on qubit A.  May be empty.
    control_hams : sequence of three (2, 2) arrays, optional
        Hermitian traceless conjugate matrices of the three control
        channels; defaults to the Pauli matrices.
    """

    omega_a: float
    omega_b: float
    lam: np.ndarray
    jumps: tuple = ()
    control_hams: tuple = field(default_factory=default_control_hams)

    def __post_init__(self):
        omega_a, omega_b = float(self.omega_a), float(self.omega_b)
        lam = np.asarray(self.lam)
        if np.iscomplexobj(lam) and np.any(lam.imag):  # a cast to float would drop it with a warning only
            raise ValueError(f"lam must be real, got imaginary parts {lam.imag.tolist()}")
        lam = np.asarray(lam.real, dtype=float)
        if lam.shape != (3, 3):
            raise ValueError(f"coupling matrix must be 3x3, got {lam.shape}")
        for name, value in (("omega_a", omega_a), ("omega_b", omega_b), ("lam", lam)):
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite, got {value}")
        jumps = tuple(np.asarray(j, dtype=complex) for j in self.jumps)
        ctrls = tuple(np.asarray(h, dtype=complex) for h in self.control_hams)
        if len(ctrls) != 3:
            raise ValueError("exactly three control Hamiltonians are required")
        for name, mats, hermitian in (("jump operator", jumps, False), ("control Hamiltonian", ctrls, True)):
            for k, m in enumerate(mats):
                if m.shape != (2, 2):
                    raise ValueError(f"{name} {k} must be 2x2, got {m.shape}")
                if not np.all(np.isfinite(m)):
                    raise ValueError(f"{name} {k} must be finite")
                if hermitian and hermiticity_defect(m) > _TRACELESS_TOL:
                    raise ValueError(f"{name} {k} is not Hermitian")
                if abs(np.trace(m)) > _TRACELESS_TOL:
                    raise ValueError(f"{name} {k} is not traceless")
        object.__setattr__(self, "omega_a", omega_a)
        object.__setattr__(self, "omega_b", omega_b)
        object.__setattr__(self, "lam", _freeze(lam))
        object.__setattr__(self, "jumps", tuple(_freeze(j) for j in jumps))
        object.__setattr__(self, "control_hams", tuple(_freeze(h) for h in ctrls))

    # -- matrix builders -------------------------------------------------

    def hamiltonian_a(self, u) -> np.ndarray:
        """2x2 Hamiltonian of qubit A including drift and controls; ``ValueError`` on a non-finite ``u``."""
        u = np.asarray(u, dtype=float).reshape(3)
        if not np.all(np.isfinite(u)):
            raise ValueError(f"control value u must be finite, got {u.tolist()}")
        h = self.omega_a * pauli(3)
        for ui, hc in zip(u, self.control_hams):
            h = h + ui * hc
        return h

    def hamiltonian_b(self) -> np.ndarray:
        return self.omega_b * pauli(3)

    def interaction(self) -> np.ndarray:
        """4x4 coupling Hamiltonian ``(1/2) sum lam[i, j] sigma_i x sigma_j``."""
        h = np.zeros((4, 4), dtype=complex)
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                lij = self.lam[i - 1, j - 1]
                if lij != 0.0:
                    h += 0.5 * lij * np.kron(pauli(i), pauli(j))
        return h

    def hamiltonian(self, u) -> np.ndarray:
        """Full 4x4 Hamiltonian at control value ``u``."""
        return (
            np.kron(self.hamiltonian_a(u), IDENTITY_2)
            + self.interaction()
            + np.kron(IDENTITY_2, self.hamiltonian_b())
        )

    def full_jumps(self) -> list[np.ndarray]:
        """Jump operators embedded on the composite space as ``ell x I_2``."""
        return [np.kron(ell, IDENTITY_2) for ell in self.jumps]

    def has_default_controls(self) -> bool:
        return all(
            np.max(np.abs(h - pauli(i + 1))) <= _DEFAULT_CONTROLS_TOL
            for i, h in enumerate(self.control_hams)
        )

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        doc = {
            "omega_a": self.omega_a,
            "omega_b": self.omega_b,
            "lambda": self.lam.tolist(),
            "jumps": [_complex_matrix_to_json(j) for j in self.jumps],
        }
        if not self.has_default_controls():
            doc["controls"] = [_complex_matrix_to_json(h) for h in self.control_hams]
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "TwoQubitModel":
        kwargs = {}
        if "controls" in doc:
            kwargs["control_hams"] = tuple(
                _complex_matrix_from_json(h) for h in doc["controls"]
            )
        return cls(
            omega_a=doc["omega_a"],
            omega_b=doc["omega_b"],
            lam=doc["lambda"],
            jumps=tuple(_complex_matrix_from_json(j) for j in doc.get("jumps", [])),
            **kwargs,
        )

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def hash_hex(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]


def _complex_matrix_to_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


def _complex_matrix_from_json(rows: list) -> np.ndarray:
    return np.array(
        [[complex(entry[0], entry[1]) for entry in row] for row in rows],
        dtype=complex,
    )


def load_model(path) -> TwoQubitModel:
    """Read a model from a JSON document (see :meth:`TwoQubitModel.to_dict`)."""
    with open(path, "r", encoding="utf-8") as fh:
        return TwoQubitModel.from_dict(json.load(fh))


def save_model(model: TwoQubitModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
