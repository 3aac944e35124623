"""Dense complex linear algebra for few-qubit density-matrix simulation.

Convention: qubit ``i`` occupies bit ``i`` of the computational-basis
index, so a two-qubit basis label reads |q1 q0> and the index is
2*q1 + q0.  States and operators are plain complex128 ``numpy`` arrays;
the functions here validate the physical invariants (unit norm,
Hermiticity, unit trace, positivity up to roundoff) rather than hiding
the arrays behind wrapper classes.
"""

from __future__ import annotations

import numpy as np

COMPLEX = np.complex128

MAX_QUBITS = 10

NORM_ATOL = 1e-10         # statevector norm deviation
DM_NORM_ATOL = 1e-8       # norm deviation accepted when forming a density matrix
TRACE_ATOL = 1e-10
HERMITICITY_ATOL = 1e-12
EIGENVALUE_FLOOR = -1e-10  # roundoff-sized negative eigenvalues are tolerated
PROB_SUM_ATOL = 1e-9


def n_qubits_of(dim: int) -> int:
    """Qubit count for a power-of-two dimension; raises ValueError otherwise."""
    n = int(dim).bit_length() - 1
    if dim <= 0 or (1 << n) != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    if n > MAX_QUBITS:
        raise ValueError(f"{n} qubits exceeds the supported maximum of {MAX_QUBITS}")
    return n


def validate_statevector(sv: np.ndarray, atol: float = NORM_ATOL) -> np.ndarray:
    sv = np.asarray(sv, dtype=COMPLEX).reshape(-1)
    n_qubits_of(sv.size)
    if not np.all(np.isfinite(sv)):
        raise ValueError("statevector contains non-finite amplitudes")
    deviation = abs(float(np.vdot(sv, sv).real) - 1.0)
    if deviation > atol:
        raise ValueError(f"statevector norm deviates from 1 by {deviation:.3e}")
    return sv


def dm_from_statevector(sv: np.ndarray) -> np.ndarray:
    """Rank-one density matrix |psi><psi| from a normalized statevector."""
    sv = validate_statevector(sv, atol=DM_NORM_ATOL)
    return np.outer(sv, sv.conj())


def validate_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity up to roundoff tolerances."""
    rho = np.asarray(rho, dtype=COMPLEX)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    n_qubits_of(rho.shape[0])
    if not np.all(np.isfinite(rho)):
        raise ValueError("density matrix contains non-finite entries")
    herm = np.max(np.abs(rho - rho.conj().T))
    if herm > HERMITICITY_ATOL:
        raise ValueError(f"density matrix is not Hermitian (max deviation {herm:.3e})")
    trace_dev = abs(float(np.trace(rho).real) - 1.0)
    if trace_dev > TRACE_ATOL:
        raise ValueError(f"density matrix trace deviates from 1 by {trace_dev:.3e}")
    min_eig = float(np.linalg.eigvalsh(rho)[0])
    if min_eig < EIGENVALUE_FLOOR:
        raise ValueError(f"density matrix has negative eigenvalue {min_eig:.3e}")
    return rho


def apply_unitary(rho: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Conjugate a density matrix: rho -> u rho u^dagger."""
    rho = np.asarray(rho, dtype=COMPLEX)
    u = np.asarray(u, dtype=COMPLEX)
    if rho.shape != u.shape:
        raise ValueError(f"dimension mismatch: state {rho.shape}, unitary {u.shape}")
    return u @ rho @ u.conj().T


def basis_probabilities(rho: np.ndarray) -> np.ndarray:
    """Computational-basis outcome distribution, the real diagonal of rho."""
    rho = np.asarray(rho, dtype=COMPLEX)
    diag = np.real(np.diag(rho)).copy()
    if diag.min() < EIGENVALUE_FLOOR:
        raise ValueError(f"negative basis probability {diag.min():.3e}")
    total = float(diag.sum())
    if abs(total - 1.0) > PROB_SUM_ATOL:
        raise ValueError(f"basis probabilities sum to {total}, not 1")
    return np.clip(diag, 0.0, 1.0)


def reset_qubit(rho: np.ndarray, qubit: int) -> np.ndarray:
    """Replace one qubit's state with |0>: Kraus maps |0><b| for b in {0,1}."""
    rho = np.asarray(rho, dtype=COMPLEX)
    dim = rho.shape[0]
    n = n_qubits_of(dim)
    if qubit < 0 or qubit >= n:
        raise ValueError(f"qubit {qubit} out of range for {n} qubits")
    idx = np.arange(dim)
    i0 = idx[(idx >> qubit) & 1 == 0]
    i1 = i0 | (1 << qubit)
    out = np.zeros_like(rho)
    out[np.ix_(i0, i0)] = rho[np.ix_(i0, i0)] + rho[np.ix_(i1, i1)]
    return out


def random_density_matrix(rng: np.random.Generator, n_qubits: int) -> np.ndarray:
    """Full-rank random state from a normalized Ginibre matrix G G^dagger."""
    dim = 1 << n_qubits
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real
