"""Dense linear algebra and the constant channel maps of a one- or two-qubit register.

Every state here has 1 or 2 qubits (``MAX_QUBITS``): the circuits run on
two, and the channel checks also use one.  Qubit ``i`` occupies bit ``i``
of the computational-basis index, so a two-qubit basis label reads
|q1 q0>, the index is 2*q1 + q0, and qubit 0 is the right-hand kron
factor.  States and operators are plain complex128 ``numpy`` arrays; the
functions here validate the physical invariants (unit norm, Hermiticity,
unit trace, positivity up to roundoff) rather than hiding the arrays
behind wrapper classes.

A channel acts on the row-major ``vec`` of rho, ``rho.reshape(-1)``, whose
entry d*i + j is rho[i, j].  Then vec(K rho K^dag) = (K (x) K*) vec(rho),
which ``superop`` sums over Kraus operators.  Every channel of the
simulator is one of the constant maps below, built once at import, or a
weighted sum of them: depolarizing is (1 - p) id + p MIX, relaxation for
a duration d is POP + e^{-d/T1} DECAY + e^{-d/T2} COH.  DECAY and COH are
not channels on their own; the sum is one for T2 <= 2 T1.
"""

from __future__ import annotations

import numpy as np

COMPLEX = np.complex128
EYE2 = np.eye(2, dtype=COMPLEX)

MAX_QUBITS = 2

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


def random_density_matrix(rng: np.random.Generator, n_qubits: int) -> np.ndarray:
    """Full-rank random state from a normalized Ginibre matrix G G^dagger."""
    dim = 1 << n_qubits
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def lift(op: np.ndarray, qubit: int) -> np.ndarray:
    """A one-qubit operator acting on ``qubit`` of the two-qubit register."""
    left, right = (EYE2, op) if qubit == 0 else (op, EYE2)
    # np.kron(left, right), without np.kron's per-call overhead on the gate path
    return (left[:, None, :, None] * right[None, :, None, :]).reshape(4, 4)


def superop(kraus) -> np.ndarray:
    """The map rho -> sum_k K rho K^dag on vec(rho): sum_k K (x) K*."""
    return sum(np.kron(k, k.conj()) for k in kraus)


def _per_qubit(*terms) -> dict[int, tuple[np.ndarray, ...]]:
    """{n: (map on qubit 0, ..., qubit n-1)} for registers of n = 1 and 2 qubits, each
    map the sum of weight * superop(one-qubit Kraus set placed on that qubit)."""
    def on(qubit: int, n: int) -> np.ndarray:
        return sum(w * superop([k if n == 1 else lift(k, qubit) for k in kraus]) for w, kraus in terms)
    return {1: (on(0, 1),), 2: (on(0, 2), on(1, 2))}


_P0 = np.array([[1, 0], [0, 0]], dtype=COMPLEX)
_P1 = np.array([[0, 0], [0, 1]], dtype=COMPLEX)
_LOWER = np.array([[0, 1], [0, 0]], dtype=COMPLEX)  # |0><1|
_X = np.array([[0, 1], [1, 0]], dtype=COMPLEX)
_PAULIS = (EYE2, _X, np.array([[0, -1j], [1j, 0]], dtype=COMPLEX), np.array([[1, 0], [0, -1]], dtype=COMPLEX))

#: Tr_q rho (x) I/2, the maximally mixed qubit back in place q (the Pauli twirl)
MIX = _per_qubit((1.0, [p / 2.0 for p in _PAULIS]))
#: qubit q replaced by |0>: Kraus maps |0><b| for b in {0, 1}
RESET = _per_qubit((1.0, (_P0, _LOWER)))
#: relaxation's fixed parts.  POP moves all of |1>'s population to |0> (so it
#: equals RESET), DECAY hands back the part that survives, COH keeps q's coherences.
POP = RESET
DECAY = _per_qubit((1.0, (_P1,)), (-1.0, (_LOWER,)))
COH = _per_qubit((1.0, (EYE2,)), (-1.0, (_P0, _P1)))
#: CNOT on the two-qubit register, keyed by (control, target): a permutation of vec(rho)
CNOT = {
    (c, t): superop([lift(_P0, c) + lift(_P1, c) @ lift(_X, t)]) for c, t in ((0, 1), (1, 0))
}


def reset_qubit(rho: np.ndarray, qubit: int) -> np.ndarray:
    """Replace one qubit's state with |0>: Kraus maps |0><b| for b in {0,1}."""
    rho = np.asarray(rho, dtype=COMPLEX)
    n = n_qubits_of(rho.shape[0])
    if qubit < 0 or qubit >= n:
        raise ValueError(f"qubit {qubit} out of range for {n} qubits")
    return (RESET[n][qubit] @ rho.reshape(-1)).reshape(rho.shape)
