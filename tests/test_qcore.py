"""Dense linear-algebra core: validation and the channels' substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbench.qcore import (
    basis_probabilities,
    dm_from_statevector,
    n_qubits_of,
    random_density_matrix,
    reset_qubit,
    validate_density_matrix,
    validate_statevector,
)


def test_n_qubits_of_powers_of_two():
    assert n_qubits_of(2) == 1
    assert n_qubits_of(4) == 2


@pytest.mark.parametrize("dim", [0, -4, 3, 6, 8, 12, 1024, 2048])
def test_n_qubits_of_rejects(dim):
    with pytest.raises(ValueError):
        n_qubits_of(dim)


def test_validate_statevector_accepts_and_rejects():
    sv = validate_statevector([1.0, 0.0])
    assert sv.dtype == np.complex128
    with pytest.raises(ValueError, match="norm"):
        validate_statevector([1.0, 1.0])
    with pytest.raises(ValueError, match="non-finite"):
        validate_statevector([np.nan, 0.0])
    with pytest.raises(ValueError):
        validate_statevector([1.0, 0.0, 0.0])  # dimension 3


def test_dm_from_statevector_is_rank_one_projector():
    sv = np.array([1.0, 1.0j, 0.0, 0.0]) / np.sqrt(2.0)
    rho = dm_from_statevector(sv)
    assert np.allclose(rho, rho.conj().T)
    assert np.isclose(np.trace(rho).real, 1.0)
    assert np.allclose(rho @ rho, rho)  # pure
    assert np.isclose(rho[0, 1], -0.5j)  # |0><1| picks up conj(i)


def test_validate_density_matrix_accepts_mixed():
    rho = np.eye(4) / 4.0
    assert validate_density_matrix(rho) is not None


def test_validate_density_matrix_rejects_defects():
    with pytest.raises(ValueError, match="Hermitian"):
        validate_density_matrix(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="trace"):
        validate_density_matrix(np.eye(2))
    neg = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(ValueError, match="negative eigenvalue"):
        validate_density_matrix(neg)
    with pytest.raises(ValueError, match="square"):
        validate_density_matrix(np.zeros((2, 3)))


def test_basis_probabilities_reads_diagonal():
    rho = np.diag([0.5, 0.25, 0.25, 0.0]).astype(complex)
    assert np.allclose(basis_probabilities(rho), [0.5, 0.25, 0.25, 0.0])
    with pytest.raises(ValueError, match="sum"):
        basis_probabilities(np.diag([0.5, 0.25, 0.0, 0.0]).astype(complex))


def test_reset_qubit_moves_population_and_keeps_partner_coherence():
    # |11><11|: resetting the low qubit lands on |10> (index 2)
    rho = dm_from_statevector([0.0, 0.0, 0.0, 1.0])
    out = reset_qubit(rho, 0)
    assert np.isclose(out[2, 2].real, 1.0)
    # (|00> + |10>)/sqrt(2) has a pure qubit-1 coherence; resetting qubit 0
    # must leave it intact while resetting qubit 1 must erase it
    plus1 = dm_from_statevector(np.array([1.0, 0.0, 1.0, 0.0]) / np.sqrt(2.0))
    kept = reset_qubit(plus1, 0)
    assert np.isclose(kept[0, 2], 0.5)
    erased = reset_qubit(plus1, 1)
    assert np.isclose(erased[0, 2], 0.0)
    assert np.isclose(erased[0, 0].real, 1.0)
    with pytest.raises(ValueError, match="out of range"):
        reset_qubit(rho, 2)


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=2))
def test_random_density_matrix_is_valid(seed, n_qubits):
    rho = random_density_matrix(np.random.default_rng(seed), n_qubits)
    assert rho.shape == (1 << n_qubits, 1 << n_qubits)
    validate_density_matrix(rho)


def test_reset_is_idempotent_and_trace_preserving():
    rng = np.random.default_rng(11)
    for _ in range(10):
        rho = random_density_matrix(rng, 2)
        once = reset_qubit(rho, 1)
        assert np.isclose(np.trace(once).real, 1.0)
        assert np.allclose(reset_qubit(once, 1), once)
