import numpy as np
import pytest

from afcmem.polarization import (
    PAULIS,
    STATE_LABELS,
    AnalysisSetting,
    PolarizationState,
    expectation,
    fidelity,
    orthogonal_label,
    standard_setting,
    standard_state,
)
from oracles import bloch, trace_distance

MUB_PAIRS = (("H", "V"), ("D", "A"), ("R", "L"))


def test_standard_states_explicit():
    assert np.allclose(standard_state("H").rho, np.diag([1.0, 0.0]))
    assert np.allclose(standard_state("D").rho, np.full((2, 2), 0.5))
    r = np.array([[0.5, -0.5j], [0.5j, 0.5]])
    assert np.allclose(standard_state("R").rho, r)


def test_unknown_label_rejected():
    with pytest.raises(ValueError):
        standard_state("Q")
    with pytest.raises(ValueError):
        standard_setting("x")


def test_state_invariants():
    for label in STATE_LABELS:
        rho = standard_state(label).rho
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert np.allclose(rho, rho.conj().T, atol=1e-12)
        assert np.linalg.eigvalsh(rho).min() > -1e-10


def test_projector_invariants():
    for label in STATE_LABELS:
        p = standard_setting(label).projector
        assert np.allclose(p @ p, p, atol=1e-12)
        assert abs(np.trace(p) - 1.0) < 1e-12


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        PolarizationState(np.array([[0.8, 0.0], [0.0, 0.1]]))  # trace != 1
    with pytest.raises(ValueError):
        PolarizationState(np.array([[1.5, 0.0], [0.0, -0.5]]))  # not PSD
    with pytest.raises(ValueError):
        AnalysisSetting("H", np.eye(2))  # trace 2, not a port projector


def test_fidelity_examples():
    h, v, d = standard_state("H"), standard_state("V"), standard_state("D")
    assert fidelity(h, h) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(h, v) == pytest.approx(0.0, abs=1e-12)
    assert fidelity(h, d) == pytest.approx(0.5, abs=1e-12)
    # the tr(rho sigma) form is the fidelity only for a pure target
    with pytest.raises(ValueError, match="pure target"):
        fidelity(h, PolarizationState(np.eye(2) / 2.0))


def test_fidelity_pure_symmetric():
    rng = np.random.default_rng(7)
    for _ in range(20):
        kets = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        a = PolarizationState.from_ket(kets[0])
        b = PolarizationState.from_ket(kets[1])
        assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-12)


def test_fidelity_mixed_state_uhlmann():
    # for a pure target the Uhlmann fidelity reduces to <psi|rho|psi>
    rng = np.random.default_rng(3)
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = PolarizationState(g @ g.conj().T / np.trace(g @ g.conj().T))
    for label in STATE_LABELS:
        target = standard_state(label)
        direct = float(np.real(np.trace(rho.rho @ target.rho)))
        assert fidelity(rho, target) == pytest.approx(direct, abs=1e-10)


def test_expectation_examples():
    d = standard_state("D")
    assert expectation(d, standard_setting("D")) == pytest.approx(1.0, abs=1e-12)
    assert expectation(d, standard_setting("A")) == pytest.approx(0.0, abs=1e-12)
    mixed = PolarizationState(np.eye(2) / 2.0)
    for label in STATE_LABELS:
        assert expectation(mixed, standard_setting(label)) == pytest.approx(0.5, abs=1e-12)


def test_expectation_pairs_sum_to_one():
    rng = np.random.default_rng(11)
    for _ in range(20):
        psi = PolarizationState.from_ket(rng.normal(size=2) + 1j * rng.normal(size=2))
        for a, b in MUB_PAIRS:
            s = expectation(psi, standard_setting(a)) + expectation(psi, standard_setting(b))
            assert s == pytest.approx(1.0, abs=1e-12)


def test_fidelity_orthogonal_pair_sums_to_one():
    rng = np.random.default_rng(13)
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = PolarizationState(g @ g.conj().T / np.trace(g @ g.conj().T))
    for a, b in MUB_PAIRS:
        s = fidelity(rho, standard_state(a)) + fidelity(rho, standard_state(b))
        assert s == pytest.approx(1.0, abs=1e-12)


def test_orthogonal_state_and_label():
    for a, b in MUB_PAIRS:
        assert orthogonal_label(a) == b
        assert orthogonal_label(b) == a


def test_pauli_round_trip():
    rng = np.random.default_rng(5)
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = g @ g.conj().T / np.trace(g @ g.conj().T)
    rebuilt = sum(0.5 * np.trace(rho @ s) * s for s in PAULIS)
    assert np.allclose(rebuilt, rho, atol=1e-12)


def test_pauli_basis_properties():
    for k, s in enumerate(PAULIS):
        assert np.allclose(s @ s, np.eye(2), atol=1e-12)
        for l, t in enumerate(PAULIS):
            assert np.trace(s @ t) == pytest.approx(2.0 * (k == l), abs=1e-12)


def test_bloch_and_purity():
    assert np.allclose(bloch(standard_state("H")), [0.0, 0.0, 1.0], atol=1e-12)
    assert np.allclose(bloch(standard_state("D")), [1.0, 0.0, 0.0], atol=1e-12)
    assert standard_state("R").purity == pytest.approx(1.0, abs=1e-12)
    assert PolarizationState(np.eye(2) / 2.0).purity == pytest.approx(0.5, abs=1e-12)


def test_trace_distance():
    assert trace_distance(standard_state("H"), standard_state("V")) == pytest.approx(1.0, abs=1e-12)
    assert trace_distance(standard_state("D"), standard_state("D")) == pytest.approx(0.0, abs=1e-12)
