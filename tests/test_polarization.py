import numpy as np
import pytest

from ghostsim import (
    ParameterError,
    STANDARD_CHSH_ANGLES,
    TwoQubitPolState,
    VisibilityModel,
    chsh_S,
    correlation_E,
    make_bell,
    outcome_probabilities,
    pattern_projection_coeff,
    project_linear,
)
from ghostsim.polarization import HH, HV, VH, VV

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def apply_pattern_phase(state: TwoQubitPolState, phi: float) -> TwoQubitPolState:
    """The pattern's unitary at one point: H of photon 1 gains exp(i*phi)."""
    factor = np.exp(1j * float(phi))
    amps = state.amps.copy()
    amps[HH] *= factor
    amps[HV] *= factor
    return TwoQubitPolState(amps)


# ---------------------------------------------------------------------------
# states and angles
# ---------------------------------------------------------------------------


def test_bell_states_are_normalized_and_orthogonal():
    kinds = ("psi_minus", "psi_plus", "phi_minus", "phi_plus")
    states = [make_bell(k).amps for k in kinds]
    gram = np.array([[np.vdot(a, b) for b in states] for a in states])
    np.testing.assert_allclose(gram, np.eye(4), atol=1e-15)


def test_singlet_amplitudes():
    s = make_bell("psi_minus")
    np.testing.assert_allclose(s.amps, [0, INV_SQRT2, -INV_SQRT2, 0])


def test_unnormalized_state_rejected():
    with pytest.raises(ParameterError):
        TwoQubitPolState(amps=np.array([1.0, 1.0, 0.0, 0.0]))


@pytest.mark.parametrize("amps, match", [
    ([1.0, 0.0, 0.0], "exactly 4 amplitudes"),
    ([1.0, 0.0, 0.0, 0.0, 0.0], "exactly 4 amplitudes"),
    ([[1.0, 0.0], [0.0, 0.0]], "exactly 4 amplitudes"),
    ([np.nan, 0.0, 0.0, 0.0], "must be finite"),
    ([1.0, complex(0.0, np.inf), 0.0, 0.0], "must be finite"),
], ids=["3 amplitudes", "5 amplitudes", "2x2 amplitudes", "NaN amplitude", "infinite amplitude"])
def test_malformed_state_rejected(amps, match):
    with pytest.raises(ParameterError, match=match):
        TwoQubitPolState(amps=np.array(amps))


def test_unknown_bell_kind_rejected():
    with pytest.raises(ParameterError):
        make_bell("sigma_plus")


def test_visibility_range_enforced():
    VisibilityModel(V=0.0)
    VisibilityModel(V=1.0)
    for bad in (-0.1, 1.1, np.nan):
        with pytest.raises(ParameterError):
            VisibilityModel(V=bad)


# ---------------------------------------------------------------------------
# pattern phase and projection
# ---------------------------------------------------------------------------


def test_pattern_phase_acts_on_first_photon_h_only():
    s = make_bell("psi_minus")
    shifted = apply_pattern_phase(s, np.pi / 3)
    # HH and HV pick up the phase, VH and VV do not
    factor = np.exp(1j * np.pi / 3)
    np.testing.assert_allclose(
        shifted.amps,
        s.amps * np.array([factor, factor, 1.0, 1.0]),
    )


def test_projection_coeff_matches_state_projection():
    # the closed-form coefficient must agree with projecting the explicitly
    # phase-shifted singlet onto the product of linear polarizers
    rng = np.random.default_rng(1)
    s = make_bell("psi_minus")
    for _ in range(25):
        phi, d1, d2 = rng.uniform(-np.pi, np.pi, size=3)
        via_state = project_linear(apply_pattern_phase(s, phi), d1, d2)
        direct = pattern_projection_coeff(phi, d1, d2)
        assert direct == pytest.approx(via_state, abs=1e-14)


def test_projection_coeff_matches_the_singlet_closed_form():
    # the weights once had their own formula, (e^{i phi} c1 s2 - s1 c2)/sqrt(2);
    # they now read the singlet's amplitudes through the one projection
    rng = np.random.default_rng(5)
    phi = rng.uniform(-np.pi, np.pi, size=(16, 16))
    for d1, d2 in rng.uniform(-np.pi, np.pi, size=(20, 2)):
        closed = INV_SQRT2 * (
            np.exp(1j * phi) * np.cos(d1) * np.sin(d2) - np.sin(d1) * np.cos(d2)
        )
        np.testing.assert_allclose(pattern_projection_coeff(phi, d1, d2), closed,
                                   rtol=0, atol=1e-15)


def test_projection_coeff_key_settings():
    minus45 = np.deg2rad(-45.0)
    plus45 = np.deg2rad(45.0)
    # both at -45: (1 - e^{i phi}) / (2 sqrt 2); dark for phi=0, bright for pi
    assert pattern_projection_coeff(0.0, minus45, minus45) == pytest.approx(0.0, abs=1e-15)
    assert abs(pattern_projection_coeff(np.pi, minus45, minus45)) == pytest.approx(
        INV_SQRT2, rel=1e-12
    )
    # first polarizer at +45: -(1 + e^{i phi}) / (2 sqrt 2); contrast inverts
    assert abs(pattern_projection_coeff(0.0, plus45, minus45)) == pytest.approx(
        INV_SQRT2, rel=1e-12
    )
    assert pattern_projection_coeff(np.pi, plus45, minus45) == pytest.approx(0.0, abs=1e-15)


def test_projection_coeff_complementarity():
    # |c(-45)|^2 + |c(+45)|^2 = 1/2 for every phase: the two analyzer settings
    # split the pair flux without loss
    phi = np.linspace(-np.pi, np.pi, 41)
    minus45 = np.deg2rad(-45.0)
    plus45 = np.deg2rad(45.0)
    total = (
        np.abs(pattern_projection_coeff(phi, minus45, minus45)) ** 2
        + np.abs(pattern_projection_coeff(phi, plus45, minus45)) ** 2
    )
    np.testing.assert_allclose(total, 0.5, atol=1e-15)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_projections_reject_non_finite_angles(bad):
    s = make_bell("psi_minus")
    for d1, d2 in ((bad, 0.3), (0.3, bad)):
        with pytest.raises(ParameterError, match="polarizer angle must be finite"):
            project_linear(s, d1, d2)
        with pytest.raises(ParameterError, match="polarizer angle must be finite"):
            pattern_projection_coeff(np.zeros((2, 2)), d1, d2)
    with pytest.raises(ParameterError, match="polarizer angle must be finite"):
        chsh_S(s, 0.0, bad, 0.1, 0.2)


def test_projection_coeff_vectorizes_over_phase():
    phi = np.linspace(0, np.pi, 7).reshape(7, 1)
    out = pattern_projection_coeff(phi, 0.3, -0.2)
    assert out.shape == (7, 1)


# ---------------------------------------------------------------------------
# correlations and CHSH
# ---------------------------------------------------------------------------


def _four_term_projection(state, d1, d2):
    """<d(d1)| <d(d2)| state as the four-term sum project_linear once wrote."""
    c1, s1 = np.cos(d1), np.sin(d1)
    c2, s2 = np.cos(d2), np.sin(d2)
    a = state.amps
    return complex(c1 * c2 * a[HH] + c1 * s2 * a[HV] + s1 * c2 * a[VH] + s1 * s2 * a[VV])


def _four_call_outcomes(state, theta1, theta2):
    """outcome_probabilities as four projections, one per outcome."""
    t1m, t2m = theta1 + np.pi / 2, theta2 + np.pi / 2
    return np.array([
        abs(_four_term_projection(state, d1, d2)) ** 2
        for d1, d2 in ((theta1, theta2), (theta1, t2m), (t1m, theta2), (t1m, t2m))
    ])


def test_outcomes_match_four_separate_projections():
    # outcome_probabilities projects onto all four analyzer pairs in one call
    rng = np.random.default_rng(6)
    for _ in range(200):
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = TwoQubitPolState(amps / np.linalg.norm(amps))
        t1, t2 = rng.uniform(-np.pi, np.pi, size=2)
        np.testing.assert_allclose(outcome_probabilities(state, t1, t2),
                                   _four_call_outcomes(state, t1, t2), rtol=0, atol=1e-15)
        assert project_linear(state, t1, t2) == pytest.approx(
            _four_term_projection(state, t1, t2), rel=0, abs=1e-15)


def test_outcome_probabilities_sum_to_one():
    s = make_bell("phi_plus")
    rng = np.random.default_rng(2)
    for _ in range(10):
        t1, t2 = rng.uniform(0, np.pi, size=2)
        probs = outcome_probabilities(s, t1, t2)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(probs >= -1e-15)


def test_singlet_correlation_is_minus_cos_2delta():
    s = make_bell("psi_minus")
    rng = np.random.default_rng(3)
    for _ in range(20):
        t1, t2 = rng.uniform(-np.pi, np.pi, size=2)
        expected = -np.cos(2.0 * (t1 - t2))
        assert correlation_E(s, t1, t2) == pytest.approx(expected, abs=1e-12)


def test_visibility_scales_correlation_linearly():
    s = make_bell("psi_minus")
    e_full = correlation_E(s, 0.2, 0.9)
    e_half = correlation_E(s, 0.2, 0.9, vis=VisibilityModel(V=0.5))
    assert e_half == pytest.approx(0.5 * e_full, abs=1e-12)


def test_chsh_ideal_singlet_value():
    s = make_bell("psi_minus")
    assert chsh_S(s, *STANDARD_CHSH_ANGLES) == pytest.approx(
        -2.0 * np.sqrt(2.0), abs=1e-12
    )


def test_chsh_rotation_invariance_of_singlet():
    s = make_bell("psi_minus")
    a, ap, b, bp = STANDARD_CHSH_ANGLES
    for off in (0.1, -0.7, 1.3):
        assert chsh_S(s, a + off, ap + off, b + off, bp + off) == pytest.approx(
            -2.0 * np.sqrt(2.0), abs=1e-12
        )


def test_chsh_never_exceeds_quantum_bound():
    rng = np.random.default_rng(4)
    s = make_bell("psi_minus")
    bound = 2.0 * np.sqrt(2.0) + 1e-12
    for _ in range(50):
        angles = rng.uniform(-np.pi, np.pi, size=4)
        assert abs(chsh_S(s, *angles)) <= bound


def test_chsh_at_reduced_visibility():
    # V scales S linearly: 0.9086 * 2 sqrt 2 = 2.5699...
    s = make_bell("psi_minus")
    value = chsh_S(s, *STANDARD_CHSH_ANGLES, vis=VisibilityModel(V=0.9086))
    assert value == pytest.approx(-0.9086 * 2.0 * np.sqrt(2.0), abs=1e-12)
    assert value == pytest.approx(-2.57, abs=0.005)
