import numpy as np
import pytest

from ghostsim import (
    ParameterError,
    STANDARD_CHSH_ANGLES,
    TwoQubitPolState,
    VisibilityModel,
    apply_pattern_phase,
    canonical_angle,
    chsh_S,
    correlation_E,
    make_bell,
    outcome_probabilities,
    pattern_projection_coeff,
    project_linear,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


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


def test_unknown_bell_kind_rejected():
    with pytest.raises(ParameterError):
        make_bell("sigma_plus")


def test_visibility_range_enforced():
    VisibilityModel(V=0.0)
    VisibilityModel(V=1.0)
    for bad in (-0.1, 1.1, np.nan):
        with pytest.raises(ParameterError):
            VisibilityModel(V=bad)


def test_canonical_angle_folds_to_half_open_interval():
    for raw, want in [(0.0, 0.0), (np.pi, 0.0), (3 * np.pi / 4, -np.pi / 4),
                      (-np.pi / 2, np.pi / 2), (np.pi / 2, np.pi / 2)]:
        assert canonical_angle(raw) == pytest.approx(want, abs=1e-15)
    assert -np.pi / 2 < canonical_angle(7.3) <= np.pi / 2


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
