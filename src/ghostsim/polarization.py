"""Two-qubit polarization algebra.

States live in the product basis (HH, HV, VH, VV), stored as four complex
amplitudes. The phase pattern acts on photon 1 only, multiplying the H
component by exp(i*phi). Linear polarizers project onto
|d(delta)> = cos(delta)|H> + sin(delta)|V>.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

# basis index order used throughout
HH, HV, VH, VV = 0, 1, 2, 3

_NORM_TOL = 1e-12


@dataclass(frozen=True)
class TwoQubitPolState:
    """Pure two-photon polarization state as amplitudes over (HH, HV, VH, VV)."""

    amps: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex)
        if amps.shape != (4,):
            raise ParameterError("state needs exactly 4 amplitudes")
        if not np.all(np.isfinite(amps.view(float))):
            raise ParameterError("state amplitudes must be finite")
        norm = float(np.sum(np.abs(amps) ** 2))
        if abs(norm - 1.0) > _NORM_TOL:
            raise ParameterError(f"state not normalized: |psi|^2 = {norm!r}")
        object.__setattr__(self, "amps", amps)


@dataclass(frozen=True)
class VisibilityModel:
    """Scalar correlation visibility in [0, 1] (1 = ideal entanglement)."""

    V: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.V <= 1.0):
            raise ParameterError(f"visibility must lie in [0, 1], got {self.V}")


def _check_angles(*deltas) -> None:
    """Raise ParameterError unless every polarizer angle is finite."""
    if not np.all(np.isfinite(deltas)):
        raise ParameterError("polarizer angle must be finite")


def canonical_angle(delta: float) -> float:
    """Fold a polarizer angle in radians into (-pi/2, pi/2]."""
    _check_angles(delta)
    folded = (delta + np.pi / 2) % np.pi - np.pi / 2
    if folded == -np.pi / 2:
        folded = np.pi / 2
    return float(folded)


# ---------------------------------------------------------------------------
# state construction and transformation
# ---------------------------------------------------------------------------

_RT2 = 1.0 / np.sqrt(2.0)

_BELL = {
    "psi_minus": np.array([0, _RT2, -_RT2, 0], dtype=complex),
    "psi_plus": np.array([0, _RT2, _RT2, 0], dtype=complex),
    "phi_minus": np.array([_RT2, 0, 0, -_RT2], dtype=complex),
    "phi_plus": np.array([_RT2, 0, 0, _RT2], dtype=complex),
}


def make_bell(kind: str) -> TwoQubitPolState:
    """Return one of the four Bell states by name."""
    try:
        amps = _BELL[kind]
    except KeyError:
        raise ParameterError(
            f"unknown Bell state {kind!r}; choose from {sorted(_BELL)}"
        ) from None
    return TwoQubitPolState(amps.copy())


def apply_pattern_phase(state: TwoQubitPolState, phi: float) -> TwoQubitPolState:
    """Apply the pattern's unitary at one point: H of photon 1 gains exp(i*phi)."""
    factor = np.exp(1j * float(phi))
    amps = state.amps.copy()
    amps[HH] *= factor
    amps[HV] *= factor
    return TwoQubitPolState(amps)


def pattern_projection_coeff(phi, d1: float, d2: float) -> np.ndarray:
    """Projection amplitude of the pattern-transformed singlet, vectorized in phi.

    Equals project_linear(apply_pattern_phase(psi_minus, phi), d1, d2) but
    accepts an array of phase values, which is what map evaluation needs.
    Non-finite angles raise ParameterError.
    """
    _check_angles(d1, d2)
    phi = np.asarray(phi, dtype=float)
    c1, s1 = np.cos(d1), np.sin(d1)
    c2, s2 = np.cos(d2), np.sin(d2)
    # <d1 d2| (e^{i phi}|HV> - |VH>)/sqrt(2)
    return _RT2 * (np.exp(1j * phi) * c1 * s2 - s1 * c2)


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def project_linear(state: TwoQubitPolState, d1: float, d2: float) -> complex:
    """Amplitude <d(d1)| <d(d2)| state for linear polarizers at angles d1, d2.

    Non-finite angles raise ParameterError.
    """
    _check_angles(d1, d2)
    c1, s1 = np.cos(d1), np.sin(d1)
    c2, s2 = np.cos(d2), np.sin(d2)
    a = state.amps
    return complex(
        c1 * c2 * a[HH] + c1 * s2 * a[HV] + s1 * c2 * a[VH] + s1 * s2 * a[VV]
    )


def outcome_probabilities(state: TwoQubitPolState, theta1: float, theta2: float):
    """Probabilities of the four pass/block outcomes at two polarizers.

    Returned in order (++, +-, -+, --) where + means pass at theta and - means
    pass at the orthogonal angle theta + pi/2.
    """
    t1p, t1m = theta1, theta1 + np.pi / 2
    t2p, t2m = theta2, theta2 + np.pi / 2
    return np.array(
        [
            abs(project_linear(state, t1p, t2p)) ** 2,
            abs(project_linear(state, t1p, t2m)) ** 2,
            abs(project_linear(state, t1m, t2p)) ** 2,
            abs(project_linear(state, t1m, t2m)) ** 2,
        ]
    )


def correlation_E(
    state: TwoQubitPolState,
    theta1: float,
    theta2: float,
    vis: VisibilityModel = VisibilityModel(),
) -> float:
    """Two-polarizer correlation E = V * (P++ - P+- - P-+ + P--)."""
    pp, pm, mp, mm = outcome_probabilities(state, theta1, theta2)
    return float(vis.V * (pp - pm - mp + mm))


def chsh_S(
    state: TwoQubitPolState,
    a: float,
    a_prime: float,
    b: float,
    b_prime: float,
    vis: VisibilityModel = VisibilityModel(),
) -> float:
    """CHSH combination S = E(a,b) - E(a,b') + E(a',b) + E(a',b')."""
    return (
        correlation_E(state, a, b, vis)
        - correlation_E(state, a, b_prime, vis)
        + correlation_E(state, a_prime, b, vis)
        + correlation_E(state, a_prime, b_prime, vis)
    )


# the conventional CHSH angle set, radians: a=0, a'=45, b=22.5, b'=67.5 degrees
STANDARD_CHSH_ANGLES = (0.0, np.pi / 4, np.pi / 8, 3 * np.pi / 8)
