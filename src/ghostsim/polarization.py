"""Two-qubit polarization algebra.

States live in the product basis (HH, HV, VH, VV), stored as four complex
amplitudes. The phase pattern acts on photon 1 only, multiplying the H
component by exp(i*phi). Linear polarizers project onto
|d(delta)> = cos(delta)|H> + sin(delta)|V>.

One projection, _project, forms <d(d1)| <d(d2)| of a state's amplitudes and
keeps photon 1's H and V parts apart. The pattern weights of the image maps
(pattern_projection_coeff, on the singlet's amplitudes) and every CHSH
outcome (project_linear, outcome_probabilities) read it.
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


# ---------------------------------------------------------------------------
# state construction
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


def _project(amps: np.ndarray, d1, d2):
    """Photon 1's H and V parts of <d(d1)| <d(d2)| amps, vectorized in the angles.

    Returns (c1 (c2 a_HH + s2 a_HV), s1 (c2 a_VH + s2 a_VV)); their sum is
    the projection amplitude, and a phase on photon 1's H component
    multiplies the first. Non-finite angles raise ParameterError.
    """
    _check_angles(d1, d2)
    c1, s1, c2, s2 = np.cos(d1), np.sin(d1), np.cos(d2), np.sin(d2)
    return c1 * (c2 * amps[HH] + s2 * amps[HV]), s1 * (c2 * amps[VH] + s2 * amps[VV])


def pattern_projection_coeff(phi, d1: float, d2: float) -> np.ndarray:
    """Projection amplitude of the pattern-transformed singlet, vectorized in phi.

    The pattern multiplies photon 1's H component by exp(i*phi), taking the
    singlet (|HV> - |VH>)/sqrt(2) to (e^{i phi}|HV> - |VH>)/sqrt(2); this is
    <d(d1)| <d(d2)| of that state, for an array of phase values as map
    evaluation needs: the phase multiplies the H part of the projection of
    make_bell("psi_minus")'s amplitudes. Non-finite angles raise
    ParameterError.
    """
    h, v = _project(_BELL["psi_minus"], d1, d2)
    # h first, so the product is a new array and not the exponential's buffer
    # scaled in place: in place, each warm 256^2 map of the benchmark process
    # took ~300 more minor page faults
    return h * np.exp(1j * np.asarray(phi, dtype=float)) + v


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

# analyzer offsets of photons 1 and 2 in the outcomes (++, +-, -+, --)
_OFFSETS = np.pi / 2 * np.array([[0.0, 0.0, 1.0, 1.0], [0.0, 1.0, 0.0, 1.0]])


def project_linear(state: TwoQubitPolState, d1: float, d2: float) -> complex:
    """Amplitude <d(d1)| <d(d2)| state for linear polarizers at angles d1, d2.

    Non-finite angles raise ParameterError.
    """
    h, v = _project(state.amps, d1, d2)
    return complex(h + v)


def outcome_probabilities(state: TwoQubitPolState, theta1: float, theta2: float):
    """Probabilities of the four pass/block outcomes at two polarizers.

    Returned in order (++, +-, -+, --) where + means pass at theta and - means
    pass at the orthogonal angle theta + pi/2.
    """
    h, v = _project(state.amps, theta1 + _OFFSETS[0], theta2 + _OFFSETS[1])
    return np.abs(h + v) ** 2


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
