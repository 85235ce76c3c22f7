"""Simulator of quantum ghost interference and polarization-sensitive
ghost imaging with position-polarization hyper-entangled photon pairs."""

from .biphoton import (
    MAX_NODES,
    QuadSettings,
    SourceParams,
    axis_amplitude,
    closed_form_amplitude,
    envelope_coefficients,
    quadrature_oracle_amplitude,
)
from .detector import (
    GATE_BLOCKS,
    CountFrame,
    DetectorConfig,
    build_ghost_image,
    expected_gate_count,
    simulate_exposure,
)
from .errors import (
    ApertureSamplingWarning,
    ConfigError,
    ConvergenceError,
    GhostsimError,
    GridMismatchError,
    NumericError,
    ParameterError,
    ParaxialWarning,
    SamplingError,
    SourceRegimeWarning,
)
from .experiments import (
    CoincidenceMap,
    DoubleSlit,
    PhasePattern,
    expected_fringe_period,
    ghost_image_map,
    ghost_interference_map,
    half_plane_pattern,
    pattern_from_extent,
    uniform_pattern,
)
from .grids import GridSpec
from .io import (
    PGM_MAXVAL,
    load_matrix_text,
    load_pattern,
    load_pgm,
    parse_config,
    save_map,
    save_matrix_text,
    save_pattern,
    save_pgm,
    write_config_echo,
)
from .optics import (
    AIRY_FIRST_ZERO,
    LensSystem,
    aperture_nodes,
    ghost_magnification,
    imaging_amplitude,
)
from .polarization import (
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

__version__ = "0.1.0"
