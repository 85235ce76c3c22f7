"""Shared exception and warning types."""

import os
import sys

_PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep


def outside_stacklevel() -> int:
    """warnings.warn stacklevel of the first caller outside this package.

    Called by the function that warns, it counts that function as level 1
    and walks up past every frame whose code lives in the package, so a
    warning points at the user's line however deep inside ghostsim it is
    raised.
    """
    level, frame = 1, sys._getframe(1)
    while frame.f_back is not None and os.path.abspath(
        frame.f_code.co_filename
    ).startswith(_PACKAGE_DIR):
        frame = frame.f_back
        level += 1
    return level


class GhostsimError(Exception):
    """Base class for all package errors."""


class ParameterError(GhostsimError, ValueError):
    """A physical parameter is missing, non-finite, or out of range."""


class NumericError(GhostsimError, ArithmeticError):
    """A computation produced a non-finite intermediate or result."""


class ConvergenceError(GhostsimError):
    """A finer node count changed a quadrature result by more than the tolerance."""


class SamplingError(GhostsimError):
    """A grid is too coarse to resolve the structure it must represent."""


class GridMismatchError(GhostsimError):
    """Two gridded objects that must share geometry do not."""


class ConfigError(GhostsimError):
    """A configuration file or CLI argument could not be interpreted."""


class ParaxialWarning(UserWarning):
    """Transverse coordinates are large enough to strain the paraxial model."""


class SourceRegimeWarning(UserWarning):
    """Source parameters fall outside the regime the model was derived for."""


class ApertureSamplingWarning(UserWarning):
    """A finer node count moved a quadrature result by more than the tolerance.

    The miss warning of every node check (biphoton.check_refinement): the
    aperture rule's, and the source oracle's too, although that integral
    has no aperture.
    """
