"""Exception taxonomy shared by all modules.

`isospectra.cli.EXIT_CODES` is the one table of each class's exit code.
"""


class IsospectraError(Exception):
    """Base class for everything raised by this package on purpose."""


class InvalidParameters(IsospectraError):
    """Family parameters hit a vanishing denominator or break a precondition."""


class DegenerateInput(IsospectraError):
    """Zero polynomial, empty input, or otherwise unusable data."""


class NonConvergence(IsospectraError):
    """An iterative solver failed to reach its residual tolerance."""


class CardinalityMismatch(IsospectraError):
    """Multiset comparison of unequal sizes."""


class RepeatedZeros(IsospectraError):
    """Zeros are not pairwise distinct (all constructions require this)."""


class BranchPoint(IsospectraError):
    """A variable lift hit (or grazed) a square-root branch point."""


class SingularSample(IsospectraError):
    """Residual evaluation requested at a pole of the defining equation."""


class SingularDenominator(IsospectraError):
    """A matrix-entry or zero-dynamics formula denominator vanished."""


class Collision(IsospectraError):
    """Trajectory components got too close for the pole terms to be trusted."""


class DivideByZeroVariable(IsospectraError):
    """Wilson/Racah dynamics at x_n = 0 (resp. y_n = 0) is undefined."""


class SingularA(IsospectraError):
    """Affine coefficient system with singular matrix and nonzero drive."""
