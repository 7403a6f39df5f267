"""Exception types shared across the package."""


class PompeiuError(Exception):
    """Base class for all package-specific errors."""


class CoincidentPoints(PompeiuError):
    """Kernel evaluation requested at (or numerically at) a coincident point pair."""


class OrderTooLarge(PompeiuError):
    """An order, or a polynomial expansion, exceeds its cap."""


class ResolutionTooLow(PompeiuError):
    """Quadrature resolution below the supported minimum."""


class NonFiniteSample(PompeiuError):
    """An integrand sample was NaN or infinite."""


class DomainError(PompeiuError):
    """A point lies outside the domain, or domain parameters are invalid."""


class DimensionCap(PompeiuError):
    """Polydisc factor count exceeds the desk-scale cap."""


class DepthCap(PompeiuError):
    """Nested operator program longer than the supported depth."""


class StencilOutOfDomain(PompeiuError):
    """A finite-difference stencil would sample outside the closed disk."""


class NonRealRHS(PompeiuError):
    """A right-hand side required to be real-valued has an imaginary part."""


class ParseError(PompeiuError):
    """Expression text violates the grammar.

    Carries the 0-based offset of the offending character.
    """

    def __init__(self, message, position):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class UnknownVariable(PompeiuError):
    """Expression references a variable outside the domain's factor range."""
