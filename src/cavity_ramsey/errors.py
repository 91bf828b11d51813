"""Exception types shared across the package."""


class CavityRamseyError(Exception):
    """Base class for all package-specific errors."""


class TailTooLarge(CavityRamseyError):
    """Truncating the Fock space would discard more probability than allowed."""


class TruncationLeak(CavityRamseyError):
    """Dynamics would push non-negligible probability past the top Fock level."""


class NoRootFound(CavityRamseyError):
    """Root bracketing failed inside the allotted search window."""


class ConvergenceFailure(CavityRamseyError):
    """A series hit its term caps before reaching the requested tolerance."""
