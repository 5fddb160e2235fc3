"""Exception hierarchy shared across the package."""


class ToricError(Exception):
    """Base class for all errors raised by toricpush."""


class LatticeError(ToricError):
    """Invalid input to an integer linear algebra routine."""


class FanError(ToricError):
    """The ray/cone data is not a simplicial fan, or the fan lacks what an
    operation needs: class-level work needs a smooth complete fan."""


class EndoError(ToricError):
    """The given lattice map is not a finite fan-compatible endomorphism."""


class VerificationError(ToricError):
    """An independent verification check failed; a bug or a counterexample."""


class InputError(ToricError):
    """Malformed input file or command line argument."""
