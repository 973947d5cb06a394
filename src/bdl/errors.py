"""Exception types shared across the package."""


class BdlError(Exception):
    """Base class for package-specific errors."""


class PoleError(BdlError, ArithmeticError):
    """Evaluation hit, or came within tolerance of, a pole of g(u, v) = c/(u - v)."""


class RankDeficiencyError(BdlError):
    """Null-space extraction found a rank below the expected value.

    Carries the observed rank, the expected rank and the singular-value gap so
    callers can report how decisively the deficiency was detected.
    """

    def __init__(self, message: str, *, rank: int, expected: int, gap: float):
        super().__init__(message)
        self.rank = rank
        self.expected = expected
        self.gap = gap


class TwistError(BdlError):
    """Twist parameters violate their defining constraints."""


class ConfigError(BdlError):
    """Invalid experiment configuration."""
