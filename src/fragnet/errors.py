"""Exception types shared across the package.

The CLI maps InputError to exit code 2 and DomainError to exit code 1.
"""


class FragnetError(Exception):
    """Base class for all package errors."""


class InputError(FragnetError):
    """Malformed files, schema violations, or inconsistent configuration."""


class DomainError(FragnetError):
    """Valid input that violates a mathematical precondition."""


class GreedyStalled(DomainError):
    """Greedy deleveraging ran out of admissible cuts on targets that the
    proportional baseline meets: the targets are feasible, the greedy's own
    path is not. `moves` is the number of cuts made before it stalled."""

    def __init__(self, message: str, moves: int):
        super().__init__(message)
        self.moves = moves
