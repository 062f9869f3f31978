"""The root of every error that means a mathematical check failed."""


class CheckFailure(ValueError):
    """A mathematical check failed on valid input; exit 1.

    Every other ValueError is a malformed request; exit 2.
    """
