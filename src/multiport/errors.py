"""Exception types shared across the package, and its one table of size caps.

Every computation that grows too fast with n checks its size against one
of these caps through check_size, and a refusal raises ResourceLimitError.
"""

# n! terms: permanent_naive, ck_decomposition and the `verify` oracles
BRUTE_FORCE_LIMIT = 9
# the exact kernel, class enumeration and every command that reads class rows
EXACT_AMPLITUDE_LIMIT = 14
# 2^n terms: permanent_ryser
RYSER_PERMANENT_LIMIT = 24
# cyclotomic_polynomial, computed by recursion over the divisors of n
CYCLOTOMIC_LIMIT = 64


class InvalidArrangementError(ValueError):
    """An occupation vector violates the basic constraints (length, sum, sign)."""


class ResourceLimitError(RuntimeError):
    """A computation was refused because it exceeds a configured size cap."""


class CacheCorruptionError(RuntimeError):
    """A cache entry failed its integrity check and could not be replaced."""


class CertificateError(ArithmeticError):
    """A class table whose Q = 0 classes do not carry total probability exactly 1."""


class OutputError(OSError):
    """The file named by --output cannot be written."""


def check_size(what: str, n: int, limit: int) -> None:
    """Raise ResourceLimitError when n exceeds limit, one of the caps above."""
    if n > limit:
        raise ResourceLimitError(f"{what} limited to n <= {limit}")
