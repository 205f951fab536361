"""Exception hierarchy for pardiff, and the resource ceilings read from the environment.

Every error carries a stable ``slug`` used in CLI diagnostics. The CLI maps
DomainError to exit code 1, CeilingError to exit code 2 and any other
PardiffError to exit code 3.
"""

import os


class PardiffError(Exception):
    slug = "error"


class DomainError(PardiffError, ValueError):
    """Invalid input or an operation applied outside its precondition.

    Also a ValueError, so callers catching the builtin still see it.
    """

    slug = "domain-error"


class UsageError(DomainError):
    """A command line the parser rejects: an unknown option, a value outside
    an option's choices or type, or a required option left out."""

    slug = "usage"


class CeilingError(PardiffError):
    """A resource guard tripped; raise the configured ceiling to proceed."""

    slug = "resource-ceiling"


class GraphFormatError(DomainError):
    slug = "malformed-line"


class SelfLoopError(DomainError):
    slug = "self-loop"


class DuplicateEdgeError(DomainError):
    slug = "duplicate-edge"


class VertexIndexError(DomainError):
    slug = "index-out-of-range"


class ConfigMismatchError(DomainError):
    slug = "length-mismatch"


class StackLimitError(DomainError):
    """Stack size left the signed 64-bit range the engine promises to honour."""

    slug = "stack-overflow"


class PeriodNotFoundError(DomainError):
    """No repeat within max_steps. Means max_steps was too small, nothing else."""

    slug = "period-not-found"


class InternalInconsistencyError(PardiffError):
    """A result the theory rules out: a state repeat at an offset other than
    1 or 2, or an oracle list whose length differs from its count. Indicates
    a bug."""

    slug = "internal-inconsistency"


class IllegalOrientationError(DomainError):
    slug = "illegal-orientation"


class IllegalLocalPatternError(DomainError):
    slug = "illegal-local-pattern"


class NotAnAgreeingPairError(DomainError):
    slug = "not-an-agreeing-pair"


def env_ceiling(variable: str, default: int) -> int:
    """Integer value of a ``PARDIFF_*_CEILING`` override, or ``default`` if unset."""
    raw = os.environ.get(variable)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise DomainError(f"{variable}={raw!r} is not an integer") from None


DEFAULT_ENUM_CEILING = 20
DEFAULT_CANDIDATE_CEILING = 7**10
DEFAULT_BRIDGE_VERTEX_CEILING = 12
_ENUM_CEILING_ENV = "PARDIFF_ENUM_CEILING"
_CANDIDATE_CEILING_ENV = "PARDIFF_ORACLE_CEILING"
_BRIDGE_CEILING_ENV = "PARDIFF_BRIDGE_CEILING"


def _enum_ceiling() -> int:
    """Largest n whose orientations may be listed."""
    return env_ceiling(_ENUM_CEILING_ENV, DEFAULT_ENUM_CEILING)


def _candidate_ceiling() -> int:
    """Most raw candidates, or window steps, one path-oracle call may take."""
    return env_ceiling(_CANDIDATE_CEILING_ENV, DEFAULT_CANDIDATE_CEILING)


def _bridge_ceiling() -> int:
    """Most vertices, G_0 plus the bridged path, one bridge-oracle call may take."""
    return env_ceiling(_BRIDGE_CEILING_ENV, DEFAULT_BRIDGE_VERTEX_CEILING)
