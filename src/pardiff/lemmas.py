"""The structural lemmas behind the counting routes, and the asymptotics of T_n.

Severing at flat edges multiplies counts, contracting an agreeing pair keeps
them, and stage(n, k) sums the first-hit buckets that the summation route
reads as suffix sums. The characteristic roots of the order-4 recurrence
give T_n's growth rate. These are checked by ``verify`` and the tests; no
count reads them, so a theory count never compiles this module.
"""

import math

from pardiff.counting import _CHAR_POLY, _COUNTS, _first_hit_buckets, count_T_recurrence
from pardiff.errors import DomainError, NotAnAgreeingPairError
from pardiff.orientations import _require_legal, _require_senses, flipped
from pardiff.records import Record


def stage(n: int, k: int) -> int:
    """Configurations whose orientation shows a flat or an agreeing pair early.

    Early means a flat edge among e_1..e_{k+1} or an agreeing directed pair
    (e_{i-1}, e_i) with i <= k+1. When the window k+1 runs past the last edge
    every orientation counts, which makes stage(n, k) = T_n for k >= n-1.
    """
    if n < 2:
        raise DomainError("stage needs n >= 2")
    if k < 0:
        raise DomainError("stage needs k >= 0")
    return sum(_first_hit_buckets(n, list(_COUNTS.completions(n - 2)))[: k + 1])


def sever_at_flats(orient: str) -> list[str]:
    """Suborientations on the maximal flat-free segments (flat edges deleted).

    For a legal input every segment is itself legal, and the product of the
    segment counts equals the whole orientation's count.
    """
    _require_legal(orient)
    return orient.split("F")


def contract_agreeing(s: str, i: int) -> str:
    """Remove the agreeing pair (e_{i-1}, e_i) and flip every later directed edge.

    The result lives on a path with two fewer vertices and is induced by
    exactly as many configurations as the input.
    """
    _require_legal(s)
    if not 2 <= i <= len(s):
        raise NotAnAgreeingPairError(f"no edge pair (e_{i - 1}, e_{i}) on this path")
    if s[i - 2] == "F" or s[i - 2] != s[i - 1]:
        raise NotAnAgreeingPairError(f"edges e_{i - 1}, e_{i} are not an agreeing directed pair")
    return s[: i - 2] + flipped(s[i:])


def agreeing_pair_positions(s: str) -> list[int]:
    """Indices i such that (e_{i-1}, e_i) is an agreeing directed pair."""
    _require_senses(s)
    return [i for i in range(2, len(s) + 1) if s[i - 2] != "F" and s[i - 2] == s[i - 1]]


class AsymptoticModel(Record):
    """Roots of x^4 - 3x^3 - 2x^2 - x + 1 and the fitted dominant term."""

    __slots__ = _fields = ("roots", "dominant_root", "dominant_coefficient")

    def __init__(self, roots: tuple[complex, ...], dominant_root: float, dominant_coefficient: float):
        object.__setattr__(self, "roots", roots)
        object.__setattr__(self, "dominant_root", dominant_root)
        object.__setattr__(self, "dominant_coefficient", dominant_coefficient)


def _char_poly(z: complex) -> complex:
    value = 0j
    for c in _CHAR_POLY:
        value = value * z + c
    return value


def characteristic_roots() -> AsymptoticModel:
    """Roots of the T-recurrence polynomial by Durand-Kerner, plus a fitted c_1.

    Durand-Kerner refines all four roots at once: each moves by p(z_i) over
    the product of its distances to the others, from the standard distinct
    seeds (0.4 + 0.9i)^i. The leading coefficient is a one-parameter
    least-squares fit of T_n against alpha_1^n over n = 20..30.
    """
    zs = [(0.4 + 0.9j) ** i for i in range(4)]
    for _ in range(500):
        moved = 0.0
        for i, z in enumerate(zs):
            step = _char_poly(z) / math.prod(z - w for j, w in enumerate(zs) if j != i)
            zs[i] = z - step
            moved = max(moved, abs(step))
        if moved < 1e-15:
            break
    roots = tuple(sorted(zs, key=lambda z: -abs(z)))
    real_roots = sorted((z.real for z in roots if abs(z.imag) < 1e-9), reverse=True)
    dominant = real_roots[0]
    num = sum(count_T_recurrence(m) * dominant**m for m in range(20, 31))
    den = sum(dominant ** (2 * m) for m in range(20, 31))
    return AsymptoticModel(roots=roots, dominant_root=dominant, dominant_coefficient=num / den)
