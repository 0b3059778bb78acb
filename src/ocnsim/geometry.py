"""Exact integer 2D geometry for belt analysis.

Points live in the (n, n') plane: Spoiler's counter on the x axis,
Duplicator's on the y axis.  A slope is a positive direction vector; all
predicates are decided with exact integer cross products, never floats.
"""

from __future__ import annotations

from functools import cmp_to_key
from math import gcd, inf

from .core import Node, _read_only

Vec2 = tuple[int, int]


class Slope:
    """A positive direction vector (rho, rho') with (rho, rho') != (0, 0)."""

    __slots__ = ("rho", "rho_prime")
    __setattr__ = _read_only

    def __init__(self, rho: int, rho_prime: int) -> None:
        if rho < 0 or rho_prime < 0 or (rho, rho_prime) == (0, 0):
            raise ValueError(f"not a positive vector: {(rho, rho_prime)}")
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "rho_prime", rho_prime)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Slope):
            return NotImplemented
        return self.rho == other.rho and self.rho_prime == other.rho_prime

    def __hash__(self) -> int:
        return hash((self.rho, self.rho_prime))

    def __reduce__(self):
        return Slope, (self.rho, self.rho_prime)

    def normalized(self) -> "Slope":
        g = gcd(self.rho, self.rho_prime)
        return Slope(self.rho // g, self.rho_prime // g)

    def as_vec(self) -> Vec2:
        return (self.rho, self.rho_prime)


def cross(u: Vec2, v: Vec2) -> int:
    return u[0] * v[1] - u[1] * v[0]


def is_behind(v: Vec2, s: Slope) -> bool:
    """True iff the clockwise angle from s to v is strictly in (0, 180) degrees.

    Decided by the cross product sign; the zero vector and collinear vectors
    (cross = 0) are not behind.
    """
    return cross(s.as_vec(), v) < 0


def steeper(s1: Slope, s2: Slope) -> int:
    """Compare steepness: +1 if s1 is steeper than s2, -1 if less steep, 0 if collinear.

    s2 < s1 in the steepness order exactly when s2, viewed as a vector, is
    behind s1; (0,1) is the maximum and (1,0) the minimum.
    """
    c = cross(s1.as_vec(), s2.as_vec())
    if c < 0:
        return 1
    if c > 0:
        return -1
    return 0


def c_above(point: tuple[int, int], s: Slope, c: int) -> bool:
    """True iff the point lies more than c beyond the slope's direction on
    Duplicator's side: some (r, r') = t*(rho, rho'), t > 0, has n < r - c and
    n' > r' + c.  Closed form in exact integers; vertical slopes have an empty
    above-zone.
    """
    n, n2 = point
    rho, rho2 = s.rho, s.rho_prime
    if rho == 0:
        return False
    return rho2 * (n + c) < rho * (n2 - c) and n2 > c


def c_below(point: tuple[int, int], s: Slope, c: int) -> bool:
    """Mirror of c_above on Spoiler's side; horizontal slopes have an empty
    below-zone."""
    n, n2 = point
    rho, rho2 = s.rho, s.rho_prime
    if rho2 == 0:
        return False
    return rho * (n2 + c) < rho2 * (n - c) and n > c


class Belt:
    """A pair's belt: boundary slope plus certified margin width c.

    Points more than c above the slope are simulation-included, points more
    than c below are excluded; the frontier runs inside the strip between.
    """

    __slots__ = ("pair", "slope", "c")
    __setattr__ = _read_only

    def __init__(self, pair: Node, slope: Slope, c: int) -> None:
        object.__setattr__(self, "pair", pair)
        object.__setattr__(self, "slope", slope)
        object.__setattr__(self, "c", c)

    def __reduce__(self):
        return Belt, (self.pair, self.slope, self.c)

    @property
    def vertical(self) -> bool:
        return self.slope == Slope(0, 1)

    def span(self, n: int) -> tuple[float, float]:
        """The lowest and highest m of the belt in column n >= 0: the points
        neither `c_below` nor `c_above` the slope.  A vertical belt has no
        above-zone (highest m inf), and its columns beyond c are below-zone
        (lowest m inf)."""
        rho, rho2, c = self.slope.rho, self.slope.rho_prime, self.c
        if rho == 0:
            return (0, inf) if n <= c else (inf, inf)
        lo = 0 if rho2 == 0 or n <= c else max(0, -(-(rho2 * (n - c) - rho * c) // rho))
        return lo, (rho2 * (n + c)) // rho + c

    def zone(self, pt: tuple[int, int]) -> bool | None:
        """True above the belt (simulated), False below it (not simulated),
        None inside it."""
        lo, hi = self.span(pt[0])
        m = pt[1]
        return True if m > hi else False if m < lo else None


def equivalent(s1: Slope, s2: Slope, vectors: set[Vec2]) -> bool:
    """True iff every vector of V is behind s1 exactly when it is behind s2."""
    return all(is_behind(v, s1) == is_behind(v, s2) for v in vectors)


def _positive_directions(vectors: set[Vec2]) -> list[Slope]:
    """Distinct positive directions occurring in V, sorted by steepness."""
    dirs = set()
    for x, y in vectors:
        if x >= 0 and y >= 0 and (x, y) != (0, 0):
            dirs.add(Slope(x, y).normalized())
    return sorted(dirs, key=cmp_to_key(steeper))


def mediant(s1: Slope, s2: Slope) -> Slope:
    """Vector sum of two slopes: a direction strictly between non-collinear ones."""
    return Slope(s1.rho + s2.rho, s1.rho_prime + s2.rho_prime).normalized()


def interval_representatives(vectors: set[Vec2]) -> list[Slope]:
    """Representative slopes covering every vector-equivalence class of
    positive directions, ordered strictly by steepness from (1,0) to (0,1).

    The list interleaves the critical directions occurring in V (restricted to
    the positive quadrant, gcd-normalized) with mediants of angle-adjacent
    pairs, always including the two axes.  Open angular intervals are
    represented by mediants; this refines the equivalence classes, which is
    sound for the boundary-slope scan.
    """
    boundaries = _positive_directions(vectors)
    lo, hi = Slope(1, 0), Slope(0, 1)
    if not boundaries or boundaries[0] != lo:
        boundaries.insert(0, lo)
    if boundaries[-1] != hi:
        boundaries.append(hi)
    reps: list[Slope] = []
    for i, b in enumerate(boundaries):
        if i > 0:
            reps.append(mediant(boundaries[i - 1], b))
        reps.append(b)
    return reps
