"""Computational domains, Dirichlet boundary data, and named model problems.

A domain is used purely as a distance/projection oracle: it answers how far
an interior point is from the boundary and which boundary point is nearest.
That is all the walk-on-spheres simulation ever needs. Three shapes are
provided: the unit-square-scaled box [0,2]^2, the upper unit hemisphere in
three dimensions, and origin-centered balls of any dimension (a test fixture
whose first jump from the center lands exactly on the boundary).

All objects here are immutable after construction and safe for concurrent
reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "Domain",
    "Square",
    "Hemisphere",
    "Ball",
    "BoundaryCondition",
    "Problem",
    "boundary_value",
    "square_problem",
    "hemisphere_problem",
    "ball_problem",
    "get_problem",
    "PROBLEM_NAMES",
    "SQUARE_CENTER_VALUE",
    "HEMISPHERE_START",
]

# u(1,1) on the square problem: 5-point finite differences at mesh widths
# 1/128 and 1/256, Richardson extrapolated (see tests/test_reference_oracle.py).
# Registered accuracy 1e-4; the extrapolation itself agrees with an
# independent series solution to ~1e-9.
SQUARE_CENTER_VALUE = 0.5227663

HEMISPHERE_START = (0.2, 0.3, 0.1)


def as_point(p, dim: Optional[int] = None) -> np.ndarray:
    """Coerce ``p`` to a finite float64 vector, optionally checking length."""
    q = np.asarray(p, dtype=np.float64)
    if q.ndim != 1:
        raise ValueError(f"point must be a 1-d vector, got shape {q.shape}")
    if dim is not None and q.shape[0] != dim:
        raise ValueError(f"point has dimension {q.shape[0]}, expected {dim}")
    if not np.all(np.isfinite(q)):
        raise ValueError("point has non-finite entries")
    return q


class Domain:
    """A bounded convex domain described by distance and projection oracles.

    Subclasses implement the vectorized kernels ``_dist`` and ``_proj`` on
    ``(n, dim)`` arrays; the public methods validate a single point and
    delegate. ``diameter`` is the diameter of the circumsphere.
    """

    dim: int
    diameter: float
    kind: str

    def _dist(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _proj(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def distance_to_boundary(self, p) -> float:
        """Distance from ``p`` to the boundary, exactly 0 on the boundary.

        Raises ValueError for points outside the closed domain, which always
        signals misuse upstream.
        """
        q = as_point(p, self.dim)
        d = float(self._dist(q[None, :])[0])
        if d < -1e-12 * self.diameter:
            raise ValueError(f"point {q.tolist()} lies outside the {self.kind} domain")
        return max(d, 0.0)

    def project_to_boundary(self, p) -> np.ndarray:
        """Nearest boundary point to ``p``. Ties break deterministically."""
        q = as_point(p, self.dim)
        self.distance_to_boundary(q)  # containment check
        return self._proj(q[None, :])[0]

    def __repr__(self):
        return f"{type(self).__name__}(kind={self.kind!r}, dim={self.dim}, diameter={self.diameter:g})"


class Square(Domain):
    """The square [0, 2]^2. Circumsphere diameter is the diagonal 2*sqrt(2)."""

    dim = 2
    diameter = 2.0 * math.sqrt(2.0)
    kind = "square2d"

    def _dist(self, pts):
        x = pts[:, 0]
        y = pts[:, 1]
        return np.minimum(np.minimum(x, 2.0 - x), np.minimum(y, 2.0 - y))

    def _proj(self, pts):
        # Per axis, the gap to the nearer edge and whether that edge is at
        # 2; then the axis with the smaller gap. Ties go to the edge at 0
        # and to the x axis: the first of (x, 2 - x, y, 2 - y) at the minimum.
        gap = 2.0 - pts
        far = gap < pts
        np.minimum(pts, gap, out=gap)
        on_x = gap[:, 0] <= gap[:, 1]
        out = pts.copy()
        np.multiply(far, 2.0, out=gap)
        np.copyto(out[:, 0], gap[:, 0], where=on_x)
        np.copyto(out[:, 1], gap[:, 1], where=~on_x)
        return out


class Hemisphere(Domain):
    """Upper half of the unit ball in 3-d: |x| <= 1, x3 >= 0."""

    dim = 3
    diameter = 2.0
    kind = "hemisphere3d"

    @staticmethod
    def _radii(pts):
        return np.sqrt(pts[:, 0] ** 2 + pts[:, 1] ** 2 + pts[:, 2] ** 2)

    def _dist(self, pts):
        return np.minimum(1.0 - self._radii(pts), pts[:, 2])

    def _proj(self, pts):
        r = self._radii(pts)
        # Tie (equidistant from plane and sphere) projects to the plane.
        planar = pts[:, 2] <= 1.0 - r
        out = pts.copy()
        out[planar, 2] = 0.0
        sph = ~planar
        if np.any(sph):
            safe_r = np.where(r > 0.0, r, 1.0)
            out[sph] = pts[sph] / safe_r[sph, None]
        return out


class Ball(Domain):
    """Origin-centered ball of a given dimension and radius (test fixture)."""

    def __init__(self, dim: int, radius: float = 1.0):
        if dim < 1:
            raise ValueError("ball dimension must be positive")
        if radius <= 0.0:
            raise ValueError("ball radius must be positive")
        self.dim = int(dim)
        self.radius = float(radius)
        self.diameter = 2.0 * self.radius
        self.kind = f"ball{dim}"

    def _radii(self, pts):
        r2 = pts[:, 0] ** 2
        for j in range(1, self.dim):
            r2 = r2 + pts[:, j] ** 2
        return np.sqrt(r2)

    def _dist(self, pts):
        return self.radius - self._radii(pts)

    def _proj(self, pts):
        r = self._radii(pts)
        out = np.empty_like(pts)
        safe_r = np.where(r > 0.0, r, 1.0)
        out[:] = pts * (self.radius / safe_r)[:, None]
        # The exact center has no nearest point; pick the first axis.
        center = r == 0.0
        if np.any(center):
            out[center] = 0.0
            out[center, 0] = self.radius
        return out


@dataclass(frozen=True)
class BoundaryCondition:
    """Dirichlet data f on the boundary plus its Hoelder smoothness.

    ``evaluator`` maps an (n, dim) array of boundary points to n values.
    It must be row-wise: value ``i`` depends on row ``i`` alone, bit for
    bit, so evaluating the rows in chunks gives the same values as one call
    (the level sampler relies on it). ``holder_alpha`` is the Hoelder
    exponent in (0, 1].
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    holder_alpha: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.holder_alpha <= 1.0):
            raise ValueError("holder_alpha must lie in (0, 1]")

    def __call__(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=np.float64)
        if pts.ndim == 1:
            return float(self.evaluator(pts[None, :])[0])
        return np.asarray(self.evaluator(pts), dtype=np.float64)


# Membership tolerance for evaluating boundary data: far below any stopping
# width in use, far above floating-point noise.
_BOUNDARY_TOL = 1e-9


def boundary_value(domain: Domain, bc: BoundaryCondition, p) -> float:
    """Evaluate boundary data at ``p``, rejecting points off the boundary."""
    q = as_point(p, domain.dim)
    d = abs(float(domain._dist(q[None, :])[0]))
    if d > _BOUNDARY_TOL * domain.diameter:
        raise ValueError(
            f"point {q.tolist()} is {d:.3e} from the boundary, "
            f"beyond the membership tolerance"
        )
    return float(bc(q))


@dataclass(frozen=True)
class Problem:
    """A Dirichlet Laplace instance: domain, boundary data, evaluation point.

    ``reference_solution`` is the known value u(start) when available,
    tagged with its provenance: "analytic" for closed forms, "oracle" for
    values computed by an independent numerical method.
    """

    domain: Domain
    bc: BoundaryCondition
    start: np.ndarray
    reference_solution: Optional[float] = None
    reference_provenance: Optional[str] = None
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "start", as_point(self.start, self.domain.dim))
        if self.domain.distance_to_boundary(self.start) <= 0.0:
            raise ValueError("start point must be strictly interior")
        if self.reference_solution is not None and self.reference_provenance not in (
            "analytic",
            "oracle",
        ):
            raise ValueError("reference_provenance must be 'analytic' or 'oracle'")


# ---------------------------------------------------------------------------
# Model problem boundary data


def square_boundary_data(pts: np.ndarray) -> np.ndarray:
    """Bathtub profile on [0,2]^2: 4(x-1/2)^2 for x<=1/2, 4(x-3/2)^2 for
    x>=3/2, zero between. Continuous, piecewise smooth, Hoelder exponent 1."""
    x = pts[:, 0]
    return np.where(
        x <= 0.5,
        4.0 * (x - 0.5) ** 2,
        np.where(x >= 1.5, 4.0 * (x - 1.5) ** 2, 0.0),
    )


def hemisphere_boundary_data(pts: np.ndarray) -> np.ndarray:
    """Boundary data whose harmonic extension is [x1^2+x2^2+(x3+1)^2]^(-1/2).

    On the spherical cap this reduces to [2(x3+1)]^(-1/2); on the planar face
    to [x1^2+x2^2+1]^(-1/2). Both branches agree on the rim circle.
    """
    r = np.sqrt(pts[:, 0] ** 2 + pts[:, 1] ** 2 + pts[:, 2] ** 2)
    planar = pts[:, 2] < 1.0 - r
    out = np.empty(len(pts))
    out[planar] = (pts[planar, 0] ** 2 + pts[planar, 1] ** 2 + 1.0) ** -0.5
    out[~planar] = (2.0 * (pts[~planar, 2] + 1.0)) ** -0.5
    return out


def hemisphere_solution(p) -> float:
    """Closed-form solution of the hemisphere problem at any point."""
    q = as_point(p, 3)
    return float((q[0] ** 2 + q[1] ** 2 + (q[2] + 1.0) ** 2) ** -0.5)


def _constant_data(pts: np.ndarray, value: float = 1.0) -> np.ndarray:
    return np.full(len(pts), value)


def _coordinate_data(pts: np.ndarray, axis: int = 0) -> np.ndarray:
    return pts[:, axis].copy()


def square_problem() -> Problem:
    """The square model problem, evaluated at the midpoint (1, 1)."""
    return Problem(
        domain=Square(),
        bc=BoundaryCondition(square_boundary_data, holder_alpha=1.0),
        start=(1.0, 1.0),
        reference_solution=SQUARE_CENTER_VALUE,
        reference_provenance="oracle",
        name="square",
    )


def hemisphere_problem() -> Problem:
    """The hemisphere model problem, evaluated at (0.2, 0.3, 0.1)."""
    return Problem(
        domain=Hemisphere(),
        bc=BoundaryCondition(hemisphere_boundary_data, holder_alpha=1.0),
        start=HEMISPHERE_START,
        reference_solution=hemisphere_solution(HEMISPHERE_START),
        reference_provenance="analytic",
        name="hemisphere",
    )


def ball_problem(dim: int, radius: float = 1.0, data: str = "one", start=None) -> Problem:
    """Ball fixture with constant data (``"one"``) or the first coordinate
    (``"x1"``). The constant problem has the exact solution 1 everywhere;
    the coordinate problem vanishes at the center by symmetry."""
    domain = Ball(dim, radius)
    if data == "one":
        bc = BoundaryCondition(_constant_data, holder_alpha=1.0)
        ref, prov = 1.0, "analytic"
    elif data == "x1":
        bc = BoundaryCondition(_coordinate_data, holder_alpha=1.0)
        ref, prov = None, None
        if start is None or not np.any(np.asarray(start)):
            ref, prov = 0.0, "analytic"
    else:
        raise ValueError(f"unknown ball data {data!r}")
    if start is None:
        start = np.zeros(dim)
    return Problem(
        domain=domain,
        bc=bc,
        start=start,
        reference_solution=ref,
        reference_provenance=prov,
        name=f"ball{dim}",
    )


_REGISTRY = {
    "square": square_problem,
    "hemisphere": hemisphere_problem,
    "ball2": lambda: ball_problem(2),
    "ball3": lambda: ball_problem(3),
}

PROBLEM_NAMES = tuple(sorted(_REGISTRY))


def get_problem(name: str) -> Problem:
    """Look up a named model problem (square, hemisphere, ball2, ball3)."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown problem {name!r}; choose from {PROBLEM_NAMES}") from None
    return factory()
