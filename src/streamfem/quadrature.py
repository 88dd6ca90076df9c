"""Gaussian quadrature rules on the reference triangle (0,0), (1,0), (0,1).

Weights are normalized to sum to 1, so an integral is approximated by
``|T| * sum(w_q f(p_q))``. The 4-point rule is the positive-weight conical
product rule (degree 3); a fully symmetric positive 4-point degree-3 rule
does not exist, so that rule alone is not invariant under the triangle
symmetries. The 6-, 12- and 25-point rules are the classical fully symmetric
rules of degree 4, 6 and 10. Orbit parameters were refined to 60 digits by
Newton iteration on the moment equations before freezing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class QuadratureRule:
    """Point set on the reference triangle with weights summing to 1."""

    n_points: int
    exact_degree: int
    points: np.ndarray   # (nq, 2) reference coordinates
    weights: np.ndarray  # (nq,)
    symmetric: bool      # invariant under all 6 triangle symmetries


def _orbit_s2(a: float) -> list[tuple[float, float]]:
    b = 1.0 - 2.0 * a
    return [(a, a), (b, a), (a, b)]


def _orbit_s1(a: float, b: float) -> list[tuple[float, float]]:
    c = 1.0 - a - b
    return [(b, c), (c, b), (a, c), (c, a), (a, b), (b, a)]


def _assemble(orbits, degree, symmetric) -> QuadratureRule:
    pts, wts = [], []
    for w, orbit in orbits:
        pts.extend(orbit)
        wts.extend([w] * len(orbit))
    points = np.array(pts, dtype=float)
    weights = np.array(wts, dtype=float)
    return QuadratureRule(
        n_points=len(points),
        exact_degree=degree,
        points=points,
        weights=weights,
        symmetric=symmetric,
    )


_SQRT3 = np.sqrt(3.0)
_SQRT6 = np.sqrt(6.0)

_CENTROID = [(1.0, [(1.0 / 3.0, 1.0 / 3.0)])]

_MIDORBIT = [(1.0 / 3.0, _orbit_s2(1.0 / 6.0))]

# conical product: 2-pt Gauss in xi, 2-pt Gauss-Jacobi (weight 1-eta) in eta;
# x = xi (1 - eta), y = eta
_CP_XI = (0.5 - _SQRT3 / 6.0, 0.5 + _SQRT3 / 6.0)
_CP_ETA = (0.4 - _SQRT6 / 10.0, 0.4 + _SQRT6 / 10.0)
_CP_WETA = (0.25 + _SQRT6 / 36.0, 0.25 - _SQRT6 / 36.0)
_CONICAL4 = [
    (_CP_WETA[j], [(_CP_XI[i] * (1.0 - _CP_ETA[j]), _CP_ETA[j])])
    for i in range(2)
    for j in range(2)
]

_RULES: dict[int, QuadratureRule] = {
    1: _assemble(_CENTROID, 1, True),
    3: _assemble(_MIDORBIT, 2, True),
    4: _assemble(_CONICAL4, 3, False),
    6: _assemble(
        [
            (0.2233815896780114657, _orbit_s2(0.44594849091596488632)),
            (0.10995174365532186764, _orbit_s2(0.09157621350977074346)),
        ],
        4,
        True,
    ),
    12: _assemble(
        [
            (0.050844906370206816921, _orbit_s2(0.06308901449150222834)),
            (0.11678627572637936603, _orbit_s2(0.24928674517091042129)),
            (
                0.082851075618373575194,
                _orbit_s1(0.053145049844816947353, 0.31035245103378440542),
            ),
        ],
        6,
        True,
    ),
    25: _assemble(
        [
            (0.090817990382753580095, [(1.0 / 3.0, 1.0 / 3.0)]),
            (0.036725957756466704717, _orbit_s2(0.48557763338365737737)),
            (0.045321059435527934783, _orbit_s2(0.1094815754850370548)),
            (
                0.072757916845420108604,
                _orbit_s1(0.14170721941487995476, 0.30793983876412095017),
            ),
            (
                0.028327242531057484837,
                _orbit_s1(0.025003534762686386074, 0.24667256063990269392),
            ),
            (
                0.0094216669637328234599,
                _orbit_s1(0.0095408154002994575802, 0.066803251012200265774),
            ),
        ],
        10,
        True,
    ),
}

SUPPORTED_POINT_COUNTS = tuple(sorted(_RULES))


def rule(n_points: int) -> QuadratureRule:
    """Return the rule with the given number of points (1, 3, 4, 6, 12, 25)."""
    try:
        return _RULES[n_points]
    except KeyError:
        raise ValueError(
            f"unsupported quadrature point count {n_points}; "
            f"supported: {SUPPORTED_POINT_COUNTS}"
        ) from None


def map_to_triangle(q: QuadratureRule, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map reference points/weights to a physical triangle or a stack of them.

    Parameters
    ----------
    coords : (..., 3, 2) array
        Physical vertex coordinates of one triangle, or of a stack of them.

    Returns
    -------
    points : (..., nq, 2) physical quadrature points
    weights : (..., nq) weights scaled by |area| so that sum(w f) ~ integral
    """
    coords = np.asarray(coords, dtype=float)
    a = coords[..., 0, None, :]
    u, v = coords[..., 1, None, :] - a, coords[..., 2, None, :] - a
    pts = a + q.points[:, 0, None] * u + q.points[:, 1, None] * v
    area = 0.5 * np.abs(u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0])
    return pts, q.weights * area
