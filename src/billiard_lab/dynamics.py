"""The billiard map on a deformable obstacle table.

Straight free flight between obstacles, specular reflection at the
boundaries.  ``boundary_map`` is the one flight-and-reflect step, in the
boundary coordinates (u, v_t) of Chernov & Markarian, *Chaotic
Billiards*, ch. 2; the Jacobian oracle and the two-ray front check in
``lyapunov`` run it, the orbit solver does not.  A tangential departure
or hit raises ``GrazingError``; ``boundary_map`` judges it from the same
tangent frame it reflects in.  Intersections are found in closed form
per obstacle (every boundary is an affine image of the unit circle) and
polished with a joint Newton step, so hits are accurate to machine
precision even after long flights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .geometry import DeformationFamily, GeometryError, partial_jet, table_at

GRAZING_TOL = 1e-9        # |cos| of the incidence below which a hit is tangential
ROUNDING = 2e-15          # a few ulps, relative to a coordinate's size


class GrazingError(RuntimeError):
    """A tangential collision; the reflection law is ill-conditioned there."""


@dataclass(frozen=True)
class Hit:
    """The first obstacle hit: its index, boundary parameter u, flight
    time t and the boundary tangent at u."""

    obstacle: int
    u: float
    t: float
    tangent: np.ndarray = field(compare=False, repr=False)


def reflect(v: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Specular reflection of incoming direction v at unit normal n."""
    v = np.asarray(v, float)
    n = np.asarray(n, float)
    vn = float(v @ n)
    if abs(float(v @ v) - 1.0) > 2e-9:
        raise GeometryError("reflect expects a unit direction")
    if vn > 1e-12:
        raise GeometryError("reflect expects an incoming direction (v.n <= 0)")
    return v - 2.0 * vn * n


def first_intersection(q: np.ndarray, v: np.ndarray, family: DeformationFamily,
                       alpha: float, exclude: Optional[int] = None) -> Optional[Hit]:
    """First obstacle hit by the ray q + t v, or None if it escapes.

    ``exclude`` skips the obstacle the ray just left; convexity rules
    out an immediate self re-hit, and skipping it avoids a spurious
    root at t = 0.  Every other obstacle lies at least the certified
    pair gap from a ray leaving obstacle ``exclude``, so any positive
    root is a genuine flight.
    """
    table = table_at(family, alpha)
    q = np.asarray(q, float)
    v = np.asarray(v, float)

    best_t = math.inf
    best = None
    for i in range(1, family.z0 + 1):
        if i == exclude:
            continue
        # the frame in which obstacle i is the unit disc
        c, rot, scale = table.center_xy[i], table.rotation[i], 1.0 / table.axes[i]
        qn = (rot @ (q - c)) * scale
        vn = (rot @ v) * scale
        aa = float(vn @ vn)
        bb = 2.0 * float(qn @ vn)
        cc = float(qn @ qn) - 1.0
        # the discriminant bb^2 - 4 aa cc = 4 (aa - cross^2) by Lagrange's
        # identity, without the cancellation that leaves it an error of
        # eps |qn|^2 on long flights; a line that misses the disc by less
        # than the rounding of qn touches it
        cross = float(qn[0] * vn[1] - qn[1] * vn[0])
        gap = aa - cross * cross
        if gap < -ROUNDING * aa * math.hypot(qn[0], qn[1]):
            continue
        root = 2.0 * math.sqrt(max(gap, 0.0))
        qq = -0.5 * (bb + math.copysign(root, bb)) if bb != 0.0 else 0.5 * root
        cands = []
        if qq != 0.0:
            cands = [qq / aa, cc / qq]
        for t in cands:
            if 0.0 < t < best_t:
                best_t = t
                u0 = math.atan2(qn[1] + t * vn[1], qn[0] + t * vn[0])
                best = (i, u0 % (2.0 * math.pi))
    if best is None:
        return None

    i, u = best
    t = best_t
    # q + t v is exact only to the rounding of the flight's coordinate
    # size, so long flights stop as early as short ones
    q_size = math.hypot(q[0], q[1])
    for _ in range(5):
        p = partial_jet(family, i, u, alpha, 0, 0)
        tan = partial_jet(family, i, u, alpha, 1, 0)
        res = q + t * v - p
        if float(res @ res) < (ROUNDING * (q_size + t)) ** 2:
            break
        jac = np.array([[v[0], -tan[0]], [v[1], -tan[1]]])
        try:
            dt, du = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError:
            break
        t += dt
        u = (u + du) % (2.0 * math.pi)
    else:
        # the polish ran out: its last tangent belongs to the previous u
        tan = partial_jet(family, i, u, alpha, 1, 0)
    return Hit(i, float(u), float(t), tan)


def _tangent_frame(family, i, u, alpha):
    """(|T|, unit tangent, outward unit normal) at u on obstacle i."""
    return _frame(partial_jet(family, i, u, alpha, 1, 0))


def _frame(t):
    """(|T|, unit tangent, outward unit normal) of the tangent T."""
    speed = math.hypot(t[0], t[1])
    that = t / speed
    nhat = np.array([that[1], -that[0]])
    return speed, that, nhat


def boundary_map(family: DeformationFamily, i: int, u: float, vt: float,
                 alpha: float) -> Optional[tuple[int, float, float]]:
    """The billiard map in boundary coordinates (u, v_t).

    Leaves obstacle i at parameter u with velocity component vt along
    the unit tangent, flies to the first obstacle hit and reflects there.
    Returns the next (obstacle, u, vt), or None when the ray escapes.
    Raises GrazingError on a tangential departure (|vt| >= 1) or a
    tangential hit.
    """
    _, that, nhat = _tangent_frame(family, i, u, alpha)
    vn = 1.0 - vt * vt
    if vn <= 0.0:
        raise GrazingError(
            f"tangential departure from obstacle {i} at u = {u:.6f}")
    v = vt * that + math.sqrt(vn) * nhat
    q = partial_jet(family, i, u, alpha, 0, 0)
    hit = first_intersection(q, v, family, alpha, exclude=i)
    if hit is None:
        return None
    _, that2, nhat2 = _frame(hit.tangent)
    if abs(float(v @ nhat2)) < GRAZING_TOL:
        raise GrazingError(
            f"tangential hit on obstacle {hit.obstacle} at u = {hit.u:.6f}")
    v2 = reflect(v, nhat2)
    return hit.obstacle, hit.u, float(v2 @ that2)
