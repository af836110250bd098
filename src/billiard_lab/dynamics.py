"""Billiard flow on a deformable obstacle table.

Straight free flight between obstacles, specular reflection at the
boundaries.  Intersections are found in closed form per obstacle (every
boundary is an affine image of the unit circle) and polished with a
joint Newton step, so hits are accurate to machine precision even after
long flights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .geometry import (TABLE_CACHE_SIZE, DeformationFamily, GeometryError,
                       _pair_gap, curvature, outward_normal, partial_jet,
                       table_at)

GRAZING_TOL = 1e-9        # |cos| of the incidence below which a hit is tangential
_T_FLOOR_REL = 1e-9       # relative floor on flight time, scaled by the table gap


class GrazingError(RuntimeError):
    """A tangential collision; the reflection law is ill-conditioned there."""


@dataclass(frozen=True)
class PhaseState:
    """Outgoing state: obstacle index (1-based), boundary parameter u,
    unit direction just after reflection, and the deformation parameter."""

    obstacle: int
    u: float
    direction: tuple[float, float]
    alpha: float

    def __post_init__(self):
        vx, vy = self.direction
        if abs(math.hypot(vx, vy) - 1.0) > 1e-9:
            raise GeometryError("phase state direction must be a unit vector")

    def point(self, family: DeformationFamily) -> np.ndarray:
        return partial_jet(family, self.obstacle, self.u, self.alpha, 0, 0)


@dataclass(frozen=True)
class ReflectionRecord:
    """One reflection: where it happened and the local data the curvature
    recursion consumes.  ``t`` is the cumulative path length from the
    seed, ``d`` the flight length to the next reflection (nan when that
    flight was never computed, i.e. for the final record), ``phi`` the
    angle between the outgoing ray and the outward normal."""

    obstacle: int
    u: float
    point: tuple[float, float]
    t: float
    d: float
    phi: float
    kappa: float


@dataclass(frozen=True)
class Trajectory:
    records: tuple[ReflectionRecord, ...]
    escaped: bool
    grazing: bool


@dataclass(frozen=True)
class Hit:
    obstacle: int
    u: float
    t: float
    point: tuple[float, float]
    grazing: bool


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


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _min_gap(family: DeformationFamily, alpha: float) -> float:
    """The smallest distance between two obstacles at alpha, which scales
    the minimum admissible flight time."""
    table = table_at(family, alpha)
    return min(_pair_gap(table, i, k, alpha)
               for i in range(1, family.z0 + 1)
               for k in range(i + 1, family.z0 + 1))


def first_intersection(q: np.ndarray, v: np.ndarray, family: DeformationFamily,
                       alpha: float, exclude: Optional[int] = None) -> Optional[Hit]:
    """First obstacle hit by the ray q + t v, or None if it escapes.

    ``exclude`` skips the obstacle the ray just left; convexity rules
    out an immediate self re-hit, and skipping it avoids a spurious
    root at t = 0.
    """
    table = table_at(family, alpha)
    q = np.asarray(q, float)
    v = np.asarray(v, float)
    t_floor = _T_FLOOR_REL * _min_gap(family, alpha)

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
        disc = bb * bb - 4.0 * aa * cc
        if disc < 0.0:
            continue
        root = math.sqrt(disc)
        qq = -0.5 * (bb + math.copysign(root, bb)) if bb != 0.0 else 0.5 * root
        cands = []
        if qq != 0.0:
            cands = [qq / aa, cc / qq]
        for t in cands:
            if t_floor < t < best_t:
                best_t = t
                u0 = math.atan2(qn[1] + t * vn[1], qn[0] + t * vn[0])
                best = (i, u0 % (2.0 * math.pi))
    if best is None:
        return None

    i, u = best
    t = best_t
    for _ in range(5):
        p = partial_jet(family, i, u, alpha, 0, 0)
        tan = partial_jet(family, i, u, alpha, 1, 0)
        res = q + t * v - p
        if float(res @ res) < 1e-28:
            break
        jac = np.array([[v[0], -tan[0]], [v[1], -tan[1]]])
        try:
            dt, du = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError:
            break
        t += dt
        u = (u + du) % (2.0 * math.pi)

    n = outward_normal(family, i, u, alpha)
    grazing = abs(float(v @ n)) < GRAZING_TOL
    p = partial_jet(family, i, u, alpha, 0, 0)
    return Hit(i, float(u), float(t), (float(p[0]), float(p[1])), grazing)


def billiard_step(state: PhaseState, family: DeformationFamily):
    """One bounce.  Returns (next_state, hit) or (None, None) on escape.

    Raises GrazingError on a tangential hit."""
    q = state.point(family)
    v = np.asarray(state.direction, float)
    n = outward_normal(family, state.obstacle, state.u, state.alpha)
    if float(v @ n) < -1e-12:
        raise GeometryError("phase state direction points into its obstacle")
    hit = first_intersection(q, v, family, state.alpha, exclude=state.obstacle)
    if hit is None:
        return None, None
    if hit.grazing:
        raise GrazingError(
            f"tangential hit on obstacle {hit.obstacle} at u = {hit.u:.6f}")
    n_hit = outward_normal(family, hit.obstacle, hit.u, state.alpha)
    v_out = reflect(v, n_hit)
    nxt = PhaseState(hit.obstacle, hit.u, (float(v_out[0]), float(v_out[1])),
                     state.alpha)
    return nxt, hit


def _record(family, state: PhaseState, t: float, d: float) -> ReflectionRecord:
    n = outward_normal(family, state.obstacle, state.u, state.alpha)
    v = np.asarray(state.direction, float)
    cphi = min(1.0, max(-1.0, float(v @ n)))
    kap = curvature(family, state.obstacle, state.u, state.alpha)
    p = state.point(family)
    return ReflectionRecord(state.obstacle, state.u, (float(p[0]), float(p[1])),
                            t, d, math.acos(cphi), kap)


def trajectory(state: PhaseState, family: DeformationFamily, m: int) -> Trajectory:
    """Shoot m bounces from an outgoing state.

    Returns up to m + 1 reflection records including the seed.  Stops
    early with ``escaped`` when the ray leaves the table, or with
    ``grazing`` on a tangential hit (without raising).
    """
    if m < 0:
        raise GeometryError("bounce count must be nonnegative")
    records = []
    cum_t = 0.0
    cur = state
    escaped = False
    grazing = False
    pending = []  # (state, cumulative t); d filled once the next hit is known
    pending.append((cur, cum_t))
    for _ in range(m):
        try:
            nxt, hit = billiard_step(cur, family)
        except GrazingError:
            grazing = True
            break
        if nxt is None:
            escaped = True
            break
        st, t0 = pending.pop()
        records.append(_record(family, st, t0, hit.t))
        cum_t = t0 + hit.t
        cur = nxt
        pending.append((cur, cum_t))
    st, t0 = pending.pop()
    records.append(_record(family, st, t0, math.nan))
    return Trajectory(tuple(records), escaped, grazing)
