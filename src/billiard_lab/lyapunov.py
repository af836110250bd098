"""Largest Lyapunov exponent along trapped orbits.

A dispersing wave front hitting a boundary of curvature kappa at angle
phi leaves with front curvature increased by 2 kappa / cos phi; over a
free flight of length d the curvature relaxes to k / (1 + d k) while the
front width grows by the factor (1 + d k).  Iterating this pair along an
orbit gives the exponent as the mean of log(1 + d_j k_j), its
alpha-derivative as the mean of the exactly differentiated terms, and
two independent cross-checks: a finite-difference Jacobian product of
the boundary-coordinate billiard map, and a literal two-ray pencil.
Both cross-checks run ``dynamics.boundary_map`` along the solved
orbit's itinerary, from node data (point, |T|, cos phi, v_t, outgoing
chord) built once per reflection.  The estimate, its derivative and the Jacobian
oracle average one window: a periodic orbit's full period, or a
segment's first m flights after a burn-in.
On a cycle the recursions close without iteration: each step is a
Moebius map (affine for k_dot), so the start is the fixed point of one
2x2 matrix product, the root of a quadratic, then run once around.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import _tangent_frame, boundary_map
from .geometry import DeformationFamily, GeometryError, TableBounds, partial_jet
from .symbolic import AlphaDerivatives, BilliardOrbit, SolveError, Word

DEFAULT_BURN_IN = 10      # flights discarded before averaging, open words only
DEFAULT_H_FD = 1e-6       # finite-difference step of the Jacobian oracle
_RENORM_EVERY = 5


@dataclass(frozen=True)
class CurvatureTrace:
    """Post-reflection front curvatures k[j] and flight contractions
    delta[j] = 1/(1 + d_j k_j) along an orbit; ``seed_k0`` is nan for a
    periodic fixed point."""

    k: np.ndarray
    delta: np.ndarray
    seed_k0: float


@dataclass(frozen=True)
class KdotTrace:
    """Alpha-derivatives k_dot[j] of the trace curvatures, with the
    per-flight factors beta[j] = delta[j]^2 and the forcing terms of the
    linear recursion k_dot[j+1] = beta[j] k_dot[j] + forcing[j]."""

    k_dot: np.ndarray
    beta: np.ndarray
    forcing: np.ndarray


@dataclass(frozen=True)
class LyapunovReport:
    """``trace`` is the curvature trace the estimate averaged: the cycle
    fixed point, or the propagation from the seed over m flights."""

    lambda_m: float
    m: int
    lower: float
    upper: float
    trace: CurvatureTrace


def default_seed_curvature(orbit: BilliardOrbit) -> float:
    return 2.0 * float(orbit.records.kappa[0])


def _orbit_dg(orbit: BilliardOrbit):
    """Lists d[j], g[j] = 2 kappa / cos phi; Python floats run the same
    IEEE operations as NumPy scalars, faster."""
    records = orbit.records
    # math.cos per reflection: numpy's cos may round differently
    cphi = [math.cos(phi) for phi in records.phi.tolist()]
    if min(cphi) < 1e-9:
        raise GeometryError("collision angle too close to pi/2")
    return records.d.tolist(), [2.0 * kap / c for kap, c
                                in zip(records.kappa.tolist(), cphi)]


def _recurse(d, g, k0: float, steps: int):
    """(k, delta) of the curvature recursion from k0 over ``steps``
    flights, cycling through the p flights of (d, g)."""
    p = len(d)
    k = [k0]
    delta = []
    for j in range(steps):
        delta.append(1.0 / (1.0 + d[j % p] * k[j]))
        if j + 1 < steps:
            k.append(k[j] * delta[j] + g[(j + 1) % p])
    return np.array(k), np.array(delta)


def _cycle_fixed_point(steps) -> float:
    """Fixed point of k -> (a k + b) / (c k + e), [[a, b], [c, e]] the
    product of the step matrices [[a_j, b_j], [c_j, 1]], first step first,
    rescaled by e after each step so that a long cycle stays finite.  It
    is the root of c k^2 + (e - a) k - b = 0 without cancellation: the
    positive one for curvature steps, b / (e - a) for affine ones (c = 0).
    """
    a, b, c = 1.0, 0.0, 0.0
    for aj, bj, cj in steps:
        e = cj * b + 1.0
        a, b, c = (aj * a + bj * c) / e, (aj * b + bj) / e, \
            (cj * a + c) / e
    h = 1.0 - a
    root = math.sqrt(h * h + 4.0 * b * c)
    return 2.0 * b / (h + root) if h > 0.0 else (root - h) / (2.0 * c)


def propagate_curvature(orbit: BilliardOrbit, k0: float,
                        steps: Optional[int] = None) -> CurvatureTrace:
    """Run the curvature recursion from seed k0.

    Periodic orbits cycle; segments are capped at one flight per record.
    """
    if not k0 > 0.0:
        raise GeometryError("seed curvature must be positive")
    p = len(orbit.records)
    steps = p if steps is None else steps
    cap = p if orbit.kind == "segment" else math.inf
    if not 1 <= steps <= cap:
        raise ValueError(f"steps must lie in 1..{cap}, got {steps}")
    d, g = _orbit_dg(orbit)
    return CurvatureTrace(*_recurse(d, g, float(k0), steps), k0)


def periodic_curvature_fixed_point(orbit: BilliardOrbit) -> CurvatureTrace:
    """Periodic trace: the unique positive fixed point of the full cycle,
    closed exactly (module docstring); step j maps k[j] to k[j+1] by the
    matrix [[1 + g[j+1] d[j], g[j+1]], [d[j], 1]]."""
    if orbit.kind != "periodic":
        raise ValueError("fixed point needs a periodic orbit")
    d, g = _orbit_dg(orbit)
    k0 = _cycle_fixed_point((1.0 + gn * dj, gn, dj)
                            for dj, gn in zip(d, g[1:] + g[:1]))
    return CurvatureTrace(*_recurse(d, g, k0, len(d)), math.nan)


def _window(orbit: BilliardOrbit, burn_in: Optional[int],
            m: Optional[int]) -> tuple[int, int]:
    """The averaging window (burn, m): flights burn..m-1 are averaged.

    A periodic orbit is averaged over its full period, and a window that
    asks for anything else is refused.  A segment averages its first m
    flights (default all) less ``burn_in`` (default ``DEFAULT_BURN_IN``).
    """
    p = len(orbit.records)
    if orbit.kind == "periodic":
        if burn_in not in (None, 0) or m not in (None, p):
            raise ValueError(
                f"periodic word {orbit.word.label} is averaged over its full "
                f"period {p}; got burn_in={burn_in}, m={m}")
        return 0, p
    m_use = p if m is None else m
    if not 1 <= m_use <= p:
        raise ValueError(f"m must lie in 1..{p}")
    burn = DEFAULT_BURN_IN if burn_in is None else burn_in
    if not 0 <= burn < m_use:
        raise ValueError("burn-in must leave at least one flight")
    return burn, m_use


def _flight_mean(trace: CurvatureTrace, burn: int) -> float:
    """Mean of log(1 + d_j k_j) over the trace's flights from ``burn``."""
    return float((-np.log(trace.delta))[burn:].mean())


def lyapunov_estimate(orbit: BilliardOrbit, burn_in: Optional[int] = None,
                      m: Optional[int] = None, *,
                      bounds: Optional[TableBounds] = None) -> LyapunovReport:
    """Finite-orbit exponent estimate.

    Periodic orbits use the cycle fixed point (exact per-period mean, no
    seed, no burn-in; any other window is refused).  Segments propagate
    from the default seed k0 and discard ``burn_in`` flights.  The
    bracket comes from ``bounds``, which must be taken at the orbit's alpha.
    """
    if bounds is not None and bounds.alpha != orbit.alpha:
        raise ValueError(f"bounds at alpha = {bounds.alpha} given for an "
                         f"orbit at alpha = {orbit.alpha}")
    burn, m_use = _window(orbit, burn_in, m)
    if orbit.kind == "periodic":
        trace = periodic_curvature_fixed_point(orbit)
    else:
        trace = propagate_curvature(orbit, default_seed_curvature(orbit),
                                    m_use)
    lower, upper = (math.nan, math.nan) if bounds is None \
        else (bounds.lower, bounds.upper)
    return LyapunovReport(_flight_mean(trace, burn), m_use - burn, lower,
                          upper, trace)


def seed_sensitivity(orbit: BilliardOrbit, burn_in: Optional[int] = None,
                     m: Optional[int] = None) -> float:
    """Spread of ``lyapunov_estimate`` over the same window under the
    seeds 2 k0 and k0/2 (k0 the default seed); 0 for a periodic orbit,
    whose fixed point has no seed."""
    burn, m_use = _window(orbit, burn_in, m)
    if orbit.kind == "periodic":
        return 0.0
    k0 = default_seed_curvature(orbit)
    return abs(_flight_mean(propagate_curvature(orbit, 2.0 * k0, m_use), burn)
               - _flight_mean(propagate_curvature(orbit, 0.5 * k0, m_use),
                              burn))


def kdot_trace(orbit: BilliardOrbit, derivs: AlphaDerivatives,
               trace: CurvatureTrace) -> KdotTrace:
    """Alpha-derivative of the curvature trace.

    Differentiating k[j+1] = k[j] delta[j] + g[j+1] gives the linear
    recursion with factor beta = delta^2; segments start from
    k_dot[0] = 0 (the seed is held fixed), periodic traces close the
    cycle exactly through the affine steps [[beta, forcing], [0, 1]].
    """
    p = len(orbit.records)
    steps = len(trace.k)
    if steps != p:
        raise ValueError("trace length must match the record count")
    beta = trace.delta ** 2
    # forcing[j] enters k_dot[j+1]
    forcing = -beta * derivs.d_dot * (trace.k * trace.k) \
        + np.roll(derivs.g_dot, -1)

    b, f = beta.tolist(), forcing.tolist()
    if orbit.kind == "segment":
        k_dot = [0.0]
    else:
        k_dot = [_cycle_fixed_point((bj, fj, 0.0) for bj, fj in zip(b, f))]
    for j in range(steps - 1):
        k_dot.append(b[j] * k_dot[j] + f[j])
    return KdotTrace(np.array(k_dot), beta, forcing)


def f_derivative_sum(orbit: BilliardOrbit, derivs: AlphaDerivatives,
                     trace: CurvatureTrace, kdot: KdotTrace,
                     burn_in: Optional[int] = None,
                     m: Optional[int] = None):
    """(F_m, per-flight f_dot): exact alpha-derivative of the exponent
    estimate, f_dot[j] = (d_dot[j] k[j] + d[j] k_dot[j]) / (1 + d[j] k[j]),
    averaged over the same window as ``lyapunov_estimate``."""
    burn, m_use = _window(orbit, burn_in, m)
    f_dot = (derivs.d_dot * trace.k + orbit.records.d * kdot.k_dot) \
        * trace.delta
    return float(f_dot[burn:m_use].mean()), f_dot


def _uvt_step(family, i, u, vt, alpha, expected):
    """``boundary_map`` along the orbit's itinerary: an escape or a hit
    on any obstacle but ``expected`` is a SolveError."""
    nxt = boundary_map(family, i, u, vt, alpha)
    if nxt is None:
        raise SolveError("ray escaped during map evaluation")
    if nxt[0] != expected:
        raise SolveError(f"ray hit obstacle {nxt[0]} instead of {expected}")
    return nxt


def _wrap_angle(x: float) -> float:
    return (x + math.pi) % (2.0 * math.pi) - math.pi


def _step_jacobian(family, i, u, vt, alpha, expected, h):
    cols = []
    for du, dv in ((h, 0.0), (0.0, h)):
        _, up, vtp = _uvt_step(family, i, u + du, vt + dv, alpha, expected)
        _, um, vtm = _uvt_step(family, i, u - du, vt - dv, alpha, expected)
        cols.append([_wrap_angle(up - um) / (2.0 * h), (vtp - vtm) / (2.0 * h)])
    return np.array(cols).T


def _chain_index(orbit, j):
    """Chain node index for reflection j; j may reach one past the core
    for segments (the first pad reflection after the core)."""
    n = len(orbit.chain_us)
    if orbit.kind == "periodic":
        return j % n
    idx = orbit.core_start + j
    if not 0 <= idx < n:
        raise ValueError(f"reflection {j} outside the solved chain")
    return idx


def _node_data(family, orbit, j, alpha):
    """(obstacle, u, point, |T|, cos phi, v_t, e) at reflection j, with e
    the outgoing unit chord, taken from the solved chain so pad
    successors are available."""
    n = len(orbit.chain_us)
    idx = _chain_index(orbit, j)
    succ = _chain_index(orbit, j + 1) if orbit.kind == "periodic" \
        else idx + 1
    if succ >= n:
        raise ValueError(
            f"reflection {j} has no successor in the chain; deepen the padding")
    i = orbit.chain_symbols[idx]
    u = orbit.chain_us[idx]
    q = partial_jet(family, i, u, alpha, 0, 0)
    q2 = partial_jet(family, orbit.chain_symbols[succ], orbit.chain_us[succ],
                     alpha, 0, 0)
    e = q2 - q
    e /= math.hypot(e[0], e[1])
    speed, that, nhat = _tangent_frame(family, i, u, alpha)
    return i, float(u), q, speed, float(e @ nhat), float(e @ that), e


def jacobian_lyapunov_oracle(word: Word, family: DeformationFamily, alpha: float,
                             m: Optional[int] = None, h: float = DEFAULT_H_FD,
                             *, orbit: BilliardOrbit,
                             burn_in: Optional[int] = None) -> float:
    """Exponent from finite-difference Jacobians of the boundary map.

    Shares nothing with the curvature recursion beyond the solved
    ``orbit``, which must be ``word``'s orbit at ``alpha``: each step's
    2x2 Jacobian in (u, v_t) coordinates is differenced from the literal
    flight-and-reflect map.  Cyclic words use the spectral radius of the
    once-around product (full period only); open words push a tangent
    vector seeded with the default front curvature and average the
    growth of the physical front width |T| cos(phi) du over the same
    window as ``lyapunov_estimate``.  A tangential hit raises
    ``GrazingError``.
    """
    if not 1e-7 <= h <= 1e-4:
        raise ValueError("step h must lie in [1e-7, 1e-4]")
    if orbit.word != word or orbit.alpha != alpha:
        raise ValueError(
            f"orbit of {orbit.word.label} at alpha = {orbit.alpha} given for "
            f"{word.label} at alpha = {alpha}")
    p = len(orbit.records)
    burn, m_use = _window(orbit, burn_in, m)
    # node j holds (obstacle, u, point, |T|, cos phi, v_t, e); an open
    # word also needs the node one past its window, from the padded chain
    nodes = [_node_data(family, orbit, j, alpha)
             for j in range(m_use if word.cyclic else m_use + 1)]

    if word.cyclic:
        mat = np.eye(2)
        scale_log = 0.0
        # obstacle and u from the records: the chain's u is unwrapped,
        # and starting from it moves the product in its last bits
        obstacles = orbit.records.obstacle.tolist()
        for j, u in enumerate(orbit.records.u.tolist()):
            jac = _step_jacobian(family, obstacles[j], u, nodes[j][5],
                                 alpha, obstacles[(j + 1) % p], h)
            mat = jac @ mat
            nrm = float(np.abs(mat).max())
            if nrm > 1e12:
                scale_log += math.log(nrm)
                mat /= nrm
        rho = float(np.abs(np.linalg.eigvals(mat)).max())
        return (math.log(rho) + scale_log) / p

    speed0, c0 = nodes[0][3], nodes[0][4]
    seed = default_seed_curvature(orbit)
    # unit-width front with the seed curvature, in (du, dv_t) coordinates
    x = np.array([1.0 / (speed0 * c0),
                  seed * c0 - float(orbit.records.kappa[0])])
    scale_log = 0.0

    def width_log(j, vec, scale):
        val = nodes[j][3] * nodes[j][4] * abs(vec[0])
        if val <= 0.0:
            raise SolveError("front width collapsed in the oracle push")
        return math.log(val) + scale

    prev = width_log(0, x, scale_log)
    terms = []
    for j in range(m_use):
        obst, u, _, _, _, vt, _ = nodes[j]
        jac = _step_jacobian(family, obst, u, vt, alpha, nodes[j + 1][0], h)
        x = jac @ x
        if (j + 1) % _RENORM_EVERY == 0:
            nrm = float(np.hypot(x[0], x[1]))
            scale_log += math.log(nrm)
            x /= nrm
        cur = width_log(j + 1, x, scale_log)
        terms.append(cur - prev)
        prev = cur
    return float(np.mean(terms[burn:]))


@dataclass(frozen=True)
class FrontExpansionReport:
    """Ratio of the literally measured pencil expansion to the predicted
    product of (1 + d_j k_j); 1 up to linearization error."""

    ratio: float
    measured_log: float
    predicted_log: float
    steps: int
    eps: float


def front_expansion_check(orbit: BilliardOrbit, family: DeformationFamily,
                          trace: CurvatureTrace, eps: float = 1e-6,
                          steps: Optional[int] = None) -> FrontExpansionReport:
    """Drive a real two-ray pencil seeded with the trace's curvature and
    compare its width growth against the delta-product prediction.

    The base ray is pinned to the solved orbit; the companion starts
    offset by an eps-wide front of curvature trace.k[0] and is shot
    through the literal dynamics, renormalized back to width ~eps after
    every flight so linearization error stays first order in eps.  If
    the companion escapes or breaks the itinerary the check retries once
    with eps/10; a tangential departure or hit raises ``GrazingError``.
    """
    p = len(orbit.records)
    # periodic orbits cycle, so any pencil length is available
    max_steps = p if orbit.kind == "segment" else 10 ** 6
    n = min(8, max_steps) if steps is None else steps
    if not 1 <= n <= max_steps:
        raise ValueError(f"steps must lie in 1..{max_steps}")
    if len(trace.delta) < n and orbit.kind == "segment":
        raise ValueError("trace too short for the requested steps")
    if not 0.0 < eps <= 1e-3:
        raise ValueError("pencil offset eps must lie in (0, 1e-3]")
    try:
        return _front_check_run(orbit, family, trace, eps, n)
    except SolveError:
        return _front_check_run(orbit, family, trace, eps / 10.0, n)


def _front_check_run(orbit, family, trace, eps, n):
    alpha = orbit.alpha
    p = len(orbit.records)
    cache = {}

    def node(j):
        key = j % p if orbit.kind == "periodic" else j
        if key not in cache:
            cache[key] = _node_data(family, orbit, key, alpha)
        return cache[key]

    def width(j, du, flight_dir):
        i, u, qa, _, _, _, _ = node(j)
        qb = partial_jet(family, i, u + du, alpha, 0, 0)
        dq = qb - qa
        return float(-dq[0] * flight_dir[1] + dq[1] * flight_dir[0])

    _, _, _, speed0, c0, _, _ = node(0)
    k_seed = trace.k[0]
    delta_uvt = eps * np.array([1.0 / (speed0 * c0),
                                k_seed * c0 - float(orbit.records.kappa[0])])

    measured_log = 0.0
    for j in range(n):
        ia, ua, _, _, _, vta, v_out = node(j)
        w_cur = width(j, delta_uvt[0], v_out)
        if w_cur == 0.0:
            raise SolveError("pencil width vanished at the seed")
        _, ub, vtb = _uvt_step(family, ia, ua + delta_uvt[0],
                               vta + delta_uvt[1], alpha, node(j + 1)[0])
        du_next = _wrap_angle(ub - node(j + 1)[1])
        w_next = width(j + 1, du_next, v_out)
        growth = w_next / w_cur
        if growth <= 0.0:
            raise SolveError("pencil folded over; offset too large")
        measured_log += math.log(growth)
        if j + 1 < n:
            vta1 = node(j + 1)[5]
            delta_uvt = (w_cur / w_next) * np.array([du_next, vtb - vta1])

    predicted_log = float(-np.log(
        trace.delta[np.arange(n) % len(trace.delta)]).sum())
    return FrontExpansionReport(math.exp(measured_log - predicted_log),
                                measured_log, predicted_log, n, eps)
