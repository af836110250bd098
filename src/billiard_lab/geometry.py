"""Deformable planar obstacle tables.

Strictly convex obstacles (circles and ellipses) whose defining
parameters are polynomials in the deformation parameter alpha.  Every
mixed (u, alpha)-derivative of a boundary embedding has a closed form,
obtained through a small complex-polynomial calculus, so the geometric
core never differentiates numerically.

Boundaries are parametrized counterclockwise by the angle u in
[0, 2*pi).  Obstacle indices are 1-based throughout the public API,
matching itinerary symbols.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

KAPPA_FLOOR = 1e-6        # minimum admissible boundary curvature
ALPHA_SLACK_REL = 1e-3    # evaluation headroom beyond [0, b], needed by FD oracles
PHI_SAFETY = 0.99         # safety factor applied to the observed min cos(phi)
PHI_PERIOD_CAP = 6        # periodic itineraries enumerated up to this period
PHI_SAMPLE_WORDS = 100    # random itineraries drawn for the angle estimate
PHI_SAMPLE_LENGTH = 40
PHI_PADDING = 8           # pads on each side of a sampled open word
TABLE_CACHE_SIZE = 256    # per-alpha snapshots kept by table_at
BOUNDS_SAMPLES = 512      # seed directions of the support-function maxima
                          # (pair gaps, no-eclipse)
VALIDATION_ALPHAS = 65    # alphas on which validate_family certifies the table
SEARCH_CHUNK = 24         # frames, and rows, per block of the direction search's
                          # start grid


class GeometryError(ValueError):
    """Invalid table geometry or invalid geometric query."""


class SmoothnessError(GeometryError):
    """Jet order above the declared smoothness."""


class AlphaRangeError(GeometryError):
    """Deformation parameter outside the declared range."""


class ConvexityError(GeometryError):
    """Strict convexity violated somewhere on a boundary."""


class EclipseError(GeometryError):
    """The no-eclipse condition failed; carries the failing certificate."""

    def __init__(self, message: str, certificate=None):
        super().__init__(message)
        self.certificate = certificate


def _coeffs(value) -> tuple[float, ...]:
    if np.isscalar(value):
        return (float(value),)
    out = tuple(float(v) for v in value)
    return out if out else (0.0,)


def _poly_der(c: np.ndarray, n: int = 1) -> np.ndarray:
    c = np.asarray(c)
    for _ in range(n):
        if c.shape[0] <= 1:
            return np.zeros(1, dtype=c.dtype)
        c = c[1:] * np.arange(1, c.shape[0])
    return c


@dataclass(frozen=True)
class ObstacleSpec:
    """One strictly convex obstacle.

    Every parameter is a polynomial in alpha given by its coefficient
    tuple, lowest order first.  Circles take ``radius``; ellipses take
    ``semi_axis_a``, ``semi_axis_b`` and optionally ``rotation``.
    """

    kind: str
    center_x: tuple[float, ...]
    center_y: tuple[float, ...]
    radius: tuple[float, ...] = ()
    semi_axis_a: tuple[float, ...] = ()
    semi_axis_b: tuple[float, ...] = ()
    rotation: tuple[float, ...] = (0.0,)

    def __post_init__(self):
        if self.kind not in ("circle", "ellipse"):
            raise GeometryError(f"unknown obstacle kind {self.kind!r}")
        if self.kind == "circle" and not self.radius:
            raise GeometryError("circle obstacle needs a radius polynomial")
        if self.kind == "ellipse" and not (self.semi_axis_a and self.semi_axis_b):
            raise GeometryError("ellipse obstacle needs both semi-axis polynomials")

    def axes(self):
        """Coefficient tuples (A, B, psi); circles degenerate to A = B = radius."""
        if self.kind == "circle":
            return self.radius, self.radius, (0.0,)
        return self.semi_axis_a, self.semi_axis_b, self.rotation

    def max_degree(self) -> int:
        polys = [self.center_x, self.center_y, self.radius,
                 self.semi_axis_a, self.semi_axis_b, self.rotation]
        return max(len(p) - 1 for p in polys if p)


def circle(center_x, center_y, radius) -> ObstacleSpec:
    return ObstacleSpec("circle", _coeffs(center_x), _coeffs(center_y),
                        radius=_coeffs(radius))


def ellipse(center_x, center_y, semi_axis_a, semi_axis_b, rotation=0.0) -> ObstacleSpec:
    return ObstacleSpec("ellipse", _coeffs(center_x), _coeffs(center_y),
                        semi_axis_a=_coeffs(semi_axis_a),
                        semi_axis_b=_coeffs(semi_axis_b),
                        rotation=_coeffs(rotation))


@dataclass(frozen=True)
class DeformationFamily:
    """A one-parameter table K(alpha), alpha in [0, alpha_max].

    ``smoothness`` is the declared (r, r') differentiability contract:
    jets are served up to r in u and r' in alpha and refused beyond.
    ``mode`` is "general" (at least three obstacles, no-eclipse must be
    certified) or "period2" (exactly two obstacles; the trapped set is
    the single orbit bouncing along the common perpendicular).
    """

    obstacles: tuple[ObstacleSpec, ...]
    alpha_max: float
    smoothness: tuple[int, int] = (5, 3)
    mode: str = "general"

    def __post_init__(self):
        if self.mode not in ("general", "period2"):
            raise GeometryError(f"unknown mode {self.mode!r}")
        n = len(self.obstacles)
        if self.mode == "period2" and n != 2:
            raise GeometryError("period2 mode requires exactly 2 obstacles")
        if self.mode == "general" and n < 3:
            raise GeometryError("general mode requires at least 3 obstacles")
        if not self.alpha_max > 0:
            raise GeometryError("alpha_max must be positive")
        r, rp = self.smoothness
        if r < 2 or rp < 0:
            raise GeometryError("declared smoothness must satisfy r >= 2, r' >= 0")

    @property
    def z0(self) -> int:
        return len(self.obstacles)

    def spec(self, index: int) -> ObstacleSpec:
        if not 1 <= index <= len(self.obstacles):
            raise GeometryError(
                f"obstacle index {index} outside 1..{len(self.obstacles)}")
        return self.obstacles[index - 1]

    def check_alpha(self, alpha: float) -> None:
        slack = ALPHA_SLACK_REL * max(self.alpha_max, 1.0)
        if not -slack <= alpha <= self.alpha_max + slack:
            raise AlphaRangeError(
                f"alpha = {alpha} outside the declared range [0, {self.alpha_max}]")

    @cached_property
    def alpha_stack(self) -> np.ndarray:
        """Every alpha-polynomial of the table, built on first use and
        evaluated once per snapshot by ``TableAt``.

        Coefficients run lowest order first along axis 0, zero-padded to
        one length.  Column i is obstacle i (column 0 is zero).  Row 0 is
        psi; then come, for m = 0..r' in turn, the complex polynomials
        P_m, Q_m of

            d^m/da^m [e^{i psi}(A cos u + i B sin u)] = e^{i psi}(P_m cos u + i Q_m sin u),

        from the recursion P_{m+1} = P_m' + i psi' P_m (and likewise Q),
        and the m-th derivatives of the centre's x and y.
        """
        orders = self.smoothness[1] + 1
        columns = [[np.zeros(1)] * (1 + 4 * orders)]
        for spec in self.obstacles:
            a, b, psi = spec.axes()
            psip = _poly_der(np.asarray(psi, float))
            p, q = [np.asarray(a, complex)], [np.asarray(b, complex)]
            for _ in range(orders - 1):
                p.append(_rot_step(p[-1], psip))
                q.append(_rot_step(q[-1], psip))
            cx, cy = ([_poly_der(np.asarray(c, float), m) for m in range(orders)]
                      for c in (spec.center_x, spec.center_y))
            columns.append([np.asarray(psi, float), *p, *q, *cx, *cy])
        stack = np.zeros((max(len(c) for col in columns for c in col),
                          len(columns[0]), len(columns)), complex)
        for i, col in enumerate(columns):
            for k, c in enumerate(col):
                stack[:len(c), k, i] = c
        stack.flags.writeable = False
        return stack

    @cached_property
    def coefficient_bits(self) -> bytes:
        """The bytes of every coefficient of the obstacles' polynomials.
        They tell apart families that differ only in the sign of a zero
        coefficient, which compare and hash equal; ``table_at`` keys its
        snapshots by them, without building ``alpha_stack``."""
        return np.array([c for spec in self.obstacles
                         for poly in (spec.center_x, spec.center_y,
                                      spec.radius, spec.semi_axis_a,
                                      spec.semi_axis_b, spec.rotation)
                         for c in poly], float).tobytes()


def _rot_step(c: np.ndarray, psip: np.ndarray) -> np.ndarray:
    der = _poly_der(c)
    mix = 1j * np.convolve(psip, c)
    out = np.zeros(max(len(der), len(mix)), complex)
    out[:len(der)] += der
    out[:len(mix)] += mix
    return out


def _check_orders(family: DeformationFamily, du_order: int,
                  dalpha_order: int) -> None:
    r, rp = family.smoothness
    if du_order < 0 or dalpha_order < 0:
        raise GeometryError("jet orders must be nonnegative")
    if du_order > r or dalpha_order > rp:
        raise SmoothnessError(
            f"jet order ({du_order},{dalpha_order}) exceeds the declared "
            f"smoothness C^({r},{rp})")


class TableAt:
    """The table frozen at one alpha: the only evaluator of the
    alpha-polynomials.

    Per obstacle it holds the complex axis values and the centre for
    every alpha-derivative order 0..r', the rotation phase, and the
    frame that maps the obstacle onto the unit disc (centre, semi-axes
    (A, B), rotation by -psi).  ``coords`` gathers them once by symbol
    for boundary points of any shape and evaluates several u-orders;
    ``jet`` is its one-order case.  Arrays are indexed by the 1-based
    obstacle symbol (row 0 is unused) and are read-only, since
    ``table_at`` shares one snapshot per (family, alpha) and their bits.

    Given a 1-D sequence of R alphas, one ``polyval`` over the vector
    builds R rows of ``stride`` = z0 + 1 entries: row r's obstacle s
    sits at flat index r * stride + s, so a chain on row r gathers by
    its symbols offset by r * stride.  Every row is bit for bit the
    one-alpha snapshot.
    """

    def __init__(self, family: DeformationFamily, alpha):
        self.stride = family.z0 + 1
        polyval = np.polynomial.polynomial.polyval
        if np.ndim(alpha):
            for x in alpha:
                family.check_alpha(x)
            # (K, stride, R) -> (K, R * stride), alpha-row major
            values = np.moveaxis(polyval(alpha, family.alpha_stack), -1, 1)
            values = values.reshape(len(values), -1)
        else:
            family.check_alpha(alpha)
            values = polyval(alpha, family.alpha_stack)
        psi = values[0]
        p, q, cx, cy = values[1:].reshape(4, -1, values.shape[-1])
        self.p = p                                     # P_m(alpha)
        self.iq = 1j * q                               # i Q_m(alpha)
        self.center = cx + 1j * cy                     # d^m/dalpha^m of the centre
        self.phase = np.exp(1j * psi)                  # e^{i psi}
        self.center_xy = np.stack([cx[0].real, cy[0].real], axis=-1)
        self.axes = np.stack([p[0].real, q[0].real], axis=-1)   # semi-axes (A, B)
        # sin(-0.0) is -0.0, a sign that 1j * psi drops from the phase
        c, s = self.phase.real, np.where(psi == 0.0, psi.real, self.phase.imag)
        self.rotation = np.stack([c, s, -s, c], axis=-1).reshape(-1, 2, 2)
        # symbol 0 of each row is no obstacle
        self.axes[::self.stride], self.rotation[::self.stride] = 1.0, 0.0
        for arr in (self.p, self.iq, self.center, self.phase, self.center_xy,
                    self.axes, self.rotation):
            arr.flags.writeable = False

    def _embedding(self, symbols, us, du_orders, dalpha_order: int):
        """Complex values phase (P_m cos(u + l pi/2) + i Q_m sin(u + l pi/2))
        (+ centre for l = 0), one array per l of ``du_orders``, from one
        gather of the coefficients and one cos/sin pair: order l reads
        (cos, sin)(u + l pi/2) from the quarter turn of (cos u, sin u),
        so every value is that of a one-order call."""
        phase = self.phase[symbols]
        p = self.p[dalpha_order][symbols]
        iq = self.iq[dalpha_order][symbols]
        center = self.center[dalpha_order][symbols] if 0 in du_orders else None
        c, s = np.cos(us), np.sin(us)
        nc, ns = -c, -s
        quarter = ((c, s), (ns, c), (nc, ns), (s, nc))
        for du_order in du_orders:
            cos_l, sin_l = quarter[du_order % 4]
            z = phase * (p * cos_l + iq * sin_l)
            yield z + center if du_order == 0 else z

    def coords(self, symbols, us, du_orders, dalpha_order: int = 0) -> list:
        """d^l_u d^m_alpha of the embedding at ``us`` on obstacles
        ``symbols`` (one symbol, or an integer array shaped like ``us``)
        for each l of ``du_orders`` at m = ``dalpha_order``: one (x, y)
        pair of arrays shaped like ``us`` per order."""
        return [(np.real(z), np.imag(z))
                for z in self._embedding(symbols, us, du_orders, dalpha_order)]

    def jet(self, symbols, us, du_order: int, dalpha_order: int = 0) -> np.ndarray:
        """One order of ``coords`` as one array of shape us.shape + (2,),
        the (x, y) view of its complex values."""
        z, = self._embedding(symbols, us, (du_order,), dalpha_order)
        return np.asarray(z)[..., None].view(np.float64)


def table_at(family: DeformationFamily, alpha: float) -> TableAt:
    """The shared snapshot of ``family`` at ``alpha``; refuses an alpha
    outside the declared range.  Snapshots are shared by equality and by
    the bits of the family's coefficients and the sign of alpha, so
    families or alphas that differ only in the sign of a zero, which
    compare and hash equal, each get their own."""
    return _shared_table(family, family.coefficient_bits, alpha,
                         math.copysign(1.0, alpha))


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _shared_table(family: DeformationFamily, coefficient_bits: bytes,
                  alpha: float, alpha_sign: float) -> TableAt:
    """``table_at``'s cache, keyed by the bits too: equal floats differ
    in their bits only as 0.0 and -0.0, so alpha's sign completes it."""
    return TableAt(family, alpha)


def partial_jet(family: DeformationFamily, obstacle_index: int, u, alpha: float,
                du_order: int, dalpha_order: int) -> np.ndarray:
    """One mixed partial d^l_u d^m_alpha of the boundary embedding, read
    from the snapshot ``table_at(family, alpha)``.

    Returns an array of shape u.shape + (2,).  Orders above the declared
    smoothness, obstacle indices outside 1..z0 and alpha outside the
    declared range are refused.
    """
    table = table_at(family, alpha)
    _check_orders(family, du_order, dalpha_order)
    family.spec(obstacle_index)
    return table.jet(obstacle_index, np.asarray(u, float), du_order, dalpha_order)


def curvature(family: DeformationFamily, obstacle_index: int, u, alpha: float):
    """Signed curvature (x' y'' - y' x'') / |phi'|^3; must be positive."""
    t = partial_jet(family, obstacle_index, u, alpha, 1, 0)
    s = partial_jet(family, obstacle_index, u, alpha, 2, 0)
    num = t[..., 0] * s[..., 1] - t[..., 1] * s[..., 0]
    speed2 = t[..., 0] ** 2 + t[..., 1] ** 2
    kap = num / speed2 ** 1.5
    if not np.min(kap) > 0.0:
        raise ConvexityError(
            f"obstacle {obstacle_index} is not strictly convex at alpha = {alpha}")
    return float(kap) if np.ndim(kap) == 0 else kap


def curvature_partials(family: DeformationFamily, obstacle_index, u, alpha: float):
    """(kappa, d kappa/du, d kappa/dalpha) at fixed u; closed forms from jets.

    ``obstacle_index`` is one index or an integer array shaped like ``u``."""
    table = table_at(family, alpha)
    _check_orders(family, 3, 1)
    symbols = np.asarray(obstacle_index)
    if not np.all((symbols >= 1) & (symbols <= family.z0)):
        raise GeometryError(f"obstacle index outside 1..{family.z0}")
    return _curvature_partials(table, symbols, np.asarray(u, float))


def _curvature_partials(table: TableAt, symbols, u):
    """``curvature_partials`` on a snapshot, unchecked: ``symbols`` index
    its rows as ``TableAt.coords`` reads them."""
    (tx, ty), (sx, sy), (wx, wy) = table.coords(symbols, u, (1, 2, 3))
    (tax, tay), (sax, say) = table.coords(symbols, u, (1, 2), 1)
    num = tx * sy - ty * sx
    sp2 = tx ** 2 + ty ** 2
    sp = np.sqrt(sp2)
    den = sp2 * sp
    # cross terms x'' y'' cancel in d(num)/du
    num_u = tx * wy - ty * wx
    den_u = 3.0 * sp * (tx * sx + ty * sy)
    num_a = tax * sy + tx * say - tay * sx - ty * sax
    den_a = 3.0 * sp * (tx * tax + ty * tay)
    kap = num / den
    kap_u = (num_u * den - num * den_u) / den ** 2
    kap_a = (num_a * den - num * den_a) / den ** 2
    return kap, kap_u, kap_a


def _frame(frames: np.ndarray):
    """Frame records, rows [R(-psi)^T (4), (A, B), centre (2)], as the
    stacked transposed rotations (R, 2, 2), semi-axes (R, 1, 2) and
    centres (R, 2, 1) that ``_support`` reads."""
    return (np.ascontiguousarray(frames[:, :4]).reshape(-1, 2, 2),
            np.ascontiguousarray(frames[:, 4:6])[:, None, :],
            np.ascontiguousarray(frames[:, 6:])[:, :, None])


def _support(frame, w: np.ndarray) -> np.ndarray:
    """Support functions h(w) = max over K of x.w = c.w + |diag(A, B)
    R(-psi) w| of R stacked frames at directions w of shape (R, n, 2),
    or (n, 2) shared by every frame.  Stacked matmul rounds as
    ``w @ rotation.T`` and ``w @ center`` do for one obstacle; einsum
    does not."""
    rotation_t, axes, center = frame
    v = np.matmul(w, rotation_t) * axes
    return np.matmul(w, center)[..., 0] + np.hypot(v[..., 0], v[..., 1])


def _distinct(frames: np.ndarray):
    """The distinct frame records among ``frames`` and each record's
    index among them.  Records are told apart by their bytes, so -0.0
    and 0.0 differ and equal NaNs agree: records that share a key give
    the same supports bit for bit."""
    keys = np.ascontiguousarray(frames).view(
        np.dtype((np.void, frames.shape[1] * frames.itemsize)))[:, 0]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return frames[first], inverse


def _grid_supports(frames: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``_support`` of each frame record at the shared directions w,
    SEARCH_CHUNK frames at a time."""
    out = np.empty((len(frames), len(w)))
    for lo in range(0, len(frames), SEARCH_CHUNK):
        out[lo:lo + SEARCH_CHUNK] = _support(
            _frame(frames[lo:lo + SEARCH_CHUNK]), w)
    return out


def _max_over_directions(rows) -> np.ndarray:
    """(max, theta) per row, as an (R, 2) array, over unit directions
    w = (cos theta, sin theta).  Row (table, j, i, k, s) maximizes
    s [-h_j(-w) - max(h_i(w), h_k(w))], h_m the support function of
    obstacle m of ``table``.  With s = 1 it is the gap between obstacle j
    and the convex hull of i and k (k = i for one obstacle): a w with a
    positive value gives a separating line, the largest value is their
    distance, and it is <= 0 when they meet.  With s = -1 and k = i it is
    the largest boundary distance max_w [h_i(w) + h_j(-w)].

    The best of BOUNDS_SAMPLES equally spaced directions is refined on
    9-point grids, each a quarter of the previous spacing, down to 1e-9
    rad.  The start grid is evaluated once per distinct obstacle frame
    and side (h(-w) for j, h(w) for i and k), so a static obstacle costs
    one evaluation for every alpha; each row's start value is gathered
    from those, SEARCH_CHUNK rows at a time, and the refinement runs for
    all rows at once.  No row's result depends on the others."""
    if not rows:
        return np.empty((0, 2))
    tables = list(dict.fromkeys(row[0] for row in rows))
    offsets = np.cumsum([0] + [len(t.axes) for t in tables[:-1]]).tolist()
    start = dict(zip(tables, offsets))
    records = np.concatenate(
        [np.concatenate([t.rotation for t in tables]).transpose(0, 2, 1)
         .reshape(-1, 4),
         np.concatenate([t.axes for t in tables]),
         np.concatenate([t.center_xy for t in tables])], axis=1)
    picks = records[np.array([(start[t] + j, start[t] + i, start[t] + k)
                              for t, j, i, k, _ in rows])]     # (R, 3, 8)
    sign = np.array([row[4] for row in rows], float)[:, None]

    step = 2.0 * np.pi / BOUNDS_SAMPLES
    grid = step * np.arange(BOUNDS_SAMPLES)
    w = np.stack([np.cos(grid), np.sin(grid)], axis=-1)
    far, far_of = _distinct(picks[:, 0])
    near, near_of = _distinct(picks[:, 1:].reshape(-1, 8))
    h_far, h_near = _grid_supports(far, -w), _grid_supports(near, w)
    near_of = near_of.reshape(-1, 2)
    top = np.empty(len(rows))
    for lo in range(0, len(rows), SEARCH_CHUNK):
        part = slice(lo, lo + SEARCH_CHUNK)
        values = sign[part] * (-h_far[far_of[part]]
                               - np.maximum(h_near[near_of[part, 0]],
                                            h_near[near_of[part, 1]]))
        top[part] = grid[np.argmax(values, axis=1)]

    j, i, k = (_frame(picks[:, role]) for role in range(3))
    picked = np.arange(len(rows))
    while step >= 1e-9:
        step *= 0.25
        thetas = top[:, None] + step * np.arange(-4, 5)
        w = np.stack([np.cos(thetas), np.sin(thetas)], axis=-1)
        values = sign * (-_support(j, -w)
                         - np.maximum(_support(i, w), _support(k, w)))
        best = np.argmax(values, axis=1)
        top = thetas[picked, best]
    return np.stack([values[picked, best], top % (2.0 * np.pi)], axis=-1)


def _require_gap(i: int, k: int, alpha, gap: float) -> float:
    """``gap``, the distance between obstacles i and k; GeometryError if
    they overlap (NaN included)."""
    if not gap > 0.0:
        raise GeometryError(f"obstacles {i} and {k} overlap at alpha = "
                            f"{alpha} (separation {gap:.3e})")
    return gap


def boundary_pair_extremes(family: DeformationFamily, i, k, alpha):
    """(min, max) distance between the boundaries of obstacles i and k:
    d_min = max_w [-h_k(-w) - h_i(w)] and d_max = max_w [h_i(w) + h_k(-w)].
    Raises GeometryError naming the pair when they overlap.  For
    equal-length sequences ``i`` and ``k``, one search gives the list of
    every pair's (min, max), and the first overlapping pair raises; with
    a sequence of alphas as well, it gives that list per alpha, and the
    first overlapping (alpha, pair), alpha-major, raises.
    """
    grid = np.ndim(alpha) > 0
    if grid and np.ndim(i) == 0:
        raise ValueError("a sequence of alphas needs sequences of pairs")
    alphas = list(alpha) if grid else [alpha]
    pairs = list(zip(np.atleast_1d(i).tolist(), np.atleast_1d(k).tolist()))
    tables = [table_at(family, x) for x in alphas]
    found = _max_over_directions([(t, b, a, a, s) for t in tables
                                  for a, b in pairs for s in (1.0, -1.0)])
    found = found[:, 0].reshape(len(alphas), len(pairs), 2).tolist()
    out = [[(_require_gap(a, b, x, lo), hi)
            for (a, b), (lo, hi) in zip(pairs, rows)]
           for x, rows in zip(alphas, found)]
    if grid:
        return out
    return out[0][0] if np.ndim(i) == 0 else out[0]


@dataclass(frozen=True)
class EclipseCertificate:
    """Certificate for the no-eclipse condition at one alpha.

    ``margin`` is the smallest gap between an obstacle and the convex
    hull of two others.  Each gap is the width of an actual separating
    strip, so it never overstates the distance; it falls short of it by
    the gap's slope in the direction angle times about 1e-9 rad, the
    resolution of the direction search.  On failure it is the failing
    triple's gap.
    ``witness`` on failure is (i, j, k, theta): obstacle j meets the
    hull of obstacles i and k, and (cos theta, sin theta) is the normal
    direction of their best, failing, candidate separating line.
    """

    holds: bool
    alpha: float
    margin: float
    witness: Optional[tuple] = None


def check_no_eclipse(family: DeformationFamily, alpha):
    """Ikawa's no-eclipse condition: no obstacle meets the convex hull of
    two others.

    Triple (i, j, k) holds when max_w [-h_j(-w) - max(h_i(w), h_k(w))] > 0
    (NaN fails): a positive value at any direction w is a line that
    separates obstacle j from the hull, so a pass has no sampling gap.
    The first failing triple in (j, i, k) order is the witness.  For a
    sequence of alphas, one search gives the list of their certificates.
    """
    z0 = family.z0
    triples = [(i, j, k) for j in range(1, z0 + 1) for i in range(1, z0 + 1)
               for k in range(i + 1, z0 + 1) if j not in (i, k)]
    alphas = list(alpha) if np.ndim(alpha) else [alpha]
    tables = [table_at(family, a) for a in alphas]
    found = _max_over_directions([(t, j, i, k, 1.0) for t in tables
                                  for i, j, k in triples])
    found = found.reshape(len(alphas), len(triples), 2)
    certs = []
    for a, rows in zip(alphas, found.tolist()):
        failed = [(gap, (*t, theta)) for t, (gap, theta) in zip(triples, rows)
                  if not gap > 0.0]
        certs.append(EclipseCertificate(False, a, *failed[0]) if failed else
                     EclipseCertificate(True, a, min((g for g, _ in rows),
                                                     default=math.inf)))
    return certs if np.ndim(alpha) else certs[0]


@dataclass(frozen=True)
class TableBounds:
    """Global geometric bounds of the table at one alpha.

    k_min and k_max bound the propagated front curvature on the trapped
    set: k_min = 2 kappa_min, k_max = 1/d_min + 2 kappa_max / cos(phi_max).
    [lower, upper] = [log(1 + d_min k_min), log(1 + d_max k_max)] brackets
    the per-flight exponent.  The fields are the ``bounds.csv`` columns.
    """

    alpha: float
    d_min: float
    d_max: float
    kappa_min: float
    kappa_max: float
    phi_max: float
    k_min: float
    k_max: float
    lower: float
    upper: float


@lru_cache(maxsize=None)
def _phi_corpus(z0: int):
    """The angle-estimation words, grouped by (cyclic, length): every
    primitive cycle up to PHI_PERIOD_CAP, then PHI_SAMPLE_WORDS open
    words of length PHI_SAMPLE_LENGTH."""
    from . import symbolic

    groups = {}
    for word in symbolic.enumerate_cyclic_words(z0, PHI_PERIOD_CAP):
        groups.setdefault((True, len(word)), []).append(word)
    groups[(False, PHI_SAMPLE_LENGTH)] = [
        symbolic.sample_itinerary(z0, PHI_SAMPLE_LENGTH, seed=s)
        for s in range(PHI_SAMPLE_WORDS)]
    return tuple(tuple(words) for words in groups.values())


def _default_phi_observation(family: DeformationFamily, alphas) -> list:
    """The largest collision angle over the corpus orbits at each of
    ``alphas``.

    The first alpha is observed cold: each corpus word is solved on its
    own by ``symbolic.find_periodic_orbit`` or
    ``symbolic.find_orbit_segment``.  Each (cyclic, length) group of the
    corpus then follows its chains along the remaining alphas in one
    ``symbolic.walk`` of ``symbolic.max_collision_angles`` batches.  Open
    words are padded by PHI_PADDING and only their core angles count.  A
    chain that fails, or is nonphysical, on every try is left out of its
    alpha's estimate; GeometryError for the first alpha at which no orbit
    converged.
    """
    # orbit machinery lives above geometry; import late to keep layering simple
    from . import symbolic

    alphas = list(alphas)
    phis = [[] for _ in alphas]
    chains = {}
    for words in _phi_corpus(family.z0):
        for word in words:
            try:
                if word.cyclic:
                    orbit = symbolic.find_periodic_orbit(word, family,
                                                         alphas[0])
                else:
                    orbit = symbolic.find_orbit_segment(
                        word, family, alphas[0], padding=PHI_PADDING,
                        shadow_check=False)
            except symbolic.SolveError:
                continue
            chains[word] = np.asarray(orbit.chain_us)
            phis[0].append(float(orbit.records.phi.max()))

    def solve(words, alphas, inits):
        return symbolic.max_collision_angles(words, family, alphas, inits,
                                             PHI_PADDING)

    for words in _phi_corpus(family.z0):
        for lo, rows in symbolic.walk(solve, words, alphas[1:], PHI_PADDING,
                                      [chains.get(word) for word in words]):
            for k, (chain, phi) in enumerate(rows):
                if chain is not None:
                    phis[1 + lo + k // len(words)].append(phi)
    for alpha, found in zip(alphas, phis):
        if not found:
            raise GeometryError("collision angle estimate failed: no orbit "
                                f"converged at alpha = {alpha}")
    return [max(found) for found in phis]


def phi_max_from_observation(phi_obs: float) -> float:
    """Inflate an observed maximal collision angle into the reported bound.

    The safety factor shrinks the observed min cosine, which is the
    quantity the k_max formula divides by."""
    if phi_obs >= math.pi / 2 - 1e-6:
        raise GeometryError(
            f"observed collision angle {phi_obs:.6f} reaches pi/2; table rejected")
    return math.acos(PHI_SAFETY * math.cos(phi_obs))


def _certify(family: DeformationFamily, alphas, pair_gap: bool = True) -> list:
    """Certify the table at each of ``alphas``: positive semi-axes, finite
    centres, curvature at least KAPPA_FLOOR, then the no-eclipse
    condition in general mode (it implies that the obstacles are
    disjoint) or, with ``pair_gap``, a positive separation of the pair in
    period2 mode.  The separations of every alpha come first, from one
    direction search.  Each check is written so that NaN fails it.
    Raises GeometryError / ConvexityError / EclipseError for the first
    failing alpha, at its first failing check; returns the curvature
    range (kappa_min, kappa_max) per alpha.

    Curvature is evaluated at the four vertices u = 0, pi/2, pi, 3 pi/2
    of each obstacle: kappa(u) = A B / (A^2 sin^2 u + B^2 cos^2 u)^(3/2)
    takes its extremes B/A^2 and A/B^2 there (1/R for a circle), so the
    floor check and the range rest on no sampling."""
    if family.mode == "general":
        certs = check_no_eclipse(family, alphas)
    elif pair_gap:
        gaps = _max_over_directions([(table_at(family, a), 2, 1, 1, 1.0)
                                     for a in alphas])[:, 0].tolist()
    vertices = np.arange(4) * (np.pi / 2.0)
    ranges = []
    for n, alpha in enumerate(alphas):
        table = table_at(family, alpha)
        kap_lo, kap_hi = math.inf, -math.inf
        for idx in range(1, family.z0 + 1):
            if not table.axes[idx].min() > 0.0:
                raise GeometryError(f"obstacle {idx} degenerates "
                                    f"(nonpositive axis) at alpha = {alpha}")
            if not np.isfinite(table.center_xy[idx]).all():
                raise GeometryError(
                    f"obstacle {idx} has a non-finite centre at alpha = {alpha}")
            kap = curvature(family, idx, vertices, alpha)
            lo = float(np.min(kap))
            if not lo >= KAPPA_FLOOR:
                raise ConvexityError(
                    f"obstacle {idx} curvature {lo:.3e} below "
                    f"floor {KAPPA_FLOOR} at alpha = {alpha}")
            kap_lo = min(kap_lo, lo)
            kap_hi = max(kap_hi, float(np.max(kap)))
        if family.mode == "general" and not certs[n].holds:
            raise EclipseError(f"no-eclipse condition fails at alpha = {alpha}: "
                               f"witness {certs[n].witness}", certs[n])
        if family.mode == "period2" and pair_gap:
            _require_gap(1, 2, alpha, gaps[n])
        ranges.append((kap_lo, kap_hi))
    return ranges


def table_bounds(family: DeformationFamily, alpha,
                 phi_max_override: Optional[float] = None):
    """Certify the table at alpha and assemble the global bounds d_min,
    d_max, kappa range, phi_max, k range.

    d_min is the minimum boundary-to-boundary distance over obstacle
    pairs.  d_max bounds the flight length between reflections: the
    supremum of boundary-point distances in general mode, and exactly
    the axis-orbit distance (= d_min) in period2 mode, where that orbit
    is the whole trapped set.  phi_max comes from the override if given,
    is exactly 0 in period2 mode, and otherwise is estimated from
    periodic orbits of low period plus sampled itineraries, with a
    safety factor on the cosine.

    For a sequence of alphas it returns the list of their TableBounds:
    one ``_certify`` call and one pair-extremes search cover every alpha,
    and one ``_default_phi_observation`` call walks the phi corpus along
    them.  Every field but phi_max, and the k_max and upper that read it,
    is bit for bit the one-alpha call's.  phi_max is too at the first
    alpha, which the walk observes cold as a one-alpha call does; at the
    others the walk warm-starts the corpus, which can move it in the
    last bits.  Errors are raised by stage, certification, then pair
    separation, then phi observation, then phi_max itself, each for its
    first failing alpha.
    """
    alphas = list(alpha) if np.ndim(alpha) else [alpha]
    # period2 takes the pair's separation from its d_min search
    ranges = _certify(family, alphas, pair_gap=False)
    pairs = [(i, k) for i in range(1, family.z0 + 1)
             for k in range(i + 1, family.z0 + 1)]
    extremes = boundary_pair_extremes(family, *zip(*pairs), alphas)
    if phi_max_override is not None:
        phis = [float(phi_max_override)] * len(alphas)
    elif family.mode == "period2":
        phis = [0.0] * len(alphas)
    else:
        phis = [phi_max_from_observation(phi)
                for phi in _default_phi_observation(family, alphas)]
    out = []
    for x, (kap_lo, kap_hi), rows, phi_max in zip(alphas, ranges, extremes,
                                                  phis):
        mins, maxes = zip(*rows)
        d_min = min(mins)
        d_max = d_min if family.mode == "period2" else max(maxes)
        if phi_max >= math.pi / 2:
            raise GeometryError(
                f"phi_max = {phi_max:.6f} >= pi/2; k_max undefined")
        k_min = 2.0 * kap_lo
        k_max = 1.0 / d_min + 2.0 * kap_hi / math.cos(phi_max)
        out.append(TableBounds(x, d_min, d_max, kap_lo, kap_hi, phi_max,
                               k_min, k_max, math.log1p(d_min * k_min),
                               math.log1p(d_max * k_max)))
    return out if np.ndim(alpha) else out[0]


def validate_family(family: DeformationFamily) -> None:
    """Degree within the declared smoothness, then ``_certify`` (axes,
    convexity, no-eclipse) on VALIDATION_ALPHAS alphas spanning the range,
    all separations from one direction search.

    Raises ConvexityError / EclipseError / GeometryError on the first
    failure; returns None when the family is admissible.
    """
    r, rp = family.smoothness
    for idx, spec in enumerate(family.obstacles, start=1):
        deg = spec.max_degree()
        if deg > rp:
            raise SmoothnessError(
                f"obstacle {idx}: polynomial degree {deg} exceeds declared "
                f"alpha-smoothness r' = {rp}")
    _certify(family, np.linspace(0.0, family.alpha_max, VALIDATION_ALPHAS))
