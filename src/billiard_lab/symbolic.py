"""Symbolic itineraries and orbits realizing them.

An itinerary is a word over the obstacle alphabet with consecutive
letters distinct.  The orbit realizing a word is found variationally:
reflection points are critical points of the total chain length, and
with strictly convex obstacles and the no-eclipse condition the critical
chain is the unique minimizer in its symbol class, so a damped Newton
iteration with a gradient-descent fallback converges from crude seeds.

Finite trapped-orbit pieces are produced by padding the requested word
on both sides and discarding the pads; the boundary condition at the cut
ends contaminates the core only through the stable/unstable contraction,
so the core converges exponentially in the padding depth; a first-order
bound read off the solved chain sets how deep to pad.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np
from scipy.linalg.lapack import dgtsv, dstebz

# partial_jet is not called here but stays bound: the benchmark's tracer
# patches it at every binding site, and its tests check this one
from .geometry import (DeformationFamily, TableAt,  # noqa: F401
                       _check_orders, _curvature_partials, partial_jet,
                       table_at)

TOL_ORBIT = 1e-11       # convergence threshold on the sup-norm of the length gradient
TOL_SHADOW = 1e-9       # admissible first-order truncation bound of a core
DEFAULT_PADDING = 12    # minimum pad depth of open chains on each side
MAX_PADDING = 64        # open chains are deepened by 4 pads up to this depth
COND_LIMIT = 1e12       # chain Hessians worse than this are rejected for derivatives
_GD_TRIGGER = 0.5       # seed residual above which gradient descent runs first
WALK_NODES = 4096       # chain nodes per batched solve of a grid walk


class SolveError(RuntimeError):
    """Orbit solve failed; ``residual`` holds the final gradient sup-norm."""

    def __init__(self, message: str, residual: float = math.nan):
        super().__init__(message)
        self.residual = residual


class ShadowingError(RuntimeError):
    """Padded-chain truncation error above tolerance."""


@dataclass(frozen=True)
class Word:
    """An itinerary: obstacle symbols, cyclic or open."""

    symbols: tuple[int, ...]
    cyclic: bool = True

    def __post_init__(self):
        if not self.symbols:
            raise ValueError("empty word")
        if any(int(s) != s or s < 1 for s in self.symbols):
            raise ValueError("word symbols must be positive integers")

    @property
    def label(self) -> str:
        body = ",".join(str(s) for s in self.symbols)
        return body if self.cyclic else "open:" + body

    @classmethod
    def parse(cls, text: str) -> "Word":
        text = text.strip()
        cyclic = True
        if text.startswith("open:"):
            cyclic = False
            text = text[len("open:"):]
        try:
            symbols = tuple(int(p) for p in text.split(","))
        except ValueError as exc:
            raise ValueError(f"cannot parse word {text!r}") from exc
        return cls(symbols, cyclic)

    def __len__(self) -> int:
        return len(self.symbols)


def is_admissible(word: Word, z0: int) -> bool:
    """Consecutive symbols distinct (including the wrap for cyclic words).

    Symbols outside 1..z0 are a usage error and raise."""
    s = word.symbols
    if any(not 1 <= x <= z0 for x in s):
        raise ValueError(f"word {word.label} uses symbols outside 1..{z0}")
    if word.cyclic and len(s) == 1:
        return False
    pairs = zip(s, s[1:] + (s[0],)) if word.cyclic else zip(s, s[1:])
    return all(a != b for a, b in pairs)


def sample_itinerary(z0: int, length: int, seed: int) -> Word:
    """Reproducible random admissible open word."""
    if z0 < 2:
        raise ValueError("sampling needs at least two obstacles")
    if length < 1:
        raise ValueError("length must be positive")
    rng = np.random.default_rng(seed)
    out = [int(rng.integers(1, z0 + 1))]
    for _ in range(length - 1):
        step = int(rng.integers(1, z0))
        out.append((out[-1] - 1 + step) % z0 + 1)
    return Word(tuple(out), cyclic=False)


def enumerate_cyclic_words(z0: int, max_period: int):
    """Primitive admissible cyclic words up to rotation, periods 2..max_period."""
    seen = set()
    out = []
    for period in range(2, max_period + 1):
        for tup in itertools.product(range(1, z0 + 1), repeat=period):
            if any(tup[i] == tup[(i + 1) % period] for i in range(period)):
                continue
            rots = [tup[i:] + tup[:i] for i in range(period)]
            if len(set(rots)) < period:
                continue  # non-primitive: some rotation repeats
            canon = min(rots)
            if canon in seen:
                continue
            seen.add(canon)
            out.append(Word(canon, cyclic=True))
    return out


@dataclass(frozen=True)
class ChainEval:
    """Length and derivatives of chains with leading (batch) shape S:
    length S, grad and g_alpha S + (m,).

    The Hessian is kept as bands: ``hess`` (S + (m,)) is its diagonal and
    ``off`` (S + (edges,)) holds, for each edge k from node k to node
    k + 1 (mod m), the entry coupling those two nodes.  An open chain has
    m - 1 edges and a tridiagonal Hessian; a cyclic chain has m edges,
    the last one adding the two corners (for m = 2 both edges couple
    nodes 0 and 1).  ``degenerate`` (shape S) marks chains with
    coincident reflection points; their other values are meaningless."""

    length: np.ndarray
    grad: np.ndarray
    hess: np.ndarray
    off: np.ndarray
    g_alpha: Optional[np.ndarray]
    degenerate: np.ndarray


_DEGENERATE = "degenerate chain: coincident reflection points"


def _edge_index(m: int, cyclic: bool):
    ia = np.arange(m if cyclic else m - 1)
    ib = (ia + 1) % m
    return ia, ib


def _edge_ends(a, cyclic, start=0, stop=None):
    """Values at the first and at the second node of chain edges
    start..stop - 1 (all edges by default): edge k runs from node k to
    node k + 1, wrapping to node 0 on a cyclic chain."""
    if cyclic:
        a = np.concatenate([a, a[..., :1]], axis=-1)
    stop = a.shape[-1] - 1 if stop is None else stop
    return a[..., start:stop], a[..., start + 1:stop + 1]


def _edge_change(x, y, cyclic, start=0, stop=None):
    """The change (dx, dy) of node values (x, y) over chain edges
    start..stop - 1, as ``_edge_ends`` takes them."""
    (xa, xb), (ya, yb) = (_edge_ends(c, cyclic, start, stop) for c in (x, y))
    return xb - xa, yb - ya


def _node_sums(first, second, cyclic):
    """Per-node sums of edge terms in edge order: node j adds ``first``
    of edge j (leaving it) and then ``second`` of edge j - 1 (entering
    it)."""
    out = np.zeros(first.shape[:-1] + (first.shape[-1] + (not cyclic),))
    out[..., :first.shape[-1]] += first
    if cyclic:
        out[..., 1:] += second[..., :-1]
        out[..., 0] += second[..., -1]
    else:
        out[..., 1:] += second
    return out


def _chain_length(table, symbols, us, cyclic):
    (px, py), = table.coords(symbols, us, (0,))
    vx, vy = _edge_change(px, py, cyclic)
    return np.sqrt(vx * vx + vy * vy).sum(-1)


def _chain_system(table, symbols, us, cyclic, want_alpha=False) -> ChainEval:
    """Chain length and its derivatives for chains of any leading shape;
    ``symbols`` is an integer array shaped like ``us``.  Every value of a
    chain, its length included, is the one it has alone."""
    (px, py), (tx, ty), (sx, sy) = table.coords(symbols, us, (0, 1, 2))
    (tax, tbx), (tay, tby) = _edge_ends(tx, cyclic), _edge_ends(ty, cyclic)
    vx, vy = _edge_change(px, py, cyclic)
    d = np.sqrt(vx * vx + vy * vy)
    degenerate = d.min(-1) < 1e-12
    if degenerate.any():
        # keep the division finite; callers drop these chains
        d = np.where(np.expand_dims(degenerate, -1), 1.0, d)
    ex, ey = vx / d, vy / d
    e_ta = ex * tax + ey * tay
    e_tb = ex * tbx + ey * tby
    grad = _node_sums(-e_ta, e_tb, cyclic)

    (sax, sbx), (say, sby) = _edge_ends(sx, cyclic), _edge_ends(sy, cyclic)
    haa = ((tax * tax + tay * tay) - (vx * sax + vy * say)) / d - e_ta * e_ta / d
    hbb = ((tbx * tbx + tby * tby) + (vx * sbx + vy * sby)) / d - e_tb * e_tb / d
    hab = -(tax * tbx + tay * tby) / d + e_ta * e_tb / d
    hess = _node_sums(haa, hbb, cyclic)

    g_alpha = None
    if want_alpha:
        (pax, pay), (qx, qy) = table.coords(symbols, us, (0, 1), 1)
        (qax, qbx), (qay, qby) = _edge_ends(qx, cyclic), _edge_ends(qy, cyclic)
        wx, wy = _edge_change(pax, pay, cyclic)
        e_w = ex * wx + ey * wy
        ga_a = (-(wx * tax + wy * tay) - (vx * qax + vy * qay)) / d \
            + e_ta * e_w / d
        ga_b = ((wx * tbx + wy * tby) + (vx * qbx + vy * qby)) / d \
            - e_tb * e_w / d
        g_alpha = _node_sums(ga_a, ga_b, cyclic)

    return ChainEval(d.sum(-1), grad, hess, hab, g_alpha, degenerate)


def _seed_chain(table, symbols, cyclic) -> np.ndarray:
    """Aim each reflection point at the midpoint of its neighbors' centers.

    ``symbols`` is an integer array of any leading shape."""
    symbols = np.asarray(symbols)
    c = table.center_xy[symbols]
    target = np.empty_like(c)
    target[..., 1:-1, :] = (c[..., :-2, :] + c[..., 2:, :]) / 2.0
    if cyclic:
        target[..., 0, :] = (c[..., -1, :] + c[..., 1, :]) / 2.0
        target[..., -1, :] = (c[..., -2, :] + c[..., 0, :]) / 2.0
    else:
        target[..., 0, :] = c[..., 1, :]
        target[..., -1, :] = c[..., -2, :]
    w = target - c
    rot = table.rotation[symbols]
    axes = table.axes[symbols]
    wx = (rot[..., 0, 0] * w[..., 0] + rot[..., 0, 1] * w[..., 1]) * axes[..., 0]
    wy = (rot[..., 1, 0] * w[..., 0] + rot[..., 1, 1] * w[..., 1]) * axes[..., 1]
    # math.atan2 per node: numpy's vectorized arctan2 may round differently
    return np.reshape([math.atan2(y, x) for y, x in
                       zip(wy.ravel().tolist(), wx.ravel().tolist())],
                      symbols.shape)


def _hessian_matrix(diag, off, cyclic):
    """The dense (m, m) chain Hessian of one chain's bands."""
    ia, ib = _edge_index(len(diag), cyclic)
    hess = np.diag(diag)
    hess[ia, ib] += off
    hess[ib, ia] += off
    return hess


def _open_solve(diag, off, rhs):
    """Tridiagonal solves for a batch of open chains: diag (B, n), off
    (B, n - 1), finite rhs (B, n, k).  The batch is one block-diagonal
    system with zero coupling between chains, solved by one dgtsv call;
    no pivot crosses a zero coupling, so each chain's arithmetic is that
    of its solve alone.  On a zero pivot the chains are solved one by
    one.  Returns (x, singular)."""
    nb, n, k = rhs.shape
    if n == 1:      # dgtsv refuses the empty band of a lone node
        singular = diag[:, 0] == 0.0
        return rhs / np.where(diag == 0.0, 1.0, diag)[..., None], singular
    singular = np.zeros(nb, bool)
    if not nb:
        return np.zeros(rhs.shape), singular
    coupling = np.zeros((nb, n))
    coupling[:, :-1] = off
    coupling = coupling.ravel()[:-1]
    x, info = dgtsv(coupling, diag.ravel(), coupling,
                    rhs.reshape(nb * n, k))[3:]
    if not info:
        return x.reshape(rhs.shape), singular
    x = np.zeros(rhs.shape)
    for b in range(nb):
        xb, info = dgtsv(off[b], diag[b], off[b], rhs[b])[3:]
        singular[b] = info > 0
        x[b] = xb
    return x, singular


def _tridiag_solve(diag, off, rhs, cyclic):
    """Solve H x = rhs for a batch of chain Hessians held as bands.

    ``diag`` (B, m) and ``off`` (B, edges) are as in ChainEval, ``rhs``
    is (B, m) or (B, m, k).  Returns (x, bad): x shaped like ``rhs``, and
    a mask of the chains with a non-finite input or a singular system,
    whose x is nan.  Non-finite chains are left out of the joint solve,
    since across a zero coupling 0 * nan and 0 * inf still reach the
    neighbouring chain.  A cyclic chain borders its last node: the
    leading (m - 1) block is tridiagonal (positive definite whenever H
    is) and is solved for rhs and the border column at once, and the
    last unknown comes from its Schur complement.
    """
    b = rhs if rhs.ndim == 3 else rhs[..., None]
    bad = ~(np.isfinite(diag).all(-1) & np.isfinite(off).all(-1)
            & np.isfinite(b).all((-2, -1)))
    ok = np.flatnonzero(~bad)
    diag, off, b = diag[ok], off[ok], b[ok]
    if not cyclic:
        x, singular = _open_solve(diag, off, b)
    else:
        m, k = b.shape[-2:]
        # the border column c couples the last node to nodes 0 and m - 2
        c = np.zeros((len(ok), m - 1, 1))
        c[:, 0, 0] = off[:, m - 1]
        c[:, m - 2, 0] += off[:, m - 2]     # m = 2: both edges meet node 0
        touched = (0,) if m == 2 else (0, m - 2)

        def border_dot(w):
            return sum(c[:, j] * w[:, j] for j in touched)

        yz, singular = _open_solve(diag[:, :-1], off[:, :m - 2],
                                   np.concatenate([b[:, :-1], c], axis=-1))
        y, z = yz[..., :k], yz[..., k:]
        schur = diag[:, -1, None] - border_dot(z)
        singular |= schur[:, 0] == 0.0
        schur[singular] = 1.0
        last = (b[:, -1] - border_dot(y)) / schur
        x = np.concatenate([y - z * last[:, None], last[:, None]], axis=1)
    bad[ok[singular]] = True
    out = np.full((len(bad),) + b.shape[1:], math.nan)
    out[ok[~singular]] = x[~singular]
    return (out if rhs.ndim == 3 else out[..., 0]), bad


def _newton_steps(diag, off, grad, mu, cyclic):
    """Damped Newton steps -(H + mu I)^-1 g for a batch of band Hessians,
    and a mask of the chains whose damped Hessian is singular or not
    finite (their step is nan)."""
    return _tridiag_solve(diag + mu[:, None], off, -grad, cyclic)


def _escalate(mu):
    return np.where(mu == 0.0, 1e-8, mu * 10.0)


def _solve_chain(table, symbols, us0, cyclic, tol):
    """Critical chains for a batch of equal-length chains.

    ``symbols`` and ``us0`` have shape (B, m).  Every chain runs exactly
    the iteration it would run alone: gradient descent with an Armijo
    line search while its residual exceeds _GD_TRIGGER, then damped
    Newton with its own damping mu.  Returns (us, residual, errors):
    errors[b] is the SolveError chain b failed with, or None.
    """
    us = np.array(us0, float)
    errors = [None] * len(us)
    ev = _chain_system(table, symbols, us, cyclic)
    length, grad, hess, off = ev.length, ev.grad, ev.hess, ev.off
    ginf = np.abs(grad).max(-1)
    failed = ev.degenerate.copy()
    for b in np.flatnonzero(failed):
        errors[b] = SolveError(_DEGENERATE)

    def evaluate(rows, cand):
        """Evaluate candidates of chains ``rows``; degenerate ones fail.
        Returns (evaluation, mask of the non-degenerate rows)."""
        ev = _chain_system(table, symbols[rows], cand, cyclic)
        for b in rows[ev.degenerate]:
            errors[b] = SolveError(_DEGENERATE)
        failed[rows[ev.degenerate]] = True
        return ev, ~ev.degenerate

    def accept(rows, cand, ev, keep, g_new):
        us[rows] = cand[keep]
        length[rows] = ev.length[keep]
        grad[rows] = ev.grad[keep]
        hess[rows] = ev.hess[keep]
        off[rows] = ev.off[keep]
        ginf[rows] = g_new[keep]

    # crude seeds first descend the length directly
    rows = np.flatnonzero(~failed & (ginf > _GD_TRIGGER))
    for _ in range(200):
        if not rows.size:
            break
        gsq = np.array([g @ g for g in grad[rows]])
        eta = 1.0 / (1.0 + ginf[rows])
        cand = us[rows].copy()
        stepped = np.zeros(rows.size, bool)
        todo = np.arange(rows.size)
        while True:
            todo = todo[eta[todo] > 1e-14]
            if not todo.size:
                break
            r = rows[todo]
            trial = us[r] - eta[todo, None] * grad[r]
            ok = _chain_length(table, symbols[r], trial, cyclic) \
                < length[r] - 1e-4 * eta[todo] * gsq[todo]
            cand[todo[ok]] = trial[ok]
            stepped[todo[ok]] = True
            todo = todo[~ok]
            eta[todo] *= 0.5
        rows, cand = rows[stepped], cand[stepped]
        ev, ok = evaluate(rows, cand)
        rows = rows[ok]
        accept(rows, cand, ev, ok, np.abs(ev.grad).max(-1))
        rows = rows[ginf[rows] > _GD_TRIGGER]

    mu = np.zeros(len(us))
    live = np.flatnonzero(~failed)
    for _ in range(80):
        live = live[~(ginf[live] <= tol) & ~failed[live]]
        if not live.size:
            break
        todo = live
        for _ in range(15):
            if not todo.size:
                break
            steps, singular = _newton_steps(hess[todo], off[todo], grad[todo],
                                            mu[todo], cyclic)
            mu[todo[singular]] = _escalate(mu[todo[singular]])
            r = todo[~singular]
            cand = us[r] + steps[~singular]
            ev, ok = evaluate(r, cand)
            g_new = np.abs(ev.grad).max(-1)
            good = ok & ((g_new < ginf[r]) | (g_new <= tol))
            a = r[good]
            accept(a, cand, ev, good, g_new)
            mu[a] = np.where(mu[a] < 1e-13, 0.0, mu[a] * 0.25)
            rejected = r[ok & ~good]
            mu[rejected] = _escalate(mu[rejected])
            todo = np.sort(np.concatenate([todo[singular], rejected]))
        for b in todo:
            errors[b] = SolveError(
                f"chain iteration stalled at residual {ginf[b]:.3e}",
                float(ginf[b]))
        failed[todo] = True
    for b in live[~(ginf[live] <= tol) & ~failed[live]]:
        errors[b] = SolveError(
            f"chain iteration did not converge: residual {ginf[b]:.3e}",
            float(ginf[b]))
    return us, ginf, errors


@dataclass(frozen=True, eq=False)
class CoreReflections:
    """The core reflections of one orbit as read-only columns, one entry
    per reflection: ``obstacle`` its symbol, ``u`` its boundary parameter
    in [0, 2 pi), ``point`` (n, 2) its position, ``d`` the flight length
    to the next reflection, ``phi`` the angle between the outgoing ray
    and the outward normal, and ``kappa`` the boundary curvature (what
    the curvature recursion consumes).  Equal when every column is."""

    obstacle: np.ndarray
    u: np.ndarray
    point: np.ndarray
    d: np.ndarray
    phi: np.ndarray
    kappa: np.ndarray

    def __len__(self) -> int:
        return len(self.d)

    def __eq__(self, other):
        return isinstance(other, CoreReflections) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name))
            for f in fields(self))


@dataclass(frozen=True)
class BilliardOrbit:
    """A solved orbit piece.

    ``records`` holds the core reflections only; ``chain_symbols`` and
    ``chain_us`` keep the full solved chain (pads included) for warm
    restarts and implicit differentiation.  ``kind`` is "periodic" or
    "segment"; ``shadow_gap`` is a segment's first-order truncation bound
    and ``core_start`` its pad depth (nan bound when the check is skipped).
    """

    word: Word
    alpha: float
    records: CoreReflections
    residual: float
    kind: str
    chain_symbols: tuple[int, ...]
    chain_us: tuple[float, ...]
    core_start: int
    shadow_gap: float = math.nan

    @property
    def period(self) -> int:
        return len(self.records)


def _core_flights(table, symbols, us, core_start, core_len, cyclic, du_orders):
    """The flights leaving the core nodes of a batch of solved chains
    (symbols and us (B, m)): the boundary coordinates of ``du_orders``
    (0 and 1 first) at every node, the speed |T| at every node, the
    flight lengths d, unit directions (ex, ey) and outward cosines e.n of
    the core, and the mask of physical chains, those whose every core
    edge leaves its node outward and enters its successor inward (not
    tangent).  The records and the implicit-function derivatives both
    read their flights here, so they agree bit for bit."""
    stop = core_start + core_len
    if not cyclic and stop >= us.shape[-1]:
        raise SolveError("chain node without successor; cannot build records")
    xy = table.coords(symbols, us, du_orders)
    (px, py), (tx, ty) = xy[:2]
    vx, vy = _edge_change(px, py, cyclic, core_start, stop)
    d = np.sqrt(vx * vx + vy * vy)
    ex, ey = vx / d, vy / d
    speed = np.sqrt(tx * tx + ty * ty)
    (nxa, nxb), (nya, nyb) = (_edge_ends(c, cyclic, core_start, stop)
                              for c in (ty / speed, -tx / speed))
    c_out = ex * nxa + ey * nya
    physical = ~((c_out.min(-1) <= 1e-9)
                 | ((ex * nxb + ey * nyb).max(-1) >= -1e-9))
    return xy, speed, d, (ex, ey), c_out, physical


def _build_records(table, symbols, us, core_start, core_len, cyclic):
    """The core reflections of a batch of solved chains: symbols and us
    are (B, m), the symbols offset to their rows of ``table``; the
    records hold the obstacle symbols themselves.  Returns, per chain,
    its CoreReflections (rows of read-only batch columns), or the
    SolveError of a nonphysical chain (see ``_core_flights``)."""
    xy, speed, d, _, c_out, physical = _core_flights(
        table, symbols, us, core_start, core_len, cyclic, (0, 1, 2))
    rows = slice(core_start, core_start + core_len)
    (px, py), (tx, ty), (sx, sy) = ((x[:, rows], y[:, rows]) for x, y in xy)
    kappa = (tx * sy - ty * sx) / speed[:, rows] ** 3
    # math.acos per reflection: numpy's arccos may round differently
    phi = np.array(list(map(math.acos, np.clip(c_out, -1.0, 1.0)
                            .ravel().tolist()))).reshape(c_out.shape)
    columns = (symbols[:, rows] % table.stride,
               us[:, rows] % (2.0 * math.pi), np.stack([px, py], axis=-1),
               d, phi, kappa)
    for col in columns:
        col.flags.writeable = False     # and so is every row view
    return [CoreReflections(*row) if good
            else SolveError("chain converged to a nonphysical configuration "
                            "(a tangent or penetrating edge)")
            for row, good in zip(zip(*columns), physical.tolist())]


def _pad_symbols(symbols, padding):
    """An integer array of words along its last axis, each with
    ``padding`` pads on both sides: outward from each end they alternate
    1 and 2, starting with the one that differs from the end symbol, so
    they depend on the end symbols alone."""
    k = np.arange(padding)
    left = ((symbols[..., :1] == 1) + k[::-1]) % 2 + 1
    right = ((symbols[..., -1:] == 1) + k) % 2 + 1
    return np.concatenate([left, symbols, right], axis=-1)


def _truncation_bound(table, symbols, us, padding, m):
    """First-order bound on how far the core points of a converged open
    chain lie from those of the chain padded without end: pads beyond an
    end change only the end node's gradient, by e.t, so by at most the
    largest semi-axis max(A, B) of its obstacle.  Columns 0 and end of the
    inverse tridiagonal Hessian carry that change to the core, decaying
    exponentially (Demko, Moss & Smith 1984).

    ``symbols`` and ``us`` are chains of any leading shape S, all with
    core ``padding:padding + m``; returns the bounds, shape S."""
    symbols = np.asarray(symbols)
    shape = np.shape(us)
    flat_s = symbols.reshape(-1, shape[-1])
    flat_u = np.reshape(us, flat_s.shape)
    ev = _chain_system(table, flat_s, flat_u, False)
    ends = np.zeros(flat_u.shape + (2,))
    ends[:, 0, 0] = ends[:, -1, 1] = 1.0
    core = slice(padding, padding + m)
    cols = np.abs(_tridiag_solve(ev.hess, ev.off, ends, False)[0][:, core])
    (tx, ty), = table.coords(flat_s[:, core], flat_u[:, core], (1,))
    speed = np.sqrt(tx * tx + ty * ty)
    reach = table.axes[flat_s[:, [0, -1]]].max(-1)
    # one chain's matrix-vector product at a time, as for a lone chain
    bounds = [float((sp * (c @ r)).max())
              for sp, c, r in zip(speed, cols, reach)]
    return np.reshape(bounds, shape[:-1])[()]


def _pad_depth(word: Word, z0: int, padding: int, init) -> int:
    """Pad depth of a request: 0 for a cyclic word; for an open word,
    ``padding`` or the deeper depth an ``init`` chain holds.  Malformed
    requests raise ValueError."""
    if not is_admissible(word, z0):
        raise ValueError(f"word {word.label} is not admissible")
    m = len(word)
    if word.cyclic:
        if init is not None and len(init) != m:
            raise ValueError("init length must match the word length")
        return 0
    if padding < 1:
        raise ValueError("padding must be at least 1")
    if init is None:
        return padding
    depth, odd = divmod(len(init) - m, 2)
    if odd or depth < padding:
        raise ValueError(f"init length {len(init)} is not the word length "
                         f"{m} plus at least {padding} pads on each side")
    return depth


def _segment_solve(table, words, depth, inits, tol, rows=None):
    """Solve one group: words of one kind and length, each padded by
    ``depth`` on both sides (cyclic words take no pads) and started from
    its init chain, or from the crude seed where that is None.  On a
    multi-row ``table``, ``rows`` gives each word's alpha row.  Returns
    (symbols, us, residual, errors), the last three as ``_solve_chain``;
    symbols are offset to their rows."""
    cyclic = words[0].cyclic
    symbols = _pad_symbols(np.array([w.symbols for w in words]), depth)
    if rows is not None:
        # the pads read the true end symbols, so the offset comes after
        symbols += table.stride * np.asarray(rows)[:, None]
    us0 = np.empty(symbols.shape)
    cold = [b for b, init in enumerate(inits) if init is None]
    if cold:
        us0[cold] = _seed_chain(table, symbols[cold], cyclic)
    for b, init in enumerate(inits):
        if init is not None:
            us0[b] = init
    return (symbols,) + _solve_chain(table, symbols, us0, cyclic, tol)


def _snapshot(family: DeformationFamily, alphas):
    """One table for items at ``alphas`` (one alpha per item) and each
    item's row in it: the shared one-alpha snapshot and rows None when
    the items share one alpha, else one multi-row ``TableAt`` over the
    distinct alphas, told apart by their bits as ``table_at`` tells
    them."""
    keys = [float(a).hex() for a in alphas]
    distinct = {key: r for r, key in enumerate(dict.fromkeys(keys))}
    if len(distinct) < 2:
        return (table_at(family, alphas[0]) if alphas else None), None
    return (TableAt(family, [float.fromhex(key) for key in distinct]),
            np.array([distinct[key] for key in keys]))


def find_orbits(words, family: DeformationFamily, alpha, inits=None,
                padding: int = DEFAULT_PADDING, tol: float = TOL_ORBIT,
                shadow_check: bool = True) -> list:
    """Orbits realizing a batch of words at one alpha, or at one alpha
    per word when ``alpha`` is a sequence.

    A cyclic word gives its periodic orbit.  An open word is padded on
    both sides, the open chain is solved, and only the core reflections
    are reported: ``padding`` is the minimum depth (a warm start holding
    more pads keeps its depth).  With ``shadow_check`` a segment's
    ``shadow_gap`` is ``_truncation_bound``; while it exceeds TOL_SHADOW
    the chain is re-solved 4 pads deeper, and past MAX_PADDING the word
    fails with ShadowingError, which names the word's alpha.  ``inits``
    holds each word's starting chain, pads included, or None for the
    crude seed.

    The batch is solved on ``_snapshot``'s table for the words' alphas.
    Words of one kind, length and pad depth form a group, whatever their
    alphas: one ``_segment_solve`` (one seed call for its cold words, one
    ``_solve_chain`` call), one batched bound, and one more
    ``_segment_solve`` for the words it deepens.  Every chain runs the
    iteration it would run alone on every row, so a word's orbit does not
    depend on the batch it came in: it is the one ``find_orbits([word],
    family, its_alpha, [init])`` gives, with the obstacle symbols
    themselves in ``chain_symbols`` and the records, and its own alpha.
    Returns, per word, its BilliardOrbit or the SolveError or
    ShadowingError it failed with; a malformed request raises ValueError.
    """
    inits = [None] * len(words) if inits is None else list(inits)
    if len(inits) != len(words):
        raise ValueError("one init (or None) per word")
    inits = [None if c is None else np.asarray(c, float) for c in inits]
    depths = [_pad_depth(w, family.z0, padding, c)
              for w, c in zip(words, inits)]
    alphas = list(alpha) if np.ndim(alpha) else [alpha] * len(words)
    if len(alphas) != len(words):
        raise ValueError("one alpha per word")
    table, rows = _snapshot(family, alphas)
    out = [None] * len(words)
    groups = {}
    for i, word in enumerate(words):
        groups.setdefault((word.cyclic, len(word), depths[i]), []).append(i)
    pending = [(depth, idx, [inits[i] for i in idx])
               for (_, _, depth), idx in groups.items()]
    while pending:
        depth, idx, group_inits = pending.pop(0)
        group = [words[i] for i in idx]
        cyclic, m = group[0].cyclic, len(group[0])
        symbols, us, residual, errors = _segment_solve(
            table, group, depth, group_inits, tol,
            None if rows is None else rows[idx])
        raw = symbols % table.stride    # the obstacle symbols themselves
        for b in np.flatnonzero([e is not None for e in errors]):
            out[idx[b]] = errors[b]
        ok = np.flatnonzero([e is None for e in errors])
        gaps = np.full(len(idx), math.nan)
        if shadow_check and not cyclic and ok.size:
            gaps[ok] = _truncation_bound(table, symbols[ok], us[ok], depth, m)
            deepen = ok[~(gaps[ok] <= TOL_SHADOW)]
            ok = ok[gaps[ok] <= TOL_SHADOW]
            if deepen.size and depth + 4 > MAX_PADDING:
                for b in deepen:
                    out[idx[b]] = ShadowingError(
                        f"truncation bound {gaps[b]:.3e} exceeds "
                        f"{TOL_SHADOW:.1e} at padding {depth}; word "
                        f"{group[b].label} at alpha = {alphas[idx[b]]}")
            elif deepen.size:
                # the solved chain, with 4 freshly seeded pads on each
                # side: the pads read the true end symbols, then go to
                # the chain's row
                offset = (symbols - raw)[deepen, :1]
                outer = _seed_chain(table,
                                    _pad_symbols(raw[deepen], 4) + offset,
                                    cyclic=False)
                seeds = np.concatenate([outer[:, :4], us[deepen],
                                        outer[:, -4:]], axis=1)
                pending.append((depth + 4, [idx[b] for b in deepen],
                                list(seeds)))
        if not ok.size:
            continue
        kind = "periodic" if cyclic else "segment"
        records = _build_records(table, symbols[ok], us[ok], depth, m, cyclic)
        for b, recs in zip(ok, records):
            gap = float(gaps[b]) if shadow_check and not cyclic else math.nan
            out[idx[b]] = recs if isinstance(recs, SolveError) \
                else BilliardOrbit(group[b], alphas[idx[b]], recs,
                                   float(residual[b]), kind,
                                   tuple(raw[b].tolist()), tuple(us[b]),
                                   depth, gap)
    return out


def _one(results):
    """The only result of a batch of one: its orbit, or its error raised."""
    if isinstance(results[0], Exception):
        raise results[0]
    return results[0]


def find_periodic_orbit(word: Word, family: DeformationFamily, alpha: float,
                        init=None, tol: float = TOL_ORBIT) -> BilliardOrbit:
    """Periodic orbit with the prescribed cyclic itinerary: a batch of one
    through ``find_orbits``."""
    if not word.cyclic:
        raise ValueError("find_periodic_orbit needs a cyclic word")
    return _one(find_orbits([word], family, alpha, [init], tol=tol))


def find_orbit_segment(word: Word, family: DeformationFamily, alpha: float,
                       padding: int = DEFAULT_PADDING, init=None,
                       tol: float = TOL_ORBIT,
                       shadow_check: bool = True) -> BilliardOrbit:
    """Trapped-orbit piece realizing an open word: a batch of one through
    ``find_orbits``, which says how the word is padded and deepened."""
    if word.cyclic:
        raise ValueError("find_orbit_segment needs an open word")
    return _one(find_orbits([word], family, alpha, [init], padding=padding,
                            tol=tol, shadow_check=shadow_check))


def max_collision_angles(words, family: DeformationFamily, alphas, chains,
                         padding: int):
    """The largest collision angle of equal-length words of one kind, each
    at its own alpha of ``alphas``, as one batch: one ``_segment_solve``
    on ``_snapshot``'s table, as in ``find_orbits``.

    Cyclic words are solved as periodic orbits, open words as segments
    padded by ``padding`` without the shadowing check; ``chains`` holds
    each word's starting chain, pads included, or None for the crude
    seed.  The core flights and physical test come from
    ``_core_flights``, as for ``_build_records``, and only the outward
    cosines are read.  Returns one (chain, phi) per word: the solved
    chain and acos of its smallest core cosine (the largest of the angles
    ``_build_records`` gives, since acos decreases), or (None, nan) when
    the solve failed or the chain is nonphysical.  Each result is the
    word's own at its alpha, whatever the batch.
    """
    table, rows = _snapshot(family, alphas)
    depth = 0 if words[0].cyclic else padding
    symbols, us, _, errors = _segment_solve(table, words, depth, chains,
                                            TOL_ORBIT, rows)
    out = [(None, math.nan)] * len(words)
    ok = np.flatnonzero([err is None for err in errors])
    _, _, _, _, c_out, physical = _core_flights(
        table, symbols[ok], us[ok], depth, len(words[0]), words[0].cyclic,
        (0, 1))
    for b, c_min, good in zip(ok, np.clip(c_out.min(-1), -1.0, 1.0).tolist(),
                              physical.tolist()):
        if good:
            out[b] = (us[b].copy(), math.acos(c_min))
    return out


def walk(solve, words, alphas, padding: int, chains=None):
    """Follow ``words`` along the grid ``alphas`` by natural-parameter
    continuation, in chunks of alphas.

    ``solve(words, alphas, inits)`` solves a batch of rows, each a word at
    its alpha from its init chain (pads included) or from the crude seed
    where that is None, and returns one (chain or None, result) per row.
    A chunk is one ``solve`` call over every word at each of the chunk's
    alphas, alpha-major: row k is ``words[k % n]`` at the chunk's k // n-th
    alpha.  The chunk holds one alpha while no word has a chain, else
    max(1, WALK_NODES // N) alphas, N being the chain nodes per alpha:
    word length, plus 2 ``padding`` for an open word.  Each row is seeded
    with its word's chain at the last alpha before the chunk (``chains``
    before the first chunk), and a row that fails from a chain is solved
    once more, crude, at its own alpha, in one more ``solve`` call.  The
    batched solvers run every chain as it would run alone, so each row is
    the one a word walked on its own, seeded and retried alike, gets.
    Yields, per chunk, the index of its first alpha and its rows.
    """
    n = len(words)
    nodes = sum(len(w) + (0 if w.cyclic else 2 * padding) for w in words)
    seeds = [None] * n if chains is None else list(chains)
    lo = 0
    while lo < len(alphas):
        warm = any(seed is not None for seed in seeds)
        part = alphas[lo:lo + (max(1, WALK_NODES // nodes) if warm else 1)]
        inits = seeds * len(part)
        rows = solve(words * len(part), [a for a in part for _ in words],
                     inits)
        retry = [k for k, (init, (chain, _)) in enumerate(zip(inits, rows))
                 if chain is None and init is not None]
        if retry:
            again = solve([words[k % n] for k in retry],
                          [part[k // n] for k in retry], [None] * len(retry))
            for k, row in zip(retry, again):
                rows[k] = row
        yield lo, rows
        seeds = [chain for chain, _ in rows[-n:]]
        lo += len(part)


@dataclass(frozen=True)
class AlphaDerivatives:
    """First alpha-derivatives along an orbit core, from the implicit
    function theorem on the chain equations.

    Per core reflection j: boundary parameter velocity u_dot, flight
    length derivative d_dot (flight j -> j+1), curvature derivative
    kappa_dot, derivative of cos(phi), and the forcing
    g_dot = d/dalpha [2 kappa / cos phi].  ``cond`` is the chain Hessian
    condition number.
    """

    u_dot: np.ndarray
    d_dot: np.ndarray
    kappa_dot: np.ndarray
    cosphi_dot: np.ndarray
    g_dot: np.ndarray
    cond: float


def _condition(diag, off, cyclic) -> float:
    """cond_2 of one chain Hessian held as bands.

    A converged chain is a length minimum, so its Hessian is positive
    definite: cond_2 = largest / smallest eigenvalue, and a smallest
    eigenvalue <= 0 reads as an overflowing condition number (inf).
    Open chains bisect the bands for the two extremes; a cyclic
    Hessian's corners leave only the dense eigensolver."""
    if cyclic:
        lo, hi = np.linalg.eigvalsh(_hessian_matrix(diag, off, True))[[0, -1]]
    else:
        lo, hi = (_tridiag_eigenvalue(diag, off, i) for i in (1, len(diag)))
    return float(hi / lo) if lo > 0 else math.inf


def _tridiag_eigenvalue(diag, off, i: int) -> float:
    """The i-th smallest eigenvalue (1-based) of a symmetric tridiagonal
    matrix: the LAPACK bisection ``eigvalsh_tridiagonal(select="i")``
    runs, called directly, with its finite check and its errors."""
    if not (np.isfinite(diag).all() and np.isfinite(off).all()):
        raise ValueError("array must not contain infs or NaNs")
    _, w, _, _, info = dstebz(diag, off, 2, 0.0, 1.0, i, i, 0.0, "E")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of internal stebz")
    if info > 0:
        raise np.linalg.LinAlgError(
            f"stebz did not converge (LAPACK info={info})")
    return w[0]


def alpha_derivatives(orbits, family: DeformationFamily) -> list:
    """Implicit-function alpha-derivatives of a batch of solved orbits,
    at their own alphas.

    The batch is evaluated on one table, as ``find_orbits`` solves it:
    the shared snapshot when the orbits share one alpha, else one
    multi-row ``TableAt`` over their distinct alphas.  Orbits of one
    kind whose chains have one length and whose cores have one start and
    one length form a group, whatever their alphas, evaluated on one
    batched chain system with one batched tridiagonal solve; the
    condition number stays per chain.  Each result is the orbit's
    derivative alone.  Returns, per orbit, its AlphaDerivatives or the
    SolveError its chain is rejected with (a degenerate chain, or cond
    not below COND_LIMIT).
    """
    out = [None] * len(orbits)
    if not orbits:
        return out
    table, alpha_rows = _snapshot(family, [o.alpha for o in orbits])
    groups = {}
    for i, o in enumerate(orbits):
        key = (o.kind, len(o.chain_us), o.core_start, len(o.records))
        groups.setdefault(key, []).append(i)
    for (kind, _, start, n), idx in groups.items():
        cyclic = kind == "periodic"
        sym = np.array([orbits[i].chain_symbols for i in idx])
        if alpha_rows is not None:
            sym += table.stride * alpha_rows[idx][:, None]
        us = np.array([orbits[i].chain_us for i in idx])
        ev = _chain_system(table, sym, us, cyclic, want_alpha=True)
        conds = {}
        for b, i in enumerate(idx):
            if ev.degenerate[b]:
                out[i] = SolveError(_DEGENERATE, orbits[i].residual)
                continue
            cond = _condition(ev.hess[b], ev.off[b], cyclic)
            if not cond < COND_LIMIT:
                out[i] = SolveError(
                    f"chain Hessian condition number {cond:.3e} exceeds "
                    f"{COND_LIMIT:.1e}; implicit derivative rejected",
                    orbits[i].residual)
                continue
            conds[b] = cond
        if not conds:
            continue
        ok = list(conds)
        sym, us = sym[ok], us[ok]
        rows = slice(start, start + n)
        _check_orders(family, 3, 1)     # as curvature_partials checks
        kap, kap_u, kap_a = _curvature_partials(table, sym[:, rows],
                                                us[:, rows])
        udot_full = _tridiag_solve(ev.hess[ok], ev.off[ok], -ev.g_alpha[ok],
                                   cyclic)[0]

        # the core flights core -> succ of the records: d, e and cos phi
        xy, speed, d, (ex, ey), cphi, _ = _core_flights(
            table, sym, us, start, n, cyclic, (0, 1, 2))
        _, (tx, ty), (sx, sy) = xy
        (pax, pay), (tax, tay) = table.coords(sym, us, (0, 1), 1)
        qx, qy = tx * udot_full + pax, ty * udot_full + pay
        tdx, tdy = sx * udot_full + tax, sy * udot_full + tay
        # unit-normal derivative: rotate T-dot, remove the speed variation
        w = (tx * tdx + ty * tdy) / speed ** 3
        nx, ny = (ty / speed)[:, rows], (-tx / speed)[:, rows]
        ndx = (tdy / speed - ty * w)[:, rows]
        ndy = (-tdx / speed + tx * w)[:, rows]

        qvx, qvy = _edge_change(qx, qy, cyclic, start, start + n)
        d_dot = ex * qvx + ey * qvy
        edx, edy = qvx / d - ex * (d_dot / d), qvy / d - ey * (d_dot / d)
        k_dot = kap_u * udot_full[:, rows] + kap_a
        c_dot = (ndx * ex + ndy * ey) + (nx * edx + ny * edy)
        g_dot = 2.0 * k_dot / cphi - 2.0 * kap * c_dot / cphi ** 2
        for j, b in enumerate(ok):
            out[idx[b]] = AlphaDerivatives(udot_full[j, rows], d_dot[j],
                                           k_dot[j], c_dot[j], g_dot[j],
                                           conds[b])
    return out


def orbit_alpha_derivatives(orbit: BilliardOrbit,
                            family: DeformationFamily) -> AlphaDerivatives:
    """Implicit-function alpha-derivatives of one orbit: a batch of one
    through ``alpha_derivatives``; raises its SolveError."""
    return _one(alpha_derivatives([orbit], family))
