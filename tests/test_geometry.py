"""Boundary jets, curvature, table bounds and the no-eclipse gate.

Frozen reference numbers come from scripts/reproduce_closed_forms.py
(sympy) unless a cheaper closed form is stated inline.
"""

import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from billiard_lab import (AlphaRangeError, ConvexityError, DeformationFamily,
                          EclipseError, GeometryError, ObstacleSpec,
                          SmoothnessError, SolveError, TableBounds,
                          boundary_pair_extremes,
                          check_no_eclipse, circle, curvature,
                          curvature_partials, ellipse, find_orbit_segment,
                          find_periodic_orbit, partial_jet,
                          phi_max_from_observation, table_bounds,
                          validate_family)
from billiard_lab import Word, geometry, symbolic
from billiard_lab.dynamics import _tangent_frame
from billiard_lab.geometry import (PHI_PADDING, SEARCH_CHUNK,
                                   VALIDATION_ALPHAS, _max_over_directions,
                                   _phi_corpus, table_at)

from conftest import (ROOT, chunk_starts, growing_two_circle,
                      static_three_circle, static_two_circle,
                      translate_two_circle)


def deformed_ellipse_family():
    # every parameter a nontrivial polynomial in alpha
    wobble = ObstacleSpec(kind="ellipse", center_x=(3.5, -0.2),
                          center_y=(5.5, 0.1), semi_axis_a=(1.6, 0.2),
                          semi_axis_b=(0.9, -0.1), rotation=(0.3, 0.5))
    return DeformationFamily(
        (circle(0.0, 0.0, 1.0), circle(7.0, 0.0, 1.0), wobble),
        0.4, mode="general")


# ---------------------------------------------------------------- jets

def test_circle_jets_exact():
    fam = DeformationFamily(
        (circle(2.0, -1.0, 1.5), circle(8.0, 0.0, 1.0)), 0.2, mode="period2")
    for u in (0.0, 0.7, 2.0, 5.5):
        c, s = math.cos(u), math.sin(u)
        np.testing.assert_allclose(
            partial_jet(fam, 1, u, 0.1, 0, 0), [2.0 + 1.5 * c, -1.0 + 1.5 * s],
            rtol=0, atol=1e-14)
        np.testing.assert_allclose(
            partial_jet(fam, 1, u, 0.1, 1, 0), [-1.5 * s, 1.5 * c],
            rtol=0, atol=1e-14)
        np.testing.assert_allclose(
            partial_jet(fam, 1, u, 0.1, 2, 0), [-1.5 * c, -1.5 * s],
            rtol=0, atol=1e-14)
        # a rigid obstacle has no alpha dependence
        np.testing.assert_allclose(
            partial_jet(fam, 1, u, 0.1, 0, 1), [0.0, 0.0], rtol=0, atol=0)


def test_translation_alpha_jet_is_unit_x():
    fam = translate_two_circle()
    for u in (0.0, 1.0, 3.0):
        np.testing.assert_allclose(
            partial_jet(fam, 2, u, 0.2, 0, 1), [1.0, 0.0], rtol=0, atol=0)
        np.testing.assert_allclose(
            partial_jet(fam, 2, u, 0.2, 1, 1), [0.0, 0.0], rtol=0, atol=0)
        np.testing.assert_allclose(
            partial_jet(fam, 2, u, 0.2, 0, 2), [0.0, 0.0], rtol=0, atol=0)


def test_vectorized_jet_matches_scalar():
    fam = deformed_ellipse_family()
    us = np.linspace(0.0, 2.0 * np.pi, 17)
    batch = partial_jet(fam, 3, us, 0.15, 1, 1)
    for j, u in enumerate(us):
        np.testing.assert_allclose(batch[j],
                                   partial_jet(fam, 3, float(u), 0.15, 1, 1),
                                   rtol=0, atol=1e-15)


@settings(max_examples=60)
@given(u=st.floats(0.0, 2.0 * math.pi, allow_nan=False),
       alpha=st.floats(0.02, 0.38),
       lu=st.integers(0, 3), la=st.integers(0, 2))
def test_u_jets_match_finite_differences(u, alpha, lu, la):
    fam = deformed_ellipse_family()
    h = 1e-5
    got = partial_jet(fam, 3, u, alpha, lu + 1, la)
    fd = (partial_jet(fam, 3, u + h, alpha, lu, la)
          - partial_jet(fam, 3, u - h, alpha, lu, la)) / (2.0 * h)
    np.testing.assert_allclose(got, fd, rtol=0, atol=5e-7)


@settings(max_examples=60)
@given(u=st.floats(0.0, 2.0 * math.pi, allow_nan=False),
       alpha=st.floats(0.02, 0.38),
       lu=st.integers(0, 4), la=st.integers(0, 1))
def test_alpha_jets_match_finite_differences(u, alpha, lu, la):
    fam = deformed_ellipse_family()
    h = 1e-5
    got = partial_jet(fam, 3, u, alpha, lu, la + 1)
    fd = (partial_jet(fam, 3, u, alpha + h, lu, la)
          - partial_jet(fam, 3, u, alpha - h, lu, la)) / (2.0 * h)
    np.testing.assert_allclose(got, fd, rtol=0, atol=5e-7)


@pytest.mark.parametrize("cfg_name", ["breathe_cfg", "mixed_cfg"])
def test_table_snapshot_jets_match_partial_jet(cfg_name, request):
    # the by-symbol gather against one partial_jet call per obstacle, at
    # every order the snapshot serves
    fam = request.getfixturevalue(cfg_name).family
    rng = np.random.default_rng(5)
    symbols = rng.integers(1, fam.z0 + 1, (4, 9))
    us = rng.uniform(0.0, 2.0 * math.pi, (4, 9))
    for alpha in (0.0, 0.17, fam.alpha_max):
        table = table_at(fam, alpha)
        for lu in range(4):
            for la in range(fam.smoothness[1] + 1):
                want = np.empty(us.shape + (2,))
                for i in range(1, fam.z0 + 1):
                    mask = symbols == i
                    want[mask] = partial_jet(fam, i, us[mask], alpha, lu, la)
                np.testing.assert_allclose(table.jet(symbols, us, lu, la),
                                           want, rtol=0, atol=1e-14)
        # one gather for several u-orders gives each order's jet exactly
        for la in range(fam.smoothness[1] + 1):
            for lu, (x, y) in enumerate(table.coords(symbols, us, range(4),
                                                     la)):
                np.testing.assert_array_equal(
                    np.stack([x, y], axis=-1), table.jet(symbols, us, lu, la))


def test_table_snapshot_is_shared_and_read_only():
    fam = deformed_ellipse_family()
    table = table_at(fam, 0.25)
    assert table_at(fam, 0.25) is table
    assert table_at(deformed_ellipse_family(), 0.25) is table   # equal family
    assert table_at(fam, 0.3) is not table
    for arr in (table.p, table.iq, table.center, table.phase,
                table.center_xy, table.axes, table.rotation):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[1] = 0.0
    with pytest.raises(AlphaRangeError):
        table_at(fam, 0.5)


_SNAPSHOT_ARRAYS = ("p", "iq", "center", "phase", "center_xy", "axes",
                    "rotation")


def _reference_snapshot(family, alpha):
    """The snapshot arrays built one obstacle and one order at a time,
    every polynomial derived and evaluated at this alpha alone."""
    polyval = np.polynomial.polynomial.polyval
    n = family.z0 + 1
    orders = family.smoothness[1] + 1
    ref = dict(p=np.zeros((orders, n), complex),
               iq=np.zeros((orders, n), complex),
               center=np.zeros((orders, n), complex),
               phase=np.ones(n, complex), center_xy=np.zeros((n, 2)),
               axes=np.ones((n, 2)), rotation=np.zeros((n, 2, 2)))
    for i, spec in enumerate(family.obstacles, start=1):
        a, b, psi = spec.axes()
        psiv = polyval(alpha, np.asarray(psi))
        ref["phase"][i] = np.exp(1j * psiv)
        cp, sp = math.cos(psiv), math.sin(psiv)
        ref["rotation"][i] = (cp, sp), (-sp, cp)
        ref["axes"][i] = (float(polyval(alpha, np.asarray(a))),
                          float(polyval(alpha, np.asarray(b))))
        ref["center_xy"][i] = (float(polyval(alpha, np.asarray(spec.center_x))),
                               float(polyval(alpha, np.asarray(spec.center_y))))
        psip = geometry._poly_der(np.asarray(psi, float))
        p, q = np.asarray(a, complex), np.asarray(b, complex)
        for m in range(orders):
            ref["p"][m, i] = polyval(alpha, p)
            ref["iq"][m, i] = 1j * polyval(alpha, q)
            cx, cy = (polyval(alpha, geometry._poly_der(np.asarray(c, float), m))
                      for c in (spec.center_x, spec.center_y))
            ref["center"][m, i] = cx + 1j * cy
            p = geometry._rot_step(p, psip)
            q = geometry._rot_step(q, psip)
    return ref


def _hex(arr):
    """``float.hex`` of every real and imaginary part, with the shape."""
    arr = np.asarray(arr)
    parts = (arr.real, arr.imag) if np.iscomplexobj(arr) else (arr,)
    return arr.shape, [[float.hex(float(x)) for x in part.ravel()]
                       for part in parts]


def _assert_snapshot_is_reference(family, alpha):
    table = geometry.TableAt(family, alpha)
    ref = _reference_snapshot(family, alpha)
    for name in _SNAPSHOT_ARRAYS:
        arr = getattr(table, name)
        assert _hex(arr) == _hex(ref[name]), (name, alpha)
        assert not arr.flags.writeable, name


def _slack_alphas(family):
    slack = geometry.ALPHA_SLACK_REL * max(family.alpha_max, 1.0)
    return (-slack, 0.0, family.alpha_max, family.alpha_max + slack)


_COEFF = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def _random_families(draw):
    """Circles and ellipses of 2-5 obstacles whose parameters are
    polynomials of degree up to r', rotations of degree >= 2."""
    rp = draw(st.integers(0, 3))
    z0 = draw(st.integers(2, 5))

    def poly(lead, degree=None):
        degree = draw(st.integers(0, rp)) if degree is None else degree
        return (lead,) + tuple(draw(_COEFF) for _ in range(degree))

    obstacles = []
    for _ in range(z0):
        centre = poly(draw(st.floats(-5.0, 5.0))), poly(draw(st.floats(-5.0, 5.0)))
        if draw(st.booleans()):
            obstacles.append(ObstacleSpec("circle", *centre,
                                          radius=poly(draw(st.floats(0.2, 2.0)))))
        else:
            obstacles.append(ObstacleSpec(
                "ellipse", *centre,
                semi_axis_a=poly(draw(st.floats(0.2, 2.0))),
                semi_axis_b=poly(draw(st.floats(0.2, 2.0))),
                rotation=poly(draw(st.floats(-3.0, 3.0)),
                              draw(st.integers(2, max(rp, 2))))))
    return DeformationFamily(tuple(obstacles), draw(st.floats(0.05, 2.0)),
                             (5, rp), "period2" if z0 == 2 else "general")


@settings(max_examples=60, deadline=None)
@given(family=_random_families(),
       inner=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))
@example(family=DeformationFamily(       # psi = -0.0 below alpha = 0
    (circle(0.0, 0.0, 1.0), circle(4.0, 0.0, 1.0),
     ellipse(2.0, 3.0, 1.0, 0.5, (-0.0, 0.0, 0.0))), 0.4, (5, 2)),
    inner=[0.5])
def test_snapshot_evaluates_the_family_stack_as_the_reference(family, inner):
    # one evaluation of the per-family stack gives every array of the
    # per-alpha construction bit for bit, at both slack ends too
    for alpha in _slack_alphas(family) + tuple(f * family.alpha_max
                                               for f in inner):
        _assert_snapshot_is_reference(family, alpha)


@pytest.mark.parametrize("cfg_name", ["two_circle_cfg", "breathe_cfg",
                                      "mixed_cfg"])
def test_shipped_snapshots_equal_the_reference(cfg_name, request):
    family = request.getfixturevalue(cfg_name).family
    for alpha in (np.linspace(0.0, family.alpha_max, VALIDATION_ALPHAS).tolist()
                  + list(_slack_alphas(family))):
        _assert_snapshot_is_reference(family, alpha)


def _assert_rows_are_snapshots(family, alphas):
    multi = geometry.TableAt(family, alphas)
    n = multi.stride
    assert n == family.z0 + 1
    for r, alpha in enumerate(alphas):
        one = geometry.TableAt(family, alpha)
        for name in _SNAPSHOT_ARRAYS:
            arr = getattr(multi, name)
            row = np.take(arr, range(r * n, (r + 1) * n),
                          axis=1 if name in ("p", "iq", "center") else 0)
            assert _hex(row) == _hex(getattr(one, name)), (name, alpha)
            assert not arr.flags.writeable, name


@settings(max_examples=40, deadline=None)
@given(family=_random_families(),
       inner=st.lists(st.floats(0.0, 1.0), max_size=4))
@example(family=DeformationFamily(      # signed zeros in every role
    (circle(0.0, -0.0, (1.0, -0.0)), circle(4.0, (0.0, -0.0), 1.0),
     ellipse(2.0, 3.0, (1.0, 0.25), 0.5, (-0.0, 0.5, -0.0))), 0.4, (5, 2)),
    inner=[0.5])
def test_multi_row_snapshot_rows_equal_one_alpha_snapshots(family, inner):
    # one polyval over a vector of alphas: row r of every array is the
    # one-alpha snapshot at alphas[r] bit for bit, signed zeros included,
    # at both slack ends and at -0.0 too
    _assert_rows_are_snapshots(family, list(_slack_alphas(family)) + [-0.0]
                               + [f * family.alpha_max for f in inner])


@pytest.mark.parametrize("cfg_name", ["two_circle_cfg", "breathe_cfg",
                                      "mixed_cfg"])
def test_shipped_multi_row_snapshots_equal_one_alpha_snapshots(cfg_name,
                                                               request):
    family = request.getfixturevalue(cfg_name).family
    _assert_rows_are_snapshots(
        family, np.linspace(0.0, family.alpha_max, VALIDATION_ALPHAS).tolist()
        + list(_slack_alphas(family)))
    with pytest.raises(AlphaRangeError):
        geometry.TableAt(family, [0.0, 2.0 * family.alpha_max])


def test_snapshots_make_no_polynomial_algebra(monkeypatch, breathe_cfg):
    # the recursion runs once, while the family's stack is built; the
    # 65 validation snapshots then only evaluate it
    family = dataclasses.replace(breathe_cfg.family)
    calls = []
    real_step = geometry._rot_step
    monkeypatch.setattr(geometry, "_rot_step",
                        lambda *args: calls.append(1) or real_step(*args))
    stack = family.alpha_stack
    built = len(calls)
    assert built == 2 * family.smoothness[1] * family.z0
    assert family.alpha_stack is stack
    assert not stack.flags.writeable
    for alpha in np.linspace(0.0, family.alpha_max, VALIDATION_ALPHAS):
        geometry.TableAt(family, float(alpha))
    assert len(calls) == built
    # the stack is a memo, not a field: equality, hashing and repr
    # ignore it
    assert family == breathe_cfg.family
    assert hash(family) == hash(breathe_cfg.family)
    assert "alpha_stack" not in repr(family)


def test_curvature_partials_accept_symbol_arrays():
    fam = deformed_ellipse_family()
    rng = np.random.default_rng(3)
    symbols = rng.integers(1, 4, (5, 7))
    us = rng.uniform(0.0, 2.0 * math.pi, (5, 7))
    batch = curvature_partials(fam, symbols, us, 0.2)
    for got, want in zip(batch, np.vectorize(
            lambda i, u: curvature_partials(fam, int(i), u, 0.2))(symbols, us)):
        assert got.shape == us.shape
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-14)
    with pytest.raises(GeometryError):
        curvature_partials(fam, np.array([1, 4]), np.zeros(2), 0.2)


def test_jet_orders_beyond_smoothness_raise():
    fam = deformed_ellipse_family()
    with pytest.raises(SmoothnessError):
        partial_jet(fam, 3, 0.0, 0.0, 6, 0)
    with pytest.raises(SmoothnessError):
        partial_jet(fam, 3, 0.0, 0.0, 0, 4)
    with pytest.raises(GeometryError):
        partial_jet(fam, 3, 0.0, 0.0, -1, 0)


def test_alpha_range_enforced_with_slack():
    fam = static_two_circle()
    partial_jet(fam, 1, 0.0, 0.5 + 4e-4, 0, 0)     # inside the slack
    partial_jet(fam, 1, 0.0, -4e-4, 0, 0)
    with pytest.raises(AlphaRangeError):
        partial_jet(fam, 1, 0.0, 0.6, 0, 0)
    with pytest.raises(AlphaRangeError):
        partial_jet(fam, 1, 0.0, -0.1, 0, 0)


def test_obstacle_index_is_one_based():
    fam = static_two_circle()
    with pytest.raises(GeometryError):
        partial_jet(fam, 0, 0.0, 0.0, 0, 0)
    with pytest.raises(GeometryError):
        partial_jet(fam, 3, 0.0, 0.0, 0, 0)


# ----------------------------------------------------------- curvature

def test_ellipse_curvature_closed_form():
    fam = DeformationFamily((ellipse(0.0, 0.0, 2.0, 1.0),
                             circle(8.0, 0.0, 1.0)), 0.1, mode="period2")
    assert curvature(fam, 1, 0.0, 0.0) == pytest.approx(2.0, abs=1e-14)
    assert curvature(fam, 1, math.pi / 2, 0.0) == pytest.approx(0.25, abs=1e-14)
    us = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    # a b / (a^2 sin^2 + b^2 cos^2)^(3/2)
    expect = 2.0 / (4.0 * np.sin(us) ** 2 + np.cos(us) ** 2) ** 1.5
    np.testing.assert_allclose(curvature(fam, 1, us, 0.0), expect,
                               rtol=1e-14, atol=0)


def test_nan_curvature_fails_the_convexity_check():
    # NaN compares false both ways, so it must fail the check, not pass it
    fam = DeformationFamily((circle(0.0, 0.0, math.nan),
                             circle(4.0, 0.0, 1.0)), 0.5, mode="period2")
    with pytest.raises(ConvexityError):
        curvature(fam, 1, np.array([0.0, 1.0]), 0.0)
    with pytest.raises(ConvexityError):
        curvature(fam, 1, 0.0, 0.0)


@settings(max_examples=20, deadline=None)
@given(a0=st.floats(5.0, 200.0), grow=st.floats(-0.5, 1.0),
       tilt=st.floats(-math.pi, math.pi), turn=st.floats(-2.0, 2.0),
       alpha=st.floats(0.0, 0.5))
def test_curvature_range_is_the_vertex_closed_form(a0, grow, tilt, turn,
                                                   alpha):
    # a rotating ellipse with A = a0 (1 + grow alpha) and B = r A^2, so
    # its least curvature B/A^2 = r sits just off the floor at every alpha
    def family(r):
        thin = ellipse(3.0, -1.0, (a0, a0 * grow),
                       (r * a0 ** 2, 2.0 * r * a0 ** 2 * grow,
                        r * a0 ** 2 * grow ** 2), (tilt, turn))
        return DeformationFamily((thin, circle(1000.0, 0.0, 1.0)), 0.5,
                                 mode="period2")

    below = family(0.999999 * geometry.KAPPA_FLOOR)
    with pytest.raises(ConvexityError, match="below floor"):
        validate_family(below)
    with pytest.raises(ConvexityError, match="below floor"):
        table_bounds(below, alpha)
    above = family(1.000001 * geometry.KAPPA_FLOOR)
    validate_family(above)
    tb = table_bounds(above, alpha)
    a, b = table_at(above, alpha).axes[1]
    assert tb.kappa_min == pytest.approx(b / a ** 2, rel=1e-14, abs=0)
    assert tb.kappa_max == pytest.approx(a / b ** 2, rel=1e-14, abs=0)


@settings(max_examples=40)
@given(u=st.floats(0.0, 2.0 * math.pi, allow_nan=False),
       alpha=st.floats(0.02, 0.38))
def test_curvature_partials_match_finite_differences(u, alpha):
    fam = deformed_ellipse_family()
    kap, kap_u, kap_a = curvature_partials(fam, 3, u, alpha)
    h = 1e-6
    fd_u = (curvature(fam, 3, u + h, alpha)
            - curvature(fam, 3, u - h, alpha)) / (2.0 * h)
    fd_a = (curvature(fam, 3, u, alpha + h)
            - curvature(fam, 3, u, alpha - h)) / (2.0 * h)
    assert kap == pytest.approx(curvature(fam, 3, u, alpha), abs=1e-14)
    assert kap_u == pytest.approx(fd_u, abs=5e-6)
    assert kap_a == pytest.approx(fd_a, abs=5e-6)


def test_growing_circle_curvature_derivative_exact():
    # r(a) = 1 + a so kappa = 1/(1+a) and d kappa/d alpha = -1 at 0
    fam = growing_two_circle()
    kap, kap_u, kap_a = curvature_partials(fam, 1, 1.2, 0.0)
    assert kap == pytest.approx(1.0, abs=1e-14)
    assert kap_u == pytest.approx(0.0, abs=1e-14)
    assert kap_a == pytest.approx(-1.0, abs=1e-12)


def test_outward_normal_circle_exact():
    fam = static_two_circle()
    for u in (0.0, 1.1, 4.0):
        np.testing.assert_allclose(_tangent_frame(fam, 1, u, 0.0)[2],
                                   [math.cos(u), math.sin(u)], atol=1e-15)


@settings(max_examples=30)
@given(u=st.floats(0.0, 2.0 * math.pi, allow_nan=False),
       alpha=st.floats(0.0, 0.4))
def test_outward_normal_is_unit_and_outward(u, alpha):
    fam = deformed_ellipse_family()
    n = _tangent_frame(fam, 3, u, alpha)[2]
    assert math.hypot(n[0], n[1]) == pytest.approx(1.0, abs=1e-12)
    # moving along the normal must increase the distance from the center
    p = partial_jet(fam, 3, u, alpha, 0, 0)
    c = np.array([3.5 - 0.2 * alpha, 5.5 + 0.1 * alpha])
    assert np.linalg.norm(p + 1e-3 * n - c) > np.linalg.norm(p - c)


def test_import_leaves_scipy_quadrature_and_optimizers_unloaded():
    code = ("import sys, billiard_lab; print(sorted(m for m in "
            "('scipy.integrate', 'scipy.optimize', 'scipy.special') "
            "if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ------------------------------------------------- distances and bounds

def test_boundary_pair_extremes_two_circles_exact():
    fam = static_two_circle()
    lo, hi = boundary_pair_extremes(fam, 1, 2, 0.0)
    assert lo == pytest.approx(2.0, abs=1e-10)
    assert hi == pytest.approx(6.0, abs=1e-10)


def test_boundary_pair_extremes_vs_dense_sampling():
    fam = deformed_ellipse_family()
    lo, hi = boundary_pair_extremes(fam, 1, 3, 0.25)
    us = np.linspace(0.0, 2.0 * np.pi, 600, endpoint=False)
    p1 = partial_jet(fam, 1, us, 0.25, 0, 0)
    p3 = partial_jet(fam, 3, us, 0.25, 0, 0)
    d = np.sqrt(((p1[:, None, :] - p3[None, :, :]) ** 2).sum(-1))
    assert lo <= d.min() + 1e-9 and lo == pytest.approx(d.min(), abs=1e-4)
    assert hi >= d.max() - 1e-9 and hi == pytest.approx(d.max(), abs=1e-4)


def _pair_at(direction, reach, first, second):
    """``second`` translated by ``reach`` along ``direction`` from ``first``
    at the origin, as a period2 family."""
    dx, dy = reach * math.cos(direction), reach * math.sin(direction)
    return DeformationFamily((first(0.0, 0.0), second(dx, dy)), 0.1,
                             mode="period2")


# the length gradient at a grid seed grows with the table's size, so the
# properties also run on tables scaled up to 1e3
SCALES = st.sampled_from([1.0, 1e2, 1e3])


@settings(max_examples=40)
@given(r1=st.floats(0.2, 3.0), r2=st.floats(0.2, 3.0),
       gap=st.floats(0.01, 10.0), direction=st.floats(0.0, 2.0 * math.pi),
       scale=SCALES)
def test_pair_extremes_of_circles_match_closed_form(r1, r2, gap, direction,
                                                    scale):
    r1, r2, gap = r1 * scale, r2 * scale, gap * scale
    fam = _pair_at(direction, r1 + r2 + gap,
                   lambda x, y: circle(x, y, r1), lambda x, y: circle(x, y, r2))
    lo, hi = boundary_pair_extremes(fam, 1, 2, 0.0)
    c1, c2 = (table_at(fam, 0.0).center_xy[i] for i in (1, 2))
    dist = math.hypot(*(c2 - c1))
    assert lo == pytest.approx(dist - (r1 + r2), rel=1e-12, abs=0)
    assert hi == pytest.approx(dist + (r1 + r2), rel=1e-12, abs=0)


@settings(max_examples=40)
@given(axes=st.lists(st.floats(0.2, 2.0), min_size=4, max_size=4),
       tilts=st.lists(st.floats(0.0, math.pi), min_size=2, max_size=2),
       gap=st.floats(0.01, 6.0), direction=st.floats(0.0, 2.0 * math.pi),
       scale=SCALES)
def test_pair_extremes_of_ellipses_bound_dense_sampling(axes, tilts, gap,
                                                        direction, scale):
    # the polished min and max must beat every sampled distance: a polish
    # that stops on a saddle of the distance would not
    a1, b1, a2, b2 = (a * scale for a in axes)
    gap *= scale
    fam = _pair_at(direction, max(a1, b1) + max(a2, b2) + gap,
                   lambda x, y: ellipse(x, y, a1, b1, tilts[0]),
                   lambda x, y: ellipse(x, y, a2, b2, tilts[1]))
    lo, hi = boundary_pair_extremes(fam, 1, 2, 0.0)
    us = np.linspace(0.0, 2.0 * np.pi, 1024, endpoint=False)
    p1 = partial_jet(fam, 1, us, 0.0, 0, 0)
    p2 = partial_jet(fam, 2, us, 0.0, 0, 0)
    d = np.sqrt(((p1[:, None, :] - p2[None, :, :]) ** 2).sum(-1))
    assert lo <= d.min() * (1.0 + 1e-12)
    assert hi >= d.max() * (1.0 - 1e-12)


def test_no_eclipse_certificate_on_open_table():
    cert = check_no_eclipse(static_three_circle(), 0.0)
    assert cert.holds
    assert cert.margin > 0.0


def test_eclipse_detected_for_collinear_triple():
    fam = DeformationFamily(
        (circle(0.0, 0.0, 1.0), circle(4.0, 0.0, 1.0), circle(8.0, 0.0, 1.0)),
        0.1, mode="general")
    cert = check_no_eclipse(fam, 0.0)
    assert not cert.holds
    assert cert.witness is not None
    with pytest.raises(EclipseError):
        table_bounds(fam, 0.0)


def _bitangent_clearance(c1, r1, c3, r3, cj, rj):
    """Signed distance from circle j to the outer common tangent of
    circles 1 and 3 on its side: negative when j cuts into their hull."""
    dist = math.hypot(*(c3 - c1))
    e = (c3 - c1) / dist
    side = math.copysign(1.0, e[0] * (cj - c1)[1] - e[1] * (cj - c1)[0])
    cos = (r1 - r3) / dist
    n = cos * e + math.sqrt(1.0 - cos * cos) * side * np.array([-e[1], e[0]])
    return float(n @ cj) - rj - (float(n @ c1) + r1)


@settings(max_examples=60)
@given(r1=st.floats(0.8, 1.5), r3=st.floats(0.8, 1.5), dist=st.floats(6.0, 8.0),
       rj=st.floats(0.5, 1.0), frac=st.floats(0.45, 0.55),
       gap=st.floats(1e-5, 1e-3), inside=st.booleans(),
       turn=st.floats(0.0, 2.0 * math.pi))
@example(r1=1.0, r3=1.3, dist=6.0, rj=1.0, frac=0.5, gap=1e-4, inside=True,
         turn=0.0245)
def test_no_eclipse_near_threshold_matches_closed_form(r1, r3, dist, rj, frac,
                                                      gap, inside, turn):
    # a middle circle at signed distance +-gap from the outer pair's
    # common tangent, the whole table rotated by ``turn``
    s = -gap if inside else gap
    cos = (r1 - r3) / dist
    n = np.array([cos, -math.sqrt(1.0 - cos * cos)])      # tangent normal
    along = np.array([-n[1], n[0]])
    cj = frac * dist * along + (r1 + s + rj) * n
    rot = np.array([[math.cos(turn), -math.sin(turn)],
                    [math.sin(turn), math.cos(turn)]])
    c1, c3, cj = rot @ np.zeros(2), rot @ np.array([dist, 0.0]), rot @ cj
    fam = DeformationFamily((circle(*c1, r1), circle(*cj, rj),
                             circle(*c3, r3)), 0.1)
    clearance = _bitangent_clearance(c1, r1, c3, r3, cj, rj)
    cert = check_no_eclipse(fam, 0.0)
    assert cert.holds == (clearance > 0.0)
    assert cert.margin == pytest.approx(clearance, rel=0, abs=1e-8)


# the obstacles of one drawn table, 6 apart along x, each a circle or an
# ellipse of semi-axes at most 2, so no two of them meet
_SHAPES = st.lists(st.tuples(st.booleans(), st.floats(0.3, 2.0),
                             st.floats(0.3, 2.0), st.floats(0.0, math.pi),
                             st.floats(-3.0, 3.0)), min_size=3, max_size=4)


def _search_rows(r, obstacles):
    """Every no-eclipse triple and every pair's d_min and d_max row among
    ``obstacles`` (symbols) on row r."""
    rows = [(r, j, i, k, 1.0) for j in obstacles for i in obstacles
            for k in obstacles if i < k and j not in (i, k)]
    return rows + [(r, k, i, i, s) for i in obstacles for k in obstacles
                   if i < k for s in (1.0, -1.0)]


@settings(max_examples=25, deadline=None)
@given(tables=st.lists(_SHAPES, min_size=3, max_size=4),
       nan_at=st.integers(0, 4))
def test_batched_direction_search_equals_rows_searched_alone(tables, nan_at):
    # the drawn tables sit side by side in one family, rising along y with
    # alpha, and each is searched on its own obstacles at two alphas: the
    # rows of one two-row snapshot
    tables.insert(nan_at, [(True, 1.0, 1.0, 0.0, 0.0),
                           (True, math.nan, math.nan, 0.0, 0.0),
                           (True, 1.0, 1.0, 0.0, 0.0)])
    obstacles, groups = [], []
    for shapes in tables:
        groups.append(range(len(obstacles) + 1,
                            len(obstacles) + len(shapes) + 1))
        obstacles += [circle(6.0 * m, (y, 1.0), a) if round_ else
                      ellipse(6.0 * m, (y, 1.0), a, b, tilt)
                      for m, (round_, a, b, tilt, y) in enumerate(shapes)]
    family = DeformationFamily(tuple(obstacles), 0.1)
    table, at = geometry._snapshot(family, [0.0, 0.05])
    rows = [row for r in at for group in groups
            for row in _search_rows(r, group)]
    assert len(rows) > SEARCH_CHUNK
    together = _max_over_directions(table, rows)
    for row, (value, theta) in zip(rows, together.tolist()):
        alone = _max_over_directions(table, [row])[0].tolist()
        assert [value.hex(), theta.hex()] == [x.hex() for x in alone]
        r, *symbols = row[:4]
        if np.isnan(table.axes[r * table.stride + np.array(symbols)]).any():
            assert not value > 0.0      # a NaN row fails its check
        else:
            assert np.isfinite(value)


def _start_grid_frames(monkeypatch) -> list:
    """A list that collects how many frames each ``_support`` call
    evaluates on the BOUNDS_SAMPLES directions of the start grid."""
    frames = []
    support = geometry._support

    def counted(frame, w):
        if w.shape[-2] == geometry.BOUNDS_SAMPLES:
            frames.append(len(frame[0]))
        return support(frame, w)

    monkeypatch.setattr(geometry, "_support", counted)
    return frames


def test_start_grid_is_shared_by_equal_frames(monkeypatch, breathe_cfg):
    # obstacles 2 and 3 are static, so the 65 alphas of a certification
    # have 67 distinct frames on each side, and a pair search 68 in all
    family = breathe_cfg.family
    frames = _start_grid_frames(monkeypatch)
    validate_family(family)
    assert sum(frames) <= 134
    frames.clear()
    table_bounds(family, np.linspace(0.0, family.alpha_max, VALIDATION_ALPHAS),
                 phi_max_override=0.3)
    assert sum(frames) <= 134 + 68


@pytest.mark.parametrize("first,alpha", [(0.0, -1e-4), (-0.0, -2e-4)])
def test_table_at_keeps_a_snapshot_per_signed_zero(first, alpha):
    # families that differ only in the sign of zero coefficients compare
    # and hash equal, but at a negative alpha the first ellipse's rotation
    # keeps the sign of its zero; at alphas 0.0 and -0.0 the second
    # ellipse's rotation -0.0 + alpha does.  Called in either order,
    # each gets its own snapshot
    def family(zero):
        return DeformationFamily((
            circle(0.0, zero, 1.0), ellipse(6.0, zero, 1.5, 0.8, zero),
            ellipse(6.0, 6.0, 1.5, 0.8, (zero, 1.0))), 0.1)

    families = [family(zero) for zero in (first, -first)]
    assert families[0] == families[1]
    assert hash(families[0]) == hash(families[1])
    calls = [(fam, alpha) for fam in families] \
        + [(family(-0.0), zero) for zero in (first, -first)]
    for fam, a in calls:
        own = geometry.TableAt(fam, a).rotation.tobytes()
        assert table_at(fam, a).rotation.tobytes() == own
    for pair in (calls[:2], calls[2:]):
        assert len({geometry.TableAt(f, a).rotation.tobytes()
                    for f, a in pair}) == 2


def test_direction_search_keys_frames_by_their_bytes(monkeypatch):
    # at alphas 0.0 and -0.0 the ellipse's rotation -0.0 + alpha keeps the
    # sign of alpha's zero, so the two rows differ only there; the NaN
    # circle has the same bytes in both rows
    family = DeformationFamily((
        circle(0.0, 0.0, 1.0), ellipse(6.0, 0.0, 1.5, 0.8, (-0.0, 1.0)),
        circle(12.0, 0.0, math.nan), circle(6.0, 6.0, 1.0)), 0.1)
    table, at = geometry._snapshot(family, [0.0, -0.0])
    assert at.tolist() == [0, 1]
    signed = table.rotation[[2, table.stride + 2]]
    assert signed[0].tolist() == signed[1].tolist()
    assert signed[0].tobytes() != signed[1].tobytes()
    frames = _start_grid_frames(monkeypatch)
    # the -0.0 and 0.0 frames get a start grid each, the equal NaN frames
    # and the equal frames of obstacle 1 share one
    _max_over_directions(table, [(r, j, 1, 1, 1.0) for j in (2, 3)
                                 for r in (0, 1)])
    assert frames == [3, 1]
    monkeypatch.undo()
    rows = [row for r in (0, 1) for row in _search_rows(r, range(1, 5))]
    together = _max_over_directions(table, rows)
    for row, (value, theta) in zip(rows, together.tolist()):
        alone = _max_over_directions(table, [row])[0].tolist()
        assert [value.hex(), theta.hex()] == [x.hex() for x in alone]


def test_several_alphas_and_pairs_equal_one_at_a_time():
    fam = deformed_ellipse_family()
    alphas = np.linspace(0.0, fam.alpha_max, 11)
    assert check_no_eclipse(fam, alphas) \
        == [check_no_eclipse(fam, a) for a in alphas]
    assert boundary_pair_extremes(fam, (1, 1, 2), (2, 3, 3), 0.25) \
        == [boundary_pair_extremes(fam, i, k, 0.25)
            for i, k in ((1, 2), (1, 3), (2, 3))]


def test_pair_extremes_over_alphas_equal_one_alpha_at_a_time():
    fam = deformed_ellipse_family()
    alphas = np.linspace(0.0, fam.alpha_max, 5)
    pairs = (1, 1, 2), (2, 3, 3)
    assert boundary_pair_extremes(fam, *pairs, alphas) \
        == [boundary_pair_extremes(fam, *pairs, a) for a in alphas]
    with pytest.raises(ValueError, match="sequences of pairs"):
        boundary_pair_extremes(fam, 1, 2, alphas)


@pytest.mark.parametrize("family, call, searches", [
    (deformed_ellipse_family(), "validate", 1),
    (deformed_ellipse_family(), "bounds", 2),  # the triples, then the pairs
    (translate_two_circle(), "validate", 1),
    (translate_two_circle(), "bounds", 1),     # the pair's d_min is its gap
    (deformed_ellipse_family(), "grid", 2),    # one search per stage ...
    (translate_two_circle(), "grid", 1),       # ... for every alpha
])
def test_certificates_search_once_per_stage(monkeypatch, family, call,
                                            searches):
    rows = []

    def counted(table, batch):
        rows.append(len(batch))
        return _max_over_directions(table, batch)

    monkeypatch.setattr(geometry, "_max_over_directions", counted)
    if call == "validate":
        validate_family(family)
    else:
        table_bounds(family, 0.1 if call == "bounds" else [0.0, 0.1, 0.3],
                     phi_max_override=0.3)
    assert len(rows) == searches


def _sinking_and_flattening(alpha_flat):
    """Obstacle 2 sinks onto the hull of 1 and 3 and eclipses from
    alpha = 0.11 on; the ellipse 3 flattens below KAPPA_FLOOR at
    ``alpha_flat``."""
    return DeformationFamily(
        (circle(0.0, 0.0, 1.0), circle(3.0, (4.05, -20.0), 1.0),
         ellipse(6.0, 0.0, 1.0, (1.0, -(1.0 - 1e-7) / alpha_flat))), 0.64)


@pytest.mark.parametrize("alpha_flat, error", [(0.4, EclipseError),
                                               (0.05, ConvexityError)])
def test_validation_raises_for_the_first_failing_alpha(alpha_flat, error):
    # every separation is searched before the alphas are walked, and the
    # first failing alpha still decides the error
    family = _sinking_and_flattening(alpha_flat)
    alphas = np.linspace(0.0, family.alpha_max, VALIDATION_ALPHAS)
    eclipsed = next(a for a in alphas if not check_no_eclipse(family, a).holds)
    assert 0.0 < eclipsed < 0.4
    with pytest.raises(error) as info:
        validate_family(family)
    if error is EclipseError:
        assert info.value.certificate == check_no_eclipse(family, eclipsed)
        assert f"alpha = {eclipsed}:" in str(info.value)
    else:
        assert str(info.value).endswith(f"below floor {geometry.KAPPA_FLOOR} "
                                        f"at alpha = {alphas[5]}")


def _bounds_hex(bounds):
    return [[float(getattr(b, f.name)).hex() for f in
             dataclasses.fields(TableBounds)] for b in bounds]


def _bounds_one_alpha_at_a_time(family, alphas, phi_max_override):
    """``table_bounds`` per alpha; without an override, phi_max is the
    word-by-word walk's (``_phi_one_word_at_a_time``)."""
    phis = [phi_max_override] * len(alphas)
    if phi_max_override is None and family.mode == "general":
        phis = _phi_one_word_at_a_time(family, alphas)
    return [table_bounds(family, a, phi) for a, phi in zip(alphas, phis)]


@pytest.mark.parametrize("cfg_name", ["two_circle_cfg", "breathe_cfg",
                                      "mixed_cfg"])
def test_grid_table_bounds_equal_one_alpha_at_a_time(cfg_name, request):
    cfg = request.getfixturevalue(cfg_name)
    alphas = [float(a) for a in cfg.alpha_grid[::16]]
    grid = table_bounds(cfg.family, alphas, cfg.phi_max)
    assert [b.alpha for b in grid] == alphas
    assert _bounds_hex(grid) == _bounds_hex(
        _bounds_one_alpha_at_a_time(cfg.family, alphas, cfg.phi_max))
    assert _bounds_hex(grid[:1]) == _bounds_hex(
        [table_bounds(cfg.family, alphas[0], cfg.phi_max)])


_OBSTACLE = st.tuples(st.booleans(), st.floats(0.3, 2.0), st.floats(0.3, 2.0),
                      st.floats(-0.5, 0.5), st.floats(0.0, math.pi),
                      st.floats(-2.0, 2.0))


def _random_obstacle(shape, x, y):
    """A circle or an ellipse centred at (x, y) whose axes stay within
    [0.1, 2.2] and whose tilt turns over alpha in [0, 0.4]."""
    round_, a, b, grow, tilt, turn = shape
    if round_:
        return circle(x, y, (a, grow))
    return ellipse(x, y, (a, grow), (b, -grow), (tilt, turn))


@settings(max_examples=15, deadline=None)
@given(shapes=st.lists(_OBSTACLE, min_size=3, max_size=3),
       period2=st.booleans(),
       alphas=st.lists(st.floats(0.0, 0.4), min_size=1, max_size=5))
def test_grid_table_bounds_of_random_tables(shapes, period2, alphas):
    # obstacles at the corners of a triangle of side 7 (or the first two
    # of them): with axes at most 2.2 no obstacle meets another or the
    # hull of two others
    corners = [(0.0, 0.0), (7.0, 0.0), (3.5, 3.5 * math.sqrt(3.0))]
    obstacles = tuple(_random_obstacle(shape, *xy)
                      for shape, xy in zip(shapes, corners))
    family = DeformationFamily(obstacles[:2], 0.4, mode="period2") \
        if period2 else DeformationFamily(obstacles, 0.4)
    override = None if period2 else 0.5
    assert _bounds_hex(table_bounds(family, alphas, override)) \
        == _bounds_hex([table_bounds(family, a, override) for a in alphas])


def test_table_bounds_two_circle_exact():
    tb = table_bounds(static_two_circle(), 0.0)
    assert tb.d_min == pytest.approx(2.0, abs=1e-10)
    assert tb.d_max == pytest.approx(2.0, abs=1e-10)   # head-on pair table
    assert tb.kappa_min == pytest.approx(1.0, abs=1e-12)
    assert tb.kappa_max == pytest.approx(1.0, abs=1e-12)
    assert tb.phi_max == 0.0
    assert tb.k_min == pytest.approx(2.0, abs=1e-12)
    assert tb.k_max == pytest.approx(0.5 + 2.0, abs=1e-10)
    lo, hi = tb.lower, tb.upper
    assert lo == pytest.approx(math.log(5.0), abs=1e-9)
    assert hi == pytest.approx(math.log(6.0), abs=1e-9)


def test_table_bounds_three_circle_frozen():
    tb = table_bounds(static_three_circle(), 0.0)
    assert tb.d_min == pytest.approx(4.0, abs=1e-9)
    assert tb.d_max == pytest.approx(8.0, abs=1e-9)
    # collision-angle bound observed over the word corpus, then widened
    # by the 0.99 cosine safety factor; frozen from a pinned run
    assert tb.phi_max == pytest.approx(0.6457994552144815, abs=1e-9)
    assert tb.k_max == pytest.approx(2.7543234627621174, abs=1e-8)


def test_phi_override_wins():
    tb = table_bounds(static_three_circle(), 0.0, phi_max_override=0.3)
    assert tb.phi_max == 0.3
    assert tb.k_max == pytest.approx(0.25 + 2.0 / math.cos(0.3), abs=1e-12)


def _phi_one_word_at_a_time(family, alphas):
    """phi_max at each of ``alphas``, the corpus solved word by word
    through the finders as the grid walk seeds it: cold at the first
    alpha; then each group along the rest in the chunks ``chunk_starts``
    gives for its nodes per alpha, each word started from its chain at
    the last alpha before the chunk (cold without one) and solved again
    cold when that fails."""
    best = [0.0] * len(alphas)
    for words in _phi_corpus(family.z0):
        pads = 0 if words[0].cyclic else 2 * PHI_PADDING
        starts = chunk_starts(len(alphas),
                              len(words) * (len(words[0]) + pads))
        for word in words:
            found = []          # the word's chain at each alpha, or None
            for k, alpha in enumerate(alphas):
                seed = found[starts[k] - 1] if k else None
                orbit = None
                for init in [seed, None] if seed is not None else [None]:
                    try:
                        if word.cyclic:
                            orbit = find_periodic_orbit(word, family, alpha,
                                                        init=init)
                        else:
                            orbit = find_orbit_segment(
                                word, family, alpha, padding=PHI_PADDING,
                                init=init, shadow_check=False)
                        break
                    except SolveError:
                        continue
                found.append(None if orbit is None
                             else np.asarray(orbit.chain_us))
                if orbit is not None:
                    best[k] = max(best[k], float(orbit.records.phi.max()))
    return [phi_max_from_observation(b) for b in best]


def test_sweeper_phi_max_equals_table_bounds(breathe_cfg, mixed_cfg):
    # the grid walk gives exactly the word-by-word estimate seeded as the
    # walk seeds it.  Against one-alpha calls, every field but phi_max
    # (and the k_max and upper that read it) is bit for bit equal;
    # phi_max is equal at the first alpha, which both observe cold, and
    # warm starts move it by a few ulps elsewhere (largest seen over the
    # breathe grid: 6.9e-16 relative), here pinned at every breathe grid
    # alpha
    grid = tuple(float(a) for a in breathe_cfg.alpha_grid)
    for cfg, alphas, word_by_word in ((breathe_cfg, (0.0, 0.1, 0.2), True),
                                      (mixed_cfg, (0.0, 0.1, 0.2), True),
                                      (breathe_cfg, grid, False)):
        walk = table_bounds(cfg.family, alphas)
        if word_by_word:
            assert [b.phi_max for b in walk] \
                == _phi_one_word_at_a_time(cfg.family, alphas)
        for k, (alpha, warm) in enumerate(zip(alphas, walk)):
            cold = table_bounds(cfg.family, alpha)
            for f in dataclasses.fields(TableBounds):
                if k == 0 or f.name not in ("phi_max", "k_max", "upper"):
                    assert float(getattr(warm, f.name)).hex() \
                        == float(getattr(cold, f.name)).hex()
            assert warm.phi_max == pytest.approx(cold.phi_max, rel=4e-15,
                                                 abs=0)


def test_walk_retries_a_failed_row_from_the_crude_seed(monkeypatch,
                                                      breathe_cfg):
    # a nan chain at the first alpha fails every row it seeds; each is
    # solved again from the crude seed at its own alpha and still counts
    family = breathe_cfg.family
    word = Word((1, 2, 3))
    solve = symbolic.find_periodic_orbit
    cold = solve(word, family, 0.0)
    monkeypatch.setattr(geometry, "_phi_corpus", lambda z0: ((word,),))
    monkeypatch.setattr(symbolic, "find_periodic_orbit", lambda *args: (
        dataclasses.replace(solve(*args), chain_us=(math.nan,) * 3)))
    alphas = [0.0, 0.1, 0.25]
    want = [float(cold.records.phi.max())]
    for alpha in alphas[1:]:
        nan_start = symbolic.max_collision_angles(
            [word], family, [alpha], [np.full(3, math.nan)], PHI_PADDING)
        assert nan_start[0][0] is None
        (chain, phi), = symbolic.max_collision_angles(
            [word], family, [alpha], [None], PHI_PADDING)
        assert chain is not None
        want.append(phi)
    got = geometry._default_phi_observation(family, alphas)
    assert [x.hex() for x in got] == [x.hex() for x in want]


def test_phi_observation_names_the_first_alpha_without_an_orbit(
        monkeypatch, breathe_cfg):
    # every warm row fails, and so does its crude retry; the first alpha,
    # observed cold, keeps its orbit, so the error names the second
    monkeypatch.setattr(geometry, "_phi_corpus",
                        lambda z0: ((Word((1, 2, 3)),),))
    monkeypatch.setattr(symbolic, "max_collision_angles",
                        lambda words, *args: [(None, math.nan)] * len(words))
    alphas = [0.0, 0.1, 0.25]
    with pytest.raises(GeometryError) as info:
        geometry._default_phi_observation(breathe_cfg.family, alphas)
    assert str(info.value) == ("collision angle estimate failed: no orbit "
                               f"converged at alpha = {alphas[1]}")


def test_phi_max_from_observation():
    assert phi_max_from_observation(0.0) == pytest.approx(math.acos(0.99))
    got = phi_max_from_observation(0.5)
    assert got == pytest.approx(math.acos(0.99 * math.cos(0.5)), abs=1e-14)
    with pytest.raises(GeometryError):
        phi_max_from_observation(math.pi / 2 - 1e-9)


# ------------------------------------------------------------ families

def test_family_constructor_validation():
    with pytest.raises(GeometryError):
        DeformationFamily((circle(0.0, 0.0, 1.0),), 0.1, mode="period2")
    with pytest.raises(GeometryError):
        DeformationFamily((circle(0.0, 0.0, 1.0), circle(4.0, 0.0, 1.0)),
                          0.1, mode="general")
    with pytest.raises(GeometryError):
        DeformationFamily((circle(0.0, 0.0, 1.0), circle(4.0, 0.0, 1.0)),
                          -0.5, mode="period2")
    with pytest.raises(GeometryError):
        DeformationFamily((circle(0.0, 0.0, 1.0), circle(4.0, 0.0, 1.0)),
                          0.1, mode="banana")


def test_validate_family_catches_degree_beyond_smoothness():
    deep = ObstacleSpec(kind="circle", center_x=(0.0,), center_y=(0.0,),
                        radius=(1.0, 0.0, 0.0, 0.0, 0.01), rotation=(0.0,))
    fam = DeformationFamily((deep, circle(4.0, 0.0, 1.0)), 0.1,
                            mode="period2", smoothness=(5, 3))
    with pytest.raises(SmoothnessError):
        validate_family(fam)


def test_validate_family_catches_vanishing_axis():
    shrink = ObstacleSpec(kind="circle", center_x=(0.0,), center_y=(0.0,),
                          radius=(1.0, -3.0), rotation=(0.0,))
    fam = DeformationFamily((shrink, circle(4.0, 0.0, 1.0)), 0.5,
                            mode="period2")
    with pytest.raises(GeometryError):
        validate_family(fam)


def _pair(first, second):
    return DeformationFamily((first, second), 0.5, mode="period2")


@pytest.mark.parametrize("family, alpha, error, needle", [
    # radius 1 - 3 alpha is negative at 0.4; a circle of negative radius
    # still has positive curvature, so only the axis check refuses it
    (_pair(circle(0.0, 0.0, (1.0, -3.0)), circle(4.0, 0.0, 1.0)), 0.4,
     GeometryError, "nonpositive axis"),
    # curvature 1/2e6 = 5e-7 is positive but below KAPPA_FLOOR = 1e-6
    (_pair(circle(0.0, 0.0, 1.0), circle(2e6 + 4.0, 0.0, 2e6)), 0.0,
     ConvexityError, "below floor"),
    # NaN compares false both ways, so it must fail the checks, not pass them
    (_pair(circle(0.0, 0.0, math.nan), circle(4.0, 0.0, 1.0)), 0.0,
     GeometryError, "nonpositive axis"),
    (DeformationFamily((circle(0.0, 0.0, 1.0), circle(6.0, 0.0, 1.0),
                        circle(3.0, math.nan, 1.0)), 0.5), 0.0,
     GeometryError, "non-finite centre"),
    # period2 curvature reads no centre and skips the eclipse check
    (_pair(circle(0.0, 0.0, 1.0), circle(math.nan, 0.0, 1.0)), 0.0,
     GeometryError, "non-finite centre"),
    # the no-eclipse check implies disjointness; period2 checks it alone
    (_pair(circle(0.0, 0.0, 1.0), circle(1.5, 0.0, 1.0)), 0.0,
     GeometryError, "obstacles 1 and 2 overlap"),
], ids=["vanishing-axis", "below-floor", "nan-radius", "nan-centre",
        "nan-centre-period2", "overlap-period2"])
def test_table_bounds_refuses_what_validate_family_refuses(family, alpha,
                                                          error, needle):
    with pytest.raises(error, match=needle):
        validate_family(family)
    with pytest.raises(error, match=needle):
        table_bounds(family, alpha)


def _refusal(family, alpha):
    with pytest.raises(GeometryError) as info:
        table_bounds(family, alpha)
    return info.value


@pytest.mark.parametrize("family, error, needle", [
    # obstacle 2 eclipses from alpha = 0.11 on
    (_sinking_and_flattening(0.4), EclipseError, "no-eclipse condition"),
    # the second circle, centred at 4 - 10 alpha, meets the first from
    # alpha = 0.2 on
    (_pair(circle(0.0, 0.0, 1.0), circle((4.0, -10.0), 0.0, 1.0)),
     GeometryError, "obstacles 1 and 2 overlap"),
], ids=["eclipse", "overlap-period2"])
def test_grid_table_bounds_raise_for_the_first_failing_alpha(family, error,
                                                             needle):
    alphas = [0.0, 0.05, 0.25, 0.3, 0.1]
    with pytest.raises(error, match=needle) as info:
        table_bounds(family, alphas, phi_max_override=0.3)
    first = _refusal(family, 0.25)
    assert type(info.value) is type(first) and str(info.value) == str(first)
    table_bounds(family, [0.0, 0.05, 0.1], phi_max_override=0.3)


def test_period2_grid_bounds_raise_as_validation_does():
    # the obstacles touch at alpha = 0.2 and the ellipse flattens below
    # KAPPA_FLOOR at 0.4: the overlap at 0.3, the first failing alpha,
    # decides, and certification checks the pair's separation per alpha
    family = DeformationFamily(
        (circle(0.0, 0.0, 1.0),
         ellipse((4.0, -10.0), 0.0, 1.0, (1.0, -(1.0 - 1e-7) / 0.4))), 0.4,
        mode="period2")
    with pytest.raises(GeometryError, match="obstacles 1 and 2 overlap") \
            as validation:
        validate_family(family)
    with pytest.raises(GeometryError) as grid:
        table_bounds(family, [0.0, 0.3, 0.4])
    alone = _refusal(family, 0.3)
    assert type(validation.value) is type(grid.value) is type(alone)
    assert str(grid.value) == str(alone)


@pytest.mark.parametrize("cfg_name", ["two_circle_cfg", "breathe_cfg",
                                      "mixed_cfg"])
def test_empty_grid_has_no_bounds(cfg_name, request):
    family = request.getfixturevalue(cfg_name).family
    assert table_bounds(family, []) == []
    assert table_bounds(family, [], phi_max_override=0.3) == []


def test_validate_family_passes_on_sane_table():
    validate_family(static_three_circle())
    validate_family(deformed_ellipse_family())
