"""Flight-and-reflect dynamics: closed-form hits, reflection law, and the
boundary map with its escape and grazing handling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from billiard_lab import (DeformationFamily, GeometryError, GrazingError,
                          boundary_map, circle, ellipse, first_intersection,
                          partial_jet, reflect)

from billiard_lab import dynamics
from billiard_lab.dynamics import GRAZING_TOL, _tangent_frame

from conftest import static_three_circle, static_two_circle


def test_reflect_head_on_and_oblique():
    np.testing.assert_allclose(reflect([1.0, 0.0], [-1.0, 0.0]), [-1.0, 0.0],
                               atol=1e-15)
    v = np.array([1.0, -1.0]) / math.sqrt(2.0)
    out = reflect(v, [0.0, 1.0])
    np.testing.assert_allclose(out, [1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)],
                               atol=1e-15)


def test_reflect_rejects_bad_input():
    with pytest.raises(GeometryError):
        reflect([2.0, 0.0], [1.0, 0.0])          # not unit
    with pytest.raises(GeometryError):
        reflect([1.0, 0.0], [1.0, 0.0])          # outgoing, not incoming


@settings(max_examples=50)
@given(theta=st.floats(0.0, 2.0 * math.pi), psi=st.floats(0.0, 2.0 * math.pi))
def test_reflect_preserves_norm_and_flips_normal_part(theta, psi):
    n = np.array([math.cos(psi), math.sin(psi)])
    v = np.array([math.cos(theta), math.sin(theta)])
    if float(v @ n) > 0.0:
        v = -v
    out = reflect(v, n)
    assert math.hypot(out[0], out[1]) == pytest.approx(1.0, abs=1e-12)
    assert float(out @ n) == pytest.approx(-float(v @ n), abs=1e-12)
    t = np.array([-n[1], n[0]])
    assert float(out @ t) == pytest.approx(float(v @ t), abs=1e-12)


def test_first_intersection_circle_closed_form():
    fam = static_two_circle()
    hit = first_intersection(np.array([-3.0, 0.0]), np.array([1.0, 0.0]),
                             fam, 0.0)
    assert hit is not None and hit.obstacle == 1
    assert hit.t == pytest.approx(2.0, abs=1e-12)
    assert hit.u == pytest.approx(math.pi, abs=1e-12)


def test_first_intersection_picks_nearest_obstacle():
    fam = static_two_circle()
    hit = first_intersection(np.array([10.0, 0.0]), np.array([-1.0, 0.0]),
                             fam, 0.0)
    assert hit.obstacle == 2
    assert hit.t == pytest.approx(5.0, abs=1e-12)


def test_first_intersection_exclude_skips_source_obstacle():
    fam = static_two_circle()
    hit = first_intersection(np.array([1.0, 0.0]), np.array([1.0, 0.0]),
                             fam, 0.0, exclude=1)
    assert hit.obstacle == 2
    assert hit.t == pytest.approx(2.0, abs=1e-12)


def test_first_intersection_escape_returns_none():
    fam = static_two_circle()
    assert first_intersection(np.array([0.0, 5.0]), np.array([0.0, 1.0]),
                              fam, 0.0) is None


def test_first_intersection_ellipse_point_on_boundary():
    fam = DeformationFamily(
        (circle(0.0, 0.0, 1.0), circle(8.0, 0.0, 1.0),
         ellipse(4.0, 5.0, 1.7, 0.8, rotation=0.4)),
        0.2, mode="general")
    q = np.array([4.0, -2.0])
    v = np.array([0.0, 1.0])
    hit = first_intersection(q, v, fam, 0.1)
    assert hit is not None and hit.obstacle == 3
    p = partial_jet(fam, 3, hit.u, 0.1, 0, 0)
    np.testing.assert_allclose(p, q + hit.t * v, atol=1e-12)


@settings(max_examples=50)
@given(ang=st.floats(-0.2, 0.2), off=st.floats(-0.5, 0.5))
def test_hits_land_on_the_boundary(ang, off):
    fam = static_three_circle()
    q = np.array([-4.0, off])
    v = np.array([math.cos(ang), math.sin(ang)])
    hit = first_intersection(q, v, fam, 0.0)
    if hit is None:
        return
    nhat = _tangent_frame(fam, hit.obstacle, hit.u, 0.0)[2]
    if abs(float(v @ nhat)) < GRAZING_TOL:
        return
    p = partial_jet(fam, hit.obstacle, hit.u, 0.0, 0, 0)
    np.testing.assert_allclose(p, q + hit.t * v, atol=1e-10)
    assert hit.t > 0.0


@pytest.mark.parametrize("start", [-4.0, -1e4])
def test_a_hit_carries_the_tangent_at_its_point(start):
    # from 1e4 away rounding keeps the polish from converging, so all 5
    # steps run and the tangent is evaluated afresh at the final u
    fam = static_three_circle()
    hit = first_intersection(np.array([start, 0.3]), np.array([1.0, 0.0]),
                             fam, 0.0)
    np.testing.assert_array_equal(
        hit.tangent, partial_jet(fam, hit.obstacle, hit.u, 0.0, 1, 0))


def test_a_map_step_makes_four_jet_calls(breathe_cfg, monkeypatch):
    # the departure frame, the departure point, one polish step (point
    # and tangent) and nothing more: the hit frame reuses the tangent
    calls = []

    def counted(*args):
        calls.append(args[4])
        return partial_jet(*args)

    monkeypatch.setattr(dynamics, "partial_jet", counted)
    assert boundary_map(breathe_cfg.family, 1, 0.9, 0.1, 0.0) is not None
    assert calls == [1, 0, 0, 1]


def test_a_long_flight_polishes_no_longer_than_a_short_one(monkeypatch):
    # the polish stops relative to the flight's size, so a hit 1e4 away
    # is accepted as early as one a few units away
    fam = static_three_circle()
    counts = []
    for x0 in (-4.0, -1e4):
        calls = []

        def counted(*args):
            calls.append(args[4])
            return partial_jet(*args)

        monkeypatch.setattr(dynamics, "partial_jet", counted)
        hit = first_intersection(np.array([x0, 0.3]), np.array([1.0, 0.0]),
                                 fam, 0.0)
        assert hit.obstacle == 1
        counts.append(len(calls))
    assert counts[1] <= counts[0]


def test_boundary_map_period_two():
    # normal incidence between two unit circles 4 apart: the ray lands at
    # u = pi on obstacle 2 and comes straight back to u = 0 on obstacle 1
    fam = static_two_circle()
    i, u, vt = boundary_map(fam, 1, 0.0, 0.0, 0.0)
    assert i == 2
    assert u == pytest.approx(math.pi, abs=1e-12)
    assert vt == pytest.approx(0.0, abs=1e-12)
    i, u, vt = boundary_map(fam, i, u, vt, 0.0)
    assert i == 1
    assert math.remainder(u, 2.0 * math.pi) == pytest.approx(0.0, abs=1e-12)
    assert vt == pytest.approx(0.0, abs=1e-12)


def test_boundary_map_escape_returns_none():
    # straight out from the far side of obstacle 1
    assert boundary_map(static_two_circle(), 1, math.pi, 0.0, 0.0) is None


def test_boundary_map_refuses_tangential_motion():
    # the ray leaving (1, 0) along +x touches the circle about (5, 1) at
    # (5, 0); every coordinate is exact, so the hit is tangential
    fam = DeformationFamily((circle(0.0, 0.0, 1.0), circle(5.0, 1.0, 1.0)),
                            0.5, mode="period2")
    with pytest.raises(GrazingError, match="tangential hit on obstacle 2"):
        boundary_map(fam, 1, 0.0, 0.0, 0.0)
    with pytest.raises(GrazingError, match="tangential departure"):
        boundary_map(fam, 1, 0.0, 1.0, 0.0)
