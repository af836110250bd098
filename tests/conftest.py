import math
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from billiard_lab import DeformationFamily, ObstacleSpec, circle, symbolic
from billiard_lab.config import load_config

settings.register_profile(
    "repro", deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("repro")

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


def chunk_starts(n_alphas, nodes):
    """The first grid index of the grid walk's chunk holding each of
    ``n_alphas`` grid indices, for words of ``nodes`` chain nodes per
    alpha: index 0 alone, then chunks of max(1, WALK_NODES // nodes)
    alphas.  The reference walks of the sweep and of the phi corpus seed
    by it, apart from ``symbolic.walk``."""
    size = max(1, symbolic.WALK_NODES // nodes)
    return [0] + [1 + (gi - 1) // size * size for gi in range(1, n_alphas)]


def static_two_circle():
    return DeformationFamily(
        (circle(0.0, 0.0, 1.0), circle(4.0, 0.0, 1.0)), 0.5, mode="period2")


def translate_two_circle():
    moving = ObstacleSpec(kind="circle", center_x=(4.0, 1.0), center_y=(0.0,),
                          radius=(1.0,), rotation=(0.0,))
    return DeformationFamily((circle(0.0, 0.0, 1.0), moving), 0.5,
                             mode="period2")


def growing_two_circle():
    # both radii grow with alpha: r(a) = 1 + a
    grower = dict(center_y=(0.0,), radius=(1.0, 1.0), rotation=(0.0,))
    return DeformationFamily(
        (ObstacleSpec(kind="circle", center_x=(0.0,), **grower),
         ObstacleSpec(kind="circle", center_x=(4.0,), **grower)),
        0.3, mode="period2")


def static_three_circle(side=6.0):
    return DeformationFamily(
        (circle(0.0, 0.0, 1.0), circle(side, 0.0, 1.0),
         circle(side / 2.0, side * math.sqrt(3.0) / 2.0, 1.0)),
        0.4, mode="general")


@pytest.fixture(scope="session")
def two_circle_cfg():
    return load_config(CONFIGS / "two_circles_translate.cfg")


@pytest.fixture(scope="session")
def breathe_cfg():
    return load_config(CONFIGS / "three_circles_breathe.cfg")


@pytest.fixture(scope="session")
def mixed_cfg():
    return load_config(CONFIGS / "mixed_ellipse.cfg")
