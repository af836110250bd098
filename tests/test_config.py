"""Config parsing: flat key = JSON-fragment files, word expansion, and
validation failures that must fail loudly."""

import math
import re

import numpy as np
import pytest

from billiard_lab import Word
from billiard_lab.cli import main
from billiard_lab.config import ConfigError, load_config

from conftest import CONFIGS

MINIMAL = """
mode = "period2"
alpha_max = 0.5
alpha_grid = [0.0, 0.5, 9]
words = ["1,2"]
obstacle1.kind = "circle"
obstacle1.center_x = 0.0
obstacle1.center_y = 0.0
obstacle1.radius = 1.0
obstacle2.kind = "circle"
obstacle2.center_x = [4.0, 1.0]
obstacle2.center_y = 0.0
obstacle2.radius = 1.0
"""


def write(tmp_path, text, name="t.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_minimal_config_parses(tmp_path):
    cfg = load_config(write(tmp_path, MINIMAL))
    assert cfg.family.z0 == 2
    assert cfg.family.mode == "period2"
    assert cfg.family.alpha_max == 0.5
    assert cfg.family.spec(2).center_x == (4.0, 1.0)
    assert cfg.words == (("1-2", Word((1, 2))),)
    np.testing.assert_allclose(cfg.alpha_grid, np.linspace(0.0, 0.5, 9))
    assert cfg.padding == 12 and cfg.burn_in == 10 and cfg.seed == 0
    assert cfg.phi_max is None
    assert cfg.output_dir == "results"


def test_comments_and_quoted_hash(tmp_path):
    text = (MINIMAL.replace("alpha_max = 0.5", "alpha_max = 0.5# no space")
            .replace('words = ["1,2"]', 'words = ["1,2"]  # "quoted"')
            + '\noutput_dir = "out#dir"  # trailing comment\n# full line\n'
            + "phi_max = 0.25 # = 0.3\n   # indented = comment\n")
    cfg = load_config(write(tmp_path, text))
    assert cfg.output_dir == "out#dir"
    assert cfg.family.alpha_max == 0.5
    assert cfg.words == (("1-2", Word((1, 2))),)
    assert cfg.phi_max == 0.25


def test_shipped_configs_load():
    cfg2 = load_config(CONFIGS / "two_circles_translate.cfg")
    assert [ident for ident, _ in cfg2.words] == ["1-2"]
    assert cfg2.family.mode == "period2"

    cfg3 = load_config(CONFIGS / "three_circles_breathe.cfg")
    idents = [ident for ident, _ in cfg3.words]
    assert idents == ["1-2", "1-2-3"] + \
        [f"sample:40:{s}" for s in range(7, 15)]
    assert len(cfg3.alpha_grid) == 65
    assert cfg3.family.spec(1).radius == (1.0, 0.25)

    cfgm = load_config(CONFIGS / "mixed_ellipse.cfg")
    assert cfgm.family.spec(3).kind == "ellipse"
    assert cfgm.family.spec(3).rotation == (0.3, 0.5)
    assert len(cfgm.words) == 5


def test_sample_expansion_is_deterministic(tmp_path):
    text = MINIMAL.replace('["1,2"]', '["1,2", "sample:3:12:5"]')
    cfg = load_config(write(tmp_path, text))
    idents = [ident for ident, _ in cfg.words]
    assert idents == ["1-2", "sample:12:5", "sample:12:6", "sample:12:7"]
    again = load_config(write(tmp_path, text, "u.cfg"))
    assert cfg.words == again.words


def test_sample_seed_defaults_to_config_seed(tmp_path):
    text = MINIMAL.replace('["1,2"]', '["sample:2:8"]') + "\nseed = 33\n"
    cfg = load_config(write(tmp_path, text))
    assert [ident for ident, _ in cfg.words] == ["sample:8:33", "sample:8:34"]


def test_sample_words_share_the_one_length_rule(tmp_path):
    # length >= 1, as for --word sample:1
    text = MINIMAL.replace('["1,2"]', '["sample:2:1"]')
    cfg = load_config(write(tmp_path, text))
    assert [ident for ident, _ in cfg.words] == ["sample:1:0", "sample:1:1"]
    assert all(len(word) == 1 for _, word in cfg.words)
    with pytest.raises(ConfigError, match="needs length >= 1"):
        load_config(write(tmp_path, text.replace("sample:2:1", "sample:2:0"),
                          "u.cfg"))


@pytest.mark.parametrize("mutation,needle", [
    (lambda t: t + "\nbogus_key = 1\n", "unknown key"),
    (lambda t: t + "\nalpha_max = 0.5\n", "duplicate"),
    (lambda t: t.replace('alpha_grid = [0.0, 0.5, 9]',
                         'alpha_grid = [0.0, 0.9, 9]'), "alpha_grid"),
    pytest.param(lambda t: t.replace('alpha_grid = [0.0, 0.5, 9]',
                                     'alpha_grid = [0.1, 0.1, 3]'),
                 "alpha_grid points", id="repeated-grid-points"),
    # linspace repeats points spaced below an ulp
    pytest.param(lambda t: t.replace(
        'alpha_grid = [0.0, 0.5, 9]',
        'alpha_grid = [0.1, 0.10000000000000002, 5]'),
        "alpha_grid points", id="sub-ulp-grid-spacing"),
    (lambda t: t.replace('words = ["1,2"]', 'words = ["1,1"]'), "repeats"),
    (lambda t: t.replace('words = ["1,2"]', 'words = ["1,3"]'), "outside"),
    (lambda t: t.replace('words = ["1,2"]', 'words = []'), "words"),
    (lambda t: t.replace("obstacle2", "obstacle3"), "indices"),
    (lambda t: t.replace('obstacle1.radius = 1.0', ''), "missing"),
    (lambda t: t + "\nobstacle1.semi_axis_a = 1.0\n", "not valid for kind"),
    (lambda t: t + "\ntol_orbit = 0.1\n", "tol_orbit"),
    (lambda t: t + "\nh_fd = 1.0\n", "h_fd"),
    (lambda t: t + "\npadding = 0\n", "padding"),
    (lambda t: t + "\nphi_max = 2.0\n", "phi_max"),
    (lambda t: t.replace('alpha_max = 0.5', 'alpha_max = "big"'), "alpha_max"),
    (lambda t: t.replace('obstacle1.kind = "circle"',
                         'obstacle1.kind = "square"'), "kind"),
])
def test_bad_configs_fail_loudly(tmp_path, mutation, needle):
    with pytest.raises(ConfigError, match=needle):
        load_config(write(tmp_path, mutation(MINIMAL)))


# wrong JSON types, bools included, are configuration errors
@pytest.mark.parametrize("mutation,needle", [
    (lambda t: t + "\ntol_orbit = null\n", "tol_orbit"),
    (lambda t: t + "\nh_fd = [1]\n", "h_fd"),
    (lambda t: t + "\nphi_max = [0.5]\n", "phi_max"),
    (lambda t: t.replace('alpha_grid = [0.0, 0.5, 9]',
                         'alpha_grid = [0.0, "a", 3]'), "alpha_grid"),
    (lambda t: t.replace('alpha_grid = [0.0, 0.5, 9]',
                         'alpha_grid = [0.0, 0.5, true]'), "alpha_grid count"),
    (lambda t: t + "\npadding = true\n", "padding"),
    (lambda t: t + "\nburn_in = true\n", "burn_in"),
    (lambda t: t.replace('words = ["1,2"]', 'words = ["sample:2:8:-3"]'),
     "sample spec"),
])
def test_wrong_value_types_fail_loudly(tmp_path, mutation, needle):
    with pytest.raises(ConfigError, match=needle):
        load_config(write(tmp_path, mutation(MINIMAL)))


def test_non_json_value_rejected(tmp_path):
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(write(tmp_path, MINIMAL + "\nseed = yes\n"))


@pytest.mark.parametrize("line,needle", [
    ("seed", "expected 'key = value'"),
    ("seed # = 1", "expected 'key = value'"),
    ("seed = # 1", "empty key or value"),
    (" = 1", "empty key or value"),
    ("seed = 0.4x", "value for 'seed' is not valid JSON"),
    ('output_dir = "a" "b"', "value for 'output_dir' is not valid JSON"),
    ("alpha_max = 0.5 # again", "duplicate key 'alpha_max'"),
])
def test_malformed_lines_name_their_line(tmp_path, line, needle):
    text = MINIMAL + line + "\n"
    lineno = len(text.splitlines())
    with pytest.raises(ConfigError, match=rf"^line {lineno}: {needle}"):
        load_config(write(tmp_path, text))


@pytest.mark.parametrize("key,value,constant", [
    ("alpha_max", "Infinity", "Infinity"),
    ("obstacle1.radius", "[1.0, NaN]", "NaN"),
    ("phi_max", "-Infinity", "-Infinity"),
])
def test_nan_and_infinity_are_not_json(tmp_path, key, value, constant):
    # Python's json reads these literals; a config refuses them while
    # parsing, naming the line and the key
    lines = [ln for ln in MINIMAL.splitlines() if not ln.startswith(key + " ")]
    lines.insert(3, f"{key} = {value}")
    with pytest.raises(ConfigError, match=re.escape(
            f"line 4: value for {key!r} is not valid JSON: "
            f"{constant} is not a JSON number")):
        load_config(write(tmp_path, "\n".join(lines)))


@pytest.mark.parametrize("key,value", [
    ("alpha_max", "1e400"),
    ("alpha_max", "1" + "0" * 400),
    ("obstacle1.radius", "[1.0, 1e999]"),
], ids=["exponent", "integer", "list-entry"])
def test_numbers_beyond_float_range_name_their_line(tmp_path, key, value):
    # json reads 1e400 as inf and keeps integers too large for a float; a
    # config refuses both while parsing, and the CLI exits 2
    lines = [ln for ln in MINIMAL.splitlines() if not ln.startswith(key + " ")]
    lines.insert(3, f"{key} = {value}")
    path = write(tmp_path, "\n".join(lines))
    with pytest.raises(ConfigError, match=re.escape(
            f"line 4: value for {key!r} holds a number beyond the float "
            f"range")):
        load_config(path)
    assert main(["check", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2


def test_validation_can_be_deferred(tmp_path):
    # a table that degenerates inside the alpha range parses with
    # validate=False but fails validation
    bad = MINIMAL.replace("obstacle2.radius = 1.0",
                          "obstacle2.radius = [1.0, -3.0]")
    load_config(write(tmp_path, bad), validate=False)
    with pytest.raises(Exception):
        load_config(write(tmp_path, bad, "v.cfg"))


def test_phi_override_round_trips(tmp_path):
    cfg = load_config(write(tmp_path, MINIMAL + "\nphi_max = 0.25\n"))
    assert cfg.phi_max == 0.25
