"""CLI behavior: exit codes, printed output, and file emission. Every
invocation goes through main(argv) in-process."""

import math

import numpy as np
import pytest

from billiard_lab import cli, dynamics, symbolic
from billiard_lab.cli import main
from billiard_lab.config import load_config

from conftest import CONFIGS

TWO = str(CONFIGS / "two_circles_translate.cfg")
BREATHE = str(CONFIGS / "three_circles_breathe.cfg")
SHIPPED = ("two_circles_translate", "three_circles_breathe", "mixed_ellipse")

ECLIPSE_CFG = """
mode = "general"
alpha_max = 0.1
alpha_grid = [0.0, 0.1, 2]
words = ["1,2,3"]
obstacle1.kind = "circle"
obstacle1.center_x = 0.0
obstacle1.center_y = 0.0
obstacle1.radius = 1.0
obstacle2.kind = "circle"
obstacle2.center_x = 6.0
obstacle2.center_y = 0.0
obstacle2.radius = 1.0
obstacle3.kind = "circle"
obstacle3.center_x = 12.0
obstacle3.center_y = 0.0
obstacle3.radius = 1.0
"""


def test_lyapunov_happy_path(capsys):
    rc = main(["lyapunov", "--config", TWO, "--word", "1-2"])
    out = capsys.readouterr().out
    assert rc == 0
    line = next(l for l in out.splitlines() if l.startswith("lambda = "))
    lam = float(line.split()[2])
    assert lam == pytest.approx(math.log(3 + 2 * math.sqrt(2.0)), abs=1e-10)
    assert "within a priori bracket: yes" in out


def test_lyapunov_literal_and_adhoc_words(capsys):
    rc = main(["lyapunov", "--config", TWO, "--word", "1,2", "--alpha", "0.1"])
    assert rc == 0
    assert "word 1-2 (periodic)" in capsys.readouterr().out
    rc = main(["lyapunov", "--config", TWO, "--word", "sample:6:3"])
    assert rc == 0
    assert "(segment)" in capsys.readouterr().out


def test_oracle_subcommand(capsys):
    rc = main(["lyapunov", "--config", TWO, "--word", "1-2", "--oracle"])
    out = capsys.readouterr().out
    assert rc == 0
    line = next(l for l in out.splitlines() if "independent Jacobian" in l)
    diff = float(line.rsplit("difference ", 1)[1].rstrip(")"))
    assert diff < 1e-8


def test_oracle_runs_on_the_printed_window(capsys):
    # a 40-reflection segment: the oracle averages the flights the
    # printed lambda averages, after the same burn-in
    rc = main(["lyapunov", "--config", BREATHE, "--word", "sample:40:7",
               "--alpha", "0.2", "--oracle"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.splitlines()
    lam = float(next(l for l in lines if l.startswith("lambda = ")).split()[2])
    line = next(l for l in lines if "independent Jacobian" in l)
    assert float(line.split()[3]) == pytest.approx(lam, abs=1e-8)


def test_orbit_table(capsys):
    rc = main(["orbit", "--config", TWO, "--word", "open:1,2,1",
               "--alpha", "0.2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "word open:1-2-1 (segment)" in out
    assert "truncation bound " in out and " at padding 12" in out
    data = [l.split() for l in out.splitlines()
            if l.strip() and l.split()[0].isdigit()]
    assert [row[1] for row in data] == ["1", "2", "1"]
    # period-2 geometry: both flights along the axis, length d = 2 + alpha
    assert float(data[0][5]) == pytest.approx(2.2, abs=1e-9)


def test_check_writes_bounds(tmp_path, capsys):
    rc = main(["check", "--config", TWO, "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "table admissible: 2 obstacles" in out
    # period2 mode certifies the pair separation, not no-eclipse
    assert "pair separation certified on 65 grid points" in out
    assert (tmp_path / "bounds.csv").exists()


def test_sweep_writes_outputs(tmp_path, capsys):
    rc = main(["sweep", "--config", TWO, "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    for name in ("sweep.csv", "bounds.csv", "plot.gp"):
        assert (tmp_path / name).exists()
    assert "continuity rate" in out
    assert "VIOLATED" not in out


def test_derivative_output(capsys):
    rc = main(["derivative", "--config", TWO, "--word", "1-2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "differentiability check passed" in out
    assert "fitted defect constant K" in out


def test_derivative_accepts_a_literal_word(capsys):
    rc = main(["derivative", "--config", BREATHE, "--word", "2,3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "word 2-3: exact derivative at 0" in out


def _spoil(monkeypatch, name, spoil):
    """Patch the CLI's experiment ``name`` to run for real and then pass
    its result through ``spoil``."""
    real = getattr(cli, name)

    def spoiled(cfg, *args):
        result = real(cfg, *args)
        spoil(result)
        return result

    monkeypatch.setattr(cli, name, spoiled)


def _violate_modulus(result):
    result.summary["continuity_ok"] = False
    result.summary["words"]["1-2"]["continuity_ok"] = False


def _lose_an_orbit(result):
    result.failures.append(("1-2", 0.1, "solver did not converge"))


@pytest.mark.parametrize("spoil, needle", [
    (_violate_modulus, "VIOLATED"),
    (_lose_an_orbit, "1 orbit losses"),
])
def test_failed_sweep_exits_6_and_still_writes(tmp_path, capsys, monkeypatch,
                                               spoil, needle):
    _spoil(monkeypatch, "run_sweep", spoil)
    rc = main(["sweep", "--config", TWO, "--out", str(tmp_path)])
    assert rc == 6
    assert needle in capsys.readouterr().out
    for name in ("sweep.csv", "bounds.csv", "plot.gp"):
        assert (tmp_path / name).exists()


def test_failed_derivative_exits_6(capsys, monkeypatch):
    _spoil(monkeypatch, "run_derivative",
           lambda result: result[1].update(ok=False))
    rc = main(["derivative", "--config", TWO, "--word", "1-2"])
    assert rc == 6
    assert "differentiability check FAILED" in capsys.readouterr().out


def test_missing_config_exits_5(capsys):
    rc = main(["check", "--config", "/nonexistent/nowhere.cfg"])
    assert rc == 5
    assert "error:" in capsys.readouterr().err


def test_bad_config_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text("mode = \"period2\"\nbanana = 1\n")
    rc = main(["check", "--config", str(p)])
    assert rc == 2
    assert "unknown key" in capsys.readouterr().err


def test_inadmissible_word_exits_2(capsys):
    rc = main(["orbit", "--config", TWO, "--word", "1,1"])
    assert rc == 2
    assert "repeats" in capsys.readouterr().err


def test_sample_word_tail(capsys):
    assert main(["orbit", "--config", TWO, "--word", "sample:1"]) == 0
    capsys.readouterr()
    rc = main(["orbit", "--config", TWO, "--word", "sample:40:-1"])
    assert rc == 2
    assert "sample spec 'sample:40:-1'" in capsys.readouterr().err


def test_every_configured_identifier_resolves_to_its_word():
    cfgs = [load_config(CONFIGS / f"{name}.cfg") for name in SHIPPED]
    unlisted = 0
    for cfg in cfgs:
        for ident, word in cfg.words:
            assert cli._resolve_word(cfg, ident) == (ident, word)
            if not ident.startswith("sample:"):
                continue
            # the same spec on a config that does not list it
            for other in cfgs:
                if other.family.z0 == cfg.family.z0 \
                        and ident not in dict(other.words):
                    assert cli._resolve_word(other, ident) == (ident, word)
                    unlisted += 1
    assert unlisted == 12   # breathe's 8 samples on mixed, mixed's 4 on breathe


def test_seed_option_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["orbit", "--config", TWO, "--word", "sample:4", "--seed", "3"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("command, config, needle", [
    (["orbit", "--word", "1,x"], None, "cannot parse word '1,x'"),
    (["lyapunov", "--word", "1,7"], None, "symbols outside 1..2"),
    (["check"], b'mode = "period2"  # caf\xe9\n', "not UTF-8"),
    (["check"], 'obstacle\u00b2.kind = "circle"\n'.encode(),
     "bad obstacle key"),
])
def test_user_input_errors_exit_2(tmp_path, capsys, command, config, needle):
    path = TWO
    if config is not None:
        path = tmp_path / "user.cfg"
        path.write_bytes(config)
    rc = main(command[:1] + ["--config", str(path)] + command[1:])
    assert rc == 2
    assert needle in capsys.readouterr().err


def test_internal_value_error_is_not_a_config_error(monkeypatch):
    # LinAlgError subclasses ValueError; an internal fault must surface
    # with its traceback, not as exit 2
    def broken(cfg):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(cli, "run_check", broken)
    with pytest.raises(np.linalg.LinAlgError):
        main(["check", "--config", TWO])


def test_repeated_grid_points_exit_2(tmp_path, capsys):
    # a grid with repeated points would divide by a zero alpha step
    p = tmp_path / "repeat.cfg"
    text = (CONFIGS / "two_circles_translate.cfg").read_text()
    p.write_text(text.replace("alpha_grid = [0.0, 0.5, 65]",
                              "alpha_grid = [0.1, 0.1, 3]"))
    rc = main(["sweep", "--config", str(p), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "alpha_grid" in capsys.readouterr().err


def test_out_of_range_alpha_exits_2(capsys):
    rc = main(["orbit", "--config", TWO, "--word", "1-2", "--alpha", "0.9"])
    assert rc == 2


def test_eclipsing_table_exits_3(tmp_path, capsys):
    p = tmp_path / "ecl.cfg"
    p.write_text(ECLIPSE_CFG)
    rc = main(["check", "--config", str(p)])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


SIDE3_CFG = """
mode = "general"
alpha_max = 0.1
alpha_grid = [0.0, 0.1, 2]
words = ["open:1,2,3,1,2,3"]
obstacle1.kind = "circle"
obstacle1.center_x = 0.0
obstacle1.center_y = 0.0
obstacle1.radius = 1.0
obstacle2.kind = "circle"
obstacle2.center_x = 3.0
obstacle2.center_y = 0.0
obstacle2.radius = 1.0
obstacle3.kind = "circle"
obstacle3.center_x = 1.5
obstacle3.center_y = 2.598076211353316
obstacle3.radius = 1.0
"""


def test_orbit_prints_the_depth_it_reached(tmp_path, capsys):
    # a side-3 triangle sits near the no-eclipse threshold: padding 12
    # leaves a truncation bound above 1e-9, so the chain deepens
    p = tmp_path / "side3.cfg"
    p.write_text(SIDE3_CFG)
    assert main(["orbit", "--config", str(p),
                 "--word", "open:1,2,3,1,2,3"]) == 0
    line = next(l for l in capsys.readouterr().out.splitlines()
                if l.startswith("truncation bound "))
    bound, depth = float(line.split()[2]), int(line.split()[-1])
    assert bound <= 1e-9
    assert depth > 12 and depth % 4 == 0


def test_tangential_hit_exits_4(capsys, monkeypatch):
    # with every hit counted as tangential, the oracle's boundary map
    # raises GrazingError, an orbit failure
    monkeypatch.setattr(dynamics, "GRAZING_TOL", 1.0)
    rc = main(["lyapunov", "--config", BREATHE, "--word", "1-2-3", "--oracle"])
    assert rc == 4
    assert "error: tangential hit" in capsys.readouterr().err


def test_truncation_bound_past_the_cap_exits_4(tmp_path, capsys,
                                                monkeypatch):
    monkeypatch.setattr(symbolic, "MAX_PADDING", 12)
    p = tmp_path / "side3.cfg"
    p.write_text(SIDE3_CFG)
    rc = main(["orbit", "--config", str(p), "--word", "open:1,2,3,1,2,3"])
    assert rc == 4
    err = capsys.readouterr().err
    assert "truncation bound" in err and "at padding 12" in err
