"""Sweep and probe drivers: warm starts, burn-in clipping, continuity
summaries, derivative probes, and the CSV emitters."""

import csv
import dataclasses
import math

import numpy as np
import pytest

from billiard_lab import (EclipseError, SolveError, Word, experiments,
                          find_orbit_segment, symbolic)
from billiard_lab.config import ConfigError, load_config
from billiard_lab.experiments import (BOUNDS_HEADER, SWEEP_HEADER,
                                      analyze_orbit, effective_burn_in,
                                      emit_outputs, run_check, run_derivative,
                                      run_sweep, solve_word, write_bounds_csv,
                                      write_sweep_csv)

from conftest import chunk_starts

SQRT2 = math.sqrt(2.0)

SMALL = """
mode = "period2"
alpha_max = 0.5
alpha_grid = [0.0, 0.4, 5]
words = ["1,2", "1,2,1,2"]
obstacle1.kind = "circle"
obstacle1.center_x = 0.0
obstacle1.center_y = 0.0
obstacle1.radius = 1.0
obstacle2.kind = "circle"
obstacle2.center_x = [4.0, 1.0]
obstacle2.center_y = 0.0
obstacle2.radius = 1.0
"""


@pytest.fixture(scope="module")
def small_cfg(tmp_path_factory):
    p = tmp_path_factory.mktemp("cfg") / "small.cfg"
    p.write_text(SMALL)
    return load_config(p)


def _write_cfg(tmp_path, text):
    p = tmp_path / "t.cfg"
    p.write_text(text)
    return p


def test_solve_word_dispatch(small_cfg):
    cyc = solve_word(small_cfg, Word((1, 2)), 0.0)
    assert cyc.kind == "periodic"
    seg = solve_word(small_cfg, Word((1, 2, 1, 2), cyclic=False), 0.0)
    assert seg.kind == "segment"
    assert len(seg.records) == 4


def test_solve_word_keeps_deep_warm_start(small_cfg):
    word = Word((1, 2, 1, 2, 1, 2), cyclic=False)
    deep = find_orbit_segment(word, small_cfg.family, 0.1,
                              padding=small_cfg.padding + 4)
    warm = solve_word(small_cfg, word, 0.1, init=np.asarray(deep.chain_us))
    cold = solve_word(small_cfg, word, 0.1)
    assert warm.core_start == small_cfg.padding + 4
    assert cold.core_start == small_cfg.padding
    np.testing.assert_allclose(warm.records.u, cold.records.u, atol=1e-9)


def test_breathe_sweep_solves_each_open_word_once(breathe_cfg, monkeypatch):
    # every open word handed to find_orbits (the sweep's batches and the
    # cold phi corpus's batches of one alike) is solved by exactly one
    # chain: no workload deepens
    words = {True: 0, False: 0}     # open words, by shadow check
    chains = {True: 0, False: 0}    # open chains solved for them
    calls = []

    def count_words(fn):
        def wrapper(words_in, *args, shadow_check=True, **kwargs):
            words[shadow_check] += sum(not w.cyclic for w in words_in)
            calls.append(shadow_check)
            try:
                return fn(words_in, *args, shadow_check=shadow_check,
                          **kwargs)
            finally:
                calls.pop()
        return wrapper

    def count_chains(fn):
        def wrapper(table, symbols, us0, cyclic, tol):
            if calls and not cyclic:
                chains[calls[-1]] += len(us0)
            return fn(table, symbols, us0, cyclic, tol)
        return wrapper

    finder = count_words(symbolic.find_orbits)
    monkeypatch.setattr(symbolic, "find_orbits", finder)
    monkeypatch.setattr(experiments, "find_orbits", finder)
    monkeypatch.setattr(symbolic, "_solve_chain",
                        count_chains(symbolic._solve_chain))
    result = run_sweep(breathe_cfg)
    assert not result.failures
    assert words == chains == {True: 520, False: 100}


def _nodes(cfg):
    """Chain nodes per alpha of every configured word."""
    return sum(len(w) + (0 if w.cyclic else 2 * cfg.padding)
               for _, w in cfg.words)


def test_breathe_sweep_walks_the_grid_in_chunks(breathe_cfg, monkeypatch):
    # the first alpha alone, then chunks of WALK_NODES // 517 = 7 alphas
    # (two cycles of 2 and 3 nodes, eight open words of 40 + 2 * 12):
    # one find_orbits and one alpha_derivatives call per chunk
    nodes = _nodes(breathe_cfg)
    size = symbolic.WALK_NODES // nodes
    calls = {"find_orbits": [], "alpha_derivatives": []}
    for name in calls:
        def counted(*args, fn=getattr(experiments, name), name=name,
                    **kwargs):
            calls[name].append(len(args[0]))
            return fn(*args, **kwargs)
        monkeypatch.setattr(experiments, name, counted)
    result = run_sweep(breathe_cfg)
    assert not result.failures
    n_alphas = len(breathe_cfg.alpha_grid)
    expected = 1 + math.ceil((n_alphas - 1) / size)
    assert (nodes, size, expected) == (517, 7, 11)
    words = len(breathe_cfg.words)
    rows = [words] + [words * len(range(lo, min(lo + size, n_alphas)))
                      for lo in range(1, n_alphas, size)]
    assert calls == {"find_orbits": rows, "alpha_derivatives": rows}


def _word_at_a_time(cfg):
    """Reference sweep: each word solved and analysed alone along the
    grid, seeded from its chain at the last alpha before the alpha's
    chunk (crude where that solve failed or there is none), and solved
    again from the crude seed after a failure from a chain.  Returns
    (rows sorted by word and alpha, failures)."""
    bounds = run_check(cfg)
    starts = chunk_starts(len(bounds), _nodes(cfg))
    rows, failures = [], []
    for ident, word in cfg.words:
        solved = {}
        chains = {}
        for gi, b in enumerate(bounds):
            init = chains.get(starts[gi] - 1)
            try:
                try:
                    orbit = solve_word(cfg, word, b.alpha, init=init)
                except (SolveError, symbolic.ShadowingError):
                    if init is None:
                        raise
                    orbit = solve_word(cfg, word, b.alpha)
            except (SolveError, symbolic.ShadowingError) as exc:
                failures.append((ident, b.alpha, str(exc)))
                continue
            chains[gi] = np.asarray(orbit.chain_us)
            res = analyze_orbit(cfg, orbit)
            solved[gi] = experiments.SweepRow(
                b.alpha, ident, res["report"].m, res["report"].lambda_m,
                res["F_m"], math.nan, b.lower, b.upper,
                float(np.abs(res["derivs"].u_dot).max()),
                float(np.abs(res["kdot"].k_dot).max()),
                orbit.residual, res["derivs"].cond)
        for gi, row in solved.items():
            if gi - 1 in solved and gi + 1 in solved:
                slope = (solved[gi + 1].lambda_m - solved[gi - 1].lambda_m) \
                    / (solved[gi + 1].alpha - solved[gi - 1].alpha)
            else:
                slope = row.F_m
            rows.append(dataclasses.replace(row, fd_slope=slope))
    return sorted(rows, key=lambda r: (r.word_id, r.alpha)), failures


@pytest.mark.parametrize("which", ["small", "breathe"])
def test_sweep_rows_equal_a_word_at_a_time_sweep(which, small_cfg,
                                                 breathe_cfg):
    cfg = small_cfg if which == "small" else dataclasses.replace(
        breathe_cfg, alpha_grid=np.linspace(0.0, 0.4, 5))
    result = run_sweep(cfg)
    rows, failures = _word_at_a_time(cfg)
    assert result.rows == rows
    assert result.failures == failures == []


def _spots(cfg):
    """The (word index, grid index) of a word at a grid alpha."""
    index = {word: i for i, (_, word) in enumerate(cfg.words)}
    grid = [float(a) for a in cfg.alpha_grid]
    return lambda word, alpha: (index[word], grid.index(alpha))


def _chunks_of(monkeypatch, cfg, size):
    """Walk the grid after its first alpha in chunks of ``size`` alphas."""
    monkeypatch.setattr(symbolic, "WALK_NODES", size * _nodes(cfg))


def _inject_failures(monkeypatch, cfg, spots, warm_only=False):
    """Make find_orbits fail word ``i`` at grid point ``gi`` for every
    (i, gi) in ``spots``: on every attempt, or with ``warm_only`` only
    from a seed chain.  Returns the (i, gi, cold) of every row of every
    call, in call order."""
    spot_of = _spots(cfg)
    rows = []
    find_orbits = symbolic.find_orbits

    def failing(words, family, alphas, inits, **kwargs):
        inits = [None] * len(words) if inits is None else list(inits)
        out = find_orbits(words, family, alphas, inits, **kwargs)
        for k, (word, alpha, init) in enumerate(zip(words, alphas, inits)):
            spot = spot_of(word, alpha)
            rows.append(spot + (init is None,))
            if spot in spots and not (warm_only and init is None):
                out[k] = SolveError(f"injected {spot[0]} at {spot[1]}")
        return out

    monkeypatch.setattr(experiments, "find_orbits", failing)
    return rows


def test_a_failed_solve_restarts_its_word_cold(small_cfg, monkeypatch):
    # chunks [0], [1, 2], [3, 4]: word 1 fails at grid point 2, the last
    # of its chunk, and starts the next chunk cold; word 0 fails at grid
    # point 3 inside a chunk, so grid point 4 keeps its seed from 2.  An
    # alpha-major walk meets them in the other order
    _chunks_of(monkeypatch, small_cfg, 2)
    clean = run_sweep(small_cfg)
    rows = _inject_failures(monkeypatch, small_cfg, {(1, 2), (0, 3)})
    result = run_sweep(small_cfg)
    grid = small_cfg.alpha_grid
    (id0, _), (id1, _) = small_cfg.words
    assert result.failures == [(id0, grid[3], "injected 0 at 3"),
                               (id1, grid[2], "injected 1 at 2")]
    # cold at the first grid point, in the retry of each failed row, and
    # in the chunk after a failure at a chunk's last alpha only
    cold = {(i, gi) for i, gi, is_cold in rows if is_cold}
    assert cold == {(0, 0), (1, 0), (1, 2), (0, 3), (1, 3), (1, 4)}
    # every other row is unchanged, but for the secant slopes next to
    # the lost rows
    lost = {(id1, grid[2]), (id0, grid[3])}

    def no_slope(rows):
        return [dataclasses.replace(r, fd_slope=0.0) for r in rows
                if (r.word_id, r.alpha) not in lost]

    assert len(result.rows) == len(clean.rows) - 2
    assert no_slope(result.rows) == no_slope(clean.rows)


def test_a_failed_row_is_retried_crude_at_its_own_alpha(small_cfg,
                                                        monkeypatch):
    # word 1 fails at grid point 2 from its chain only: the crude retry
    # at that alpha stands in for it, and nothing is reported
    rows = _inject_failures(monkeypatch, small_cfg, {(1, 2)}, warm_only=True)
    result = run_sweep(small_cfg)
    assert result.failures == []
    assert len(result.rows) == 2 * len(small_cfg.alpha_grid)
    assert [(i, gi) for i, gi, is_cold in rows if is_cold] \
        == [(0, 0), (1, 0), (1, 2)]
    assert rows.index((1, 2, True)) > rows.index((1, 2, False))
    ident, word = small_cfg.words[1]
    alpha = small_cfg.alpha_grid[2]
    row = next(r for r in result.rows
               if (r.word_id, r.alpha) == (ident, alpha))
    orbit = solve_word(small_cfg, word, alpha)
    res = analyze_orbit(small_cfg, orbit)
    assert (row.lambda_m, row.F_m, row.residual) \
        == (res["report"].lambda_m, res["F_m"], orbit.residual)


def test_a_failed_analysis_raises_in_word_major_order(small_cfg,
                                                      monkeypatch):
    # chunks [0], [1, 2], [3, 4]: word 1 fails its analysis at grid point
    # 1, so the last chunk drops it, and word 0 fails at grid point 3
    _chunks_of(monkeypatch, small_cfg, 2)
    spot_of = _spots(small_cfg)
    derivatives = symbolic.alpha_derivatives
    walked = []

    def failing(orbits, family):
        out = derivatives(orbits, family)
        spots = [spot_of(o.word, o.alpha) for o in orbits]
        walked.append({i for i, _ in spots})
        for k, (i, gi) in enumerate(spots):
            if (i, gi) in ((1, 1), (0, 3)):
                out[k] = SolveError(f"injected {i} at {gi}")
        return out

    monkeypatch.setattr(experiments, "alpha_derivatives", failing)
    with pytest.raises(SolveError, match="injected 0 at 3"):
        run_sweep(small_cfg)
    assert walked == [{0, 1}, {0, 1}, {0}]


def test_effective_burn_in_clips(small_cfg):
    cyc = solve_word(small_cfg, Word((1, 2)), 0.0)
    assert effective_burn_in(cyc, small_cfg) == 0
    seg = solve_word(small_cfg, Word((1, 2, 1, 2), cyclic=False), 0.0)
    # configured burn_in (10) would eat the whole 4-flight window
    assert effective_burn_in(seg, small_cfg) == 3


def test_analyze_orbit_translate_values(small_cfg):
    orbit = solve_word(small_cfg, Word((1, 2)), 0.0)
    res = analyze_orbit(small_cfg, orbit)
    assert res["report"].m == 2
    assert res["report"].lambda_m == pytest.approx(math.log(3 + 2 * SQRT2),
                                                   abs=1e-12)
    assert res["F_m"] == pytest.approx(SQRT2 / 4.0, abs=1e-10)
    assert res["burn_in"] == 0
    assert set(res) == {"report", "derivs", "trace", "kdot", "F_m", "f_dot",
                        "burn_in"}


def test_run_sweep_layout_and_continuity(small_cfg):
    result = run_sweep(small_cfg)
    grid = small_cfg.alpha_grid
    assert not result.failures
    assert len(result.bounds) == len(grid)
    assert len(result.rows) == 2 * len(grid)
    # sorted by word then alpha
    keys = [(r.word_id, r.alpha) for r in result.rows]
    assert keys == sorted(keys)
    assert result.summary["continuity_ok"]
    assert result.summary["n_failures"] == 0
    for ident in ("1-2", "1-2-1-2"):
        ws = result.summary["words"][ident]
        assert ws["solved"] == len(grid)
        assert ws["continuity_ok"]
        assert ws["max_continuity_defect"] <= 1e-10


def test_run_sweep_fd_slope_endpoints(small_cfg):
    result = run_sweep(small_cfg)
    rows = [r for r in result.rows if r.word_id == "1-2"]
    assert rows[0].fd_slope == rows[0].F_m
    assert rows[-1].fd_slope == rows[-1].F_m
    mid = rows[2]
    expect = (rows[3].lambda_m - rows[1].lambda_m) \
        / (rows[3].alpha - rows[1].alpha)
    assert mid.fd_slope == pytest.approx(expect, abs=1e-15)
    # grid is coarse so the secant only roughly tracks the derivative
    assert mid.fd_slope == pytest.approx(mid.F_m, rel=5e-2)


def test_run_sweep_rows_inside_bracket(small_cfg):
    result = run_sweep(small_cfg)
    for r in result.rows:
        assert r.lower - 1e-12 <= r.lambda_m <= r.upper + 1e-12


def test_run_sweep_requires_c4_table(tmp_path):
    cfg = load_config(_write_cfg(tmp_path, SMALL + "\nsmoothness = [3, 2]\n"))
    with pytest.raises(ConfigError, match="smoothness"):
        run_sweep(cfg)


def test_run_derivative_requires_c5_table(tmp_path):
    cfg = load_config(_write_cfg(tmp_path, SMALL + "\nsmoothness = [4, 2]\n"))
    run_sweep(cfg)   # C^4 is enough for the sweep
    with pytest.raises(ConfigError, match="smoothness"):
        run_derivative(cfg, Word((1, 2)))


def test_run_derivative_translate(small_cfg):
    rows, summary = run_derivative(small_cfg, Word((1, 2)))
    assert summary["ok"]
    assert summary["F0"] == pytest.approx(SQRT2 / 4.0, abs=1e-10)
    assert rows[0].alpha == 0.0 and rows[0].defect == 0.0
    assert len(rows) == 6
    alphas = [r.alpha for r in rows[1:]]
    assert alphas == sorted(alphas)
    assert math.isfinite(summary["k_fit"])
    # defect shrinks with the probe: largest probe has the largest defect
    assert rows[-1].defect == max(r.defect for r in rows[1:])


def test_run_check_rows(small_cfg):
    rows = run_check(small_cfg)
    assert len(rows) == len(small_cfg.alpha_grid)
    assert [r.alpha for r in rows] == [pytest.approx(a)
                                       for a in small_cfg.alpha_grid]
    for r in rows:
        assert 0.0 < r.lower < r.upper
        assert r.d_min == pytest.approx(2.0 + r.alpha, abs=1e-12)


def test_eclipse_table_fails_in_bounds(tmp_path):
    text = """
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
    cfg = load_config(_write_cfg(tmp_path, text), validate=False)
    with pytest.raises(EclipseError):
        run_sweep(cfg)


def test_csv_headers_and_determinism(small_cfg, tmp_path):
    result = run_sweep(small_cfg)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_sweep_csv(a, result.rows)
    write_sweep_csv(b, result.rows)
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 1 + len(result.rows)
    with open(a, newline="") as fh:
        rec = next(iter(list(csv.DictReader(fh))))
    assert float(rec["lambda_m"]) == pytest.approx(result.rows[0].lambda_m,
                                                   rel=1e-12)
    assert rec["word_id"] == result.rows[0].word_id
    assert rec["m"] == str(result.rows[0].m)

    bounds = tmp_path / "bounds.csv"
    write_bounds_csv(bounds, result.bounds)
    blines = bounds.read_text().splitlines()
    assert blines[0] == BOUNDS_HEADER
    assert len(blines) == 1 + len(result.bounds)


def test_emit_outputs_files(small_cfg, tmp_path):
    result = run_sweep(small_cfg)
    paths = emit_outputs(tmp_path / "out", result)
    assert [p.name for p in paths] == ["sweep.csv", "bounds.csv", "plot.gp"]
    for p in paths:
        assert p.exists() and p.stat().st_size > 0
    gp = (tmp_path / "out" / "plot.gp").read_text()
    assert "sweep.csv" in gp and "bounds.csv" in gp


def test_plot_tangent_touches_the_first_row(tmp_path):
    # a grid that starts at 0.2: the dashed tangent must pass through
    # (0.2, lambda(0.2)) with slope F(0.2), not through alpha = 0
    cfg = load_config(_write_cfg(
        tmp_path, SMALL.replace("[0.0, 0.4, 5]", "[0.2, 0.4, 3]")))
    result = run_sweep(cfg)
    first = sorted({r.word_id for r in result.rows})[0]
    row = next(r for r in result.rows if r.word_id == first)
    assert row.alpha == 0.2 and row.F_m != 0.0
    path = tmp_path / "plot.gp"
    experiments.write_plot_script(path, result)
    lines = path.read_text().splitlines()
    names = {name: float(value) for name, value in
             (line.split(" = ") for line in lines
              if line.split(" = ")[0] in ("a0", "lam0", "f0"))}
    tangent = next(line for line in lines if "dashtype 2" in line)
    expr = tangent.split(" with ")[0].strip()

    def at(x):
        return eval(expr, {}, dict(names, x=x))
    assert at(0.2) == pytest.approx(row.lambda_m, rel=1e-11)
    assert (at(0.3) - at(0.2)) / 0.1 == pytest.approx(row.F_m, rel=1e-9)
    assert "title 'tangent at 0.2'" in tangent
