"""The benchmark's three workloads, generated from a seed.

Each workload writes its own config files and hands the program nothing
else: ``setup`` loads them through ``load_config`` (which validates the
family), and ``unit`` runs one measured unit of work through the public
API and returns what the checks need.  Sizes are keyword arguments so
the benchmark's tests can run a reduced copy of each workload.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from billiard_lab import config, experiments, geometry, lyapunov

DEFAULT_SEED = 7

# The tables are copied from the shipped configs so that later edits to
# configs/ cannot silently change what the benchmark measures.
BREATHE_TABLE = """\
mode = "general"
alpha_max = 0.4
smoothness = [5, 3]
obstacle1.kind = "circle"
obstacle1.center_x = 0.0
obstacle1.center_y = 0.0
obstacle1.radius = [1.0, 0.25]
obstacle2.kind = "circle"
obstacle2.center_x = 6.0
obstacle2.center_y = 0.0
obstacle2.radius = 1.0
obstacle3.kind = "circle"
obstacle3.center_x = 3.0
obstacle3.center_y = 5.196152422706632
obstacle3.radius = 1.0
padding = 12
burn_in = 10
"""

MIXED_TABLE = """\
mode = "general"
alpha_max = 0.4
smoothness = [5, 3]
obstacle1.kind = "circle"
obstacle1.center_x = 0.0
obstacle1.center_y = 0.0
obstacle1.radius = 1.0
obstacle2.kind = "circle"
obstacle2.center_x = 7.0
obstacle2.center_y = 0.0
obstacle2.radius = 1.0
obstacle3.kind = "ellipse"
obstacle3.center_x = 3.5
obstacle3.center_y = 5.5
obstacle3.semi_axis_a = 1.6
obstacle3.semi_axis_b = 0.9
obstacle3.rotation = [0.3, 0.5]
padding = 12
burn_in = 10
"""

# At or above the largest phi_max the mixed table reports on [0, 0.4], so
# the override never tightens the bracket; it only skips observation.
MIXED_PHI_OVERRIDE = 0.8
ALPHA_MAX = 0.4
Z0 = 3


def _config_text(table: str, words, grid_count: int, seed: int,
                 phi_max=None) -> str:
    quoted = ", ".join(f'"{w}"' for w in words)
    lines = [table.rstrip("\n"),
             f"words = [{quoted}]",
             f"alpha_grid = [0.0, {ALPHA_MAX}, {grid_count}]",
             f"seed = {seed}"]
    if phi_max is not None:
        lines.append(f"phi_max = {phi_max}")
    return "\n".join(lines) + "\n"


def random_symbols(rng: np.random.Generator, length: int, cyclic: bool):
    """Admissible itinerary over 1..Z0: no symbol repeats its predecessor
    and, for cyclic words, the last symbol also differs from the first."""
    out = [int(rng.integers(1, Z0 + 1))]
    for j in range(1, length):
        banned = {out[-1]}
        if cyclic and j == length - 1:
            banned.add(out[0])
        choices = [s for s in range(1, Z0 + 1) if s not in banned]
        out.append(choices[int(rng.integers(len(choices)))])
    return out


def _word_text(symbols, cyclic: bool) -> str:
    body = ",".join(str(s) for s in symbols)
    return body if cyclic else "open:" + body


@dataclass
class SweepOutcome:
    """One sweep: its result and the config it ran."""

    cfg: object
    result: experiments.SweepResult


@dataclass
class QueryOutcome:
    """One cold query: table index, inputs and everything the checks read."""

    index: int
    table: str
    word_id: str
    alpha: float
    lambda_m: float = math.nan
    F_m: float = math.nan
    lower: float = math.nan
    upper: float = math.nan
    oracle: float = math.nan
    recursion: float = math.nan
    error: str = ""


@dataclass
class Workload:
    """A generated workload: config files plus the unit it measures."""

    name: str
    seed: int
    sizes: dict
    workdir: Path
    config_paths: dict = field(default_factory=dict)

    def write_configs(self) -> None:
        raise NotImplementedError

    def setup(self) -> dict:
        """Load every config the workload uses; this is what setup_s times."""
        return {key: config.load_config(path)
                for key, path in self.config_paths.items()}

    def attempted_per_unit(self, cfgs) -> int:
        raise NotImplementedError


class SweepWorkload(Workload):
    """One unit is ``run_sweep`` plus ``emit_outputs`` for a single config."""

    def attempted_per_unit(self, cfgs) -> int:
        cfg = cfgs["sweep"]
        return len(cfg.words) * len(cfg.alpha_grid)

    def unit(self, cfgs):
        cfg = cfgs["sweep"]
        outdir = self.workdir / "out"
        t0 = time.perf_counter()
        result = experiments.run_sweep(cfg)
        experiments.emit_outputs(outdir, result)
        elapsed = time.perf_counter() - t0
        return elapsed, [elapsed], SweepOutcome(cfg, result)


class BreatheSweep(SweepWorkload):
    """The shipped three_circles_breathe sweep; seed 7 reproduces it."""

    def write_configs(self) -> None:
        words = ["1,2", "1,2,3",
                 f"sample:{self.sizes['samples']}:40:{self.seed}"]
        text = _config_text(BREATHE_TABLE, words, self.sizes["grid"],
                            self.seed)
        path = self.workdir / "sweep_breathe.cfg"
        path.write_text(text)
        self.config_paths = {"sweep": path}


class LongMixedSweep(SweepWorkload):
    """Long open chains and one long cycle on the rotating-ellipse table,
    with phi_max overridden so no collision-angle observation runs."""

    def write_configs(self) -> None:
        rng = np.random.default_rng(self.seed)
        words = [_word_text(random_symbols(rng, self.sizes["open_len"], False),
                            False) for _ in range(self.sizes["open_words"])]
        words.append(_word_text(
            random_symbols(rng, self.sizes["cyclic_len"], True), True))
        text = _config_text(MIXED_TABLE, words, self.sizes["grid"], self.seed,
                            phi_max=MIXED_PHI_OVERRIDE)
        path = self.workdir / "sweep_long_mixed.cfg"
        path.write_text(text)
        self.config_paths = {"sweep": path}


class QueryCold(Workload):
    """``lyapunov --oracle`` queries from cold state, one client, closed
    loop.  Queries alternate between the mixed and the breathe table."""

    TABLES = ("mixed", "breathe")

    def write_configs(self) -> None:
        rng = np.random.default_rng(self.seed)
        n = self.sizes["queries"]
        # Query cost depends mostly on table and alpha; one alpha per
        # stratum of [0, ALPHA_MAX), in seeded order, keeps the latency
        # distribution of a run from depending on where the draws fall.
        self.alphas = {}
        per_table = {}
        for i, table in enumerate(self.TABLES):
            m = len(range(i, n, 2))
            self.alphas[table] = [
                float(a) for a in (rng.permutation(m) + rng.uniform(0, 1, m))
                * (ALPHA_MAX / m)]
            per_table[table] = [
                _word_text(random_symbols(rng, self.sizes["word_len"], False),
                           False) for _ in range(m)]
        tables = {"mixed": MIXED_TABLE, "breathe": BREATHE_TABLE}
        self.config_paths = {}
        for key in self.TABLES:
            path = self.workdir / f"query_cold_{key}.cfg"
            # a one-point grid: queries pass their own alpha
            path.write_text(_config_text(tables[key], per_table[key], 1,
                                         self.seed))
            self.config_paths[key] = path

    def attempted_per_unit(self, cfgs) -> int:
        return self.sizes["queries"]

    def query(self, cfgs, q: int) -> QueryOutcome:
        """One query, the path of ``billiard-lab lyapunov --oracle``."""
        table = self.TABLES[q % 2]
        cfg = cfgs[table]
        ident, word = cfg.words[q // 2]
        alpha = self.alphas[table][q // 2]
        out = QueryOutcome(q, table, ident, alpha)
        try:
            tb = geometry.table_bounds(cfg.family, alpha,
                                       phi_max_override=cfg.phi_max)
            orbit = experiments.solve_word(cfg, word, alpha)
            res = experiments.analyze_orbit(cfg, orbit, bounds=tb)
            m_cmp = len(orbit.records)
            out.oracle = lyapunov.jacobian_lyapunov_oracle(
                word, cfg.family, alpha, m=m_cmp, h=cfg.h_fd, orbit=orbit,
                burn_in=0)
            out.recursion = lyapunov.lyapunov_estimate(
                orbit, burn_in=0, m=m_cmp).lambda_m
        except (ArithmeticError, RuntimeError, ValueError) as exc:
            out.error = f"{type(exc).__name__}: {exc}"
            return out
        rep = res["report"]
        out.lambda_m, out.F_m = rep.lambda_m, res["F_m"]
        out.lower, out.upper = rep.lower, rep.upper
        return out

    def unit(self, cfgs):
        latencies = []
        outcomes = []
        t0 = time.perf_counter()
        for q in range(self.sizes["queries"]):
            tq = time.perf_counter()
            outcomes.append(self.query(cfgs, q))
            latencies.append(time.perf_counter() - tq)
        return time.perf_counter() - t0, latencies, outcomes


FULL_SIZES = {
    "sweep_breathe": {"grid": 65, "samples": 8},
    "sweep_long_mixed": {"grid": 9, "open_words": 3, "open_len": 400,
                         "cyclic_len": 120},
    "query_cold": {"queries": 10, "word_len": 40},
}

_KINDS = {"sweep_breathe": BreatheSweep, "sweep_long_mixed": LongMixedSweep,
          "query_cold": QueryCold}

WORKLOADS = tuple(_KINDS)


def make_workload(name: str, seed: int, workdir: Path, **sizes) -> Workload:
    """Generate the named workload's config files under ``workdir``.

    ``sizes`` overrides entries of FULL_SIZES (reduced runs in tests)."""
    full = dict(FULL_SIZES[name])
    unknown = set(sizes) - set(full)
    if unknown:
        raise ValueError(f"unknown sizes for {name}: {sorted(unknown)}")
    full.update(sizes)
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    wl = _KINDS[name](name, seed, full, workdir)
    wl.write_configs()
    return wl
