"""The benchmark's own tests.  Run from the checkout root:

    python3 -m pytest -q perfbench/tests
"""

import itertools
import json
import math
import os
import shutil
from dataclasses import replace

import pytest

import run  # puts the checkout's package on the path
import checks
import tracer
import workloads
from billiard_lab.config import load_config
from billiard_lab.experiments import SweepRow

SMALL = {
    "sweep_breathe": {"grid": 3, "samples": 1},
    "sweep_long_mixed": {"grid": 3, "open_words": 1, "open_len": 40,
                         "cyclic_len": 20},
    "query_cold": {"queries": 2, "word_len": 12},
}


@pytest.fixture
def workdir():
    path = run.OUT_DIR / f"tests-{os.getpid()}"
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture(scope="module")
def spec():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _small_run(name, workdir, trace):
    wl = workloads.make_workload(name, 3, workdir / name, **SMALL[name])
    result, lines = run.run(wl, 0.0, trace, run.environment())
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def test_declared_metrics_match_benchmark_json(spec):
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(tracer.LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_run_prints_declared_metrics(name, workdir, spec):
    result = _small_run(name, workdir, trace=False)
    assert list(result["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_smoke_run_reports_every_layer(name, workdir, spec):
    metrics = {k: v["value"] for k, v in
               _small_run(name, workdir, trace=True)["metrics"].items()}
    assert list(metrics) == [m["name"] for m in spec["per_layer"]]
    assert metrics["geometry.jets.calls"] > 0
    assert metrics["config.validate.busy_s"] > 0
    assert metrics["geometry.eclipse.calls"] > 0
    # structure the workloads are built for
    if name == "sweep_long_mixed":
        assert metrics["geometry.phi_observe.busy_s"] == 0
        assert metrics["geometry.phi_observe.converged_frac"] == 1.0
    else:
        assert metrics["geometry.phi_observe.solves"] > 0
        assert metrics["geometry.phi_observe.converged_frac"] > 0.9
    reaches_dynamics = name == "query_cold"
    assert (metrics["dynamics.intersect.calls"] > 0) == reaches_dynamics
    assert (metrics["lyapunov.oracle.busy_s"] > 0) == reaches_dynamics
    assert (metrics["experiments.emit.bytes"] > 0) != reaches_dynamics


def test_a_request_counts_its_median_pass(monkeypatch):
    class Fake:
        # three passes, then slow ones until the run's time is up
        passes = itertools.chain([[0.3, 0.2], [0.1, 0.4], [0.2, 0.9]],
                                 itertools.repeat([5.0, 5.0]))

        def setup(self):
            return {}

        def unit(self, cfgs):
            lats = next(self.passes)
            return sum(lats), lats, None

        def attempted_per_unit(self, cfgs):
            return 2

    monkeypatch.setattr(run, "check_unit", lambda *a: [])
    m = run.measure(Fake(), seconds=1.0, reference=None)
    # the run stops once the median pass (1.1 s) no longer fits in 1 s
    assert len(m["units"]) == 5
    assert m["latency"] == [0.3, 0.9]
    assert m["attempted"] == 2 * len(m["units"])


def test_tracer_marks_missing_boundary_absent(monkeypatch):
    monkeypatch.setattr(tracer, "SPAN_BOUNDARIES", tracer.SPAN_BOUNDARIES
                        + (("symbolic.gone", "symbolic", "_no_such_step"),))
    t = tracer.Tracer()
    with t:
        pass
    assert t.absent == ["symbolic._no_such_step"]
    assert t.metrics(0.0)["symbolic.chain.calls"] == 0


def test_metrics_of_an_absent_boundary_are_null_not_zero(monkeypatch):
    monkeypatch.setattr(tracer, "SPAN_BOUNDARIES", tuple(
        (name, module, "_no_such_step" if name == "symbolic.chain" else attr)
        for name, module, attr in tracer.SPAN_BOUNDARIES))
    t = tracer.Tracer()
    with t:
        pass
    assert t.absent == ["symbolic._no_such_step"]
    metrics = t.metrics(0.0)
    assert metrics["symbolic.chain.calls"] is None
    assert metrics["symbolic.chain.busy_s"] is None
    assert metrics["symbolic.newton.chain_evals_per_solve"] is None
    assert metrics["symbolic.newton.calls"] == 0
    assert json.loads(json.dumps(metrics))["symbolic.chain.busy_s"] is None


def test_a_layer_with_no_calls_never_reads_worse():
    t = tracer.Tracer()
    with t:
        pass
    metrics = t.metrics(0.0)
    assert metrics["geometry.phi_observe.solves"] == 0
    assert metrics["geometry.phi_observe.converged_frac"] == 1.0
    assert metrics["symbolic.shadow.max_gap"] == 0.0
    assert metrics["symbolic.ift.cond_max"] == 0.0


def test_main_runs_without_the_thread_knob(monkeypatch, capsys):
    seen = {}

    def fake_run(wl, seconds, trace, env):
        seen["threads"] = os.environ.get("BILLIARD_LAB_THREADS")
        return {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {}}, []

    monkeypatch.setenv("BILLIARD_LAB_THREADS", "2")
    monkeypatch.setattr(workloads, "make_workload", lambda *a, **k: None)
    monkeypatch.setattr(run, "run", fake_run)
    assert run.main(["--workload", "query_cold"]) == 0
    assert seen == {"threads": None}


def test_blas_runs_one_thread():
    assert run.environment()["thread_env"] \
        == dict.fromkeys(run.BLAS_THREAD_VARS, "1")


def test_tracer_restores_every_binding():
    import billiard_lab.lyapunov as lyap
    import billiard_lab.symbolic as sym
    before = (sym.partial_jet, lyap.partial_jet, sym._chain_system)
    with tracer.Tracer():
        assert sym.partial_jet is not before[0]
        assert lyap.partial_jet is sym.partial_jet
    assert (sym.partial_jet, lyap.partial_jet, sym._chain_system) == before


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(name, workdir):
    def texts(seed, sub):
        wl = workloads.make_workload(name, seed, workdir / sub)
        return [p.read_text() for p in wl.config_paths.values()]

    assert texts(5, "a") == texts(5, "b")
    assert texts(5, "a") != texts(6, "c")


def test_default_seed_reproduces_shipped_breathe_config(workdir):
    wl = workloads.make_workload("sweep_breathe", workloads.DEFAULT_SEED,
                                 workdir)
    ours = load_config(wl.config_paths["sweep"], validate=False)
    shipped = load_config(run.ROOT / "configs" / "three_circles_breathe.cfg",
                          validate=False)
    assert ours.family == shipped.family
    assert ours.words == shipped.words
    assert (ours.alpha_grid == shipped.alpha_grid).all()
    assert replace(ours, alpha_grid=None, output_dir="") \
        == replace(shipped, alpha_grid=None, output_dir="")


def test_long_mixed_override_is_not_below_observed_phi(workdir):
    from billiard_lab.geometry import table_bounds
    wl = workloads.make_workload("sweep_long_mixed", 1, workdir, grid=1)
    family = load_config(wl.config_paths["sweep"], validate=False).family
    for alpha in (0.0, workloads.ALPHA_MAX):
        assert table_bounds(family, alpha).phi_max \
            <= workloads.MIXED_PHI_OVERRIDE


def test_random_words_are_admissible():
    import numpy as np
    rng = np.random.default_rng(0)
    for cyclic in (False, True):
        for length in (2, 3, 7, 120):
            s = workloads.random_symbols(rng, length, cyclic)
            pairs = zip(s, s[1:] + s[:1]) if cyclic else zip(s, s[1:])
            assert len(s) == length and all(a != b for a, b in pairs)


def _breathe_reference_rows():
    ref = checks.load_reference_file()["sweep_breathe"]["values"]
    rows = []
    for key, (lam, f) in ref.items():
        word_id, alpha = key.rsplit("@", 1)
        rows.append(SweepRow(float(alpha), word_id, 1, lam, f, f, 0.0, 10.0,
                             0.0, 0.0, 0.0, 1.0))
    return ref, rows


def test_reference_check_rejects_shifted_lambda():
    ref, rows = _breathe_reference_rows()
    assert checks.check_reference(checks.sweep_values(rows), ref) == []
    shifted = list(rows)
    shifted[5] = replace(rows[5], lambda_m=rows[5].lambda_m + 1e-6)
    bad = checks.check_reference(checks.sweep_values(shifted), ref)
    assert len(bad) == 1 and "lambda_m" in bad[0]


def test_closed_form_check_rejects_a_broken_value():
    _, rows = _breathe_reference_rows()
    assert checks.check_breathe_closed_form(rows) == []
    broken = [replace(r, lambda_m=r.lambda_m + 1e-6)
              if r.word_id == "1-2" and r.alpha == 0.0 else r for r in rows]
    assert len(checks.check_breathe_closed_form(broken)) == 1
    assert math.isclose(checks.BREATHE_12_AT_ZERO, 2.2924316695611777)


def test_row_checks_reject_bracket_and_residual_violations():
    row = SweepRow(0.0, "w", 4, 1.0, 0.0, 0.0, 0.5, 1.5, 0.0, 0.0, 1e-13,
                   1.0)
    assert checks.check_sweep_rows([row], 1e-11) == []
    assert len(checks.check_sweep_rows(
        [replace(row, lambda_m=1.5 + 1e-6)], 1e-11)) == 1
    assert len(checks.check_sweep_rows(
        [replace(row, residual=2e-11)], 1e-11)) == 1
