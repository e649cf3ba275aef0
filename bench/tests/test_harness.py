"""Tests of the benchmark harness itself (not of oscsym).

    python3 -m pytest bench/tests
"""

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import host  # noqa: E402
import reference as R  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402
from spans import Tracer  # noqa: E402


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    plan = W.WORKLOADS[name].plan
    assert json.dumps(plan(7)) == json.dumps(plan(7))
    assert json.dumps(plan(7)) != json.dumps(plan(8))


def test_thermal_mix_is_the_same_for_every_seed():
    def mix(seed):
        counts = {}
        for op in W.thermal_plan(seed):
            key = op.get("source", op["kind"])
            counts[key] = counts.get(key, 0) + 1
        return counts
    assert mix(1) == mix(2)


def _thermal_ops(plan):
    ctx = W.Context(root=ROOT, env=run.child_env())
    return W.thermal_prepare(plan, ctx)


def _run(ops, plan):
    return run.run_loop(plan, ops, Tracer(enabled=False), count=len(ops))


def test_gate_passes_unperturbed_purity():
    plan = [{"kind": "pipeline", "source": "couple", "param": 1.0, "keep": 1}]
    out = _run(_thermal_ops(plan), plan)
    assert out.failures == [] and out.correct


def test_gate_flags_perturbed_purity(monkeypatch):
    from oscsym import phase_space as ps
    plan = [{"kind": "pipeline", "source": "couple", "param": 1.0, "keep": 1}]
    ops = _thermal_ops(plan)
    real = ps.gaussian_purity
    monkeypatch.setattr(ps, "gaussian_purity", lambda cov: real(cov) * (1 + 1e-9))
    out = _run(ops, plan)
    assert len(out.failures) == 1
    assert out.failures[0]["layer"] == "phase_space.gaussian_purity"
    assert not out.correct  # an unexplained mismatch, not a known defect


def test_gate_flags_perturbed_residual(monkeypatch):
    from oscsym import fock
    plan = [{"kind": "ladder", "order": [12]}]
    ops = W.fock_prepare(plan, None)
    real = fock.verify_fock_commutators

    def perturbed(nmax, tolerance):
        rep = real(nmax, tolerance)
        residuals = dict(rep.residuals)
        residuals[next(iter(residuals))] = 1e-9
        return type(rep)(rep.family, rep.tolerance, residuals)

    monkeypatch.setattr(fock, "verify_fock_commutators", perturbed)
    out = _run(ops, plan)
    assert len(out.failures) == 1
    assert out.failures[0]["layer"].startswith("fock.verify_fock_commutators.nmax")
    assert not out.correct


def test_gate_flags_perturbed_cli_purity():
    ref = R.pipeline_ref(R.coupling_matrix(1.0), 1, True, 1.0)
    cells = {"purity": repr(ref.purity), "entropy": repr(ref.entropy), "subvacuum": "false",
             "area1": repr(ref.area1), "area2": repr(ref.area2),
             "area_product": repr(ref.area1 * ref.area2), "canonical": "true",
             "temperature": repr(ref.temperature)}
    W.check_simulate(cells, ref, {})
    cells["purity"] = repr(ref.purity + 1e-10)
    with pytest.raises(R.GateError):
        W.check_simulate(cells, ref, {})


def test_known_defect_needs_its_range_and_layer():
    op = {"kind": "pipeline", "source": "couple", "param": 10.0, "keep": 1}
    assert W.known_defect(op, "phase_space.evolve") == "pd-check"
    assert W.known_defect(dict(op, param=2.0), "phase_space.evolve") is None
    assert W.known_defect(op, "phase_space.gaussian_purity") is None


@pytest.mark.parametrize("seed", [1, 2])
def test_thermal_plan_stays_below_every_defect_onset(seed):
    assert not any(W.defects_in_range(op) for op in W.thermal_plan(seed))


def test_defect_probe_lies_in_each_defect_zone():
    plan = W.defect_plan(5)
    assert len(plan) == W.DEFECT_PROBES * len(W.KNOWN_DEFECTS)
    for op in plan:
        d = next(d for d in W.KNOWN_DEFECTS if d.name == op["defect"])
        assert d in W.defects_in_range(op) and abs(op["param"]) <= d.max_param


def test_defect_probe_counts_failures_per_defect(monkeypatch):
    from oscsym import phase_space as ps

    def broken(state, m):
        raise ps.SubVacuumError("broken on purpose")

    monkeypatch.setattr(ps, "evolve", broken)  # every pipeline probe fails
    probe = run.probe_defects(5, W.Context(root=ROOT, env=run.child_env()))
    assert set(probe) == {d.name for d in W.KNOWN_DEFECTS}
    assert all(e["probes"] == W.DEFECT_PROBES for e in probe.values())
    assert all(probe[d.name]["failed"] == W.DEFECT_PROBES
               for d in W.KNOWN_DEFECTS if "couple" in d.subjects or "K1" in d.subjects)


def test_fock_plan_holds_whole_passes():
    plan = W.fock_plan(3)
    assert len(plan) == W.FOCK_PARAMS["passes"]
    assert all(sorted(op["order"]) == W.FOCK_PARAMS["nmax"] for op in plan)


def test_timed_loop_ends_on_a_block_and_makes_every_pause():
    plan = [{"kind": "noop"}] * 6
    ops = [lambda t, errors: None] * 6
    calls = []
    out = run.run_loop(plan, ops, Tracer(enabled=False), seconds=0.01, block=3,
                       pause=lambda: calls.append(1), pauses=4)
    assert len(calls) == 4
    assert len(out.latencies) % 3 == 0 and out.failures == []


def test_host_scale_follows_the_nearest_kernel_samples(monkeypatch):
    monkeypatch.setattr(host, "WINDOW_S", 0.5)
    samples = [(float(t), 1.0 if t < 5 else 2.0) for t in range(10)]
    assert host.scale([(1.5, 1.5), (8.5, 8.5)], samples) == [1.0, 0.5]


def test_timed_loop_samples_the_host_kernel_off_the_clock(monkeypatch):
    monkeypatch.setattr(host, "slowness", lambda: 2.0)
    plan = [{"kind": "noop"}]
    out = run.run_loop(plan, [lambda t, errors: None], Tracer(enabled=False), count=5)
    assert len(out.kernel) >= 2 and len(out.starts) == 5
    assert out.scaled_latencies() == [t / 2 for t in out.latencies]
    out = run.run_loop(plan, [lambda t, errors: None], Tracer(enabled=False), count=5,
                       scaled=False)
    assert out.kernel == [] and out.scaled_latencies() == out.latencies


def test_parse_importtime():
    stderr = ("import time: self [us] | cumulative | imported package\n"
              "import time:       120 |        340 |   numpy.core\n"
              "import time:      1000 |     140000 | numpy\n")
    assert run.parse_importtime(stderr) == pytest.approx({"numpy.core": 340e-6, "numpy": 0.14})


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        run.per_layer_catalogue()
