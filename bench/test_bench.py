"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py -q"""

import json
import re
import sys
from array import array
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import modmaj  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer, durations, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CONFIG = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture
def restore_modmaj():
    """Undo Tracer.install: put back every modmaj module's original bindings."""
    saved = {name: dict(vars(mod)) for name, mod in sys.modules.items() if name.startswith("modmaj")}
    yield
    for name, namespace in saved.items():
        vars(sys.modules[name]).update(namespace)


def test_self_time_arithmetic_on_synthetic_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3];
    # d [6, 12] overruns b, so only its part inside b, [6, 9], counts against b.
    labels = ["root", "a", "c", "b", "d"]
    parent = array("i", [-1, 0, 1, 0, 3])
    start = array("d", [0.0, 1.0, 2.0, 5.0, 6.0])
    end = array("d", [10.0, 4.0, 3.0, 9.0, 12.0])
    stats = self_times(labels, parent, start, end)
    assert stats["root"] == {"calls": 1, "total_s": 10.0, "self_s": 10.0 - 3.0 - 4.0}
    assert stats["a"]["self_s"] == 2.0
    assert stats["c"]["self_s"] == 1.0
    assert stats["b"]["self_s"] == 1.0
    assert stats["d"]["self_s"] == 6.0
    assert durations(labels, "a", start, end) == [3.0]


def test_overlapping_children_are_covered_once():
    labels = ["p", "x", "y"]
    parent = array("i", [-1, 0, 0])
    start = array("d", [0.0, 1.0, 2.0])
    end = array("d", [10.0, 5.0, 6.0])
    assert self_times(labels, parent, start, end)["p"]["self_s"] == 5.0


def test_names_match_the_name_pattern():
    names = [w["name"] for w in CONFIG["workloads"]]
    names += [m["name"] for m in CONFIG["end_to_end"] + CONFIG["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert sorted(w["name"] for w in CONFIG["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("kind", ["span", "eager", "count"])
def test_wrapper_leaves_return_values_unchanged(kind):
    tracer = Tracer()
    fn = modmaj.partitions_of if kind == "eager" else modmaj.hook_lengths
    wrapped = tracer.wrap("probe", fn, kind)
    lam = modmaj.Partition((4, 2, 1))
    if kind == "eager":
        assert list(wrapped(7)) == list(fn(7))
    else:
        assert wrapped(lam) == fn(lam)
    assert wrapped.__name__ == fn.__name__
    if kind == "count":
        assert tracer.counters["probe.calls"] == 1
    else:
        assert len(tracer.start) == 1


def test_installed_tracer_keeps_results_and_wraps_caller_bindings(restore_modmaj):
    lam = modmaj.Partition((5, 3, 2, 2))
    before = (
        modmaj.amod_by_qhook(lam),
        modmaj.amod_by_character_formula(lam),
        list(modmaj.modular.parallel_map(modmaj.dimension, [lam, lam], 2)),
    )
    original = modmaj.qpoly.amod_by_qhook
    tracer = Tracer()
    tracer.install()
    assert modmaj.modular.amod_by_qhook.__wrapped__ is original
    assert modmaj.cli.amod_by_qhook is modmaj.modular.amod_by_qhook is modmaj.qpoly.amod_by_qhook
    after = (
        modmaj.modular.amod_by_qhook(lam),
        modmaj.cli.amod_by_character_formula(lam),
        list(modmaj.modular.parallel_map(modmaj.dimension, [lam, lam], 2)),
    )
    assert after == before
    assert tracer.counters["modular.pools_opened"] == 1
    assert tracer.counters["modular.pool_first_result_s"] > 0


def test_traced_sweep_emits_every_per_layer_metric(tmp_path, restore_modmaj):
    spec = dict(WORKLOADS["classify"], argv=["verify", "--n-max", "8", "--format", "json"], digest=None)
    tracer = Tracer()
    result = worker.sweep(spec, 0, str(tmp_path / "report.json"), tracer)
    assert result["failed"] == spec["shapes"]  # no recorded digest: every shape fails
    layers = result["layers"]
    # run.py adds the metrics that compare traced and untraced repetitions.
    expected = {m["name"] for m in CONFIG["per_layer"]} - {"trace.overhead_s", "host.raw_sweep_s", "host.snippet_ms"}
    assert set(layers) == expected
    assert layers["qpoly.amod_by_qhook.calls"] == sum(1 for n in range(1, 9) for _ in modmaj.partitions_of(n))
    # Self times partition the root span, which is the timed region.
    assert layers["trace.self_total_s"] == pytest.approx(layers["trace.wall_s"], abs=1e-3)
    assert layers["cli.report_bytes"] == (tmp_path / "report.json").stat().st_size


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_sweep_samples_host_speed_between_shapes(workload, tmp_path, restore_modmaj, monkeypatch):
    spec = dict(WORKLOADS[workload], digest=None)
    if spec["argv"]:
        spec["argv"] = list(spec["argv"])
        spec["argv"][spec["argv"].index("--n-max") + 1] = "9"
        shapes = sum(1 for n in range(1, 10) for _ in modmaj.partitions_of(n))
    else:
        monkeypatch.setattr(worker, "ROUTES_N_MAX", 6)
        monkeypatch.setattr(worker, "INDUCED_N_MAX", 7)
        shapes = sum(1 for n in range(1, 7) for _ in modmaj.partitions_of(n))
        shapes += sum(1 for n in range(1, 8) for _ in modmaj.partitions_of(n))
    monkeypatch.setattr(worker, "SNIPPET_EVERY_S", 0.0)  # sample after every shape
    result = worker.sweep(spec, 1, str(tmp_path / "report.json"), None)
    if not spec["argv"]:
        assert result["failed"] == 0
    jobs = 2 if workload == "classify-j2" else 1  # pool workers tick side by side
    spent = (result["wall_s"] - result["raw_s"]) * jobs
    assert 0 < spent < result["wall_s"] * jobs
    assert result["snippet_s"] == pytest.approx(spent / shapes)
    assert result["sweep_s"] == pytest.approx(result["raw_s"] * worker.SNIPPET_REF_S / result["snippet_s"])
