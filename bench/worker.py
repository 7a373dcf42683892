"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 bench/worker.py WORKLOAD SEED TRACE OUT_DIR INDEX T_SPAWN

T_SPAWN is the parent's ``time.monotonic()`` just before it started this
process, so set-up time covers interpreter start and ``import modmaj.cli``
up to the first library call.  Every lru_cache starts cold, as in a real
``modmaj`` invocation, and filling it is part of the sweep's time.  The
repetition writes its measurements to OUT_DIR/repINDEX.json; with
TRACE=1 it also records spans and writes them to OUT_DIR/spans.pkl.
WORKLOAD "setup" measures set-up only.

An untraced repetition also samples the host's speed while it sweeps:
between shapes, about every SNIPPET_EVERY_S seconds, it times ``snippet``,
a fixed piece of pure-Python work that runs no modmaj code.  Other
tenants of a shared host slow the snippet and the sweep alike, so the
sweep's time divided by the snippet's mean time is a cost that the host's
drift leaves nearly unchanged.  ``sweep_s`` is that cost times
SNIPPET_REF_S, i.e. the sweep's seconds at a host speed where the snippet
takes SNIPPET_REF_S; the snippet's own time is not counted.
"""

import sys
import time

import modmaj.cli

READY = time.monotonic()

import contextlib  # noqa: E402  (imports after READY are not set-up of modmaj)
import functools  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from math import factorial  # noqa: E402

import modmaj  # noqa: E402
from tracer import PROBES, Tracer, durations, rebind, self_times  # noqa: E402
from workloads import INDUCED_N_MAX, ROUTES_N_MAX, WORKLOADS  # noqa: E402

LAYERS = ("bench", "cli", "modular", "characters", "qpoly", "tableaux", "numtheory", "partitions")


# Near the snippet's median time on the 2-vCPU x86-64 machine of
# baseline.json (Python 3.11.7), so sweep_s reads close to seconds there.
SNIPPET_REF_S = 0.00025
SNIPPET_EVERY_S = 0.02


def snippet() -> int:
    """Fixed pure-Python work (integer arithmetic and a small dict); no modmaj code."""
    counts: dict[int, int] = {}
    x = 3
    for i in range(1000):
        x = (x * 1000003 + i) % 1000000007
        counts[x & 255] = counts.get(x & 255, 0) + 1
    return x


class HostClock:
    """Times ``snippet`` between shapes, at most once per SNIPPET_EVERY_S seconds.

    The totals live in shared memory, so pool workers forked during the
    sweep add their samples to the parent's.
    """

    def __init__(self):
        self._totals = multiprocessing.RawArray("d", 2)  # samples, seconds
        self._lock = multiprocessing.Lock()
        self.last = float("-inf")  # each process's first tick always samples

    @property
    def samples(self) -> int:
        return int(self._totals[0])

    @property
    def spent_s(self) -> float:
        return self._totals[1]

    def tick(self) -> None:
        t = time.perf_counter()
        if t - self.last >= SNIPPET_EVERY_S:
            snippet()
            self.last = time.perf_counter()
            with self._lock:
                self._totals[0] += 1
                self._totals[1] += self.last - t

    def wrap(self, fn):
        """fn, ticking after every call."""

        def ticking(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                self.tick()

        return functools.update_wrapper(ticking, fn)


# ---------------------------------------------------------------- crosscheck


def crosscheck_inputs(seed: int):
    """Seed-shuffled shapes for both parts, and the whole-group class weights."""
    rng = random.Random(seed)
    routes = [lam for n in range(1, ROUTES_N_MAX + 1) for lam in modmaj.partitions_of(n)]
    induced = [lam for n in range(1, INDUCED_N_MAX + 1) for lam in modmaj.partitions_of(n)]
    rng.shuffle(routes)
    rng.shuffle(induced)
    tables = {}
    for n in range(1, INDUCED_N_MAX + 1):
        weights = {}
        for mu in modmaj.partitions_of(n):
            z = 1
            for part, mult in Counter(mu.parts).items():
                z *= part**mult * factorial(mult)
            weights[mu] = factorial(n) // z
        tables[n] = modmaj.ClassWeightTable(factorial(n), weights)
    return routes, induced, tables


def crosscheck(routes, induced, tables, tick=lambda: None) -> tuple[int, int]:
    """Failed shapes and tableaux enumerated; ``tick`` is called after each shape.

    Enumeration, q-hook and character formula must agree and sum to the
    hook-length dimension; inducing from the whole group must give the
    trivial character's multiplicity, 1 at (n) and 0 elsewhere.
    """
    failed = tableaux = 0
    for lam in routes:
        try:
            f = modmaj.dimension(lam)
            by_enum = modmaj.amod_by_enumeration(lam)
            tableaux += f
            ok = (
                by_enum == modmaj.amod_by_qhook(lam) == modmaj.amod_by_character_formula(lam)
                and by_enum.total() == f
            )
        except Exception:
            traceback.print_exc()
            ok = False
        failed += not ok
        tick()
    for lam in induced:
        try:
            ok = modmaj.induced_multiplicity(tables[lam.n], lam) == (lam.parts == (lam.n,))
        except Exception:
            traceback.print_exc()
            ok = False
        failed += not ok
        tick()
    return failed, tableaux


# ---------------------------------------------------------------- CLI sweeps


def check_report(spec, code, path) -> tuple[int, str | None]:
    """Failed shapes and the report digest.

    The recorded reports list every shape with no mismatch or violation,
    so the recorded digest after exit 0 passes every shape; anything else
    fails every shape.
    """
    try:
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return spec["shapes"], None
    return (0 if code == 0 and digest == spec["digest"] else spec["shapes"]), digest


# ---------------------------------------------------------------- per-layer


def layer_metrics(tracer: Tracer, wall_s: float, report_bytes: int, tableaux: int) -> dict:
    """Per-layer values of one traced sweep, named as in BENCHMARK.json."""
    by_id = self_times(tracer.name, tracer.parent, tracer.start, tracer.end)
    stats = {tracer.names[k]: v for k, v in by_id.items()}
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    out = {}
    for name, _, _, kind in PROBES:
        if kind != "count":
            out[name + ".calls"] = stats.get(name, zero)["calls"]
            out[name + ".self_s"] = stats.get(name, zero)["self_s"]
        else:
            out[name + ".calls"] = tracer.counters.get(name + ".calls", 0)
    for name in ("modular.pools_opened", "modular.pool_first_result_s"):
        out[name] = tracer.counters.get(name, 0)

    def ms_quantile(name, q):
        if name not in tracer.names:
            return 0.0
        ds = sorted(durations(tracer.name, tracer.names.index(name), tracer.start, tracer.end))
        if len(ds) < 2:
            return 1000 * ds[0]
        return 1000 * (statistics.median(ds) if q == 50 else statistics.quantiles(ds, n=100)[q - 1])

    out["qpoly.amod_by_qhook.p50_ms"] = ms_quantile("qpoly.amod_by_qhook", 50)
    out["qpoly.amod_by_qhook.p99_ms"] = ms_quantile("qpoly.amod_by_qhook", 99)
    out["modular.amod_by_character_formula.p99_ms"] = ms_quantile(
        "modular.amod_by_character_formula", 99
    )
    for metric, module, attr in (
        ("qpoly.q_factorial", "qpoly", "q_factorial"),
        ("characters.mn_memo", "characters", "_mn"),
    ):
        cached = getattr(getattr(modmaj, module), attr, None)
        info = cached.cache_info() if hasattr(cached, "cache_info") else None
        lookups = info.hits + info.misses if info else 0
        out[metric + ".lookups"] = lookups
        out[metric + ".hit_ratio"] = info.hits / lookups if lookups else 0.0
        if metric == "characters.mn_memo":
            out[metric + ".entries"] = info.currsize if info else 0
    enum_s = stats.get("tableaux.amod_by_enumeration", zero)["total_s"]
    out["tableaux.tableaux_per_s"] = tableaux / enum_s if enum_s else 0.0
    out["cli.report_bytes"] = report_bytes
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(
            s["self_s"] for name, s in stats.items() if name.split(".")[0] == layer
        )
    out["trace.wall_s"] = wall_s
    out["trace.self_total_s"] = sum(s["self_s"] for s in stats.values())
    out["trace.spans"] = len(tracer.start)
    return out


# ---------------------------------------------------------------- main


def sweep(spec, seed: int, report_path: str, tracer: Tracer | None) -> dict:
    """Run one timed sweep and check its output.

    A traced sweep records spans; an untraced one samples host speed.
    """
    inputs = crosscheck_inputs(seed) if spec["argv"] is None else None
    clock = None if tracer else HostClock()
    if tracer:
        tracer.install()
    elif spec["per_shape"]:
        module, attr = spec["per_shape"]
        original = getattr(sys.modules[module], attr)
        rebind(original, clock.wrap(original))
    t0 = time.perf_counter()
    with tracer.span("bench.sweep") if tracer else contextlib.nullcontext():
        if inputs:
            failed, tableaux = crosscheck(*inputs, clock.tick if clock else lambda: None)
        else:
            try:
                code = modmaj.cli.main(spec["argv"] + ["--out", report_path])
            except Exception:
                traceback.print_exc()
                code = None
    wall_s = time.perf_counter() - t0
    digest = None
    if not inputs:
        tableaux = 0
        failed, digest = check_report(spec, code, report_path)
    result = {
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed": failed,
        "digest": digest,
    }
    if clock:
        # Pool workers spend the snippet's time side by side.
        jobs = int(spec["argv"][spec["argv"].index("--jobs") + 1]) if spec["argv"] else 1
        raw_s = wall_s - clock.spent_s / jobs
        if clock.samples:
            snippet_s = clock.spent_s / clock.samples
        else:  # no shape was swept, so the checks above failed it; time one snippet
            t = time.perf_counter()
            snippet()
            snippet_s = time.perf_counter() - t
        result.update(raw_s=raw_s, snippet_s=snippet_s, sweep_s=raw_s * SNIPPET_REF_S / snippet_s)
    if tracer:
        report_bytes = os.path.getsize(report_path) if os.path.exists(report_path) else 0
        result["layers"] = layer_metrics(tracer, wall_s, report_bytes, tableaux)
    return result


def main() -> int:
    workload, seed, trace, out_dir, index, t_spawn = sys.argv[1:7]
    result = {"setup_s": READY - float(t_spawn)}
    if workload != "setup":
        tracer = Tracer() if trace == "1" else None
        report_path = os.path.join(out_dir, f"report{index}.json")
        result.update(sweep(WORKLOADS[workload], int(seed), report_path, tracer))
        if tracer:
            tracer.dump(os.path.join(out_dir, "spans.pkl"))
    with open(os.path.join(out_dir, f"rep{index}.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
