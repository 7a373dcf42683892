"""modmaj benchmark: run one workload for a fixed time and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src``.  A run repeats the workload's sweep, each repetition in a fresh
interpreter (bench/worker.py), until S seconds have passed, then reports
medians over the repetitions.  ``sweep_s`` is the sweep's time scaled to a
reference host speed, measured by a snippet timed between shapes (see
bench/worker.py); ``setup_s`` is the median over every repetition's
set-up plus SETUP_SPAWNS set-up-only interpreters, as measured.  With
``--trace 1`` the run alternates untraced and traced repetitions and
reports the per-layer metrics instead; ``trace.overhead_s`` is the traced
minus the untraced median wall time, both without the snippet's time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; metric names and
units come from BENCHMARK.json.  Scratch files live in ``.bench_out``.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SPAWNS = 10
REP_TIMEOUT_S = 150  # one repetition; the whole run must end within 180 s
RUN_CAP_S = 150  # no repetition starts when it could end after this


def spawn(workload: str, seed: int, trace: int, out_dir: Path, index: int) -> dict | None:
    """Run one repetition in a fresh interpreter; None when it produced no result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed), str(trace), str(out_dir), str(index)]
    proc = subprocess.Popen(
        cmd + [repr(time.monotonic())],
        cwd=ROOT, env=env, stdout=sys.stderr, start_new_session=True,
    )
    try:
        code = proc.wait(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        # The repetition leads its own process group; any process it left behind goes too.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    path = out_dir / f"rep{index}.json"
    if code != 0 or not path.exists():
        print(f"bench: repetition {index} of {workload} exited with {code}", file=sys.stderr)
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def run(workload: str, seed: int, seconds: int, trace: int, metric_units: dict) -> dict:
    spec = WORKLOADS[workload]
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=ROOT / ".bench_out"))
    try:
        reps: list[tuple[int, dict | None]] = []
        started = time.monotonic()
        longest = 0.0
        while True:
            rep_trace = trace and len(reps) % 2
            t = time.monotonic()
            reps.append((rep_trace, spawn(workload, seed, rep_trace, out_dir, len(reps))))
            longest = max(longest, time.monotonic() - t)
            elapsed = time.monotonic() - started
            # Stop before a repetition that would overrun the measuring time.
            enough = elapsed + longest > seconds and (not trace or len(reps) >= 2)
            if enough or elapsed + longest > RUN_CAP_S:
                break
        if trace:
            spans = out_dir / "spans.pkl"
            if spans.exists():
                shutil.copyfile(spans, ROOT / ".bench_out" / f"spans-{workload}.pkl")
        setups = [r["setup_s"] for _, r in reps if r]
        if not trace:
            for i in range(SETUP_SPAWNS):
                r = spawn("setup", seed, 0, out_dir, len(reps) + i)
                if r:
                    setups.append(r["setup_s"])
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    done = [(t, r) for t, r in reps if r]
    attempted = spec["shapes"] * len(reps)
    failed = sum(r["failed"] for _, r in done) + spec["shapes"] * (len(reps) - len(done))
    if not done:
        raise RuntimeError(f"no repetition of {workload} produced a result")
    plain = [r for t, r in done if not t]
    traced = [r for t, r in done if t]
    if trace:
        values = {
            name: median([r["layers"][name] for r in traced])
            for name in metric_units
            if not name.startswith(("trace.overhead_s", "host."))
        }
        values["trace.overhead_s"] = median([r["wall_s"] for r in traced]) - median(
            [r["raw_s"] for r in plain]
        )
        values["host.raw_sweep_s"] = median([r["raw_s"] for r in plain])
        values["host.snippet_ms"] = median([1000 * r["snippet_s"] for r in plain])
        digests = {r["digest"] for _, r in done}
        if len(digests) != 1 or len(traced) < 1:
            failed += spec["shapes"]
    else:
        values = {
            "sweep_s": median([r["sweep_s"] for r in plain]),
            "shapes_per_s": median([spec["shapes"] / r["sweep_s"] for r in plain]),
            "setup_s": median(setups),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
        }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in metric_units.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "modmaj" / "cli.py").is_file():
        print(f"bench: no modmaj sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    kind = "per_layer" if args.trace else "end_to_end"
    metric_units = {m["name"]: m["unit"] for m in config[kind]}
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace, metric_units)
    except RuntimeError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
