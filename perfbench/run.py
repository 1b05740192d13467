"""pwenum benchmark: seeded workloads of `pwenum verify` calls, end to end or traced.

    python3 perfbench/run.py --workload byte-wide --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program under test is `src/pwenum`,
imported from source.  Each workload runs in a fresh interpreter
(perfbench/worker.py) as a closed loop: one client, one process, no threads.

--trace 0  runs ops for --seconds, measures set-up several times around
           them, and prints the end-to-end metrics.  Every timing is scaled
           to one fixed host speed by a probe timed next to it (probe.py).
--trace 1  runs a fixed number of ops (whole cycles, about the workload's
           trace rate times --seconds / 2) twice, untraced and traced,
           checks that both give the same outcomes, and prints the
           per-layer metrics.  The op count depends only on --seconds, so
           counts repeat exactly for a seed.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The line before it holds the run metadata.
Details, seeds and baseline numbers: perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import monotonic, perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

from probe import REFERENCE_MS  # noqa: E402
from workloads import RINGS, WORKLOADS, descriptors  # noqa: E402

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
SETUP_REPEATS = 11
SMOKE_OPS = 4
DEADLINE_S = 170  # the whole run, every child included, must end before this

# What a CLI call pays before its first op: interpreter start, import, the
# workload's first ring and its character.  Then the same interpreter times
# the speed probe and prints its fastest pass and the ms spent on probing,
# which the parent takes off the set-up time.
SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src'); import pwenum.cli as cli; "
    "cli.default_character(cli.parse_ring_spec(sys.argv[1])); "
    "from time import perf_counter as pc; t0 = pc(); sys.path.insert(0, 'perfbench'); "
    "from probe import probe_ms; p = min(probe_ms() for _ in range(3)); "
    "print(p, (pc() - t0) * 1e3)"
)

# Per-layer metrics read from the traced run.  A name is the span name
# plus a suffix: .ms or .self_ms for self time, .calls for the call count.
SELF_MS = (
    "rings.make_ring.ms",
    "rings.default_character.ms",
    "codes.span.ms",
    "codes.dual_code.ms",
    "macwilliams.byte_transform.ms",
    "macwilliams.complete_transform.ms",
    "macwilliams.level_transform.ms",
    "macwilliams.mspotty_transform.ms",
    "macwilliams.verify_identity.self_ms",
    "enumerators.weight_spectrum.ms",
    "enumerators.byte_enumerator.ms",
    "enumerators.complete_level_enumerator.ms",
    "enumerators.level_enumerator.ms",
    "enumerators.mspotty_enumerator.ms",
    "cli.main.self_ms",
)
CALLS = (
    "rings.make_ring.calls",
    "rings.default_character.calls",
    "enumerators.weight_spectrum.calls",
)
COUNTS = (
    "codes.dual_code.ambient_words",
    "macwilliams.byte_transform.pairs",
    "macwilliams.complete_transform.cells",
)


class BenchError(Exception):
    """The run cannot produce a result; reported on stderr, exit code 2."""


def child(cmd, deadline):
    """Run cmd from the checkout root to completion; returns (seconds, stdout)."""
    remaining = deadline - monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a child process")
    t0 = perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"timed out: {cmd}") from None
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"{cmd} exited {proc.returncode}:\n{proc.stderr}")
    return elapsed, proc.stdout


def worker(args, deadline) -> dict:
    _, stdout = child([sys.executable, str(HERE / "worker.py"), *args], deadline)
    return json.loads(stdout.strip().splitlines()[-1])


def percentile(values, p):
    """Inclusive-method percentile p (0-100) of at least two values."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_metadata(workload, seed, ops, extra):
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": workload.name,
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "descriptors": {**descriptors(ops), **extra},
    }


def git_sha():
    """HEAD of the checkout, or None when it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def scaled(value, probe):
    """A timing taken while the probe took `probe` ms, at the reference speed."""
    return value * REFERENCE_MS / probe


def setup_once(ring_spec, deadline):
    """(set-up seconds, probe ms) of one fresh interpreter."""
    wall, stdout = child([sys.executable, "-c", SETUP_CODE, ring_spec], deadline)
    probe, probing_ms = map(float, stdout.split())
    return wall - probing_ms / 1e3, probe


def end_to_end(workload, seed, seconds, smoke, deadline):
    ring_spec = RINGS[workload.first_ring][0]
    args = ["--workload", workload.name, "--seed", str(seed)]
    args += ["--ops", str(SMOKE_OPS)] if smoke else ["--seconds", str(seconds)]
    # Set-ups before and after the ops, so that they sample the host's speed
    # over the whole run and not over its first second alone.
    repeats = 1 if smoke else SETUP_REPEATS
    setups = [setup_once(ring_spec, deadline) for _ in range(repeats // 2)]
    res = worker(args, deadline)
    setups += [setup_once(ring_spec, deadline) for _ in range(repeats - repeats // 2)]
    ops = res["ops"]
    latencies = [scaled(op["ms"], op["probe_ms"]) for op in ops]
    ok = sum(op["ok"] for op in ops)
    # Closed loop, one client: throughput is successful ops per second of op time.
    metrics = {
        "ops_per_s": metric(ok / (sum(latencies) / 1e3), "1/s"),
        "op_p50_ms": metric(percentile(latencies, 50), "ms"),
        "op_p90_ms": metric(percentile(latencies, 90), "ms"),
        "setup_s": metric(statistics.median(scaled(s, p) for s, p in setups), "s"),
        "peak_rss_mb": metric(res["maxrss_kb"] / 1024, "MB"),
    }
    failed = len(ops) - ok + (not res["digest_ok"])
    # The worked-example gate counts as one attempted op.
    result = {"correct": failed == 0, "attempted": len(ops) + 1, "failed": failed, "metrics": metrics}
    raw = [op["ms"] for op in ops]
    extra = {
        "latency_samples": len(ops),
        "loop_wall_s": res["wall_s"],
        "probe_ms_median": statistics.median(op["probe_ms"] for op in ops),
        "unscaled": {
            "ops_per_s": ok / (sum(raw) / 1e3),
            "op_p50_ms": percentile(raw, 50),
            "op_p90_ms": percentile(raw, 90),
            "setup_runs_s": [s for s, _ in setups],
            "setup_probes_ms": [p for _, p in setups],
        },
    }
    return result, ops, res["errors"], extra


def per_layer(workload, seed, seconds, smoke, deadline):
    # Two passes of half the run each, so a traced run takes about --seconds.
    cycles = max(1, round(workload.trace_rate * seconds / 2 / workload.cycle))
    n_ops = SMOKE_OPS if smoke else cycles * workload.cycle
    args = ["--workload", workload.name, "--seed", str(seed), "--ops", str(n_ops)]
    plain = worker(args, deadline)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{workload.name}-seed{seed}.spans.jsonl"
    traced = worker([*args, "--spans", str(spans_path)], deadline)

    same = [op["outcome"] for op in plain["ops"]] == [op["outcome"] for op in traced["ops"]]
    self_ms, calls, counts = traced["self_ms"], traced["calls"], traced["counts"]
    metrics = {key: metric(self_ms.get(span_name(key), 0.0), "ms") for key in SELF_MS}
    metrics.update({key: metric(calls.get(span_name(key), 0), "count") for key in CALLS})
    metrics.update({key: metric(counts.get(key, 0), "count") for key in COUNTS})
    metrics["codes.dual_code.yield"] = metric(
        ratio(counts.get("codes.dual_code.dual_words", 0), counts.get("codes.dual_code.ambient_words", 0)),
        "ratio",
    )
    metrics["enumerators.weight_spectrum.repeat_ratio"] = metric(
        ratio(counts.get("enumerators.weight_spectrum.repeats", 0), calls.get("enumerators.weight_spectrum", 0)),
        "ratio",
    )
    metrics["trace.overhead_frac"] = metric(traced["wall_s"] / plain["wall_s"] - 1, "ratio")

    attempted = 2 * (n_ops + 1)
    failed = sum(not op["ok"] for op in plain["ops"] + traced["ops"])
    failed += (not plain["digest_ok"]) + (not traced["digest_ok"])
    metrics["failed_frac"] = metric(failed / attempted, "ratio")
    extra = {
        "trace_ops": n_ops,
        "outcomes_match": same,
        "untraced_wall_s": plain["wall_s"],
        "traced_wall_s": traced["wall_s"],
        "code_size_range": traced["code_sizes"],
        "byte_transform_pairs": counts.get("macwilliams.byte_transform.pairs", 0),
        "complete_transform_cells": counts.get("macwilliams.complete_transform.cells", 0),
        "self_ms_total": sum(self_ms.values()),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    result = {"correct": failed == 0 and same, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, traced["ops"], plain["errors"] + traced["errors"], extra


def span_name(key):
    return key.rsplit(".", 1)[0]


def ratio(num, den):
    return num / den if den else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help=f"{SMOKE_OPS} ops, one set-up")
    args = parser.parse_args(argv)
    deadline = monotonic() + DEADLINE_S

    if not (ROOT / "src" / "pwenum" / "__init__.py").is_file():
        print(f"perfbench: no pwenum sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    measure = per_layer if args.trace else end_to_end
    try:
        result, ops, errors, extra = measure(workload, args.seed, args.seconds, args.smoke, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for err in errors:
        print(f"perfbench: failed op {json.dumps(err)}", file=sys.stderr)

    meta = run_metadata(workload, args.seed, ops, extra)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"meta": meta, "metrics": result["metrics"], "ops": ops}, fh)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
