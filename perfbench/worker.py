"""One benchmark process: a fresh interpreter that runs one workload's ops.

Started by run.py, never imported by it.  It loads `pwenum` from the
checkout's `src/`, checks the worked-example corpus against a stored
digest, then calls `pwenum.cli.main(argv)` in-process for each op, one
after another (a closed loop with one client), with stdout and stderr
captured.  Right before each op it times the host speed probe (probe.py),
outside the op's own time.  It prints one JSON object describing the run.

    python3 perfbench/worker.py --workload W --seed N (--seconds S | --ops N) [--spans FILE]
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from itertools import islice
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

from probe import probe_ms  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# sha256 of `pwenum paper-examples` stdout: every worked example passes.
PAPER_EXAMPLES_SHA256 = "271860abbf8ae684b972387f9a2e71cada04e045d4e6a457c44729e34c165295"


def _import_pwenum():
    import pwenum
    import pwenum.cli

    if Path(pwenum.__file__).resolve().parent != SRC / "pwenum":
        raise SystemExit(f"imported pwenum from {pwenum.__file__}, not from {SRC}")
    return pwenum.cli


def call(cli, argv):
    """Run one CLI invocation in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except Exception:  # an op that crashes is a failed op, not a failed run
        code = None
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def run(workload, seed, seconds, n_ops, tracer) -> dict:
    cli = _import_pwenum()
    code, out, _ = call(cli, ["paper-examples"])
    digest_ok = code == 0 and hashlib.sha256(out.encode()).hexdigest() == PAPER_EXAMPLES_SHA256
    if tracer is not None:
        tracer.install()

    ops = workload.ops(seed)
    if n_ops:
        ops = islice(ops, n_ops)
    records, errors = [], []
    start = perf_counter()
    deadline = start + seconds
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.begin_op(index)
        probe = probe_ms()
        t0 = perf_counter()
        code, out, err = call(cli, op["argv"])
        latency = perf_counter() - t0
        ok = code == 0 and out == f"{op['kind']}: EQUAL\n"
        if not ok and len(errors) < 5:
            errors.append({"op": index, "argv": op["argv"], "exit": code, "stdout": out, "stderr": err})
        record = {k: v for k, v in op.items() if k != "argv"}
        outcome = [code, hashlib.sha256(out.encode()).hexdigest()[:16]]
        record.update(ms=latency * 1e3, probe_ms=probe, ok=ok, outcome=outcome)
        records.append(record)
        if not n_ops and (index + 1) % workload.cycle == 0 and perf_counter() >= deadline:
            break
    wall = perf_counter() - start
    result = {
        "digest_ok": digest_ok,
        "wall_s": wall,
        "ops": records,
        "errors": errors,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["self_ms"] = {k: v / 1e6 for k, v in tracer.self_ns.items()}
        result["calls"] = dict(tracer.calls)
        result["counts"] = dict(tracer.counts)
        result["code_sizes"] = [min(tracer.code_sizes), max(tracer.code_sizes)] if tracer.code_sizes else None
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0.0, help="time-bounded run")
    parser.add_argument("--ops", type=int, default=0, help="run exactly this many ops instead")
    parser.add_argument("--spans", help="trace the layers; write the raw spans to this file")
    args = parser.parse_args(argv)
    tracer = None
    if args.spans:
        from spans import Tracer

        tracer = Tracer()
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, args.ops, tracer)
    if tracer is not None:
        with open(args.spans, "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
