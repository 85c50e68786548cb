"""trialg benchmark: seeded CLI workloads with exact oracles.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the program is imported from
the checkout's src/ directory, and nothing is installed.  One run:

1. starts one untimed process that imports trialg, which compiles the
   bytecode;
2. writes the workload's seeded inputs under .bench_work/ in the checkout;
3. starts one fresh worker process that runs the workload's op list
   through trialg.cli.main, pass after pass, for about S seconds, and
   before each pass times a fresh process that imports trialg and builds
   the CLI parser (setup_s is the fastest of these probes);
4. checks every op's answer against its oracle, prints the metrics one per
   line and, as the last line, one JSON object with the keys correct,
   attempted, failed and metrics.

With --trace 0 the metrics are the end-to-end ones (wall_s, op_p50_s,
op_tail_s, setup_s, peak_rss_mb).  With --trace 1 the worker runs untraced
passes for half of S and then traced passes, and the metrics are the per-layer
ones from tracing.PER_LAYER plus design.stressed_share.  Exit status is 0
whenever a result is printed, also when some op failed its oracle (then
"correct" is false); it is 2 when the checkout holds no trialg sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_LIMIT_S = 170  # the whole run, including set-up, must end before 180 s
TAIL_BEYOND = 10   # samples that must lie beyond the reported tail


def _fail(message: str) -> int:
    sys.stderr.write(f"bench: {message}\n")
    return 2


def _worker(*args, timeout):
    """Run worker.py in its own session; kill the whole group on timeout."""
    child_env = dict(os.environ)
    # every workload runs one process, the CLI default, whatever the caller set
    child_env.pop("TRIALG_JOBS", None)
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), *map(str, args)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True, env=child_env,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"worker {args[0]} exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited {proc.returncode}: {err.strip()[-2000:]}")
    return out


def _best(passes):
    """Each op's fastest latency over the passes.

    The host this benchmark was built on changes speed by up to 2x for
    seconds at a time, so medians over a run's passes move with the host;
    the fastest repetition of an op does not (the reason timeit reports
    minima).  setup_s is the fastest of its probes for the same reason,
    and the worker spreads those probes over the run.  op_tail_s is taken
    over every execution instead, so that slowness the program causes in
    only some passes still shows."""
    return [min(p["ops"][i]["latency"] for p in passes) for i in range(len(passes[0]["ops"]))]


def _tail(samples):
    """(value, percentile) at the highest percentile with TAIL_BEYOND samples
    beyond it; with too few samples for that, the largest one."""
    ordered = sorted(samples)
    i = len(ordered) - TAIL_BEYOND - 1
    if i < 0:
        i = len(ordered) - 1
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def _end_to_end(result):
    passes = result["passes"]
    best = _best(passes)
    every = [rec["latency"] for p in passes for rec in p["ops"]]
    tail, pct = _tail(every)
    of = f"{len(best)} per-op best latencies over {len(passes)} passes"
    metrics = {
        "wall_s": (sum(best), "s", f"sum of {of}"),
        "op_p50_s": (statistics.median(best), "s", f"median of {of}"),
        "op_tail_s": (tail, "s", f"p{pct:.1f} of all {len(every)} op latencies"),
        "setup_s": (min(result["setup_probes"]), "s",
                    f"fastest of {len(result['setup_probes'])} fresh processes, one per pass"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB", "worker ru_maxrss, MiB"),
    }
    for name, (value, unit, note) in metrics.items():
        print(f"{name:<12} {value:12.6f} {unit:<3} ({note})")
    return {name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()}


# Design check: the modules each workload was built to stress carry most of
# the self time of its traced passes.  Self time is at most inclusive time,
# so this also shows e.g. that iso.search.s is most of an iso pass.  The
# share is reported as the metric DESIGN_SHARE; it does not touch "correct",
# which speaks only of the program's answers (a change that makes the
# stressed layer fast may rightly push the share below one half).
DESIGN_SHARE = ("design.stressed_share", "1")
_STRESSED = {
    "replay": ("iso", "polysolve"),
    "express": ("polysolve",),
    "iso": ("iso",),
    "tensor": ("identities", "msc"),
}


def _per_layer(workload, result, spans):
    traced = [p for p in result["passes"] if p["traced"]]
    untraced = [p for p in result["passes"] if not p["traced"]]
    overhead = sum(_best(traced)) - sum(_best(untraced))
    metrics = tracing.layer_metrics(spans, len(traced), overhead)
    wall = sum(p["wall"] for p in traced)
    shares = tracing.module_shares(spans, wall)
    print(f"{len(untraced)} untraced and {len(traced)} traced passes; "
        "per-layer values are per traced pass")
    for name, m in metrics.items():
        print(f"{name:<40} {m['value']:16.6f} {m['unit']}")
    print("self-time share by module: " + ", ".join(
        f"{k} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
    share = sum(shares.get(m, 0.0) for m in _STRESSED[workload])
    print(f"design check [{workload}]: {' + '.join(_STRESSED[workload])} self time is "
        f"{share:.1%} of the traced passes -- {'ok' if share > 0.5 else 'NOT MET'}")
    name, unit = DESIGN_SHARE
    metrics[name] = {"value": share, "unit": unit}
    return metrics


def _bench(args, work):
    import workloads

    deadline = time.monotonic() + RUN_LIMIT_S

    _worker("setup", SRC, timeout=deadline - time.monotonic())
    manifest = workloads.build(args.workload, args.seed, work)
    _worker("run", SRC, work, args.seconds, args.trace,
            timeout=deadline - time.monotonic())
    result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    ops = manifest["ops"]
    passes = []
    for k, p in enumerate(result["passes"]):
        passes.append([
            (rec["code"], (work / "out" / f"{k}-{op['id']}.txt").read_text(encoding="utf-8"),
             rec["error"])
            for op, rec in zip(ops, p["ops"])
        ])
    failed = workloads.failures(ops, passes)
    attempted = sum(len(p) for p in passes)
    print(f"workload {args.workload}  seed {args.seed}  ops/pass {len(ops)}  "
        f"passes {len(passes)}  trace {args.trace}")
    for k, op_id, reason in failed[:20]:
        print(f"FAILED pass {k} op {op_id} {' '.join(ops[op_id]['argv'])}: {reason}")
    print(f"fail_ratio   {len(failed) / attempted:12.6f} 1   "
        f"({len(failed)} of {attempted} ops failed)")
    if args.trace:
        spans = json.loads((work / "spans.json").read_text(encoding="utf-8"))
        metrics = _per_layer(args.workload, result, spans)
    else:
        metrics = _end_to_end(result)
    return {"correct": not failed, "attempted": attempted, "failed": len(failed),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "trialg" / "__init__.py").is_file():
        return _fail(f"no trialg sources under {SRC}; run from a source checkout")
    if args.seconds <= 0:
        return _fail("--seconds must be positive")
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        report = _bench(args, work)
    except RuntimeError as exc:
        return _fail(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
