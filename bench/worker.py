"""Fresh-process side of the benchmark; run.py starts it, never a user.

    worker.py setup SRC
        import trialg, call cli.build_parser() and print the seconds taken.

    worker.py run SRC WORKDIR SECONDS TRACE
        run the ops of WORKDIR/manifest.json through trialg.cli.main, pass
        after pass, while another pass of the longest length seen still fits
        in SECONDS.  Before each pass, time one fresh ``worker.py setup``
        process (a set-up probe), so that the probes are spread over the
        run like the passes.  Each op's stdout goes to
        WORKDIR/out/<pass>-<op>.txt and the timings to WORKDIR/result.json.
        With TRACE=1 the passes of the first half of SECONDS run untraced
        and the rest traced (at least one of each); spans go to
        WORKDIR/spans.json.

Each workload run gets its own worker process, so the peak resident size
reported here belongs to that workload alone.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

import tracing


def _setup(src: str) -> None:
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    from trialg import cli
    cli.build_parser()
    print(repr(time.perf_counter() - t0))


def _probe(src: str) -> float:
    """Set-up seconds of one fresh process; see _setup."""
    out = subprocess.run([sys.executable, str(Path(__file__).resolve()), "setup", src],
                         capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout)


def _run_op(cli, argv, tracer, op_id):
    out, err = io.StringIO(), io.StringIO()
    code = error = None
    span = tracer.op(op_id) if tracer else contextlib.nullcontext()
    t0 = time.perf_counter()
    try:
        with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except Exception as exc:  # an op that raises is a failed op, not a failed run
        error = f"{type(exc).__name__}: {exc}"
    return code, error, time.perf_counter() - t0, out.getvalue()


def _run(src: str, workdir: str, seconds: float, trace: bool) -> None:
    sys.path.insert(0, src)
    from trialg import cli

    work = Path(workdir)
    ops = json.loads((work / "manifest.json").read_text(encoding="utf-8"))["ops"]
    outdir = work / "out"
    outdir.mkdir(exist_ok=True)
    tracer = None
    passes = []
    probes = []
    longest = 0.0
    start = time.perf_counter()
    while True:
        if trace and tracer is None and passes and time.perf_counter() - start >= seconds / 2:
            tracer = tracing.Tracer()
            tracer.install()
        t0 = time.perf_counter()
        probes.append(_probe(src))
        records = []
        t1 = time.perf_counter()
        for op in ops:
            code, error, latency, text = _run_op(cli, op["argv"], tracer, op["id"])
            (outdir / f"{len(passes)}-{op['id']}.txt").write_text(text, encoding="utf-8")
            records.append({"code": code, "error": error, "latency": latency})
        wall = time.perf_counter() - t1
        passes.append({"traced": tracer is not None, "wall": wall, "ops": records})
        longest = max(longest, time.perf_counter() - t0)
        if (tracer is not None or not trace) and time.perf_counter() - start + longest > seconds:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        (work / "spans.json").write_text(json.dumps(tracer.spans), encoding="utf-8")
    (work / "result.json").write_text(
        json.dumps({"passes": passes, "setup_probes": probes, "peak_rss_kb": peak_kb}),
        encoding="utf-8")


def main(argv) -> int:
    if len(argv) == 3 and argv[1] == "setup":
        _setup(argv[2])
        return 0
    if len(argv) == 6 and argv[1] == "run":
        _run(argv[2], argv[3], float(argv[4]), argv[5] == "1")
        return 0
    sys.stderr.write(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
