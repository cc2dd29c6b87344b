"""oddspectrum benchmark: one workload, one seed, one timed run.

    python3 bench/run.py --workload enum6_k5 --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from ./src.
With --trace 0 it reports the end-to-end metrics of BENCHMARK.json: set-up
time over fresh interpreters, peak RSS of a child that runs one pass, then
warm passes timed for --seconds. With --trace 1 it alternates untraced and
traced passes for --seconds and reports the per-layer metrics. Every pass is
checked; the last stdout line is the JSON result, and the exit code is 1 if
any result was wrong. Results and spans are also written under
.bench_build/oddspectrum/. See bench/README.md.
"""

from __future__ import annotations

import os

# Before numpy loads. One BLAS thread keeps runs steady; the matrices are at
# most 800 x 800, and the corpus scan's own threads use the other core.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_build" / "oddspectrum"
SETUP_SPAWNS = 7
CHILD_TIMEOUT_S = 120

SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import oddspectrum.cli
{call}
print(time.perf_counter() - t0)
"""

RSS_CHILD = """\
import resource, sys
from pathlib import Path
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
workloads.WORKLOADS[{name!r}]({seed!r}, Path({workdir!r})).run_pass()
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving it; 'unknown' if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(nproc: int, loadavg: tuple[float, float, float]) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": nproc,
        "git_commit": git_commit(),
        "loadavg_start": loadavg,
    }


class Tally:
    """Checked results over every pass of the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, wl) -> tuple[float, int]:
        """One checked pass: (seconds, work items). The clock covers the
        program's work only, not the check."""
        t0 = time.perf_counter()
        try:
            output = wl.run_pass()
            elapsed = time.perf_counter() - t0
            outcome = wl.check(output)
        except Exception:
            elapsed = time.perf_counter() - t0
            traceback.print_exc()
            self.attempted += wl.results_per_pass
            self.failed += wl.results_per_pass
            return elapsed, 0
        self.attempted += outcome.attempted
        self.failed += min(outcome.attempted, len(outcome.problems))
        for problem in outcome.problems:
            print(f"wrong result: {problem}", file=sys.stderr)
        return elapsed, outcome.items


def _child(code: str) -> str:
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return done.stdout.strip().splitlines()[-1]


def end_to_end(wl, args, tally: Tally) -> tuple[dict, dict]:
    setup = [
        float(_child(SETUP_CHILD.format(src=str(SRC), call=wl.setup_call)))
        for _ in range(SETUP_SPAWNS)
    ]
    rss_kb = int(_child(RSS_CHILD.format(
        src=str(SRC), bench=str(BENCH), name=args.workload, seed=args.seed, workdir=str(WORKDIR),
    )))
    tally.run(wl)  # warm-up
    times, rates = [], []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < args.seconds:
        elapsed, items = tally.run(wl)
        times.append(elapsed)
        rates.append(items / elapsed)
    metrics = {
        "wall_s": statistics.median(times),
        "items_per_s": statistics.median(rates),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_kb / 1024,
    }
    return metrics, {"pass_s": times, "setup_s": setup}


def per_layer(wl, args, tally: Tally, tracer) -> tuple[dict, dict]:
    tally.run(wl)  # warm-up
    untraced, traced, layers = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        untraced.append(tally.run(wl)[0])
        tr = tracer.Tracer()
        with tr.installed():
            traced.append(tally.run(wl)[0])
        layers.append(tr.metrics())
    metrics = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    spans_path = WORKDIR / f"spans-{args.workload}-seed{args.seed}.json"
    spans_path.write_text(json.dumps(tr.spans()))
    extra = {
        "untraced_s": untraced,
        "traced_s": traced,
        "absent": tracer.absent_layers(layers[-1]),
        "spans": str(spans_path.relative_to(ROOT)),
    }
    return metrics, extra


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "oddspectrum" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = environment(workloads.nproc(), loadavg)
    WORKDIR.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, WORKDIR)
    wl.prepare()

    tally = Tally()
    if args.trace:
        import tracer

        measured, extra = per_layer(wl, args, tally, tracer)
        wanted = spec["per_layer"]
    else:
        measured, extra = end_to_end(wl, args, tally)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("env " + json.dumps(env))
    absent = set(extra.get("absent", ()))
    for name, m in metrics.items():
        note = "  (absent: layer not called)" if name.rsplit(".", 1)[0] in absent else ""
        print(f"  {name:<48} {m['value']:>16.6g} {m['unit']}{note}")
    print(f"  {'fail_ratio':<48} {tally.failed / tally.attempted:>16.6g} ratio"
          f"  ({tally.failed} of {tally.attempted} results)")
    record = {"args": vars(args), "env": env, **result, **extra}
    suffix = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (WORKDIR / f"result-{suffix}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
