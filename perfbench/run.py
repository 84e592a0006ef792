"""raildet benchmark: one workload per run, driven in-process from outside.

    python3 perfbench/run.py --workload oracle-corpus --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Inputs are generated from ``--seed`` in a separate process before
anything is timed.  Load is a closed loop from one client thread with one
image in flight.  ``--trace 0`` measures the end-to-end metrics untraced;
``--trace 1`` runs every operation twice, untraced and traced, and reports
the per-layer metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record
(environment, tail percentile, accuracy, errors) is written to
``.perfbench_work/results/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())  # metric names and units

CLIENT_THREADS = 1  # closed loop: the next image starts when the last one ends
SETUP_PROBES = 3  # set-up calls in a traced run
PROBE_EVERY_S = 2.5  # a set-up probe before, after and every this often in the window
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it
TAIL_BLOCK = 100  # the tail is taken per block of at least this many images
DEFAULT_SEED = 0  # the seed whose output digests are recorded in digests.json


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "raildet" / "__init__.py").is_file():
        _log(f"perfbench: no raildet sources under {SRC}; run from a source checkout")
        return 2
    nproc = len(os.sched_getaffinity(0))
    if CLIENT_THREADS > nproc:
        _log(f"perfbench: refusing {CLIENT_THREADS} client threads on {nproc} cores")
        return 2
    if args.seconds <= 0:
        _log("perfbench: --seconds must be positive")
        return 2
    sys.path.insert(0, str(SRC))
    import raildet

    if not Path(raildet.__file__).resolve().is_relative_to(SRC.resolve()):
        _log(f"perfbench: raildet imported from {raildet.__file__}, not from {SRC}")
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _log(f"perfbench: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
        return 2
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    try:
        return bench(WORKLOADS[args.workload], args, run_dir, nproc)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


class Ops:
    """Runs operations, checks their outputs and counts failures.

    Operation ``i`` is image ``i`` of the corpus, or the end-of-pass step when
    ``i`` equals the corpus size.  An exception, a failed output check or a
    digest that differs from the expected one is a failed operation; the run
    goes on.  The expected digest is the recorded one for the default seed,
    otherwise the first digest the operation produced.  Only the operation
    itself is timed, not its check: ``timed_s`` and ``cpu_s`` add up the
    wall and process CPU time of every ``wl.run`` since the last ``reset``.
    """

    def __init__(self, wl, state, expected):
        self.wl = wl
        self.state = state
        self.expected = dict(enumerate(expected))
        self.observed: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.reset()

    def reset(self) -> None:
        self.timed_s = 0.0
        self.cpu_s = 0.0

    def run(self, i: int) -> float:
        """Latency of one operation, in seconds; its check is not included."""
        self.attempted += 1
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            payload = self.wl.run(self.state, i)
        except Exception as e:  # the loop must go on; the failure is counted
            payload, err = None, f"{type(e).__name__}: {e}"
        else:
            err = None
        latency, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        self.timed_s += latency
        self.cpu_s += cpu
        if err is None:
            try:
                digest, err = self.wl.check(self.state, i, payload)
            except Exception as e:
                err = f"check: {type(e).__name__}: {e}"
        if err is None:
            self.observed.setdefault(i, digest)
            if self.expected.setdefault(i, digest) != digest:
                err = f"digest {digest}, expected {self.expected[i]}"
        if err is not None:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(f"op {i}: {err}")
        return latency


def bench(wl, args, run_dir: Path, nproc: int) -> int:
    import numpy

    from spans import Tracer, layer_metrics, setup_metrics, top_level_seconds
    from workloads import State

    images = wl.images
    in_dir, out_dir = run_dir / "inputs", run_dir / "outputs"
    out_dir.mkdir(parents=True, exist_ok=True)
    subprocess.run(
        [sys.executable, str(BENCH_DIR / "inputs.py"), str(SRC), wl.name, str(args.seed),
         str(images), str(in_dir)],
        check=True, timeout=150,
    )
    items = json.loads((in_dir / "manifest.json").read_text())

    def probe_setup() -> None:
        if not args.trace:
            setup_runs.append(float(subprocess.run(
                [sys.executable, str(BENCH_DIR / "probe.py"), str(SRC), wl.name, str(in_dir)],
                check=True, timeout=60, capture_output=True, text=True,
            ).stdout))

    # probes before, during and after the timed window sample the machine
    # at many moments, which steadies their median
    setup_runs: list[float] = []
    probe_setup()

    state = State(in_dir=in_dir, out_dir=out_dir, names=[it["name"] for it in items])
    setup_tracer = None
    if args.trace:
        setup_tracer = Tracer()
        setup_tracer.install()
        try:
            for _ in range(SETUP_PROBES):
                wl.setup(state)
        finally:
            setup_tracer.uninstall()
    else:
        wl.setup(state)
    wl.start(state)

    reference = []
    if args.seed == DEFAULT_SEED:
        reference = json.loads((BENCH_DIR / "digests.json").read_text())["digests"][wl.name]
    ops = Ops(wl, state, reference)
    warmup = min(wl.warmup, images)
    for i in range(warmup):
        ops.run(i)

    period = images + (1 if wl.has_pass_op else 0)
    tracer = Tracer() if args.trace else None
    latencies: list[tuple[int, float]] = []
    timed = {False: 0.0, True: 0.0}  # operation time, untraced and traced
    traced_images = 0
    k = 0
    busy = 0.0  # seconds in the loop, set-up probes left out
    next_probe = PROBE_EVERY_S
    ops.reset()
    t_start = time.perf_counter()
    while k < period or busy < args.seconds:
        i = k % period
        t_op = time.perf_counter()
        if tracer is None:
            latency = ops.run(i)
            if i < images:
                latencies.append((i, latency))
        else:
            # the same operation untraced and traced, alternating which goes
            # first; the digest check fails the second if its output differs
            for traced in ((False, True) if k % 2 == 0 else (True, False)):
                if traced:
                    tracer.image = state.names[i] if i < images else "end-of-pass"
                    tracer.install()
                try:
                    timed[traced] += ops.run(i)
                finally:
                    if traced:
                        tracer.uninstall()
            traced_images += i < images
        k += 1
        busy += time.perf_counter() - t_op
        if busy >= next_probe:
            probe_setup()
            next_probe += PROBE_EVERY_S
    probe_setup()

    record = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(numpy, nproc),
        "corpus": {
            "images": images,
            "by_kind": dict(Counter(it["kind"] for it in items)),
            "scene_seeds": [it["scene_seed"] for it in items],
            "raw_sizes": [it["raw_size"] for it in items],
            "objects": sum(it["objects"] for it in items),
        },
        "warmup_images": warmup,
        "warmup_policy": "discarded: run before the timed window, outside setup_s",
        "setup_runs_s": setup_runs,
        "digests": [ops.observed.get(i) for i in range(period)],
        "attempted": ops.attempted,
        "failed": ops.failed,
        "failed_share": ops.failed / ops.attempted,
        "errors": ops.errors,
        **state.extra,
    }
    if tracer is None:
        lat_ms = [x * 1e3 for _, x in latencies]
        n = len(lat_ms)
        tail, record["latency_tail_percentile"], record["latency_tail_blocks"] = tail_latency(lat_ms)
        record["timed_images"] = n
        record["latencies_ms"] = [[i, round(x * 1e3, 3)] for i, x in latencies]
        metrics = {
            # the end-of-pass operations are in timed_s and cpu_s too
            "images_per_s": n / ops.timed_s,
            "latency_p50_ms": statistics.median(lat_ms),
            "latency_tail_ms": tail,
            "cpu_ms_per_image": ops.cpu_s * 1e3 / n,
            "setup_s": statistics.median(setup_runs),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        record["traced_images"] = traced_images
        record["unhooked"] = tracer.unhooked
        metrics = layer_metrics(tracer.spans, traced_images)
        metrics.update(setup_metrics(setup_tracer.spans))
        metrics["trace.coverage"] = top_level_seconds(tracer.spans) / timed[True]
        metrics["trace.overhead_share"] = (timed[True] - timed[False]) / timed[False]
    kind = "per_layer" if args.trace else "end_to_end"
    record["metrics"] = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                         for m in SPEC[kind]}

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    if tracer is not None:
        # the timed window's spans, one per line: id, name, start and end
        # (s from the window's start), parent id, image, work count
        spans_path = path.with_suffix(".spans.jsonl")
        with open(spans_path, "w") as f:
            for sp in tracer.spans:
                f.write(json.dumps([sp.id, sp.name, round(sp.start - t_start, 7),
                                    round(sp.end - t_start, 7), sp.parent, sp.image,
                                    sp.count]) + "\n")
        record["spans"] = spans_path.name
    path.write_text(json.dumps(record, indent=1) + "\n")
    for m, v in record["metrics"].items():
        _log(f"{m:<32} {v['value']:>14.6g} {v['unit']}")
    for key in ("precision_iou75", "recall_iou75", "failed_share", "latency_tail_percentile"):
        if key in record:
            _log(f"{key:<32} {record[key]:>14.6g}")
    for err in ops.errors:
        _log(f"FAILED {err}")
    _log(f"record: {path}")
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": record["metrics"],
    }))
    return 0


def tail_latency(lat_ms: list[float]) -> tuple[float, float, int]:
    """(tail, percentile, blocks) of latencies given in the order they ran.

    The run is cut into consecutive blocks of at least TAIL_BLOCK images (one
    block if it is shorter); in each block the tail is the highest percentile
    with TAIL_BEYOND samples beyond it, and the result is the median over the
    blocks, so one stall of the machine moves at most one block.
    """
    blocks = max(1, len(lat_ms) // TAIL_BLOCK)
    size = len(lat_ms) / blocks
    tails, pct = [], 100.0
    for b in range(blocks):
        block = sorted(lat_ms[round(b * size) : round((b + 1) * size)])
        k = len(block) - TAIL_BEYOND - 1 if len(block) > TAIL_BEYOND else len(block) - 1
        tails.append(block[k])
        pct = min(pct, 100.0 * (k + 1) / len(block))
    return statistics.median(tails), pct, blocks


def environment(numpy, nproc: int) -> dict:
    src_hash = hashlib.sha256()
    for f in sorted((SRC / "raildet").glob("*.py")):
        src_hash.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "machine": platform.machine(),
        "nproc": nproc,
        "client_threads": CLIENT_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": _blas_threads(numpy),
        "thread_env": {k: os.environ[k] for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
        "git_commit": _git_commit(),
        "src_sha256": src_hash.hexdigest()[:16],
    }


def _blas_threads(numpy) -> int | None:
    """Thread count of the OpenBLAS that numpy wheels bundle, if present."""
    import ctypes

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None  # an exported checkout; src_sha256 identifies the code
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                       text=True, timeout=30)
    return r.stdout.strip() or None


if __name__ == "__main__":
    sys.exit(main())
