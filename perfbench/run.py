"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload mnist-biohash --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory. With --trace 0 the run sets up several times, then
repeats closed-loop iterations for --seconds and prints the end-to-end
metrics. With --trace 1 it alternates one untraced and one traced
iteration and prints the per-layer metrics from the traced ones. Every
iteration checks its outputs, and its cell result must equal the first
(untraced) iteration's bit for bit; the last line of standard output is
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import os
import sys

# BLAS pools size themselves when numpy loads, so the pin comes first
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"  # scratch files and the span dump, inside the checkout
SETUP_REPEATS = 5
P99_BLOCK = 1000  # queries per p99 estimate
IMPORTS = ("import numpy, scipy.sparse, biohash.cli, biohash.codebank, biohash.datasets, "
           "biohash.evalbench, biohash.hashers, biohash.plasticity, biohash.toymodel")

END_TO_END = [
    ("setup_s", "s"),
    ("cell_s", "s"),
    ("index_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
]


def log(line: str):
    print(line, flush=True)


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def import_seconds() -> float:
    """Package import time in a fresh interpreter, as each CLI run pays it."""
    code = f"import time; t = time.perf_counter(); {IMPORTS}; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def setup(workload):
    """Median import time plus median input generation, each repeated."""
    import numpy as np

    imports = statistics.median(import_seconds() for _ in range(SETUP_REPEATS))
    gen_times, inputs = [], None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        again = workload.generate()
        gen_times.append(time.perf_counter() - t0)
        if inputs is not None and not all(np.array_equal(a, b) for a, b in zip(inputs, again)):
            raise RuntimeError("input generation is not deterministic for this seed")
        inputs = again
    return imports + statistics.median(gen_times), inputs


def timed_run(workload, seconds, workdir, setup_s):
    import numpy as np

    deadline = time.perf_counter() + seconds
    outcomes = []
    while True:
        t0 = time.perf_counter()
        outcomes.append(workload.iteration(workdir, len(outcomes)))
        now = time.perf_counter()
        if now + (now - t0) > deadline:  # the next iteration would overrun
            break
    query_ms = np.concatenate([o.query_s for o in outcomes]) * 1e3
    # a burst of machine noise moves a pooled p99 a lot; the median of
    # per-block p99s (10 samples above each) moves only if most blocks slow
    blocks = np.array_split(query_ms, query_ms.size // P99_BLOCK)
    p99 = statistics.median(float(np.percentile(b, 99)) for b in blocks)
    log(f"# iterations {len(outcomes)}, query samples {query_ms.size} in {len(blocks)} "
        f"blocks, cell_s {[round(o.cell_s, 3) for o in outcomes]}, "
        f"quality {outcomes[0].quality}")
    metrics = {
        "setup_s": setup_s,
        "cell_s": statistics.median(o.cell_s for o in outcomes),
        "index_s": statistics.median(t for o in outcomes for t in o.index_s),
        "query_p50_ms": float(np.percentile(query_ms, 50)),
        "query_p99_ms": p99,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return outcomes, {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}


def traced_run(workload, seconds, workdir):
    import layers
    from spans import Tracer

    tracer = Tracer()
    deadline = time.perf_counter() + seconds
    untraced, traced, cpu, wall = [], [], 0.0, 0.0
    while True:
        t0 = time.perf_counter()
        untraced.append(workload.iteration(workdir, 2 * len(traced)))
        layers.install(tracer)
        c0, w0 = time.process_time(), time.perf_counter()
        try:
            traced.append(workload.iteration(workdir, 2 * len(traced) + 1, tracer.phase))
        finally:
            tracer.restore()
        cpu += time.process_time() - c0
        wall += time.perf_counter() - w0
        now = time.perf_counter()
        if now + (now - t0) > deadline:
            break
    extras = layers.after_training(tracer, len(traced))
    cell_untraced = statistics.median(o.cell_s for o in untraced)
    cell_traced = statistics.median(o.cell_s for o in traced)
    values = layers.per_layer_metrics(tracer, len(traced), traced[-1].quality, extras,
                                      cpu / wall, cell_untraced, cell_traced,
                                      traced[-1].file_bytes)
    dump = OUT / f"spans-{workload.name}-seed{workload.seed}.jsonl"
    tracer.write(dump)
    if tracer.missing:
        log(f"# missing layers (not traced): {sorted(tracer.missing)}")
    log(f"# traced iterations {len(traced)}; spans {len(tracer.spans)} written to {dump.name}")
    log(f"# cell_s untraced {cell_untraced:.4f}, traced {cell_traced:.4f}, layer self "
        f"times sum to {values['trace.cell_self_sum_s']:.4f}")
    return untraced + traced, {name: {"value": values[name], "unit": unit}
                               for name, unit in layers.PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "biohash" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'biohash'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.path.insert(0, str(SRC))

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    log("# env " + json.dumps(environment()))
    log(f"# workload {workload.name}: {workload.why}")
    log("# sizes " + json.dumps({k: {"value": v, "why": why}
                                 for k, (v, why) in workload.sizes.items()}))

    setup_s, inputs = setup(workload)
    workload.prepare(inputs)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=OUT))
    try:
        if args.trace:
            outcomes, metrics = traced_run(workload, args.seconds, workdir)
        else:
            outcomes, metrics = timed_run(workload, args.seconds, workdir, setup_s)
    finally:
        shutil.rmtree(workdir)
    failed = sum(o.failed for o in outcomes)
    for note in [n for o in outcomes for n in o.notes][:20]:
        log(f"# FAILED {note}")
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(o.attempted for o in outcomes),
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
