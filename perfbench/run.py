"""krevise benchmark: one closed-loop workload per invocation.

    python3 perfbench/run.py --workload hc-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Runs from the root of a source checkout and imports krevise from its
`src/`.  With --trace 0 it times the workload and prints the end-to-end
metrics; with --trace 1 it runs each op untraced and traced, prints the
per-layer metrics and writes the spans to
`.perfbench/trace-<workload>-<seed>.jsonl`.  Every output is checked; the
last line of stdout is one JSON object {correct, attempted, failed, metrics}.
See perfbench/README.md for the workloads and metrics.
"""

import os

# One BLAS thread, set before numpy loads.  The embedded simplex multiplies
# small dense matrices: on 240 hc-sweep cells on a 2-core VM, OpenBLAS's
# default two threads used 1.6-1.7x the CPU time of one thread and took
# 20-35% longer.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import bisect  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

WORKLOADS = ("hc-sweep", "base-sweep", "check", "export")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"
IMPORT_REPEATS = 5
SETUP_REPEATS = 3
_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                 "import krevise; print(time.perf_counter() - t)")
_clock = time.perf_counter


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_krevise():
    """Import krevise from this checkout's src/, or exit."""
    if not (SRC / "krevise" / "__init__.py").is_file():
        _fail(f"no krevise sources under {SRC}; run from a krevise checkout")
    sys.path.insert(0, str(SRC))
    import krevise

    if Path(krevise.__file__).resolve().parent != SRC / "krevise":
        _fail(f"imported krevise from {krevise.__file__}, not from {SRC}")


def environment(seed, workload):
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version")},
        "blas_threads": BLAS_ENV,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
    }


def _commit():
    """Commit of the checkout when it is a git work tree, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def percentile(values, pct):
    """Harrell-Davis estimate of a percentile.

    A beta-weighted mean of all order statistics: the mix of op kinds leaves
    gaps in the sorted op times, and a plain order statistic jumps across a
    gap when noise reorders two ops next to it.
    """
    from scipy.stats.mstats import hdquantiles

    return float(hdquantiles(values, prob=[pct / 100.0])[0])


def rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- host speed reference ------------------------------------------------------

# Time of one reference kernel at the speed that defines a reference second.
REF_KERNEL_S = 2.3e-3
SPEED_WINDOW_S = 2.0


class SpeedProbe:
    """Times a fixed kernel between ops, to put op times in reference seconds.

    The shared host's CPU speed drifts by up to +-25% over periods of 5-10 s
    (a pure-Python loop timed once a second ranged from 53 to 87 passes), far
    more than the differences the benchmark must resolve.  The kernel mixes
    an interpreter loop, small matrix products, dict and string building and
    a sum over a 4 MB array, the same kinds of work as the ops; it touches
    no krevise code, so a change to krevise cannot move it.  Each op
    time is scaled by REF_KERNEL_S over the median kernel time measured
    within SPEED_WINDOW_S of the op.
    """

    def __init__(self):
        import numpy as np

        h = np.ones((1, 1))
        for _ in range(5):  # 32x32 Hadamard matrix, scaled to be orthogonal
            h = np.kron(h, np.array([[1.0, 1.0], [1.0, -1.0]]))
        self._q = h / np.sqrt(32.0)
        self._big = np.ones(1 << 19)
        self.times, self.kernel = [], []

    def sample(self):
        t0 = _clock()
        acc = 0
        for i in range(12000):
            acc += i * i
        a = self._q
        for _ in range(50):
            a = a @ self._q
        names = {f"x:{i}": (i, float(i)) for i in range(600)}
        acc += len([str(v) for v in names.values()])
        acc += self._big.sum()
        t1 = _clock()
        self.times.append(0.5 * (t0 + t1))
        self.kernel.append(t1 - t0)

    def scale(self, times, spans):
        """Op times in reference seconds, given each op's (start, end)."""
        out = []
        for dt, (t0, t1) in zip(times, spans):
            lo = bisect.bisect_left(self.times, t0 - SPEED_WINDOW_S)
            hi = bisect.bisect_right(self.times, t1 + SPEED_WINDOW_S)
            window = self.kernel[max(0, lo - 1):hi + 1]  # at least the samples on either side
            out.append(dt * REF_KERNEL_S / statistics.median(window))
        return out


# -- the measured loop ---------------------------------------------------------


def run_ops(wl, inputs, seconds=None, count=None, start=0, tracer=None, probe=None):
    """Run ops start, start+1, ... for `count` ops, or else for whole rounds
    until `seconds` of op time have passed.

    A round (wl.round_len ops) holds every op kind in equal numbers, so
    every run measures the same mix.  Returns (op times, op (start, end)
    pairs, [(op, summary or None, error or None)]).  Only the call to
    wl.run is timed; an op that raises counts as failed.  A probe, if
    given, samples the host's speed before the first op and after each.
    """
    times, spans, results = [], [], []
    busy = 0.0
    i = start
    round_len = wl.round_len(inputs)
    if probe is not None:
        probe.sample()
    while (busy < seconds or i % round_len) if count is None else (i < start + count):
        op = wl.op(inputs, i)
        gc.collect()  # each op starts on a clean heap, as a fresh `krevise` process would
        if tracer is not None:
            tracer.op = i
            span = tracer.begin("bench.op", "bench")
        t0 = _clock()
        try:
            out, err = wl.run(op), None
        except Exception as exc:  # an op failing is a measured outcome, not a crash
            out, err = None, f"{type(exc).__name__}: {exc}"
        dt = _clock() - t0
        if tracer is not None:
            tracer.end(span)
        busy += dt
        times.append(dt)
        spans.append((t0, t0 + dt))
        results.append((op, wl.summarize(op, out) if err is None else None, err))
        if probe is not None:
            probe.sample()
        i += 1
    return times, spans, results


def check_all(wl, results):
    """Errors per op, by the workload's output checks (run after the loop)."""
    errors = []
    for op, summary, err in results:
        if err is None:
            try:
                err = wl.check(op, summary)
            except Exception as exc:  # a check that cannot run is a failed op
                err = f"check raised {type(exc).__name__}: {exc}"
        errors.append(err)
    return errors


def setup(wl, seed, size, probe):
    """Set-up time in reference seconds, and the inputs.

    The median `import krevise` time of IMPORT_REPEATS fresh interpreters
    plus the median time of SETUP_REPEATS input generations.
    """
    imports, import_spans = [], []
    for _ in range(IMPORT_REPEATS):
        probe.sample()
        t0 = _clock()
        out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)], capture_output=True,
                             text=True, check=True, timeout=60)
        import_spans.append((t0, _clock()))
        imports.append(float(out.stdout.strip().splitlines()[-1]))
    gens, gen_spans = [], []
    for _ in range(SETUP_REPEATS):
        probe.sample()
        t0 = _clock()
        inputs = wl.setup(seed, size)
        t1 = _clock()
        gens.append(t1 - t0)
        gen_spans.append((t0, t1))
    probe.sample()
    setup_s = statistics.median(probe.scale(imports, import_spans)) + statistics.median(
        probe.scale(gens, gen_spans))
    return setup_s, inputs


# name -> (unit, better); BENCHMARK.json's end_to_end list names these.
END_TO_END = {
    "ops_per_s": ("1/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "op_tail_ms": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def end_to_end(wl, times, errors, setup_s, peak_mb):
    n = len(times)
    beyond = n - int(n * wl.tail_pct / 100.0)
    values = {
        "ops_per_s": n / sum(times),
        "op_p50_ms": 1e3 * percentile(times, 50),
        "op_tail_ms": 1e3 * percentile(times, wl.tail_pct),
        "setup_s": setup_s,
        "peak_rss_mb": peak_mb,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, (unit, _) in END_TO_END.items()}
    failed = sum(e is not None for e in errors)
    note = (f"op_tail_ms is p{wl.tail_pct} of n={n} ({beyond} beyond)"
            + ("" if beyond >= 10 else "; fewer than 10 samples beyond it"))
    return metrics, failed, note


def measure(wl, seed, seconds, size):
    probe = SpeedProbe()
    setup_s, inputs = setup(wl, seed, size, probe)
    raw, spans, results = run_ops(wl, inputs, seconds=seconds, probe=probe)
    peak = rss_mb()
    errors = check_all(wl, results)
    times = probe.scale(raw, spans)
    metrics, failed, note = end_to_end(wl, times, errors, setup_s, peak)
    note += (f"; times in reference seconds: median reference kernel "
             f"{1e3 * statistics.median(probe.kernel):.3f} ms against {1e3 * REF_KERNEL_S:.3f} ms, "
             f"raw ops_per_s {len(raw) / sum(raw):.6g}")
    return metrics, len(times), failed, errors, note


def measure_traced(wl, seed, seconds, size):
    """Each op untraced and traced, in alternating order; per-layer metrics and the spans.

    Running both versions of one op back to back, with the order swapped
    every op, keeps warm-up and drift out of the tracing overhead.
    """
    import layers
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        tracer.op = "setup"
        with tracer.span("bench.setup", "bench"):
            inputs = wl.setup(seed, size)
    finally:
        tracer.unpatch()
    untraced, traced, results = [], [], []
    busy = 0.0
    i = 0
    round_len = wl.round_len(inputs)
    while busy < seconds or i % round_len:
        for traced_turn in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_turn:
                tracing.install(tracer)
                try:
                    times, _, res = run_ops(wl, inputs, count=1, start=i, tracer=tracer)
                finally:
                    tracer.unpatch()
                traced += times
            else:
                times, _, res = run_ops(wl, inputs, count=1, start=i)
                untraced += times
            busy += times[0]
            results += res
        i += 1
    errors = check_all(wl, results)
    metrics = layers.metrics(tracer, len(traced), sum(untraced))
    return metrics, tracer, round_len, len(results), errors


# -- entry point -------------------------------------------------------------


def run_one(args):
    import_krevise()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    env = environment(args.seed, args.workload)
    print("# env " + json.dumps(env))
    if args.trace:
        metrics, tracer, round_len, attempted, errors = measure_traced(
            wl, args.seed, args.seconds, args.size)
        failed = sum(e is not None for e in errors)
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"trace-{args.workload}-{args.seed}.jsonl"
        digest = tracer.counts_digest(round_len)
        tracer.write_jsonl(path, env, {"metrics": metrics, "counts_digest": digest})
        print(f"# {args.workload}: trace in {path.relative_to(ROOT)}; "
              f"counts digest of set-up and first round {digest}")
    else:
        metrics, attempted, failed, errors, note = measure(wl, args.seed, args.seconds, args.size)
        print(f"# {args.workload}: {note}")
    for name, m in metrics.items():
        print(f"# {args.workload}: {name} = {m['value']:.6g} {m['unit']}")
    print(f"# {args.workload}: fail_ratio = {failed}/{attempted} = {failed / attempted:.6g}")
    for err in sorted({e for e in errors if e is not None})[:10]:
        print(f"# {args.workload}: failure: {err}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args):
    """Each workload in a fresh interpreter, one after another; a summary table."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True)
        sys.stdout.write(out.stdout)
        results[name] = json.loads(out.stdout.strip().splitlines()[-1])
    names = list(next(iter(results.values()))["metrics"])
    print("# workload".ljust(14) + "".join(n.rjust(22) for n in names + ["fail_ratio"]))
    for name, res in results.items():
        cells = [f"{res['metrics'][n]['value']:.4g} {res['metrics'][n]['unit']}" for n in names]
        cells.append(f"{res['failed']}/{res['attempted']}")
        print(f"# {name}".ljust(14) + "".join(c.rjust(22) for c in cells))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{n}": m for w, r in results.items() for n, m in r["metrics"].items()},
    }))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="input size; tiny is for the benchmark's self-tests")
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
