"""dpmeter benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload grid --seed 0 --seconds 30 --trace 0

Untraced (``--trace 0``): set up the workload, run one untimed warm-up
op, then repeat whole rounds of ops until ``--seconds`` have passed.
More set-ups are timed between ops, on a stopped clock, until there are
seven; ``setup_s`` is their median.  Prints ``ops_per_s``, ``op_p50_s``,
``setup_s`` and ``peak_rss_mb``.

Traced (``--trace 1``): after the warm-up, one untraced reference round
gives the untraced wall time; then the set-up and whole rounds run
under spans until ``--seconds`` have passed.  Prints the per-layer
metrics of one pass (set-up plus one round); the spans and a summary with
the tracing overhead go to ``perfbench/out/trace-<workload>-<seed>.*``.

Either way the first round's outputs are checked with computations made
outside dpmeter; a failing check prints ``"correct": false`` and exits 1.
The last stdout line is the JSON result.
"""

import os

# BLAS threads spin and steal the second CPU from the timed work: pin one
# thread before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# set-up is timed this many times, one sample at least SETUP_GAP_S after
# the last, between the ops of the timed rounds (their clock stopped); the
# machine's slow spells last seconds, so samples taken back to back would
# all land in the same one
SETUP_SAMPLES = 7
SETUP_GAP_S = 2.0


def blas_threads() -> str:
    """Threads the loaded OpenBLAS reports, read through its own API."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
        for lib in sorted(libs):
            handle = ctypes.CDLL(lib)
            for fn in (
                "scipy_openblas_get_num_threads64_",
                "openblas_get_num_threads64_",
                "openblas_get_num_threads",
            ):
                if hasattr(handle, fn):
                    return str(getattr(handle, fn)())
    except OSError:
        pass
    return "unknown"


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "blas_threads": blas_threads(),
    }


def run_round(wl, spans: list, between) -> tuple[list, int]:
    """One round of ops; returns their outputs (None if failed) and failures.

    Appends each successful op's (start, end) to ``spans`` and calls
    ``between()`` after each op.
    """
    outputs, failed = [], 0
    for op in wl.ops:
        t0 = perf_counter()
        try:
            out = wl.run(op)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            print(f"op failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            out, failed = None, failed + 1
        else:
            spans.append((t0, perf_counter()))
        outputs.append(out)
        between()
    return outputs, failed


def run_rounds(wl, seconds: float, min_rounds: int, between=lambda: None):
    """Whole rounds until ``seconds`` have passed and at least ``min_rounds``
    have run; ``between`` is not timed.

    Returns (first round's outputs, fingerprints of every round, op
    (start, end) pairs, attempted, failed, wall seconds).  Later rounds
    keep only fingerprints, so memory does not grow with their number.
    """
    spans, failed, attempted, prints = [], 0, 0, []
    first = None
    paused = 0.0

    def pause():
        nonlocal paused
        t0 = perf_counter()
        between()
        paused += perf_counter() - t0

    gc.collect()
    t_start = perf_counter()
    while True:
        outputs, n_failed = run_round(wl, spans, pause)
        failed += n_failed
        attempted += len(outputs)
        prints.append([None if o is None else wl.fingerprint(o) for o in outputs])
        if first is None:
            first = outputs
        if perf_counter() - t_start - paused >= seconds and len(prints) >= min_rounds:
            break
    return first, prints, spans, attempted, failed, perf_counter() - t_start - paused


def check(wl, first, prints) -> list[str]:
    if any(o is None for o in first):
        return ["an op of the first round failed, so its outputs cannot be checked"]
    errs = [f"round {i + 1} differs from round 1" for i, p in enumerate(prints) if p != prints[0]]
    try:
        errs += wl.check(first)
    except Exception as exc:  # noqa: BLE001 - a crashing check is a failed check
        errs.append(f"check raised {type(exc).__name__}: {exc}")
    return errs


def result(errs, attempted, failed, metrics) -> int:
    for e in errs:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    print(
        json.dumps(
            {"correct": not errs, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 1 if errs else 0


def warm_up(wl) -> None:
    """One untimed op; should it fail, the timed rounds count the failure."""
    try:
        wl.run(wl.ops[0])
    except Exception as exc:  # noqa: BLE001
        print(f"warm-up op failed: {exc}", file=sys.stderr)


class SetupSampler:
    """Times set-ups of a workload, spaced at least ``SETUP_GAP_S`` apart."""

    def __init__(self, cls, seed):
        self.cls, self.seed = cls, seed
        self.times: list[float] = []
        self.last = float("-inf")

    def take(self):
        t0 = perf_counter()
        wl = self.cls(self.seed)
        self.last = perf_counter()
        self.times.append(self.last - t0)
        return wl

    def maybe(self) -> None:
        if len(self.times) < SETUP_SAMPLES and perf_counter() - self.last >= SETUP_GAP_S:
            self.take()


def untraced(name, cls, seed, seconds) -> int:
    setups = SetupSampler(cls, seed)
    wl = setups.take()
    warm_up(wl)
    first, prints, spans, attempted, failed, wall = run_rounds(
        wl, seconds, wl.min_rounds, setups.maybe
    )
    times = [t1 - t0 for t0, t1 in spans]
    # read before the checks load scipy and build HiGHS models
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setups.times) < SETUP_SAMPLES:
        setups.take()
    setup_times = setups.times
    done = attempted - failed
    print(f"{name}: {attempted} ops in {len(prints)} round(s), {wall:.2f} s; setup {setup_times}")
    errs = check(wl, first, prints)
    metrics = {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "ops_per_s": {"value": done / wall, "unit": "ops/s"},
        "op_p50_s": {"value": statistics.median(times) if times else float("nan"), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    return result(errs, attempted, failed, metrics)


def traced(name, cls, seed, seconds) -> int:
    import tracing

    wl = cls(seed)
    warm_up(wl)
    ref_first, ref_prints, _, attempted, failed, ref_wall = run_rounds(wl, 0.0, 1)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        setup_mark = tracer.mark()
        wl = cls(seed)
        rounds_mark = tracer.mark()
        _, prints, spans, n_att, n_failed, wall = run_rounds(wl, seconds, wl.min_rounds)
    finally:
        tracer.uninstall()
    attempted += n_att
    failed += n_failed
    n_rounds = len(prints)
    per_layer = tracer.per_layer(setup_mark, rounds_mark, n_rounds)
    overhead = (wall / n_rounds) / ref_wall
    print(f"{name}: traced {n_rounds} round(s) in {wall:.2f} s; overhead x{overhead:.3f}")
    errs = check(wl, ref_first, ref_prints + prints)
    tracer.write(
        HERE / "out" / f"trace-{name}-{seed}",
        {
            "workload": name,
            "seed": seed,
            "rounds": n_rounds,
            "ops_per_round": len(wl.ops),
            "untraced_round_s": ref_wall,
            "traced_round_s": wall / n_rounds,
            "overhead": overhead,
            "per_layer": per_layer,
            "first_round": tracer.op_table(spans[: len(wl.ops)], [wl.label(op) for op in wl.ops]),
        },
    )
    metrics = {
        k: {"value": v, "unit": tracing.metric_unit(k)} for k, v in per_layer.items()
    }
    return result(errs, attempted, failed, metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "dpmeter" / "__init__.py").is_file():
        print(f"dpmeter sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    print(json.dumps({"machine": machine_facts()}))
    cls = workloads.WORKLOADS[args.workload]
    run = traced if args.trace else untraced
    return run(args.workload, cls, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
