"""End-to-end GalioT pipeline benchmark.

Run from the repository root::

    python3 e2ebench/run.py --workload sparse_clean --seed 1 --seconds 30 --trace 0

One process is one closed-loop client: after set-up it renders the
workload's captures from ``--seed`` (untimed) and replays them through
gateway and serial cloud: one untimed warm-up pass, then pass after
pass for ``--seconds``. Every pass is checked against the transmitted
truth, and must reproduce the ledger of the first pass byte for byte.
With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` untraced and traced passes alternate and it carries
the per-layer metrics, including the tracing overhead. The exit code is
non-zero when any check fails.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

#: One client process, one compute thread: pin the math libraries before
#: numpy loads (an explicit setting in the environment wins).
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _variable in THREAD_VARIABLES:
    os.environ.setdefault(_variable, "1")

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("sparse_clean", "xtech_collisions", "dense_bursts")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


#: Set-ups per run after the one-off imports; ``setup_s`` counts their median.
SETUPS = 3


def setup():
    """Construct, calibrate and warm the pipeline; returns it and set-up seconds.

    Imports run once, timed from this script's first statement
    (interpreter start-up is not counted). The rest of set-up runs
    ``SETUPS`` times on fresh modems: construction, threshold calibration
    and one warm-up pass over a small fixed scene (which fills the lazy
    template and resample caches). Set-up time is the import time plus
    the median of those repetitions. Rendering the warm-up scene is scene
    generation and is not counted. The last pipeline built is returned.
    """
    import pipeline as pl
    import workloads as wl

    import_s = time.perf_counter() - _T0
    times = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        modems = wl.make_modems()
        pipe = pl.Pipeline(modems)
        t_scene = time.perf_counter()
        warm = wl.warmup(modems)
        scene_s = time.perf_counter() - t_scene
        pipe.run_pass(warm)
        times.append(time.perf_counter() - t0 - scene_s)
    return pipe, import_s + statistics.median(times)


def environment() -> dict[str, object]:
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "threads": {v: os.environ.get(v) for v in THREAD_VARIABLES},
    }


def canonical(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"e2ebench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import pipeline as pl
    import workloads as wl

    pipe, setup_s = setup()
    workload = wl.build(args.workload, args.seed, pipe.modems)
    print(f"env: {canonical(environment())}")
    probe = pl.LayerProbe(pipe) if args.trace else None
    # (gateway_s, cloud_s) per pass; results are dropped once checked so
    # that peak memory does not grow with the number of passes.
    plain, traced, layers = [], [], []
    # The first pass warms the workload's own caches and fixes the run's
    # ledger: it is checked like every later pass, which must reproduce
    # its ledger byte for byte, but it is not timed.
    reference = pl.ledger(workload, args.seed, pipe.run_pass(workload))
    reference_text = canonical(reference)
    print(f"ledger: {reference_text}")
    print(f"ledger sha256: {hashlib.sha256(reference_text.encode()).hexdigest()}")
    passes = 1
    problems = list(reference["violations"])
    started = time.perf_counter()
    while not problems:
        tracing = bool(args.trace) and len(traced) < len(plain)
        if tracing:
            probe.tracer.reset()
            probe.install()
            try:
                result = pipe.run_pass(workload, probe.tracer)
            finally:
                probe.uninstall()
            problems += probe.tracer.violations
            layers.append(probe.metrics(workload, result))
            traced.append((result.gateway_s, result.cloud_s))
        else:
            result = pipe.run_pass(workload)
            plain.append((result.gateway_s, result.cloud_s))
        record = pl.ledger(workload, args.seed, result)
        del result
        passes += 1
        if canonical(record) != reference_text:
            problems.append("pass ledger differs from the first pass")
        problems += record["violations"]
        enough = not args.trace or traced
        if enough and time.perf_counter() - started >= args.seconds:
            break
    if problems:
        return fail(problems, reference, passes)

    attempted = reference["attempted"] * passes
    failed = reference["failed"] * passes
    air_s = workload.air_s
    if args.trace:
        metrics = {
            name: statistics.median(row[name] for row in layers) for name in layers[0]
        }
        plain_s = statistics.median(g + c for g, c in plain)
        traced_s = statistics.median(g + c for g, c in traced)
        metrics["trace.overhead_ratio"] = traced_s / plain_s - 1
        unit = pl.layer_unit
    else:
        metrics = {
            "gateway_rtf": statistics.median(air_s / g for g, _ in plain),
            "cloud_s_per_packet": statistics.median(
                c / reference["attempted"] for _, c in plain
            ),
            "pipeline_air_per_s": statistics.median(air_s / (g + c) for g, c in plain),
            "backhaul_kbit_per_air_s": reference["shipped_bits"] / air_s / 1e3,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        unit = pl.END_TO_END_UNITS.get
    print(f"workload {workload.name}: {workload.description}; air {air_s:.3f} s; "
          f"1 warm-up + {len(plain)} untraced + {len(traced)} traced passes; "
          f"attempted {attempted}, failed {failed}")
    for name, value in metrics.items():
        print(f"  {name:<30} {value:14.6g} {unit(name)}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit(name)} for name, value in metrics.items()
        },
    }))
    return 0


def fail(problems: list[str], reference: dict, passes: int) -> int:
    """Report failed checks; the run exits non-zero with ``correct`` false."""
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": False,
        "attempted": reference["attempted"] * passes,
        "failed": reference["failed"] * passes,
        "metrics": {},
    }))
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
