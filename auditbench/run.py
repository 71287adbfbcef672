"""Run one audit-pipeline workload and print its metrics.

    python3 auditbench/run.py --workload paper-audit --seed 20250209 \\
        --seconds 34 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
One process, no worker threads or pools.  The workload's world and service
are set up three times (each timed), then whole rounds run: as many as
fit ``--seconds`` to the nearest whole round, and at least one.  Every
round ends with the correctness checks of ``checks.py``.

``--trace 0`` reports the end-to-end metrics (medians over rounds, and
over every analysis pass for ``analyze_s``):
``setup_s`` (imports once, plus the median world + service build),
``collect_s``, ``analyze_s``, ``evaluate_s`` (both phases) and
``peak_rss_mb`` (the process's peak at the end of the first round's timed
phases, before any check runs).  ``--trace 1`` pairs every untraced round
with a traced one, prints the per-layer table and reports the per-layer
metrics of ``tracing.LAYER_METRICS`` (medians over traced rounds), the
residual no layer accounts for, and the tracing overhead (traced minus
untraced time of the timed phases).  The traced round's spans are written to
``.auditbench/trace-<workload>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from time import perf_counter

_STARTED = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUTPUT = ROOT / ".auditbench"

# One process, one thread: numpy's BLAS would otherwise start a worker
# thread per core at import and run the Table 3/6/7 fits on them.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

#: World + service builds timed before the first round.
SETUP_REPEATS = 3

WORKLOAD_NAMES = ("paper-audit", "spill-sweep", "strategies")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the paper's start date)")
    parser.add_argument("--seconds", type=float, default=34.0,
                        help="measure whole rounds for about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _note(message: str) -> None:
    print(f"[auditbench] {message}", file=sys.stderr, flush=True)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        _note(f"no program sources under {ROOT / 'src'}; run from a full checkout")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import checks
    import tracing
    import workloads

    import_s = perf_counter() - _STARTED
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    workload = workloads.WORKLOADS[args.workload]
    workdir = OUTPUT / f"work-{os.getpid()}"

    setups: list[float] = []

    def setup() -> "workloads.Env":
        gc.collect()
        start = perf_counter()
        env = workload.setup(seed)
        setups.append(perf_counter() - start)
        return env

    rounds: list = []
    traced_rounds: list = []
    peak_rss_mb = None
    layers: list[dict] = []
    last_tracer = None

    def run_round(env) -> "workloads.RoundResult":
        """One round; with ``env=None`` a traced round that sets up its own."""
        nonlocal last_tracer, peak_rss_mb
        traced = env is None
        directory = workdir / f"round-{len(rounds) + len(traced_rounds)}"
        directory.mkdir(parents=True)
        try:
            if not traced:
                verify, result = workload.run(env, directory)
                if peak_rss_mb is None:
                    # The program's peak: read before any check has run,
                    # since the checks make copies of their own.
                    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            else:
                tracer = tracing.Tracer()
                with tracer:
                    verify, result = workload.run(workload.setup(seed), directory)
                layers.append(_layer_metrics(tracer, result))
                last_tracer = tracer
            # The world, service and outputs live only in ``verify``.
            began = perf_counter()
            checked = verify()
            checks_s = perf_counter() - began
            del verify, env
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        _note(
            f"{args.workload} seed {seed} "
            f"{'traced' if traced else 'untraced'} "
            f"round: collect {result.collect_s:.3f} s, analyze "
            f"{result.analyze_s:.3f} s, {result.attempted} operations, "
            f"{checked} IDs checked in {checks_s:.2f} s"
        )
        return result

    correct = True
    try:
        env = None
        for _ in range(SETUP_REPEATS):
            env = None  # release the previous build before the next
            env = setup()
        began = perf_counter()
        while True:
            rounds.append(run_round(env if env is not None else setup()))
            env = None
            if args.trace:
                gc.collect()
                traced_rounds.append(run_round(None))
            # Another round only if it is expected to end within half a
            # round of ``--seconds``: the run makes the whole number of
            # rounds nearest to ``--seconds / round time``.
            elapsed = perf_counter() - began
            if elapsed + 0.5 * elapsed / len(rounds) > args.seconds:
                break
    except checks.CheckFailed as exc:
        _note(f"CHECK FAILED: {exc}")
        correct = False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    every = rounds + traced_rounds
    attempted = sum(r.attempted for r in every)
    failed = sum(r.failed for r in every)
    if not correct or not rounds:
        print(json.dumps({"correct": False, "attempted": max(attempted, 1),
                          "failed": failed, "metrics": {}}))
        return 1

    if args.trace:
        metrics = {
            name: statistics.median(layer[name] for layer in layers)
            for name, _unit, _source in tracing.LAYER_METRICS
            if name != "trace.overhead_s"
        }
        metrics["trace.overhead_s"] = (
            statistics.median(r.timed_s for r in traced_rounds)
            - statistics.median(r.timed_s for r in rounds)
        )
        print(tracing.render_layer_table(
            args.workload, metrics,
            statistics.median(r.timed_s for r in traced_rounds),
        ))
        path = OUTPUT / f"trace-{args.workload}.jsonl"
        n = last_tracer.write(path, f"{args.workload}-{seed}")
        print(f"wrote {n} spans to {path.relative_to(ROOT)}")
        units = {name: unit for name, unit, _source in tracing.LAYER_METRICS}
    else:
        metrics = {
            "setup_s": import_s + statistics.median(setups),
            "collect_s": statistics.median(r.collect_s for r in rounds),
            # Every analysis pass of the run, pooled (several per round
            # on spill-sweep).
            "analyze_s": statistics.median(
                ns for r in rounds for ns in r.analyze_ns
            ) / 1e9,
            "evaluate_s": statistics.median(r.evaluate_s for r in rounds),
            "peak_rss_mb": peak_rss_mb,
        }
        units = {"setup_s": "s", "collect_s": "s", "analyze_s": "s",
                 "evaluate_s": "s", "peak_rss_mb": "MiB"}
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 0


def _layer_metrics(tracer, result) -> dict:
    """Per-layer figures of one traced round (see ``tracing.LAYER_METRICS``)."""
    import tracing

    metrics = tracing.layer_metrics(tracer)
    # Benchmark bookkeeping ran inside the collector's span with no span
    # of its own; it belongs to no layer.
    metrics["core.collect_self_s"] -= result.excluded_ns / 1e9
    covered = sum(tracer.covered_s(start, end) for start, end in result.windows)
    metrics["residual_s"] = result.timed_s + result.excluded_ns / 1e9 - covered
    metrics["core.stored_bytes"] = result.stored_bytes
    metrics["trace.spans"] = len(tracer.spans)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
