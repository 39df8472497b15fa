"""The repository benchmark: one workload per invocation, result on the
last line of standard output.

Run from the root of a checkout::

    python3 loadbench/run.py --workload serve-synthetic --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures with nothing installed in the program and prints
every end-to-end metric.  ``--trace 1`` is the traced run: an untraced
pass and then a traced pass of the same workload and seed, printing
every per-layer metric plus the tracing overhead (traced over untraced).
The last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the
run record (provenance, calibration, steal, samples, failures by
reason).  A failed check prints the result with ``correct: false`` and
exits 1.  A run that cannot measure exits 2 without a result.  See
``loadbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
TIMEOUT_S = 175  # the whole run, build included
TRACE_MIN_READS = 20


class RunStopped(Exception):
    """Past ``TIMEOUT_S`` or sent SIGTERM: unwind so every child stops."""


def _stop(signum, frame):
    if signum == signal.SIGALRM:
        raise RunStopped(f"run exceeded {TIMEOUT_S} s")
    raise RunStopped(f"stopped by signal {signum}")


def _loss_record(work_root: pathlib.Path, key: str, loss_hex: str):
    """The final loss an earlier run of the same workload, seed and
    source recorded, or None; records this one."""
    path = work_root / "final_losses.json"
    try:
        seen = json.loads(path.read_text())
    except (OSError, ValueError):
        seen = {}
    previous = seen.get(key)
    seen[key] = loss_hex
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(seen, indent=0, sort_keys=True))
    os.replace(tmp, path)
    return previous


def measure(args, workload, work_dir: pathlib.Path, record: dict):
    """Run the workload; returns (metrics, outcomes, extra failures)."""
    from loadbench import workloads

    cpus = sorted(os.sched_getaffinity(0))
    record["cpus"] = cpus
    if not args.trace:
        life = workloads.Lifecycle(ROOT, workload, args.seed, args.seconds,
                                   work_dir, cpus)
        try:
            return _untraced(life, record)
        finally:
            life.close()
    # Two passes, each of half the run's seconds; they need p50s only,
    # so fewer reads suffice.
    life = workloads.Lifecycle(ROOT, workload, args.seed, args.seconds / 2,
                               work_dir, cpus, min_reads=TRACE_MIN_READS)
    try:
        return _traced(life, record)
    finally:
        life.close()


def _untraced(life, record: dict):
    from loadbench import workloads

    run = life.run_pass(traced=False, setups=3)
    record["samples"] = workloads.samples(run)
    record["setup"] = {"train_s": run.train_setup_s,
                       "server_ready_s": run.server_ready_s}
    record["final_loss"] = run.train["final_loss"]
    extra = {}
    key = "/".join((repr(life.workload), str(life.seed),
                    record["provenance"]["source_sha1"]))
    previous = _loss_record(life.work_dir.parent, key, run.train["final_loss_hex"])
    if previous is not None and previous != run.train["final_loss_hex"]:
        extra["final_loss_not_repeatable"] = 1
    return workloads.end_to_end(run), run.outcomes, extra


def _traced(life, record: dict):
    from loadbench import layers, workloads

    plain = life.run_pass(traced=False, setups=1)
    traced = life.run_pass(traced=True, setups=1)
    record["samples"] = {"untraced": workloads.samples(plain),
                         "traced": workloads.samples(traced)}
    metrics = layers.layer_metrics(
        traced.trainer_trace, traced.server_trace,
        workloads.client_predict_seconds(traced), workloads.rows_served(traced),
        traced.train,
    )
    base, over = workloads.p50s(plain), workloads.p50s(traced)
    for name in base:
        metrics[f"trace.overhead.{name}"] = layers.metric(over[name] / base[name], "ratio")
    record["untraced_p50s"] = base
    record["traced_p50s"] = over
    extra = {}
    # Tracing must not change what the program computes.
    if plain.train["final_loss_hex"] != traced.train["final_loss_hex"]:
        extra["trace_changed_final_loss"] = 1
    a = workloads.timed_predict_responses(plain)
    b = workloads.timed_predict_responses(traced)
    differing = sum(x != y for x, y in zip(a, b))
    if differing:
        extra["trace_changed_response"] = differing
    return metrics, plain.outcomes + traced.outcomes, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}: run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from loadbench import provenance

    # Before numpy is imported: single-threaded BLAS here and in every
    # child, which inherits the environment.
    for var in provenance.THREAD_VARS:
        os.environ[var] = "1"
    from loadbench import loadgen, workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _stop)
    signal.signal(signal.SIGTERM, _stop)
    signal.alarm(TIMEOUT_S)
    work_root = ROOT / ".loadbench"
    work_dir = work_root / f"{workload.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    record = {"workload": workload.name, "trace": args.trace,
              "provenance": provenance.provenance(ROOT, args.seed, str(work_dir.relative_to(ROOT)))}
    try:
        record["calibration_before"] = provenance.calibrate()
        ticks = provenance.cpu_ticks()
        started = time.monotonic()
        metrics, outcomes, extra = measure(args, workload, work_dir, record)
        record["wall_s"] = time.monotonic() - started
        record["steal_pct"] = provenance.steal_pct(ticks, provenance.cpu_ticks())
        record["calibration_after"] = provenance.calibrate()
    except (workloads.BenchError, RunStopped, ValueError) as exc:
        print(f"benchmark could not measure: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)
    reasons = loadgen.failure_counts(outcomes)
    for reason, count in extra.items():
        reasons[reason] = reasons.get(reason, 0) + count
    failed = sum(1 for o in outcomes if o.failure) + sum(extra.values())
    attempted = len(outcomes) + sum(extra.values())
    record["ops"] = {"attempted": attempted, "failed": failed,
                     "failure_reasons": reasons}
    correct = failed == 0
    if correct:  # a failed run keeps its logs for inspection
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
