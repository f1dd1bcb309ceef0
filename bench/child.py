"""One workload in one fresh process: set up, calibrate, run, check.

Started by run.py, never by hand.  Prints one JSON object as its last
line of standard output.  Modes:

- setup: import orderlab and generate the inputs, then stop;
- timed: run whole rounds until the timed calls add up to --seconds;
- traced: run the workload's FIXED_ROUNDS rounds, each twice, traced
  and untraced in turns, with the program's caches emptied before each
  pass.  Fixed work makes two traced runs with one seed do exactly the
  same calls; the untraced twin of each round, run next to it, gives
  the tracing overhead on the same inputs at nearly the same host
  speed.  Set-up is traced too.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


PROBE_REF_S = 0.015  # the probe's time on the reference host
PROBE_EVERY_S = 0.5  # timed seconds between two probes within a round


def probe() -> float:
    """Seconds a fixed pure-Python loop takes: the host's speed just now."""
    start = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - start


def calibrate() -> float:
    """Median milliseconds of five probes."""
    return statistics.median(probe() for _ in range(5)) * 1000


def run_round(workload, ops, tracer, first: int):
    """Time each verdict of one round and check its output.

    The program's caches are emptied first, so every round starts cold.
    The host's speed is probed before the round, after every
    PROBE_EVERY_S of timed calls and after the round; each verdict time
    is also given in reference-host seconds, divided by the mean of the
    probes on either side of it over PROBE_REF_S.  Returns the verdict
    times, the same in reference-host seconds, the failed checks and the
    number of verdicts whose call raised.
    """
    tracer.clear_caches()
    times, ref_times, problems, failed = [], [], [], 0
    probes, pending = [probe()], []

    def rescale():
        factor = (probes[-2] + probes[-1]) / 2 / PROBE_REF_S
        ref_times.extend(t / factor for t in pending)
        pending.clear()

    for i, op in enumerate(ops):
        tracer.begin_verdict(first + i)
        start = time.perf_counter()
        try:
            out = workload.run(op)
        except Exception:
            failed += 1
            print(traceback.format_exc(), file=sys.stderr)
            continue
        times.append(time.perf_counter() - start)
        pending.append(times[-1])
        if sum(pending) >= PROBE_EVERY_S:
            probes.append(probe())
            rescale()
        problems += workload.check(op, out)
    probes.append(probe())
    rescale()
    return times, ref_times, problems, failed


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spawned", type=float, required=True,
                        help="wall-clock time at which run.py started this process")
    parser.add_argument("--spans", help="where the traced run writes its spans")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    start = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import orderlab
    import orderlab.cli  # not re-exported by the package; the cli workload calls it

    if not os.path.abspath(orderlab.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        raise SystemExit(f"orderlab was imported from {orderlab.__file__}, not from this checkout")
    import_s = time.perf_counter() - start

    from tracer import Tracer
    from workloads import WORKLOADS

    tracer = Tracer()
    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    if args.mode == "traced":
        tracer.install()
    start = time.perf_counter()
    workload.setup()
    inputs_s = time.perf_counter() - start
    tracer.uninstall()
    result = {"setup_s": time.time() - args.spawned,
              "import_s": import_s, "inputs_s": inputs_s}
    result["setup_ref_s"] = result["setup_s"] * PROBE_REF_S / statistics.median(
        probe() for _ in range(3))
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    calibration = [calibrate()]
    times, ref_times, problems, round_rates = [], [], [], []
    attempted = failed = rounds = 0
    traced_ref_s = untraced_ref_s = 0.0
    while True:
        ops = workload.round(rounds)
        if args.mode == "traced":
            # the round twice, untraced first on even rounds and traced
            # first on odd ones, for the tracing overhead
            for traced in (rounds % 2 == 1, rounds % 2 == 0):
                if traced:
                    tracer.install()
                    round_times, round_ref, round_problems, round_failed = run_round(
                        workload, ops, tracer, attempted)
                    tracer.uninstall()
                    traced_ref_s += sum(round_ref)
                else:
                    _, twin_ref, twin_problems, _ = run_round(workload, ops, tracer, attempted)
                    untraced_ref_s += sum(twin_ref)
                    problems += twin_problems
        else:
            round_times, round_ref, round_problems, round_failed = run_round(
                workload, ops, tracer, attempted)
        times += round_times
        ref_times += round_ref
        problems += round_problems
        failed += round_failed
        attempted += len(ops)
        rounds += 1
        if round_times:
            round_rates.append((len(round_times) / sum(round_times),
                                len(round_ref) / sum(round_ref)))
        if args.mode == "timed" and sum(times) >= args.seconds:
            break
        if args.mode == "traced" and rounds >= workload.FIXED_ROUNDS:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.mode == "traced":
        result.update(layers=tracer.metrics(), traced_ref_s=traced_ref_s,
                      untraced_ref_s=untraced_ref_s, spans=tracer.verdict_spans(),
                      span_cost_s=tracer.span_cost_s())
        tracer.write_spans(args.spans)
    more_problems, facts = workload.finish(rounds)
    problems += more_problems
    calibration.append(calibrate())
    for line in problems[:10]:
        print(f"{args.workload}: check failed: {line}", file=sys.stderr)
    result.update(
        correct=not problems, problems=len(problems), attempted=attempted,
        failed=failed, rounds=rounds, times=times, ref_times=ref_times,
        round_rates=round_rates,
        peak_rss_mb=peak_rss_mb, calibration_ms=calibration, facts=facts,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
