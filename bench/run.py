"""orderlab benchmark: end-to-end and per-layer metrics over four workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload corpus --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1

Each workload runs in fresh child processes (bench/child.py), one after
another, each single threaded and with PYTHONHASHSEED fixed, so no
workload warms another's caches.  --trace 0 reports the end-to-end
metrics; --trace 1 runs a fixed amount of work, each round traced and
untraced in turns, and reports the per-layer metrics and the tracing
overhead.  The last line of standard output is one JSON object; the
full result, with calibration and sample counts, is also written to
.bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("corpus", "ladder", "oracle", "cli")
SETUP_PROBES = 2  # extra set-up-only processes; setup_s is the median of 3
WORKLOAD_LIMIT_S = 170  # all processes of one workload end within this

# times in reference-host units: see child.PROBE_REF_S
END_TO_END = {
    "throughput_ips": "1/s",
    "verdict_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def child(workload: str, seed: int, deadline: float, mode: str,
          seconds: float = 0.0) -> dict:
    """Run bench/child.py in a fresh interpreter and return its result.

    The process is killed, and this raises, if it is still running at
    `deadline` (a time.monotonic() value).
    """
    tag = f"{workload}-seed{seed}"
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
        "--seconds", str(seconds),
        "--spans", os.path.join(OUT, f"spans-{tag}.jsonl"),
        "--workdir", os.path.join(OUT, f"files-{tag}"),
        "--spawned", repr(time.time()),
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - time.monotonic(), 0.1), check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} {mode} process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile_ms(times: list[float], q: int) -> float | None:
    """The q-th percentile, or None when fewer than ten samples lie beyond it."""
    if len(times) * (100 - q) < 1000:
        return None
    return statistics.quantiles(times, n=100)[q - 1] * 1000


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    deadline = time.monotonic() + WORKLOAD_LIMIT_S
    setups = [child(workload, seed, deadline, "setup") for _ in range(SETUP_PROBES)]
    run = child(workload, seed, deadline, "timed", seconds)
    times, ref_times, rates = run["times"], run["ref_times"], run["round_rates"]
    setups.append(run)
    metrics = {
        "throughput_ips": statistics.median(ref_rate for _rate, ref_rate in rates),
        "verdict_ms_p50": statistics.median(ref_times) * 1000,
        "setup_s": statistics.median(s["setup_ref_s"] for s in setups),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    return {
        "correct": run["correct"], "attempted": run["attempted"], "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
        "verdict_ms_p90": percentile_ms(ref_times, 90),
        "wall_clock": {"throughput_ips": statistics.median(rate for rate, _ref_rate in rates),
                       "verdict_ms_p50": statistics.median(times) * 1000,
                       "verdict_ms_p90": percentile_ms(times, 90),
                       "setup_s": statistics.median(s["setup_s"] for s in setups)},
        "verdicts": len(times), "rounds": run["rounds"],
        "setup_samples_s": [s["setup_s"] for s in setups],
        "calibration_ms": run["calibration_ms"], "facts": run["facts"],
        "round_rates": rates, "times_s": times, "ref_times_s": ref_times,
    }


def per_layer(workload: str, seed: int) -> dict:
    from tracer import metric_names

    traced = child(workload, seed, time.monotonic() + WORKLOAD_LIMIT_S, "traced")
    values = dict(traced["layers"])
    values["setup.import_s"] = traced["import_s"]
    values["setup.inputs_s"] = traced["inputs_s"]
    traced_s = sum(traced["times"])
    values["trace.overhead_pct"] = (traced["traced_ref_s"] / traced["untraced_ref_s"] - 1) * 100
    values["trace.spans"] = traced["spans"]
    values["trace.span_cost_pct"] = traced["spans"] * traced["span_cost_s"] / traced_s * 100
    return {
        "correct": traced["correct"], "attempted": traced["attempted"],
        "failed": traced["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, _better in metric_names()},
        "traced_ref_s": traced["traced_ref_s"], "untraced_ref_s": traced["untraced_ref_s"],
        "calibration_ms": traced["calibration_ms"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "orderlab", "__init__.py")):
        print("bench: no orderlab sources under src/; run from a checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    sys.path.insert(0, HERE)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        if args.trace:
            res = per_layer(name, args.seed)
        else:
            res = end_to_end(name, args.seed, args.seconds)
        results[name] = res
        with open(os.path.join(OUT, f"{name}-seed{args.seed}-trace{args.trace}.json"),
                  "w", encoding="utf-8") as fh:
            json.dump(res, fh, indent=1)
        for metric, m in res["metrics"].items():
            print(f"{name:7s} {metric:42s} {m['value']:14.6g} {m['unit']}")
        if not args.trace:
            p90 = res["verdict_ms_p90"]
            print(f"{name:7s} {'verdict_ms_p90':42s} "
                  + (f"{p90:14.6g} ms" if p90 is not None else
                     f"{'-':>14s}    (fewer than 100 verdicts: {res['verdicts']})"))
            for metric, value in res["wall_clock"].items():
                if value is not None:
                    unit = {"throughput_ips": "1/s", "setup_s": "s"}.get(metric, "ms")
                    print(f"{name:7s} {metric + ' (wall clock)':42s} {value:14.6g} {unit}")
        print(f"{name:7s} {'calibration_ms (before, after)':42s} "
              + " ".join(f"{c:.2f}" for c in res["calibration_ms"]))
        print(f"{name:7s} correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}", flush=True)

    if len(names) == 1:
        final = {k: results[names[0]][k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": m for n, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
