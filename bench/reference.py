"""Reference figures for the README; neither is a pass/fail gate.

    python3 bench/reference.py suite-sha256
    python3 bench/reference.py size-wall --seed 1 --limit 20

suite-sha256: sha256 of the bytes `orderlab search --seed 20260816
--max-size 7 --trials 100` writes, the suite's canonical reports.  A
change that keeps every report keeps this hash.

size-wall: for model sizes of 12 pairs upwards, the first seeded poset
whose pair model has that many pairs goes through `orderlab analyze`
in a fresh process; the wall is the largest size that finishes within
--limit seconds.  The walk stops at the first size that does not.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
SUITE = ("--seed", "20260816", "--max-size", "7", "--trials", "100")


def suite_sha256() -> str:
    from orderlab import cli

    path = os.path.join(OUT, "suite.jsonl")
    code = cli.main(["search", *SUITE, "--out", path])
    if code != 0:
        raise SystemExit(f"orderlab search exited with {code}")
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def first_with_pairs(seed: int, pairs: int, max_size: int = 13, scan: int = 20_000):
    import orders
    from orderlab.generate import derive_seed, generate_poset

    for i in range(scan):
        poset = generate_poset(derive_seed(seed, i), max_size)
        if len(orders.model_pairs(poset.up)) == pairs:
            return i, poset
    raise SystemExit(f"no poset with {pairs} model pairs in {scan} draws")


def size_wall(seed: int, limit: float) -> None:
    """Time `orderlab analyze` in a fresh process on ever larger models."""
    import orders
    from orderlab.io import poset_to_json

    run_cli = ("import sys; sys.path.insert(0, sys.argv[1]); "
               "from orderlab.cli import main; sys.exit(main(sys.argv[2:]))")
    wall = None
    for pairs in range(12, 40):
        i, poset = first_with_pairs(seed, pairs)
        opens = orders.count_up_sets(orders.model_up(poset.up))
        path = os.path.join(OUT, f"wall-{pairs}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(poset_to_json(poset), fh)
        cmd = [sys.executable, "-c", run_cli, os.path.join(ROOT, "src"),
               "analyze", "--poset", path, "--out", path + ".report"]
        start = time.perf_counter()
        try:
            code = subprocess.run(cmd, timeout=limit, check=False).returncode
        except subprocess.TimeoutExpired:
            print(f"{pairs} pairs, {opens} Scott opens, draw {i}: "
                  f"no verdict within {limit:g} s")
            break
        print(f"{pairs} pairs, {opens} Scott opens, draw {i}: exit {code} "
              f"in {time.perf_counter() - start:.2f} s", flush=True)
        if code != 0:
            break
        wall = pairs
    print(f"size wall (seed {seed}, {limit:g} s): {wall} model pairs")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("figure", choices=("suite-sha256", "size-wall"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--limit", type=float, default=20.0)
    args = parser.parse_args()
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    os.makedirs(OUT, exist_ok=True)
    if args.figure == "suite-sha256":
        print(suite_sha256())
    else:
        size_wall(args.seed, args.limit)
    return 0


if __name__ == "__main__":
    sys.exit(main())
