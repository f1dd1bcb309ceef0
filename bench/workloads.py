"""The four workloads: their inputs, the call each verdict times, and checks.

A workload hands out its inputs in rounds of verdicts.  child.py empties
the program's caches before every round and stops a run only between
rounds, so every run does whole rounds of the same kind of work, however
many fit.  `setup` makes the first POOL rounds; later rounds are made
when first asked for, outside the timed calls, so a run never replays
its input stream.  `run` is the one timed call; `check` compares its
output with properties computed by `orders`, apart from the program.
orderlab is imported inside the methods, after child.py has timed the
import.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil

import orders


def check_analysis(poset, report) -> list[str]:
    """Properties every analyze_poset report on a generated poset must have."""
    up, labels = poset.up, poset.labels
    pairs = orders.model_pairs(up)
    tops = [f"{labels[e]}@{labels[e]}" for e in orders.maximal(up)]
    model, fam = report["model"], report["families"]
    sc = [frozenset(m) for m in fam["Sc"]]
    irr = [frozenset(m) for m in fam["Irr"]]
    flags = report["panel"]["flags"]
    checks = {
        "verdict is PASS": report["verdict"] == "PASS",
        "every equation passed": bool(report["equations"])
        and all(e["passed"] for e in report["equations"]),
        "model.size counts the pairs (x, e), e maximal, x <= e":
            model["size"] == len(pairs),
        "model elements are the x@e labels": sorted(model["elements"])
        == sorted(f"{labels[x]}@{labels[e]}" for x, e in pairs),
        "model.max_points are the e@e labels": sorted(model["max_points"]) == sorted(tops),
        "Sc has one member per model point": len(set(sc)) == len(sc) == len(pairs),
        "Sc equals Irr": set(sc) == set(irr) and len(irr) == len(sc),
        "sober flag": flags["sober"]["value"] is True,
        "well_filtered flag": flags["well_filtered"]["value"] is True,
    }
    return [name for name, ok in checks.items() if not ok]


class Workload:
    POOL = 1  # rounds made at set-up; the rest are made as the run needs them
    FIXED_ROUNDS = 1  # rounds of a traced run and of its untraced twin

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.rounds: list[list] = []
        self.drawn = 0

    def draw(self, max_size: int):
        """The next poset of this workload's seeded generate_poset stream."""
        from orderlab.generate import derive_seed, generate_poset

        poset = generate_poset(derive_seed(self.seed, self.drawn), max_size)
        self.drawn += 1
        return poset

    def setup(self) -> None:
        self.round(self.POOL - 1)

    def round(self, r: int) -> list:
        while len(self.rounds) <= r:
            self.rounds.append(self.next_round())
        return self.rounds[r]

    def finish(self, rounds: int) -> tuple[list[str], dict]:
        """Checks made once per run, and facts about the inputs."""
        return [], {"draws": self.drawn}

    def run(self, poset):
        from orderlab import report

        return report.analyze_poset(poset)

    def check(self, poset, out) -> list[str]:
        return check_analysis(poset, out)


class Corpus(Workload):
    """Small bounded-complete posets, shaped like the acceptance corpus.

    A round is 50 posets of at most 7 elements, taken in order from one
    seeded stream until each model size has its QUOTA, like one
    `orderlab search --trials 50 --max-size 7` with cold caches.  The
    quotas are the stream's own mix of model sizes, measured on 450
    draws; fixing them keeps the few posets of 10 to 12 pairs, which
    take ten to thirty times the median verdict, from setting a run's
    figure by their number.  Repeated posets are left in.
    """

    MAX_SIZE = 7
    QUOTA = {2: 8, 3: 4, 4: 7, 5: 4, 6: 7, 7: 5, 8: 5, 9: 4, 10: 3, 11: 2, 12: 1}
    POOL = 2
    FIXED_ROUNDS = 2

    def next_round(self) -> list:
        need, out = dict(self.QUOTA), []
        while len(out) < sum(self.QUOTA.values()):
            item, poset = self.draw_item()
            pairs = len(orders.model_pairs(poset.up))
            if need.get(pairs, 0):
                need[pairs] -= 1
                out.append(item)
        return out

    def draw_item(self):
        """The next input, and the poset whose model size sets its quota."""
        poset = self.draw(self.MAX_SIZE)
        return poset, poset

    def finish(self, rounds: int) -> tuple[list[str], dict]:
        done = self.rounds[:rounds]
        repeats = sum(len(r) - len(set(r)) for r in done)
        return [], {"draws": self.drawn,
                    "repeated_share": repeats / sum(len(r) for r in done)}


class Ladder(Workload):
    """Larger posets, one per rung of model size, in every round.

    A round holds one poset whose pair model has 12, 13 and 14 pairs,
    each with 80 to 200 Scott opens and at least three maximal elements.
    analyze_poset's cost grows about twofold per pair, and with two
    maximal elements the slices are longer and a verdict can take three
    times as long, so fixed rungs keep every round's work alike whatever
    the seed, and no single instance takes a large share of a run.  The
    counts come from `orders`, not from the program.
    """

    RUNGS = (12, 13, 14)
    OPENS = (80, 200)
    MIN_MAXIMAL = 3
    MAX_SIZE = 10
    POOL = 2
    FIXED_ROUNDS = 4

    def next_round(self) -> list:
        found = {}
        while len(found) < len(self.RUNGS):
            poset = self.draw(self.MAX_SIZE)
            pairs = len(orders.model_pairs(poset.up))
            if (pairs not in self.RUNGS or pairs in found
                    or len(orders.maximal(poset.up)) < self.MIN_MAXIMAL):
                continue
            opens = orders.count_up_sets(orders.model_up(poset.up))
            if self.OPENS[0] <= opens <= self.OPENS[1]:
                found[pairs] = poset
        return [found[k] for k in self.RUNGS]


class Oracle(Corpus):
    """Seeded configurations through the public oracle_search.

    Each verdict is one oracle_search over the three fixtures and one
    generated poset of at most 7 elements; with one poset per call, no
    call meets the same poset twice, so each object is built once.  A
    round is 50 calls whose posets fill the corpus QUOTA.  Set-up
    generates each poset once to read its model size; oracle_search
    generates it again from the configuration.
    """

    TRIALS = 1
    FIXED_ROUNDS = 6

    def draw_item(self):
        from orderlab.generate import derive_seed, generate_poset
        from orderlab.report import RunConfig

        seed = derive_seed(self.seed, self.drawn)
        self.drawn += 1
        cfg = RunConfig(seed=seed, max_size=self.MAX_SIZE, trials=self.TRIALS)
        # the poset oracle_search will draw: corpus() trial 0 of cfg.seed
        return cfg, generate_poset(derive_seed(seed, 0), self.MAX_SIZE)

    def run(self, cfg):
        from orderlab import report

        return report.oracle_search(cfg)

    def check(self, cfg, out) -> list[str]:
        return [] if out == [] else [f"oracle_search found {len(out)} disagreements"]

    def finish(self, rounds: int) -> tuple[list[str], dict]:
        """Each injected fault must be reported: the check can fail."""
        from orderlab import report

        problems = []
        for path in report.ORACLE_PATHS:
            with report.inject_fault(path):
                found = report.oracle_search(self.rounds[0][0])
            if not any(d["path"] == path for d in found):
                problems.append(f"injected fault {path!r} went unreported")
        return problems, {"faults_injected": len(report.ORACLE_PATHS)}


class Cli(Workload):
    """In-process orderlab.cli.main calls over JSON files written at set-up.

    Every round writes fresh files and makes the same fifteen calls:
    sobrify and classify on two exported Scott spaces with 128 to 256
    opens and two with 257 to 512 (both sides of make_space's k <= 256
    switch); analyze on chains of 17, 18 and 19 elements, over the
    16-element budget; analyze on four malformed documents.
    """

    SPACE_MAX_SIZE = 11
    SMALL = (128, 256)
    LARGE = (257, 512)
    CHAINS = (17, 18, 19)
    FIXED_ROUNDS = 2

    def _write(self, name: str, doc) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def _spaces(self, band, count: int, tag: str) -> list[tuple[str, int]]:
        """Scott spaces of pair models, exported as space documents."""
        out = []
        while len(out) < count:
            base = self.draw(self.SPACE_MAX_SIZE)
            m_up = orders.model_up(base.up)
            if not band[0] <= orders.count_up_sets(m_up) <= band[1]:
                continue
            points = [f"{base.labels[x]}@{base.labels[e]}"
                      for x, e in orders.model_pairs(base.up)]
            opens = [[p for i, p in enumerate(points) if u >> i & 1]
                     for u in orders.up_sets(m_up)]
            out.append((self._write(f"{tag}{len(out)}.json",
                                    {"points": points, "opens": opens}), len(points)))
        return out

    def _poset(self, name: str, elements, leq) -> str:
        return self._write(name, {"elements": list(elements), "leq": [list(p) for p in leq]})

    def next_round(self) -> list:
        r = f"r{len(self.rounds)}"
        ops = []
        for path, n in (self._spaces(self.SMALL, 2, f"{r}-small")
                        + self._spaces(self.LARGE, 2, f"{r}-large")):
            ops += [("sobrify", path, (0,), n), ("classify", path, (0,), n)]
        for n in self.CHAINS:
            chain = [f"{r}c{i}" for i in range(n)]
            path = self._poset(f"{r}-chain{n}.json", chain, zip(chain, chain[1:]))
            ops.append(("analyze", path, (0, 3), n))
        a, b, c = (r + x for x in "abc")
        for name, elements, leq in (
            ("cycle", (a, b, c), ((a, b), (b, c), (c, a))),
            ("duplicate", (a, b, a), ((a, b),)),
            ("unknown", (a, b), ((a, r + "z"),)),
            ("not-bounded-complete", (a, b, c), ((a, c), (b, c))),
        ):
            ops.append(("analyze", self._poset(f"{r}-{name}.json", elements, leq), (2,), 0))
        return ops

    def setup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        super().setup()

    def run(self, op):
        from orderlab import cli

        command, path, _expect, _n = op
        out = path[:-5] + f".{command}.out"
        flag = "--poset" if command == "analyze" else "--space"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main([command, flag, path, "--out", out])
        return code, err.getvalue(), out

    def check(self, op, result) -> list[str]:
        command, path, expect, n = op
        code, err, out = result
        where = f"{command} {os.path.basename(path)}"
        if code not in expect:
            return [f"{where}: exit {code}, expected {expect}: {err.strip()}"]
        if "Traceback" in err:
            return [f"{where}: traceback on stderr"]
        if code != 0:
            return []
        with open(out, encoding="utf-8") as fh:
            payload = json.load(fh)
        if command == "sobrify":
            eta = payload["eta"]
            ok = (len(payload["points"]) == n and len(eta) == n
                  and set(eta.values()) == set(payload["points"]))
            return [] if ok else [f"{where}: eta is not a bijection onto the points"]
        if command == "classify":
            flags = payload["flags"]
            ok = flags["sober"]["value"] is True and flags["well_filtered"]["value"] is True
            return [] if ok else [f"{where}: a finite T0 space must be sober"]
        return [] if payload["verdict"] == "PASS" else [f"{where}: verdict {payload['verdict']}"]

    def finish(self, rounds: int) -> tuple[list[str], dict]:
        shutil.rmtree(self.workdir, ignore_errors=True)
        return [], {"draws": self.drawn, "calls_per_round": len(self.rounds[0])}


WORKLOADS = {"corpus": Corpus, "ladder": Ladder, "oracle": Oracle, "cli": Cli}
