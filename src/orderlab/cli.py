"""Command-line front end.

Every subcommand reads JSON instances (or the built-in cofinite line),
drives the corresponding engine, and emits canonical JSON or DOT.
Exit codes: 0 all pass, 1 verdict failure, 2 input error, 3 budget
exceeded.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache

from . import bits
from .cofinite import COFNAT, sobrify_cofnat, wfreflect_cofnat
from .errors import BudgetExceeded, InputError, OrderLabError
from .io import (
    load_poset,
    load_space,
    poset_dot,
    poset_to_json,
    space_dot,
    space_to_json,
)
from .fixtures import FIXTURE_POSETS
from .reflections import EQUATION_NAMES, decomposition_check, sobrification, wf_reflection
from .report import (
    RunConfig,
    analyze_poset,
    analyze_space,
    canonical_json,
    equation_row,
    oracle_search,
    panel_payload,
    parse_which,
    run_suite,
)
from .systems import classify
from .xizhao import xizhao_model


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orderlab",
        description="exact workbench for order-topology constructions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_inputs(sp, poset=True, space=True, builtin=True):
        if poset:
            sp.add_argument("--poset", metavar="FILE",
                            help="poset JSON file")
        if space:
            sp.add_argument("--space", metavar="FILE",
                            help="space JSON file")
        if builtin:
            sp.add_argument("--builtin", choices=["cofinite-nat"],
                            help="built-in infinite instance")

    def add_emit(sp, emits):
        sp.add_argument("--emit", choices=list(emits), default=emits[0])
        sp.add_argument("--out", metavar="PATH",
                        help="write output here instead of stdout")

    sp = sub.add_parser("analyze", help="full report for one instance")
    add_inputs(sp)
    sp.add_argument("--which", default="all", metavar="LIST|all")
    add_emit(sp, ("json",))

    sp = sub.add_parser("xizhao", help="build the dcpo pair model")
    add_inputs(sp, space=False, builtin=False)
    add_emit(sp, ("json", "dot"))

    sp = sub.add_parser("sobrify", help="sobrification of a space")
    add_inputs(sp, poset=False)
    add_emit(sp, ("json", "dot"))

    sp = sub.add_parser("wfreflect", help="well-filtered reflection")
    add_inputs(sp, poset=False)
    add_emit(sp, ("json", "dot"))

    sp = sub.add_parser("classify", help="classifier flag panel")
    add_inputs(sp, poset=False)
    add_emit(sp, ("json",))

    sp = sub.add_parser("check-equations",
                        help="decomposition equations on an instance")
    add_inputs(sp, space=False, builtin=False)
    sp.add_argument("--which", default="all", metavar="LIST|all")
    add_emit(sp, ("json",))

    sp = sub.add_parser("search", help="seeded corpus property run")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--max-size", type=int, default=7)
    sp.add_argument("--trials", type=int, default=50)
    sp.add_argument("--which", default="all", metavar="LIST|all")
    add_emit(sp, ("json",))

    sp = sub.add_parser("oracle", help="redundant-path disagreement search")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--max-size", type=int, default=6)
    sp.add_argument("--trials", type=int, default=25)
    add_emit(sp, ("json",))
    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first `main` call rather than at import."""
    return build_parser()


def _write(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    except OSError as exc:
        raise InputError(f"cannot write {out_path}: {exc}") from None


def _one_input(args):
    """The single instance named by --poset/--space/--builtin."""
    given = [
        name
        for name in ("poset", "space", "builtin")
        if getattr(args, name, None)
    ]
    if len(given) != 1:
        raise InputError("give exactly one of --poset, --space, --builtin")
    kind = given[0]
    if kind == "poset":
        return "poset", load_poset(args.poset)
    if kind == "space":
        return "space", load_space(args.space)
    return "builtin", COFNAT


def _cmd_analyze(args) -> int:
    which = parse_which(args.which)
    kind, value = _one_input(args)
    if kind == "poset":
        report = analyze_poset(value, which)
    else:
        report = analyze_space(value)
    _write(canonical_json(report), args.out)
    return 0 if report["verdict"] == "PASS" else 1


def _cmd_xizhao(args) -> int:
    if not args.poset:
        raise InputError("xizhao needs --poset FILE")
    base = load_poset(args.poset)
    model = xizhao_model(base)
    if args.emit == "dot":
        _write(poset_dot(model.poset, "pair-model"), args.out)
        return 0
    payload = {
        "input": poset_to_json(base),
        "model": poset_to_json(model.poset),
        "max_points": [
            model.poset.labels[i] for i in bits.indices_of(model.max_mask)
        ],
    }
    _write(canonical_json(payload), args.out)
    return 0


def _reflection_command(args, kind: str) -> int:
    input_kind, value = _one_input(args)
    if input_kind == "builtin":
        if args.emit == "dot":
            raise InputError("the built-in line has no finite DOT rendering")
        payload = {"input": {"kind": "builtin", "name": "cofinite-nat"}}
        if kind == "sobrify":
            payload["added_points"] = list(sobrify_cofnat().added_points)
        else:
            sob, same = wfreflect_cofnat()
            payload["added_points"] = list(sob.added_points)
            payload["same_as_sobrification"] = same
        _write(canonical_json(payload), args.out)
        return 0
    space = value
    hyper = sobrification(space) if kind == "sobrify" else wf_reflection(space)
    if args.emit == "dot":
        _write(space_dot(hyper.space, kind), args.out)
        return 0
    payload = {
        "input": space_to_json(space),
        "points": list(hyper.space.labels),
        "members": [list(space.labels_of_mask(m)) for m in hyper.members],
        "eta": {
            space.labels[x]: hyper.space.labels[hyper.eta[x]]
            for x in range(space.n)
        },
    }
    _write(canonical_json(payload), args.out)
    return 0


def _cmd_classify(args) -> int:
    _kind, value = _one_input(args)
    _write(canonical_json(panel_payload(classify(value))), args.out)
    return 0


def _cmd_check_equations(args) -> int:
    which = parse_which(args.which)
    names = tuple(w for w in which if w in EQUATION_NAMES)
    if not names:
        raise InputError("check-equations needs equation selectors")
    if args.poset:
        instances = [("input", load_poset(args.poset))]
    else:
        instances = list(FIXTURE_POSETS.items())
    lines = []
    ok = True
    for label, poset in instances:
        verdicts = [v for name in names for v in decomposition_check(poset, name)]
        ok = ok and all(v.passed for v in verdicts)
        rows = [equation_row(v) for v in verdicts]
        lines.append(canonical_json({"instance": label, "equations": rows}))
    _write("\n".join(lines), args.out)
    return 0 if ok else 1


def _cmd_search(args) -> int:
    cfg = RunConfig(
        seed=args.seed,
        max_size=args.max_size,
        trials=args.trials,
        which=parse_which(args.which),
    )
    lines = []
    ok = True
    for _label, report in run_suite(cfg):
        lines.append(canonical_json(report))
        ok = ok and report["verdict"] == "PASS"
    _write("\n".join(lines), args.out)
    return 0 if ok else 1


def _cmd_oracle(args) -> int:
    cfg = RunConfig(seed=args.seed, max_size=args.max_size,
                    trials=args.trials)
    found = oracle_search(cfg)
    payload = {
        "config": cfg.as_dict(),
        "disagreements": found,
    }
    _write(canonical_json(payload), args.out)
    return 0 if not found else 1


_COMMANDS = {
    "analyze": _cmd_analyze,
    "xizhao": _cmd_xizhao,
    "sobrify": lambda a: _reflection_command(a, "sobrify"),
    "wfreflect": lambda a: _reflection_command(a, "wfreflect"),
    "classify": _cmd_classify,
    "check-equations": _cmd_check_equations,
    "search": _cmd_search,
    "oracle": _cmd_oracle,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BudgetExceeded as exc:
        print(f"orderlab: budget exceeded: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"orderlab: {exc}", file=sys.stderr)
        return 2
    except OrderLabError as exc:
        print(f"orderlab: check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
