"""Serialization, reports, seeded corpus, oracle search, and the CLI."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from orderlab.cofinite import COFNAT
from orderlab import cli
from orderlab.cli import main
from orderlab import bits
from orderlab.errors import (
    BudgetExceeded,
    CheckFailed,
    GenerationBudgetExceeded,
    InputError,
)
from orderlab.fixtures import DIAMOND, SIERPINSKI, VEE
from orderlab.generate import corpus, derive_seed, generate_poset
from orderlab.io import (
    load_poset,
    poset_dot,
    poset_from_json,
    poset_to_json,
    space_dot,
    space_from_json,
    space_to_json,
)
from orderlab.posets import is_bounded_complete
from orderlab.reflections import (
    EQUATION_NAMES,
    all_posets,
    decomposition_check,
    pair_conditions_check,
)
from orderlab.scott import scott_space
from orderlab.spaces import MAX_UP_SETS
from orderlab.report import (
    ALL_WHICH,
    ORACLE_PATHS,
    REPORT_CHECKS,
    RunConfig,
    _meeting_minima,
    analyze_poset,
    analyze_space,
    canonical_json,
    inject_fault,
    oracle_search,
    panel_payload,
    parse_which,
    run_suite,
)
from orderlab.systems import classify
from orderlab.xizhao import xizhao_model

REPORT_KEYS = (
    "schema", "verdict", "input", "model", "families",
    "panel", "equations", "checks", "witnesses", "timing",
)


# ---------------------------------------------------------------------------
# serialization


def test_poset_json_round_trip():
    doc = poset_to_json(DIAMOND)
    assert doc == {
        "elements": ["bot", "m1", "m2", "top"],
        "leq": [["bot", "m1"], ["bot", "m2"], ["m1", "top"], ["m2", "top"]],
    }
    assert poset_from_json(doc) == DIAMOND
    chained = poset_from_json(
        {"elements": ["a", "b", "c"], "leq": [["a", "b"], ["b", "c"]]}
    )
    assert chained.leq(0, 2)  # loading closes the relation transitively


def test_space_json_round_trip():
    doc = space_to_json(SIERPINSKI)
    assert doc == {"points": ["0", "1"], "opens": [[], ["1"], ["0", "1"]]}
    assert space_from_json(doc) == SIERPINSKI


def test_malformed_documents():
    for bad in (
        [],
        {"elements": ["a"]},
        {"elements": [1], "leq": []},
        {"elements": ["a"], "leq": [["a"]]},
        {"elements": ["a"], "leq": 5},
        {"elements": ["a"], "leq": None},
        {"elements": ["a"], "leq": [[["a"], "a"]]},
    ):
        with pytest.raises(InputError):
            poset_from_json(bad)
    for bad in (
        "nope",
        {"points": ["a"]},
        {"points": ["a"], "opens": [["b"]]},
        {"points": ["a"], "opens": ["a"]},
        {"points": ["a"], "opens": 5},
        {"points": ["a"], "opens": [[["a"]]]},
    ):
        with pytest.raises(InputError):
            space_from_json(bad)


def test_load_errors(tmp_path):
    with pytest.raises(InputError):
        load_poset(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InputError):
        load_poset(str(bad))


def test_dot_rendering():
    dot = poset_dot(VEE)
    assert dot.startswith('digraph "poset" {')
    assert '  rankdir=BT;' in dot
    assert '  "a" -> "b";' in dot and '  "a" -> "c";' in dot
    assert '"a" -> "c"' == '"a" -> "c"'  # covers only, no composite edges
    dot = space_dot(SIERPINSKI, "s")
    assert '  "0" -> "1";' in dot


# ---------------------------------------------------------------------------
# generation


def test_seed_derivation_frozen():
    assert [derive_seed(1, i) for i in range(3)] == [
        6364136223846793005,
        7806831264735756412,
        9249526305624719819,
    ]


def test_generation_is_deterministic_and_bounded_complete():
    a = generate_poset(42, 7)
    b = generate_poset(42, 7)
    assert a == b
    assert is_bounded_complete(a)[0]
    assert generate_poset(5, 1).labels == ("bot",)
    seen = [poset for _i, poset in corpus(3, 20, 6)]
    assert len(seen) == 20
    assert all(is_bounded_complete(p)[0] for p in seen)
    assert all(p.n <= 6 for p in seen)


def test_generation_budget():
    with pytest.raises(GenerationBudgetExceeded):
        generate_poset(44, 7, budget=1)


# ---------------------------------------------------------------------------
# reports


def test_selector_parsing():
    assert parse_which("all") == ALL_WHICH
    assert parse_which("EQ0, pair") == ("EQ0", "pair")
    assert parse_which("EQ0,EQ0") == ("EQ0",)
    with pytest.raises(InputError):
        parse_which("EQ7")
    with pytest.raises(InputError):
        parse_which("")


def test_run_config_validation():
    cfg = RunConfig(seed=9, trials=3)
    assert cfg.as_dict()["seed"] == 9
    with pytest.raises(InputError):
        RunConfig(seed=-1)
    with pytest.raises(InputError):
        RunConfig(trials=0)
    with pytest.raises(InputError):
        RunConfig(which=("EQ7",))


def test_canonical_json_is_compact():
    assert canonical_json({"a": 1, "b": [1, 2]}) == '{"a":1,"b":[1,2]}'


def test_poset_report_shape_and_values():
    report = analyze_poset(VEE)
    assert tuple(report.keys()) == REPORT_KEYS
    assert report["schema"] == "orderlab-report/1"
    assert report["verdict"] == "PASS"
    assert report["witnesses"] == [] and report["timing"] is None
    assert report["model"]["size"] == 4
    assert report["model"]["max_points"] == ["b@b", "c@c"]
    assert report["families"]["KF"] == [
        ["a@b"], ["a@c"], ["a@b", "b@b", "a@c"], ["a@b", "a@c", "c@c"]
    ]
    assert len(report["equations"]) == 11
    assert all(e["passed"] for e in report["equations"])
    checks = report["checks"]
    assert checks["pair"]["Sc"] == {
        "p1": True, "p2": True, "p3": True, "compact_checked": 6
    }
    assert checks["embed"]["sober"]["embedding"]
    assert checks["shen"]["model"]["final_covers_sobrification"]
    assert checks["embed2"] == {"x_index": 0, "y_index": 0, "stages_checked": 2}
    assert len(checks["key"]) == 6
    assert all(row["biconditional"] for row in checks["key"])
    assert checks["agreement"]["agree"]
    assert json.loads(canonical_json(report)) == report


def test_poset_report_builds_each_scott_space_once(monkeypatch):
    # every Scott space a pair model holds is built through xizhao's
    # `scott_space`
    import orderlab.xizhao

    built = []
    build = orderlab.xizhao.scott_space

    def counting(poset):
        built.append(poset)
        return build(poset)

    xizhao_model.cache_clear()
    monkeypatch.setattr(orderlab.xizhao, "scott_space", counting)
    analyze_poset(VEE)
    # the model's own space, then the base's for the maximal-point check
    assert built == [xizhao_model(VEE).poset, VEE]
    # a second report reads both spaces off the cached model
    built.clear()
    analyze_poset(VEE)
    assert built == []


def test_poset_report_computes_each_pair_witness_once():
    # pair[Sc], pair[Irr], EQ2 for both families and every embed2 stage
    # ask for the one family of a finite pair model (Sc = Irr)
    pair_conditions_check.cache_clear()
    analyze_poset(VEE)
    info = pair_conditions_check.cache_info()
    assert info.hits + info.misses >= 6
    assert info.misses == 1


def test_orderlab_runs_without_numpy():
    # a None entry in sys.modules makes `import numpy` raise ImportError
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from orderlab.fixtures import DIAMOND, VEE\n"
        "from orderlab.reflections import sobrification\n"
        "from orderlab.report import analyze_poset\n"
        "from orderlab.scott import scott_space\n"
        "from orderlab.systems import classify\n"
        "assert analyze_poset(VEE)['verdict'] == 'PASS'\n"
        "space = scott_space(DIAMOND)\n"
        "sobrification(space)\n"
        "classify(space)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_a_budget_met_inside_a_check_is_not_a_witness(monkeypatch):
    import orderlab.report as report_module

    def over_budget(poset, name):
        raise BudgetExceeded("test budget")

    monkeypatch.setattr(report_module, "decomposition_check", over_budget)
    with pytest.raises(BudgetExceeded, match="test budget"):
        analyze_poset(VEE, ("EQ0",))


def test_a_failed_max_homeo_keeps_the_max_panel(monkeypatch):
    """classify writes the maximal part's panel whether or not max-homeo
    holds, and a budget met in max-homeo still propagates."""
    import orderlab.report as report_module

    passing = analyze_poset(VEE, ("classify",))

    def failing(model):
        raise CheckFailed("not homeomorphic")

    monkeypatch.setattr(report_module, "max_homeo_check", failing)
    report = analyze_poset(VEE, ("classify",))
    assert [(w["check"], w["error"]) for w in report["witnesses"]] == [
        ("max-homeo", "verification failed: not homeomorphic"),
    ]
    assert report["checks"] == passing["checks"]
    assert list(report["checks"]["classify"]) == ["max_panel"]

    def over_budget(model):
        raise BudgetExceeded("test budget")

    monkeypatch.setattr(report_module, "max_homeo_check", over_budget)
    with pytest.raises(BudgetExceeded, match="test budget"):
        analyze_poset(VEE, ("classify",))


def test_poset_report_selector_subset():
    """Each selector alone reports exactly its equation or its one check."""
    report = analyze_poset(VEE, ("EQ0",))
    assert [e["name"] for e in report["equations"]] == ["EQ0"]
    assert report["checks"] == {}
    assert report["verdict"] == "PASS"
    assert ALL_WHICH == EQUATION_NAMES + tuple(REPORT_CHECKS)
    for name in ALL_WHICH:
        report = analyze_poset(VEE, (name,))
        assert report["verdict"] == "PASS", name
        names = [e["name"] for e in report["equations"]]
        if name in EQUATION_NAMES:
            assert names == [v.name for v in decomposition_check(VEE, name)]
            assert report["checks"] == {}, name
        else:
            assert names == [], name
            assert list(report["checks"]) == [name]


def test_space_reports():
    report = analyze_space(SIERPINSKI)
    assert report["verdict"] == "PASS"
    assert report["checks"]["collapse"] == {
        "sober": "eta is a homeomorphism",
        "wf": "eta is a homeomorphism",
    }
    assert report["checks"]["sobrify"]["points"] == 2
    assert report["checks"]["shen"]["index"] == 0
    report = analyze_space(COFNAT)
    assert report["input"] == {"kind": "builtin", "name": "cofinite-nat"}
    assert report["families"]["Sc"] == "ALL_SINGLETONS"
    assert report["families"]["WD"] == {
        "status": "DETERMINED", "value": "ALL_SINGLETONS + WHOLE"
    }
    assert report["checks"]["sobrify"] == {"added_points": ["TOP"]}
    assert report["checks"]["wfreflect"] == {"same_as_sobrification": True}
    assert report["checks"]["shen"]["stages"] == ["N", "N + TOP", "N + TOP"]
    assert report["checks"]["window"] == {"kf_witness_agrees": True}


def test_suite_is_byte_deterministic():
    cfg = RunConfig(seed=11, max_size=5, trials=4, which=("EQ0", "pair"))
    first = [canonical_json(r) for _l, r in run_suite(cfg)]
    second = [canonical_json(r) for _l, r in run_suite(cfg)]
    assert first == second
    assert len(first) == 3 + 4  # fixtures, then the trials
    labels = [json.loads(line)["instance"] for line in first]
    assert labels == ["CHAIN2", "VEE", "DIAMOND",
                      "trial/0", "trial/1", "trial/2", "trial/3"]
    assert all(json.loads(line)["verdict"] == "PASS" for line in first)


# sha256 of the canonical bytes below: a change that keeps every report
# keeps it, and one that changes a report must re-record it and say why
PINNED_REPORT_SHA256 = "2ace4ffcd814795a3a177d76ccecd8ec7c11bb363774b82d0d01689418d5f925"


def test_report_bytes_are_pinned():
    cfg = RunConfig(seed=20260816, max_size=7, trials=10, which=ALL_WHICH)
    doc = {
        "suite": [[label, report] for label, report in run_suite(cfg)],
        "diamond": analyze_space(scott_space(DIAMOND)),
    }
    digest = hashlib.sha256(canonical_json(doc).encode()).hexdigest()
    assert digest == PINNED_REPORT_SHA256


PINNED_COFNAT_SHA256 = "67f863d3c41bd37216ae4150e3aca4504adffa3f104c3549aee97283a114f11d"


def test_cofinite_report_bytes_are_pinned(capsys):
    capsys.readouterr()
    assert main(["wfreflect", "--builtin", "cofinite-nat"]) == 0
    doc = {
        "analyze": canonical_json(analyze_space(COFNAT)),
        "panel": canonical_json(panel_payload(classify(COFNAT))),
        "wfreflect": capsys.readouterr().out,
    }
    digest = hashlib.sha256(canonical_json(doc).encode()).hexdigest()
    assert digest == PINNED_COFNAT_SHA256


# ---------------------------------------------------------------------------
# oracle search


def test_oracle_search_clean():
    cfg = RunConfig(seed=2, max_size=5, trials=5)
    assert oracle_search(cfg) == []


def test_oracle_search_catches_injected_faults():
    cfg = RunConfig(seed=2, max_size=5, trials=2)
    for path in ORACLE_PATHS:
        with inject_fault(path):
            found = oracle_search(cfg)
        assert found, path
        assert {d["path"] for d in found} == {path}
        assert all("replay" in d for d in found)
    assert oracle_search(cfg) == []  # faults do not leak
    with pytest.raises(InputError):
        with inject_fault("nonsense"):
            pass


def test_the_oracle_scan_route_is_the_pairwise_definition():
    # every compact set of the Scott space of every order on 4 points
    compared = 0
    for p in all_posets(4):
        sigma = scott_space(p)
        for k in sigma.opens[1:]:
            meeting = [c for c in sigma.closed if c and c & k]
            pairwise = bits.canon(
                c for c in meeting
                if not any(d != c and bits.is_subset(d, c) for d in meeting)
            )
            assert _meeting_minima(sigma.closed, k) == pairwise
            compared += 1
    assert compared > 1000


# ---------------------------------------------------------------------------
# the command line


@pytest.fixture()
def instances(tmp_path):
    vee = tmp_path / "vee.json"
    vee.write_text(json.dumps(
        {"elements": ["a", "b", "c"], "leq": [["a", "b"], ["a", "c"]]}
    ))
    sierp = tmp_path / "sierp.json"
    sierp.write_text(json.dumps(
        {"points": ["0", "1"], "opens": [[], ["1"], ["0", "1"]]}
    ))
    indiscrete = tmp_path / "indiscrete.json"
    indiscrete.write_text(json.dumps(
        {"points": ["x", "y"], "opens": [[], ["x", "y"]]}
    ))
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(
        {"elements": [f"x{i}" for i in range(61)], "leq": []}
    ))
    chain26 = tmp_path / "chain26.json"
    chain26.write_text(json.dumps(
        {"elements": [f"c{i}" for i in range(26)],
         "leq": [[f"c{i}", f"c{i + 1}"] for i in range(25)]}
    ))
    # a bottom below three atoms, four leaves above each atom: 16
    # elements, a 36-pair model and 557 136 Scott opens
    atoms = [f"a{i}" for i in range(3)]
    leaves = [(a, f"{a}l{j}") for a in atoms for j in range(4)]
    tree16 = tmp_path / "tree16.json"
    tree16.write_text(json.dumps(
        {"elements": ["b"] + atoms + [leaf for _, leaf in leaves],
         "leq": [["b", a] for a in atoms] + [list(p) for p in leaves]}
    ))
    return {"vee": str(vee), "sierp": str(sierp),
            "indiscrete": str(indiscrete), "huge": str(huge),
            "chain26": str(chain26), "tree16": str(tree16), "dir": tmp_path}


def test_cli_analyze(instances, capsys):
    assert main(["analyze", "--poset", instances["vee"]]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "PASS"
    out = instances["dir"] / "report.json"
    assert main(["analyze", "--space", instances["sierp"],
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["verdict"] == "PASS"
    assert main(["analyze", "--builtin", "cofinite-nat"]) == 0


def test_cli_input_errors(instances, capsys):
    # zero or two inputs
    assert main(["analyze"]) == 2
    assert main(["analyze", "--poset", instances["vee"],
                 "--builtin", "cofinite-nat"]) == 2
    assert main(["xizhao"]) == 2
    # classify does not define --poset at all, so argparse itself bails
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--poset", instances["vee"]])
    assert exc.value.code == 2
    assert main(["sobrify", "--builtin", "cofinite-nat", "--emit", "dot"]) == 2
    assert main(["analyze", "--poset", instances["vee"],
                 "--out", str(instances["dir"] / "no" / "dir.json")]) == 2
    # a non-T0 space violates the classifier's precondition: bad input
    assert main(["classify", "--space", instances["indiscrete"]]) == 2
    capsys.readouterr()


def test_cli_non_t0_space(instances, capsys):
    # the classifier needs a T0 carrier; the reflections take any space
    assert main(["analyze", "--space", instances["indiscrete"]]) == 2
    assert main(["classify", "--space", instances["indiscrete"]]) == 2
    capsys.readouterr()
    for command in ("sobrify", "wfreflect"):
        assert main([command, "--space", instances["indiscrete"]]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["members"] == [["x", "y"]]
        assert payload["eta"] == {"x": "{x,y}", "y": "{x,y}"}


def test_cli_exit_codes_one_and_three(instances, capsys):
    # a 61-element carrier exhausts the mask budget
    assert main(["analyze", "--poset", instances["huge"]]) == 3
    # a 26-element chain passes bounded completeness at once and then
    # meets the 16-element algebraicity budget
    assert main(["analyze", "--poset", instances["chain26"]]) == 3
    # a detected disagreement turns the oracle run red
    with inject_fault("eta-image"):
        assert main(["oracle", "--trials", "1", "--max-size", "3"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["disagreements"]
    capsys.readouterr()


def _cli_subprocess(*argv):
    """Run the command line in a fresh interpreter: (result, seconds)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    started = time.monotonic()
    result = subprocess.run(
        [sys.executable, "-m", "orderlab.cli", *argv],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    return result, time.monotonic() - started


def test_cli_refuses_a_space_past_the_open_set_budget(instances):
    # the tree passes the carrier and algebraicity budgets; its Scott
    # space is refused on the first up-set past MAX_UP_SETS, before any
    # check runs, so the refusal is exit 3 and not a FAIL witness
    result, seconds = _cli_subprocess("analyze", "--poset", instances["tree16"])
    assert seconds < 10
    assert result.returncode == 3, result.stderr
    assert "Traceback" not in result.stderr
    assert f"more than {MAX_UP_SETS} open sets" in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("argv, message", [
    # draws a 19-element poset: the oracle's scan budget refuses it
    (("oracle", "--seed", "38", "--max-size", "24", "--trials", "1"),
     "bounded-completeness oracle limited to 16 elements"),
    # draw n = 885 441: refused before its pair draws
    (("oracle", "--seed", "0", "--max-size", "1000000", "--trials", "1"),
     "carrier of size 885442 exceeds the 60-point budget"),
    (("search", "--seed", "0", "--max-size", "1000000", "--trials", "1"),
     "carrier of size 885442 exceeds the 60-point budget"),
], ids=["oracle-19-elements", "oracle-huge-draw", "search-huge-draw"])
def test_cli_refuses_an_oversized_draw_at_once(argv, message):
    result, seconds = _cli_subprocess(*argv)
    assert result.returncode == 3, result.stderr
    assert seconds < 2
    assert "Traceback" not in result.stderr
    assert message in result.stderr


def test_cli_xizhao(instances, capsys):
    assert main(["xizhao", "--poset", instances["vee"]]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["max_points"] == ["b@b", "c@c"]
    assert main(["xizhao", "--poset", instances["vee"], "--emit", "dot"]) == 0
    dot = capsys.readouterr().out
    assert '"a@b" -> "b@b";' in dot and '"a@c" -> "c@c";' in dot


def test_cli_reflections(instances, capsys):
    assert main(["sobrify", "--space", instances["sierp"]]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["eta"] == {"0": "{0}", "1": "{0,1}"}
    assert payload["members"] == [["0"], ["0", "1"]]
    assert main(["sobrify", "--builtin", "cofinite-nat"]) == 0
    assert json.loads(capsys.readouterr().out)["added_points"] == ["TOP"]
    assert main(["wfreflect", "--builtin", "cofinite-nat"]) == 0
    assert json.loads(capsys.readouterr().out)["same_as_sobrification"] is True
    assert main(["wfreflect", "--space", instances["sierp"],
                 "--emit", "dot"]) == 0
    assert '"{0}" -> "{0,1}";' in capsys.readouterr().out


def test_cli_classify(instances, capsys):
    assert main(["classify", "--space", instances["sierp"]]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["flags"]["sober"]["value"] is True
    assert main(["classify", "--builtin", "cofinite-nat"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["flags"]["sober"]["value"] is False
    assert payload["flags"]["h_model"]["value"] is True


def test_cli_builds_its_parser_once(instances, monkeypatch, capsys):
    built = []

    def counted():
        built.append(1)
        return real()

    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    assert main(["classify", "--builtin", "cofinite-nat"]) == 0
    assert main(["xizhao", "--poset", instances["vee"]]) == 0
    assert len(built) == 1
    capsys.readouterr()
    # importing the cli builds nothing: its import time is start-up time
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    probe = subprocess.run(
        [sys.executable, "-c",
         "import orderlab.cli as c; print(c._parser.cache_info().currsize)"],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert probe.stdout.strip() == "0", probe.stderr


def test_cli_check_equations(instances, capsys):
    assert main(["check-equations"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [json.loads(l)["instance"] for l in lines] == [
        "CHAIN2", "VEE", "DIAMOND"
    ]
    assert all(
        e["passed"] for l in lines for e in json.loads(l)["equations"]
    )
    assert main(["check-equations", "--poset", instances["vee"],
                 "--which", "EQ0"]) == 0
    line = json.loads(capsys.readouterr().out)
    assert line["instance"] == "input"
    assert [e["name"] for e in line["equations"]] == ["EQ0"]
    assert main(["check-equations", "--which", "pair"]) == 2


def test_cli_search_and_oracle(instances, capsys):
    assert main(["search", "--trials", "2", "--max-size", "4",
                 "--which", "EQ0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 5
    assert all(json.loads(l)["verdict"] == "PASS" for l in lines)
    assert main(["oracle", "--trials", "2", "--max-size", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["disagreements"] == []
    assert payload["config"]["trials"] == 2
