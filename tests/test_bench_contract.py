"""The per-layer tracer's contract with the package it traces.

`bench/tracer.py` names the functions it wraps in `LAYERS`; a renamed
or moved function would make `bench/run.py --trace 1` fail, so each
name is resolved here, and each layer that reports cache hits must
still be an `lru_cache`.  The tracer's `clear_caches` must reach the
package's value-keyed memos.
"""

import functools
import gc
import importlib
import importlib.util
import sys
from pathlib import Path

from orderlab import families, reflections
from orderlab.families import kf_sets, wd_status
from orderlab.fixtures import VEE
from orderlab.generate import derive_seed, generate_poset
from orderlab.reflections import (
    _stage_step,
    j_embedding_check,
    pair_conditions_check,
    sobrification,
)
from orderlab.report import analyze_poset
from orderlab.spaces import (
    FinSpace,
    compact_saturated_sets,
    irreducible_closed_sets,
    point_closures,
    preorder_views,
    subspace,
)
from orderlab.systems import classify
from orderlab.xizhao import xizhao_model

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("orderlab_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    layers = _tracer().LAYERS
    assert layers
    for mod, funcs in layers.items():
        module = importlib.import_module(f"orderlab.{mod}")
        for name, extras in funcs.items():
            fn = getattr(module, name, None)
            assert callable(fn), f"orderlab.{mod}.{name} is gone"
            if "hits" in extras:
                assert hasattr(fn, "cache_info"), f"orderlab.{mod}.{name} is not cached"


def test_clear_caches_empties_the_pair_witness_memo():
    # the bench empties every cache between rounds, so no round reuses
    # a witness memoized by an earlier one
    pair_conditions_check(VEE, point_closures(xizhao_model(VEE).sigma))
    assert pair_conditions_check.cache_info().currsize > 0
    _tracer().Tracer().clear_caches()
    assert pair_conditions_check.cache_info().currsize == 0


def _package_caches() -> list:
    """Every lru_cache around a function or class of orderlab alive in
    the process, found by the collector rather than by module names, so
    a memo nested in a closure counts too."""
    return [
        obj for obj in gc.get_objects()
        if isinstance(obj, functools._lru_cache_wrapper)
        and str(getattr(obj, "__module__", "")).startswith("orderlab")
    ]


def test_clear_caches_empties_every_cache_in_the_package():
    # a memo the bench cannot empty would carry state across rounds
    analyze_poset(VEE)
    memos = (preorder_views, point_closures, irreducible_closed_sets,
             compact_saturated_sets, kf_sets, wd_status, j_embedding_check,
             _stage_step)
    assert all(memo.cache_info().currsize for memo in memos)
    caches = _package_caches()
    assert len(caches) > len(memos)
    _tracer().Tracer().clear_caches()
    left = [(c.__module__, c.__qualname__) for c in caches if c.cache_info().currsize]
    assert left == []


def test_clear_caches_forgets_every_copy_registration():
    # a registration is kept on the views of a preorder, so emptying the
    # views cache must drop it with them
    hyper = sobrification(xizhao_model(VEE).sigma)
    assert hyper.space.views.copy_of is not None
    _tracer().Tracer().clear_caches()
    fresh = FinSpace(hyper.space.labels, hyper.space.spec_up)
    assert fresh.views.copy_of is None


def test_the_definitional_meeting_route_runs_once_per_base(monkeypatch):
    # once for each preorder the report meets that is no registered copy:
    # the pair model's Scott space and the discrete two-point preorder of
    # its maximal points; the sobrification of the Scott space reads the
    # transported values
    real = families._meeting_by_lower_covers
    seen = []

    def counted(space):
        seen.append(space.spec_up)
        return real(space)

    monkeypatch.setattr(families, "_meeting_by_lower_covers", counted)
    _tracer().Tracer().clear_caches()
    analyze_poset(VEE)
    assert len(seen) == len(set(seen)) == 2


def _record_arguments(monkeypatch, original) -> list:
    """Rebind `original` in every loaded orderlab module that holds it to
    a wrapper that records each call's arguments, as the tracer does."""
    seen = []

    def recording(*args):
        seen.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name == "orderlab" or name.startswith("orderlab."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, recording)
    return seen


def test_a_poset_verdict_builds_each_subspace_and_panel_once(monkeypatch):
    # a ladder rung: 12 pairs, 103 Scott opens, three maximal elements
    poset = generate_poset(derive_seed(41, 17), 10)
    _tracer().Tracer().clear_caches()
    subspaces = _record_arguments(monkeypatch, subspace)
    panels = _record_arguments(monkeypatch, classify)
    assert analyze_poset(poset)["verdict"] == "PASS"
    assert xizhao_model(poset).poset.n == 12
    assert subspace.cache_info().misses == len(set(subspaces)) < len(subspaces)
    # the Scott space and its maximal points, each asked for twice
    assert classify.cache_info().misses == len(set(panels)) == 2
    assert len(panels) == 4
    # Sc = Irr and Irr = WD: one EQ2 pair and one closure map
    assert reflections._eq2_sides.cache_info().misses == 1
    assert reflections._closure_embedding.cache_info().misses == 1
