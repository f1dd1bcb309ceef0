"""The per-layer tracer's contract with the package it traces.

`bench/tracer.py` names the functions it wraps in `LAYERS`; a renamed
or moved function would make `bench/run.py --trace 1` fail, so each
name is resolved here, and each layer that reports cache hits must
still be an `lru_cache`.  The tracer's `clear_caches` must reach the
package's value-keyed memos.
"""

import importlib
import importlib.util
from pathlib import Path

from orderlab.fixtures import VEE
from orderlab.reflections import pair_conditions_check
from orderlab.spaces import point_closures
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
