"""orderlab: exact workbench for finite order topology.

Finite posets and spaces with validated open families, Scott topologies,
dcpo pair models over the maximal-point space, lower-Vietoris hyperspace
reflections (sobrification and well-filtered), closed-set family
classifiers, and a symbolic cofinite-naturals instance.
"""

from .cofinite import (
    COFNAT,
    CofNat,
    CoSet,
    cofin,
    fin,
    shen_cofnat,
    sobrify_cofnat,
    wfreflect_cofnat,
    window_oracle,
)
from .errors import (
    BudgetExceeded,
    CheckFailed,
    InputError,
    OrderLabError,
)
from .families import (
    FilteredFamily,
    minimal_closed_meeting,
    wd_status,
)
from .fixtures import CHAIN2, DIAMOND, FIXTURE_POSETS, SIERPINSKI, VEE, discrete
from .generate import corpus, derive_seed, generate_poset
from .io import load_poset, load_space, poset_dot, poset_to_json, space_dot, space_to_json
from .posets import (
    FinPoset,
    is_algebraic_and_dcpo,
    is_bounded_complete,
    validate_poset,
)
from .reflections import (
    claim_embed2_check,
    decomposition_check,
    j_embedding_check,
    pair_conditions_check,
    shen_iterate,
    sobrification,
    universal_property_smoke,
    wf_reflection,
)
from .report import (
    RunConfig,
    analyze_poset,
    analyze_space,
    canonical_json,
    oracle_search,
    run_suite,
)
from .scott import max_point_space, scott_space
from .spaces import (
    ContinuousMap,
    FinSpace,
    compact_saturated_sets,
    irreducible_closed_sets,
    is_sober,
    make_space,
    point_closures,
)
from .systems import (
    IRR,
    KF,
    SC,
    SubsetSystemId,
    WD,
    classifier_agreement,
    classify,
    hc,
    hmodel_table,
    proposition_key_check,
)
from .xizhao import XiZhaoPoset, max_homeo_check, xizhao_model

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "CHAIN2",
    "COFNAT",
    "CheckFailed",
    "CofNat",
    "CoSet",
    "ContinuousMap",
    "DIAMOND",
    "FIXTURE_POSETS",
    "FilteredFamily",
    "FinPoset",
    "FinSpace",
    "IRR",
    "InputError",
    "KF",
    "OrderLabError",
    "RunConfig",
    "SC",
    "SIERPINSKI",
    "SubsetSystemId",
    "VEE",
    "WD",
    "XiZhaoPoset",
    "analyze_poset",
    "analyze_space",
    "canonical_json",
    "claim_embed2_check",
    "classifier_agreement",
    "classify",
    "cofin",
    "compact_saturated_sets",
    "corpus",
    "decomposition_check",
    "derive_seed",
    "discrete",
    "fin",
    "generate_poset",
    "hc",
    "hmodel_table",
    "irreducible_closed_sets",
    "is_algebraic_and_dcpo",
    "is_bounded_complete",
    "is_sober",
    "j_embedding_check",
    "load_poset",
    "load_space",
    "make_space",
    "max_homeo_check",
    "max_point_space",
    "minimal_closed_meeting",
    "oracle_search",
    "pair_conditions_check",
    "point_closures",
    "poset_dot",
    "poset_to_json",
    "proposition_key_check",
    "run_suite",
    "scott_space",
    "shen_cofnat",
    "shen_iterate",
    "sobrification",
    "sobrify_cofnat",
    "space_dot",
    "space_to_json",
    "universal_property_smoke",
    "validate_poset",
    "wd_status",
    "wf_reflection",
    "wfreflect_cofnat",
    "window_oracle",
    "xizhao_model",
]
