"""Weighted composition operators between the Lipschitz space and the
bounded functions on rooted trees, computed on finite truncations and
cross-checked by brute-force extremal oracles."""

from .certificate import Certificate, FAILS, HOLDS, TREND_CONSISTENT, TREND_INCONSISTENT
from .classify import (
    Fixture,
    TrendConfig,
    bundled_fixtures,
    classify_linf,
    classify_lip,
    classify_operator,
    default_schedule,
    fixture_by_name,
    seven_equivalences,
)
from .functions import (
    NormReport,
    VertexFunction,
    depth_cap,
    derivative,
    freeze_beyond,
    growth_check,
    indicator,
    norms,
    ramp_function,
    ramp_lip_norm,
    random_function,
    sector_indicator,
    truncate_beyond,
)
from .io import (
    SpecError,
    canonical_json,
    fixture_report,
    golden_dir,
    load_function_spec,
    load_map_spec,
    load_specs,
    load_tree_spec,
    operator_quantities,
    tree_to_spec,
)
from .operators import (
    MapSpecError,
    SelfMap,
    WeightedCompOp,
    apply_op,
    composition_op,
    constant_map,
    identity_map,
    isometry_check_linf,
    isometry_check_lip,
    j_linf,
    j_lip_bracket,
    k_linf,
    k_lip_bracket,
    linf_ess_norm_profile,
    linf_ess_norm_tail,
    linf_op_norm,
    lip_bounds,
    lip_ess_norm_profile,
    lip_ess_norm_tail,
    lip_exact_norm,
    map_from_table,
    multiplication_op,
    random_map,
    random_permutation_map,
    tail_trend_slope,
    zline_double,
    zline_fold,
)
from .oracle import (
    OracleResult,
    OracleSizeError,
    j_oracle_linf_bracket,
    norm_oracle_linf,
    norm_oracle_lip,
    point_eval_lip_norm,
    surjectivity_infeasibility,
)
from .trees import (
    RootedTree,
    TreeStructureError,
    explicit_tree,
    homogeneous,
    random_tree,
    zline,
)

__version__ = "0.1.0"
