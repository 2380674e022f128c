"""Cooperative resource sharing between edge providers.

The package models providers that pool heterogeneous resources to serve
each other's applications, evaluates the worth of every coalition, and
splits the grand-coalition value either exactly (Shapley) or with a
linear-number-of-solves core construction.
"""
from .analysis import (
    ComparisonReport,
    CoreReport,
    MethodStats,
    SuperadditivityReport,
    compare_methods,
    core_verify,
    superadditivity_audit,
)
from .engine import (
    CharacteristicTable,
    FastCoreResult,
    build_characteristic_table,
    fast_core,
    shapley_from_table,
    shapley_payoffs,
)
from .model import (
    Allocation,
    Coalition,
    Scenario,
    UtilitySpec,
    all_coalitions,
    audit_allocation,
    generate_scenario,
    load_scenario,
    save_scenario,
    scenario_from_json,
    scenario_to_json,
    validate_scenario,
)
from .solver import (
    SolveReport,
    lmo_transport,
    solve_coalition,
    solve_native,
    solve_residual,
)
from .utility import (
    UtilityBreakdown,
    breakdown,
)

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "CharacteristicTable",
    "Coalition",
    "ComparisonReport",
    "CoreReport",
    "FastCoreResult",
    "MethodStats",
    "Scenario",
    "SolveReport",
    "SuperadditivityReport",
    "UtilityBreakdown",
    "UtilitySpec",
    "all_coalitions",
    "audit_allocation",
    "breakdown",
    "build_characteristic_table",
    "compare_methods",
    "core_verify",
    "fast_core",
    "generate_scenario",
    "lmo_transport",
    "load_scenario",
    "save_scenario",
    "scenario_from_json",
    "scenario_to_json",
    "shapley_from_table",
    "shapley_payoffs",
    "solve_coalition",
    "solve_native",
    "solve_residual",
    "superadditivity_audit",
    "validate_scenario",
    "__version__",
]
