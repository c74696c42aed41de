"""Biharmonic submanifold verification in generalized complex and Sasakian space forms."""

__version__ = "0.1.0"

from .jets import DomainError, Jet
from .exprs import (
    Bindings,
    ExprError,
    ExprSyntaxError,
    UnboundConstantError,
    evaluate_expr,
    evaluate_jet,
    parse_expression,
)
from .ambient import (
    AmbientModel,
    ClassicalTag,
    GeometryError,
    coefficients_for_tag,
    verify_structure,
)
from .structure import DecompositionOperators, classify, decompose, verify_relations
from .submanifold import (
    Axis,
    ImmersionModel,
    NormalFieldDerivatives,
    PointGeometry,
    normal_derivatives,
    point_geometry,
    scalar_curvature,
)
from .residuals import (
    BiharmonicResidual,
    bound_check,
    cmc_characterization,
    nonexistence_audit,
    residual_gcsf,
    residual_general,
    residual_gssf,
)
from .scenario import (
    ConfigError,
    Report,
    ScenarioConfig,
    convergence_study,
    emit_report,
    load_scenario,
    run_check,
    sweep_solve,
)

__all__ = [
    "AmbientModel",
    "Axis",
    "BiharmonicResidual",
    "Bindings",
    "ClassicalTag",
    "ConfigError",
    "DecompositionOperators",
    "DomainError",
    "ExprError",
    "ExprSyntaxError",
    "GeometryError",
    "ImmersionModel",
    "Jet",
    "NormalFieldDerivatives",
    "PointGeometry",
    "Report",
    "ScenarioConfig",
    "UnboundConstantError",
    "bound_check",
    "classify",
    "cmc_characterization",
    "coefficients_for_tag",
    "convergence_study",
    "decompose",
    "emit_report",
    "evaluate_expr",
    "evaluate_jet",
    "load_scenario",
    "nonexistence_audit",
    "normal_derivatives",
    "parse_expression",
    "point_geometry",
    "residual_gcsf",
    "residual_general",
    "residual_gssf",
    "run_check",
    "scalar_curvature",
    "sweep_solve",
    "verify_relations",
    "verify_structure",
    "__version__",
]
