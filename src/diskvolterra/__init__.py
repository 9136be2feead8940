"""Volterra-composition operators between Zygmund-type spaces on the unit disk.

The package computes both sides of every asymptotic comparability in the
boundedness characterizations and essential-norm estimates for the four
products of Volterra-type and composition operators, at desk scale:
truncated-series arithmetic and closed-form symbols, weighted sup-norms over a refinable disk
grid, boundary test-function families, and sequence/boundary limsup
estimators, with a CLI for sweeps and convergence studies.
"""

from .series import N_WORK, Analytic, ClosedForm, TruncatedSeries, monomial
from .spaces import (DiskGrid, GrowthBoundReport, NonFiniteValueError, SupEstimate,
                     Weight, bloch_norm, default_grid, golden_max, grid_supremum,
                     growth_bound_check, monomial_norm, weighted_sup_norm,
                     zygmund_norm)
from .operators import (CPHIUG, CPHIVG, KINDS, UGCPHI, VGCPHI, InvalidSelfMapError,
                        SelfMapSymbol, apply_product, apply_ug, apply_vg,
                        image_zygmund_norm, operator_norm_estimate,
                        product_second_derivative, symbol_from_config,
                        symbol_weights)
from .testfns import (FAMILY_KINDS, TestFamily, family_zygmund_norm, to_series,
                      verify_family_claims)
from .criteria import (CriterionQuantity, CriterionReport, MembershipCheck,
                       check_boundedness, conditions_for, pointwise_quantity,
                       sequence_quantity)
from .essnorm import (BoundaryScan, ConditionEstimate, EssNormEstimate,
                      OperatorNotBoundedError, boundary_limsup, essential_norm,
                      essnorm_conditions, sequence_limsup)

__version__ = "0.1.0"

__all__ = [
    "N_WORK", "Analytic", "ClosedForm", "TruncatedSeries", "monomial",
    "DiskGrid", "GrowthBoundReport", "NonFiniteValueError", "SupEstimate",
    "Weight", "bloch_norm", "default_grid", "golden_max", "grid_supremum",
    "growth_bound_check", "monomial_norm", "weighted_sup_norm", "zygmund_norm",
    "CPHIUG", "CPHIVG", "KINDS", "UGCPHI", "VGCPHI", "InvalidSelfMapError",
    "SelfMapSymbol", "apply_product", "apply_ug", "apply_vg",
    "image_zygmund_norm", "operator_norm_estimate", "product_second_derivative",
    "symbol_from_config", "symbol_weights",
    "FAMILY_KINDS", "TestFamily", "family_zygmund_norm", "to_series",
    "verify_family_claims",
    "CriterionQuantity", "CriterionReport", "MembershipCheck",
    "check_boundedness", "conditions_for", "pointwise_quantity",
    "sequence_quantity",
    "BoundaryScan", "ConditionEstimate", "EssNormEstimate",
    "OperatorNotBoundedError", "boundary_limsup", "essential_norm",
    "essnorm_conditions", "sequence_limsup",
]
