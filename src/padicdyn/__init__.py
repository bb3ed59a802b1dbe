"""p-adic polynomial dynamics: conjugacy to z^d near infinity, Newton
polygons, and preimage-tree degree growth, over exact-rational or
capped-precision coefficient backends."""

from .boettcher import (BoettcherData, Conjugacy, EscapeResult, MonicPoly,
                        boettcher_series, cauchy_rate_check, cf_constant,
                        cf_sup_check, compose_through_poly, conjugacy,
                        escape_test, functional_equation_check,
                        good_reduction, omega_at, point_identity_report,
                        rescaled_integrality_ok)
from .arboreal import (DegreeChain, KummerLevel, TransportReport,
                       certify_degree, degree_chain, predicted_degree_step,
                       subgroup_orbit_count, transport_check,
                       transported_valuation)
from .errors import (BudgetError, DomainError, InternalError, PadicDynError,
                     PrecisionError, UsageError)
from .localfield import (CappedField, ExactField, ExtensionField, Valuation,
                         conjugates, field_for, hensel_lift)
from .newton import (NewtonPolygon, RamificationCertificate, build_polygon,
                     root_valuations, total_ramification_certificate)
from .series import (DiskSpec, PointValue, TailSeries, agreement_order,
                     evaluate, gauss_norm, lagrange_invert)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
