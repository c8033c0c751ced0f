"""Computational toolkit for contractive Weyl curves of symmetric operators.

Core objects: points on the Lagrangian/contraction Grassmannian of a
finite-dimensional boundary space, analytic curves of contractions B(lambda),
a verified Sturm-Liouville backend producing such curves, eigenvalue
localization through Schubert-section determinants, and Nevanlinna-style
value-distribution functionals (height, counting, proximity).
"""

from .errors import (ChartError, DegenerateBCError, DomainError,
                     NumericalError, ValidationError, WeylcurveError)
from .symplectic import (GrassPoint, PseudoUnitary, cayley, chart_convert,
                         classify_subspace, form_eval, form_gram, graph_of,
                         mobius_pu, schubert_section, section_lognorm,
                         section_norm, transversality)
from .curves import (CurvatureResult, CurveProvider, congruence, constant,
                     curvature, exponential, gram_min_eig, kernel_block,
                     reparameterize, shifted_identity)
from .sturm import (FundamentalData, Potential, SLProblem, bc_from_physical,
                    curve_provider, degeneracy_scan, fundamental, gamma_minus,
                    gamma_plus, gamma_plus_gram, resolvent_residual, sl_weyl,
                    solve_bvp)
from .spectral import (BoundaryCondition, Eigenvalue, bc_from_canonical,
                       bc_from_chart, bc_from_unitary, char_function,
                       count_real, counting, eigenvalues_complex,
                       eigenvalues_real, interlace, is_degenerate,
                       monotone_margin, multiplicity, phase_count)
from .value_dist import (VDReport, defects, fmt_report, height, height_grid,
                         order_type, proximity, proximity_omega, total_phase)

__version__ = "1.0.0"

__all__ = [
    "WeylcurveError", "ValidationError", "ChartError", "DomainError",
    "NumericalError", "DegenerateBCError",
    "GrassPoint", "PseudoUnitary", "form_gram", "form_eval",
    "classify_subspace", "chart_convert", "graph_of", "mobius_pu", "cayley",
    "transversality", "schubert_section", "section_lognorm", "section_norm",
    "CurveProvider", "CurvatureResult", "constant",
    "shifted_identity", "exponential", "curvature", "kernel_block",
    "gram_min_eig", "reparameterize", "congruence",
    "Potential", "SLProblem", "FundamentalData", "fundamental", "sl_weyl",
    "curve_provider", "gamma_plus", "gamma_minus", "gamma_plus_gram",
    "bc_from_physical", "solve_bvp", "degeneracy_scan",
    "BoundaryCondition", "Eigenvalue", "bc_from_unitary",
    "bc_from_chart", "bc_from_canonical", "char_function", "is_degenerate",
    "eigenvalues_real", "eigenvalues_complex", "multiplicity", "count_real",
    "counting", "interlace", "phase_count", "monotone_margin",
    "resolvent_residual",
    "total_phase", "height", "height_grid", "proximity", "proximity_omega",
    "VDReport", "fmt_report", "order_type", "defects",
]
