"""dezakit: exact-arithmetic analysis of Deza graphs and their spectra.

Graphs are exact 0/1 matrices, eigenvalues are integers or canonical
quadratic irrationals, and every classification is verified by integer
arithmetic; no floating point is used, not even to propose candidates.
See the README for the command-line interface and the built-in
reproduction suite.
"""

from . import families
from .charpoly import CharPoly, char_poly
from .deza import (
    ChildPair,
    DdgParams,
    DezaParams,
    SrgParams,
    StronglyDezaResult,
    child_spectra_formula,
    children,
    detect_deza,
    detect_srg,
    is_divisible_design,
    is_strongly_deza,
    verify_child_formula,
)
from .distreg import (
    IntersectionArray,
    antipodal_from_spectrum,
    cosp_deza_check,
    ddg_drg_classification,
    distance3_counts,
    drg_deza_classification,
    intersection_array,
    intersection_numbers,
    is_antipodal,
    unitary_nonisotropics_check,
)
from .errors import ContradictionError, InfeasibleError, SpectrumShapeError
from .eigenvalues import Eigenvalue, Spectrum
from .graph6 import Graph6Error, parse_graph6, write_graph6
from .graphs import (
    UNREACHABLE,
    DistanceData,
    Graph,
    StructuralProfile,
    bipartite_double,
    common_neighbours,
    complement,
    distance_data,
    distance_i_graph,
    halved_graphs,
    line_graph,
    meet_graph,
    structural_profile,
)
from .report import build_report
from .spectra import NonQuadraticSpectrumError, exact_spectrum
from .theorems import (
    AffineFamily,
    SrgEigen,
    TheoremCase,
    affine_family_params,
    check_trace_identity,
    classify_eigenvalue_count,
    classify_last_case,
    classify_square_case,
    remaining_pair_five_eig,
    remaining_pair_four_eig,
    singular_check,
    srg_eigen,
    srg_params_from_spectrum,
    srg_spectrum,
    strongly_deza_witness,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
