"""Numerical engine for radius-parametrized Dirichlet forms on balls.

Locates conjugate radii of the linearized problem on shrinking
geodesic balls, computes the crossing form two independent ways,
verifies the Morse index identity against the summed crossing
multiplicities, and confirms bifurcation of nontrivial semilinear
solutions at the located radii.
"""

from .metric import MetricModel
from .problem import ProblemSpec, parse_field
from .fem import Assembler, Mesh, build_mesh
from .spectral import inertia, kernel_eigenpairs
from .conjugate import (
    ConjugateRadius,
    CrossingFormReport,
    DegenerateRadiusOneError,
    IndexReport,
    ScanResult,
    VerificationError,
    crossing_form_boundary,
    crossing_form_fd,
    endpoint_kernel_gap,
    find_conjugate_radii,
    scan,
    verify_crossing,
    verify_index,
)
from .branch import (
    BranchSample,
    BranchTrace,
    newton_solve,
    trace_branch,
)

__version__ = "0.1.0"
