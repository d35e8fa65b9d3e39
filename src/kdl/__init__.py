"""kdl: exact classification of degenerations of primary Kodaira surfaces.

The package decides, from discrete data alone, which irreducible locally
normal crossing surfaces with trivial canonical class are d-semistable, what
they deform to, and how the boundary of the completed moduli space is
stratified; and it constructs and verifies the toric smoothing families
behind those statements at the level of fans and lattice group actions.
"""

from .boundary import (
    AdjacencyEdge,
    StratumComponent,
    adjacency_edges,
    enumerate_components,
    local_model,
)
from .classify import (
    EllipticRuledDatum,
    GluingMatrix,
    HopfDatum,
    RationalDatum,
    SurfaceClass,
    Verdict,
    classify,
    cohomology_table,
    hopf_dsemistable,
    hopf_dsemistable_oracle,
    hopf_invariants,
    hopf_kx_zero,
    quotient_degree,
    ruled_dsemistable,
    smoothing_verdict,
    tangent_table,
    versal_descriptor,
)
from .errors import (
    ArityMismatch,
    DimMismatch,
    KdlError,
    MalformedInput,
    MalformedMorphism,
    NotAUnit,
    NotDivisible,
    NotSL2,
    RankMismatch,
)
from .fans import (
    Cone,
    EllipticSmoothing,
    FanWindow,
    GroupElement,
    HopfSmoothing,
    MumfordNeron,
    RationalSmoothing,
    apply,
    cone_at,
    cone_is_smooth,
    deflection,
    fan_window,
    share_facet,
)
from .graphs import (
    BicolouredGraph,
    GluingClass,
    GraphMorphism,
    PolygonGluing,
    betti1,
    classify_gluing,
    enumerate_gluings,
    enumerate_rational_models,
    gluing_morphism,
    pullback_rank,
)
from .lattice import IntMatrix, IntVec, det, extends_to_basis, is_unimodular, mod_inverse
from .smoothing import (
    SmoothingFamily,
    VerificationReport,
    build_family,
    verify_family,
)

__version__ = "0.1.0"
