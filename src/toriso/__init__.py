"""toriso: exact-arithmetic toolkit for isospectral flat tori.

Lattices with exact rational bases, quadratic-form spectra, certified
isospectrality and non-isometry checks, orthogonal decomposition, and the
mod-q code lift used to search for isospectral families.

``__all__`` is the public surface: every name imported below, read off
the module's globals (names starting with "_" and modules left out), so
the imports are the one list of it.  Nothing is exported that only tests
need.
``toriso.triplet`` holds the bundled six-dimensional triplet and
``toriso.formats`` the text and JSON serializers used by the command
line interface.

Each exact-arithmetic concept has one implementation, with two
deliberate exceptions.  Each form is eliminated once: a GramForm keeps
the Bareiss data of its positive-definiteness check, and the
enumeration walk reuses it.  So is each lattice: its reduced basis is
the one LLL reduction of its Gram form, which the walk runs in.  Every rank comes from the Hermite normal
form.  The scalar monomial orbit behind
canonical_monomial_form stays next to the packed orbit of the search,
because verify_tuple uses it as the independent re-check of the search's
verdict.  The prime-modulus branch of the canonical code rows stays next
to the Hermite-form branch, because the modulus selects it and it is
about 1.5 times faster on the canonical forms verify_tuple takes.
"""

import types as _types

from .codes import (
    CodeError,
    LinearCode,
    canonical_monomial_form,
    equal_weight_distribution,
    lift,
    project,
    weight_distribution,
)
from .decomposition import (
    Component,
    Decomposition,
    DecompositionError,
    decompose,
)
from .enumeration import (
    RepSpectrum,
    VectorList,
    enumerate_up_to,
    independent_ladder,
    rep_spectrum,
    shortest_vectors,
)
from .formats import FormatError
from .isometry import (
    EquivalenceWitness,
    SearchBudgetExceeded,
    SearchStats,
    integral_equivalence,
    norm_caps,
)
from .lattices import (
    GramForm,
    Lattice,
    LatticeError,
    choir_family,
    double_form,
    dual,
    gram,
    is_even,
    level,
    scale,
)
from .linalg import (
    DimensionError,
    LinalgError,
    Mat,
    NotPositiveDefiniteError,
    RankError,
    ShapeError,
    det,
    eigenvalue_lower_bound,
    hnf,
    lattices_equal,
    ldl,
)
from .search import (
    CollisionTuple,
    SearchReport,
    TupleVerificationError,
    run_search,
    verify_tuple,
)
from .spectra import IsoCertificate, Verdict, certify, hecke_threshold, mu0

__version__ = "0.1.0"

__all__ = sorted(
    name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _types.ModuleType)
)
