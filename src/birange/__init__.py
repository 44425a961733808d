"""Bi-elliptical numerical range classification for structured 4x4 matrices.

The public surface mirrors the module layout:

* :mod:`birange.linalg` -- deterministic fixed-size complex arithmetic.
* :mod:`birange.forms` -- block, special and reciprocal matrix forms.
* :mod:`birange.nrcore` -- spectra, pencil eigenvalues, boundary oracle.
* :mod:`birange.criteria` -- the classification criteria and ellipse
  extraction.
* :mod:`birange.verify` -- independent geometric and algebraic oracles.
* :mod:`birange.cli` -- the ``birange`` command-line tool.
"""

from .criteria import (
    Ellipse,
    EllipsePairParams,
    Reason,
    ReciprocalShape,
    Verdict,
    check_general,
    check_special,
    criterion_T,
    ellipse_geometry,
    ellipse_pair_params,
    find_theta,
    reciprocal_classify,
    solve_b,
)
from .forms import (
    BlockForm,
    Frame,
    ReciprocalForm,
    SpecialForm,
    normalize_block,
    reduce_to_special,
)
from .linalg import (
    CMatrix,
    schur_upper_2x2,
    sqrt_principal,
)
from .nrcore import (
    Boundary,
    FlatPortion,
    GeneratingPoly,
    Spectrum,
    boundary_support,
    flat_portions,
    generating_poly,
    pencil_eigs,
    spectrum,
)
from .verify import (
    AuditReport,
    Check,
    audit,
    check_documents,
    commutant_dim,
    factorization_residual,
    hull_support_gap,
    verify_checks,
)

__version__ = "0.1.0"
