"""supergeo: exact verification of 2|2 supermanifold atlases over the
projective plane -- Grassmann-Laurent algebra, supermatrices and Berezinians,
Cech cohomology of line bundles, family builders, and a CLI driver."""

__version__ = "0.1.0"

from .superalg import (
    NotAUnit,
    ParseError,
    SuperElem,
    SuperError,
    TableMismatch,
    VarTable,
    deriv_even,
    deriv_odd_left,
    format_elem,
    invert_unit,
    parse,
    substitute,
    truncate_J,
)
from .supermat import (
    SuperMatrix,
    berezinian,
    det_even,
    inverse,
    matmul,
    standard_form,
)
from .atlas import (
    Atlas,
    MatrixCocycle,
    TransitionMap,
    chart0_walk,
    check_cocycle_loop,
    even_remainder_derivation,
    is_calabi_yau,
    jacobian,
    standard_chart,
)
from .cech import (
    CohClass,
    basis_top,
    bott,
    default_picard_lift,
    euler_char,
    h1_tangent,
    h1_tangent_bott,
    h_line,
    monomial_str,
    obstruction_delta,
    omega_cocycle_sum,
    picard_delta,
    serre_dual_params,
)
from .families import (
    atlas_equal,
    berezinian_normal_form,
    big_cell,
    build_decomposable,
    build_generic,
    build_omega1,
    build_pi_plane,
    cotangent_cocycle,
    decomposable_cocycle,
    fermionic_cocycle,
    frame_signs,
    normal_form_signs,
    sym_restricted_rank,
)
