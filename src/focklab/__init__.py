"""focklab: exact-arithmetic Fock representations and mechanically verified identities.

Layout:
  scalars     Q(sqrt(-1)) arithmetic, scalar domains, the text grammar of exact values
  ratfunc     rational-function differential fields in named real parameters
  linalg      exact matrices: kernel / inverse / det, certified by back-substitution
  forms       matrix-valued exterior differential forms, d and wedge
  laurent     truncated Laurent series, residues, derivations
  fock        finite symplectic Fock spaces, normal ordering, tau / tau-hat
  oscillator  oscillator algebra of R((t)), Virasoro brackets, lifted derivations
  subalgebra  Fock-type subalgebras, symplectic quotients, covariants
  geometry    hyperelliptic one-puncture models and the residue Gram operator
  hodge       polarized families, second fundamental form, Fock connection
  cli         verification suites with deterministic JSON reports
"""

from .scalars import GaussianRational, I, NotASquare, conj, parse_gaussian
from .ratfunc import DifferentialField, Polynomial, RationalFunction
from .linalg import ExactMatrix
from .forms import DegreeOverflow, Form, exterior_derivative
from .laurent import (
    Derivation,
    LaurentSeries,
    NonzeroResidue,
    NotInvertible,
    PrecisionExhausted,
    WindowTooNarrow,
    integrate,
    parse_series,
    format_series,
    residue,
    residue_form,
)
from .fock import (
    FockVector,
    SpElement,
    SymplecticSpace,
    UElement,
    E_inverse,
    E_map,
    ebar_monomial,
    fock_basis,
    inner_product,
    normal_order_tensor,
    permanent,
    rho_apply,
    rho_vector,
    standard_space,
    tau,
    tau_hat,
    tau_hat_wrt_complement,
)
from .oscillator import (
    BasisNotQuasiSymplectic,
    OscFockVector,
    QuadraticOperator,
    check_quasi_symplectic,
    lift_derivation,
    osc_basis,
    series_multiply,
    tau_hat_D,
    tau_hat_Dk,
    virasoro_bracket,
)
from .subalgebra import (
    FockSubalgebra,
    KMinusVector,
    NoIsotropicLift,
    NotReduced,
    NotScalar,
    QuotientSymplectic,
    build_quotient,
    compute_perp,
    covariants,
    covariants_of_modes,
    genus0_subalgebra,
    mode_reduce,
    scalar_action,
    span_membership,
)
from .geometry import (
    CurveFockData,
    HyperellipticModel,
    RepeatedRoots,
    WrongDegree,
    build_model,
    closure_falsifier,
    curve_fock_data,
    wzw_gram,
)
from .hodge import (
    ConnectionData,
    DegenerateFrame,
    HodgeFamily,
    NotSymplecticFrame,
    connection_blocks,
    curvature,
    modular_family,
    siegel_family,
    u_section,
    verify_theorem31,
)
from .cli import compute, run_suite

__version__ = "0.1.0"
