"""polygauss: regularity functionals for densities of polynomials in
Gaussian random variables.

The pipeline: a sparse polynomial f in n variables (``poly``) is evaluated
at standard normal vectors (``density.sample``), the law of f(X) is turned
into a gridded density estimate, and the regularity functionals of that
density (shift and dual moduli of continuity, total-variation and bounded-
Lipschitz distances, characteristic-function decay) are computed and checked
against their scaling laws (``functionals``, ``charfn``), with exact moment
computations (``moments``) as cross-checks.
"""

__version__ = "0.1.0"

from .errors import InputError, ResolutionError
from .poly import (
    ClassParams,
    MultiIndex,
    Polynomial,
    add,
    constant,
    degree,
    evaluate_batch,
    leading_magnitude,
    max_var_power,
    monomial,
    multiply,
    random_in_class,
    scale,
    variable,
)
from .moments import (
    HermiteExpansion,
    expectation,
    gaussian_moment,
    hermite_expand,
    variance,
    variance_via_hermite,
)
from .density import (
    EmpiricalCdf,
    GriddedDensity,
    SampleSet,
    ecdf,
    histogram_density,
    quantile_grid,
    sample,
    sample_many,
)
from .functionals import (
    BoundReport,
    EnvelopeParams,
    ModulusCurve,
    balancing_epsilon,
    default_probe_grid,
    degree_envelope_check,
    density_budget,
    dual_modulus,
    dual_modulus_curve,
    envelope_check,
    kr_distance,
    modulus_envelope,
    modulus_equivalence_check,
    shift_modulus_curve,
    small_set_check,
    tv_distance,
    tv_kr_rate_ratio,
    tv_vs_kr_check,
)
from .charfn import (
    CfCurve,
    cf_decay_check,
    cf_envelope,
    decay_exponents,
    default_t_grid,
    ecf_modulus,
)
