"""Type-size coding over quantized sufficient-statistic type classes.

A universal one-to-one lossless code for exponential families (memoryless
and first-order Markov): sequences are ranked by ascending exact type-class
size and mapped onto the canonical binary-string enumeration. The package
also evaluates exact finite-blocklength coding rates and reproduces the
third-order excess-rate slopes at desk scale.
"""

from .codec import ClassOrdering, Codeword, index_of_string, string_of_index
from .errors import BudgetError, ContainerError, SchemaError, SpecError
from .family import (
    Alphabet,
    FamilySpec,
    ModelEval,
    entropy,
    evaluate,
    mle,
    psi,
    seq_log_prob,
    suffstat,
    varentropy,
)
from .markov import (
    MarkovFamilySpec,
    entropy_rate,
    markov_eps_rate,
    markov_m_eps,
    markov_third_order_fit,
    markov_type_index,
    stationary_dist,
    transition_matrix,
    varentropy_rate,
)
from .pointtypes import (
    ExactStatMap,
    LatticeMap,
    LatticePoint,
    derive_lattice,
    f0_of,
    point_class_of,
    point_type_index,
)
from .quantized import Grid, build_type_index, cuboid_center_of, f_of, r_of, type_size_of_sequence
from .rates import (
    FitReport,
    RateReport,
    SourceSpec,
    eps_rate,
    gaussian_Q,
    gaussian_Qinv,
    m_eps,
    ml_approx_check,
    normality_check,
    overflow_prob,
    third_order_fit,
)
from .typeclass import TypeClass, TypeIndex

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
