"""Type-size coding over quantized sufficient-statistic type classes.

A universal one-to-one lossless code for exponential families (memoryless
and first-order Markov): sequences are ranked by ascending exact type-class
size and mapped onto the canonical binary-string enumeration. The package
also evaluates exact finite-blocklength coding rates and reproduces the
third-order excess-rate slopes at desk scale.
"""

from .codec import ClassOrdering, Codeword
from .errors import BudgetError, ContainerError, SchemaError, SpecError
from .family import (
    Alphabet,
    FamilySpec,
    ModelEval,
    entropy,
    evaluate,
    mle,
    varentropy,
)
from .markov import (
    MarkovFamilySpec,
    entropy_rate,
    markov_type_index,
    stationary_dist,
    transition_matrix,
    varentropy_rate,
)
from .pointtypes import (
    ExactStatMap,
    derive_lattice,
    point_type_index,
)
from .quantized import Grid, build_type_index
from .rates import (
    FitReport,
    RateReport,
    SourceSpec,
    build_index,
    gaussian_Q,
    gaussian_Qinv,
    m_eps,
    ml_approx_check,
    normality_check,
    third_order_fit,
)
from .typeclass import TypeIndex

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
