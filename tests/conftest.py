import math
from fractions import Fraction

import numpy as np
import pytest

from tscode.family import FamilySpec
from tscode.markov import MarkovFamilySpec
from tscode.pointtypes import ExactStatMap

SQRT2 = math.sqrt(2.0)


@pytest.fixture(scope="session")
def bernoulli():
    return FamilySpec.create([[0.0], [1.0]], rho_max=3.0)


@pytest.fixture(scope="session")
def ternary():
    """Full ternary family, d = |X| - 1 = 2."""
    return FamilySpec.create([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], rho_max=2.0)


@pytest.fixture(scope="session")
def sqrt2_family():
    """d = 1 family whose lattice dimension is 2: tau = (0, 1, sqrt 2)."""
    return FamilySpec.create([[0.0], [1.0], [SQRT2]], rho_max=3.0)


@pytest.fixture(scope="session")
def sqrt2_statmap(sqrt2_family):
    return ExactStatMap(
        spec=sqrt2_family,
        basis_names=(("1", "sqrt2"),),
        basis_hints=((1.0, SQRT2),),
        coeffs=(
            ((Fraction(0), Fraction(0)),),
            ((Fraction(1), Fraction(0)),),
            ((Fraction(0), Fraction(1)),),
        ),
    )


@pytest.fixture(scope="session")
def flip_markov():
    """Binary chain with flip statistic 1{a != b}, d = 1, started at 1."""
    return MarkovFamilySpec.create([[0.0], [1.0], [1.0], [0.0]], rho_max=3.0, x0=1)


def theta_for_p1(p1: float) -> tuple[float, ...]:
    """Bernoulli natural parameter giving P(symbol 1) = p1."""
    return (math.log2((1 - p1) / p1),)


def mean_stat(spec, xs):
    """The average statistic (1/n) sum_i tau(x_i) of a sequence, from the
    sequence alone."""
    return spec.tau_array[np.asarray(xs) - 1].mean(axis=0)


def lattice_key(lmap, xs):
    """The exact point-class key n L(x^n) of a sequence: its summed lattice rows."""
    return tuple(lmap.L_array[np.asarray(xs) - 1].sum(axis=0).tolist())


def class_id(index, xs):
    """The class of the member that the codec's ``locate`` finds for a sequence."""
    return int(index.member_class[index.members[index.locate(xs)[0]]])
