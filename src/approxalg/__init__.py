"""Approximate commutative algebra workbench.

Effective rings equipped with algebra-compatible closure operators, plus
decision procedures and brute-force oracles for the resulting approximate
ideal theory: primes, spectra with their Zariski-style topology,
localization, module isomorphism theorems, and a finite-model
Nullstellensatz schema.
"""

from .errors import (
    ApproxAlgError,
    ClosureNotSetValuedError,
    DomainMismatchError,
    InvariantError,
    NotEnumerableError,
    ParseError,
    PreconditionError,
    ResourceLimitError,
)
from .rings import (
    ElementSet,
    FiniteSubgroup,
    FunctionRing,
    IdealRep,
    IntegerRing,
    PolyQuotient,
    PrincipalSubgroup,
    ProductRing,
    ResidueRing,
    TableRing,
    Z,
    enumerate_elements,
    enumerate_subgroups,
    ideal_classical_product,
    ideal_from_subgroup,
    ideal_generated,
    ideal_sum,
    subgroup_generated,
)
from .closures import (
    GeneratedIdealClosure,
    IdealShiftClosure,
    PointwiseClosure,
    SamplingClosure,
    SetShiftClosure,
    ToleranceClosure,
    UnionFixedClosure,
    check_axioms,
    closure_eval,
    closure_member,
    closure_image_compatible,
    closure_preimage_compatible,
    replay_counterexample,
)
from .homs import identity_hom, reduction_hom, table_hom

__version__ = "0.1.0"
