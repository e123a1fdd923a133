"""qmink: mechanical verification of a cocycle-deformed Lorentz group action.

The symbolic half (scalars, ncalg, dsl, coact) certifies the presented
*-algebras, the comultiplication, and the coaction exactly, by normal-form
rewriting over Laurent polynomials in q with Gaussian rational
coefficients.  The numeric half (cocycle, oplab) verifies the scalar
cocycle identities and the (p^2, q^2)-commuting operator model to
floating-point accuracy.  `suites` bundles everything behind the qmink CLI.
"""

from .coact import (Morphism, check_cocommutativity_square,
                    check_relations_preserved, check_star_equivariance,
                    classical_limit_compare, leg_extend)
from .cocycle import (CocycleParams, check_cocycle_identity,
                      check_omega_identity, check_sumup, dual_pairing, omega,
                      psi, psi_star, psi_tilde)
from .dsl import (BuiltinBundle, DslError, builtin, parse, parse_expression,
                  render_poly, serialize, serialize_file)
from .ncalg import (Generator, NCPolynomial, Presentation, RewriteRule,
                    StepLimitExceeded, check_local_confluence,
                    check_termination, star_closure, tensor)
from .oplab import (PQModel, ShiftMultiplierOperator, adjoint, build_Q,
                    build_pq_pair, check_QQstar, check_def_mu2,
                    check_symbolic_consistency, check_twrs, compose, op_equal,
                    z_transform)
from .scalars import GaussianRational, Scalar

__version__ = "0.1.0"
