"""qmink: mechanical verification of a cocycle-deformed Lorentz group action.

The symbolic half (scalars, ncalg, dsl, coact) certifies the presented
*-algebras, the comultiplication, and the coaction exactly, by normal-form
rewriting over Laurent polynomials in q with Gaussian rational
coefficients.  The numeric half (cocycle, oplab) verifies the scalar
cocycle identities and the (p^2, q^2)-commuting operator model to
floating-point accuracy.  `suites` bundles everything behind the qmink CLI.
"""

__version__ = "0.1.0"
