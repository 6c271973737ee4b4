"""Exact Lie point-symmetry analysis for the Monge-Ampere equation and the
affine maximal type equation.

Everything algebraic runs over exact rationals: invariance checks reduce to
polynomial identities, exact divisibility, or exact evaluation at rational
points of the solution variety.

The engine is used through its submodules (`liejet.algebra`, `.jets`,
`.equations`, `.symmetry`, `.groups`, `.dsl`, `.cli`).  The package itself
re-exports nothing, so importing one of them loads only what it imports.
"""

__version__ = "0.1.0"
