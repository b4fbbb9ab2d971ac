"""Exact computations with finite subgroups of anisotropic algebraic groups.

Submodules:

- scalars   exact field towers (Q, cyclotomic, finite, rational functions)
- lattice   integer matrices, Smith form, group closure, cohomology
- torus     torsion of anisotropic tori through lattice actions
- pairing   alternating pairings on finite abelian groups, isotropic subgroups
- csa       symbol algebras, reduced norms, differential-operator algebras
- quadform  quadratic forms, Arf normal form, Pfister-form isometry groups
- bounds    Minkowski-style divisibility bounds and order checks
- cli       command line front end (`aniso`), not imported by the package
"""

from . import (bounds, csa, fieldmatrix, lattice, pairing, quadform, replay,
               scalars, torus)

__all__ = ["scalars", "fieldmatrix", "lattice", "torus", "pairing", "csa",
           "quadform", "bounds", "replay", "cli"]
__version__ = "0.1.0"
