"""Exact computations with finite subgroups of anisotropic algebraic groups.

Submodules:

- scalars   exact field towers (Q, cyclotomic, finite, rational functions)
- lattice   integer matrices, Smith form, group closure, cohomology
- torus     torsion of anisotropic tori through lattice actions
- pairing   alternating pairings on finite abelian groups, isotropic subgroups
- csa       symbol algebras, reduced norms, differential-operator algebras
- quadform  quadratic forms, Arf normal form, Pfister-form isometry groups
- bounds    Minkowski-style divisibility bounds and order checks
- cli       command line front end (`aniso`)

Importing the package imports no submodule: `aniso.csa` imports csa on
first use, so the integer layers (lattice, torus) never load the field
arithmetic they do not call.
"""

import importlib

__all__ = ["scalars", "fieldmatrix", "lattice", "torus", "pairing", "csa",
           "quadform", "bounds", "replay", "cli"]
__version__ = "0.1.0"


def __getattr__(name):
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
