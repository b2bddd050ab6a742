"""Algebraic invariants of pochette surgery on homology 4-spheres.

The pipeline: a knot-group presentation with meridian and longitude
words describes an embedded pochette; a coprime slope p/q plus a mod 2
framing describes the regluing.  From these the package computes the
surgered fundamental group, the linking number, the homology table, and
a 4-sphere verdict certified by coset enumeration, with non-cyclic
permutation quotients as negative certificates where enumeration cannot
close.
"""

# each module's __all__ is the public API; cli is the entry point, not API
from .abelian import *
from .budgets import *
from .coset_enum import *
from .errors import *
from .presentations import *
from .quotient_search import *
from .ribbon import *
from .surgery import *
from .words import *

__version__ = "0.1.0"
