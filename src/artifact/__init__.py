"""Exact classification of real four-rebit states under local SL(2,R) action.

The package builds the split Lie algebra of type D4 with its Z/2-grading,
identifies the degree-one part with the space of real 2x2x2x2 arrays, and
reconstructs the classification of the real semisimple orbits under the
product of four copies of SL(2), together with the Galois-cohomology
bookkeeping that separates the real orbits inside each complex one.
Nilpotent and mixed orbits are not classified.  All arithmetic is exact,
over the 16th cyclotomic field.
"""

__version__ = "0.1.0"
