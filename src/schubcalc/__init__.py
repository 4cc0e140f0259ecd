"""Exact polyhedral models of Demazure crystals and the Schubert calculus
they carry: string/GT/SGT polytopes, pipe-dream face indices, crystal
generation, and independent Weyl-dimension/divided-difference oracles.  The
package exports its modules, not names (`from schubcalc import crystals`)."""

__version__ = "0.1.0"
