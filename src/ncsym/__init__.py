"""Symplectic mechanics on finite-dimensional superalgebras.

The package is organized bottom up:

* :mod:`ncsym.algebra` -- graded *-algebras by structure constants
* :mod:`ncsym.leibniz` -- the graded Leibniz system: superderivation spaces
  and residuals
* :mod:`ncsym.calculus` -- derivations, graded differential forms, pullbacks
* :mod:`ncsym.symplectic` -- symplectic structures, Poisson brackets, dynamics
* :mod:`ncsym.coupling` -- products of symplectic algebras and hybrid brackets
* :mod:`ncsym.states` -- states, separation checks, GNS construction
* :mod:`ncsym.superclassical` -- functions of commuting and anticommuting
  variables, Berezin integration
* :mod:`ncsym.moyal` -- star products, Moyal brackets, Wigner functions
* :mod:`ncsym.measurement` -- pointer models and decoherence estimates
* :mod:`ncsym.suites` / :mod:`ncsym.cli` -- batch verification suites
"""

__version__ = "0.1.0"
