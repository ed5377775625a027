"""Spectral theory of real symmetric random tensors.

Library layout (one module per subsystem):

- fuss_catalan: Fuss-Catalan numbers, the generating function T_p, the
  density P_p, the generalized Wigner spectral density and the expected
  resolvent.
- tensors: packed symmetric tensor storage, Gaussian ensemble sampling,
  contractions, rank-one spikes, matrix resolvent, serialization.
- maps: combinatorial maps, enumeration of rooted classes, trace
  invariants, exact Wick expectations and Monte Carlo estimates.
- eigenpairs: real eigenpair search, instanton mapping and decay
  exponents of partition-function discontinuities.
- annealed: large-N radial integral, saddle points of the spiked model,
  detection threshold and singular locus.
- borel: the zero-dimensional phi^p toy model, sector partition
  functions, Borel-sum discontinuities and instanton checks.
"""

from . import annealed, borel, eigenpairs, errors, maps, tensors
from .fuss_catalan import (
    critical_point,
    density_moment,
    expected_resolvent,
    fc_function,
    fc_function_boundary,
    fuss_catalan_number,
    pp_density,
    support_edge,
    wigner_density,
    wigner_density_roots,
)

__version__ = "0.1.0"
