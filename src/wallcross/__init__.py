"""Exact-arithmetic invariants of maximal-tangency curve counts and quiver DT theory.

Three independent pipelines compute the same numbers: closed formulas,
Moebius/plethystic inversion, and scattering/wall-crossing; the package also
carries the refined (quantum) layer and cross-validation suites.

The top level re-exports the closed formulas only.  Everything else is
imported from its submodule: ``wallcross.algebra``, ``combinat``,
``invariants``, ``scattering``, ``qtorus`` and ``cli``.
"""

from .invariants import (
    binomial_identity_check,
    dt_kronecker_numeric,
    gw_local_p1,
    gw_selfnodal,
    load_p2_table,
    log_local_factor,
)

__version__ = "0.1.0"

__all__ = [
    "binomial_identity_check",
    "dt_kronecker_numeric",
    "gw_local_p1",
    "gw_selfnodal",
    "load_p2_table",
    "log_local_factor",
]
