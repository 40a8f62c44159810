"""Stationary Navier-Stokes-Korteweg profiles on the exterior domain r > 1.

One solver for the impermeable-wall, inflow, and outflow boundary regimes
of the spherically symmetric stationary NSK system, a finite-difference
oracle, the vanishing-capillarity limit profile, and a kappa-sweep rate
study reproducing the theoretical convergence orders.

Every public name lives in, and is listed by, the module that owns it,
e.g. ``nsk.stationary.solve_stationary``.
"""

__version__ = "0.1.0"
