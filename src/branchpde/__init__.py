"""Branching-diffusion Monte Carlo for semilinear heat equations, plus the
integrability analysis of the weighted random trees driving it.

The package binds no names of its own: import each from the module that
defines it (`branchpde.estimator`, `branchpde.stability`, ...).  So
`import branchpde` loads no submodule, and each command loads only the
half it runs (see `cli`).
"""

__version__ = "0.1.0"
