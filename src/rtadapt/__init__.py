"""Adaptive lowest-order Raviart-Thomas mixed FEM toolkit (2D).

Centered and upwind-weighted mixed discretizations of
convection-diffusion-reaction problems on triangle meshes, elementwise
postprocessing, residual-type a posteriori error estimators, and an
adaptive refinement loop with bulk marking and longest-edge bisection,
its conformity closure computed by edge marking.
"""

__version__ = "0.1.0"
