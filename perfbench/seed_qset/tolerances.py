"""Numerical tolerances shared across the package.

TOL_EQ is the slack for every equality / positivity comparison; TOL_CLAMP
bounds how far an asin/acos argument may stray past [-1, 1] before it is
treated as invalid data rather than float noise; TOL_RECON is the
componentwise accuracy contract of the self-testing reconstruction.
"""

TOL_EQ = 1e-8
TOL_CLAMP = 1e-9
TOL_RECON = 1e-6
