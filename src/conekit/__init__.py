"""conekit: warped cone metrics over the quotient 3-sphere, certified numerically.

The package constructs explicit cohomogeneity-one metrics
``dr^2 + rho^2 (phi^2 s1^2 + s2^2 + s3^2)`` on the cone over the
quaternion-group quotient of the 3-sphere, certifies their nonnegative
Ricci curvature region by region, samples them as finite metric spaces to
exhibit Gromov-Hausdorff collapse onto the singular cone, and reproduces
the exact eta-invariant/Hitchin-inequality obstruction arithmetic.

Each name is imported from the module that defines it, for example
``from conekit.bump import build_profile``.
"""

__version__ = "0.1.0"
