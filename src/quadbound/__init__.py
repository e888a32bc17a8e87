"""Certified a-priori error bounds for three-point quadrature rules
(midpoint / trapezoid / Simpson and the whole (lambda, mu) family) for
functions whose first derivative raised to a power q is convex, plus the
special-means inequalities these bounds imply."""

__version__ = "0.1.0"
