"""Annular billiards: periodic orbits, linear stability, and KAM twist coefficients.

A unit-disk billiard with a small interior circular scatterer placed
perpendicular to a polygonal orbit chord.  The package constructs the
periodic orbits of the scatterer-on-chord families (including the tangent,
cusp-forming configuration), evaluates their monodromy and closed-form
traces, locates saddle-center bifurcations, and computes the first Birkhoff
coefficient of the tangent orbits through exact truncated-Taylor arithmetic.

The package root imports nothing: import each name from its submodule
(``geometry``, ``billiard_map``, ``jets``, ``orbits``, ``linear_stability``,
``birkhoff``, ``errors``, ``cli``), so a program loads only what it uses.
"""

__version__ = "0.1.0"
