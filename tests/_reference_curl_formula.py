"""A frozen copy of the inverse curl's assembly as it was before it became
one walk per integrand, kept only as a reference: ``curl_potential_formula``
here must give the field, or the error type, message, term and variable,
that ``invdel.curl_potential_formula`` gives.

Each component is assembled from two weighted split integrals, taken by the
frozen reference in ``_reference_weighted``, and one reciprocal scale factor:

    A_i = (1/h_i) * [ W(c_j; u_j, du_k) - W(c_k; u_k, du_j) ]

for (i, j, k) = (0, 1, 2), (1, 2, 0), (2, 0, 1), in that order, so six W
calls are made, each c_m is walked twice, and the first failure met is
raised.  Only public operations are used.  Do not change it to follow a
change of the library.
"""

from __future__ import annotations

import _reference_weighted
from invdel import DEFAULT_CURL_WEIGHTS, VectorField, curl_integrands
from invdel.expr import reciprocal

CYCLES = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def curl_potential_formula(B, weights=DEFAULT_CURL_WEIGHTS):
    u = B.system.names
    h = B.system.scale_factors
    c = curl_integrands(B)
    comps = []
    for i, j, k in CYCLES:
        first = _reference_weighted.weighted_split_integral(
            c[j], u[j], u[k], weights.w_plus, weights.w_minus)
        second = _reference_weighted.weighted_split_integral(
            c[k], u[k], u[j], weights.w_plus, weights.w_minus)
        comps.append(reciprocal(h[i]) * (first - second))
    return VectorField(tuple(comps), B.system)
