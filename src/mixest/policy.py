"""Global numeric tolerances.

The validation and solver tolerances live in a single immutable record so
that every module interprets "equal", "positive" and "zero probability"
the same way; the README names the few literals that stay outside it.
The library reads :data:`DEFAULT_POLICY`; no function takes its own.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class NumericPolicy:
    """Tolerance settings shared across validation and solvers."""

    herm_tol: float = 1e-10          # max |A - A^dag| entrywise
    trace_tol: float = 1e-10         # |tr(rho) - 1|
    psd_tol: float = 1e-10           # eigenvalues >= -psd_tol
    effect_bound_tol: float = 1e-10  # largest effect eigenvalue <= 1 + tol
    povm_sum_tol: float = 1e-9       # |sum E_m - I| entrywise
    bloch_norm_tol: float = 1e-10    # Bloch norm <= 1 + tol
    commute_tol: float = 1e-9        # max |[rho1, rho2]| for "commuting"
    support_tol: float = 1e-9        # eigenvalue threshold for support rank
    zero_prob: float = 1e-14         # outcome probability treated as "never occurs"
    degenerate_tol: float = 1e-12    # max |rho1 - rho2|, delta_r, prior variance: below is degenerate


DEFAULT_POLICY = NumericPolicy()
