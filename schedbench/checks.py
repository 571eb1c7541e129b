"""Pass/fail rules for the program's outputs.

Each rule takes plain numbers (what the program returned, and what an
oracle or the method's own properties say it must be) and returns
``(ok, detail)``.  No rule imports the program, so ``test_checks.py`` can
feed each one a perturbed output and see it fail.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

# the program's own stated tolerances
VALUE_TOL = 1e-6  # relative, ExponentReport.resolution["value_tol"]
GAP_TOL = 1e-2  # matching-bound gap, acceptance criterion 3
FIT_BAND = 0.20  # simulated vs predicted exponent, acceptance criterion 4
Z_MAX = 5.0  # unbiasedness against an exact value, in standard errors

Result = tuple[bool, str]


def rel_close(value: float, reference: float, tol: float = VALUE_TOL) -> Result:
    rel = abs(value - reference) / abs(reference)
    return rel <= tol, f"{value:.10g} vs {reference:.10g} (rel {rel:.2e}, tol {tol:g})"


def below(value: float, limit: float) -> Result:
    return value < limit, f"{value:.3e} < {limit:g}"


def within_band(fitted: float, predicted: float, band: float = FIT_BAND) -> Result:
    rel = abs(fitted - predicted) / predicted
    return rel <= band, (f"fitted {fitted:.4f} vs predicted {predicted:.4f} "
                         f"({100 * rel:.1f}% off, band {100 * band:.0f}%)")


def strictly_decreasing(levels: Sequence[int], values: Sequence[float]) -> Result:
    pairs = sorted(zip(levels, values))
    ok = all(b[1] < a[1] for a, b in zip(pairs, pairs[1:]))
    return ok, "p_hat by level " + ", ".join(f"{lv}:{v:.3e}" for lv, v in pairs)


def equal_counts(got: Mapping, expected: Mapping) -> Result:
    bad = {k: (got.get(k), v) for k, v in expected.items() if got.get(k) != v}
    return not bad and set(got) == set(expected), (
        f"mismatches (got, expected): {bad}" if bad else f"{len(expected)} counts equal")


def dominated(better: Mapping[int, float], worse: Mapping[int, float]) -> Result:
    """better[level] <= worse[level] at every level."""
    bad = [lv for lv in worse if better[lv] > worse[lv]]
    return not bad and set(better) == set(worse), " ".join(
        f"{lv}:{better[lv]:.3e}<={worse[lv]:.3e}" for lv in sorted(worse))


def unbiased(p_hat: float, ci_lo: float, ci_hi: float, exact: float,
             z_max: float = Z_MAX) -> Result:
    """|p_hat - exact| within ``z_max`` standard errors of the reported 95% CI."""
    se = (ci_hi - ci_lo) / (2 * 1.959963984540054)
    if se <= 0.0:
        return p_hat == exact, f"zero-width CI at {p_hat} vs exact {exact}"
    z = abs(p_hat - exact) / se
    return z <= z_max, f"p_hat {p_hat:.6f} vs exact {exact:.6f}, z = {z:.2f} (max {z_max:g})"


def conserved(arrived: Sequence[int], served: Sequence[int], queues: Sequence[int],
              expected_arrivals: Sequence[int]) -> Result:
    """Exact arrivals, and every arrived packet is either served or queued."""
    bad = [i for i, (a, s, q, e) in enumerate(zip(arrived, served, queues, expected_arrivals))
           if a != e or a != s + q or q < 0]
    ok = not bad and len(arrived) == len(expected_arrivals)
    return ok, f"users with broken accounting: {bad}" if bad else (
        f"{len(arrived)} users, {sum(arrived)} packets accounted for")


# Shapes of the known faults.  A failed claim is put down to a known fault
# only when its output has that fault's shape; any other failure is new.

F1_OVERSHOOT = 0.02  # relative: how far above J* the r_min-edge overshoot reaches


def f1_shape(value: float, reference: float, limit: float = F1_OVERSHOOT) -> bool:
    """Standalone J* at or slightly above the true J* (never below it, never far off)."""
    return reference <= value <= reference * (1.0 + limit)


def f2_shape(fitted: float, predicted: float, lambda_max_dominated: object,
             ceiling: float, band: float = FIT_BAND) -> bool:
    """A pinned multi-user subset bound far below a simulated decay that is still possible.

    The bound says its denominator sat at lambda_max; the fitted decay
    is finite, above the prediction's band and not above ``ceiling``, the
    decay rate no system can exceed (``oracles.no_service_exponent``).
    """
    return (lambda_max_dominated is True and math.isfinite(fitted)
            and predicted * (1.0 + band) < fitted <= ceiling)


def same_as_first(fingerprint: object, first: object) -> Result:
    """Rounds repeat identical work: the outputs must not change."""
    return fingerprint == first, "identical to round 1" if fingerprint == first else (
        "output differs from round 1")
