"""PCC utility functions.

PCC Allegro (Dong et al., NSDI'15) scores each monitor interval with a
loss/throughput utility and greedily moves its rate in the direction of
higher utility.  The published Allegro utility for sender i is

    u_i = T_i · Sigmoid_α(L_i − 0.05) − x_i · L_i

where ``x_i`` is the sending rate, ``L_i`` the observed loss rate,
``T_i = x_i(1 − L_i)`` the goodput, and ``Sigmoid_α(y) = 1/(1+e^{αy})``
with α = 100 — a steep penalty once loss exceeds 5 %.

The HotNets attack (Section 4.2) relies on the attacker *knowing* this
function (Kerckhoff's principle) to compute how many packets to drop so
that two rate experiments yield indistinguishable utilities; the
inverse helper :func:`loss_for_target_utility` is exactly that
computation.
"""

from __future__ import annotations

import math

from repro.core.errors import ConfigurationError

#: Loss level where the sigmoid penalty kicks in (5 %).
LOSS_THRESHOLD = 0.05
#: Sigmoid steepness.
ALPHA = 100.0


def sigmoid(y: float, alpha: float = ALPHA) -> float:
    """Sigmoid_α(y) = 1 / (1 + e^{αy}), computed overflow-safely."""
    z = alpha * y
    if z >= 0:
        ez = math.exp(-min(z, 700.0))
        return ez / (1.0 + ez)
    ez = math.exp(max(z, -700.0))
    return 1.0 / (1.0 + ez)


def allegro_utility(rate: float, loss: float, alpha: float = ALPHA) -> float:
    """PCC Allegro's per-MI utility.

    Args:
        rate: sending rate in Mbps (any consistent unit works).
        loss: observed loss fraction in [0, 1].
    """
    if rate < 0:
        raise ConfigurationError(f"rate must be non-negative, got {rate}")
    if not 0.0 <= loss <= 1.0:
        raise ConfigurationError(f"loss must be in [0, 1], got {loss}")
    goodput = rate * (1.0 - loss)
    return goodput * sigmoid(loss - LOSS_THRESHOLD, alpha) - rate * loss


def vivace_utility(
    rate: float,
    loss: float,
    rtt_gradient: float = 0.0,
    exponent: float = 0.9,
    loss_coefficient: float = 11.35,
    latency_coefficient: float = 900.0,
) -> float:
    """PCC Vivace's latency-aware utility (extension; Dong et al., NSDI'18).

    u = x^t − b·x·(dRTT/dT) − c·x·L.  Included because the paper's
    countermeasure discussion ("limit the amplitude of the
    oscillations") applies to the whole PCC family; the oscillation
    bench can swap utilities to show the attack is not Allegro-specific.
    """
    if rate < 0:
        raise ConfigurationError(f"rate must be non-negative, got {rate}")
    if not 0.0 <= loss <= 1.0:
        raise ConfigurationError(f"loss must be in [0, 1], got {loss}")
    return (
        rate ** exponent
        - latency_coefficient * rate * max(0.0, rtt_gradient)
        - loss_coefficient * rate * loss
    )


def invert_utility(
    utility_fn,
    rate: float,
    target_utility: float,
    tolerance: float = 1e-9,
) -> float:
    """Smallest loss L with ``utility_fn(rate, L) <= target``.

    Works for any utility that is strictly decreasing in loss at fixed
    positive rate (Allegro and Vivace both are) — the generic form of
    the attacker's planning primitive.
    """
    if rate <= 0:
        return 0.0
    if utility_fn(rate, 0.0) <= target_utility:
        return 0.0
    if utility_fn(rate, 1.0) > target_utility:
        return 1.0
    lo, hi = 0.0, 1.0
    while hi - lo > tolerance:
        mid = (lo + hi) / 2.0
        if utility_fn(rate, mid) > target_utility:
            lo = mid
        else:
            hi = mid
    return hi


def loss_for_target_utility(
    rate: float,
    target_utility: float,
    alpha: float = ALPHA,
    tolerance: float = 1e-9,
) -> float:
    """Smallest loss L such that ``allegro_utility(rate, L) <= target``.

    The attacker's planning primitive: given the rate PCC is testing in
    an MI and the utility the attacker wants PCC to observe, how much
    loss must the attacker induce?  Utility is strictly decreasing in
    loss for fixed positive rate, so bisection applies.  Returns 0.0 if
    the utility at zero loss is already at or below the target, and 1.0
    if even total loss cannot push utility that low (only possible for
    negative targets beyond −rate).
    """
    if rate <= 0:
        return 0.0
    if allegro_utility(rate, 0.0, alpha) <= target_utility:
        return 0.0
    if allegro_utility(rate, 1.0, alpha) > target_utility:
        return 1.0
    lo, hi = 0.0, 1.0
    while hi - lo > tolerance:
        mid = (lo + hi) / 2.0
        if allegro_utility(rate, mid, alpha) > target_utility:
            lo = mid
        else:
            hi = mid
    return hi
