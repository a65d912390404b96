"""A catalog of contingency-based interestingness measures (§6).

The paper's first item of future work: "identifying other measures and
rule types that capture patterns in data not already captured by
association rules and correlation rules."  The data-mining literature
answered with a zoo of measures, almost all of them functions of the
same 2x2 contingency table this library already builds.  This module
collects the classical ones, each computed from a
:class:`~repro.core.contingency.ContingencyTable` of a pair:

* :func:`phi_coefficient` — the signed correlation ``sqrt(chi2/n)``;
  its square times ``n`` is exactly the chi-squared statistic, making
  it the effect-size companion to the paper's significance test.
* :func:`odds_ratio` — ``(O11 O00)/(O10 O01)``, margin-insensitive.
* :func:`jaccard` — ``O11 / (n - O00)``, co-occurrence among baskets
  touching either item.
* :func:`cosine` — ``O11 / sqrt(r1 c1)``, the null-invariant geometric
  mean of the two confidences.
* :func:`all_confidence` — ``O11 / max(r1, c1)``, the minimum of the
  two confidences; downward closed, so it can prune like support.
* :func:`kulczynski` — the arithmetic mean of the two confidences.

Conventions: the *pair* table's cells are indexed as in
:mod:`repro.core.contingency` (bit 0 = first item present); ``r1`` and
``c1`` denote the two item marginals.  Degenerate denominators yield
``nan`` rather than raising, matching :mod:`repro.measures.classic`.
"""

from __future__ import annotations

import math

from repro.core.contingency import ContingencyTable

__all__ = [
    "phi_coefficient",
    "odds_ratio",
    "jaccard",
    "cosine",
    "all_confidence",
    "kulczynski",
    "measure_catalog",
]


def _observed_2x2(table: ContingencyTable) -> tuple[float, float, float, float, float]:
    """(O11, O10_first_only, O01_second_only, O00, n) for a 2-item table."""
    if table.n_items != 2:
        raise ValueError(f"pair measures need a 2-item table, got {table.n_items}")
    return (
        table.observed(0b11),
        table.observed(0b01),  # first present, second absent
        table.observed(0b10),  # second present, first absent
        table.observed(0b00),
        table.n,
    )


def phi_coefficient(table: ContingencyTable) -> float:
    """The signed phi coefficient; ``n * phi^2`` is the chi-squared value.

    Positive for positive association, negative for negative; 0 at
    independence; ``nan`` when a marginal is degenerate.
    """
    o11, o10, o01, o00, n = _observed_2x2(table)
    r1, r0 = o11 + o10, o01 + o00
    c1, c0 = o11 + o01, o10 + o00
    denominator = math.sqrt(r1 * r0 * c1 * c0)
    if denominator == 0.0:
        return math.nan
    return (o11 * o00 - o10 * o01) / denominator


def odds_ratio(table: ContingencyTable) -> float:
    """(O11 O00)/(O10 O01); inf for a never-failing association."""
    o11, o10, o01, o00, _ = _observed_2x2(table)
    cross = o10 * o01
    if cross == 0.0:
        return math.nan if o11 * o00 == 0.0 else math.inf
    return (o11 * o00) / cross


def jaccard(table: ContingencyTable) -> float:
    """O11 over baskets containing at least one of the items."""
    o11, o10, o01, o00, n = _observed_2x2(table)
    union = n - o00
    if union == 0.0:
        return math.nan
    return o11 / union


def cosine(table: ContingencyTable) -> float:
    """O11 / sqrt(r1 c1) — null-invariant (ignores O00 entirely)."""
    o11, o10, o01, _, _ = _observed_2x2(table)
    r1 = o11 + o10
    c1 = o11 + o01
    if r1 == 0.0 or c1 == 0.0:
        return math.nan
    return o11 / math.sqrt(r1 * c1)


def all_confidence(table: ContingencyTable) -> float:
    """min of the two directional confidences; downward closed."""
    o11, o10, o01, _, _ = _observed_2x2(table)
    larger = max(o11 + o10, o11 + o01)
    if larger == 0.0:
        return math.nan
    return o11 / larger


def kulczynski(table: ContingencyTable) -> float:
    """Arithmetic mean of the two directional confidences."""
    o11, o10, o01, _, _ = _observed_2x2(table)
    r1 = o11 + o10
    c1 = o11 + o01
    if r1 == 0.0 or c1 == 0.0:
        return math.nan
    return 0.5 * (o11 / r1 + o11 / c1)


def measure_catalog(table: ContingencyTable) -> dict[str, float]:
    """All pair measures of this module, plus lift, at once."""
    o11, o10, o01, _, n = _observed_2x2(table)
    r1 = o11 + o10
    c1 = o11 + o01
    lift = (o11 * n) / (r1 * c1) if r1 and c1 else math.nan
    return {
        "phi": phi_coefficient(table),
        "odds_ratio": odds_ratio(table),
        "jaccard": jaccard(table),
        "cosine": cosine(table),
        "all_confidence": all_confidence(table),
        "kulczynski": kulczynski(table),
        "lift": lift,
    }
