"""Weight series of equivariant Ext groups and intersection cohomology.

Purity reduces both to an orbitwise pairing: with P the self-dual table in
the standard basis, Q the same table rewritten in the costandard basis, and
pi_eps the stabilizer series of each parameter,

    E(tau, gamma) = sum_eps bar(P[eps, tau]) * Q[eps, gamma] * pi_eps(q).

The degree dictionary reads the coefficient of q^m as the dimension in
cohomological degree 2m - (dim gamma - dim tau); it is anchored by the
requirements that E(tau, tau) start with 1 in degree 0 and that every
series live in a single parity.

ic_cohomology(tau) pairs the full standard basis against the class of tau:
sum_eps Q[eps, tau] * pi_eps, read through degree 2m - dim tau.  For a
clean parameter only the self term survives.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import datum as dm
from . import hmodule as hm
from . import klv as klvmod
from .coxeter import memoized
from .errors import DatumError
from .laurent import PoincareSeries, render_series


@dataclass(frozen=True)
class ExtSeries:
    """A weight series with its degree dictionary offset.

    Coefficient of q^m is the dimension in cohomological degree
    2m - degree_offset.  gamma is None for intersection-cohomology series.
    """

    tau: str
    gamma: str | None
    series: PoincareSeries
    degree_offset: int

    def dims(self, window: int) -> dict[int, int]:
        """{cohomological degree: dimension} for series exponents 0..window
        (negative exponents of the numerator, if any, are included)."""
        lo = 0
        if not self.series.num.is_zero():
            lo = min(0, self.series.num.degree_window()[0])
        exp = self.series.expand(lo, window)
        return {2 * m - self.degree_offset: c for m, c in sorted(exp.items()) if c}


@memoized
def _q_columns(d: dm.OrbitDatum) -> dict[str, dict[str, object]]:
    """Self-dual basis rewritten in the costandard basis (triangular solve)."""
    table = klvmod.klv_table(d)
    n_cols, _ = hm.costandard_table(d)
    out = {}
    for delta in d.basis:
        acc = {pid: dict(c._c) for pid, c in table.column(delta.id).terms.items()}
        out[delta.id] = hm.unitriangular_coords(d, acc, n_cols.__getitem__)
    return out


def _pair(d: dm.OrbitDatum, weights) -> PoincareSeries:
    """sum of weight * poincare[eps] over the (eps, weight) pairs in basis
    order; zero weights are skipped, and each partial sum is reduced."""
    total = PoincareSeries.zero()
    for eps, weight in weights:
        if not weight.is_zero():
            total = total + d.poincare[eps] * weight
    return total


def ext_poincare(d: dm.OrbitDatum, tau: str, gamma: str) -> ExtSeries:
    """Weight series of the Ext pairing between the simple classes."""
    for pid in (tau, gamma):
        if pid not in d.param_by_id:
            raise DatumError(f"unknown parameter {pid!r}")
    table = klvmod.klv_table(d)
    q_cols = _q_columns(d)
    p_col = table.column(tau).coords
    q_col = q_cols[gamma]
    total = _pair(d, (
        (eps.id, p_col[eps.id].bar() * q_col[eps.id])
        for eps in d.basis
        if eps.id in p_col and eps.id in q_col
    ))
    offset = d.param_by_id[gamma].dim - d.param_by_id[tau].dim
    return ExtSeries(tau=tau, gamma=gamma, series=total, degree_offset=offset)


def ic_cohomology(d: dm.OrbitDatum, tau: str) -> ExtSeries:
    """Weight series pairing every standard class against the class of tau."""
    if tau not in d.param_by_id:
        raise DatumError(f"unknown parameter {tau!r}")
    klvmod.klv_table(d)
    q_col = _q_columns(d)[tau]
    total = _pair(d, ((eps.id, q_col[eps.id]) for eps in d.basis if eps.id in q_col))
    return ExtSeries(
        tau=tau, gamma=None, series=total, degree_offset=d.param_by_id[tau].dim
    )


def single_parity(es: ExtSeries, window: int = 10) -> bool:
    """True iff all nonzero dimensions sit in degrees of one parity."""
    parities = {deg % 2 for deg in es.dims(window)}
    return len(parities) <= 1


def series_row(es: ExtSeries, window: int = 10) -> tuple[str, str, str, str]:
    """(tau, gamma, series, first_degrees) with bit-stable formatting."""
    dims = es.dims(window)
    degrees = ";".join(f"{deg}:{dim}" for deg, dim in sorted(dims.items()))
    return (
        es.tau,
        es.gamma if es.gamma is not None else "",
        render_series(es.series),
        degrees,
    )
