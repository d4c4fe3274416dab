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

When every denominator in the datum's Poincare table is a power of one
factor (1 - q^a), the weights that share a series are summed first, and each
distinct series is multiplied and reduced once.  Reduction then cancels
(1 - q^a) as often as it divides, which leaves the unique lowest-terms form,
so the result does not depend on how the sum was built.  Mixed factors make
the greedy reduction order-dependent, and there the sum stays a
term-by-term fold in basis order.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import datum as dm
from . import hmodule as hm
from . import klv as klvmod
from .coxeter import memoized
from .errors import DatumError
from .laurent import ONE, LaurentPoly, PoincareSeries, paccum, pbar, pmul, render_series


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


@memoized
def _series_groups(d: dm.OrbitDatum) -> dict[str, int] | None:
    """{pid: index of its distinct Poincare series, first seen in basis
    order}, or None when the denominators mix more than one factor."""
    if len({a for s in d.poincare.values() for a in s.den}) > 1:
        return None
    first: dict = {}
    out = {}
    for p in d.basis:
        s = d.poincare[p.id]
        out[p.id] = first.setdefault((s.den, frozenset(s.num._c.items())), len(first))
    return out


def _pair(d: dm.OrbitDatum, terms) -> PoincareSeries:
    """sum of a * b * poincare[eps] over the (eps, a, b) terms, a and b
    kernel dicts.  One factor: a * b is summed per distinct series, and each
    series is multiplied and reduced once.  Mixed factors: a term-by-term
    fold in basis order, zero weights skipped, each partial sum reduced."""
    groups = _series_groups(d)
    total = PoincareSeries.zero()
    if groups is None:
        for eps, a, b in sorted(terms, key=lambda t: d.basis_index[t[0]]):
            weight = pmul(a, b)
            if weight:
                total = total + d.poincare[eps] * LaurentPoly._raw(weight)
        return total
    sums: dict[int, tuple[PoincareSeries, dict]] = {}
    for eps, a, b in terms:
        g = groups[eps]
        if g not in sums:
            sums[g] = (d.poincare[eps], {})
        paccum(sums[g][1], a, b)
    for series, weight in sums.values():
        if weight:
            total = total + series * LaurentPoly._raw(weight)
    return total


def ext_poincare(d: dm.OrbitDatum, tau: str, gamma: str) -> ExtSeries:
    """Weight series of the Ext pairing between the simple classes."""
    for pid in (tau, gamma):
        if pid not in d.param_by_id:
            raise DatumError(f"unknown parameter {pid!r}")
    p_col = klvmod.klv_table(d).column(tau).coords
    q_col = _q_columns(d)[gamma]
    total = _pair(d, [
        (eps, pbar(p._c), q_col[eps]._c) for eps, p in p_col.items() if eps in q_col
    ])
    offset = d.param_by_id[gamma].dim - d.param_by_id[tau].dim
    return ExtSeries(tau=tau, gamma=gamma, series=total, degree_offset=offset)


def ic_cohomology(d: dm.OrbitDatum, tau: str) -> ExtSeries:
    """Weight series pairing every standard class against the class of tau."""
    if tau not in d.param_by_id:
        raise DatumError(f"unknown parameter {tau!r}")
    q_col = _q_columns(d)[tau]
    total = _pair(d, [(eps, ONE._c, q._c) for eps, q in q_col.items()])
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
