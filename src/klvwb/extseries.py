"""Weight series of equivariant Ext groups and intersection cohomology.

Purity reduces both to an orbitwise pairing: with P the self-dual table in
the standard basis, Q the same table rewritten in the costandard basis, and
pi_eps the stabilizer series of each parameter,

    E(tau, gamma) = sum_eps bar(P[eps, tau]) * Q[eps, gamma] * pi_eps(q).

The degree dictionary reads the coefficient of q^m as the dimension in
cohomological degree 2m - (dim gamma - dim tau); it is anchored by the
requirements that E(tau, tau) start with 1 in degree 0 and that every
series live in a single parity.

That parity holds by construction.  Q solves P over the unitriangular
costandard table, so it divides by nothing; Z[q, q^-1] is closed under
+, -, x and bar; and PoincareSeries casts its denominator exponents to
int.  When P, the costandard table and the Poincare numerators have
integer exponents and every dim is an integer, every series therefore has
integer exponents m, and each degree 2m - offset has the parity of its
offset.  klv.parity_check certifies series-parity from those inputs and
builds no series.

ic_cohomology(tau) pairs the full standard basis against the class of tau:
sum_eps Q[eps, tau] * pi_eps, read through degree 2m - dim tau.  For a
clean parameter only the self term survives.

The full sweep goes one tau-row at a time.  Q is indexed by row once per
datum, eps -> the (gamma, Q[eps, gamma]) of its row, sharing the
polynomials of its columns.  For each eps in P[., tau], bar(P[eps, tau]) is taken once and
multiplied into the weight of every (gamma, slot) that the Q row reaches,
so one pass accumulates the whole row.  A single pair, and the IC series,
run the same accumulation restricted to one gamma.

When every denominator in the datum's Poincare table is a power of one
factor (1 - q^a), a slot is a distinct series: the weights that share it
are summed first, and each distinct series is multiplied and reduced once.
Reduction then cancels (1 - q^a) as often as it divides, which leaves the
unique lowest-terms form, so the result does not depend on how the sum was
built.  Mixed factors make the greedy reduction order-dependent, and there
a slot is one parameter, so the sum stays a term-by-term fold in basis
order.  Within a row, the gammas whose nonzero (slot, weight) terms agree
share one series object, built once, and the ExtSeries of one row share a
memo, so each distinct (series, offset, window) is expanded and rendered
once.  Neither the series nor the memo outlives the row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import datum as dm
from . import hmodule as hm
from . import klv as klvmod
from .coxeter import memoized
from .errors import DatumError
from .laurent import ONE, LaurentPoly, PoincareSeries, paccum, pbar, render_series


@dataclass(frozen=True, slots=True)
class ExtSeries:
    """A weight series with its degree dictionary offset.

    Coefficient of q^m is the dimension in cohomological degree
    2m - degree_offset.  gamma is None for intersection-cohomology series.
    memo is shared by the ExtSeries of one row (see ext_row); a lone
    series gets its own.
    """

    tau: str
    gamma: str | None
    series: PoincareSeries
    degree_offset: int
    memo: dict = field(default_factory=dict, compare=False, repr=False)

    def dims(self, window: int) -> dict[int, int]:
        """{cohomological degree: dimension} for series exponents 0..window
        (negative exponents of the numerator, if any, are included)."""
        lo = 0
        if not self.series.num.is_zero():
            lo = min(0, self.series.num.degree_window()[0])
        exp = self.series.expand(lo, window)
        return {2 * m - self.degree_offset: c for m, c in sorted(exp.items()) if c}


@memoized
def _q_columns(d: dm.OrbitDatum) -> dict[str, dict[str, dict]]:
    """Self-dual basis rewritten in the costandard basis (triangular solve):
    {gamma: {eps: Q[eps, gamma] kernel dict}}, equal entries sharing one
    dict."""
    table = klvmod.klv_table(d)
    n_cols, _ = hm.costandard_table(d)
    shared: dict[frozenset, dict] = {}
    out = {}
    for delta in d.basis:
        acc = {pid: dict(c._c) for pid, c in table.column(delta.id).terms.items()}
        coords = hm.unitriangular_coords(d, acc, n_cols.__getitem__)
        out[delta.id] = {
            eps: shared.setdefault(frozenset(c._c.items()), c._c) for eps, c in coords.items()
        }
    return out


@memoized
def _q_rows(d: dm.OrbitDatum) -> dict[str, tuple[list[str], list[dict]]]:
    """{eps: (gammas, Q[eps, gamma] kernel dicts)}, gamma in basis order:
    the rows of _q_columns, sharing its dicts, in two flat lists."""
    rows: dict[str, tuple[list[str], list[dict]]] = {}
    for gamma, col in _q_columns(d).items():
        for eps, c in col.items():
            gammas, polys = rows.setdefault(eps, ([], []))
            gammas.append(gamma)
            polys.append(c)
    return rows


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


@memoized
def _slots(d: dm.OrbitDatum) -> tuple[dict[str, int], dict[int, PoincareSeries]]:
    """({pid: slot}, {slot: series}).  One factor: a slot is a distinct
    series, its _series_groups index.  Mixed factors: a slot is one
    parameter, its basis index, so summing in slot order is the fold in
    basis order."""
    groups = _series_groups(d)
    slot = d.basis_index if groups is None else groups
    series: dict[int, PoincareSeries] = {}
    for p in d.basis:
        series.setdefault(slot[p.id], d.poincare[p.id])
    return slot, series


def _pair(d: dm.OrbitDatum, left: dict, right, gammas) -> list[PoincareSeries]:
    """For each gamma: sum over eps of left[eps] * b * poincare[eps], over
    the (gamma, b) pairs in right(eps); left[eps] and b are kernel dicts.

    The products are accumulated per (gamma, slot), eps in basis order.
    Each gamma's nonzero weights are then summed in slot order, each term
    reduced as it is added; gammas with equal terms share one series."""
    slot, series = _slots(d)
    index = d.basis_index
    weights: dict[str, dict[int, dict]] = {}
    for eps in sorted(left, key=index.__getitem__):
        a, s = left[eps], slot[eps]
        for gamma, b in right(eps):
            per = weights.get(gamma)
            if per is None:
                per = weights[gamma] = {}
            w = per.get(s)
            if w is None:
                w = per[s] = {}
            paccum(w, a, b)
    built: dict[tuple, PoincareSeries] = {}
    out = []
    for gamma in gammas:
        terms = sorted((s, w) for s, w in weights.get(gamma, {}).items() if w)
        key = tuple((s, frozenset(w.items())) for s, w in terms)
        total = built.get(key)
        if total is None:
            total = PoincareSeries.zero()
            for s, w in terms:
                total = total + series[s] * LaurentPoly._raw(w)
            built[key] = total
        out.append(total)
    return out


def _known(d: dm.OrbitDatum, *pids: str) -> None:
    for pid in pids:
        if pid not in d.param_by_id:
            raise DatumError(f"unknown parameter {pid!r}")


def _bar_column(d: dm.OrbitDatum, tau: str) -> dict[str, dict]:
    return {eps: pbar(p._c) for eps, p in klvmod.klv_table(d).column(tau).coords.items()}


def ext_row(d: dm.OrbitDatum, tau: str) -> list[ExtSeries]:
    """Ext(tau, gamma) for every gamma in basis order, from one pass over
    P[., tau] and the Q rows; the returned ExtSeries share one memo."""
    _known(d, tau)
    rows = _q_rows(d)
    gammas = [p.id for p in d.basis]
    totals = _pair(d, _bar_column(d, tau), lambda eps: zip(*rows.get(eps, ((), ()))), gammas)
    dim = d.param_by_id[tau].dim
    memo: dict = {}
    return [
        ExtSeries(tau, gamma.id, total, gamma.dim - dim, memo)
        for gamma, total in zip(d.basis, totals)
    ]


def ext_poincare(d: dm.OrbitDatum, tau: str, gamma: str) -> ExtSeries:
    """Weight series of the Ext pairing between the simple classes: the
    row of ext_row restricted to gamma."""
    _known(d, tau, gamma)
    q_col = _q_columns(d)[gamma]

    def right(eps):
        return ((gamma, q_col[eps]),) if eps in q_col else ()

    (total,) = _pair(d, _bar_column(d, tau), right, [gamma])
    offset = d.param_by_id[gamma].dim - d.param_by_id[tau].dim
    return ExtSeries(tau=tau, gamma=gamma, series=total, degree_offset=offset)


def ic_cohomology(d: dm.OrbitDatum, tau: str) -> ExtSeries:
    """Weight series pairing every standard class against the class of tau."""
    _known(d, tau)
    q_col = _q_columns(d)[tau]
    (total,) = _pair(
        d, dict.fromkeys(q_col, ONE._c), lambda eps: ((tau, q_col[eps]),), [tau]
    )
    return ExtSeries(
        tau=tau, gamma=None, series=total, degree_offset=d.param_by_id[tau].dim
    )


def series_row(es: ExtSeries, window: int = 10) -> tuple[str, str, str, str]:
    """(tau, gamma, series, first_degrees) with bit-stable formatting.

    The rendering is made once per (series, offset, window) among the
    ExtSeries sharing es.memo, and the result is shared, read only."""
    key = (id(es.series), es.degree_offset, window)
    hit = es.memo.get(key)
    if hit is None:
        degrees = ";".join(f"{deg}:{dim}" for deg, dim in sorted(es.dims(window).items()))
        # holding the series keeps its id from being reused while the memo lives
        hit = es.memo[key] = (es.series, render_series(es.series), degrees)
    _, text, degrees = hit
    return (es.tau, es.gamma if es.gamma is not None else "", text, degrees)
