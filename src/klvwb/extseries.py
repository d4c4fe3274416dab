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

The pairing runs on packed integers, by Kronecker substitution (Harvey,
"Faster polynomial multiplication via multipoint Kronecker substitution",
J. Symbolic Comput. 44 (2009)).  A polynomial sum_e c_e q^e becomes the
integer sum_e c_e 2^(B(e - lo)): its exponents are shifted by lo to be
nonnegative and q is put to 2^B.  Each bar(P[eps, tau]) is packed with the
shift lo_left, each Q[eps, gamma] with lo_q, so a product of two packed
ints is the packed product at the shift lo_left + lo_q, and every weight
is a sum of such products: one big-integer multiply-add per (eps, gamma).

B is chosen once per datum from an exact bound.  A weight
sum_eps a_eps b_eps has every coefficient at most sum_eps |a_eps| |b_eps|
in absolute value, |.| the sum of absolute coefficients, so at most
sum_eps |P[eps, tau]| max_gamma |Q[eps, gamma]| for Ext, and
sum_eps |Q[eps, tau]| for IC, where a_eps = 1.  B is one bit more than the
larger of the two bounds over every tau, so each coefficient c of a weight
has |c| < 2^(B-1).  That makes the signed base-2^B digits of the weight its
coefficients (laurent.punpack), so the weight is decoded into a kernel dict
exactly, and two weights are equal polynomials iff they are equal integers.
The bound limits the final sums only: integers add exactly whatever the
order, so the eps order of the accumulation does not matter, and partial
sums may carry freely.

The full sweep goes one tau-row at a time.  Q is indexed by row once per
datum, eps -> the (gamma, packed Q[eps, gamma]) of its row, gamma as its
basis index.  For each eps in P[., tau], bar(P[eps, tau]) is packed once
and multiplied into the weight of every (slot, gamma) that the Q row
reaches, so one pass accumulates the whole row.  A single pair, and the IC
series, run the same accumulation restricted to one gamma.

When every denominator in the datum's Poincare table is a power of one
factor (1 - q^a), a slot is a distinct series: the weights that share it
are summed first, and each distinct series is multiplied and reduced once.
Reduction then cancels (1 - q^a) as often as it divides, which leaves the
unique lowest-terms form, so the result does not depend on how the sum was
built.  Mixed factors make the greedy reduction order-dependent, and there
a slot is one parameter, so the sum stays a term-by-term fold in basis
order.

Two tables live per datum, in d._cache, so d._cache.clear() frees them.
The series table maps the nonzero (slot, packed weight) terms of a series,
in slot order, to its PoincareSeries: each distinct series is decoded,
multiplied and reduced once per datum, and every pair and IC series with
those terms shares the object.  The render table maps (series, offset,
window) to the rendered text and degrees, so each is expanded and rendered
once per datum.  Packed keys are small: a weight of a few dozen terms is
one int of a few hundred bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import datum as dm
from . import hmodule as hm
from . import klv as klvmod
from .coxeter import memoized
from .errors import DatumError, DomainError
from .laurent import (
    MAX_PACKED_BITS,
    LaurentPoly,
    PoincareSeries,
    pbar,
    pnorm,
    ppack,
    punpack,
    render_series,
)


@dataclass(frozen=True, slots=True)
class ExtSeries:
    """A weight series with its degree dictionary offset.

    Coefficient of q^m is the dimension in cohomological degree
    2m - degree_offset.  gamma is None for intersection-cohomology series.
    memo is the render table of series_row.  The ExtSeries that ext_row,
    ext_poincare and ic_cohomology return share their datum's table; a
    series built elsewhere gets its own.
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
def _packing(d: dm.OrbitDatum) -> tuple[int, int, int]:
    """(B, lo_left, lo_q): the digit width and the two exponent shifts of
    the packed pairing, from the coefficient bound of the module docstring.
    lo_left covers every bar(P[eps, tau]) and the constant 1 of the IC
    pairing, lo_q every Q[eps, gamma].  Raises DomainError when a weight
    would take more than MAX_PACKED_BITS."""
    table = klvmod.klv_table(d)
    p_cols = [table.column(p.id).coords for p in d.basis]
    q_cols = _q_columns(d).values()
    row_max: dict[str, int] = {}
    for col in q_cols:
        for eps, c in col.items():
            row_max[eps] = max(row_max.get(eps, 0), pnorm(c))
    ext = max(sum(pnorm(c._c) * row_max.get(eps, 0) for eps, c in col.items()) for col in p_cols)
    ic = max(sum(map(pnorm, col.values())) for col in q_cols)
    bits = max(ext, ic).bit_length() + 1
    left = [0, *(-e for col in p_cols for c in col.values() for e in c._c)]
    right = [e for col in q_cols for c in col.values() for e in c]
    width = bits * (max(left) - min(left) + max(right) - min(right) + 1)
    if width > MAX_PACKED_BITS:
        raise DomainError(
            f"Ext weights would pack into {width} bits each, more than {MAX_PACKED_BITS}"
        )
    return bits, min(left), min(right)


@memoized
def _q_rows(d: dm.OrbitDatum) -> dict[str, tuple[list[int], list[int]]]:
    """{eps: (basis indices of the gammas, packed Q[eps, gamma])}, gamma in
    basis order: the rows of _q_columns in two flat lists, equal entries
    sharing one int."""
    bits, _, lo = _packing(d)
    packed: dict[int, int] = {}
    rows: dict[str, tuple[list[int], list[int]]] = {}
    for gamma, col in _q_columns(d).items():
        for eps, c in col.items():
            b = packed.get(id(c))
            if b is None:
                b = packed[id(c)] = ppack(c, bits, lo)
            indices, polys = rows.setdefault(eps, ([], []))
            indices.append(d.basis_index[gamma])
            polys.append(b)
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


@memoized
def _tables(d: dm.OrbitDatum) -> tuple[dict, dict]:
    """The datum's series table and render table (module docstring).  Unlike
    other memoized results these two grow as the pairing and series_row
    fill them."""
    return {}, {}


def _pair(d: dm.OrbitDatum, left: dict, right, n: int) -> list[PoincareSeries]:
    """The n series sum over eps of left[eps] * b * poincare[eps], the i-th
    over the (i, b) pairs in right(eps); left[eps] is packed at lo_left and
    b at lo_q (_packing).

    The products are accumulated per (slot, i).  Each series' nonzero
    weights, in slot order, key the series table; a new key is decoded and
    summed in slot order, each term reduced as it is added."""
    slot, series = _slots(d)
    weights: dict[int, list[int]] = {}
    for eps, a in left.items():
        per = weights.get(slot[eps])
        if per is None:
            per = weights[slot[eps]] = [0] * n
        for i, b in right(eps):
            per[i] += a * b
    slots = sorted(weights.items())
    built, _ = _tables(d)
    out = []
    for i in range(n):
        key = tuple((s, per[i]) for s, per in slots if per[i])
        total = built.get(key)
        if total is None:
            bits, lo_left, lo_q = _packing(d)
            total = PoincareSeries.zero()
            for s, w in key:
                total = total + series[s] * LaurentPoly._raw(punpack(w, bits, lo_left + lo_q))
            built[key] = total
        out.append(total)
    return out


def _known(d: dm.OrbitDatum, *pids: str) -> None:
    for pid in pids:
        if pid not in d.param_by_id:
            raise DatumError(f"unknown parameter {pid!r}")


def _bar_column(d: dm.OrbitDatum, tau: str) -> dict[str, int]:
    """{eps: bar(P[eps, tau]) packed at lo_left}."""
    bits, lo, _ = _packing(d)
    coords = klvmod.klv_table(d).column(tau).coords
    return {eps: ppack(pbar(p._c), bits, lo) for eps, p in coords.items()}


def ext_row(d: dm.OrbitDatum, tau: str) -> list[ExtSeries]:
    """Ext(tau, gamma) for every gamma in basis order, from one pass over
    P[., tau] and the Q rows."""
    _known(d, tau)
    rows = _q_rows(d)
    n = len(d.basis)
    totals = _pair(d, _bar_column(d, tau), lambda eps: zip(*rows.get(eps, ((), ()))), n)
    dim = d.param_by_id[tau].dim
    _, memo = _tables(d)
    return [
        ExtSeries(tau, gamma.id, total, gamma.dim - dim, memo)
        for gamma, total in zip(d.basis, totals)
    ]


def ext_poincare(d: dm.OrbitDatum, tau: str, gamma: str) -> ExtSeries:
    """Weight series of the Ext pairing between the simple classes: the
    row of ext_row restricted to gamma."""
    _known(d, tau, gamma)
    q_col = _q_columns(d)[gamma]
    bits, _, lo = _packing(d)

    def right(eps):
        return ((0, ppack(q_col[eps], bits, lo)),) if eps in q_col else ()

    (total,) = _pair(d, _bar_column(d, tau), right, 1)
    offset = d.param_by_id[gamma].dim - d.param_by_id[tau].dim
    return ExtSeries(tau, gamma, total, offset, _tables(d)[1])


def ic_cohomology(d: dm.OrbitDatum, tau: str) -> ExtSeries:
    """Weight series pairing every standard class against the class of tau."""
    _known(d, tau)
    q_col = _q_columns(d)[tau]
    bits, lo_left, lo = _packing(d)
    one = ppack({0: 1}, bits, lo_left)
    (total,) = _pair(
        d,
        dict.fromkeys(q_col, one),
        lambda eps: ((0, ppack(q_col[eps], bits, lo)),),
        1,
    )
    return ExtSeries(tau, None, total, d.param_by_id[tau].dim, _tables(d)[1])


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
