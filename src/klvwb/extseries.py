"""Weight series of equivariant Ext groups and intersection cohomology.

Purity reduces both to an orbitwise pairing: with P the self-dual table in
the standard basis, Q the same table in the costandard basis, and pi_eps
the stabilizer series of each parameter,

    E(tau, gamma) = sum_eps bar(P[eps, tau]) * Q[eps, gamma] * pi_eps(q).

The degree dictionary reads the coefficient of q^m as the dimension in
cohomological degree 2m - (dim gamma - dim tau); it is anchored by the
requirements that E(tau, tau) start with 1 in degree 0 and that every
series live in a single parity.

Q is P read through the duality, as a costalk is the Verdier dual of a
stalk.  Every column is self-dual, beta(L_delta) = q^-dim delta L_delta,
and beta(m_eps) = q^-dim eps n_eps, so

    L_delta = q^dim delta sum_eps bar(P[eps, delta]) q^-dim eps n_eps,

and the n_eps are unitriangular over the m_eps, so these coordinates are
the only ones: Q[eps, delta] = q^(dim delta - dim eps) bar(P[eps, delta])
(Kazhdan-Lusztig, Invent. Math. 53 (1979), section 2; Lusztig-Vogan,
Invent. Math. 71 (1983)).  Both column solvers of klv.klv_table produce
self-dual columns on every datum that passes dm.ensure_valid, which
klv_table calls first: the ascent recursion runs only behind the
compatibility law that makes its seeds self-dual, and the costandard back
substitution refuses a column it cannot make self-dual.  So the identity
holds wherever Q is read.

The single parity holds by construction.  Each Q entry is a bar of an
integer-exponent polynomial shifted by an integer dim, and every exponent
of the package is an integer (see laurent).  Every series therefore has
integer exponents m, and each degree 2m - offset has the parity of its
offset, so klv.parity_check builds no series.

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
sum_eps |Q[eps, tau]| for IC, where a_eps = 1.  Bar and shift keep the
coefficients, so |Q[eps, gamma]| = |P[eps, gamma]|, and both bounds are
read off P.  B is one bit more than the larger of the two bounds over
every tau, so each coefficient c of a weight has |c| < 2^(B-1).  That
makes the signed base-2^B digits of the weight its coefficients
(laurent.punpack), so the weight is decoded into a kernel dict exactly,
and two weights are equal polynomials iff they are equal integers.  The
bound limits the final sums only: integers add exactly whatever the order,
so the eps order of the accumulation does not matter, and partial sums may
carry freely.

The full sweep goes one tau-row at a time.  Q is packed by row once per
datum, straight off the P columns, with no table of Q kept: eps -> the
(gamma, packed Q[eps, gamma]) of its row, gamma as its basis index.  For
each eps in P[., tau], bar(P[eps, tau]) is packed once and multiplied into
the weight of every (slot, gamma) that the Q row reaches, so one pass
accumulates the whole row.  A single pair is read off its row, and the IC
series of every tau form one more row, the pairing of the all-ones column,
built once per datum.

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
those terms shares the object.  The render table maps each series object
to its render_series text and each (series, offset, window) to its degree
line, so a series is rendered once per datum and a line is made once.  A
new line expands its series afresh: keeping the expansions would hold a
window of coefficients per series.  Packed keys are small: a weight of a
few dozen terms is one int of a few hundred bits.

sweep_rows, the full sweep of the CLI, reads its rows straight off _pair
and _ic_row through the render table, with no ExtSeries per pair; ext_row
shares its row generator.
"""

from __future__ import annotations

from . import datum as dm
from . import klv as klvmod
from .coxeter import Record, memoized
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


class ExtSeries(Record):
    """A weight series with its degree dictionary offset.

    Coefficient of q^m is the dimension in cohomological degree
    2m - degree_offset.  gamma is None for intersection-cohomology series.
    memo is the render table of series_row, kept beside the fields, so
    equality, hashing and repr leave it out.  The ExtSeries that ext_row,
    ext_poincare and ic_cohomology return share their datum's table; a
    series built elsewhere gets its own.
    """

    tau: str
    gamma: str | None
    series: PoincareSeries
    degree_offset: int

    def __init__(self, tau, gamma, series, degree_offset, memo=None):
        super().__init__(tau, gamma, series, degree_offset)
        object.__setattr__(self, "memo", {} if memo is None else memo)

    def dims(self, window: int) -> dict[int, int]:
        """{cohomological degree: dimension} for series exponents 0..window
        (negative exponents of the numerator, if any, are included)."""
        return _dims(self.series, self.degree_offset, window)


def _dims(series: PoincareSeries, offset: int, window: int) -> dict[int, int]:
    lo = min(0, min(series.num._c, default=0))
    exp = series.expand(lo, window)
    return {2 * m - offset: c for m, c in sorted(exp.items()) if c}


@memoized
def _packing(d: dm.OrbitDatum) -> tuple[int, int, int]:
    """(B, lo_left, lo_q): the digit width and the two exponent shifts of
    the packed pairing, from the coefficient bound of the module docstring,
    in one walk over the P columns.  Q[eps, gamma] has the norm of
    P[eps, gamma] and the exponents dim gamma - dim eps - e, e those of
    P[eps, gamma].  lo_left covers every bar(P[eps, tau]) and the constant 1
    of the IC pairing, lo_q every Q[eps, gamma].  Raises DomainError when a
    weight would take more than MAX_PACKED_BITS."""
    table = klvmod.klv_table(d)
    norms: list[dict[str, int]] = []
    row_max: dict[str, int] = {}
    left, right = [0], []
    for gamma in d.basis:
        col = {}
        for eps, p in table.column(gamma.id).coords.items():
            col[eps] = n = pnorm(p._c)
            row_max[eps] = max(row_max.get(eps, 0), n)
            lo, hi = min(p._c), max(p._c)
            shift = gamma.dim - d.param_by_id[eps].dim
            left += (-hi, -lo)
            right += (shift - hi, shift - lo)
        norms.append(col)
    ext = max(sum(n * row_max[eps] for eps, n in col.items()) for col in norms)
    ic = max(sum(col.values()) for col in norms)
    bits = max(ext, ic).bit_length() + 1
    width = bits * (max(left) - min(left) + max(right) - min(right) + 1)
    if width > MAX_PACKED_BITS:
        raise DomainError(
            f"Ext weights would pack into {width} bits each, more than {MAX_PACKED_BITS}"
        )
    return bits, min(left), min(right)


@memoized
def _q_rows(d: dm.OrbitDatum) -> dict[str, tuple[list[int], list[int]]]:
    """{eps: (basis indices of the gammas, packed Q[eps, gamma])}, gamma in
    basis order.  Q[eps, gamma] = q^(dim gamma - dim eps) bar(P[eps, gamma])
    (module docstring) is packed straight off P: each distinct
    (shift, P entry) is barred, shifted and packed once, so equal entries
    share one int."""
    bits, _, lo = _packing(d)
    table = klvmod.klv_table(d)
    packed: dict[tuple[int, LaurentPoly], int] = {}
    rows: dict[str, tuple[list[int], list[int]]] = {}
    for i, gamma in enumerate(d.basis):
        for eps, p in table.column(gamma.id).coords.items():
            key = (gamma.dim - d.param_by_id[eps].dim, p)
            b = packed.get(key)
            if b is None:
                b = packed[key] = ppack(pbar(p._c), bits, lo - key[0])
            indices, polys = rows.setdefault(eps, ([], []))
            indices.append(i)
            polys.append(b)
    return rows


@memoized
def _slots(d: dm.OrbitDatum) -> tuple[dict[str, int], dict[int, PoincareSeries]]:
    """({pid: slot}, {slot: series}).  When every denominator is a power of
    one factor, a slot is a distinct series, numbered as first seen in basis
    order.  Mixed factors: a slot is one parameter, its basis index, so
    summing in slot order is the fold in basis order."""
    slot = d.basis_index
    if len({a for s in d.poincare.values() for a in s.den}) <= 1:
        first: dict = {}
        slot = {}
        for p in d.basis:
            s = d.poincare[p.id]
            slot[p.id] = first.setdefault((s.den, frozenset(s.num._c.items())), len(first))
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


def _pair(d: dm.OrbitDatum, left: dict) -> list[PoincareSeries]:
    """For every gamma in basis order, the series sum over eps of
    left[eps] * Q[eps, gamma] * poincare[eps], over the _q_rows; left[eps]
    is packed at lo_left (_packing).

    The products are accumulated per (slot, gamma).  Each series' nonzero
    weights, in slot order, key the series table; a new key is decoded and
    summed in slot order, each term reduced as it is added."""
    slot, series = _slots(d)
    rows = _q_rows(d)
    n = len(d.basis)
    weights: dict[int, list[int]] = {}
    for eps, a in left.items():
        per = weights.get(slot[eps])
        if per is None:
            per = weights[slot[eps]] = [0] * n
        for i, b in zip(*rows[eps]):
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


def _row(d: dm.OrbitDatum, tau: str):
    """(gamma, Ext(tau, gamma) series, degree offset) for every gamma in
    basis order, from one pass over P[., tau] and the Q rows."""
    dim = d.param_by_id[tau].dim
    for gamma, total in zip(d.basis, _pair(d, _bar_column(d, tau))):
        yield gamma.id, total, gamma.dim - dim


def ext_row(d: dm.OrbitDatum, tau: str) -> list[ExtSeries]:
    """Ext(tau, gamma) for every gamma in basis order, from one pass over
    P[., tau] and the Q rows.

    Ext(gamma, tau) = q^(dim tau - dim gamma) Ext(tau, gamma): by the
    duality each term is q^(dim gamma - dim eps) bar(P[eps, tau]
    P[eps, gamma]) pi_eps, symmetric in tau and gamma but for the shift."""
    _known(d, tau)
    _, memo = _tables(d)
    return [ExtSeries(tau, gamma, total, offset, memo) for gamma, total, offset in _row(d, tau)]


def ext_poincare(d: dm.OrbitDatum, tau: str, gamma: str) -> ExtSeries:
    """Weight series of the Ext pairing between the simple classes: the
    gamma entry of ext_row."""
    _known(d, tau, gamma)
    return ext_row(d, tau)[d.basis_index[gamma]]


@memoized
def _ic_row(d: dm.OrbitDatum) -> list[PoincareSeries]:
    """The IC series of every tau in basis order: the pairing of the
    all-ones column."""
    bits, lo_left, _ = _packing(d)
    return _pair(d, dict.fromkeys(d.basis_index, ppack({0: 1}, bits, lo_left)))


def ic_cohomology(d: dm.OrbitDatum, tau: str) -> ExtSeries:
    """Weight series pairing every standard class against the class of tau."""
    _known(d, tau)
    total = _ic_row(d)[d.basis_index[tau]]
    return ExtSeries(tau, None, total, d.param_by_id[tau].dim, _tables(d)[1])


def _render(memo: dict, series: PoincareSeries, offset: int, window: int) -> tuple[str, str]:
    """(series text, first_degrees) through the render table memo, which maps
    id(series) to (series, text) and (id(series), offset, window) to the
    degree line, each made once and shared, read only."""
    hit = memo.get(id(series))
    if hit is None:
        # holding the series keeps its id from being reused while the memo lives
        hit = memo[id(series)] = (series, render_series(series))
    key = (id(series), offset, window)
    degrees = memo.get(key)
    if degrees is None:
        dims = _dims(series, offset, window).items()
        degrees = memo[key] = ";".join(f"{deg}:{dim}" for deg, dim in dims)
    return hit[1], degrees


def series_row(es: ExtSeries, window: int = 10) -> tuple[str, str, str, str]:
    """(tau, gamma, series, first_degrees) with bit-stable formatting,
    rendered through es.memo."""
    text, degrees = _render(es.memo, es.series, es.degree_offset, window)
    return (es.tau, es.gamma if es.gamma is not None else "", text, degrees)


def sweep_rows(d: dm.OrbitDatum, window: int = 10):
    """The series_row of every ext_row in basis order, then of every
    ic_cohomology, yielded one row at a time.  The rows come from _pair and
    _ic_row through the datum's render table, with no ExtSeries between."""
    _, memo = _tables(d)
    for tau in d.basis:
        for gamma, total, offset in _row(d, tau.id):
            yield (tau.id, gamma, *_render(memo, total, offset, window))
    for tau, total in zip(d.basis, _ic_row(d)):
        yield (tau.id, "", *_render(memo, total, tau.dim, window))
