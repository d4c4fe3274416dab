"""Self-dual basis solver and the structure constants it controls.

For each parameter delta the solver finds the unique vector
L_delta = m_delta + sum of strictly lower terms that the duality beta fixes
up to the twist q^-dim(delta), with polynomial entries P bounded in degree
by (dim(delta) - dim(gamma) - 1)/2.  Existence and uniqueness hold whenever
the datum's duality is a genuine triangular involution.

klv_table runs Vogan's ascent recursion (Lusztig-Vogan, Invent. Math. 71
(1983); Adams-du Cloux, J. Inst. Math. Jussieu 8 (2009)), the module
analogue of the Kazhdan-Lusztig recursion in hecke.kl_basis.  When a U- or
T-ascent (s, delta') leads to delta, (T_s + 1) L_delta' is already fixed
by beta up to q^-dim(delta); subtracting symmetric multiples of the lower
L_gamma, top down, leaves L_delta.  Columns with no such ascent (closed
orbits, cuspidals, N-ascent targets) are read off the costandard table:
n_delta - m_delta, written in the lower L_gamma by one back substitution,
holds each P[gamma, delta] as the low-degree half of its coordinate
(Kazhdan-Lusztig, Invent. Math. 53 (1979), section 2).
verify_klv_table re-checks every defining property independently of the
solver, so the algorithm itself is replaceable.  It picks its own ascent
for each column and certifies self-duality from (T_s + 1) L_delta' and the
columns below, under the same compatibility law; the dense beta checks
the columns no ascent certifies.

On top of the table: mu extracts extreme-degree coefficients, c_expansion
expresses C_w . L_tau in the self-dual basis, and is_clean / is_cuspidal /
parity_check are the executable forms of the structural corollaries.
The expansions follow the W-graph of the KL basis (Kazhdan-Lusztig,
Invent. Math. 53 (1979), sections 1-2): for a left descent s of w and
w' = s w,

    C_s C_w' = C_w + sum_{z < w', sz < z} mu(z, w') q^{(l(w)-l(z))/2} C_z,

an identity in the Hecke algebra and so in every datum's module.  Only the
identity and the generators are expanded directly, C_s L_tau =
(T_s + 1) L_tau through the sparse action table and an exact unitriangular
back substitution (no division, no dense C_w column), and only those
(rank + 1) * |params| expansions are memoized per datum.  expansion_row
reads every longer w off the shorter expansions of the same tau and the mu
lists of hecke.kl_basis, one tau at a time, on kernel dicts; c_expansion
reads it.

expansion_report makes one such pass for the check suites and keeps only
their problem lines.  The rule carries stability up from the identity and
generator expansions, so it tests it there only, and then runs the pass on
Kronecker-packed integers (laurent.ppack).
"""

from __future__ import annotations

from . import datum as dm
from . import hmodule as hm
from .coxeter import CoxElt, CoxeterSystem, Record, memoized
from .errors import DatumError, DomainError, NonGeometricDatum
from .hecke import kl_basis
from .laurent import (
    MAX_PACKED_BITS,
    ONE,
    LaurentPoly,
    paccum_scaled,
    pnorm,
    ppack,
    render_poly,
    vaccum,
)

_MINUS_ONE = {0: -1}


class KLVTable:
    """Unitriangular matrix of polynomials P[gamma, delta] in basis order."""

    def __init__(self, datum: dm.OrbitDatum, columns: dict[str, hm.ModuleVector]):
        self.datum = datum
        self.columns = columns

    def p(self, gamma: str, delta: str) -> LaurentPoly:
        return self.columns[delta].coefficient(gamma)

    def column(self, delta: str) -> hm.ModuleVector:
        return self.columns[delta]

    def rows(self):
        """(gamma, delta, P) triples in basis order, nonzero entries only."""
        d = self.datum
        for delta in d.basis:
            terms = self.columns[delta.id].terms
            for gamma in sorted(terms, key=d.basis_index.__getitem__):
                yield (gamma, delta.id, terms[gamma])


@memoized
def klv_table(d: dm.OrbitDatum) -> KLVTable:
    """Solve for the self-dual basis, processing parameters by (dim, id).

    Column delta is seeded by the first U- or T-ascent (s, delta') to it, in
    hmodule.ascent_sources order: v = (T_s + 1) L_delta'.  The
    compatibility law beta(T_s m) = bar(T_s) beta(m) makes
    beta(v) = q^-(dim delta' + 1) v.  When v is m_delta plus lower terms,
    the m_delta coefficients of the two sides force dim delta =
    dim delta' + 1, so no separate twist test is needed, and v is self-dual
    with the twist of delta.  The residue
    v - L_delta is a self-dual combination of the lower L_gamma, so each
    coefficient c_gamma is symmetric, c_j = c_(gap - j) for gap =
    dim delta - dim gamma, while P[gamma, delta] lives in degrees up to
    (gap - 1)//2: the entries above that degree determine c_gamma, and
    c_gamma . L_gamma is subtracted, gamma from the top down.

    The recursion needs that law on the whole module.  validate_datum does
    not gate on it, so the recursion runs only when
    hmodule.compatibility_problems, which certifies it by ascent induction
    from a few (p, s) and sums every (p, s) only on a failure, finds none.
    Columns without a seed, every column of a datum that fails the law, and
    a seed whose top entry is not 1 . m_delta take _costandard_column, which
    needs only the self-duality of the columns below, not the law.
    """
    dm.ensure_valid(d)
    compatible = not hm.compatibility_problems(d)
    sources = hm.ascent_sources(d) if compatible else {}
    action = hm.build_action_table(d)
    columns: dict[str, hm.ModuleVector] = {}
    for delta in d.basis:
        col = None
        if delta.id in sources:
            # validation puts every ascent source at a lower dimension
            s, src, _ = sources[delta.id][0]
            seed = columns[src].terms
            # apply_terms hands back fresh dicts, so v is owned and consumed
            v = action.apply_terms(s, {pid: c._c for pid, c in seed.items()})
            vaccum(v, ONE._c, seed.items())
            col = _selfdual_column(d, columns, delta, v)
        columns[delta.id] = col if col is not None else _costandard_column(d, columns, delta)
    return KLVTable(d, columns)


def _selfdual_column(d: dm.OrbitDatum, columns, delta, acc: dict):
    """L_delta from a vector that beta fixes up to q^-dim(delta), by the
    symmetric top-down sweep over the lower columns; None unless it is
    m_delta plus terms below delta.  acc holds the vector as {parameter:
    kernel dict} and is consumed in place, so its dicts must be its own."""
    index = d.basis_index
    if acc.get(delta.id) != ONE._c or max(acc, key=index.__getitem__) != delta.id:
        return None
    for gamma in reversed(d.basis[: index[delta.id]]):
        r = acc.get(gamma.id)
        if r is None:
            continue
        gap = delta.dim - gamma.dim
        half = (gap - 1) // 2
        neg = {}
        for j, a in r.items():
            if j > half:
                neg[j] = neg[gap - j] = -a
        if neg:
            vaccum(acc, neg, columns[gamma.id].terms.items())
    return hm.ModuleVector._raw(d, acc)


def _costandard_column(d: dm.OrbitDatum, columns, delta) -> hm.ModuleVector:
    """L_delta = m_delta + sum of x_gamma L_gamma, read off the costandard
    column n_delta = q^dim(delta) beta(m_delta) in one back substitution.

    Every lower L_gamma is self-dual, so L_delta is iff n_delta - m_delta =
    sum of r_gamma L_gamma with r_gamma = x_gamma - q^gap bar(x_gamma),
    gap = dim delta - dim gamma (Kazhdan-Lusztig, Invent. Math. 53 (1979),
    section 2).  x_gamma lives in degrees up to (gap - 1)//2 and
    q^gap bar(x_gamma) above them, so x_gamma is r_gamma truncated there,
    and the rest of r_gamma must match, gamma from the top down.
    """
    table, _ = hm.costandard_table(d)
    index = d.basis_index
    acc: dict[str, dict] = {}
    vaccum(acc, ONE._c, table[delta.id].items())
    vaccum(acc, _MINUS_ONE, ((delta.id, ONE),))
    if acc and max(map(index.__getitem__, acc)) >= index[delta.id]:
        raise NonGeometricDatum(
            f"correction support at or above {delta.id} (datum {d.name})"
        )
    out = {delta.id: {0: 1}}
    for gamma, r in hm.unitriangular_coords(d, acc, lambda g: columns[g].terms).items():
        gap = delta.dim - d.param_by_id[gamma].dim
        x = r.truncate((gap - 1) // 2)
        if x - x.bar().shift(gap) != r:
            raise NonGeometricDatum(
                f"no degree-bounded correction at ({gamma}, {delta.id}) "
                f"(datum {d.name})"
            )
        vaccum(out, x._c, columns[gamma].terms.items())
    return hm.ModuleVector._raw(d, out)


def verify_klv_table(table: KLVTable, d: dm.OrbitDatum) -> list[str]:
    """Independent re-check of the defining contract; empty list means pass.

    When hmodule.compatibility_problems is clean (the law holds on the whole
    module; see hmodule on its ascent induction), a column reached by a U- or
    T-ascent from a column already certified is certified by
    _ascent_certifies, which needs no beta; every other column, and one
    that check does not certify, is checked with the dense beta.  A
    certified column that is 1 at delta and lower elsewhere may serve the
    columns above it.
    """
    compatible = not hm.compatibility_problems(d)
    sources = hm.ascent_sources(d) if compatible else {}
    index = d.basis_index
    certified: dict[str, dict] = {}
    problems = []
    for delta in d.basis:
        col = table.columns[delta.id]
        selfdual = _ascent_certifies(d, certified, sources.get(delta.id, ()), delta, col)
        if not selfdual:
            twisted = hm.beta(col, d).scale(LaurentPoly.monomial(1, delta.dim))
            selfdual = twisted == col
            if not selfdual:
                problems.append(f"L[{delta.id}] is not self-dual")
        if (
            selfdual
            and col.coefficient(delta.id) == ONE
            and max(col.coords, key=index.__getitem__) == delta.id
        ):
            certified[delta.id] = col.terms
        if col.coefficient(delta.id) != ONE:
            problems.append(f"P[{delta.id},{delta.id}] != 1")
        for gamma_id, poly in col.coords.items():
            gamma = d.param_by_id[gamma_id]
            if gamma_id == delta.id:
                continue
            if not d.leq_orbits(gamma.orbit, delta.orbit):
                problems.append(
                    f"P[{gamma_id},{delta.id}] supported outside the closure order"
                )
            lo, hi = poly.degree_window()
            if lo < 0:
                problems.append(f"P[{gamma_id},{delta.id}] has negative exponents")
            if 2 * hi > delta.dim - gamma.dim - 1:
                problems.append(
                    f"P[{gamma_id},{delta.id}] = {render_poly(poly)} "
                    "exceeds the degree bound"
                )
            if not poly.is_nonnegative():
                problems.append(
                    f"P[{gamma_id},{delta.id}] = {render_poly(poly)} "
                    "has negative coefficients"
                )
    return problems


def _ascent_certifies(d: dm.OrbitDatum, certified, sources, delta, col) -> bool:
    """Whether L_delta = col is self-dual by Vogan's ascent recursion, from
    the first source (s, delta') in sources whose column is certified.

    With the compatibility law, v = (T_s + 1) L_delta' is fixed by beta up to
    q^-(dim delta' + 1), which must be q^-dim(delta).  Back substitution
    writes v - L_delta = sum c_gamma L_gamma over certified columns; if
    every bar(c_gamma) = q^(dim gamma - dim delta) c_gamma, each
    c_gamma L_gamma has the twist of delta, and so does L_delta.
    """
    s, src = next(((s, src) for s, src, _ in sources if src in certified), (None, None))
    if src is None or d.param_by_id[src].dim + 1 != delta.dim:
        return False
    seed, ts = certified[src], hm.build_action_table(d).columns[s]
    acc: dict[str, dict] = {}
    vaccum(acc, ONE._c, seed.items())
    for row, c in seed.items():
        vaccum(acc, c._c, ts[row])
    vaccum(acc, _MINUS_ONE, col.terms.items())
    try:
        coords = hm.unitriangular_coords(d, acc, certified.__getitem__)
    except KeyError:  # a term on a column not certified: no conclusion
        return False
    return all(
        c.bar().shift(delta.dim - d.param_by_id[gamma].dim) == c
        for gamma, c in coords.items()
    )


def mu(table: KLVTable, gamma: str, delta: str) -> int:
    """Extreme-degree coefficient of P[gamma, delta]; 0 off the parity line."""
    if gamma == delta:
        raise DatumError("mu is defined for distinct parameters")
    d = table.datum
    gap = d.param_by_id[delta].dim - d.param_by_id[gamma].dim - 1
    if gap < 0 or gap % 2:
        return 0
    return table.p(gamma, delta).coefficient(gap // 2)


def _as_element(d: dm.OrbitDatum, w) -> CoxElt:
    if isinstance(w, CoxElt):
        if w.system is not d.coxeter:
            raise DatumError("element over a different Coxeter system")
        return w
    return d.coxeter.from_word(w)


def c_expansion(d: dm.OrbitDatum, w, tau: str) -> dict[str, LaurentPoly]:
    """Coefficients of C_w . L_tau in the self-dual basis, keyed in
    descending basis order, zero coefficients dropped.

    The expansion is read from a row of tau that this function memoizes
    per (datum, tau) and fills on demand with w and the shorter expansions
    its W-graph steps read, so one w costs no whole row and a sweep over
    every w builds each row once.  The check suites read expansion_report
    instead, which keeps no row.  Callers get a new dict, so mutating the
    result cannot corrupt the memo.
    """
    klv_table(d)  # a datum without a table fails before its arguments are read
    w = _as_element(d, w)
    if tau not in d.param_by_id:
        raise DatumError(f"unknown parameter {tau!r}")
    i = d.coxeter.index(w)
    row = _row_memo(d, tau)
    if i not in row:
        expansion_row(d, tau, _missing(d.coxeter, row, i), row)
    expansion = row[i]
    index = d.basis_index
    return {
        gamma: LaurentPoly._raw(expansion[gamma])
        for gamma in sorted(expansion, key=index.__getitem__, reverse=True)
    }


@memoized
def _row_memo(d: dm.OrbitDatum, tau: str) -> dict[int, dict[str, dict]]:
    """c_expansion's expansions of tau by element index; only c_expansion
    reads it, and it fills it in place."""
    return {}


def _missing(sys: CoxeterSystem, row, i: int) -> list[int]:
    """Element i and every element its W-graph steps read, directly or
    not, that row lacks, in increasing order."""
    steps = _wgraph_steps(sys)
    todo, stack = {i}, [i]
    while stack:
        step = steps[stack.pop()]
        if step is None:
            continue
        for j in (step[1], *(z for z, _, _ in step[2])):
            if j not in row and j not in todo:
                todo.add(j)
                stack.append(j)
    return sorted(todo)


def expansion_row(
    d: dm.OrbitDatum, tau: str, indices=None, row=None
) -> dict[int, dict[str, dict]]:
    """C_w . L_tau in the self-dual basis for the w with the given
    increasing element indices, by default every w; each is added to row,
    by default a new dict, under the index of w, as {gamma: kernel dict}
    in no fixed key order.  Returns row.

    The identity and the generators are read from _dense_expand.  For a
    longer w, take the first left descent s of w and w' = s w.  The
    Kazhdan-Lusztig multiplication rule, an identity in the Hecke algebra
    and so in every datum's module, gives

        C_w = C_s C_w' - sum_{z < w', sz < z} mu(z, w') q^{(l(w)-l(z))/2} C_z,

    so E[w] = sum_gamma E[w']_gamma E[s][gamma] minus the mu terms E[z].
    Elements come in length order, so w' and every z come before w: each
    must be in row already or among the indices.  Only this tau's shorter
    expansions are read.  The dicts of the identity and generator entries
    belong to the _dense_expand memo; read them, never mutate them.
    """
    sys = d.coxeter
    els = sys.elements()
    steps = _wgraph_steps(sys)
    gens = [sys.generator(s) for s in range(sys.rank)]
    # cols[s][gamma]: the terms of E[s][gamma], looked up once per call
    cols: list[dict] = [{} for _ in gens]
    row = {} if row is None else row
    for i in range(len(els)) if indices is None else indices:
        step = steps[i]
        if step is None:
            row[i] = {gamma: c._c for gamma, c in _dense_expand(d, els[i], tau).items()}
            continue
        s, prev, edges = step
        acc: dict[str, dict] = {}
        col_s = cols[s]
        for gamma, c in row[prev].items():
            col = col_s.get(gamma)
            if col is None:
                col = col_s[gamma] = _dense_expand(d, gens[s], gamma).items()
            vaccum(acc, c, col)
        for z, mu, shift in edges:
            for gamma, e in row[z].items():
                a = acc.get(gamma)
                if a is None:
                    a = acc[gamma] = {}
                paccum_scaled(a, e, -mu, shift)
                if not a:
                    del acc[gamma]
        row[i] = acc
    return row


@memoized
def _wgraph_steps(sys: CoxeterSystem) -> list:
    """For each element w of sys, in elements() order: None when l(w) <= 1,
    else (s, index of s w, [(index of z, mu(z, s w), (l(w) - l(z))/2)] over
    the z with sz < z), for the first left descent s of w.  A nonzero
    mu(z, s w) needs l(s w) - l(z) odd, so l(w) - l(z) is even; DomainError
    is raised where it is not, as q^h would take a half-integer h."""
    left, lengths = sys.left_mul, sys.lengths
    mus = kl_basis(sys).mus
    steps = []
    for w, lw in enumerate(lengths):
        if lw <= 1:
            steps.append(None)
            continue
        s = next(t for t in range(sys.rank) if lengths[left[t][w]] < lw)
        prev = left[s][w]
        edges = []
        for z, mu in mus[prev]:
            if lengths[left[s][z]] < lengths[z]:
                gap = lw - lengths[z]
                if gap % 2:
                    raise DomainError(f"W-graph edge mu({z}, {prev}) spans odd length gap {gap}")
                edges.append((z, mu, gap // 2))
        steps.append((s, prev, edges))
    return steps


@memoized
def _dense_expand(d: dm.OrbitDatum, w: CoxElt, tau: str) -> dict[str, LaurentPoly]:
    """C_w . L_tau for l(w) <= 1, keyed in descending basis order.

    The identity gives {tau: 1}.  A generator gives
    C_s L_tau = (T_s + 1) L_tau: T_s acts through the sparse columns of the
    action table, L_tau is added, and the sum is solved back through the
    unitriangular table, highest position first; no division occurs and no
    dense C_w column is built.  Only the datum's descriptors say how C_s
    acts, so these (rank + 1) * |params| expansions are where the W-graph
    recursion of expansion_row starts, and the only ones memoized.
    """
    table = klv_table(d)
    if w.length == 0:
        return {tau: ONE}
    (s,) = d.coxeter.reduced_word(w)
    column = table.column(tau).terms
    # apply_terms hands back freshly built coefficient dicts, so the sum is
    # reduced in place through them
    acc = hm.build_action_table(d).apply_terms(s, {pid: c._c for pid, c in column.items()})
    vaccum(acc, ONE._c, column.items())
    return hm.unitriangular_coords(d, acc, lambda pid: table.columns[pid].terms)


class ExpansionReport(Record):
    """What the check suites read from every C_w . L_tau of a datum: the
    number of coefficients and each suite's problem lines, in w-major,
    then d.params, then descending basis order."""

    coefficients: int
    not_self_dual: tuple[str, ...]
    negative: tuple[str, ...]


@memoized
def expansion_report(d: dm.OrbitDatum) -> ExpansionReport:
    """One pass over every C_w . L_tau, one tau at a time, each row dropped
    once read, feeding the selfdual-basis stability test, positivity and
    the count of integer-powers.

    Stability of C_w L_tau = sum_gamma c_gamma L_gamma is, with
    k = l(w) + dim tau - dim gamma, bar(c_gamma) q^k == c_gamma for every
    gamma (see checks._selfdual_suite).  When _base_certifies it for every
    w and _packing finds a width, the pass only counts and tests signs, on
    packed integers (_packed_report).
    Otherwise the kernel-dict pass tests every (w, tau) (_kernel_report),
    so every problem line is the same either way.
    """
    sys = d.coxeter
    els = sys.elements()
    # the expansions expansion_row starts from, by element index
    base = {
        i: {p.id: _dense_expand(d, els[i], p.id) for p in d.params}
        for i, step in enumerate(_wgraph_steps(sys))
        if step is None
    }
    packing = _packing(d, base) if _base_certifies(d, base) else None
    if packing is None:
        count, unstable, negative = _kernel_report(d)
    else:
        count, negative = _packed_report(d, base, *packing)
        unstable = []

    def token(i):
        return sys.element_token(els[i])

    return ExpansionReport(
        count,
        tuple(
            f"C[{token(i)}] L[{d.params[j].id}] not self-dual" for i, j in sorted(unstable)
        ),
        tuple(
            f"c[{token(i)},{d.params[j].id},{gamma}] has a negative coefficient"
            for i, j, _, gamma in sorted(negative)
        ),
    )


def _base_certifies(d: dm.OrbitDatum, base) -> bool:
    """Whether every identity and generator expansion is stable; then every
    C_w . L_tau is.

    expansion_row builds E[w] = sum_gamma E[w']_gamma E[s][gamma] minus
    the terms mu q^h E[z].  A product of entries stable with twists
    k(w', tau, gamma) and k(s, gamma, gamma') is stable with their sum,
    k(w, tau, gamma'); q^h, h = (l(w) - l(z))/2, turns the twist of z into
    that of w; and entries stable with one twist add to one.
    """
    lengths = d.coxeter.lengths
    dims = {p.id: p.dim for p in d.params}
    for i, per in base.items():
        for tau, expansion in per.items():
            k0 = lengths[i] + dims[tau]
            for gamma, c in expansion.items():
                c, k = c._c, k0 - dims[gamma]
                if any(c.get(k - e) != v for e, v in c.items()):
                    return False
    return True


def _packing(d: dm.OrbitDatum, base) -> tuple[int, int] | None:
    """(B, digits) for the packed pass over stable expansions, or None
    where it cannot run: a base exponent is negative, or an entry would take
    more than MAX_PACKED_BITS.

    With nonnegative base exponents every exponent of E[w] is nonnegative,
    and stability puts it at most k <= l(w0) + max dim - min dim, so an
    entry has that many digits plus one.  b[w] bounds the sum of absolute
    coefficients of any E[w][tau]: for l(w) <= 1 it is read off, and along
    expansion_row's step b[w] = b[w'] b[s] + sum |mu| b[z].  B is one bit
    past the largest b[w], so every coefficient c has |c| < 2^(B-1).
    """
    if any(
        e < 0 for per in base.values() for exp in per.values() for c in exp.values() for e in c._c
    ):
        return None
    sys = d.coxeter
    gens = [sys.index(sys.generator(s)) for s in range(sys.rank)]
    bound = [0] * sys.order()
    for i, step in enumerate(_wgraph_steps(sys)):
        if step is None:
            norms = (sum(pnorm(c._c) for c in exp.values()) for exp in base[i].values())
            bound[i] = max(norms, default=0)
        else:
            s, prev, edges = step
            bound[i] = bound[prev] * bound[gens[s]] + sum(abs(mu) * bound[z] for z, mu, _ in edges)
    bits = max(bound).bit_length() + 1
    dims = [p.dim for p in d.params]
    digits = sys.lengths[-1] + max(dims, default=0) - min(dims, default=0) + 1
    return (bits, digits) if bits * digits <= MAX_PACKED_BITS else None


def _packed_report(d: dm.OrbitDatum, base, bits: int, digits: int) -> tuple[int, list]:
    """(count, negative) of expansion_report on packed integers.

    Every entry of E[w] is packed at q = 2^bits with no exponent shift
    (_packing), so expansion_row's step is one big-integer multiply-add
    per term, and q^h a shift by bits * h.  An entry is nonzero iff its
    polynomial is.  It has a negative coefficient iff it is negative or
    has the top bit of one of its digits set: below its lowest negative
    coefficient c every digit is a coefficient in [0, 2^(bits-1)), so
    nothing carries into the digit of c, which reads 2^bits + c >=
    2^(bits-1).  No entry is decoded.
    """
    sys = d.coxeter
    index = d.basis_index
    steps = _wgraph_steps(sys)
    gens = [sys.index(sys.generator(s)) for s in range(sys.rank)]
    high = sum(1 << (bits * e + bits - 1) for e in range(digits))
    packed = {
        i: {
            tau: {gamma: ppack(c._c, bits, 0) for gamma, c in expansion.items()}
            for tau, expansion in per.items()
        }
        for i, per in base.items()
    }
    count = 0
    negative = []
    for j, p in enumerate(d.params):
        row: list[dict] = []
        for i, step in enumerate(steps):
            if step is None:
                entries = packed[i][p.id]
            else:
                s, prev, edges = step
                col_s = packed[gens[s]]
                acc: dict[str, int] = {}
                for gamma, v in row[prev].items():
                    for g, x in col_s[gamma].items():
                        acc[g] = acc.get(g, 0) + v * x
                for z, mu, h in edges:
                    shift = bits * h
                    for gamma, v in row[z].items():
                        acc[gamma] = acc.get(gamma, 0) - mu * (v << shift)
                entries = {gamma: v for gamma, v in acc.items() if v}
            row.append(entries)
            count += len(entries)
            for gamma, v in entries.items():
                if v < 0 or v & high:
                    negative.append((i, j, -index[gamma], gamma))
    return count, negative


def _kernel_report(d: dm.OrbitDatum) -> tuple[int, list, list]:
    """(count, unstable, negative) of expansion_report, from
    expansion_row on kernel dicts, every (w, tau) tested.  e -> k - e is an
    involution, so stability holds iff c_gamma has coefficient v at k - e
    for every term v q^e."""
    els = d.coxeter.elements()
    index = d.basis_index
    dims = {p.id: p.dim for p in d.params}
    count = 0
    unstable, negative = [], []
    for j, p in enumerate(d.params):
        for i, expansion in expansion_row(d, p.id).items():
            k0 = els[i].length + p.dim
            stable = True
            for gamma, c in expansion.items():
                count += 1
                if stable:
                    k = k0 - dims[gamma]
                    stable = all(c.get(k - e) == v for e, v in c.items())
                    if not stable:
                        unstable.append((i, j))
                if min(c.values(), default=0) < 0:
                    negative.append((i, j, -index[gamma], gamma))
    return count, unstable, negative


def is_clean(table: KLVTable, tau: str) -> bool:
    """True iff the simple class equals the standard class."""
    col = table.columns[tau]
    return set(col.coords) == {tau}


def is_cuspidal(d: dm.OrbitDatum, tau: str) -> bool:
    """True iff no ascent from another orbit produces tau in its C_s expansion.

    Reads the generator expansions of the _dense_expand memo; no
    expansion_row is built."""
    if tau not in d.param_by_id:
        raise DatumError(f"unknown parameter {tau!r}")
    target_orbit = d.param_by_id[tau].orbit
    sys = d.coxeter
    for s in range(sys.rank):
        gen = sys.generator(s)
        for p in d.params:
            if p.orbit == target_orbit:
                continue
            if dm.s_star(d, s, p.orbit) != target_orbit:
                continue
            if tau in _dense_expand(d, gen, p.id):
                return False
    return True


def parity_check(d: dm.OrbitDatum, window: int = 10) -> dm.ValidationReport:
    """integer-powers over P and every C_w . L_tau, and series-parity over
    every Ext and IC series.

    Both hold by construction: every exponent of the package is an integer
    (see laurent), so integer-powers counts the polynomials, the nonzero
    entries of P and of every C_w . L_tau, and walks none of them.  Each
    series is sum_eps bar(P[eps, tau]) Q[eps, gamma] pi_eps (see
    extseries), its coefficient m read in degree 2m - offset, the offset a
    difference of dims (dim tau for IC).  Every m is an integer, so every
    degree has the parity of its offset and all n (n + 1) series sit in one
    parity: no series is built.
    """
    table = klv_table(d)
    count = sum(len(col.terms) for col in table.columns.values())
    count += expansion_report(d).coefficients
    checks = [dm.CheckResult("integer-powers", True, f"{count} polynomials")]
    # the window only names a range in the detail; an empty one is refused
    # as PoincareSeries.expand refuses it
    if window < 0:
        raise DomainError("empty expansion window")
    n = len(d.basis)
    checks.append(
        dm.CheckResult("series-parity", True, f"{n * (n + 1)} series, window q^0..q^{window}")
    )
    return dm.ValidationReport(checks)
