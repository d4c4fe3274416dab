"""The Hecke-algebra module attached to an orbit datum.

Vectors live in the free Z[q,q^-1]-module on the datum's parameters (the
standard basis m_gamma); ModuleVector is the laurent.Combination over the
datum, as hecke.HeckeElt is over the Coxeter system.  Each simple
reflection acts by the sparse matrix its case descriptors prescribe;
arbitrary algebra elements act through reduced words, which the validated
braid relations make well defined.

beta is the bar-semilinear duality: beta(m_gamma) = q^-dim * n_gamma with
n_gamma the costandard expansion.  The costandard table comes from the
datum; when absent it is derived by propagating bar(T_s)-compatibility
upward from the closed orbits through U- and T-ascents, the only situations
where duality is forced.  Parameters that no such chain reaches (cuspidal
local systems, and both partners of an N-ascent) make the table
underivable and duality-dependent operations raise MissingCostandard.
The derivation keeps the first candidate for each parameter, so the table
is compatible at that ascent's (src, s) by construction; another candidate
agrees with it iff the table is compatible at its own (src, s).

ascent_sources indexes those U- and T-ascents by target; the derivation
above and the self-dual basis solver both read it.  Every table here is
built once per datum, through coxeter.memoized.

compatibility_problems tests beta(T_s m) = bar(T_s) beta(m), the law the
solver's ascent recursion rests on, by ascent induction.  Take an s-ascent
row T_s m_src = m_up + sum of m_o, and let the quadratic relation
T_s^2 = (q - 1) T_s + q hold on every m_p; then
bar(T_s)^2 = (q^-1 - 1) bar(T_s) + q^-1 holds too.  If compatibility holds
at (src, s) and at every (o, s), both sides at (up, s) reduce to
bar(T_s)^2 beta(m_src) - sum of bar(T_s) beta(m_o), so it holds at
(up, s).  Behind a clean quadratic_problems, then, only the (p, s) that no
such row induces are summed, nor the (src, s) a derived table was built
from; on any failure every (p, s) is.

unitriangular_coords is the one top-down back substitution: klv expands
C_w . L_tau in the self-dual basis with it, extseries rewrites that basis
in the costandard one.
"""

from __future__ import annotations

from . import datum as dm
from .coxeter import CoxElt, memoized
from .errors import DatumError, MissingCostandard, SystemMismatch
from .hecke import HeckeElt, kl_basis, parse_token
from .laurent import ONE, Combination, LaurentPoly, pbar, pmonmul, pneg, render_poly, vaccum

_QINV = LaurentPoly.monomial(1, -1)
_QINV_MINUS_1 = _QINV - ONE
# kernel dicts of 1 - q and -q, for the quadratic relation
_ONE_MINUS_Q = {0: 1, 1: -1}
_MINUS_Q = {1: -1}


class ModuleVector(Combination):
    """Finitely supported map parameter -> Laurent polynomial."""

    __slots__ = ()
    _mismatch = "vectors over different datums"

    @property
    def datum(self) -> dm.OrbitDatum:
        return self.owner

    @property
    def coords(self) -> dict[str, LaurentPoly]:
        return self.terms

    def items_in_datum_order(self):
        return [(p.id, self.coords[p.id]) for p in self.datum.params if p.id in self.coords]

    def __str__(self) -> str:
        if not self.coords:
            return "0"
        bits = []
        for pid, c in self.items_in_datum_order():
            cs = render_poly(c)
            if len(c._c) > 1 or cs.startswith("-"):
                cs = f"({cs})"
            bits.append(f"+ {cs}*m[{pid}]")
        return " ".join(bits)

    __repr__ = __str__


def basis_vector(d: dm.OrbitDatum, pid: str) -> ModuleVector:
    if pid not in d.param_by_id:
        raise DatumError(f"unknown parameter {pid!r}")
    return ModuleVector(d, {pid: ONE})


class ActionTable:
    """Per simple reflection, the sparse column form of the T_s action, and
    in bar_columns that of bar(T_s)."""

    def __init__(self, d: dm.OrbitDatum):
        self.datum = d
        self.columns: dict[int, dict[str, list[tuple[str, LaurentPoly]]]] = {}
        for s in range(d.coxeter.rank):
            cols = {}
            for p in d.params:
                desc = d.descriptor(s, p.id)
                if desc is None:
                    raise DatumError(f"no descriptor for ({p.id}, s{s + 1})")
                cols[p.id] = desc.column(p.id)
            self.columns[s] = cols
        self.bar_columns = {s: _bar_ts_columns(cols) for s, cols in self.columns.items()}

    def apply(self, s: int, v: ModuleVector) -> ModuleVector:
        """T_s . v"""
        raw = self.apply_terms(s, {pid: c._c for pid, c in v.terms.items()})
        return ModuleVector._raw(self.datum, raw)

    def apply_terms(self, s: int, terms: dict) -> dict:
        """T_s . v on kernel dicts: terms and the result map parameter ids
        to kernel dicts."""
        cols = self.columns[s]
        out: dict[str, dict] = {}
        for pid, c in terms.items():
            vaccum(out, c, cols[pid])
        return out

    def apply_word(self, word, v: ModuleVector) -> ModuleVector:
        """T_w . v for w given by a reduced word (leftmost letter outermost)."""
        for s in reversed(word):
            v = self.apply(s, v)
        return v


@memoized
def build_action_table(d: dm.OrbitDatum) -> ActionTable:
    """Internal constructor: no validation gate (validation itself needs it)."""
    return ActionTable(d)


def ts_matrix(d: dm.OrbitDatum) -> ActionTable:
    """The validated action table of the datum."""
    dm.ensure_valid(d)
    return build_action_table(d)


@memoized
def ascent_sources(d: dm.OrbitDatum) -> dict[str, list[tuple[int, str, tuple[str, ...]]]]:
    """{up: [(s, src, others)]} over every U- or T-ascent row, s-major and
    then in basis order: T_s m_src = m_up + sum of m_other."""
    sources: dict[str, list] = {}
    for s in range(d.coxeter.rank):
        for src in d.basis:
            desc = d.descriptor(s, src.id)
            for up in desc.targets():
                others = desc.dual_others(up)
                if others is not None:
                    sources.setdefault(up, []).append((s, src.id, others))
    return sources


@memoized
def quadratic_problems(d: dm.OrbitDatum) -> list[str]:
    """Where (T_s + 1)(T_s - q) m_p != 0, s-major and then in d.params
    order: T_s^2 m_p - (q - 1) T_s m_p - q m_p summed on kernel dicts."""
    table = build_action_table(d)
    problems = []
    for s, cols in table.columns.items():
        for p in d.params:
            column = cols[p.id]
            acc: dict[str, dict] = {}
            for t, a in column:
                vaccum(acc, a._c, cols[t])
            vaccum(acc, _ONE_MINUS_Q, column)
            vaccum(acc, _MINUS_Q, ((p.id, ONE),))
            if acc:
                problems.append(f"(T+1)(T-q) != 0 at (s{s + 1}, {p.id})")
    return problems


@memoized
def costandard_table(d: dm.OrbitDatum):
    """(table, origin): column gamma holds the m-expansion of n_gamma.

    origin is 'given' when the datum carries the table, 'derived' when it
    was reconstructed by ascent propagation.  Raises MissingCostandard when
    neither is possible, DatumError if propagation is inconsistent.
    A clean _induction_holds proves the kept candidates consistent (see
    the module docstring); otherwise every candidate is compared.
    """
    if d.costandard is not None:
        return {col: dict(rows) for col, rows in d.costandard.items()}, "given"
    derived, _ = _propagate(d, False)
    if len(derived) < len(d.basis) or not _induction_holds(d):
        # an inconsistency is reported before a missing column
        _propagate(d, True)
    missing = [p.id for p in d.basis if p.id not in derived]
    if missing:
        raise MissingCostandard(
            "costandard table absent and not derivable for parameter(s): "
            + ", ".join(missing)
        )
    return derived, "derived"


@memoized
def _propagate(d: dm.OrbitDatum, every: bool):
    """(columns, taken): n_p for every parameter the ascents reach, in basis
    order, and the (src, s) each was taken from.  Closed orbits give
    n_p = m_p; then, in basis order, an ascent T_s m_src = m_p + sum of m_o
    from known columns forces beta(m_p) = bar(T_s) beta(m_src) - sum of
    beta(m_o).  The first such candidate is kept; with every, the others
    are computed too, and DatumError is raised where one disagrees.
    """
    table = build_action_table(d)
    sources = ascent_sources(d)
    cols = {p.id: {p.id: ONE} for p in d.basis if d.orbit_by_id[p.orbit].closed}
    taken = set()
    for p in d.basis:
        if p.id in cols:
            continue
        rows = [r for r in sources.get(p.id, ()) if all(x in cols for x in (r[1], *r[2]))]
        if not rows:
            continue
        col = _candidate(d, table, cols, p, *rows[0])
        for row in rows[1:] if every else ():
            if _candidate(d, table, cols, p, *row) != col:
                raise DatumError(f"duality propagation inconsistent at parameter {p.id}")
        cols[p.id] = {r: LaurentPoly._raw(c) for r, c in col.items()}
        taken.add((rows[0][1], rows[0][0]))
    return {p.id: cols[p.id] for p in d.basis if p.id in cols}, taken


def _candidate(d, table: ActionTable, cols, p, s: int, src: str, others) -> dict:
    """q^dim(p) (bar(T_s) beta(m_src) - sum of beta(m_o)) on kernel dicts;
    the summing order, q^-1 T_s, (q^-1 - 1), each -m_o, fixes the key order."""
    dims = d.param_by_id
    shift = p.dim - dims[src].dim
    source = cols[src].items()
    acc: dict[str, dict] = {}
    for r, c in source:
        vaccum(acc, pmonmul(c._c, 1, shift - 1), table.columns[s][r])
    for r, c in source:
        vaccum(acc, pmonmul(c._c, 1, shift), ((r, _QINV_MINUS_1),))
    for o in others:
        vaccum(acc, {p.dim - dims[o].dim: -1}, cols[o].items())
    return acc


def beta(x: ModuleVector, d: dm.OrbitDatum) -> ModuleVector:
    """The bar-semilinear duality involution: beta(m_gamma) =
    q^-dim(gamma) n_gamma, read off the costandard table."""
    table, _ = costandard_table(d)
    dims = d.param_by_id
    out: dict[str, dict] = {}
    for pid, c in x.terms.items():
        vaccum(out, pmonmul(pbar(c._c), 1, -dims[pid].dim), table[pid].items())
    return ModuleVector._raw(d, out)


@memoized
def compatibility_problems(d: dm.OrbitDatum) -> dict[str, list[str]]:
    """Per parameter p, where beta(T_s m[p]) != bar(T_s) beta(m[p]).

    Every list empty means beta intertwines the T_s action with its bar, so
    (T_s + 1) maps a vector fixed by beta up to q^-k to one fixed up to
    q^-(k+1).  It also makes beta^2, which is then Z[q, q^-1]-linear,
    commute with every T_s, so datum._check_costandard need test beta^2 = id
    only where no ascent generates the module.

    Unless _induction_holds certifies every list empty, each (p, s) is
    summed by _defect, so the lists are the same either way.
    """
    table = build_action_table(d)
    cols, _ = costandard_table(d)
    problems: dict[str, list[str]] = {p.id: [] for p in d.params}
    if _induction_holds(d):
        return problems
    for p in d.params:
        for s in range(d.coxeter.rank):
            if _defect(d, table, cols, s, p):
                problems[p.id].append(
                    f"beta(T{s + 1} m[{p.id}]) != bar(T{s + 1}) beta(m[{p.id}])"
                )
    return problems


@memoized
def _induction_holds(d: dm.OrbitDatum) -> bool:
    """Compatibility at every (p, s), by the ascent induction of the module
    docstring behind a clean quadratic_problems.  _defect is summed at every
    (p, s) but an (up, s) that a row induces from a src and others no
    s-ascent row targets, so that its premises are summed or taken, and a
    (src, s) that _propagate took for a derived table, which holds by
    construction.
    """
    if quadratic_problems(d):
        return False
    if d.costandard is None:
        cols, skip = _propagate(d, False)
    else:
        cols, skip = d.costandard, set()
    sources = ascent_sources(d)
    ups = {(up, s) for up, rows in sources.items() for s, _, _ in rows}
    skip = skip | {
        (up, s)
        for up, rows in sources.items()
        for s, src, others in rows
        if not any((x, s) in ups for x in (src, *others))
    }
    table = build_action_table(d)
    return not any(
        _defect(d, table, cols, s, p)
        for s in range(d.coxeter.rank)
        for p in d.params
        if (p.id, s) not in skip
    )


def _defect(d, table: ActionTable, cols, s: int, p) -> dict:
    """q^dim(p) (bar(T_s) beta(m_p) - beta(T_s m_p)) on kernel dicts: with
    T_s m_p = sum_t a_t m_t, bar(T_s) n_p minus sum_t bar(a_t)
    q^(dim p - dim t) n_t.  Empty iff compatibility holds at (p, s)."""
    dims = d.param_by_id
    bar = table.bar_columns[s]
    acc: dict[str, dict] = {}
    for r, c in cols[p.id].items():
        vaccum(acc, c._c, bar[r])
    for t, a in table.columns[s][p.id]:
        vaccum(acc, pmonmul(pbar(a._c), -1, p.dim - dims[t].dim), cols[t].items())
    return acc


def _bar_ts_columns(columns) -> dict[str, list]:
    """bar(T_s) m_r = q^-1 T_s m_r + (q^-1 - 1) m_r for every r, as
    (row, LaurentPoly) lists, from the T_s columns of one generator."""
    out = {}
    for r, column in columns.items():
        acc: dict[str, dict] = {}
        vaccum(acc, _QINV._c, column)
        vaccum(acc, _QINV_MINUS_1._c, ((r, ONE),))
        out[r] = [(row, LaurentPoly._raw(c)) for row, c in acc.items()]
    return out


def act(h, x: ModuleVector, d: dm.OrbitDatum) -> ModuleVector:
    """Apply a Hecke element, or a token like 'T[1,2]' / 'C[1]', to x."""
    dm.ensure_valid(d)
    sys = d.coxeter
    table = build_action_table(d)
    if isinstance(h, str):
        basis_letter, w = parse_token(sys, h)
        if basis_letter == "T":
            return table.apply_word(sys.reduced_word(w), x)
        # C_w acts through its Kazhdan-Lusztig expansion in the T-basis
        h = kl_basis(sys).c(w)
    if isinstance(h, HeckeElt):
        if h.system is not sys:
            raise SystemMismatch("Hecke element over a different Coxeter system")
        out = ModuleVector(d)
        for w, c in h.terms.items():
            out = out + table.apply_word(sys.reduced_word(w), x).scale(c)
        return out
    raise DatumError(f"cannot act by {h!r}")


@memoized
def t_matrix_columns(d: dm.OrbitDatum, w: CoxElt) -> dict[str, ModuleVector]:
    """Columns of the T_w action, memoized along the word recursion."""
    table = build_action_table(d)
    sys = d.coxeter
    if w.length == 0:
        return {p.id: basis_vector(d, p.id) for p in d.params}
    word = sys.reduced_word(w)
    prefix = t_matrix_columns(d, sys.from_word(word[:-1]))
    s = word[-1]
    # T_w = T_{w'} T_s, so the w-column is M_{w'} applied to T_s m_gamma
    col = {}
    for p in d.params:
        v = table.apply(s, basis_vector(d, p.id))
        col[p.id] = matrix_apply(prefix, v)
    return col


@memoized
def c_matrix_columns(d: dm.OrbitDatum, w: CoxElt) -> dict[str, ModuleVector]:
    """Columns of the C_w action: sum of P_{x,w} T_x columns.

    The dense reference for C_w . L_tau: the check path reads none of
    them, since klv._dense_expand takes C_s = T_s + 1 through the sparse
    action table, but the tests compare the expansions with them, and the
    perfbench tracer spans them."""
    cw = kl_basis(d.coxeter).c(w)
    sums: dict[str, dict[str, dict]] = {p.id: {} for p in d.params}
    for x, poly in cw.terms.items():
        tx = t_matrix_columns(d, x)
        for pid, out in sums.items():
            vaccum(out, poly._c, tx[pid].terms.items())
    return {pid: ModuleVector._raw(d, out) for pid, out in sums.items()}


def matrix_apply(columns: dict[str, ModuleVector], v: ModuleVector) -> ModuleVector:
    out: dict[str, dict] = {}
    for pid, c in v.terms.items():
        vaccum(out, c._c, columns[pid].terms.items())
    return ModuleVector._raw(v.owner, out)


def unitriangular_coords(d: dm.OrbitDatum, acc: dict, column_of) -> dict[str, LaurentPoly]:
    """Coordinates of acc in a basis unitriangular over d's standard basis.

    acc maps parameter ids to kernel dicts and is consumed in place, so its
    dicts must be its own.  column_of(pid) is the basis vector at pid as
    {row: LaurentPoly}: 1 at pid, all other rows lower in d.basis.  Top
    down, the highest entry c of acc is the coordinate there, and c times
    the rest of that column is subtracted; no division occurs.  The
    coordinates come back keyed in descending basis order.
    """
    index = d.basis_index
    out: dict[str, LaurentPoly] = {}
    while acc:
        top = max(acc, key=index.__getitem__)
        c = acc.pop(top)
        out[top] = LaurentPoly._raw(c)
        vaccum(acc, pneg(c), column_of(top).items())
        acc.pop(top, None)  # -c from the diagonal; top is solved already
    return out
