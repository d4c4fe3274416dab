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

Four relations are checked by one ascent induction.  Say a law K (an
additive map that must vanish on every m_p) is carried by T_s: K(T_s v) = 0
whenever K(v) = 0.  An s-ascent row T_s m_src = m_up + sum of m_o then
gives K(m_up) = K(T_s m_src) - sum of K(m_o), which vanishes once K holds
at src and at each o.  unreached(d, gens) lists, in basis order, the
parameters that no such row with s in gens reaches from parameters
before them; basis order makes the induction well founded, so a law
carried by every T_s of gens holds everywhere once it holds there.  Each
check below tests only those parameters, and on any failure tests every
one, so its problem lines are the same either way.

- quadratic_problems, gens (s,): Q_s = (T_s + 1)(T_s - q) is a
  polynomial in T_s, so Q_s T_s = T_s Q_s.
- braid_problems, gens (s, t), behind a clean quadratic_problems: let
  D = Delta_st - Delta_ts, the two alternating products of m_st factors
  (Delta_st beginning with T_s on the left), and s' = w0 s w0 in the
  dihedral group (s' = s when m_st is even, t when it is odd).  The
  quadratic relation gives D T_s' = (q - 1) D - T_s D, and likewise
  D T_t' = (q - 1) D - T_t D, so ker D is stable under T_s and T_t.
- compatibility_problems, gens (s,), behind a clean quadratic_problems:
  beta(T_s v) = bar(T_s) beta(v), the law the solver's ascent recursion
  rests on.  Where it holds at v, T_s^2 = (q - 1) T_s + q turns both
  sides of beta(T_s^2 v) = bar(T_s) beta(T_s v) into
  bar(T_s)^2 beta(v).  A (src, s) that _propagate took for a derived
  table holds by construction and is not summed either.
- beta^2 = id in datum._check_costandard, every generator, behind a clean
  compatibility_problems: beta^2 is then Z[q, q^-1]-linear and commutes
  with every T_s.

unitriangular_coords is the one top-down back substitution: klv expands
C_w . L_tau in the self-dual basis with it, reads the columns no ascent
seeds off the costandard table, and certifies the ascent-reached ones.
"""

from __future__ import annotations

from functools import partial

from . import datum as dm
from .coxeter import CoxElt, memoized
from .errors import DatumError, MissingCostandard, SystemMismatch
from .hecke import HeckeElt, kl_basis, parse_token
from .laurent import (
    ONE,
    Combination,
    LaurentPoly,
    paccum_scaled,
    pbar,
    pmonmul,
    pneg,
    render_poly,
    vaccum,
)

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
def unreached(d: dm.OrbitDatum, gens: tuple[int, ...]) -> tuple[str, ...]:
    """The parameters, in basis order, that no U- or T-ascent row
    T_s m_src = m_up + sum of m_o with s in gens reaches from parameters
    before them: where the ascent induction over gens starts."""
    index = d.basis_index
    sources = ascent_sources(d)
    return tuple(
        p.id
        for i, p in enumerate(d.basis)
        if not any(
            s in gens and all(index[x] < i for x in (src, *others))
            for s, src, others in sources.get(p.id, ())
        )
    )


def _failing(d: dm.OrbitDatum, gens: tuple[int, ...], fails, induct: bool = True) -> list[str]:
    """The parameters, in d.params order, where fails(pid) holds, for a law
    the T_s of gens carry: none when induct and none of unreached(d, gens)
    fails, else each parameter is tested."""
    if induct and not any(map(fails, unreached(d, gens))):
        return []
    return [p.id for p in d.params if fails(p.id)]


@memoized
def quadratic_problems(d: dm.OrbitDatum) -> list[str]:
    """Where (T_s + 1)(T_s - q) m_p != 0, s-major and then in d.params
    order, by the ascent induction over (s,)."""
    table = build_action_table(d)
    return [
        f"(T+1)(T-q) != 0 at (s{s + 1}, {pid})"
        for s in range(d.coxeter.rank)
        for pid in _failing(d, (s,), partial(_quadratic_defect, table, s))
    ]


def _quadratic_defect(table: ActionTable, s: int, pid: str) -> dict:
    """T_s^2 m_p - (q - 1) T_s m_p - q m_p on kernel dicts."""
    cols = table.columns[s]
    column = cols[pid]
    acc: dict[str, dict] = {}
    for t, a in column:
        vaccum(acc, a._c, cols[t])
    vaccum(acc, _ONE_MINUS_Q, column)
    vaccum(acc, _MINUS_Q, ((pid, ONE),))
    return acc


@memoized
def braid_problems(d: dm.OrbitDatum) -> list[str]:
    """Where T_s T_t ... m_p != T_t T_s ... m_p, m_st factors a side, for
    s < t and then in d.params order, by the ascent induction over (s, t)
    behind a clean quadratic_problems."""
    table = build_action_table(d)
    induct = not quadratic_problems(d)
    rank = d.coxeter.rank
    return [
        f"braid (s{s + 1}, s{t + 1}) fails at {pid}"
        for s in range(rank)
        for t in range(s + 1, rank)
        for pid in _failing(
            d, (s, t), partial(_braid_fails, table, s, t, d.coxeter.coxeter_m(s, t)), induct
        )
    ]


def _braid_fails(table: ActionTable, s: int, t: int, m: int, pid: str) -> bool:
    """Whether Delta_st m_p != Delta_ts m_p, m factors a side."""
    left = right = {pid: ONE._c}
    for k in range(m):
        left = table.apply_terms(s if k % 2 == 0 else t, left)
        right = table.apply_terms(t if k % 2 == 0 else s, right)
    return left != right


@memoized
def costandard_table(d: dm.OrbitDatum):
    """(table, origin): column gamma holds the m-expansion of n_gamma.

    origin is 'given' when the datum carries the table, which is returned
    as it is, read-only like every memoized result; 'derived' when it was
    reconstructed by ascent propagation.  Raises MissingCostandard when
    neither is possible, DatumError if propagation is inconsistent.
    A clean _induction_holds proves the kept candidates consistent (see
    the module docstring); otherwise every candidate is compared.
    """
    if d.costandard is not None:
        return d.costandard, "given"
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
        a = acc.setdefault(r, {})
        paccum_scaled(a, c._c, 1, shift - 1)
        paccum_scaled(a, c._c, -1, shift)
        if not a:
            del acc[r]
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
def compatibility_problems(d: dm.OrbitDatum) -> list[str]:
    """Where beta(T_s m[p]) != bar(T_s) beta(m[p]), in d.params order and
    then by s.

    An empty list means beta intertwines the T_s action with its bar, so
    (T_s + 1) maps a vector fixed by beta up to q^-k to one fixed up to
    q^-(k+1).  It also makes beta^2, which is then Z[q, q^-1]-linear,
    commute with every T_s, so datum._check_costandard need test beta^2 = id
    only where no ascent generates the module.

    Unless _induction_holds certifies the list empty, each (p, s) is
    summed by _defect, so the list is the same either way.
    """
    table = build_action_table(d)
    cols, _ = costandard_table(d)
    if _induction_holds(d):
        return []
    return [
        f"beta(T{s + 1} m[{p.id}]) != bar(T{s + 1}) beta(m[{p.id}])"
        for p in d.params
        for s in range(d.coxeter.rank)
        if _defect(d, table, cols, s, p)
    ]


@memoized
def _induction_holds(d: dm.OrbitDatum) -> bool:
    """Compatibility at every (p, s), by the ascent induction over (s,)
    behind a clean quadratic_problems (see the module docstring): _defect
    is summed at each p of unreached(d, (s,)) but a (src, s) that
    _propagate took for a derived table, which holds by construction.
    """
    if quadratic_problems(d):
        return False
    if d.costandard is None:
        cols, taken = _propagate(d, False)
    else:
        cols, taken = d.costandard, set()
    table = build_action_table(d)
    params = d.param_by_id
    return not any(
        _defect(d, table, cols, s, params[pid])
        for s in range(d.coxeter.rank)
        for pid in unreached(d, (s,))
        if (pid, s) not in taken
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
