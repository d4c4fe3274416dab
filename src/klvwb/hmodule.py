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

The kept candidates, and the compatibility defects the ascent induction
below sums on them, run on Kronecker-packed integers (laurent.ppack): each
entry is one int at q = 2^B, so each step of a column is one big-integer
multiply-add, in the order and with the key drops of the kernel-dict
_candidate.  _derivation_width fixes B before anything is packed, from
the action table and the order of the ascents alone: column norms and
top exponents follow the ascents, and no entry of the table is walked.
Each distinct packed value is decoded once, into one LaurentPoly that
every equal entry of the table shares, read-only like every memoized
result.  Where the width test refuses (a multiplier exponent below 0, or
more than laurent.MAX_PACKED_BITS bits an entry), where every candidate
is compared, and for a given table, the kernel dicts run instead.

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

from functools import cached_property, partial

from . import datum as dm
from .coxeter import CoxElt, memoized
from .errors import DatumError, MissingCostandard, SystemMismatch
from .hecke import HeckeElt, kl_basis, parse_token
from .laurent import (
    MAX_PACKED_BITS,
    ONE,
    Combination,
    LaurentPoly,
    paccum_scaled,
    pbar,
    pmonmul,
    pneg,
    pnorm,
    ppack,
    punpack,
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
    in bar_columns, built when first read, that of bar(T_s)."""

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

    @cached_property
    def bar_columns(self) -> dict[int, dict[str, list]]:
        return {s: _bar_ts_columns(cols) for s, cols in self.columns.items()}

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

    A derived table is computed on packed integers (_packed_derivation)
    where _derivation_width, which bounds the norm and the top exponent
    of each column along the ascents, finds a width.  Each distinct entry
    is then one LaurentPoly shared by every place it occurs: never write
    into an entry, nor into its kernel dict.  Where it finds none, the
    kernel-dict propagation gives the same columns in the same key order.
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
def _ascent_plan(d: dm.OrbitDatum) -> list:
    """[(p, rows)] in basis order for each parameter not on a closed orbit
    that an ascent row from known columns reaches, rows being every such
    (s, src, others) of ascent_sources(d)[p.id]; closed parameters are
    known, and so is each parameter once listed."""
    sources = ascent_sources(d)
    known = {p.id for p in d.basis if d.orbit_by_id[p.orbit].closed}
    plan = []
    for p in d.basis:
        if p.id in known:
            continue
        rows = [r for r in sources.get(p.id, ()) if all(x in known for x in (r[1], *r[2]))]
        if rows:
            known.add(p.id)
            plan.append((p, rows))
    return plan


@memoized
def _propagate(d: dm.OrbitDatum, every: bool):
    """(columns, taken): n_p for every parameter the ascents reach, in basis
    order, and the (src, s) each was taken from.  Closed orbits give
    n_p = m_p; then, in basis order, an ascent T_s m_src = m_p + sum of m_o
    from known columns forces beta(m_p) = bar(T_s) beta(m_src) - sum of
    beta(m_o).  The first such candidate is kept; with every, the others
    are computed too, and DatumError is raised where one disagrees.

    Without every the columns come from _packed_derivation when it runs;
    otherwise, and with every, from _candidate on kernel dicts.  Both give
    the same columns with the same key order.
    """
    packed = None if every else _packed_derivation(d)
    if packed is not None:
        return packed[:2]
    table = build_action_table(d)
    cols = {p.id: {p.id: ONE} for p in d.basis if d.orbit_by_id[p.orbit].closed}
    taken = set()
    for p, rows in _ascent_plan(d):
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


@memoized
def _packed_derivation(d: dm.OrbitDatum):
    """(columns, taken, defective): the columns and taken that
    _propagate(d, False) keeps, computed at q = 2^bits with exponent
    offset 0, and whether _packed_defect_found finds a defect where
    _induction_holds sums one (True too when a column is missing); None
    where _derivation_width finds no width.

    Each column replays _candidate's summing order on ints: for each entry
    c of n_src, c q^(shift - 1) times each T_s entry, then
    c (q^(shift - 1) - q^shift), then -q^(dim p - dim o) times each n_o,
    a key dropped where its value cancels to 0.  An int is 0 iff its
    polynomial is, so every column keeps _candidate's key order.  The
    defects are summed on the same ints, and then each distinct int is
    decoded once into one LaurentPoly that its equal entries share; the
    ints are not kept.
    """
    table = build_action_table(d)
    plan = _ascent_plan(d)
    width = _derivation_width(d, table, plan)
    if width is None:
        return None
    bits, los, lows = width
    ts = [_packed_columns(table.columns[s], bits, lo) for s, lo in enumerate(los)]
    dims = d.param_by_id
    cols = {p.id: {p.id: 1} for p in d.basis if d.orbit_by_id[p.orbit].closed}
    taken = set()
    for p, rows in plan:
        s, src, others = rows[0]
        shift = p.dim - dims[src].dim
        up = bits * (shift - 1 + los[s])
        diagonal = (1 << bits * (shift - 1)) - (1 << bits * shift)
        columns = ts[s]
        source = cols[src]
        acc: dict[str, int] = {}
        for r, c in source.items():
            c <<= up
            for t, x in columns[r]:
                v = acc.get(t, 0) + c * x
                if v:
                    acc[t] = v
                else:
                    acc.pop(t, None)
        for r, c in source.items():
            v = acc.get(r, 0) + c * diagonal
            if v:
                acc[r] = v
            else:
                acc.pop(r, None)
        for o in others:
            gap = bits * (p.dim - dims[o].dim)
            for r, c in cols[o].items():
                v = acc.get(r, 0) - (c << gap)
                if v:
                    acc[r] = v
                else:
                    acc.pop(r, None)
        cols[p.id] = acc
        taken.add((src, s))
    defective = len(cols) < len(d.basis) or _packed_defect_found(
        d, bits, los, lows, ts, cols, taken
    )
    shared: dict[int, LaurentPoly] = {}
    out = {}
    for p in d.basis:
        col = cols.get(p.id)
        if col is None:
            continue
        entries = out[p.id] = {}
        for r, v in col.items():
            poly = shared.get(v)
            if poly is None:
                poly = shared[v] = _decode(v, bits)
            entries[r] = poly
    return out, taken, defective


def _packed_columns(columns, bits: int, lo: int) -> dict[str, list]:
    """The T_s columns of one generator as (row, int) lists, each entry at
    q = 2^bits with exponent offset lo; a coefficient object that many
    rows share, such as ONE, is packed once."""
    packs: dict[int, int] = {}
    out = {}
    for r, column in columns.items():
        entries = out[r] = []
        for t, a in column:
            x = packs.get(id(a))
            if x is None:
                x = packs[id(a)] = ppack(a._c, bits, lo)
            entries.append((t, x))
    return out


def _decode(v: int, bits: int) -> LaurentPoly:
    """The polynomial whose packing at q = 2^bits, exponent offset 0, is v."""
    return LaurentPoly._raw(punpack(v, bits, 0))


def _derivation_width(d: dm.OrbitDatum, table: ActionTable, plan):
    """(bits, los, lows) for _packed_derivation and _packed_defect_found,
    or None where they cannot run, found from the action table and the
    plan alone, before anything is packed.

    For each generator s: t_s is the largest sum of absolute coefficients
    of a T_s column, and los[s] and his[s] the lowest and highest T_s
    exponents, capped at 0.  bar(T_s) m_r = q^-1 T_s m_r + (q^-1 - 1) m_r,
    so a bar(T_s) column sums at most t_s + 2, with exponents from
    los[s] - 1 to max(his[s] - 1, 0); lows[s] is the lowest exponent of a
    defect multiplier, that or a bar(a_t) q^(dim p - dim t).  Along the
    plan, nu = 1 on a closed parameter and
    nu(p) = nu(src) (t_s + 2) + sum of nu(o) bound every coefficient of
    every partial sum of a column, and a defect sums at most
    nu_max (2 t_s + 2).  bits is one past the bit length of the larger
    bound, so every coefficient c has |c| < 2^(bits - 1) and an int is 0
    iff its polynomial is.

    Offset 0 needs every multiplier exponent >= 0: shift >= 1,
    los[s] + shift - 1 >= 0 and dim p - dim o >= 0.  The top exponent
    follows the plan too: 0 on a closed parameter, else the largest of
    top(src) + shift - 1 + his[s], top(src) + shift and each
    top(o) + dim p - dim o.  A defect adds the span of its multipliers.
    bits times the digits must not pass MAX_PACKED_BITS, so a wide entry
    such as q^100000 packs nothing.
    """
    dims = {p.id: p.dim for p in d.params}
    # (norm, lowest exponent, highest exponent) of each coefficient object
    stats: dict[int, tuple[int, int, int]] = {}
    norms, los, his, lows = [], [], [], []
    span = 0
    for s in range(d.coxeter.rank):
        t = lo = hi = low = high = 0
        for pid, column in table.columns[s].items():
            dp = dims[pid]
            n = 0
            for target, a in column:
                st = stats.get(id(a))
                if st is None:
                    c = a._c
                    st = stats[id(a)] = (pnorm(c), min(c), max(c))
                norm, e0, e1 = st
                n += norm
                gap = dp - dims[target]
                # comparisons, not min and max: this loop meets every T_s entry
                if e0 < lo:
                    lo = e0
                if e1 > hi:
                    hi = e1
                if gap - e1 < low:
                    low = gap - e1
                if gap - e0 > high:
                    high = gap - e0
            if n > t:
                t = n
        low = min(low, lo - 1)
        norms.append(t)
        los.append(lo)
        his.append(hi)
        lows.append(low)
        span = max(span, max(high, hi - 1) - low)
    closed = [p.id for p in d.basis if d.orbit_by_id[p.orbit].closed]
    nu, top = dict.fromkeys(closed, 1), dict.fromkeys(closed, 0)
    for p, rows in plan:
        s, src, others = rows[0]
        shift = p.dim - dims[src]
        if shift < 1 or los[s] + shift - 1 < 0:
            return None
        n = nu[src] * (norms[s] + 2)
        high = top[src] + shift - 1 + max(his[s], 1)
        for o in others:
            gap = p.dim - dims[o]
            if gap < 0:
                return None
            n += nu[o]
            high = max(high, top[o] + gap)
        nu[p.id], top[p.id] = n, high
    bound = max(nu.values(), default=1) * (2 * max(norms, default=0) + 2)
    bits = bound.bit_length() + 1
    digits = max(top.values(), default=0) + span + 1
    return (bits, los, lows) if bits * digits <= MAX_PACKED_BITS else None


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
    _packed_derivation sums the defects of a table it derives itself, on
    its ints.
    """
    if quadratic_problems(d):
        return False
    if d.costandard is None:
        packed = _packed_derivation(d)
        if packed is not None:
            return not packed[2]
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


def _packed_defect_found(d, bits: int, los, lows, ts, cols, taken) -> bool:
    """Whether _defect is nonzero at a (p, s) that _induction_holds sums,
    on the packed columns of _packed_derivation.

    bar(T_s) n_p = sum over the entries c of n_p at r of
    c (q^-1 T_s m_r + (q^-1 - 1) m_r), read off the packed T_s columns, so
    no bar(T_s) column is built; each bar(a_t) q^(dim p - dim t) is packed
    once.  Everything sits at exponent offset lows[s], below every
    multiplier, so a row of the defect is 0 iff its int is
    (_derivation_width).
    """
    dims = d.param_by_id
    table = build_action_table(d)
    for s, columns in enumerate(ts):
        low = lows[s]
        # c q^-1 a at offset low is (c << up) times a packed at los[s]
        up = bits * (los[s] - low - 1)
        diagonal = (1 << bits * (-1 - low)) - (1 << bits * -low)
        for pid in unreached(d, (s,)):
            if (pid, s) in taken:
                continue
            p = dims[pid]
            acc: dict[str, int] = {}
            for r, c in cols[pid].items():
                acc[r] = acc.get(r, 0) + c * diagonal
                c <<= up
                for t, x in columns[r]:
                    acc[t] = acc.get(t, 0) + c * x
            for t, a in table.columns[s][pid]:
                x = ppack(pbar(a._c), bits, low - p.dim + dims[t].dim)
                for r, c in cols[t].items():
                    acc[r] = acc.get(r, 0) - c * x
            if any(acc.values()):
                return True
    return False


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
