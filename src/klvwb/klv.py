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
orbits, cuspidals, N-ascent targets) are corrected with the dense beta.
verify_klv_table re-checks every defining property independently of the
solver, so the algorithm itself is replaceable.  It picks its own ascent
for each column and certifies self-duality from (T_s + 1) L_delta' and the
columns below, under the same compatibility law; the dense beta checks
the columns no ascent certifies.

On top of the table: mu extracts extreme-degree coefficients, c_expansion
expresses C_w . L_tau in the self-dual basis, and is_clean / is_cuspidal /
parity_check are the executable forms of the structural corollaries.
c_expansion follows the W-graph of the KL basis (Kazhdan-Lusztig, Invent.
Math. 53 (1979), sections 1-2): for a left descent s of w and w' = s w,

    C_s C_w' = C_w + sum_{z < w', sz < z} mu(z, w') q^{(l(w)-l(z))/2} C_z,

an identity in the Hecke algebra and so in every datum's module.  Only the
identity and the generators are expanded from their dense C_w columns
(exact unitriangular back substitution, no division); every longer w is
read off shorter expansions and the mu lists of hecke.kl_basis.
"""

from __future__ import annotations

from . import datum as dm
from . import hmodule as hm
from .coxeter import CoxElt, memoized
from .errors import DatumError, NonGeometricDatum
from .hecke import kl_basis
from .laurent import ONE, LaurentPoly, render_poly, vaccum

# bounds the dense correction steps of a _beta_column, the columns the
# ascent recursion does not seed
ITERATION_FACTOR = 4

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
            col = self.columns[delta.id]
            for gamma in d.basis:
                c = col.coefficient(gamma.id)
                if not c.is_zero():
                    yield (gamma.id, delta.id, c)


@memoized
def klv_table(d: dm.OrbitDatum) -> KLVTable:
    """Solve for the self-dual basis, processing parameters by (dim, id).

    Column delta is seeded by the first U- or T-ascent (s, delta') to it, in
    hmodule.ascent_sources order: v = (T_s + 1) L_delta'.  beta(T_s m) =
    bar(T_s) beta(m) on every m makes beta(v) = q^-(dim delta' + 1) v.  When
    v is m_delta plus lower terms, the m_delta coefficients of the two sides
    force dim delta = dim delta' + 1, so no separate twist test is needed,
    and v is self-dual with the twist of delta.  The residue
    v - L_delta is a self-dual combination of the lower L_gamma, so each
    coefficient c_gamma is symmetric, c_j = c_(gap - j) for gap =
    dim delta - dim gamma, while P[gamma, delta] lives in degrees up to
    (gap - 1)//2: the entries above that degree determine c_gamma, and
    c_gamma . L_gamma is subtracted, gamma from the top down.

    The recursion needs that compatibility law, which validate_datum leaves
    untested, so it runs only when hmodule.compatibility_problems finds
    none.  Columns without a seed, every column of a datum that fails the
    law, and a seed whose top entry is not 1 . m_delta take _beta_column.
    """
    dm.ensure_valid(d)
    compatible = not any(hm.compatibility_problems(d).values())
    sources = hm.ascent_sources(d) if compatible else {}
    action = hm.build_action_table(d)
    columns: dict[str, hm.ModuleVector] = {}
    for delta in d.basis:
        col = None
        if delta.id in sources:
            # validation puts every ascent source at a lower dimension
            s, src, _ = sources[delta.id][0]
            seed = columns[src]
            col = _selfdual_column(d, columns, delta, action.apply(s, seed) + seed)
        columns[delta.id] = col if col is not None else _beta_column(d, columns, delta)
    return KLVTable(d, columns)


def _selfdual_column(d: dm.OrbitDatum, columns, delta, v: hm.ModuleVector):
    """L_delta from a vector v that beta fixes up to q^-dim(delta), by the
    symmetric top-down sweep over the lower columns; None unless v is
    m_delta plus terms below delta."""
    acc = {pid: dict(c._c) for pid, c in v.coords.items()}
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


def _beta_column(d: dm.OrbitDatum, columns, delta) -> hm.ModuleVector:
    """L_delta by dense correction: subtract lower columns until beta fixes
    m_delta + lower up to the twist, in at most ITERATION_FACTOR * n^2 steps."""
    bound = ITERATION_FACTOR * len(d.params) ** 2
    index = d.basis_index
    twist = LaurentPoly.monomial(1, delta.dim)
    vec = hm.basis_vector(d, delta.id)
    for _ in range(bound):
        diff = hm.beta(vec, d).scale(twist) - vec
        if diff.is_zero():
            return vec
        gamma = max(diff.coords, key=index.__getitem__)
        if index[gamma] >= index[delta.id]:
            raise NonGeometricDatum(
                f"correction support at or above {delta.id} (datum {d.name})"
            )
        coeff = diff.coords[gamma]
        gap = delta.dim - d.param_by_id[gamma].dim
        fix = (-coeff).truncate((gap - 1) // 2)
        if fix.is_zero():
            raise NonGeometricDatum(
                f"no degree-bounded correction at ({gamma}, {delta.id}) "
                f"(datum {d.name})"
            )
        vec = vec - columns[gamma].scale(fix)
    raise NonGeometricDatum(
        f"self-dual correction did not converge at {delta.id} (datum {d.name})"
    )


def verify_klv_table(table: KLVTable, d: dm.OrbitDatum) -> list[str]:
    """Independent re-check of the defining contract; empty list means pass.

    When hmodule.compatibility_problems is clean, a column reached by a U- or
    T-ascent from a column already certified is certified by
    _ascent_certifies, which needs no beta; every other column, and one
    that check does not certify, is checked with the dense beta.  A
    certified column that is 1 at delta and lower elsewhere may serve the
    columns above it.
    """
    compatible = not any(hm.compatibility_problems(d).values())
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

    Generators and the identity are expanded densely; every longer w
    follows from them by the W-graph recursion of _expand.  _expand is
    coxeter.memoized, so each (w, tau) is expanded once per datum; callers
    get a copy, so mutating the result cannot corrupt the memo.
    """
    table = klv_table(d)
    w = _as_element(d, w)
    if tau not in d.param_by_id:
        raise DatumError(f"unknown parameter {tau!r}")
    return dict(_expand(d, table, w, tau))


@memoized
def _expand(d: dm.OrbitDatum, table: KLVTable, w: CoxElt, tau: str):
    """C_w . L_tau in the self-dual basis.

    For l(w) <= 1, C_w acts through its dense column matrix in the standard
    basis and the product is solved back through the unitriangular table,
    highest position first; no division occurs.  The generators are where
    the recursion starts, since only the datum's descriptors say how C_s
    acts, and their matrices are single T_s columns plus the identity, so
    the dense path stays for these (rank + 1) * |params| expansions only.

    For longer w, take the first left descent s of w and w' = s w.  The
    Kazhdan-Lusztig multiplication rule, an identity in the Hecke algebra
    and so in every datum's module, gives

        C_w = C_s C_w' - sum_{z < w', sz < z} mu(z, w') q^{(l(w)-l(z))/2} C_z,

    so E[w][tau] = sum_gamma E[w'][tau]_gamma E[s][gamma] minus the mu
    terms E[z][tau], every shorter expansion memoized.
    """
    if w.length <= 1:
        return _dense_expand(d, table, w, tau)
    s, prev, edges = _wgraph_step(d, w)
    gen = d.coxeter.generator(s)
    acc: dict[str, dict] = {}
    for gamma, c in _expand(d, table, prev, tau).items():
        vaccum(acc, c._c, _expand(d, table, gen, gamma).items())
    for z, mu, shift in edges:
        vaccum(acc, {shift: -mu}, _expand(d, table, z, tau).items())
    index = d.basis_index
    return {
        row: LaurentPoly._raw(acc[row])
        for row in sorted(acc, key=index.__getitem__, reverse=True)
    }


@memoized
def _wgraph_step(d: dm.OrbitDatum, w: CoxElt):
    """(s, s w, [(z, mu(z, s w), (l(w) - l(z))/2)] over the z with sz < z),
    for the first left descent s of w."""
    sys = d.coxeter
    s = next(t for t in range(sys.rank) if w.has_left_descent(t))
    prev = sys.generator(s) * w
    els = sys.elements()
    edges = []
    for z, mu in kl_basis(sys).mus[sys.index(prev)]:
        if els[z].has_left_descent(s):
            edges.append((els[z], mu, (w.length - els[z].length) // 2))
    return s, prev, edges


def _dense_expand(d: dm.OrbitDatum, table: KLVTable, w: CoxElt, tau: str):
    residual = hm.matrix_apply(hm.c_matrix_columns(d, w), table.column(tau))
    # matrix_apply hands back freshly built coefficient dicts, so the
    # residual is reduced in place through them
    acc = {pid: c._c for pid, c in residual.terms.items()}
    return hm.unitriangular_coords(d, acc, lambda pid: table.columns[pid].terms)


def is_clean(table: KLVTable, tau: str) -> bool:
    """True iff the simple class equals the standard class."""
    col = table.columns[tau]
    return set(col.coords) == {tau}


def is_cuspidal(d: dm.OrbitDatum, tau: str) -> bool:
    """True iff no ascent from another orbit produces tau in its C_s expansion."""
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
            if tau in c_expansion(d, gen, p.id):
                return False
    return True


def parity_check(d: dm.OrbitDatum, window: int = 10) -> dm.ValidationReport:
    """Integer-power and single-parity checks over every series of the datum."""
    from . import extseries

    table = klv_table(d)
    checks = []

    problems = []
    count = 0
    for gamma_id, delta_id, poly in table.rows():
        count += 1
        if any(not isinstance(e, int) for e in poly._c):
            problems.append(f"P[{gamma_id},{delta_id}] has non-integer powers")
    for w in d.coxeter.elements():
        for p in d.params:
            for gamma_id, poly in c_expansion(d, w, p.id).items():
                count += 1
                if any(not isinstance(e, int) for e in poly._c):
                    problems.append(
                        f"c[{d.coxeter.element_token(w)},{p.id},{gamma_id}] "
                        "has non-integer powers"
                    )
    checks.append(dm.CheckResult.of("integer-powers", problems, f"{count} polynomials"))

    problems = []
    count = 0
    for tau in d.basis:
        for es in extseries.ext_row(d, tau.id):
            count += 1
            if not extseries.single_parity(es, window):
                problems.append(f"Ext({tau.id},{es.gamma}) mixes parities")
        ic = extseries.ic_cohomology(d, tau.id)
        count += 1
        if not extseries.single_parity(ic, window):
            problems.append(f"IC({tau.id}) mixes parities")
    checks.append(
        dm.CheckResult.of("series-parity", problems, f"{count} series, window q^0..q^{window}")
    )
    return dm.ValidationReport(checks)

