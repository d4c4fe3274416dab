"""The Iwahori-Hecke algebra of a finite Weyl group, over Z[q, q^-1].

Elements are finite sums sum_w c_w(q) T_w in the standard basis, with
T_x T_s = T_{xs} when the length goes up and T_x T_s = q T_{xs} + (q-1) T_x
when it goes down.  The module also provides the bar involution
(q -> q^-1, T_w -> T_{w^-1}^-1) and the Kazhdan-Lusztig basis C_w,
normalized so that C_w = sum_x P_{x,w}(q) T_x with P in Z[q],
bar(C_w) = q^{-len(w)} C_w and P_{w,w} = 1.

kl_basis computes the P_{x,w} by the standard recursion of Kazhdan and
Lusztig (Invent. Math. 53 (1979)) over a right descent s of w, on the
integer element indices and generator tables of the CoxeterSystem.
verify_kl_basis re-checks the defining properties independently of how a
table was made, which also pins the table by uniqueness.  It certifies
self-duality by induction on length, from the left multiplication rule
C_s C_w' = C_w + sum mu(z, w') q^{(l(w)-l(z))/2} C_z checked on the
table's own entries; bar() is applied only where that rule fails.  bar()
reads the R-polynomial table _bar_table, which is also the costandard
table of the hecke-regular datums.
"""

from __future__ import annotations

from .coxeter import CoxElt, CoxeterSystem, memoized
from .errors import DomainError
from .laurent import (
    ONE,
    Q,
    Combination,
    LaurentPoly,
    paccum,
    paccum_scaled,
    pbar,
    pmonmul,
    render_poly,
    vaccum,
)

_QM1 = Q - ONE  # q - 1
_ONE_MINUS_Q = {0: 1, 1: -1}


class HeckeElt(Combination):
    """Finite Z[q,q^-1]-combination of standard basis elements T_w."""

    __slots__ = ()
    _mismatch = "Hecke elements over different Coxeter systems"

    @property
    def system(self) -> CoxeterSystem:
        return self.owner

    def mul_gen(self, s: int) -> "HeckeElt":
        """Right multiplication by T_s."""
        acc: dict[CoxElt, dict] = {}
        for x, c in self.terms.items():
            xs = x.mul_gen(s)
            column = ((xs, ONE),) if xs.length > x.length else ((xs, Q), (x, _QM1))
            vaccum(acc, c._c, column)
        return HeckeElt._raw(self.system, acc)

    def __mul__(self, other: "HeckeElt") -> "HeckeElt":
        self._check(other)
        sys = self.system
        out = HeckeElt(sys)
        for w, c in sorted(other.terms.items(), key=lambda t: _order_key(sys, t[0])):
            cur = self.scale(c)
            for s in sys.reduced_word(w):
                cur = cur.mul_gen(s)
            out = out + cur
        return out

    def bar(self) -> "HeckeElt":
        """Ring involution: q -> q^-1 on coefficients, T_w -> (T_{w^-1})^-1.

        Reads bar(T_w) = q^-l(w) sum_x S_{x,w} T_x off _bar_table."""
        sys = self.system
        table, els = _bar_table(sys), sys.elements()
        acc: dict[CoxElt, dict] = {}
        for w, c in self.terms.items():
            column = table[sys.index(w)]
            coeff = pmonmul(pbar(c._c), 1, -w.length)
            vaccum(acc, coeff, ((els[x], LaurentPoly._raw(p)) for x, p in column.items()))
        return HeckeElt._raw(sys, acc)

    def __str__(self) -> str:
        sys = self.system
        if not self.terms:
            return "0"
        bits = []
        for w in sorted(self.terms, key=lambda x: _order_key(sys, x)):
            c = self.terms[w]
            cs = render_poly(c)
            if len(c._c) > 1 or cs.startswith("-"):
                cs = f"({cs})"
            bits.append(f"{cs}*{render_token(sys, w)}")
        return " + ".join(bits)

    __repr__ = __str__


def _order_key(sys: CoxeterSystem, w: CoxElt):
    return (w.length, sys.reduced_word(w))


def render_token(sys: CoxeterSystem, w: CoxElt, basis: str = "T") -> str:
    """T_{s1 s2 s1} prints as 'T[1,2,1]'; the identity as 'T[]'."""
    word = sys.reduced_word(w)
    return f"{basis}[{','.join(str(s + 1) for s in word)}]"


def parse_token(sys: CoxeterSystem, token: str) -> tuple[str, CoxElt]:
    """Inverse of render_token: 'C[1,2]' -> ('C', s1 s2)."""
    token = token.strip()
    if len(token) < 3 or token[0] not in "TC" or token[1] != "[" or token[-1] != "]":
        raise DomainError(f"bad Hecke token {token!r}")
    inner = token[2:-1].strip()
    word = [] if not inner else [int(p) - 1 for p in inner.split(",")]
    for s in word:
        if not 0 <= s < sys.rank:
            raise DomainError(f"generator index out of range in {token!r}")
    return token[0], sys.from_word(word)


def unit(sys: CoxeterSystem) -> HeckeElt:
    return HeckeElt(sys, {sys.identity: ONE})


def T(sys: CoxeterSystem, w) -> HeckeElt:
    """Standard basis element; w is a CoxElt or a word of 0-based indices."""
    if not isinstance(w, CoxElt):
        w = sys.from_word(w)
    return HeckeElt(sys, {w: ONE})


def mul_T(a: HeckeElt, b: HeckeElt) -> HeckeElt:
    return a * b


@memoized
def _bar_table(sys: CoxeterSystem) -> list[dict[int, dict]]:
    """Column w holds q^l(w) bar(T_w) = sum_x S_{x,w} T_x on element indices,
    with S_{x,w} = (-1)^{l(w)-l(x)} R_{x,w} as a kernel dict.

    The R-polynomials follow the recursion of Kazhdan and Lusztig (Invent.
    Math. 53 (1979), section 2) over a right descent s of w, v = ws:
    R_{x,w} = R_{xs,v} if xs < x, else (q-1) R_{x,v} + q R_{xs,v}.  Read
    from the side of v's column, each S_{y,v} goes to ys when ys > y, plus
    (1-q) S_{y,v} to y; to ys times q when ys < y.  These columns are also
    the costandard table of the hecke-regular datums.
    """
    right, lengths = sys.right_mul, sys.lengths
    cols: list[dict[int, dict]] = [{0: {0: 1}}]
    for w in range(1, len(lengths)):
        rs = next(r for r in right if lengths[r[w]] < lengths[w])
        acc: dict[int, dict] = {}
        for y, p in cols[rs[w]].items():
            ys = rs[y]
            if lengths[ys] > lengths[y]:
                paccum_scaled(acc.setdefault(ys, {}), p, 1, 0)
                paccum(acc.setdefault(y, {}), _ONE_MINUS_Q, p)
            else:
                paccum_scaled(acc.setdefault(ys, {}), p, 1, 1)
        cols.append({x: p for x, p in sorted(acc.items()) if p})
    return cols


class KLBasis:
    """The family C_w with its polynomials P_{x,w}.

    mus[w] lists (z, mu(z, w)) for every z < w with nonzero mu, on element
    indices of the system, in increasing z; mu(z, w) is the coefficient of
    q^{(l(w)-l(z)-1)/2} in P_{z,w}, zero unless l(w) - l(z) is odd.
    """

    def __init__(self, sys: CoxeterSystem, table: dict[CoxElt, HeckeElt], mus):
        self.system = sys
        self.table = table
        self.mus = mus

    def c(self, w: CoxElt) -> HeckeElt:
        return self.table[w]

    def p(self, x: CoxElt, w: CoxElt) -> LaurentPoly:
        return self.table[w].coefficient(x)


@memoized
def kl_basis(sys: CoxeterSystem) -> KLBasis:
    """Compute every C_w by the Kazhdan-Lusztig recursion on element indices.

    Elements are their breadth-first indices in sys, so v = ws comes before
    w when s is a right descent of w.  With c = 1 if xs < x and c = 0
    otherwise,

        P_{x,w} = q^{1-c} P_{xs,v} + q^c P_{x,v}
                  - sum_{z: zs < z} mu(z,v) q^{(l(w)-l(z))/2} P_{x,z},

    where mu(z,v) is the coefficient of q^{(l(v)-l(z)-1)/2} in P_{z,v}
    and z runs over z < v (Kazhdan-Lusztig, Invent. Math. 53 (1979)).  Read
    from the side of v's column, the first two terms add each P_{x,v} to
    both x and xs, times q if xs < x.  Each finished column keeps its
    nonzero mu list for the columns above it; the lists stay on the result
    as KLBasis.mus, where klv.expansion_row reads its W-graph edges.
    """
    els = sys.elements()
    right, lengths = sys.right_mul, sys.lengths
    cols: list[dict[int, dict]] = [{0: {0: 1}}]
    mus: list[list[tuple[int, int]]] = [[]]
    for w in range(1, len(els)):
        lw = lengths[w]
        rs = next(r for r in right if lengths[r[w]] < lw)
        v = rs[w]
        acc: dict[int, dict] = {}
        for x, p in cols[v].items():
            xs = rs[x]
            shift = 1 if lengths[xs] < lengths[x] else 0
            paccum_scaled(acc.setdefault(x, {}), p, 1, shift)
            paccum_scaled(acc.setdefault(xs, {}), p, 1, shift)
        for z, mu in mus[v]:
            if lengths[rs[z]] < lengths[z]:
                shift = (lw - lengths[z]) // 2
                for x, p in cols[z].items():
                    paccum_scaled(acc.setdefault(x, {}), p, -mu, shift)
        col = dict(sorted(acc.items()))
        cols.append(col)
        mu_list = []
        for z, p in col.items():
            gap = lw - lengths[z]
            if gap % 2 and p.get(gap // 2):
                mu_list.append((z, p[gap // 2]))
        mus.append(mu_list)
    table = {
        w: HeckeElt(sys, {els[x]: LaurentPoly._raw(p) for x, p in col.items()})
        for w, col in zip(els, cols)
    }
    return KLBasis(sys, table, mus)


def _left_rule_holds(basis: KLBasis, cols, w: int, col) -> bool:
    """Whether C_w = (T_s + 1) C_w' - sum_{z < w', sz < z} mu(z, w')
    q^{(l(w)-l(z))/2} C_z in the T-basis, for the first left descent s of w
    and w' = s w, with mu read from basis.mus.  False as well when w' or a
    C_z is not in cols, the columns already certified self-dual.  For the
    identity the rule is C_e = T_e."""
    if w == 0:
        return col == {0: {0: 1}}
    sys = basis.system
    left, lengths = sys.left_mul, sys.lengths
    lw = lengths[w]
    s = next(t for t in range(sys.rank) if lengths[left[t][w]] < lw)
    ls = left[s]
    edges = []
    for z, mu in basis.mus[ls[w]]:
        if lengths[ls[z]] < lengths[z]:
            gap = lw - lengths[z]
            if gap % 2 or z not in cols:
                return False
            edges.append((cols[z], -mu, gap // 2))
    prev = cols.get(ls[w])
    if prev is None:
        return False
    acc: dict[int, dict] = {}
    for x, p in prev.items():
        # T_s T_x = T_sx if sx > x, else q T_sx + (q - 1) T_x
        shift = 1 if lengths[ls[x]] < lengths[x] else 0
        paccum_scaled(acc.setdefault(ls[x], {}), p, 1, shift)
        paccum_scaled(acc.setdefault(x, {}), p, 1, shift)
    for c, coeff, shift in edges:
        for x, p in c.items():
            paccum_scaled(acc.setdefault(x, {}), p, coeff, shift)
    for x, p in col.items():
        paccum_scaled(acc.setdefault(x, {}), p, -1, 0)
    return not any(acc.values())


def verify_kl_basis(basis: KLBasis) -> list[str]:
    """Re-check the defining properties; returns a list of failure messages.

    An empty list certifies the table: self-duality, unitriangularity with
    Bruhat support, the degree bound, and coefficient non-negativity, which
    together determine the basis uniquely.

    Self-duality is certified by induction on length.  C_s = T_s + 1 and
    every q^{(l(w)-l(z))/2} C_z with l(w) - l(z) even are self-dual up to
    q^l(w) once C_w' and C_z are, so the left multiplication rule of
    _left_rule_holds, checked with the table's own columns and any integers
    mu, makes C_w self-dual too.  A C_w whose rule fails, and every C_w
    after a dense failure, is checked with bar() itself, so the reported
    lines are the ones the dense check gives.
    """
    sys = basis.system
    index = sys.index
    cols: dict[int, dict] = {}
    dense = False
    problems = []
    for w, c in basis.table.items():
        i = index(w)
        col = {index(x): p._c for x, p in c.terms.items()}
        if dense or not _left_rule_holds(basis, cols, i, col):
            twisted = c.bar().scale(LaurentPoly.monomial(1, w.length))
            if twisted != c:
                problems.append(f"{render_token(sys, w, 'C')}: not bar self-dual")
                dense = True
        if not dense:
            cols[i] = col
        if c.coefficient(w) != ONE:
            problems.append(f"{render_token(sys, w, 'C')}: diagonal is not 1")
        for x, p in c.terms.items():
            if x != w and not sys.leq_bruhat(x, w):
                problems.append(
                    f"P[{render_token(sys, x)},{render_token(sys, w)}]: "
                    "support outside the Bruhat interval"
                )
            if not p.is_nonnegative():
                problems.append(
                    f"P[{render_token(sys, x)},{render_token(sys, w)}]: "
                    f"negative coefficient in {render_poly(p)}"
                )
            lo, hi = p.degree_window()
            if lo < 0:
                problems.append(
                    f"P[{render_token(sys, x)},{render_token(sys, w)}]: "
                    "negative exponent"
                )
            if x != w and hi > (w.length - x.length - 1) // 2:
                problems.append(
                    f"P[{render_token(sys, x)},{render_token(sys, w)}]: "
                    "degree bound exceeded"
                )
    return problems
