"""The Iwahori-Hecke algebra of a finite Weyl group, over Z[q, q^-1].

Elements are finite sums sum_w c_w(q) T_w in the standard basis, with
T_x T_s = T_{xs} when the length goes up and T_x T_s = q T_{xs} + (q-1) T_x
when it goes down.  The module also provides the bar involution
(q -> q^-1, T_w -> T_{w^-1}^-1) and the Kazhdan-Lusztig basis C_w,
normalized so that C_w = sum_x P_{x,w}(q) T_x with P in Z[q],
bar(C_w) = q^{-len(w)} C_w and P_{w,w} = 1.

kl_basis computes the P_{x,w} by the standard recursion of Kazhdan and
Lusztig (Invent. Math. 53 (1979)) over a right descent s of w, on the
integer element indices and generator tables of the CoxeterSystem;
verify_kl_basis re-checks the defining properties with bar(), independently
of how a table was made, which also pins the table by uniqueness.
"""

from __future__ import annotations

from .coxeter import CoxElt, CoxeterSystem, memoized
from .errors import DomainError
from .laurent import ONE, Q, Combination, LaurentPoly, paccum_scaled, pbar, render_poly, vaccum

_QM1 = Q - ONE  # q - 1


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
        """Ring involution: q -> q^-1 on coefficients, T_w -> (T_{w^-1})^-1."""
        sys = self.system
        table = _bar_table(sys)
        acc: dict[CoxElt, dict] = {}
        for w, c in self.terms.items():
            vaccum(acc, pbar(c._c), table[w].terms.items())
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
def _bar_table(sys: CoxeterSystem) -> dict[CoxElt, HeckeElt]:
    """bar(T_w) for every w, built along the length recursion."""
    # bar(T_s) = T_s^-1 = q^-1 T_s + (q^-1 - 1) T_e, from the quadratic relation
    qinv = LaurentPoly.monomial(1, -1)
    table: dict[CoxElt, HeckeElt] = {sys.identity: unit(sys)}
    gen_bar = {
        s: HeckeElt(
            sys,
            {sys.generator(s): qinv, sys.identity: qinv - ONE},
        )
        for s in range(sys.rank)
    }
    for w in sys.elements():
        if w.length == 0:
            continue
        word = sys.reduced_word(w)
        prev = table[sys.from_word(word[:-1])]
        table[w] = prev * gen_bar[word[-1]]
    return table


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
    as KLBasis.mus, where klv.c_expansion reads its W-graph edges.
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


def verify_kl_basis(basis: KLBasis) -> list[str]:
    """Re-check the defining properties; returns a list of failure messages.

    An empty list certifies the table: self-duality, unitriangularity with
    Bruhat support, the degree bound, and coefficient non-negativity, which
    together determine the basis uniquely.
    """
    sys = basis.system
    problems = []
    for w, c in basis.table.items():
        twisted = c.bar().scale(LaurentPoly.monomial(1, w.length))
        if twisted != c:
            problems.append(f"{render_token(sys, w, 'C')}: not bar self-dual")
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
