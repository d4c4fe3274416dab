"""Exact arithmetic in Z[q, q^-1] plus rational series over (1-q^a) factors.

LaurentPoly is an immutable sparse polynomial with arbitrary-precision
integer coefficients; the variable q tracks the grading twist throughout the
package.  PoincareSeries represents num / prod_i (1 - q^{a_i}) exactly, the
shape taken by equivariant cohomology rings of stabilizers.

The arithmetic itself is the pure-Python kernel below: functions on plain
dicts mapping integer exponents to nonzero integer coefficients.  Each one
either returns a fresh normalized dict (no zero values) or, for paccum and
paccum_scaled, accumulates into its first argument in place.  vaccum lifts
paccum to combinations: acc += c * column over {key: kernel dict} maps, the
one accumulate loop of the hecke, hmodule and klv inner loops.

ppack and punpack are the Kronecker substitution (Harvey, "Faster
polynomial multiplication via multipoint Kronecker substitution", J.
Symbolic Comput. 44 (2009)): a kernel dict at q = 2^B is one integer, so a
product of polynomials is one big-integer multiply.  While every
coefficient c of a result has |c| < 2^(B-1), its signed base-2^B digits are
its coefficients.  The Ext pairing and the C_w . L_tau pass of klv both run
on them, under the common width cap MAX_PACKED_BITS.

Combination is a finite Z[q, q^-1]-combination of keys over one owner,
with its arithmetic on the kernel dicts; hecke.HeckeElt (the Hecke algebra
on its T_w basis) and hmodule.ModuleVector (a datum's module on its m_gamma
basis) are its two kinds.
"""

from __future__ import annotations

import re

from .errors import DomainError, SystemMismatch


def padd(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def psub(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) - c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def pneg(a):
    return {e: -c for e, c in a.items()}


def pmul(a, b):
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            s = out.get(e, 0) + ca * cb
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def pbar(a):
    return {-e: c for e, c in a.items()}


def pnorm(a):
    """The sum of the absolute coefficients of a."""
    return sum(map(abs, a.values()))


def pmonmul(a, coeff, shift):
    """coeff * q**shift * a, for an integer scalar coeff."""
    if not coeff:
        return {}
    return {e + shift: c * coeff for e, c in a.items()}


def paccum(acc, a, b):
    """acc += a*b, in place."""
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            s = acc.get(e, 0) + ca * cb
            if s:
                acc[e] = s
            else:
                del acc[e]


def paccum_scaled(acc, a, coeff, shift):
    """acc += coeff * q**shift * a, in place, for an integer scalar coeff."""
    if not coeff:
        return
    for e, c in a.items():
        e2 = e + shift
        s = acc.get(e2, 0) + c * coeff
        if s:
            acc[e2] = s
        else:
            del acc[e2]


def vaccum(acc, c, column):
    """acc += c * column, in place, for a kernel dict c: acc maps keys to
    kernel dicts, column is (key, LaurentPoly) pairs, and an entry of acc
    that cancels to zero is dropped."""
    for key, e in column:
        a = acc.get(key)
        if a is None:
            a = acc[key] = {}
        paccum(a, c, e._c)
        if not a:
            del acc[key]


# The widest packed int that ppack callers accept, in bits.  A packed int is
# dense over its exponent span, where a kernel dict holds only its terms: one
# entry q^1000000 would make every packed entry a megabit.  The Ext pairing
# of the builtins and of hecke-regular G2, C3, D4 and B4 needs at most 294
# bits (B4: B = 14 over 21 exponents), the C_w . L_tau pass of klv 1,716 at
# B4 (B = 52 over 33 exponents) and 5,194 at F4 (B = 106 over 49).
MAX_PACKED_BITS = 8192


def ppack(c, bits, lo):
    """The kernel dict c at q = 2^bits, its exponents shifted by -lo."""
    return sum(v << bits * (e - lo) for e, v in c.items())


def punpack(n, bits, lo):
    """The kernel dict whose packing at (bits, lo) is n: the signed
    base-2^bits digits of n, each in [-2^(bits-1), 2^(bits-1))."""
    out = {}
    full = 1 << bits
    half = full >> 1
    e = lo
    while n:
        c = n & (full - 1)
        if c >= half:
            c -= full
        if c:
            out[e] = c
        n = (n - c) >> bits
        e += 1
    return out


class LaurentPoly:
    """Element of Z[q, q^-1], stored as {exponent: nonzero coefficient}."""

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        if coeffs is None:
            self._c = {}
        else:
            self._c = {int(e): int(c) for e, c in coeffs.items() if c}

    @classmethod
    def _raw(cls, d: dict) -> "LaurentPoly":
        """Wrap a kernel-produced dict without copying; d must be normalized."""
        p = cls.__new__(cls)
        p._c = d
        return p

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls._raw({})

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls._raw({0: 1})

    @classmethod
    def q(cls) -> "LaurentPoly":
        return cls._raw({1: 1})

    @classmethod
    def monomial(cls, coeff: int, exp: int) -> "LaurentPoly":
        return cls._raw({exp: coeff} if coeff else {})

    def _coerce(self, other):
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, int):
            return LaurentPoly.monomial(other, 0)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return LaurentPoly._raw(padd(self._c, other._c))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return LaurentPoly._raw(psub(self._c, other._c))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return LaurentPoly._raw(psub(other._c, self._c))

    def __neg__(self):
        return LaurentPoly._raw(pneg(self._c))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return LaurentPoly._raw(pmul(self._c, other._c))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise DomainError("negative powers of a polynomial are not defined")
        out = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    def __bool__(self):
        return bool(self._c)

    def is_zero(self) -> bool:
        return not self._c

    def bar(self) -> "LaurentPoly":
        """Substitute q -> q^-1."""
        return LaurentPoly._raw(pbar(self._c))

    def shift(self, n: int) -> "LaurentPoly":
        """Multiply by q^n."""
        return LaurentPoly._raw(pmonmul(self._c, 1, n))

    def coefficient(self, exp: int) -> int:
        return self._c.get(exp, 0)

    def degree_window(self) -> tuple[int, int]:
        """(min exponent, max exponent); undefined for the zero polynomial."""
        if not self._c:
            raise DomainError("degree window of the zero polynomial")
        exps = self._c.keys()
        return (min(exps), max(exps))

    def truncate(self, max_deg: int) -> "LaurentPoly":
        """Keep exactly the terms of exponent <= max_deg."""
        return LaurentPoly._raw({e: c for e, c in self._c.items() if e <= max_deg})

    def is_nonnegative(self) -> bool:
        """True iff every stored coefficient is >= 0."""
        return all(c >= 0 for c in self._c.values())

    def items(self):
        """Terms as (exponent, coefficient) pairs in increasing exponent order."""
        return sorted(self._c.items())

    def __str__(self) -> str:
        return render_poly(self)

    def __repr__(self) -> str:
        return f"LaurentPoly({render_poly(self)!r})"


def render_poly(p: LaurentPoly) -> str:
    """Canonical text form: increasing exponents, e.g. '1-q', 'q^-1+2q+q^2'."""
    if p.is_zero():
        return "0"
    parts = []
    for e, c in p.items():
        if e == 0:
            body = str(abs(c))
        else:
            var = "q" if e == 1 else f"q^{e}"
            body = var if abs(c) == 1 else f"{abs(c)}{var}"
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("-" if c < 0 else "+") + body)
    return "".join(parts)


_TERM_RE = re.compile(
    r"([+-]?)\s*(?:(\d+)\s*\*?\s*)?(q(?:\^(-?\d+))?)?\s*", re.ASCII
)


def parse_poly(text: str) -> LaurentPoly:
    """Parse the canonical rendering (also accepts '*' and whitespace)."""
    if not isinstance(text, str):
        raise DomainError(f"polynomial must be a string, got {text!r}")
    s = text.strip()
    if not s:
        raise DomainError("empty polynomial string")
    pos = 0
    coeffs: dict[int, int] = {}
    first = True
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if not m or m.end() == pos:
            raise DomainError(f"cannot parse polynomial {text!r} at offset {pos}")
        sign, num, qpart, qexp = m.groups()
        if num is None and qpart is None:
            raise DomainError(f"cannot parse polynomial {text!r} at offset {pos}")
        if not first and not sign:
            raise DomainError(f"missing sign in polynomial {text!r} at offset {pos}")
        exp = 0
        try:
            coeff = int(num) if num is not None else 1
            if qpart is not None:
                exp = int(qexp) if qexp is not None else 1
        except ValueError:  # past Python's limit on the digits of int(str)
            raise DomainError(f"integer too long in polynomial at offset {pos}") from None
        if sign == "-":
            coeff = -coeff
        val = coeffs.get(exp, 0) + coeff
        if val:
            coeffs[exp] = val
        else:
            coeffs.pop(exp, None)
        pos = m.end()
        first = False
    return LaurentPoly(coeffs)


ZERO = LaurentPoly.zero()
ONE = LaurentPoly.one()
Q = LaurentPoly.q()


class Combination:
    """Finite Z[q, q^-1]-combination of keys over one owner.

    terms maps each key to its nonzero LaurentPoly coefficient.  Owners are
    compared by identity, and combinations over different owners do not
    mix: a subclass names the mismatch in _mismatch.
    """

    __slots__ = ("owner", "terms")
    _mismatch = "combinations over different owners"

    def __init__(self, owner, terms=None):
        self.owner = owner
        self.terms = {k: c for k, c in terms.items() if c._c} if terms else {}

    @classmethod
    def _raw(cls, owner, raw: dict):
        """Wrap {key: kernel dict} without copying the dicts; empty ones are
        dropped."""
        v = cls.__new__(cls)
        v.owner = owner
        v.terms = {k: LaurentPoly._raw(c) for k, c in raw.items() if c}
        return v

    def _check(self, other: "Combination"):
        if self.owner is not other.owner:
            raise SystemMismatch(self._mismatch)

    def _merge(self, other, op):
        self._check(other)
        raw = {k: c._c for k, c in self.terms.items()}
        for k, c in other.terms.items():
            raw[k] = op(raw.get(k, {}), c._c)
        return self._raw(self.owner, raw)

    def __add__(self, other):
        return self._merge(other, padd)

    def __sub__(self, other):
        return self._merge(other, psub)

    def scale(self, c: LaurentPoly):
        return self._raw(self.owner, {k: pmul(v._c, c._c) for k, v in self.terms.items()})

    def coefficient(self, key) -> LaurentPoly:
        return self.terms.get(key, ZERO)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, Combination)
            and self.owner is other.owner
            and self.terms == other.terms
        )

    def __hash__(self):
        raise TypeError(f"{type(self).__name__} is not hashable")


def _den_poly(factors) -> LaurentPoly:
    out = ONE
    for a in factors:
        out = out * (ONE - LaurentPoly.monomial(1, a))
    return out


# The widest span PoincareSeries.expand walks, from the lower end of its
# window or of its numerator up to hi.  The CLI caps --window at 10,000, and
# the Ext and IC numerators of the builtins and of hecke-regular G2 and C3
# start at q^-2 or above, so this leaves room for numerators down to about
# q^-90000.  A numerator such as q^-1000000000 (a few bytes of JSON) would
# otherwise take a list of 10^9 coefficients.
MAX_EXPANSION_SPAN = 100_000


class PoincareSeries:
    """num / prod_i (1 - q^{a_i}) with exact arithmetic.

    Construction tries each denominator factor once, in increasing order,
    and cancels it if it divides the numerator exactly.  Equal series can
    therefore render differently: (1+q)/(1-q^2) keeps its factor although
    it equals 1/(1-q).  Equality is decided by cross-multiplication, never
    by truncation or by the rendered form.

    Reduction is idempotent: a factor that does not divide a numerator
    divides none of its quotients, so rebuilding a series from its num and
    den changes nothing, and adding zero may return the other operand.
    When every factor has one exponent a, the form is canonical: (1 - q^a)
    is cancelled as often as it divides, leaving the lowest terms.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den=()):
        den = sorted(int(a) for a in den)
        if any(a < 1 for a in den):
            raise DomainError("denominator exponents must be positive")
        num, den = _reduce(num, den)
        self.num = num
        self.den = tuple(den)

    @classmethod
    def of_poly(cls, p: LaurentPoly) -> "PoincareSeries":
        return cls(p, ())

    @classmethod
    def one(cls) -> "PoincareSeries":
        return cls(ONE, ())

    @classmethod
    def zero(cls) -> "PoincareSeries":
        return cls(ZERO, ())

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other: "PoincareSeries") -> "PoincareSeries":
        if not isinstance(other, PoincareSeries):
            return NotImplemented
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        if self.den == other.den:
            return PoincareSeries(self.num + other.num, self.den)
        den = _multiset_max(self.den, other.den)
        a = self.num * _den_poly(_multiset_diff(den, self.den))
        b = other.num * _den_poly(_multiset_diff(den, other.den))
        return PoincareSeries(a + b, den)

    def __mul__(self, other) -> "PoincareSeries":
        if isinstance(other, (LaurentPoly, int)):
            return PoincareSeries(self.num * other, self.den)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (LaurentPoly, int)):
            other = PoincareSeries.of_poly(
                other if isinstance(other, LaurentPoly) else LaurentPoly.monomial(other, 0)
            )
        if not isinstance(other, PoincareSeries):
            return NotImplemented
        return self.num * _den_poly(other.den) == other.num * _den_poly(self.den)

    def __hash__(self):
        raise TypeError("PoincareSeries is not hashable")

    def expand(self, lo: int, hi: int) -> dict[int, int]:
        """Coefficients of the power-series expansion for exponents in [lo, hi].

        Multiplying by 1/(1-q^a) = sum_j q^{aj} is a running sum along each
        residue chain mod a: out[x] = cur[x] + out[x-a], done in place from
        the lowest numerator exponent m up to hi.  The cost is
        O(#den * (hi - m)), linear in the window for any number of factors,
        and a window reaching more than MAX_EXPANSION_SPAN exponents below
        hi, from lo or from m, raises DomainError.
        """
        if hi < lo:
            raise DomainError("empty expansion window")
        span = hi - min(lo, min(self.num._c, default=lo))
        if span > MAX_EXPANSION_SPAN:
            raise DomainError(
                f"expanding up to q^{hi} would span {span} exponents, "
                f"more than {MAX_EXPANSION_SPAN}"
            )
        terms = {e: c for e, c in self.num._c.items() if e <= hi}
        if not self.den or not terms:
            return {e: c for e, c in terms.items() if lo <= e}
        base = min(terms)
        cur = [0] * (hi - base + 1)
        for e, c in terms.items():
            cur[e - base] = c
        for a in self.den:
            for x in range(a, len(cur)):
                cur[x] += cur[x - a]
        start = max(lo - base, 0)
        return {base + i: c for i, c in enumerate(cur[start:], start) if c}

    def coefficient(self, m: int) -> int:
        return self.expand(m, m).get(m, 0)

    def __str__(self) -> str:
        return render_series(self)

    def __repr__(self) -> str:
        return f"PoincareSeries({render_series(self)!r})"


def _multiset_max(a, b):
    out = []
    for v in sorted(set(a) | set(b)):
        out.extend([v] * max(list(a).count(v), list(b).count(v)))
    return out


def _multiset_diff(a, b):
    out = list(a)
    for v in b:
        out.remove(v)
    return out


# The most terms _divide_once builds.  A quotient can be as long as its
# numerator's span, so 1 - q^N (a few bytes of JSON) divided by 1 - q would
# take N terms, about 100 bytes each.  No builtin needs a long one: the Ext
# sweeps of sl2-T, sl2-N and hecke-regular G2, C3 and D4 divide nothing
# exactly, their numerators span at most 12 degrees, and the longest
# quotient in the test suite has 59 terms.
MAX_QUOTIENT_TERMS = 100_000


def _divide_once(num: LaurentPoly, a: int):
    """num / (1 - q^a) if the division is exact, else None.

    Modulo q^a - 1 every q^e is congruent to q^(e mod a), so (1 - q^a)
    divides num iff, for each residue r mod a, the coefficients of the
    exponents e = r (mod a) sum to 0: one pass over the terms decides it.
    When it does, num / (1 - q^a) = num * (1 + q^a + q^2a + ...), whose
    coefficient at e is the running sum of num along e's residue chain up
    to e.  That sum returns to 0 at the chain's top term, where the quotient
    stops: each run fills the exponents from one term of the chain up to the
    next, and the top term starts none.  The runs are sized before any is
    filled, and more than MAX_QUOTIENT_TERMS terms raise DomainError.
    """
    c = num._c
    sums: dict[int, int] = {}
    for e, v in c.items():
        r = e % a
        sums[r] = sums.get(r, 0) + v
    if any(sums.values()):
        return None
    chains: dict[int, list[int]] = {}
    for e in sorted(c):
        chains.setdefault(e % a, []).append(e)
    runs = []
    for chain in chains.values():
        run = 0
        for e, nxt in zip(chain, chain[1:]):
            run += c[e]
            if run:
                runs.append((e, nxt, run))
    size = sum((nxt - e) // a for e, nxt, _ in runs)
    if size > MAX_QUOTIENT_TERMS:
        raise DomainError(
            f"dividing by (1-q^{a}) would give {size} terms, more than {MAX_QUOTIENT_TERMS}"
        )
    h: dict[int, int] = {}
    for e, nxt, run in runs:
        for x in range(e, nxt, a):
            h[x] = run
    return LaurentPoly._raw(h)


def _reduce(num: LaurentPoly, den: list[int]):
    out = []
    for a in den:
        q = _divide_once(num, a)
        if q is None:
            out.append(a)
        else:
            num = q
    return num, out


def render_series(s: PoincareSeries) -> str:
    """Canonical text form, e.g. '(1+q)/(1-q)', '1/(1-q)^2', 'q^2'."""
    num = render_poly(s.num)
    if not s.den:
        return num
    if len(s.num._c) > 1:
        num = f"({num})"
    parts = []
    for a in sorted(set(s.den)):
        k = s.den.count(a)
        base = "(1-q)" if a == 1 else f"(1-q^{a})"
        parts.append(base if k == 1 else f"{base}^{k}")
    return f"{num}/{''.join(parts)}"


def parse_series(obj) -> PoincareSeries:
    """Build from the file form {'num': '1', 'den': [1, 2]}."""
    if not isinstance(obj, dict) or set(obj) - {"num", "den"}:
        raise DomainError(f"bad series object {obj!r}")
    num = parse_poly(obj.get("num", "1"))
    den = obj.get("den", [])
    if not isinstance(den, list) or not all(isinstance(a, int) for a in den):
        raise DomainError(f"bad series denominator {den!r}")
    return PoincareSeries(num, den)


def series_to_json(s: PoincareSeries) -> dict:
    return {"num": render_poly(s.num), "den": list(s.den)}
