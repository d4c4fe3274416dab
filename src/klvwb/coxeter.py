"""Finite Weyl groups via the permutation action on their root systems.

A CoxeterSystem is built from a Cartan matrix (or a named type label).  The
roots are enumerated once, in the basis of simple roots; each group element
is the permutation it induces on the root list.  This gives exact lengths
(number of positive roots sent negative), cheap products, and no word
normal-form issues.  Intended scale is rank <= 4, so everything is small.

Enumeration also numbers the elements 0..|W|-1 in breadth-first order and
keeps integer tables of right and left multiplication by each generator and
of lengths, so inner loops can run on ints, as in du Cloux's Coxeter
program ("Computing Kazhdan-Lusztig polynomials for arbitrary Coxeter
groups", Experiment. Math. 11 (2002)).  Like that program, every table derived from
a system or from a datum over it is built once per owner, through memoized.
"""

from __future__ import annotations

from functools import wraps
from operator import attrgetter

from .errors import SystemMismatch, UnsupportedType

CARTAN_BY_TYPE = {
    "A1": [[2]],
    "A2": [[2, -1], [-1, 2]],
    "A3": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    "A4": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
    "B2": [[2, -2], [-1, 2]],
    "B4": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -2], [0, 0, -1, 2]],
    "C3": [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
    "C4": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -2, 2]],
    "D4": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
    "F4": [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
    "G2": [[2, -1], [-3, 2]],
}

WEYL_ORDER = {
    "A1": 2, "A2": 6, "A3": 24, "A4": 120, "B2": 8, "B4": 384,
    "C3": 48, "C4": 384, "D4": 192, "F4": 1152, "G2": 12,
}

_MAX_RANK = 4
_MAX_ROOTS = 60  # F4 has 48 roots; anything past this is not a rank<=4 Weyl group

_COXETER_M = {0: 2, 1: 3, 2: 4, 3: 6}  # m_st from the product a_st*a_ts

_MISSING = object()


def memoized(fn):
    """Memoize fn(owner, *args) in owner._cache, keyed by fn and args.

    An exception is never stored, so a failing call raises again.  A stored
    result is shared by every caller: read it, never mutate it.
    """

    @wraps(fn)
    def wrapper(owner, *args):
        cache = owner._cache
        key = (fn, *args)
        out = cache.get(key, _MISSING)
        if out is _MISSING:
            out = cache[key] = fn(owner, *args)
        return out

    return wrapper


_set = object.__setattr__


class Record:
    """Base of the frozen value records.

    A subclass's fields are its own annotations, in order, read once at class
    creation into _fields as (name, annotation) pairs; a class attribute of a
    field's name is that field's default.  Records are equal when their types
    and their fields are, hash by their fields, and refuse assignment after
    __init__.  This is what dataclass(frozen=True) gave these classes, without
    the import of dataclasses and its per-class code generation at start-up.
    """

    _fields: tuple[tuple[str, str], ...] = ()
    _names: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", {}).items())
        cls._names = names = tuple(name for name, _ in cls._fields)
        cls._nameset = frozenset(names)
        cls._defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
        # what equality and the hash compare: the fields, or with none the class
        cls._key = attrgetter(*names) if names else type

    def __init__(self, *args, **kwargs):
        names = self._names
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        # one setattr per field, never self.__dict__: on CPython 3.11 a
        # materialized __dict__ makes every later attribute read slower
        for name, value in zip(names, args):
            _set(self, name, value)

    def _bind(self, args, kwargs):
        """The field values in order from args, kwargs and the defaults."""
        names = self._names
        if not args and kwargs.keys() == self._nameset:  # the usual keyword call
            return map(kwargs.__getitem__, names)
        given = dict(zip(names, args))
        values = {**self._defaults, **given, **kwargs}
        if len(args) > len(names) or given.keys() & kwargs or values.keys() != self._nameset:
            raise TypeError(
                f"{type(self).__name__}({', '.join(names)}) cannot take "
                f"{len(args)} positional values and the keywords {sorted(kwargs)}"
            )
        return map(values.__getitem__, names)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._names)
        return f"{type(self).__qualname__}({fields})"


class CoxeterSystem:
    """Immutable Weyl group with enumerated roots and generator tables."""

    def __init__(self, cartan, label=None):
        self.cartan = tuple(tuple(int(x) for x in row) for row in cartan)
        self.label = label
        self.rank = len(self.cartan)
        _check_cartan(self.cartan)
        self.roots = _enumerate_roots(self.cartan)
        self._root_index = {r: i for i, r in enumerate(self.roots)}
        self._neg = tuple(
            self._root_index[tuple(-x for x in r)] for r in self.roots
        )
        self._positive = tuple(
            i for i, r in enumerate(self.roots) if _is_positive(r)
        )
        self.generator_tables = tuple(
            tuple(
                self._root_index[_reflect(self.cartan, s, r)] for r in self.roots
            )
            for s in range(self.rank)
        )
        self._identity_perm = tuple(range(len(self.roots)))
        self._elements = None
        self._words = None
        self._leq_memo = {}
        self._cache: dict = {}
        self._simple_root_idx = tuple(
            self._root_index[tuple(1 if j == s else 0 for j in range(self.rank))]
            for s in range(self.rank)
        )

    def __repr__(self):
        tag = self.label or f"cartan{self.cartan}"
        return f"CoxeterSystem({tag}, |roots|={len(self.roots)})"

    def coxeter_m(self, s: int, t: int) -> int:
        """Order m_st of the product of two simple reflections."""
        if s == t:
            return 1
        prod = self.cartan[s][t] * self.cartan[t][s]
        if prod not in _COXETER_M:
            raise UnsupportedType(f"non-crystallographic pair ({s},{t})")
        return _COXETER_M[prod]

    @property
    def identity(self) -> "CoxElt":
        return CoxElt(self, self._identity_perm)

    def generator(self, s: int) -> "CoxElt":
        if not 0 <= s < self.rank:
            raise UnsupportedType(f"no simple reflection with index {s}")
        return CoxElt(self, self.generator_tables[s])

    def from_word(self, word) -> "CoxElt":
        """Product of simple reflections, indices 0-based."""
        x = self.identity
        for s in word:
            x = x.mul_gen(s)
        return x

    def elements(self) -> list["CoxElt"]:
        """All elements, in breadth-first length order (identity first)."""
        self._ensure_enumerated()
        return list(self._elements)

    def order(self) -> int:
        self._ensure_enumerated()
        return len(self._elements)

    def reduced_word(self, x: "CoxElt") -> tuple[int, ...]:
        """The canonical (lex-smallest among shortest) word found by BFS."""
        self._ensure_enumerated()
        return self._words[x.perm]

    def element_token(self, x: "CoxElt") -> str:
        """Stable display name: 'e' or dotted 1-based word, e.g. '1.2.1'."""
        word = self.reduced_word(x)
        if not word:
            return "e"
        return ".".join(str(s + 1) for s in word)

    def element_from_token(self, token: str) -> "CoxElt":
        if token == "e":
            return self.identity
        try:
            word = [int(part) - 1 for part in token.split(".")]
        except ValueError:
            raise UnsupportedType(f"bad element token {token!r}") from None
        return self.from_word(word)

    @property
    def right_mul(self) -> tuple[tuple[int, ...], ...]:
        """right_mul[s][i] is the index of x*s, where x has index i."""
        self._ensure_enumerated()
        return self._right_mul

    @property
    def left_mul(self) -> tuple[tuple[int, ...], ...]:
        """left_mul[s][i] is the index of s*x, where x has index i."""
        self._ensure_enumerated()
        return self._left_mul

    @property
    def lengths(self) -> tuple[int, ...]:
        """lengths[i] is the length of the element with index i."""
        self._ensure_enumerated()
        return self._lengths

    def index(self, x: "CoxElt") -> int:
        """Position of x in elements(): the identity is 0, lengths never drop."""
        self._ensure_enumerated()
        return self._index[x.perm]

    def _ensure_enumerated(self):
        if self._elements is not None:
            return
        e = self.identity
        index = {e.perm: 0}
        words = {e.perm: ()}
        order = [e]
        parent = [None]
        right = [[] for _ in range(self.rank)]
        # a FIFO walk: elements come out in BFS order, so right[s] fills in index order
        for i, x in enumerate(order):
            for s in range(self.rank):
                y = x.mul_gen(s)
                j = index.get(y.perm)
                if j is None:
                    j = index[y.perm] = len(order)
                    words[y.perm] = words[x.perm] + (s,)
                    order.append(y)
                    parent.append((i, s))
                right[s].append(j)
        # s*y = (s*x)*t for y = x*t, and x comes before y
        left = [[r[0]] for r in right]
        for i, t in parent[1:]:
            for row in left:
                row.append(right[t][row[i]])
        self._elements = tuple(order)
        self._words = words
        self._index = index
        self._right_mul = tuple(tuple(r) for r in right)
        self._left_mul = tuple(tuple(r) for r in left)
        self._lengths = tuple(x.length for x in order)

    def leq_bruhat(self, x: "CoxElt", y: "CoxElt") -> bool:
        """Bruhat order via the standard descent recursion: with s the first
        right descent of y, x <= y iff xs <= ys when s is a right descent of
        x, else x <= ys.  It runs on element indices through right_mul and
        lengths, memoized by index pair, so no CoxElt is built per step."""
        _same_system(x, y)
        lengths, right = self.lengths, self.right_mul
        i, j = self.index(x), self.index(y)
        memo = self._leq_memo
        path = []
        while True:
            if lengths[i] > lengths[j]:
                out = False
                break
            if i == j:
                out = True
                break
            out = memo.get((i, j))
            if out is not None:
                break
            path.append((i, j))
            s = next(t for t in range(self.rank) if lengths[right[t][j]] < lengths[j])
            if lengths[right[s][i]] < lengths[i]:
                i = right[s][i]
            j = right[s][j]
        for key in path:
            memo[key] = out
        return out


class CoxElt:
    """Group element as a permutation of the root list; hashable, immutable."""

    __slots__ = ("system", "perm", "length")

    def __init__(self, system: CoxeterSystem, perm):
        self.system = system
        self.perm = tuple(perm)
        self.length = sum(
            1 for i in system._positive if not _is_positive(system.roots[self.perm[i]])
        )

    def mul_gen(self, s: int) -> "CoxElt":
        """Right product x*s."""
        table = self.system.generator_tables[s]
        return CoxElt(self.system, tuple(self.perm[i] for i in table))

    def __mul__(self, other: "CoxElt") -> "CoxElt":
        _same_system(self, other)
        return CoxElt(self.system, tuple(self.perm[i] for i in other.perm))

    def inverse(self) -> "CoxElt":
        inv = [0] * len(self.perm)
        for i, j in enumerate(self.perm):
            inv[j] = i
        return CoxElt(self.system, tuple(inv))

    def __eq__(self, other):
        return (
            isinstance(other, CoxElt)
            and self.system is other.system
            and self.perm == other.perm
        )

    def __hash__(self):
        return hash(self.perm)

    def has_right_descent(self, s: int) -> bool:
        """True iff length(x*s) < length(x), i.e. x sends alpha_s negative."""
        sys = self.system
        img = self.perm[sys._simple_root_idx[s]]
        return not _is_positive(sys.roots[img])

    def __repr__(self):
        return f"CoxElt(len={self.length})"


def build_system(spec) -> CoxeterSystem:
    """Build from a type label ('A2', ...) or an explicit Cartan matrix."""
    if isinstance(spec, str):
        label = spec.strip().upper()
        if label not in CARTAN_BY_TYPE:
            raise UnsupportedType(
                f"unknown Coxeter type {spec!r}; supported: "
                + ", ".join(sorted(CARTAN_BY_TYPE))
            )
        return CoxeterSystem(CARTAN_BY_TYPE[label], label=label)
    return CoxeterSystem(spec)


def _check_cartan(cartan):
    n = len(cartan)
    if n == 0 or n > _MAX_RANK:
        raise UnsupportedType(f"rank must be between 1 and {_MAX_RANK}, got {n}")
    for i, row in enumerate(cartan):
        if len(row) != n:
            raise UnsupportedType("Cartan matrix is not square")
        if row[i] != 2:
            raise UnsupportedType(f"Cartan diagonal entry [{i}][{i}] must be 2")
        for j in range(n):
            if i != j:
                if row[j] > 0:
                    raise UnsupportedType("off-diagonal Cartan entries must be <= 0")
                if (cartan[i][j] == 0) != (cartan[j][i] == 0):
                    raise UnsupportedType("Cartan zero pattern must be symmetric")
                if cartan[i][j] * cartan[j][i] not in _COXETER_M:
                    raise UnsupportedType(
                        "Cartan matrix is not of finite crystallographic type"
                    )


def _reflect(cartan, s, root):
    # s_i(alpha_j) = alpha_j - a_ij alpha_i in the simple-root basis
    out = list(root)
    coeff = sum(cartan[s][j] * root[j] for j in range(len(root)))
    out[s] -= coeff
    return tuple(out)


def _is_positive(root) -> bool:
    for x in root:
        if x > 0:
            return True
        if x < 0:
            return False
    return False


def _enumerate_roots(cartan):
    n = len(cartan)
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    seen = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for r in frontier:
            for s in range(n):
                img = _reflect(cartan, s, r)
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
        if len(seen) > _MAX_ROOTS:
            raise UnsupportedType("root system is not finite at this rank")
    for r in seen:
        if not (_is_positive(r) or _is_positive(tuple(-x for x in r))):
            raise UnsupportedType("degenerate root encountered; bad Cartan matrix")
    return tuple(sorted(seen))


def _same_system(x: CoxElt, y: CoxElt):
    if x.system is not y.system:
        raise SystemMismatch("elements belong to different Coxeter systems")
