"""Combinatorial orbit datums: the input data for every computation here.

A datum records a stratified picture as pure combinatorics: a Weyl group, a
poset of orbits with dimensions, parameters (orbit, local system) indexing
basis vectors, and one case descriptor per (simple reflection, parameter)
telling how the generator acts.  The four descriptor families G/U/T/N match
the possible fiber decompositions of a minimal-parabolic line bundle; the
ExplicitRow escape hatch keeps exotic configurations expressible.

Orbit data is input, never derived from group pairs: datums are loaded from
JSON files or produced by the builtin generators (two rank-one symmetric
pictures, and the group-times-group family 'hecke-regular:<type>' whose
module is the Hecke algebra itself).

validate_datum is total: each named check is reported individually, never
raised; downstream modules refuse datums whose report failed.  It and
every table derived from a datum are built once per datum, through
coxeter.memoized.
"""

from __future__ import annotations

import json

from . import coxeter as cox
from . import hecke
from .errors import (
    DatumError,
    DatumFormatError,
    DatumInvalid,
    DomainError,
    MissingCostandard,
    MissingDescriptor,
    UnsupportedType,
)
from .laurent import (
    ONE,
    Q,
    LaurentPoly,
    PoincareSeries,
    parse_poly,
    parse_series,
    render_poly,
    series_to_json,
)

BUILTIN_NAMES = (
    "hecke-regular:A1",
    "hecke-regular:A2",
    "hecke-regular:B2",
    "hecke-regular:A3",
    "sl2-T",
    "sl2-N",
)

# Ids reach error messages, tables and CSV rows unquoted, so load_datum
# refuses an orbit or parameter id holding any of these: a comma, a control
# character (C0, DEL or C1) or a line or paragraph separator, that is each
# character that splits a CSV field or that str.splitlines splits on.
_BAD_ID_CHARS = frozenset(
    [",", "\u2028", "\u2029", *map(chr, range(0x20)), *map(chr, range(0x7F, 0xA0))]
)
_BAD_ID = "holds a comma or a control character"


class OrbitInfo(cox.Record):
    id: str
    dim: int
    closed: bool


class Parameter(cox.Record):
    id: str
    orbit: str
    local_system: str
    dim: int


_MINUS_ONE = LaurentPoly.monomial(-1, 0)
_Q_MINUS_1 = Q - ONE
_Q_MINUS_2 = Q - ONE - ONE


class _Row:
    """One (s, parameter) row of the action table, collecting link problems."""

    def __init__(self, d: "OrbitDatum", s: int, pid: str, problems: list[str]):
        self.d, self.s, self.pid, self.problems = d, s, pid, problems
        self.param = d.param_by_id[pid]

    def fail(self, what: str):
        self.problems.append(f"(s{self.s + 1}, {self.pid}) {what}")

    def mirrored(self, target: str, kind: str, case, *expected):
        """The row at target must be a case descriptor whose fields, as
        case._key reads them, are one of expected; no record is built."""
        desc = self.d.descriptor(self.s, target)
        if desc.__class__ is not case or case._key(desc) not in expected:
            self.fail(f"{kind} link to {target} not mirrored")


class _Descriptor(cox.Record):
    """The rules of one descriptor family: its file form, the parameters it
    references, its ascent targets, its T_s column and its link rules.

    A family is a frozen record whose fields are its annotations, read by
    the Record base into _fields as (name, annotation) pairs.  Every field
    of a family names parameters: a "str" field one parameter, a tuple field
    an unordered pair.  ExplicitRow overrides what that rules out.
    """

    # the fields holding ascent targets
    _ascent_fields = ()
    # the T_s column by field: (field, coefficient), each parameter the field
    # names getting the coefficient; None stands for the row's own parameter
    _column = ()

    def to_json(self) -> dict:
        out = {"case": type(self).__name__}
        for name in self._names:
            value = getattr(self, name)
            out[name] = list(value) if isinstance(value, tuple) else value
        return out

    @classmethod
    def from_json(cls, obj: dict, where: str, poly=parse_poly):
        """The descriptor of the file form obj at place where; poly parses a
        polynomial text, for the cases that carry one."""
        values = []
        for name, kind in cls._fields:
            if name not in obj:
                raise DatumFormatError(f"{where}: descriptor missing field {name!r}")
            value = obj[name]
            if kind == "str":
                if not isinstance(value, str):
                    raise DatumFormatError(f"{where}: {name!r} must be a parameter id")
            elif isinstance(value, list) and len(value) == 2 and all(
                isinstance(v, str) for v in value
            ):
                value = tuple(value)
            else:
                raise DatumFormatError(f"{where}: {name!r} must list two parameters")
            values.append(value)
        return cls(*values)

    def _ids(self, names) -> tuple[str, ...]:
        out = []
        for name in names:
            value = getattr(self, name)
            out.extend(value if isinstance(value, tuple) else (value,))
        return tuple(out)

    def targets(self) -> tuple[str, ...]:
        """Every parameter the descriptor references."""
        return self._ids(self._names)

    def ascents(self, d: "OrbitDatum", dim: int) -> tuple[str, ...]:
        """Parameters the row ascends to, for a row on an orbit of dimension dim."""
        return self._ids(self._ascent_fields)

    def column(self, pid: str) -> list[tuple[str, LaurentPoly]]:
        """T_s m_pid as (target, coefficient) entries, from _column."""
        out = []
        for name, coeff in self._column:
            for target in self._ids((name,)) if name else (pid,):
                out.append((target, coeff))
        return out

    def dual_others(self, up: str):
        """The others when the row is a U- or T-ascent to up, T_s m = m_up +
        sum of m_other, which forces beta(m_up) = bar(T_s) beta(m) - sum of
        beta(m_other).  None when the row forces nothing at up."""
        return None

    def check_links(self, row: _Row):
        """Append to row.problems where the rows this one links to disagree."""


class CompactG(_Descriptor):
    _column = ((None, Q),)


class AscentU(_Descriptor):
    up: str
    _ascent_fields = ("up",)
    _column = (("up", ONE),)

    def dual_others(self, up):
        return () if up == self.up else None

    def check_links(self, row):
        if row.d.param_by_id[self.up].dim <= row.param.dim:
            row.fail(f"ascent target {self.up} not higher")
        row.mirrored(self.up, "AscentU", DescentU, row.pid)


class DescentU(_Descriptor):
    down: str
    _column = (("down", Q), (None, _Q_MINUS_1))

    def check_links(self, row):
        if row.d.param_by_id[self.down].dim >= row.param.dim:
            row.fail(f"descent target {self.down} not lower")
        row.mirrored(self.down, "DescentU", AscentU, row.pid)


class AscentT(_Descriptor):
    cross: str
    up: str
    _ascent_fields = ("up",)
    _column = (("cross", ONE), ("up", ONE))

    def dual_others(self, up):
        return (self.cross,) if up == self.up else None

    def check_links(self, row):
        pid, params = row.pid, row.d.param_by_id
        if self.cross == pid:
            row.fail("AscentT cross-links to itself")
        if params[self.cross].dim != row.param.dim:
            row.fail(f"cross {self.cross} has different dim")
        if params[self.up].dim <= row.param.dim:
            row.fail(f"ascent target {self.up} not higher")
        row.mirrored(self.cross, "AscentT-cross", AscentT, (pid, self.up))
        row.mirrored(self.up, "AscentT up", DescentT, (pid, self.cross), (self.cross, pid))


class DescentT(_Descriptor):
    downs: tuple[str, str]
    _column = (("downs", _Q_MINUS_1), (None, _Q_MINUS_2))

    def check_links(self, row):
        d1, d2 = self.downs
        if d1 == d2:
            row.fail("DescentT downs coincide")
        for lo in self.downs:
            if row.d.param_by_id[lo].dim >= row.param.dim:
                row.fail(f"descent target {lo} not lower")
        row.mirrored(d1, "DescentT", AscentT, (d2, row.pid))
        row.mirrored(d2, "DescentT", AscentT, (d1, row.pid))


class DescentTNonParity(_Descriptor):
    _column = ((None, _MINUS_ONE),)


class AscentN(_Descriptor):
    ups: tuple[str, str]
    _ascent_fields = ("ups",)
    _column = ((None, ONE), ("ups", ONE))

    def check_links(self, row):
        u1, u2 = self.ups
        params = row.d.param_by_id
        if u1 == u2:
            row.fail("AscentN ups coincide")
        for u in self.ups:
            if params[u].dim <= row.param.dim:
                row.fail(f"ascent target {u} not higher")
        if params[u1].orbit != params[u2].orbit:
            row.fail("AscentN ups on different orbits")
        row.mirrored(u1, "AscentN", DescentN, (u2, row.pid))
        row.mirrored(u2, "AscentN", DescentN, (u1, row.pid))


class DescentN(_Descriptor):
    partner: str
    down: str
    _column = (("down", _Q_MINUS_1), (None, _Q_MINUS_1), ("partner", _MINUS_ONE))

    def check_links(self, row):
        pid, params = row.pid, row.d.param_by_id
        if self.partner == pid:
            row.fail("DescentN partners itself")
        if params[self.partner].orbit != row.param.orbit:
            row.fail("partner on a different orbit")
        if params[self.down].dim >= row.param.dim:
            row.fail(f"descent target {self.down} not lower")
        row.mirrored(self.partner, "DescentN", DescentN, (pid, self.down))
        row.mirrored(self.down, "DescentN down", AscentN, (pid, self.partner), (self.partner, pid))


class ExplicitRow(_Descriptor):
    """The escape hatch: the T_s column given entry by entry."""

    coeffs: tuple[tuple[str, LaurentPoly], ...]

    def to_json(self) -> dict:
        return {
            "case": "ExplicitRow",
            "coeffs": {pid: render_poly(p) for pid, p in self.coeffs},
        }

    @classmethod
    def from_json(cls, obj: dict, where: str, poly=parse_poly):
        if "coeffs" not in obj:
            raise DatumFormatError(f"{where}: descriptor missing field 'coeffs'")
        coeffs = obj["coeffs"]
        if not isinstance(coeffs, dict):
            raise DatumFormatError(f"{where}: 'coeffs' must be an object")
        return cls(
            coeffs=tuple((pid, poly(text)) for pid, text in sorted(coeffs.items()))
        )

    def targets(self):
        return tuple(pid for pid, _ in self.coeffs)

    def ascents(self, d, dim):
        return tuple(
            pid for pid, c in self.coeffs if not c.is_zero() and d.param_by_id[pid].dim > dim
        )

    def column(self, pid):
        return [(t, c) for t, c in self.coeffs if not c.is_zero()]


DESCRIPTORS = {cls.__name__: cls for cls in _Descriptor.__subclasses__()}
ASCENT_CASES = (AscentU, AscentT, AscentN)


def _reachable(succ) -> list[int]:
    """up[v] has bit w set iff w is reachable from v along succ, v included.

    Tarjan's strongly connected components, iteratively and with Pearce's
    single array of low links: a component is complete when its root
    finishes, sinks first, so each member gets the union of the members'
    bits and of the finished sets of their successors, one OR per edge.
    Cycles, self-loops and repeated edges need no care.
    """
    done = len(succ) + 1  # the low link of a finished node: it lowers nothing
    up = [0] * len(succ)
    low = [0] * len(succ)  # the visit number, from 1, lowered along back edges
    held = []  # finished visits whose components are not complete, in visit order
    count = 0
    for root in range(len(succ)):
        if low[root]:
            continue
        low[root] = count = count + 1
        work = [(root, iter(succ[root]), count)]
        while work:
            v, edges, first = work[-1]
            for w in edges:
                if not low[w]:
                    low[w] = count = count + 1
                    work.append((w, iter(succ[w]), count))
                    break
                # a w that is not done is in v's component, merged below
                up[v] |= up[w]
                low[v] = min(low[v], low[w])
            else:
                work.pop()
                if low[v] < first:
                    held.append(v)
                else:  # v roots a component: itself and the held visits after it
                    component = [v]
                    while held and low[held[-1]] >= first:
                        component.append(held.pop())
                    bits = 0
                    for m in component:
                        bits |= 1 << m | up[m]
                    for m in component:
                        up[m] = bits
                        low[m] = done
                if work:  # the parent takes v's set and low link
                    u = work[-1][0]
                    up[u] |= up[v]
                    low[u] = min(low[u], low[v])
    return up


class OrbitDatum:
    """Immutable-by-convention container; validate before computing."""

    def __init__(
        self,
        name,
        coxeter_spec,
        coxeter,
        orbits,
        closure_pairs,
        params,
        actions,
        costandard,
        poincare,
    ):
        self.name = name
        self.coxeter_spec = coxeter_spec
        self.coxeter = coxeter
        self.orbits = tuple(orbits)
        self.closure_pairs = tuple(closure_pairs)
        self.params = tuple(params)
        # every twist q^dim is built from these, so integer exponents are
        # an invariant of the package (see laurent)
        for kind, records in (("orbit", self.orbits), ("parameter", self.params)):
            for r in records:
                if type(r.dim) is not int:
                    raise DatumError(f"{kind} {r.id}: dim must be an integer, got {r.dim!r}")
        self.actions = actions
        self.costandard = costandard
        self.poincare = poincare

        self.orbit_by_id = {o.id: o for o in self.orbits}
        self.param_by_id = {p.id: p for p in self.params}
        by_orbit: dict[str, list[Parameter]] = {}
        for p in self.params:
            by_orbit.setdefault(p.orbit, []).append(p)
        self._params_on = {o: tuple(ps) for o, ps in by_orbit.items()}
        # canonical basis order: by (dim, id)
        self.basis = tuple(sorted(self.params, key=lambda p: (p.dim, p.id)))
        self.basis_index = {p.id: i for i, p in enumerate(self.basis)}
        index = self._orbit_index = {o.id: i for i, o in enumerate(self.orbits)}
        succ = [[] for _ in self.orbits]
        for lo, hi in self.closure_pairs:
            succ[index[lo]].append(index[hi])
        self._up = _reachable(succ)
        self._cache: dict = {}

    def leq_orbits(self, a: str, b: str) -> bool:
        """Closure order: a below b (reflexive-transitive hull of the pairs),
        one bit test in the bitset of the orbits above a."""
        return self._up[self._orbit_index[a]] >> self._orbit_index[b] & 1 == 1

    def params_on(self, orbit_id: str):
        return self._params_on.get(orbit_id, ())

    def descriptor(self, s: int, param_id: str):
        return self.actions.get(s, {}).get(param_id)

    def to_jsonable(self) -> dict:
        out = {
            "name": self.name,
            "coxeter": self.coxeter_spec,
            "orbits": [
                {"id": o.id, "dim": o.dim, "closed": o.closed} for o in self.orbits
            ],
            "closure": [list(p) for p in self.closure_pairs],
            "params": [
                {"id": p.id, "orbit": p.orbit, "local_system": p.local_system}
                for p in self.params
            ],
            "actions": {
                str(s + 1): {
                    pid: desc.to_json()
                    for pid, desc in sorted(self.actions[s].items())
                }
                for s in sorted(self.actions)
            },
            "poincare": {
                pid: series_to_json(self.poincare[pid]) for pid in sorted(self.poincare)
            },
        }
        if self.costandard is not None:
            out["costandard"] = {
                col: {row: render_poly(p) for row, p in sorted(rows.items())}
                for col, rows in sorted(self.costandard.items())
            }
        return out

    def __eq__(self, other):
        return isinstance(other, OrbitDatum) and self.to_jsonable() == other.to_jsonable()

    def __repr__(self):
        return f"OrbitDatum({self.name!r}, {len(self.params)} parameters)"


def _records(obj: dict, section: str, names: tuple[str, ...]):
    """Each object of the list obj[section], as (its location, its fields)."""
    for i, item in enumerate(obj[section]):
        where = f"{section}[{i}]"
        if not isinstance(item, dict):
            raise DatumFormatError(f"{where}: must be an object")
        for name in names:
            if name not in item:
                raise DatumFormatError(f"{where}: missing field {name!r}")
        yield where, [item[name] for name in names]


def _by_param(table, where: str, ids, read, not_object=None, incomplete=None) -> dict:
    """A JSON object keyed by parameter id, each entry parsed by read(place,
    value), place naming the entry as in poincare['p0'].  A DomainError from
    read is reported at its place.  not_object replaces the message for a
    table that is no object; incomplete, an (error class, message prefix)
    pair, requires every parameter to have an entry."""
    if not isinstance(table, dict):
        raise DatumFormatError(not_object or f"{where}: must be an object")
    out = {}
    for pid, value in table.items():
        place = f"{where}[{pid!r}]"
        if pid not in ids:
            raise DatumFormatError(f"{place}: unknown parameter")
        try:
            out[pid] = read(place, value)
        except DomainError as exc:
            raise DatumFormatError(f"{place}: {exc}") from None
    missing = ids - out.keys()
    if incomplete and missing:
        error, prefix = incomplete
        raise error(prefix + ", ".join(sorted(missing)))
    return out


def load_datum(source) -> OrbitDatum:
    """Parse and materialize a datum from JSON text (or a parsed dict).

    Schema-level problems (malformed fields, duplicate ids, dangling
    references, missing action rows) raise here; semantic problems are the
    business of validate_datum.

    Each distinct polynomial text of the file is parsed once: costandard
    entries, Poincare numerators and ExplicitRow coefficients with equal
    texts share one LaurentPoly, which nothing mutates.  A text that fails
    to parse is not kept, so it raises at its first place with the message
    of a fresh parse.
    """
    if isinstance(source, (str, bytes)):
        try:
            obj = json.loads(source)
        except (ValueError, RecursionError) as exc:
            # ValueError covers bad encodings and integers past Python's
            # digit limit; RecursionError, nesting deeper than the parser goes
            raise DatumFormatError(f"invalid JSON: {exc}") from None
    else:
        obj = source
    if not isinstance(obj, dict):
        raise DatumFormatError("datum must be a JSON object")

    for key in ("name", "coxeter", "orbits", "closure", "params", "actions", "poincare"):
        if key not in obj:
            raise DatumFormatError(f"missing top-level key {key!r}")
    if not isinstance(obj["name"], str):
        raise DatumFormatError("'name' must be a string")

    spec = obj["coxeter"]
    if not isinstance(spec, dict) or not ({"type", "cartan"} & set(spec)):
        raise DatumFormatError("'coxeter' must carry 'type' or 'cartan'")
    kind = "type" if "type" in spec else "cartan"
    value = spec[kind]
    if kind == "type" and not isinstance(value, str):
        raise DatumFormatError("'coxeter.type' must be a string")
    if kind == "cartan" and not (
        isinstance(value, list)
        and value
        and all(isinstance(row, list) and len(row) == len(value[0]) for row in value)
        and all(type(x) is int for row in value for x in row)
    ):
        raise DatumFormatError(
            "'coxeter.cartan' must be a non-empty list of equal-length lists of integers"
        )
    # build_system raises UnsupportedType for a type or matrix of no finite type
    system = cox.build_system(value)

    for key in ("orbits", "closure", "params"):
        if not isinstance(obj[key], list):
            raise DatumFormatError(f"{key!r} must be a list")

    orbit_by_id: dict[str, OrbitInfo] = {}
    for where, (oid, dim, closed) in _records(obj, "orbits", ("id", "dim", "closed")):
        if not isinstance(oid, str):
            raise DatumFormatError(f"{where}: id must be a string")
        if not _BAD_ID_CHARS.isdisjoint(oid):
            raise DatumFormatError(f"{where}: id {oid!r} {_BAD_ID}")
        if type(dim) is not int:
            raise DatumFormatError(f"{where}: dim must be an integer")
        if type(closed) is not bool:
            raise DatumFormatError(f"{where}: closed must be true or false")
        if dim < 0:
            raise DatumFormatError(f"{where}: negative dimension")
        if oid in orbit_by_id:
            raise DatumFormatError(f"{where}: duplicate orbit id {oid!r}")
        orbit_by_id[oid] = OrbitInfo(oid, dim, closed)

    closure = []
    for i, pair in enumerate(obj["closure"]):
        if not (
            isinstance(pair, list) and len(pair) == 2 and all(isinstance(o, str) for o in pair)
        ):
            raise DatumFormatError(f"closure[{i}]: must be [lower, upper] orbit ids")
        for oid in pair:
            if oid not in orbit_by_id:
                raise DatumFormatError(f"closure[{i}]: unknown orbit {oid!r}")
        closure.append(tuple(pair))

    param_by_id: dict[str, Parameter] = {}
    seen_pairs = set()
    for where, (pid, porb, psys) in _records(obj, "params", ("id", "orbit", "local_system")):
        if not all(isinstance(v, str) for v in (pid, porb, psys)):
            raise DatumFormatError(f"{where}: id, orbit and local_system must be strings")
        if not _BAD_ID_CHARS.isdisjoint(pid):
            raise DatumFormatError(f"{where}: id {pid!r} {_BAD_ID}")
        if pid in param_by_id:
            raise DatumFormatError(f"{where}: duplicate parameter id {pid!r}")
        if porb not in orbit_by_id:
            raise DatumFormatError(f"{where}: unknown orbit {porb!r}")
        if (porb, psys) in seen_pairs:
            raise DatumFormatError(
                f"{where}: duplicate (orbit, local_system) pair ({porb!r}, {psys!r})"
            )
        seen_pairs.add((porb, psys))
        param_by_id[pid] = Parameter(pid, porb, psys, orbit_by_id[porb].dim)
    ids = param_by_id.keys()

    polys: dict[str, LaurentPoly] = {}

    def poly(text):
        """parse_poly once per distinct text; a failure is raised, never kept."""
        if type(text) is not str:
            return parse_poly(text)
        p = polys.get(text)
        if p is None:
            p = polys[text] = parse_poly(text)
        return p

    def descriptor(place, desc_obj):
        if not isinstance(desc_obj, dict) or "case" not in desc_obj:
            raise DatumFormatError(f"{place}: descriptor must be an object with 'case'")
        case = desc_obj["case"]
        cls = DESCRIPTORS.get(case) if isinstance(case, str) else None
        if cls is None:
            raise DatumFormatError(f"{place}: unknown descriptor case {case!r}")
        desc = cls.from_json(desc_obj, place, poly)
        for target in desc.targets():
            if target not in ids:
                raise DatumFormatError(f"{place}: dangling parameter {target!r}")
        return desc

    def costandard_column(place, rows):
        entry = _by_param(rows, place, ids, lambda _, text: poly(text))
        return {row: p for row, p in entry.items() if not p.is_zero()}

    actions_in = obj["actions"]
    if not isinstance(actions_in, dict):
        raise DatumFormatError("'actions' must be an object keyed by generator index")
    expected = sorted(str(s + 1) for s in range(system.rank))
    got = sorted(actions_in)
    if got != expected:
        raise DatumFormatError(f"'actions' keys must be exactly {expected}, got {got}")
    actions = {}
    for key, rows in actions_in.items():
        where = f"actions[{key}]"
        keyed = f"{where} must be an object keyed by parameter"
        missing = (MissingDescriptor, f"{where}: no descriptor for parameter(s) ")
        actions[int(key) - 1] = _by_param(rows, where, ids, descriptor, keyed, missing)

    # poincare is always present: its key is checked above
    tables = {}
    for name, read, what in (
        ("costandard", costandard_column, "column(s) "),
        ("poincare", lambda _, sobj: parse_series(sobj, poly), ""),
    ):
        if name in obj:
            keyed = f"{name!r} must be an object keyed by parameter"
            missing = (DatumFormatError, f"{name} table incomplete; missing {what}")
            tables[name] = _by_param(obj[name], name, ids, read, keyed, missing)

    return OrbitDatum(
        name=obj["name"],
        coxeter_spec={kind: value},
        coxeter=system,
        orbits=orbit_by_id.values(),
        closure_pairs=closure,
        params=param_by_id.values(),
        actions=actions,
        costandard=tables.get("costandard"),
        poincare=tables["poincare"],
    )


def dump_datum(d: OrbitDatum) -> str:
    return json.dumps(d.to_jsonable(), indent=2, sort_keys=False) + "\n"


@cox.memoized
def s_star(d: OrbitDatum, s: int, orbit_id: str) -> str:
    """The ascent operation on orbits for one simple reflection.

    Returns the common target orbit of the ascent descriptors on orbit_id,
    or orbit_id itself if no parameter on it ascends.
    """
    if orbit_id not in d.orbit_by_id:
        raise DatumError(f"unknown orbit {orbit_id!r}")
    base_dim = d.orbit_by_id[orbit_id].dim
    targets = set()
    for p in d.params_on(orbit_id):
        desc = d.descriptor(s, p.id)
        if desc is not None:
            targets |= {d.param_by_id[t].orbit for t in desc.ascents(d, base_dim)}
    if not targets:
        return orbit_id
    if len(targets) > 1:
        raise DatumError(
            f"inconsistent ascent targets from orbit {orbit_id!r} under s{s + 1}: "
            + ", ".join(sorted(targets))
        )
    return next(iter(targets))


class CheckResult(cox.Record):
    name: str
    passed: bool
    detail: str = ""

    @classmethod
    def of(cls, name: str, problems: list[str], passed_detail: str = "") -> "CheckResult":
        """Passed iff problems is empty; the detail lists them, or is passed_detail."""
        return cls(name, not problems, "; ".join(problems) if problems else passed_detail)


class ValidationReport:
    def __init__(self, checks):
        self.checks = list(checks)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed_names(self):
        return [c.name for c in self.checks if not c.passed]


@cox.memoized
def validate_datum(d: OrbitDatum) -> ValidationReport:
    """Run the named semantic checks, once per datum."""
    from . import hmodule  # deferred: hmodule needs the types above

    checks = []

    # (1) every parameter has a row for every s, and each non-closed orbit is
    # reachable from the closed orbits by a chain of ascents
    problems = []
    for s in range(d.coxeter.rank):
        rows = d.actions.get(s, {})
        for p in d.params:
            if p.id not in rows:
                problems.append(f"missing descriptor ({p.id}, s{s + 1})")
    if not problems:
        star_errors = set()
        reachable = {o.id for o in d.orbits if o.closed}
        changed = True
        while changed:
            changed = False
            for s in range(d.coxeter.rank):
                for v in list(reachable):
                    try:
                        w = s_star(d, s, v)
                    except DatumError as exc:
                        star_errors.add(str(exc))
                        continue
                    if w not in reachable:
                        reachable.add(w)
                        changed = True
        problems.extend(sorted(star_errors))
        unreached = sorted(o.id for o in d.orbits if o.id not in reachable)
        if unreached:
            problems.append("orbit(s) unreachable by ascents: " + ", ".join(unreached))
    checks.append(CheckResult.of("thm-order-reachability", problems))
    if problems and any("missing descriptor" in p for p in problems):
        # remaining checks assume a complete action table
        checks.append(CheckResult("sstar-monotone", False, "skipped: incomplete actions"))
        checks.append(CheckResult("quadratic-relation", False, "skipped: incomplete actions"))
        checks.append(CheckResult("braid-relations", False, "skipped: incomplete actions"))
        checks.append(CheckResult("link-mirroring", False, "skipped: incomplete actions"))
        checks.append(CheckResult("costandard-involution", False, "skipped: incomplete actions"))
        checks.append(_check_dims(d))
        checks.append(_check_poincare(d))
        return ValidationReport(checks)

    # (2) s-star is monotone and idempotent on orbits
    problems = []
    for s in range(d.coxeter.rank):
        for o in d.orbits:
            try:
                w = s_star(d, s, o.id)
            except DatumError as exc:
                problems.append(str(exc))
                continue
            if not d.leq_orbits(o.id, w):
                problems.append(f"s{s + 1}*{o.id} = {w} not above {o.id} in closure order")
            try:
                ww = s_star(d, s, w)
            except DatumError as exc:
                problems.append(str(exc))
                continue
            if ww != w:
                problems.append(f"s{s + 1}* not idempotent at {o.id}: {w} -> {ww}")
    checks.append(CheckResult.of("sstar-monotone", problems))

    # (3) quadratic relation for each generator matrix, and (4) braid
    # relations for all generator pairs behind it: each tested where the
    # ascent induction of hmodule starts, and everywhere on any failure
    checks.append(CheckResult.of("quadratic-relation", hmodule.quadratic_problems(d)))
    checks.append(CheckResult.of("braid-relations", hmodule.braid_problems(d)))

    # (5) link mirroring between ascent and descent descriptors
    problems = []
    for s in range(d.coxeter.rank):
        for p in d.params:
            d.descriptor(s, p.id).check_links(_Row(d, s, p.id, problems))
    checks.append(CheckResult.of("link-mirroring", problems))

    # (6) costandard table (given or derived) defines an involution
    checks.append(_check_costandard(d))

    # (7) dims consistent with closure order, closed orbits minimal
    checks.append(_check_dims(d))

    # supplementary schema invariant: stabilizer series start at 1
    checks.append(_check_poincare(d))

    return ValidationReport(checks)


def _check_costandard(d: OrbitDatum) -> CheckResult:
    """The costandard table is unitriangular and beta^2 = id.

    beta^2 = id is tested by the ascent induction of hmodule over every
    generator, behind a clean hmodule.compatibility_problems: beta^2 is then
    Z[q, q^-1]-linear and commutes with every T_s, so it holds everywhere
    once it holds on hmodule.unreached, for hecke-regular datums at e
    alone.  Otherwise, or on any failure there, beta^2 is applied to every
    basis vector, so the reported lines are the same either way.
    """
    from . import hmodule

    try:
        table, origin = hmodule.costandard_table(d)
    except MissingCostandard as exc:
        return CheckResult(
            "costandard-involution",
            True,
            f"costandard absent and not derivable ({exc}); duality operations disabled",
        )
    except DatumError as exc:
        return CheckResult("costandard-involution", False, str(exc))
    problems = []
    for col, rows in table.items():
        cdim = d.param_by_id[col].dim
        if rows.get(col) != ONE:
            problems.append(f"n[{col}] diagonal is not 1")
        for row in rows:
            if row != col and d.param_by_id[row].dim >= cdim:
                problems.append(f"n[{col}] has non-lower term at {row}")
    if not problems:
        def fails(pid):
            v = hmodule.basis_vector(d, pid)
            return hmodule.beta(hmodule.beta(v, d), d) != v

        gens = tuple(range(d.coxeter.rank))
        induct = not hmodule.compatibility_problems(d)
        problems = [f"beta^2 != id at {pid}" for pid in hmodule._failing(d, gens, fails, induct)]
    return CheckResult.of("costandard-involution", problems, f"table {origin}")


def _check_dims(d: OrbitDatum) -> CheckResult:
    problems = []
    for lo, hi in d.closure_pairs:
        if lo == hi:
            continue
        if d.orbit_by_id[lo].dim >= d.orbit_by_id[hi].dim:
            problems.append(f"closure pair ({lo}, {hi}) does not increase dim")
    for o in d.orbits:
        if o.closed:
            below = (x.id for x in d.orbits if x.id != o.id and d.leq_orbits(x.id, o.id))
            first = next(below, None)
            if first is not None:
                problems.append(f"closed orbit {o.id} is not minimal (above {first})")
    return CheckResult.of("dim-closure-consistency", problems)


def _check_poincare(d: OrbitDatum) -> CheckResult:
    problems = []
    for pid, series in d.poincare.items():
        # tested first: expanding up to q^0 would cost as much as the lowest
        # exponent is negative.  Without negative exponents the series starts
        # with the numerator's constant term, so nothing needs expanding.
        if min(series.num._c, default=0) < 0:
            problems.append(f"poincare[{pid}] has negative exponents")
        elif series.num.coefficient(0) != 1:
            problems.append(f"poincare[{pid}] constant term is not 1")
    return CheckResult.of("poincare-normalization", problems)


def ensure_valid(d: OrbitDatum) -> None:
    """Gate for downstream modules: validate once, then raise on failure."""
    report = validate_datum(d)
    if not report.ok:
        raise DatumInvalid(report.failed_names())


def builtin_datum(name: str) -> OrbitDatum:
    """Builtin generators: 'sl2-T', 'sl2-N' and 'hecke-regular:<type>'."""
    if name == "sl2-T":
        return _sl2_t()
    if name == "sl2-N":
        return _sl2_n()
    if name.startswith("hecke-regular:"):
        return _hecke_regular(name.split(":", 1)[1])
    raise UnsupportedType(
        f"unknown builtin {name!r}; available: " + ", ".join(BUILTIN_NAMES)
    )


def _series(num: str, den) -> PoincareSeries:
    return PoincareSeries(parse_poly(num), den)


def _sl2_t() -> OrbitDatum:
    one_minus_q = parse_poly("1-q")
    return OrbitDatum(
        name="sl2-T",
        coxeter_spec={"type": "A1"},
        coxeter=cox.build_system("A1"),
        orbits=[
            OrbitInfo("0", 0, True),
            OrbitInfo("inf", 0, True),
            OrbitInfo("w", 1, False),
        ],
        closure_pairs=[("0", "w"), ("inf", "w")],
        params=[
            Parameter("p0", "0", "triv", 0),
            Parameter("pInf", "inf", "triv", 0),
            Parameter("wt", "w", "triv", 1),
            Parameter("ws", "w", "sign", 1),
        ],
        actions={
            0: {
                "p0": AscentT(cross="pInf", up="wt"),
                "pInf": AscentT(cross="p0", up="wt"),
                "wt": DescentT(downs=("p0", "pInf")),
                "ws": DescentTNonParity(),
            }
        },
        costandard={
            "p0": {"p0": ONE},
            "pInf": {"pInf": ONE},
            "wt": {"wt": ONE, "p0": one_minus_q, "pInf": one_minus_q},
            "ws": {"ws": ONE},
        },
        poincare={
            "p0": _series("1", [1]),
            "pInf": _series("1", [1]),
            "wt": _series("1", []),
            "ws": _series("1", []),
        },
    )


def _sl2_n() -> OrbitDatum:
    one_minus_q = parse_poly("1-q")
    return OrbitDatum(
        name="sl2-N",
        coxeter_spec={"type": "A1"},
        coxeter=cox.build_system("A1"),
        orbits=[OrbitInfo("u", 0, True), OrbitInfo("w", 1, False)],
        closure_pairs=[("u", "w")],
        params=[
            Parameter("u", "u", "triv", 0),
            Parameter("wp", "w", "plus", 1),
            Parameter("wm", "w", "minus", 1),
        ],
        actions={
            0: {
                "u": AscentN(ups=("wp", "wm")),
                "wp": DescentN(partner="wm", down="u"),
                "wm": DescentN(partner="wp", down="u"),
            }
        },
        costandard={
            "u": {"u": ONE},
            "wp": {"wp": ONE, "u": one_minus_q},
            "wm": {"wm": ONE, "u": one_minus_q},
        },
        poincare={
            "u": _series("1", [1]),
            "wp": _series("1", []),
            "wm": _series("1", []),
        },
    )


def _bruhat_covers(system) -> list[tuple[int, int]]:
    """The index pairs (x, y) with x < y in Bruhat order and l(y) = l(x) + 1,
    by x, then by y: the bits of the length below y in bruhat_below()[y]."""
    lengths, below = system.lengths, system.bruhat_below()
    # the elements of length l have the indices start[l] to start[l + 1] - 1
    start = [lengths.index(l) for l in range(lengths[-1] + 1)] + [len(lengths)] * 2
    return [
        (x, y)
        for x, l in enumerate(lengths)
        for y in range(start[l + 1], start[l + 2])
        if below[y] >> x & 1
    ]


def _hecke_regular(label: str) -> OrbitDatum:
    system = cox.build_system(label)
    els = system.elements()
    tokens = [system.element_token(w) for w in els]

    orbits = [OrbitInfo(t, w.length, w.length == 0) for w, t in zip(els, tokens)]
    params = [Parameter(t, t, "triv", w.length) for w, t in zip(els, tokens)]
    closure = [(tokens[x], tokens[y]) for x, y in _bruhat_covers(system)]

    actions: dict[int, dict] = {}
    for s, left in enumerate(system.left_mul):  # generators act on the left
        rows = {}
        for i, j in enumerate(left):  # s*w comes after w exactly when it is longer
            rows[tokens[i]] = AscentU(up=tokens[j]) if j > i else DescentU(down=tokens[j])
        actions[s] = rows

    # costandard by Hecke inversion: n_w = q^len(w) bar(T_w) in the T-basis,
    # the columns of the R-polynomial table.  The table is not memoized on
    # the system, which the datum keeps: the entries live on in costandard,
    # and the ext and klv paths never read the table itself.
    costandard = {
        t: {tokens[x]: LaurentPoly._raw(p) for x, p in col.items()}
        for t, col in zip(tokens, hecke._bar_table.__wrapped__(system))
    }

    stab = PoincareSeries(ONE, [1] * system.rank)
    poincare = {t: stab for t in tokens}

    return OrbitDatum(
        name=f"hecke-regular:{label}",
        coxeter_spec={"type": label},
        coxeter=system,
        orbits=orbits,
        closure_pairs=closure,
        params=params,
        actions=actions,
        costandard=costandard,
        poincare=poincare,
    )
