import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klvwb import checks, extseries, klv
from klvwb import datum as dm
from klvwb import hmodule as hm
from klvwb.errors import (
    DatumError,
    DatumFormatError,
    KlvwbError,
    MissingCostandard,
    MissingDescriptor,
    UnsupportedType,
)
from klvwb.laurent import ONE, Q, LaurentPoly, parse_poly, render_poly

GOLDEN = Path(__file__).parent / "golden"


def clone(d, **overrides):
    """Rebuild a datum with some fields replaced (mutation helper)."""
    kwargs = dict(
        name=d.name,
        coxeter_spec=d.coxeter_spec,
        coxeter=d.coxeter,
        orbits=d.orbits,
        closure_pairs=d.closure_pairs,
        params=d.params,
        actions={s: dict(rows) for s, rows in d.actions.items()},
        costandard=d.costandard,
        poincare=d.poincare,
    )
    kwargs.update(overrides)
    return dm.OrbitDatum(**kwargs)


def failed_names(d):
    return dm.validate_datum(d).failed_names()


def test_builtins_all_validate():
    for name in dm.BUILTIN_NAMES:
        report = dm.validate_datum(dm.builtin_datum(name))
        assert report.ok, (name, report.failed_names())


def test_builtin_shapes():
    t = dm.builtin_datum("sl2-T")
    assert len(t.params) == 4 and len(t.orbits) == 3
    n = dm.builtin_datum("sl2-N")
    assert len(n.params) == 3 and len(n.orbits) == 2
    a1 = dm.builtin_datum("hecke-regular:A1")
    assert [p.id for p in a1.basis] == ["e", "1"]
    assert isinstance(a1.descriptor(0, "e"), dm.AscentU)
    assert isinstance(a1.descriptor(0, "1"), dm.DescentU)


def test_builtin_unknown_name():
    with pytest.raises(UnsupportedType):
        dm.builtin_datum("sl3-X")


def _compact_explicit_datum():
    """sl2-T times a second A1 factor acting by T = q on every parameter,
    with the sign row written as an ExplicitRow: the builtins use neither
    CompactG nor ExplicitRow."""
    obj = dm.builtin_datum("sl2-T").to_jsonable()
    obj["name"] = "sl2-T-x-compact"
    obj["coxeter"] = {"cartan": [[2, 0], [0, 2]]}
    obj["actions"]["1"]["ws"] = {"case": "ExplicitRow", "coeffs": {"ws": "-1"}}
    obj["actions"]["2"] = {p["id"]: {"case": "CompactG"} for p in obj["params"]}
    return dm.load_datum(json.dumps(obj))


def test_round_trip_serialization():
    datums = [dm.builtin_datum(n) for n in ["sl2-T", "sl2-N", "hecke-regular:A2"]]
    datums.append(_compact_explicit_datum())
    for d in datums:
        loaded = dm.load_datum(dm.dump_datum(d))
        assert loaded == d
        assert dm.validate_datum(loaded).ok
    # the file form of every descriptor family, byte for byte
    dumps = "".join(dm.dump_datum(d) for d in datums)
    assert dumps == (GOLDEN / "descriptor_dumps.txt").read_text(encoding="utf-8")


def test_equal_polynomial_texts_share_one_object():
    obj = dm.builtin_datum("sl2-T").to_jsonable()
    obj["actions"]["1"]["ws"] = {"case": "ExplicitRow", "coeffs": {"ws": "1", "wt": " 1"}}
    d = dm.load_datum(json.dumps(obj))
    ones = [d.costandard[pid][pid] for pid in d.costandard]
    ones += [d.poincare[pid].num for pid in d.poincare]
    coeffs = dict(d.descriptor(0, "ws").coeffs)
    ones.append(coeffs["ws"])
    assert len(ones) == 9 and len({id(p) for p in ones}) == 1
    assert d.costandard["wt"]["p0"] is d.costandard["wt"]["pInf"]
    # an equal polynomial under another text is its own object
    assert coeffs["wt"] == ONE and coeffs["wt"] is not ones[0]


_SHARING_DUMPS = ["sl2-T", "sl2-N", "hecke-regular:A2", "hecke-regular:B2", "hecke-regular:C3"]


@pytest.mark.parametrize("name", _SHARING_DUMPS)
def test_a_loaded_dump_renders_back_to_its_file_form(name):
    obj = dm.builtin_datum(name).to_jsonable()
    assert dm.load_datum(json.dumps(obj)).to_jsonable() == obj


@pytest.mark.parametrize(
    "first, second, message",
    [
        ("1-", "q^", "cannot parse polynomial '1-' at offset 1"),
        ("1-", "1-", "cannot parse polynomial '1-' at offset 1"),
        (7, "1-", "polynomial must be a string, got 7"),
        ("", "x", "empty polynomial string"),
    ],
)
def test_the_first_bad_costandard_entry_is_reported(first, second, message):
    obj = dm.builtin_datum("sl2-T").to_jsonable()
    obj["costandard"]["wt"]["p0"] = first
    obj["costandard"]["wt"]["pInf"] = second
    with pytest.raises(DatumFormatError) as exc:
        dm.load_datum(json.dumps(obj))
    assert str(exc.value) == f"costandard['wt']['p0']: {message}"


@pytest.mark.parametrize("name", [*_SHARING_DUMPS, "compact-explicit"])
def test_computing_on_a_loaded_dump_leaves_it_unchanged(name):
    if name == "compact-explicit":
        d = _compact_explicit_datum()
    else:
        d = dm.load_datum(json.dumps(dm.builtin_datum(name).to_jsonable()))
    before = json.dumps(d.to_jsonable())
    list(klv.klv_table(d).rows())
    list(extseries.sweep_rows(d))
    assert checks.run_check_suites(d, window=10).ok
    assert json.dumps(d.to_jsonable()) == before


@pytest.mark.parametrize("name", ["sl2-T", "sl2-N", "hecke-regular:A2"])
def test_each_datum_builds_its_coxeter_system_once(monkeypatch, name):
    built = []
    real = dm.cox.build_system
    monkeypatch.setattr(dm.cox, "build_system", lambda spec: built.append(spec) or real(spec))
    d = dm.builtin_datum(name)
    assert built == ["A1" if name.startswith("sl2") else "A2"]
    loaded = dm.load_datum(d.to_jsonable())
    assert len(built) == 2
    assert loaded.to_jsonable() == d.to_jsonable()
    assert loaded.coxeter.cartan == d.coxeter.cartan


def test_load_rejects_missing_action_row():
    obj = dm.builtin_datum("sl2-T").to_jsonable()
    del obj["actions"]["1"]["p0"]
    with pytest.raises(MissingDescriptor):
        dm.load_datum(json.dumps(obj))


def test_load_rejects_unknown_coxeter_label():
    obj = dm.builtin_datum("sl2-T").to_jsonable()
    obj["coxeter"] = {"type": "H3"}
    with pytest.raises(UnsupportedType):
        dm.load_datum(json.dumps(obj))
    # a well-formed Cartan matrix of affine type A1~
    obj["coxeter"] = {"cartan": [[2, -2], [-2, 2]]}
    with pytest.raises(UnsupportedType):
        dm.load_datum(json.dumps(obj))


def test_load_rejects_schema_problems():
    base = dm.builtin_datum("sl2-T").to_jsonable()

    obj = json.loads(json.dumps(base))
    obj["params"].append({"id": "p0", "orbit": "0", "local_system": "x"})
    with pytest.raises(DatumFormatError, match="duplicate parameter id"):
        dm.load_datum(json.dumps(obj))

    obj = json.loads(json.dumps(base))
    obj["params"].append({"id": "px", "orbit": "nowhere", "local_system": "x"})
    with pytest.raises(DatumFormatError, match="unknown orbit"):
        dm.load_datum(json.dumps(obj))

    obj = json.loads(json.dumps(base))
    obj["actions"]["1"]["p0"] = {"case": "AscentU", "up": "ghost"}
    with pytest.raises(DatumFormatError, match="dangling"):
        dm.load_datum(json.dumps(obj))

    obj = json.loads(json.dumps(base))
    del obj["poincare"]["ws"]
    with pytest.raises(DatumFormatError, match="poincare"):
        dm.load_datum(json.dumps(obj))

    with pytest.raises(DatumFormatError, match="invalid JSON"):
        dm.load_datum("{not json")


# Every message load_datum can raise, pinned on mutations of two dumps.  A
# row is (base, path, value, exception, message): base names the dump ("T"
# for sl2-T, "A2" for hecke-regular:A2) and None takes value as the file
# text; value DEL deletes the key at path, and a path ending in "+" appends
# value to the list.  The rows marked "located" carry the entry's location
# in front of a parse error that the polynomial and series parsers raise.
DEL = object()
_BASES = {"T": "sl2-T", "A2": "hecke-regular:A2"}
_LONG = "1" * 5000  # past Python's 4300-digit limit for int(str)
_DIGITS = (
    "Exceeds the limit (4300 digits) for integer string conversion: value has "
    "5000 digits; use sys.set_int_max_str_digits() to increase the limit"
)
_CARTAN = "'coxeter.cartan' must be a non-empty list of equal-length lists of integers"
_PARAM_STRINGS = "params[0]: id, orbit and local_system must be strings"
_XR = "ExplicitRow"

LOAD_ERRORS = [
    # the text and the top level
    (None, None, "{not json", DatumFormatError,
     "invalid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    (None, None, "[]", DatumFormatError, "datum must be a JSON object"),
    (None, None, '"sl2-T"', DatumFormatError, "datum must be a JSON object"),
    (None, None, f"[{_LONG}]", DatumFormatError, f"invalid JSON: {_DIGITS}"),  # was ValueError
    ("T", ("name",), DEL, DatumFormatError, "missing top-level key 'name'"),
    ("T", ("coxeter",), DEL, DatumFormatError, "missing top-level key 'coxeter'"),
    ("T", ("orbits",), DEL, DatumFormatError, "missing top-level key 'orbits'"),
    ("T", ("closure",), DEL, DatumFormatError, "missing top-level key 'closure'"),
    ("T", ("params",), DEL, DatumFormatError, "missing top-level key 'params'"),
    ("T", ("actions",), DEL, DatumFormatError, "missing top-level key 'actions'"),
    ("T", ("poincare",), DEL, DatumFormatError, "missing top-level key 'poincare'"),
    ("T", ("name",), 7, DatumFormatError, "'name' must be a string"),
    # coxeter
    ("T", ("coxeter",), 5, DatumFormatError, "'coxeter' must carry 'type' or 'cartan'"),
    ("T", ("coxeter",), {}, DatumFormatError, "'coxeter' must carry 'type' or 'cartan'"),
    ("T", ("coxeter",), {"type": 5}, DatumFormatError, "'coxeter.type' must be a string"),
    ("T", ("coxeter",), {"type": "H3"}, UnsupportedType,
     "unknown Coxeter type 'H3'; supported: A1, A2, A3, A4, B2, B4, C3, C4, D4, F4, G2"),
    ("T", ("coxeter",), {"cartan": 5}, DatumFormatError, _CARTAN),
    ("T", ("coxeter",), {"cartan": []}, DatumFormatError, _CARTAN),
    ("T", ("coxeter",), {"cartan": [[2, -1], [-1]]}, DatumFormatError, _CARTAN),
    ("T", ("coxeter",), {"cartan": [[2.0]]}, DatumFormatError, _CARTAN),
    ("T", ("coxeter",), {"cartan": [[True]]}, DatumFormatError, _CARTAN),
    ("T", ("coxeter",), {"cartan": [[2, -1]]}, UnsupportedType, "Cartan matrix is not square"),
    ("T", ("coxeter",), {"cartan": [[2, -2], [-2, 2]]}, UnsupportedType,
     "Cartan matrix is not of finite crystallographic type"),
    ("T", ("coxeter",), {"cartan": [[2, 0, 0, 0, 0]] * 5}, UnsupportedType,
     "rank must be between 1 and 4, got 5"),
    ("A2", ("coxeter",), {"type": "A1"}, DatumFormatError,
     "'actions' keys must be exactly ['1'], got ['1', '2']"),
    # the list sections
    ("T", ("orbits",), 5, DatumFormatError, "'orbits' must be a list"),
    ("T", ("closure",), {}, DatumFormatError, "'closure' must be a list"),
    ("T", ("params",), "p0", DatumFormatError, "'params' must be a list"),
    ("T", ("orbits", 0), "0", DatumFormatError, "orbits[0]: must be an object"),
    ("T", ("orbits", 0, "id"), DEL, DatumFormatError, "orbits[0]: missing field 'id'"),
    ("T", ("orbits", 0, "dim"), DEL, DatumFormatError, "orbits[0]: missing field 'dim'"),
    ("T", ("orbits", 0, "closed"), DEL, DatumFormatError, "orbits[0]: missing field 'closed'"),
    ("T", ("orbits", 0), {"id": 5}, DatumFormatError, "orbits[0]: missing field 'dim'"),
    ("T", ("orbits", 0, "id"), 0, DatumFormatError, "orbits[0]: id must be a string"),
    ("T", ("orbits", 0, "dim"), "0", DatumFormatError, "orbits[0]: dim must be an integer"),
    ("T", ("orbits", 0, "dim"), 1.5, DatumFormatError, "orbits[0]: dim must be an integer"),
    ("T", ("orbits", 0, "dim"), True, DatumFormatError, "orbits[0]: dim must be an integer"),
    ("T", ("orbits", 0, "closed"), 1, DatumFormatError,
     "orbits[0]: closed must be true or false"),
    ("T", ("orbits", 0, "closed"), "true", DatumFormatError,
     "orbits[0]: closed must be true or false"),
    ("T", ("orbits", 0, "dim"), -1, DatumFormatError, "orbits[0]: negative dimension"),
    ("T", ("orbits", 0, "dim"), 0.5, DatumFormatError, "orbits[0]: dim must be an integer"),
    ("T", ("orbits", 1, "id"), "0", DatumFormatError, "orbits[1]: duplicate orbit id '0'"),
    ("T", ("closure", 0), "0", DatumFormatError, "closure[0]: must be [lower, upper] orbit ids"),
    ("T", ("closure", 0), ["0"], DatumFormatError,
     "closure[0]: must be [lower, upper] orbit ids"),
    ("T", ("closure", 0), ["0", "w", "inf"], DatumFormatError,
     "closure[0]: must be [lower, upper] orbit ids"),
    ("T", ("closure", 1), [0, "w"], DatumFormatError,
     "closure[1]: must be [lower, upper] orbit ids"),
    ("T", ("closure", 0), ["0", "ghost"], DatumFormatError, "closure[0]: unknown orbit 'ghost'"),
    ("T", ("closure", 1), ["ghost", "w"], DatumFormatError, "closure[1]: unknown orbit 'ghost'"),
    ("T", ("params", 0), 5, DatumFormatError, "params[0]: must be an object"),
    ("T", ("params", 0, "id"), DEL, DatumFormatError, "params[0]: missing field 'id'"),
    ("T", ("params", 0, "orbit"), DEL, DatumFormatError, "params[0]: missing field 'orbit'"),
    ("T", ("params", 0, "local_system"), DEL, DatumFormatError,
     "params[0]: missing field 'local_system'"),
    ("T", ("params", 0, "id"), 5, DatumFormatError, _PARAM_STRINGS),
    ("T", ("params", 0, "orbit"), None, DatumFormatError, _PARAM_STRINGS),
    ("T", ("params", 0, "local_system"), ["triv"], DatumFormatError, _PARAM_STRINGS),
    ("T", ("params", "+"), {"id": "p0", "orbit": "0", "local_system": "x"}, DatumFormatError,
     "params[4]: duplicate parameter id 'p0'"),
    ("T", ("params", 0, "orbit"), "ghost", DatumFormatError, "params[0]: unknown orbit 'ghost'"),
    ("T", ("params", "+"), {"id": "px", "orbit": "w", "local_system": "sign"},
     DatumFormatError, "params[4]: duplicate (orbit, local_system) pair ('w', 'sign')"),
    # actions, by generator
    ("T", ("actions",), [], DatumFormatError,
     "'actions' must be an object keyed by generator index"),
    ("T", ("actions",), {}, DatumFormatError, "'actions' keys must be exactly ['1'], got []"),
    ("A2", ("actions", "2"), DEL, DatumFormatError,
     "'actions' keys must be exactly ['1', '2'], got ['1']"),
    ("T", ("actions", "2"), {}, DatumFormatError,
     "'actions' keys must be exactly ['1'], got ['1', '2']"),
    ("T", ("actions", "1"), [], DatumFormatError,
     "actions[1] must be an object keyed by parameter"),
    ("A2", ("actions", "2"), 5, DatumFormatError,
     "actions[2] must be an object keyed by parameter"),
    # actions, by parameter
    ("T", ("actions", "1", "ghost"), {"case": "CompactG"}, DatumFormatError,
     "actions[1]['ghost']: unknown parameter"),
    ("T", ("actions", "1", "ghost"), 5, DatumFormatError,
     "actions[1]['ghost']: unknown parameter"),
    ("T", ("actions", "1", "p0"), "AscentT", DatumFormatError,
     "actions[1]['p0']: descriptor must be an object with 'case'"),
    ("T", ("actions", "1", "p0"), {}, DatumFormatError,
     "actions[1]['p0']: descriptor must be an object with 'case'"),
    ("T", ("actions", "1", "p0"), {"case": "Nope"}, DatumFormatError,
     "actions[1]['p0']: unknown descriptor case 'Nope'"),
    ("T", ("actions", "1", "p0"), {"case": 5}, DatumFormatError,
     "actions[1]['p0']: unknown descriptor case 5"),
    ("T", ("actions", "1", "p0", "cross"), DEL, DatumFormatError,
     "actions[1]['p0']: descriptor missing field 'cross'"),
    ("T", ("actions", "1", "p0", "up"), DEL, DatumFormatError,
     "actions[1]['p0']: descriptor missing field 'up'"),
    ("T", ("actions", "1", "p0", "cross"), 5, DatumFormatError,
     "actions[1]['p0']: 'cross' must be a parameter id"),
    ("T", ("actions", "1", "wt", "downs"), "p0", DatumFormatError,
     "actions[1]['wt']: 'downs' must list two parameters"),
    ("T", ("actions", "1", "wt", "downs"), ["p0"], DatumFormatError,
     "actions[1]['wt']: 'downs' must list two parameters"),
    ("T", ("actions", "1", "wt", "downs"), ["p0", 5], DatumFormatError,
     "actions[1]['wt']: 'downs' must list two parameters"),
    ("T", ("actions", "1", "wt", "downs"), DEL, DatumFormatError,
     "actions[1]['wt']: descriptor missing field 'downs'"),
    ("T", ("actions", "1", "p0", "up"), "ghost", DatumFormatError,
     "actions[1]['p0']: dangling parameter 'ghost'"),
    ("T", ("actions", "1", "wt", "downs"), ["p0", "ghost"], DatumFormatError,
     "actions[1]['wt']: dangling parameter 'ghost'"),
    ("T", ("actions", "1", "p0"), {"case": "AscentN", "ups": ["wt"]}, DatumFormatError,
     "actions[1]['p0']: 'ups' must list two parameters"),
    ("T", ("actions", "1", "wt"), {"case": "DescentN", "partner": "ws"}, DatumFormatError,
     "actions[1]['wt']: descriptor missing field 'down'"),
    ("A2", ("actions", "1", "1", "down"), DEL, DatumFormatError,
     "actions[1]['1']: descriptor missing field 'down'"),
    ("A2", ("actions", "1", "1", "down"), ["e"], DatumFormatError,
     "actions[1]['1']: 'down' must be a parameter id"),
    ("A2", ("actions", "2", "e", "up"), "ghost", DatumFormatError,
     "actions[2]['e']: dangling parameter 'ghost'"),
    ("T", ("actions", "1", "ws"), {"case": _XR}, DatumFormatError,
     "actions[1]['ws']: descriptor missing field 'coeffs'"),
    ("T", ("actions", "1", "ws"), {"case": _XR, "coeffs": []}, DatumFormatError,
     "actions[1]['ws']: 'coeffs' must be an object"),
    ("T", ("actions", "1", "ws"), {"case": _XR, "coeffs": {"ghost": "1"}}, DatumFormatError,
     "actions[1]['ws']: dangling parameter 'ghost'"),
    ("T", ("actions", "1", "ws"), {"case": _XR, "coeffs": {"ws": 5}}, DatumFormatError,
     "actions[1]['ws']: polynomial must be a string, got 5"),  # located
    ("T", ("actions", "1", "ws"), {"case": _XR, "coeffs": {"ws": "x"}}, DatumFormatError,
     "actions[1]['ws']: cannot parse polynomial 'x' at offset 0"),  # located
    ("T", ("actions", "1", "ws"), {"case": _XR, "coeffs": {"ws": ""}}, DatumFormatError,
     "actions[1]['ws']: empty polynomial string"),  # located
    ("T", ("actions", "1", "ws"), {"case": _XR, "coeffs": {"ws": "q q"}}, DatumFormatError,
     "actions[1]['ws']: missing sign in polynomial 'q q' at offset 2"),  # located
    ("T", ("actions", "1", "ws"), DEL, MissingDescriptor,
     "actions[1]: no descriptor for parameter(s) ws"),
    ("A2", ("actions", "2", "e"), DEL, MissingDescriptor,
     "actions[2]: no descriptor for parameter(s) e"),
    ("A2", ("actions", "1"), {}, MissingDescriptor,
     "actions[1]: no descriptor for parameter(s) 1, 1.2, 1.2.1, 2, 2.1, e"),
    # costandard
    ("T", ("costandard",), [], DatumFormatError,
     "'costandard' must be an object keyed by parameter"),
    ("T", ("costandard",), "x", DatumFormatError,
     "'costandard' must be an object keyed by parameter"),
    ("T", ("costandard", "ghost"), {}, DatumFormatError,
     "costandard['ghost']: unknown parameter"),
    ("T", ("costandard", "ghost"), 5, DatumFormatError,
     "costandard['ghost']: unknown parameter"),
    ("T", ("costandard", "p0"), "1", DatumFormatError, "costandard['p0']: must be an object"),
    ("A2", ("costandard", "1.2"), [], DatumFormatError,
     "costandard['1.2']: must be an object"),
    ("T", ("costandard", "wt", "ghost"), "1", DatumFormatError,
     "costandard['wt']['ghost']: unknown parameter"),
    ("T", ("costandard", "wt", "ghost"), 5, DatumFormatError,
     "costandard['wt']['ghost']: unknown parameter"),
    ("T", ("costandard", "wt", "p0"), 5, DatumFormatError,
     "costandard['wt']['p0']: polynomial must be a string, got 5"),  # located
    ("T", ("costandard", "wt", "p0"), "1+", DatumFormatError,
     "costandard['wt']['p0']: cannot parse polynomial '1+' at offset 1"),  # located
    ("T", ("costandard", "wt", "p0"), "", DatumFormatError,
     "costandard['wt']['p0']: empty polynomial string"),  # located
    ("T", ("costandard", "wt", "p0"), "q^" + _LONG, DatumFormatError,
     "costandard['wt']['p0']: integer too long in polynomial at offset 0"),  # was ValueError
    ("A2", ("costandard", "1.2", "e"), None, DatumFormatError,
     "costandard['1.2']['e']: polynomial must be a string, got None"),  # located
    ("T", ("costandard", "ws"), DEL, DatumFormatError,
     "costandard table incomplete; missing column(s) ws"),
    ("A2", ("costandard", "2"), DEL, DatumFormatError,
     "costandard table incomplete; missing column(s) 2"),
    # poincare
    ("T", ("poincare",), [], DatumFormatError,
     "'poincare' must be an object keyed by parameter"),
    ("T", ("poincare", "ghost"), {}, DatumFormatError, "poincare['ghost']: unknown parameter"),
    ("T", ("poincare", "ghost"), 5, DatumFormatError, "poincare['ghost']: unknown parameter"),
    ("T", ("poincare", "ws"), 5, DatumFormatError,
     "poincare['ws']: bad series object 5"),  # located
    ("T", ("poincare", "ws"), {"num": "1", "den": [1], "x": 1}, DatumFormatError,
     "poincare['ws']: bad series object {'num': '1', 'den': [1], 'x': 1}"),  # located
    ("T", ("poincare", "ws"), {"num": 5}, DatumFormatError,
     "poincare['ws']: polynomial must be a string, got 5"),  # located
    ("T", ("poincare", "ws"), {"num": "1-"}, DatumFormatError,
     "poincare['ws']: cannot parse polynomial '1-' at offset 1"),  # located
    ("T", ("poincare", "ws"), {"den": "1"}, DatumFormatError,
     "poincare['ws']: bad series denominator '1'"),  # located
    ("T", ("poincare", "ws"), {"den": [1.5]}, DatumFormatError,
     "poincare['ws']: bad series denominator [1.5]"),  # located
    ("T", ("poincare", "ws"), {"den": [0]}, DatumFormatError,
     "poincare['ws']: denominator exponents must be positive"),  # located
    ("T", ("poincare", "ws"), DEL, DatumFormatError, "poincare table incomplete; missing ws"),
    ("A2", ("poincare", "e"), DEL, DatumFormatError, "poincare table incomplete; missing e"),
]


def _mutated_text(base, path, value):
    if base is None:
        return value
    obj = dm.builtin_datum(_BASES[base]).to_jsonable()
    *parents, key = path
    target = obj
    for k in parents:
        target = target[k]
    if key == "+":
        target.append(value)
    elif value is DEL:
        del target[key]
    else:
        target[key] = value
    return json.dumps(obj)


def _row_id(row):
    base, path, *_ = row
    return "text" if base is None else f"{base}:" + ".".join(map(str, path))


@pytest.mark.parametrize(
    "base,path,value,exc_type,message", LOAD_ERRORS, ids=[_row_id(r) for r in LOAD_ERRORS]
)
def test_load_error_messages_are_pinned(base, path, value, exc_type, message):
    with pytest.raises(KlvwbError) as info:
        dm.load_datum(_mutated_text(base, path, value))
    assert (type(info.value), str(info.value)) == (exc_type, message)


@pytest.mark.parametrize(
    "path,value,where",
    [
        (("orbits", 0, "id"), "0,1", "orbits[0]"),
        (("orbits", 2, "id"), "w\n", "orbits[2]"),
        (("params", 0, "id"), "p,0", "params[0]"),
        (("params", 1, "id"), "p\tInf", "params[1]"),
        (("params", 3, "id"), "ws\u2028", "params[3]"),
        (("params", 2, "id"), "w\x85t", "params[2]"),
        (("params", "+"), {"id": "x\nklvwb: forged", "orbit": "w", "local_system": "o"},
         "params[4]"),
    ],
)
def test_ids_that_could_break_a_line_or_a_field_are_refused(path, value, where):
    text = _mutated_text("T", path, value)
    bad = value["id"] if isinstance(value, dict) else value
    with pytest.raises(DatumFormatError) as info:
        dm.load_datum(text)
    assert str(info.value) == f"{where}: id {bad!r} holds a comma or a control character"
    assert len(str(info.value).splitlines()) == 1


def test_validation_detects_deleted_ascent_row():
    d = dm.builtin_datum("sl2-T")
    actions = {0: dict(d.actions[0])}
    del actions[0]["p0"]
    bad = clone(d, actions=actions)
    assert "thm-order-reachability" in failed_names(bad)


def test_validation_detects_unreachable_orbit():
    # replace the only ascent of sl2-N by a neutral row: orbit w unreachable
    d = dm.builtin_datum("sl2-N")
    actions = {0: dict(d.actions[0])}
    actions[0]["u"] = dm.CompactG()
    bad = clone(d, actions=actions)
    report = dm.validate_datum(bad)
    failing = {c.name for c in report.checks if not c.passed}
    assert "thm-order-reachability" in failing
    reach = next(c for c in report.checks if c.name == "thm-order-reachability")
    assert "unreachable" in reach.detail


def test_validation_detects_corrupted_coefficient():
    # q-2 becomes q-3 in the T-action on the open trivial parameter
    d = dm.builtin_datum("sl2-T")
    actions = {0: dict(d.actions[0])}
    actions[0]["wt"] = dm.ExplicitRow(
        coeffs=(
            ("p0", parse_poly("-1+q")),
            ("pInf", parse_poly("-1+q")),
            ("wt", parse_poly("-3+q")),
        )
    )
    bad = clone(d, actions=actions)
    assert "quadratic-relation" in failed_names(bad)


def test_validation_detects_broken_mirror():
    d = dm.builtin_datum("sl2-N")
    actions = {0: dict(d.actions[0])}
    actions[0]["wp"] = dm.DescentN(partner="wp", down="u")
    bad = clone(d, actions=actions)
    assert "link-mirroring" in failed_names(bad)


@pytest.mark.parametrize("field", ["orbits", "params"])
def test_a_datum_refuses_a_non_integer_dim(field):
    d = dm.builtin_datum("sl2-T")
    records = getattr(d, field)
    first = records[0]
    if field == "orbits":
        bad = dm.OrbitInfo(first.id, dim=0.5, closed=first.closed)
    else:
        bad = dm.Parameter(first.id, first.orbit, first.local_system, dim=0.5)
    half = (bad, *records[1:])
    kind = "orbit" if field == "orbits" else "parameter"
    message = f"^{kind} {records[0].id}: dim must be an integer, got 0.5$"
    with pytest.raises(DatumError, match=message):
        clone(d, **{field: half})


# The descriptor families, OrbitInfo, Parameter and CheckResult are frozen
# records (coxeter.Record).  These tests pin what they kept from the frozen
# dataclasses they replace.
FAMILY_FIELDS = {
    "CompactG": (),
    "AscentU": (("up", "str"),),
    "DescentU": (("down", "str"),),
    "AscentT": (("cross", "str"), ("up", "str")),
    "DescentT": (("downs", "tuple[str, str]"),),
    "DescentTNonParity": (),
    "AscentN": (("ups", "tuple[str, str]"),),
    "DescentN": (("partner", "str"), ("down", "str")),
    "ExplicitRow": (("coeffs", "tuple[tuple[str, LaurentPoly], ...]"),),
}


def test_every_family_reads_its_fields_from_its_annotations():
    # from_json tells a one-parameter field from a pair by the annotation text
    assert {name: cls._fields for name, cls in dm.DESCRIPTORS.items()} == FAMILY_FIELDS


def test_record_equality_is_type_sensitive():
    assert dm.AscentU(up="a") != dm.DescentU(down="a")
    assert dm.DescentT(downs=("a", "b")) != dm.AscentN(ups=("a", "b"))
    assert dm.CompactG() != dm.DescentTNonParity()
    assert dm.AscentU(up="a") == dm.AscentU("a")
    assert dm.CompactG() == dm.CompactG()
    assert dm.AscentU(up="a") != dm.AscentU(up="b")
    assert dm.AscentU(up="a") != "a"


def test_equal_records_hash_equal_whatever_the_keyword_order():
    records = [
        dm.DescentN(partner="x", down="y"),
        dm.DescentN(down="y", partner="x"),
        dm.DescentN("x", "y"),
        dm.DescentN("x", down="y"),
    ]
    assert all(r == records[0] for r in records)
    assert len({hash(r) for r in records}) == 1
    assert len(set(records)) == 1
    assert dm.DescentN(partner="y", down="x") not in set(records)
    p = dm.Parameter("p", "o", "triv", 1)
    q = dm.Parameter(dim=1, local_system="triv", orbit="o", id="p")
    assert p == q and hash(p) == hash(q)
    assert repr(q) == "Parameter(id='p', orbit='o', local_system='triv', dim=1)"


@pytest.mark.parametrize(
    "record",
    [
        dm.AscentT(cross="a", up="b"),
        dm.OrbitInfo("o", 1, False),
        dm.Parameter("p", "o", "triv", 1),
        dm.CheckResult("x", True),
        klv.ExpansionReport(1, (), ()),
    ],
    ids=lambda r: type(r).__name__,
)
def test_a_record_refuses_assignment(record):
    name = record._fields[0][0]
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, "changed")
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, name) == before


@pytest.mark.parametrize(
    "make",
    [
        lambda: dm.AscentU(),
        lambda: dm.AscentT(cross="a"),
        lambda: dm.Parameter("p", "o", "triv"),
        lambda: dm.CheckResult("x"),
        lambda: dm.AscentU(down="a"),
        lambda: dm.AscentU(up="a", down="b"),
        lambda: dm.AscentU("a", "b"),
        lambda: dm.AscentU("a", up="a"),
        lambda: dm.CompactG("a"),
    ],
    ids=[
        "missing",
        "missing-keyword",
        "missing-positional",
        "missing-before-default",
        "unknown",
        "unknown-extra",
        "too-many",
        "twice",
        "no-fields",
    ],
)
def test_a_missing_or_unknown_field_raises_type_error(make):
    with pytest.raises(TypeError):
        make()


def test_check_result_detail_defaults_to_empty():
    assert dm.CheckResult("x", True).detail == ""
    assert dm.CheckResult(name="x", passed=False).detail == ""
    assert dm.CheckResult("x", True) == dm.CheckResult("x", True, "")
    assert dm.CheckResult("x", True, "why").detail == "why"


def test_validation_detects_dim_closure_conflict():
    d = dm.builtin_datum("sl2-N")
    bad = clone(d, closure_pairs=(("u", "w"), ("w", "u")))
    assert "dim-closure-consistency" in failed_names(bad)


def test_validation_detects_bad_poincare():
    d = dm.builtin_datum("sl2-N")
    poincare = dict(d.poincare)
    poincare["u"] = dm.PoincareSeries(parse_poly("2"), [1])
    bad = clone(d, poincare=poincare)
    assert "poincare-normalization" in failed_names(bad)


def test_negative_poincare_exponent_is_flagged_without_expansion(monkeypatch):
    # the constant-term test would expand from q^-10000000 up to q^0
    def no_expand(self, lo, hi):
        raise AssertionError("expand called")

    monkeypatch.setattr(dm.PoincareSeries, "expand", no_expand)
    obj = dm.builtin_datum("sl2-T").to_jsonable()
    obj["poincare"]["p0"] = {"num": "q^-10000000", "den": [1]}
    report = dm.validate_datum(dm.load_datum(json.dumps(obj)))
    assert report.failed_names() == ["poincare-normalization"]
    assert report.checks[-1].detail == "poincare[p0] has negative exponents"


def test_validation_detects_non_involutive_costandard():
    d = dm.builtin_datum("sl2-T")
    costd = {k: dict(v) for k, v in d.costandard.items()}
    costd["ws"] = {"ws": parse_poly("1"), "p0": parse_poly("1")}
    bad = clone(d, costandard=costd)
    assert "costandard-involution" in failed_names(bad)


def test_s_star_examples():
    t = dm.builtin_datum("sl2-T")
    assert dm.s_star(t, 0, "0") == "w"
    assert dm.s_star(t, 0, "w") == "w"
    a1 = dm.builtin_datum("hecke-regular:A1")
    assert dm.s_star(a1, 0, "e") == "1"
    with pytest.raises(DatumError):
        dm.s_star(t, 0, "ghost")


def test_s_star_idempotent_over_builtins():
    for name in dm.BUILTIN_NAMES:
        d = dm.builtin_datum(name)
        for s in range(d.coxeter.rank):
            for o in d.orbits:
                w = dm.s_star(d, s, o.id)
                assert dm.s_star(d, s, w) == w


def test_s_star_conflicting_targets():
    d = dm.builtin_datum("sl2-T")
    orbits = list(d.orbits) + [dm.OrbitInfo("w2", 1, False)]
    params = list(d.params) + [dm.Parameter("x2", "w2", "triv", 1)]
    actions = {0: dict(d.actions[0])}
    # p0 claims to ascend to both open orbits at once
    actions[0]["p0"] = dm.ExplicitRow(
        coeffs=(("wt", parse_poly("1")), ("x2", parse_poly("1")))
    )
    actions[0]["x2"] = dm.CompactG()
    poincare = dict(d.poincare)
    poincare["x2"] = d.poincare["wt"]
    bad = clone(
        d,
        orbits=orbits,
        params=params,
        actions=actions,
        costandard=None,
        poincare=poincare,
        closure_pairs=d.closure_pairs + (("0", "w2"),),
    )
    with pytest.raises(DatumError):
        dm.s_star(bad, 0, "0")


def test_descriptor_columns_keep_entry_order():
    # no output shows the order of a T_s column's entries; this pins it
    cases = [
        (dm.CompactG(), [("a", "q")]),
        (dm.AscentU(up="u"), [("u", "1")]),
        (dm.DescentU(down="d"), [("d", "q"), ("a", "-1+q")]),
        (dm.AscentT(cross="c", up="u"), [("c", "1"), ("u", "1")]),
        (dm.DescentT(downs=("d", "e")), [("d", "-1+q"), ("e", "-1+q"), ("a", "-2+q")]),
        (dm.DescentTNonParity(), [("a", "-1")]),
        (dm.AscentN(ups=("u", "v")), [("a", "1"), ("u", "1"), ("v", "1")]),
        (dm.DescentN(partner="p", down="d"), [("d", "-1+q"), ("a", "-1+q"), ("p", "-1")]),
        (
            dm.ExplicitRow(coeffs=(("z", parse_poly("q")), ("b", parse_poly("0")), ("a", ONE))),
            [("z", "q"), ("a", "1")],
        ),
    ]
    for desc, want in cases:
        assert [(t, render_poly(c)) for t, c in desc.column("a")] == want, desc


def test_explicit_row_datum_end_to_end():
    # the escape hatch: rewrite every sl2-T descriptor as a raw row and the
    # whole pipeline (validation, solver, ascent inference) must agree
    from klvwb import hmodule as hm
    from klvwb import klv
    from klvwb.laurent import render_poly

    base = dm.builtin_datum("sl2-T")
    table = hm.build_action_table(base)
    obj = base.to_jsonable()
    obj["name"] = "sl2-T-explicit"
    for s in range(base.coxeter.rank):
        for p in base.params:
            col = table.columns[s][p.id]
            obj["actions"][str(s + 1)][p.id] = {
                "case": "ExplicitRow",
                "coeffs": {t: render_poly(c) for t, c in col},
            }
    d = dm.load_datum(json.dumps(obj))
    assert dm.validate_datum(d).ok
    assert dm.s_star(d, 0, "0") == "w"
    got = {k: dict(v.coords) for k, v in klv.klv_table(d).columns.items()}
    want = {k: dict(v.coords) for k, v in klv.klv_table(base).columns.items()}
    assert got == want


def test_hecke_regular_closure_is_bruhat():
    d = dm.builtin_datum("hecke-regular:A2")
    sys = d.coxeter
    for x in sys.elements():
        for y in sys.elements():
            assert d.leq_orbits(
                sys.element_token(x), sys.element_token(y)
            ) == sys.leq_bruhat(x, y)


def test_hecke_regular_other_types_validate():
    for label in ["G2", "C3", "D4"]:
        d = dm.builtin_datum(f"hecke-regular:{label}")
        report = dm.validate_datum(d)
        assert report.ok, (label, report.failed_names())


# ------------------------------------------------------------------ oracles


def _dense_costandard_check(d):
    """costandard-involution with beta^2 = id tested on every basis vector."""
    try:
        table, origin = hm.costandard_table(d)
    except MissingCostandard as exc:
        return dm.CheckResult(
            "costandard-involution",
            True,
            f"costandard absent and not derivable ({exc}); duality operations disabled",
        )
    except DatumError as exc:
        return dm.CheckResult("costandard-involution", False, str(exc))
    problems = []
    for col, rows in table.items():
        if rows.get(col) != ONE:
            problems.append(f"n[{col}] diagonal is not 1")
        for row in rows:
            if row != col and d.param_by_id[row].dim >= d.param_by_id[col].dim:
                problems.append(f"n[{col}] has non-lower term at {row}")
    if not problems:
        for p in d.params:
            v = hm.basis_vector(d, p.id)
            if hm.beta(hm.beta(v, d), d) != v:
                problems.append(f"beta^2 != id at {p.id}")
    return dm.CheckResult.of("costandard-involution", problems, f"table {origin}")


def _bar_ts_apply(table, s, v):
    """bar(T_s) . v = q^-1 T_s v + (q^-1 - 1) v, on ModuleVectors."""
    qinv = LaurentPoly.monomial(1, -1)
    return table.apply(s, v).scale(qinv) + v.scale(qinv - ONE)


def _dense_compatibility_problems(d):
    """The T_s-compatibility gate on ModuleVectors, one beta per side."""
    table = hm.build_action_table(d)
    problems = []
    for p in d.params:
        v = hm.basis_vector(d, p.id)
        bv = hm.beta(v, d)
        problems += [
            f"beta(T{s + 1} m[{p.id}]) != bar(T{s + 1}) beta(m[{p.id}])"
            for s in range(d.coxeter.rank)
            if hm.beta(table.apply(s, v), d) != _bar_ts_apply(table, s, bv)
        ]
    return problems


def _dense_derivation(d):
    """The costandard derivation on ModuleVectors, every candidate compared:
    the oracle of the derived path of hmodule.costandard_table."""
    table = hm.build_action_table(d)
    sources = hm.ascent_sources(d)
    beta_cols = {}
    for p in d.basis:
        if d.orbit_by_id[p.orbit].closed:
            beta_cols[p.id] = hm.ModuleVector(d, {p.id: LaurentPoly.monomial(1, -p.dim)})
    for p in d.basis:
        if p.id in beta_cols:
            continue
        candidates = []
        for s, src, others in sources.get(p.id, ()):
            if all(x in beta_cols for x in (src, *others)):
                v = _bar_ts_apply(table, s, beta_cols[src])
                for o in others:
                    v = v - beta_cols[o]
                candidates.append(v)
        if candidates:
            if any(other != candidates[0] for other in candidates[1:]):
                raise DatumError(f"duality propagation inconsistent at parameter {p.id}")
            beta_cols[p.id] = candidates[0]
    missing = [p.id for p in d.basis if p.id not in beta_cols]
    if missing:
        raise MissingCostandard(
            "costandard table absent and not derivable for parameter(s): " + ", ".join(missing)
        )
    return {
        p.id: dict(beta_cols[p.id].scale(LaurentPoly.monomial(1, p.dim)).coords)
        for p in d.basis
    }


def assert_derivation_matches_the_dense_one(d):
    """The derived costandard table equals _dense_derivation's, in column
    and row order too, or both raise the same error."""
    want = _outcome(_dense_derivation, d)
    got = _outcome(hm.costandard_table, d)
    if isinstance(want, dict):
        table, origin = got
        assert origin == "derived"
        assert [(c, list(r.items())) for c, r in table.items()] == [
            (c, list(r.items())) for c, r in want.items()
        ]
    else:
        assert got == want


def _dense_quadratic_and_braid(d):
    """validate_datum checks (3) and (4) on ModuleVectors."""
    table = hm.build_action_table(d)
    rank = d.coxeter.rank
    quadratic, braid = [], []
    for s in range(rank):
        for p in d.params:
            v = hm.basis_vector(d, p.id)
            tsv = table.apply(s, v)
            if table.apply(s, tsv) != tsv.scale(Q - ONE) + v.scale(Q):
                quadratic.append(f"(T+1)(T-q) != 0 at (s{s + 1}, {p.id})")
    for s in range(rank):
        for t in range(s + 1, rank):
            for p in d.params:
                left = right = hm.basis_vector(d, p.id)
                for k in range(d.coxeter.coxeter_m(s, t)):
                    left = table.apply(s if k % 2 == 0 else t, left)
                    right = table.apply(t if k % 2 == 0 else s, right)
                if left != right:
                    braid.append(f"braid (s{s + 1}, s{t + 1}) fails at {p.id}")
    return [
        dm.CheckResult.of("quadratic-relation", quadratic),
        dm.CheckResult.of("braid-relations", braid),
    ]


def _outcome(fn, d):
    """fn(d), or the type and message of the KlvwbError it raises."""
    try:
        return fn(d)
    except KlvwbError as exc:
        return type(exc), str(exc)


@st.composite
def _costandard_perturbations(draw):
    """A builtin's dump with one costandard entry set to a small polynomial
    (zero deletes it)."""
    name = draw(st.sampled_from(
        ["sl2-T", "sl2-N", "hecke-regular:A1", "hecke-regular:A2", "hecke-regular:B2"]
    ))
    obj = dm.builtin_datum(name).to_jsonable()
    pids = sorted(obj["costandard"])
    col, row = draw(st.sampled_from(pids)), draw(st.sampled_from(pids))
    obj["costandard"][col][row] = draw(st.sampled_from(
        ["0", "1", "-1", "2", "q", "1-q", "-1+q", "q^-1", "1-q^2", "q-q^2", "1-2q+q^2"]
    ))
    return obj


@settings(deadline=None, max_examples=120)
@given(obj=_costandard_perturbations())
def test_costandard_check_and_gate_agree_with_the_dense_ones(obj):
    d = dm.load_datum(obj)
    assert hm.compatibility_problems(d) == _dense_compatibility_problems(d)
    # a fresh datum, so the gate is not already memoized
    d = dm.load_datum(obj)
    assert dm._check_costandard(d) == _dense_costandard_check(d)


@st.composite
def _action_perturbations(draw):
    """A builtin's dump with one action row changed, so that the quadratic
    relation, the braid relations or the links may fail: the row rewritten
    as an ExplicitRow with one coefficient replaced, or swapped with the row
    of another parameter.  The costandard table is kept or dropped."""
    name = draw(st.sampled_from([
        "sl2-T",
        "sl2-N",
        "hecke-regular:A1",
        "hecke-regular:A2",
        "hecke-regular:B2",
        "hecke-regular:G2",
        "hecke-regular:A3",
    ]))
    d = dm.builtin_datum(name)
    obj = d.to_jsonable()
    s = draw(st.sampled_from(sorted(obj["actions"])))
    rows = obj["actions"][s]
    pids = sorted(rows)
    pid, other = draw(st.sampled_from(pids)), draw(st.sampled_from(pids))
    if draw(st.booleans()):
        column = hm.build_action_table(d).apply(int(s) - 1, hm.basis_vector(d, pid))
        coeffs = {t: render_poly(c) for t, c in column.coords.items()}
        coeffs[other] = draw(st.sampled_from(["0", "1", "-1", "2", "q", "-1+q", "-2+q", "q^2"]))
        rows[pid] = {"case": "ExplicitRow", "coeffs": coeffs}
    else:
        rows[pid], rows[other] = rows[other], rows[pid]
    if draw(st.booleans()):
        del obj["costandard"]
    return obj


@settings(deadline=None, max_examples=150)
@given(obj=_action_perturbations())
def test_gate_and_costandard_check_agree_with_the_dense_ones_on_faulty_actions(obj):
    d = dm.load_datum(obj)
    if "costandard" not in obj:
        assert_derivation_matches_the_dense_one(d)
    assert _outcome(hm.compatibility_problems, d) == _outcome(_dense_compatibility_problems, d)
    # a fresh datum, so the gate is not already memoized
    d = dm.load_datum(obj)
    assert dm._check_costandard(d) == _dense_costandard_check(d)
    checks = {c.name: c for c in dm.validate_datum(d).checks}
    assert [checks["quadratic-relation"], checks["braid-relations"]] == (
        _dense_quadratic_and_braid(d)
    )


def _cycle_dump(keep_costandard):
    """Four parameters on one closed orbit and two AscentT rows that form a
    cycle, T_1 m_x = m_c + m_y and T_1 m_y = m_d + m_x, so the row into x
    starts after x in basis order.  The ExplicitRow columns at c and d make
    (T_1 + 1)(T_1 - q) vanish everywhere, and the given costandard table
    makes beta compatible with T_1 at c and d but not on the cycle."""
    params = ("x", "y", "c", "d")
    obj = {
        "name": "ascent-cycle",
        "coxeter": {"type": "A1"},
        "orbits": [{"id": "O", "dim": 0, "closed": True}],
        "closure": [],
        "params": [{"id": p, "orbit": "O", "local_system": p} for p in params],
        "actions": {"1": {
            "x": {"case": "AscentT", "cross": "c", "up": "y"},
            "y": {"case": "AscentT", "cross": "d", "up": "x"},
            "c": {"case": "ExplicitRow", "coeffs": {"x": "-1+q", "y": "-1+q", "c": "-1+q", "d": "-1"}},
            "d": {"case": "ExplicitRow", "coeffs": {"x": "-1+q", "y": "-1+q", "d": "-1+q", "c": "-1"}},
        }},
        "poincare": {p: {"num": "1", "den": []} for p in params},
    }
    if keep_costandard:
        obj["costandard"] = {
            "x": {"x": "1"},
            "y": {"x": "-q^-1", "y": "1-q^-1", "c": "2-q^-1", "d": "-q^-1"},
            "c": {"c": "-1+q^-1"},
            "d": {"c": "-1+q^-1"},
        }
    return obj


def _retargeted_dump(name, s, pid, up):
    """A builtin's dump with the s row of pid made an AscentU to up."""
    obj = dm.builtin_datum(name).to_jsonable()
    obj["actions"][s][pid] = {"case": "AscentU", "up": up}
    return obj


@pytest.mark.parametrize(
    "obj",
    [
        # T_1 m_e = m_1 and T_1 m_1 = m_e: each parameter is the other's source
        _retargeted_dump("hecke-regular:A1", "1", "1", "e"),
        _retargeted_dump("hecke-regular:A2", "1", "1.2.1", "2.1"),
        _retargeted_dump("hecke-regular:B2", "2", "2.1.2", "1.2"),
        _cycle_dump(True),
        _cycle_dump(False),
    ],
    ids=["A1", "A2", "B2", "cycle-given", "cycle-closed"],
)
def test_relations_on_a_row_whose_source_comes_after_its_target(obj):
    d = dm.load_datum(obj)
    index = d.basis_index
    assert any(
        index[src] > index[up]
        for up, rows in hm.ascent_sources(d).items()
        for _, src, _ in rows
    )
    checks = {c.name: c for c in dm.validate_datum(d).checks}
    assert [checks["quadratic-relation"], checks["braid-relations"]] == (
        _dense_quadratic_and_braid(d)
    )
    assert _outcome(hm.compatibility_problems, d) == _outcome(_dense_compatibility_problems, d)
    assert checks["costandard-involution"] == _dense_costandard_check(dm.load_datum(obj))


def test_the_ascent_cycle_fails_compatibility_on_the_cycle_only():
    # the premise of the cycle case above: the quadratic relation holds, so
    # the induction applies, and only a parameter it skips would show the
    # failure at y
    d = dm.load_datum(_cycle_dump(True))
    assert hm.quadratic_problems(d) == []
    assert hm.unreached(d, (0,)) == ("c", "d", "x")
    assert hm.compatibility_problems(d) == [
        "beta(T1 m[x]) != bar(T1) beta(m[x])",
        "beta(T1 m[y]) != bar(T1) beta(m[y])",
    ]


def test_planted_non_target_costandard_entry_fails():
    # ws is no ascent target.  n[ws] = m_ws + c (m_p0 - m_pInf) keeps beta
    # compatible with T_1 for every c, and beta^2 = id at ws iff c = -q bar(c)
    obj = dm.builtin_datum("sl2-T").to_jsonable()
    for c, c_neg, ok in (("1", "-1", False), ("1-q", "-1+q", True)):
        obj["costandard"]["ws"] = {"ws": "1", "p0": c, "pInf": c_neg}
        d = dm.load_datum(obj)
        assert hm.compatibility_problems(d) == []
        check = dm._check_costandard(d)
        assert check == _dense_costandard_check(d)
        assert check.passed is ok
        assert check.detail == ("table given" if ok else "beta^2 != id at ws")


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "G2", "A3", "C3"])
def test_costandard_is_certified_from_the_identity_alone(label, monkeypatch):
    d = dm.builtin_datum(f"hecke-regular:{label}")
    seen = []
    beta = hm.beta
    monkeypatch.setattr(hm, "beta", lambda x, d: seen.append(set(x.terms)) or beta(x, d))
    assert dm._check_costandard(d) == dm.CheckResult("costandard-involution", True, "table given")
    assert seen[0] == {"e"} and len(seen) == 2
