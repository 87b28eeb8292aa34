"""Instance-description DSL and the renderers of every `gps` result.

The text format is line oriented with `#` comments and a mandatory statement
order (group, ring, module, then submodules and subsets), since degrees and
vector arities need the earlier declarations:

    group = Z2
    ring = Z
    module = Z@0 x Z@1
    submodule N = (4,0)
    submodule P = 0
    subset Y = {N, P}

Every byte `gps` prints is built here: the canonical text of a model
(parsing it gives the model back), the text and deterministic JSON (schema
1) of each result, and DOT for the specialization preorder of a finite
space.  Only the DOT renderer calls a function of `topology`; the others
read the results they are given and list a mask's points through
`FiniteSpace.indices` or `FiniteSpace.members`, so a light command loads
neither `topology` nor `maps`.
"""

from __future__ import annotations

import json
import re
from collections import Counter

from . import maps, topology
from .algebra import (
    AlgebraError,
    BaseRing,
    GradedModule,
    GradedSubmodule,
    GradingGroup,
    Ideal,
    Value,
)
from .spectra import Trilean


class ParseError(Exception):
    """An input error, at a line and column of the model text when it has one."""

    def __init__(self, line: int | None, column: int | None, message: str, token: str = ""):
        self.line = line
        self.column = column
        self.message = message
        self.token = token
        where = f"line {line}, column {column}: " if line else ""
        tok = f" near {token!r}" if token else ""
        super().__init__(f"{where}{message}{tok}")


class Model(Value):
    __slots__ = ("group", "ring", "module", "named_submodules", "named_subsets")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, group: GradingGroup, ring: BaseRing, module: GradedModule,
                 named_submodules: dict[str, GradedSubmodule] | None = None,
                 named_subsets: dict[str, list[str]] | None = None):
        super().__init__(group, ring, module,
                         {} if named_submodules is None else named_submodules,
                         {} if named_subsets is None else named_subsets)


_TOKEN = re.compile(r"\s*(?:(?P<name>[A-Za-z_]\w*)|(?P<int>-?\d+)|(?P<sym>[=@(){},]))")
_DECIMAL = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")


def read_int(text: str, source: str = "", least: int | None = None) -> int:
    """int(text), at least `least` if given, for an integer from outside: a
    model token, or the option or environment variable `source`.  A refusal
    raises ValueError(message, at most the first 10 characters of text)."""
    try:
        value = int(text)
    except ValueError:
        if not _DECIMAL.fullmatch(text):
            raise ValueError(f"{source} must be an integer", text[:10]) from None
        # well formed, so refused for its length alone
        message = f"integer too long ({sum(map(str.isdecimal, text))} digits)"
        raise ValueError(f"{source}: {message}" if source else message, text[:10]) from None
    if least is not None and value < least:
        raise ValueError(f"{source} must be at least {least}", text[:10])
    return value


class _Line:
    def __init__(self, lineno: int, text: str):
        self.lineno = lineno
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []  # (kind, value, column)
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m or m.end() == pos:
                stripped = text[pos:].lstrip()
                if not stripped:
                    break
                col = len(text) - len(stripped) + 1
                raise ParseError(lineno, col, "unrecognized input", stripped[:10])
            kind = m.lastgroup  # the one alternative that matched
            self.tokens.append((kind, m.group(kind), m.start(kind) + 1))
            pos = m.end()
        self.cursor = 0

    def peek(self):
        if self.cursor < len(self.tokens):
            return self.tokens[self.cursor]
        return ("eol", "", len(self.text) + 1)

    def next(self):
        tok = self.peek()
        self.cursor += 1
        return tok

    def expect(self, kind: str, value: str | None = None):
        k, v, col = self.next()
        if k != kind or (value is not None and v != value):
            want = value if value is not None else kind
            raise ParseError(self.lineno, col, f"expected {want}", v)
        return v, col

    def integer(self, digits: str, col: int) -> int:
        """read_int(digits), refused as a parse error at column col."""
        try:
            return read_int(digits)
        except ValueError as exc:
            raise ParseError(self.lineno, col, *exc.args) from None

    def require_end(self):
        if self.cursor < len(self.tokens):
            k, v, col = self.peek()
            raise ParseError(self.lineno, col, "unexpected trailing input", v)

    def error(self, message: str) -> ParseError:
        k, v, col = self.peek()
        return ParseError(self.lineno, col, message, v)


ORDER = ("group", "ring", "module")
"""The declarations, each once and in this order; any number of `submodule`
and `subset` statements follow the module."""


def _check_order(lineno: int, head: str, col: int, seen) -> None:
    """Raise unless statement `head` may follow the declarations in `seen`:
    its predecessor first, then a repeat, then a later declaration."""
    rank = ORDER.index(head) if head in ORDER else len(ORDER)
    if rank and ORDER[rank - 1] not in seen:
        message = f"{ORDER[rank - 1]} must precede {head}"
    elif head in seen:
        message = f"duplicate {head} statement"
    elif not seen.isdisjoint(ORDER[rank + 1:]):
        message = f"{head} must precede {' and '.join(ORDER[rank + 1:])}"
    else:
        return
    raise ParseError(lineno, col, message, head)


def _separated(line: _Line, item, sep: str) -> list:
    """Read `item (sep item)*`, item being a reader of one item."""
    items = [item()]
    while line.peek()[1] == sep:
        line.next()
        items.append(item())
    return items


def _int_tuple(line: _Line, arity: int, mismatch: str) -> tuple[int, ...]:
    """Read `( int, ... )` of `arity` entries; `mismatch` formats the error
    for another count and the arity."""
    _, col = line.expect("sym", "(")
    vals = _separated(line, lambda: line.integer(*line.expect("int")), ",")
    line.expect("sym", ")")
    if len(vals) != arity:
        raise ParseError(line.lineno, col, mismatch.format(len(vals), arity), "(")
    return tuple(vals)


def _z_order(line: _Line, what: str, bare: bool = True) -> tuple[int, str, int]:
    """Read a `Z<n>` token as (n, token, column); a bare `Z`, where allowed,
    reads as 0."""
    k, v, col = line.next()
    if k != "name" or not re.fullmatch(r"Z\d*" if bare else r"Z\d+", v):
        raise ParseError(line.lineno, col, f"expected {what}", v)
    return 0 if v == "Z" else line.integer(v[1:], col), v, col


def _cyclic(line: _Line) -> int:
    order, v, col = _z_order(line, "a cyclic group Z<k>", bare=False)
    if order < 1:
        raise ParseError(line.lineno, col, "cyclic order must be >= 1", v)
    return order


def _degree(line: _Line, group: GradingGroup):
    k, v, col = line.peek()
    arity = len(group.cyclic_orders)
    if k == "int":
        line.next()
        if arity != 1:
            raise ParseError(
                line.lineno, col, f"degree must be a {arity}-tuple for this group", v
            )
        return group.reduce((line.integer(v, col),))
    if v == "(":
        return group.reduce(_int_tuple(line, arity, "degree arity {} != group arity {}"))
    raise line.error("expected a degree")


def _factor(line: _Line, group: GradingGroup):
    order = _z_order(line, "a factor Z@deg or Z<n>@deg")[0]
    line.expect("sym", "@")
    return order, _degree(line, group)


def _zero(line: _Line) -> bool:
    """Whether the rest of the statement is the literal 0, read if so."""
    if line.peek()[:2] == ("int", "0"):
        line.next()
        return True
    return False


def parse_model(text: str) -> Model:
    seen: dict[str, object] = {}  # the declarations read, by keyword
    submodules: dict[str, GradedSubmodule] = {}
    subsets: dict[str, list[str]] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].rstrip()
        if not body.strip():
            continue
        line = _Line(lineno, body)
        kind, head, col = line.next()
        if kind != "name":
            raise ParseError(lineno, col, "expected a statement keyword", head)
        if head not in (*ORDER, "submodule", "subset"):
            raise ParseError(lineno, col, f"unknown statement {head!r}", head)
        _check_order(lineno, head, col, seen.keys())
        if head not in ORDER:
            name, ncol = line.expect("name")
            if name in submodules or name in subsets:
                raise ParseError(lineno, ncol, f"duplicate name {name!r}", name)
        line.expect("sym", "=")

        if head == "group":
            orders = _separated(line, lambda: _cyclic(line), "x")
            line.require_end()
            seen[head] = GradingGroup(tuple(orders))

        elif head == "ring":
            order, v, c = _z_order(line, "Z or Z<n>")
            try:
                seen[head] = BaseRing(order)
            except AlgebraError as exc:
                raise ParseError(lineno, c, str(exc), v)
            line.require_end()

        elif head == "module":
            group = seen["group"]
            factors = [] if _zero(line) else _separated(line, lambda: _factor(line, group), "x")
            line.require_end()
            try:
                seen[head] = GradedModule(seen["ring"], group, factors)
            except AlgebraError as exc:
                raise ParseError(lineno, 1, str(exc))

        elif head == "submodule":
            module = seen["module"]
            arity = len(module.factors)
            gens = None if _zero(line) else _separated(
                line, lambda: _int_tuple(line, arity, "vector arity {} != {} factors"), ","
            )
            line.require_end()
            submodules[name] = module.zero_submodule if gens is None else module.submodule(gens)

        else:
            line.expect("sym", "{")
            members = _separated(line, lambda: line.expect("name")[0], ",")
            line.expect("sym", "}")
            line.require_end()
            for m in members:
                if m not in submodules:
                    raise ParseError(lineno, ncol, f"unknown submodule name {m!r}", m)
            subsets[name] = members

    for head in ORDER:
        if head not in seen:
            raise ParseError(1, 1, f"missing {head} statement")
    return Model(seen["group"], seen["ring"], seen["module"], submodules, subsets)


# -- canonical text -----------------------------------------------------------


def model_text(model: Model) -> str:
    lines = [
        "group = " + " x ".join(f"Z{n}" for n in model.group.cyclic_orders),
        "ring = " + model.ring.text(),
        "module = " + model.module.text(),
    ]
    for name, N in model.named_submodules.items():
        gens = ", ".join("(" + ",".join(map(str, v)) + ")" for v in N.generator_vectors())
        lines.append(f"submodule {name} = {gens or 0}")
    for name, members in model.named_subsets.items():
        lines.append(f"subset {name} = {{" + ", ".join(members) + "}")
    return "\n".join(lines) + "\n"


# -- JSON -----------------------------------------------------------------------


def _submodule_json(N: GradedSubmodule):
    return [list(v) for v in N.generator_vectors()]


def _trilean_json(t: Trilean):
    out = {"value": t.label}
    if t.is_false and t.witness is not None:
        out["witness"] = _witness_json(t.witness)
    if t.is_unknown and t.reason:
        out["reason"] = t.reason
    return out


def _witness_json(w):
    if isinstance(w, GradedSubmodule):
        return {"submodule": _submodule_json(w)}
    if isinstance(w, Ideal):
        return {"ideal": w.gen}
    if isinstance(w, tuple):
        return [_witness_json(x) for x in w]
    return str(w)


def _point_json(p):
    """A point of a ring spectrum (an ideal) or of a module spectrum."""
    if isinstance(p, Ideal):
        return {"ideal": p.gen}
    return {"generators": _submodule_json(p), "text": p.text()}


def model_json(model: Model) -> dict:
    return {
        "schema": 1,
        "kind": "model",
        "group": list(model.group.cyclic_orders),
        "ring": model.ring.modulus,
        "module": [[o, list(d)] for o, d in model.module.factors],
        "submodules": {
            name: _submodule_json(N) for name, N in model.named_submodules.items()
        },
        "subsets": dict(model.named_subsets),
    }


def spectrum_json(kind: str, points) -> dict:
    return {
        "schema": 1,
        "kind": f"{kind}_spectrum",
        "points": [_point_json(p) for p in points],
    }


def radical_json(rad: GradedSubmodule) -> dict:
    return {"schema": 1, "kind": "radical", "top": False, **_point_json(rad)}


def variety_json(space: topology.FiniteSpace, mask: int, star: bool) -> dict:
    return {
        "schema": 1,
        "kind": "variety",
        "star": star,
        "members": space.indices(mask),
        "points": [p.text() for p in space.points],
    }


def report_json(space: topology.FiniteSpace, rep: topology.TopologyReport) -> dict:
    return {
        "schema": 1,
        "kind": "topology_report",
        "points": [_point_json(p) for p in space.points],
        "flags": {
            "connected": rep.connected,
            "irreducible": rep.irreducible,
            "t0": rep.t0,
            "t1": rep.t1,
            "sober": rep.sober,
            "spectral": rep.spectral,
            "quasi_compact": rep.quasi_compact,
            "trivial_topology": rep.trivial_topology,
            "empty": rep.is_empty,
        },
        "components": [space.indices(m) for m in rep.components],
        "generic_points": [
            {"closed": space.indices(m), "generic": list(pts)}
            for m, pts in rep.generic_points
        ],
    }


def map_json(res: maps.MapAnalysis) -> dict:
    return {
        "schema": 1,
        "kind": "map_analysis",
        "map": res.kind,
        "reduced_ring": res.reduced.ring.modulus,
        "points": [_point_json(p) for p in res.space.points],
        "images": [p.gen for p in res.images],
        "injective": _trilean_json(res.injective),
        "surjective": _trilean_json(res.surjective),
        "continuous": res.continuity_ok,
        "open_closed": _trilean_json(res.open_closed),
        "image_identities": res.image_identities_ok,
        "homeomorphism": _trilean_json(res.homeomorphism),
        "fibers": {
            str(p.gen): res.space.indices(mask) for p, mask in res.fibers
        },
    }


def check_report_json(results) -> dict:
    return {
        "schema": 1,
        "kind": "check_report",
        "results": [
            {
                "id": r.check_id,
                "status": r.status,
                "instance": r.instance,
                "vacuous": r.vacuous,
                "detail": r.detail,
            }
            for r in results
        ],
    }


def to_json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"


# -- result text ------------------------------------------------------------------


def submodules_text(subs) -> str:
    """One submodule per line, `(empty)` for none."""
    return "".join(N.text() + "\n" for N in subs) if subs else "(empty)\n"


def topology_text(space: topology.FiniteSpace, rep: topology.TopologyReport) -> str:
    def members(mask: int) -> str:
        return "{" + ", ".join(map(str, space.indices(mask))) + "}"

    lines = [f"points ({len(space.points)}):"]
    lines += [f"  [{i}] {p.text()}" for i, p in enumerate(space.points)]
    lines.append(f"closed sets ({len(space.closed_masks)}):")
    lines += ["  " + members(m) for m in space.closed_masks]
    lines.append("base:")
    lines += [f"  S_{r} = {members(m)}" for r, m in space.base]
    lines.append("components:")
    lines += ["  " + members(m) for m in rep.components]
    if rep.generic_points:
        lines.append("generic points:")
        lines += [f"  {members(m)} <- " + (", ".join(map(str, pts)) or "(none)")
                  for m, pts in rep.generic_points]
    flags = ("connected", "irreducible", "t0", "t1", "sober", "quasi_compact", "spectral",
             "trivial_topology")
    lines.append("flags: " + ", ".join(f"{k}={getattr(rep, k)}" for k in flags))
    return "\n".join(lines) + "\n"


def map_text(res: maps.MapAnalysis) -> str:
    lines = [
        f"map: {res.kind}",
        f"reduced ring: {res.reduced.ring.text()}",
        f"injective: {res.injective.label}",
        f"surjective: {res.surjective.label}",
        f"continuous: {str(res.continuity_ok).lower()}",
        f"open_closed: {res.open_closed.label}",
        f"homeomorphism: {res.homeomorphism.label}",
        "fibers:",
    ]
    for p, mask in res.fibers:
        members = ", ".join(q.text() for q in res.space.members(mask))
        lines.append(f"  {p.text()}: {{{members}}}")
    return "\n".join(lines) + "\n"


def check_text(results, stem: str) -> str:
    """One line per result, then the tally on `stem`."""
    lines = [
        f"{r.status.upper()}{' (vacuous)' if r.status == 'pass' and r.vacuous else ''} "
        f"{r.check_id}: {r.detail}"
        for r in results
    ]
    n = Counter(r.status for r in results)
    errored = f", {n['error']} errored" if n["error"] else ""
    lines.append(f"{n['pass']} passed, {n['fail']} failed, {n['skip']} skipped{errored} on {stem}")
    return "\n".join(lines) + "\n"


# -- DOT ------------------------------------------------------------------------


def space_dot(space: topology.FiniteSpace, name: str = "specialization") -> str:
    """Specialization classes: points of equal closure share a cluster.  The
    graph has no edges, since specialization is an equivalence on every space
    the library builds: a finite module's closed sets are unions of its
    per-prime pieces, and ring spaces are discrete."""
    # classes of equal closure, numbered in order of first appearance
    classes: dict[int, list[int]] = {}
    for i, closure in enumerate(topology.specialization_closures(space)):
        classes.setdefault(closure, []).append(i)

    def label(i: int) -> str:
        p = space.points[i]
        return p.text().replace('"', r"\"")

    out = [f"digraph {name} {{", "  rankdir=BT;", "  node [shape=box];"]
    for cls, mem in enumerate(classes.values()):
        if len(mem) > 1:
            out.append(f"  subgraph cluster_{cls} {{")
            out.append('    label="mutual specialization";')
            for i in mem:
                out.append(f'    p{i} [label="{label(i)}"];')
            out.append("  }")
        else:
            i = mem[0]
            out.append(f'  p{i} [label="{label(i)}"];')
    out.append("}")
    return "\n".join(out) + "\n"
