"""Instance-description DSL and renderers.

The text format is line oriented with `#` comments and a mandatory statement
order (group, ring, module, then submodules and subsets), since degrees and
vector arities need the earlier declarations:

    group = Z2
    ring = Z
    module = Z@0 x Z@1
    submodule N = (4,0)
    submodule P = 0
    subset Y = {N, P}

Renderers produce canonical text (parse . render . parse is the identity),
deterministic JSON (schema 1), and DOT for the specialization preorder of a
finite space.
"""

from __future__ import annotations

import json
import re

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
    def __init__(self, line: int, column: int, message: str, token: str = ""):
        self.line = line
        self.column = column
        self.message = message
        self.token = token
        where = f"line {line}, column {column}"
        tok = f" near {token!r}" if token else ""
        super().__init__(f"{where}: {message}{tok}")


class Model(Value):
    __slots__ = ("group", "ring", "module", "named_submodules", "named_subsets")
    __setattr__, __delattr__ = object.__setattr__, object.__delattr__

    def __init__(self, group: GradingGroup, ring: BaseRing, module: GradedModule,
                 named_submodules: dict[str, GradedSubmodule] | None = None,
                 named_subsets: dict[str, list[str]] | None = None):
        super().__init__(group, ring, module,
                         {} if named_submodules is None else named_submodules,
                         {} if named_subsets is None else named_subsets)

    def __eq__(self, other):
        return (
            isinstance(other, Model)
            and self.group == other.group
            and self.ring == other.ring
            and self.module == other.module
            and self.named_submodules == other.named_submodules
            and self.named_subsets == other.named_subsets
        )


_TOKEN = re.compile(r"\s*(?:(?P<name>[A-Za-z_]\w*)|(?P<int>-?\d+)|(?P<sym>[=@(){},]))")


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
            for kind in ("name", "int", "sym"):
                if m.group(kind) is not None:
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
        """int(digits), with Python's cap on the length of an integer string
        reported as a parse error rather than a ValueError."""
        try:
            return int(digits)
        except ValueError:
            raise ParseError(
                self.lineno, col, f"integer too long ({len(digits)} digits)", digits[:10]
            ) from None

    def expect_int(self) -> int:
        v, col = self.expect("int")
        return self.integer(v, col)

    def at_end(self) -> bool:
        return self.cursor >= len(self.tokens)

    def require_end(self):
        if not self.at_end():
            k, v, col = self.peek()
            raise ParseError(self.lineno, col, "unexpected trailing input", v)

    def error(self, message: str) -> ParseError:
        k, v, col = self.peek()
        return ParseError(self.lineno, col, message, v)


def _parse_cyclic(line: _Line) -> int:
    k, v, col = line.next()
    if k != "name" or not re.fullmatch(r"Z\d+", v):
        raise ParseError(line.lineno, col, "expected a cyclic group Z<k>", v)
    order = line.integer(v[1:], col)
    if order < 1:
        raise ParseError(line.lineno, col, "cyclic order must be >= 1", v)
    return order


def _parse_degree(line: _Line, group: GradingGroup):
    k, v, col = line.peek()
    arity = len(group.cyclic_orders)
    if k == "int":
        line.next()
        if arity != 1:
            raise ParseError(
                line.lineno, col, f"degree must be a {arity}-tuple for this group", v
            )
        return group.reduce((line.integer(v, col),))
    if (k, v) == ("sym", "("):
        line.next()
        vals = [line.expect_int()]
        while line.peek()[:2] == ("sym", ","):
            line.next()
            vals.append(line.expect_int())
        line.expect("sym", ")")
        if len(vals) != arity:
            raise ParseError(
                line.lineno, col, f"degree arity {len(vals)} != group arity {arity}", v
            )
        return group.reduce(tuple(vals))
    raise line.error("expected a degree")


def _parse_vector(line: _Line, arity: int):
    _, col = line.expect("sym", "(")
    vals = [line.expect_int()]
    while line.peek()[:2] == ("sym", ","):
        line.next()
        vals.append(line.expect_int())
    line.expect("sym", ")")
    if len(vals) != arity:
        raise ParseError(
            line.lineno, col, f"vector arity {len(vals)} != {arity} factors", "("
        )
    return tuple(vals)


def parse_model(text: str) -> Model:
    group = ring = module = None
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

        if head == "group":
            if group is not None:
                raise ParseError(lineno, col, "duplicate group statement", head)
            if ring is not None or module is not None:
                raise ParseError(lineno, col, "group must precede ring and module", head)
            line.expect("sym", "=")
            orders = [_parse_cyclic(line)]
            while line.peek()[1] == "x":
                line.next()
                orders.append(_parse_cyclic(line))
            line.require_end()
            group = GradingGroup(tuple(orders))

        elif head == "ring":
            if group is None:
                raise ParseError(lineno, col, "group must precede ring", head)
            if ring is not None:
                raise ParseError(lineno, col, "duplicate ring statement", head)
            if module is not None:
                raise ParseError(lineno, col, "ring must precede module", head)
            line.expect("sym", "=")
            k, v, c = line.next()
            if k != "name" or not re.fullmatch(r"Z\d*", v):
                raise ParseError(lineno, c, "expected Z or Z<n>", v)
            try:
                ring = BaseRing(0 if v == "Z" else line.integer(v[1:], c))
            except AlgebraError as exc:
                raise ParseError(lineno, c, str(exc), v)
            line.require_end()

        elif head == "module":
            if ring is None:
                raise ParseError(lineno, col, "ring must precede module", head)
            if module is not None:
                raise ParseError(lineno, col, "duplicate module statement", head)
            line.expect("sym", "=")
            factors = []
            while True:
                k, v, c = line.next()
                if k != "name" or not re.fullmatch(r"Z\d*", v):
                    raise ParseError(lineno, c, "expected a factor Z@deg or Z<n>@deg", v)
                order = 0 if v == "Z" else line.integer(v[1:], c)
                line.expect("sym", "@")
                degree = _parse_degree(line, group)
                factors.append((order, degree))
                if line.peek()[1] == "x":
                    line.next()
                    continue
                break
            line.require_end()
            try:
                module = GradedModule(ring, group, factors)
            except AlgebraError as exc:
                raise ParseError(lineno, 1, str(exc))

        elif head == "submodule":
            if module is None:
                raise ParseError(lineno, col, "module must precede submodule", head)
            name, ncol = line.expect("name")
            if name in submodules or name in subsets:
                raise ParseError(lineno, ncol, f"duplicate name {name!r}", name)
            line.expect("sym", "=")
            k, v, c = line.peek()
            if (k, v) == ("int", "0"):
                line.next()
                line.require_end()
                submodules[name] = module.zero_submodule
                continue
            gens = [_parse_vector(line, len(module.factors))]
            while line.peek()[:2] == ("sym", ","):
                line.next()
                gens.append(_parse_vector(line, len(module.factors)))
            line.require_end()
            submodules[name] = module.submodule(gens)

        elif head == "subset":
            if module is None:
                raise ParseError(lineno, col, "module must precede subset", head)
            name, ncol = line.expect("name")
            if name in submodules or name in subsets:
                raise ParseError(lineno, ncol, f"duplicate name {name!r}", name)
            line.expect("sym", "=")
            line.expect("sym", "{")
            members = [line.expect("name")[0]]
            while line.peek()[:2] == ("sym", ","):
                line.next()
                members.append(line.expect("name")[0])
            line.expect("sym", "}")
            line.require_end()
            for m in members:
                if m not in submodules:
                    raise ParseError(lineno, ncol, f"unknown submodule name {m!r}", m)
            subsets[name] = members

        else:
            raise ParseError(lineno, col, f"unknown statement {head!r}", head)

    if group is None:
        raise ParseError(1, 1, "missing group statement")
    if ring is None:
        raise ParseError(1, 1, "missing ring statement")
    if module is None:
        raise ParseError(1, 1, "missing module statement")
    return Model(group, ring, module, submodules, subsets)


# -- canonical text -----------------------------------------------------------


def _degree_text(group: GradingGroup, d) -> str:
    if len(group.cyclic_orders) == 1:
        return str(d[0])
    return "(" + ",".join(map(str, d)) + ")"


def model_text(model: Model) -> str:
    lines = []
    lines.append("group = " + " x ".join(f"Z{n}" for n in model.group.cyclic_orders))
    lines.append("ring = " + model.ring.text())
    parts = [
        ("Z" if o == 0 else f"Z{o}") + "@" + _degree_text(model.group, d)
        for o, d in model.module.factors
    ]
    lines.append("module = " + " x ".join(parts))
    for name, N in model.named_submodules.items():
        gens = N.generator_vectors()
        if not gens:
            lines.append(f"submodule {name} = 0")
        else:
            lines.append(
                f"submodule {name} = "
                + ", ".join("(" + ",".join(map(str, v)) + ")" for v in gens)
            )
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


def _point_json(space: topology.FiniteSpace, p):
    if space.kind == topology.RINGSPEC:
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


def space_json(space: topology.FiniteSpace) -> dict:
    return {
        "schema": 1,
        "kind": "space",
        "space": space.kind,
        "points": [_point_json(space, p) for p in space.points],
        "closed_sets": [
            space.point_set(m).indices() for m in space.closed_masks
        ],
        "base": [
            {"r": r, "open": space.point_set(m).indices()} for r, m in space.base
        ],
    }


def report_json(space: topology.FiniteSpace, rep: topology.TopologyReport) -> dict:
    return {
        "schema": 1,
        "kind": "topology_report",
        "points": [_point_json(space, p) for p in space.points],
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
        "components": [space.point_set(m).indices() for m in rep.components],
        "generic_points": [
            {"closed": space.point_set(m).indices(), "generic": list(pts)}
            for m, pts in rep.generic_points
        ],
    }


def map_json(res: maps.MapAnalysis) -> dict:
    return {
        "schema": 1,
        "kind": "map_analysis",
        "map": res.kind,
        "reduced_ring": res.reduced.ring.modulus,
        "points": [_point_json(res.space, p) for p in res.space.points],
        "images": [p.gen for p in res.images],
        "injective": _trilean_json(res.injective),
        "surjective": _trilean_json(res.surjective),
        "continuous": res.continuity_ok,
        "open_closed": _trilean_json(res.open_closed),
        "image_identities": res.image_identities_ok,
        "homeomorphism": _trilean_json(res.homeomorphism),
        "fibers": {
            str(p.gen): res.space.point_set(mask).indices() for p, mask in res.fibers
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


# -- DOT ------------------------------------------------------------------------


def space_dot(space: topology.FiniteSpace, name: str = "specialization") -> str:
    """Specialization preorder: an edge i -> j when j lies in the closure of
    {i}; mutually specializing points collapse into a cluster; transitive
    edges between classes are pruned."""
    closures = topology.specialization_closures(space)
    n = len(space.points)
    # classes of equal closure
    class_of: dict[int, int] = {}
    reps: list[int] = []
    for i in range(n):
        for r in reps:
            if closures[r] == closures[i]:
                class_of[i] = class_of[r]
                break
        else:
            class_of[i] = len(reps)
            reps.append(i)
    members: dict[int, list[int]] = {}
    for i in range(n):
        members.setdefault(class_of[i], []).append(i)

    # class DAG: a -> b when b's points lie in the closure of a's points
    edges = set()
    for a, rep_a in enumerate(reps):
        for b, rep_b in enumerate(reps):
            if a != b and closures[rep_a] >> rep_b & 1:
                edges.add((a, b))
    reduced = {
        (a, b)
        for a, b in edges
        if not any((a, c) in edges and (c, b) in edges for c in range(len(reps)))
    }

    def label(i: int) -> str:
        p = space.points[i]
        return p.text().replace('"', r"\"")

    out = [f"digraph {name} {{"]
    out.append('  rankdir=BT;')
    out.append('  node [shape=box];')
    for cls, mem in sorted(members.items()):
        if len(mem) > 1:
            out.append(f"  subgraph cluster_{cls} {{")
            out.append('    label="mutual specialization";')
            for i in mem:
                out.append(f'    p{i} [label="{label(i)}"];')
            out.append("  }")
        else:
            i = mem[0]
            out.append(f'  p{i} [label="{label(i)}"];')
    for a, b in sorted(reduced):
        out.append(f"  p{reps[a]} -> p{reps[b]};")
    out.append("}")
    return "\n".join(out) + "\n"


# -- dispatcher -------------------------------------------------------------------


def render(obj, fmt: str, space: topology.FiniteSpace | None = None) -> str:
    """Render a model, space, report or analysis to canonical text, JSON or
    DOT.  TopologyReport needs its space passed alongside."""
    if fmt == "canonical_text":
        if isinstance(obj, Model):
            return model_text(obj)
        raise AlgebraError("canonical text is defined for models only")
    if fmt == "json":
        # models and check reports first: they need neither maps nor topology
        if isinstance(obj, Model):
            return to_json_text(model_json(obj))
        if isinstance(obj, list):
            return to_json_text(check_report_json(obj))
        if isinstance(obj, topology.FiniteSpace):
            return to_json_text(space_json(obj))
        if isinstance(obj, topology.TopologyReport):
            if space is None:
                raise AlgebraError("rendering a report needs its space")
            return to_json_text(report_json(space, obj))
        if isinstance(obj, maps.MapAnalysis):
            return to_json_text(map_json(obj))
        raise AlgebraError(f"no JSON rendering for {type(obj).__name__}")
    if fmt == "dot":
        if isinstance(obj, topology.FiniteSpace):
            return space_dot(obj)
        raise AlgebraError("DOT output is defined for spaces only")
    raise AlgebraError(f"unknown format {fmt!r}")
