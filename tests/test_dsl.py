import pytest

from gpspec.algebra import BaseRing, GradingGroup
from gpspec.dsl import (
    ParseError,
    model_json,
    model_text,
    parse_model,
    report_json,
    space_dot,
    to_json_text,
)
from gpspec.topology import analyze_space, build_ring_space, build_space

Z6_TEXT = """\
# the one-factor instance over Z6
group = Z2
ring = Z6
module = Z6@0
submodule N3 = (3)
submodule N2 = (2)
submodule Z0 = 0
subset Y = {N3, N2}
"""

ZXZ_TEXT = """\
group = Z2
ring = Z
module = Z@0 x Z@1
submodule N = (4,0)
submodule NP = (0,4)
submodule P = 0
"""


def test_parse_basic():
    m = parse_model(ZXZ_TEXT)
    assert m.group == GradingGroup((2,))
    assert m.ring == BaseRing(0)
    assert m.module.factors == ((0, (0,)), (0, (1,)))
    assert m.named_submodules["N"] == m.module.submodule([(4, 0)])
    assert m.named_submodules["P"].is_zero


def test_parse_degrees_and_groups():
    m = parse_model(
        "group = Z2 x Z2\nring = Z\nmodule = Z2@(1,0) x Z4@(0,1)\n"
    )
    assert m.group.cyclic_orders == (2, 2)
    assert m.module.factors == ((2, (1, 0)), (4, (0, 1)))


def test_parse_comments_and_blanks():
    m = parse_model(Z6_TEXT)
    assert set(m.named_submodules) == {"N3", "N2", "Z0"}
    assert m.named_subsets == {"Y": ["N3", "N2"]}


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as e:
        parse_model("group = Z2\nmodule = Z@0\n")
    assert e.value.line == 2 and "ring must precede module" in e.value.message

    with pytest.raises(ParseError) as e:
        parse_model("ring = Z\n")
    assert "group must precede ring" in e.value.message

    with pytest.raises(ParseError) as e:
        parse_model("group = Z2\nring = Z\nmodule = Z@0\nsubmodule N = (1,2)\n")
    assert e.value.line == 4 and "arity" in e.value.message

    with pytest.raises(ParseError) as e:
        parse_model("group = Z2\nring = Z6\nmodule = Z4@0\n")
    assert e.value.line == 3 and "does not divide" in e.value.message

    with pytest.raises(ParseError) as e:
        parse_model("group = Z2\nring = Z\nmodule = Z@0\nsubset Y = {Q}\n")
    assert "unknown submodule" in e.value.message

    with pytest.raises(ParseError) as e:
        parse_model("group = Z2\nring = Z\nmodule = Z@0\n??")
    assert e.value.line == 4


G = "group = Z2\n"
H = G + "ring = Z\n"
M = H + "module = Z@0 x Z@1\n"
N = M + "submodule N = 0\n"
HUGE = "9" * 5000

# (text, line, column, message, token) of every parse error branch: the
# tokenizer, keywords, statement order and duplicates, each statement's
# integers, names, symbols, arities and trailing input, the errors of
# BaseRing and GradedModule, unknown names and statements, and each missing
# declaration
PARSE_ERRORS = [
    (G + "ring = Z ; x\n", 2, 10, 'unrecognized input', '; x'),
    (H + "module = Z@0 $\n", 3, 14, 'unrecognized input', '$'),
    ("= Z2\n", 1, 1, 'expected a statement keyword', '='),
    (G + "(ring) = Z\n", 2, 1, 'expected a statement keyword', '('),
    ("ring = Z\n", 1, 1, 'group must precede ring', 'ring'),
    (G + "module = Z@0\n", 2, 1, 'ring must precede module', 'module'),
    ("submodule N = 0\n", 1, 1, 'module must precede submodule', 'submodule'),
    (H + "subset Y = {N}\n", 3, 1, 'module must precede subset', 'subset'),
    (G + "group = Z3\n", 2, 1, 'duplicate group statement', 'group'),
    (H + "ring = Z6\n", 3, 1, 'duplicate ring statement', 'ring'),
    (M + "module = Z@0\n", 4, 1, 'duplicate module statement', 'module'),
    (M + "group = Z2\n", 4, 1, 'duplicate group statement', 'group'),
    (M + "ring = Z\n", 4, 1, 'duplicate ring statement', 'ring'),
    ("group = Z0\n", 1, 9, 'cyclic order must be >= 1', 'Z0'),
    ("group = 2\n", 1, 9, 'expected a cyclic group Z<k>', '2'),
    ("group = Z\n", 1, 9, 'expected a cyclic group Z<k>', 'Z'),
    ("group = Z2 x\n", 1, 13, 'expected a cyclic group Z<k>', ''),
    ("group = Z2 x Y3\n", 1, 14, 'expected a cyclic group Z<k>', 'Y3'),
    ("group Z2\n", 1, 7, 'expected =', 'Z2'),
    ("group = Z2 Z3\n", 1, 12, 'unexpected trailing input', 'Z3'),
    ("group = Z" + HUGE + "\n", 1, 9, 'integer too long (5000 digits)', '9999999999'),
    (G + "ring = Z" + HUGE + "\n", 2, 8, 'integer too long (5000 digits)', '9999999999'),
    (H + "module = Z" + HUGE + "@0\n", 3, 10, 'integer too long (5000 digits)', '9999999999'),
    (H + "module = Z@" + HUGE + "\n", 3, 12, 'integer too long (5000 digits)', '9999999999'),
    ("group = Z2 x Z2\nring = Z\nmodule = Z@(1," + HUGE + ")\n", 3, 15, 'integer too long (5000 digits)', '9999999999'),
    (M + "submodule N = (" + HUGE + ",0)\n", 4, 16, 'integer too long (5000 digits)', '9999999999'),
    (M + "submodule N = (-" + HUGE + ",0)\n", 4, 16, 'integer too long (5000 digits)', '-999999999'),
    (G + "ring = Q\n", 2, 8, 'expected Z or Z<n>', 'Q'),
    (G + "ring = 6\n", 2, 8, 'expected Z or Z<n>', '6'),
    (G + "ring Z\n", 2, 6, 'expected =', 'Z'),
    (G + "ring = Z1\n", 2, 8, 'ring modulus must be 0 or >= 2: 1', 'Z1'),
    (G + "ring = Z Z\n", 2, 10, 'unexpected trailing input', 'Z'),
    (H + "module Z@0\n", 3, 8, 'expected =', 'Z'),
    (H + "module =\n", 3, 9, 'expected a factor Z@deg or Z<n>@deg', ''),
    (H + "module = Q@0\n", 3, 10, 'expected a factor Z@deg or Z<n>@deg', 'Q'),
    (H + "module = Z@0 x\n", 3, 15, 'expected a factor Z@deg or Z<n>@deg', ''),
    (H + "module = Z0\n", 3, 12, 'expected @', ''),
    (H + "module = Z 0\n", 3, 12, 'expected @', '0'),
    (H + "module = Z@x\n", 3, 12, 'expected a degree', 'x'),
    ("group = Z2 x Z2\nring = Z\nmodule = Z@0\n", 3, 12, 'degree must be a 2-tuple for this group', '0'),
    ("group = Z2 x Z2\nring = Z\nmodule = Z@(1)\n", 3, 12, 'degree arity 1 != group arity 2', '('),
    (H + "module = Z@(1,\n", 3, 15, 'expected int', ''),
    (H + "module = Z@(1 1)\n", 3, 15, 'expected )', '1'),
    (H + "module = Z1@0\n", 3, 1, 'factor order must be 0 or >= 2: 1', ''),
    (G + "ring = Z6\nmodule = Z4@0 x Z@1\n", 3, 1, 'factor order 4 does not divide ring modulus 6', ''),
    (H + "module = Z1@0 x Z@(1,1)\n", 3, 19, 'degree arity 2 != group arity 1', '('),
    (H + "module = Z@0 Z@1\n", 3, 14, 'unexpected trailing input', 'Z'),
    (H + "module = Z1@0 Z@1\n", 3, 15, 'unexpected trailing input', 'Z'),
    (M + "submodule = 0\n", 4, 11, 'expected name', '='),
    (M + "submodule 3 = 0\n", 4, 11, 'expected name', '3'),
    (M + "submodule N 0\n", 4, 13, 'expected =', '0'),
    (M + "submodule N = 4\n", 4, 15, 'expected (', '4'),
    (M + "submodule N = (1,0\n", 4, 19, 'expected )', ''),
    (M + "submodule N = (1,0),\n", 4, 21, 'expected (', ''),
    (M + "submodule N = (1)\n", 4, 15, 'vector arity 1 != 2 factors', '('),
    (M + "submodule N = 0 0\n", 4, 17, 'unexpected trailing input', '0'),
    (M + "submodule N = (1,0) (0,1)\n", 4, 21, 'unexpected trailing input', '('),
    (N + "submodule N = (1,0)\n", 5, 11, "duplicate name 'N'", 'N'),
    (N + "subset Y = {N}\nsubmodule Y = 0\n", 6, 11, "duplicate name 'Y'", 'Y'),
    (N + "subset N = {N}\n", 5, 8, "duplicate name 'N'", 'N'),
    (N + "subset Y {N}\n", 5, 10, 'expected =', '{'),
    (N + "subset Y = N\n", 5, 12, 'expected {', 'N'),
    (N + "subset Y = {N\n", 5, 14, 'expected }', ''),
    (N + "subset Y = {N,}\n", 5, 15, 'expected name', '}'),
    (N + "subset Y = {N} x\n", 5, 16, 'unexpected trailing input', 'x'),
    (N + "subset Y = {N, Q}\n", 5, 8, "unknown submodule name 'Q'", 'Q'),
    (N + "subset Y = {Q, R}\n", 5, 8, "unknown submodule name 'Q'", 'Q'),
    (G + "rings = Z\n", 2, 1, "unknown statement 'rings'", 'rings'),
    (M + "submodules N = 0\n", 4, 1, "unknown statement 'submodules'", 'submodules'),
    ("", 1, 1, 'missing group statement', ''),
    ("# only a comment\n\n", 1, 1, 'missing group statement', ''),
    (G, 1, 1, 'missing ring statement', ''),
    (H, 1, 1, 'missing module statement', ''),
    ("ring = Z\ngroup = Z2\n", 1, 1, 'group must precede ring', 'ring'),
]


def test_every_parse_error_keeps_its_position_message_and_token():
    got = []
    for text, *_ in PARSE_ERRORS:
        with pytest.raises(ParseError) as e:
            parse_model(text)
        got.append((text, e.value.line, e.value.column, e.value.message, e.value.token))
    assert got == PARSE_ERRORS


def test_huge_integers_are_parse_errors():
    # every integer position: group order, ring modulus, factor order,
    # degree, generator coordinate
    huge = "9" * 5000
    texts = [
        f"group = Z{huge}\n",
        f"group = Z2\nring = Z{huge}\n",
        f"group = Z2\nring = Z\nmodule = Z{huge}@0\n",
        f"group = Z2\nring = Z\nmodule = Z@{huge}\n",
        f"group = Z2\nring = Z\nmodule = Z@0\nsubmodule N = ({huge})\n",
    ]
    for text in texts:
        with pytest.raises(ParseError) as e:
            parse_model(text)
        assert e.value.line == text.count("\n")
        assert e.value.message == "integer too long (5000 digits)"


def test_parse_degree_arity_enforced():
    with pytest.raises(ParseError) as e:
        parse_model("group = Z2 x Z2\nring = Z\nmodule = Z@0\n")
    assert "tuple" in e.value.message


def test_order_one_factor_rejected():
    with pytest.raises(ParseError) as e:
        parse_model("group = Z2\nring = Z\nmodule = Z1@0\n")
    assert e.value.line == 3


def test_ring_z1_rejected():
    with pytest.raises(ParseError):
        parse_model("group = Z2\nring = Z1\nmodule = Z@0\n")


def test_duplicate_names_rejected():
    bad = "group = Z2\nring = Z\nmodule = Z@0\nsubmodule N = 0\nsubmodule N = (2)\n"
    with pytest.raises(ParseError) as e:
        parse_model(bad)
    assert "duplicate name" in e.value.message


def test_round_trip_identity():
    for text in (Z6_TEXT, ZXZ_TEXT):
        m = parse_model(text)
        canon = model_text(m)
        m2 = parse_model(canon)
        assert m2 == m
        assert model_text(m2) == canon  # idempotent


def test_mixed_generator_canonicalizes():
    text = "group = Z2\nring = Z\nmodule = Z@0 x Z@1\nsubmodule W = (2,3)\n"
    m = parse_model(text)
    # the mixed generator splits; the canonical echo shows the split form
    canon = model_text(m)
    assert "(2,0)" in canon and "(0,3)" in canon
    assert parse_model(canon) == m


def test_json_stability():
    m = parse_model(Z6_TEXT)
    j1 = to_json_text(model_json(m))
    j2 = to_json_text(model_json(parse_model(Z6_TEXT)))
    assert j1 == j2
    sp, sp2 = build_space(m.module), build_space(parse_model(Z6_TEXT).module)
    assert report_json(sp, analyze_space(sp)) == report_json(sp2, analyze_space(sp2))
    assert '"schema": 1' in j1


def test_dot_z6_discrete():
    m = parse_model(Z6_TEXT)
    sp = build_space(m.module)
    dot = space_dot(sp)
    assert dot.count("->") == 0
    assert dot.count("label=") >= 2
    assert "cluster" not in dot


def test_dot_z8_cluster():
    m = parse_model("group = Z2\nring = Z8\nmodule = Z8@0\n")
    sp = build_space(m.module)
    dot = space_dot(sp)
    assert "cluster" in dot  # all three points mutually specialize
    assert dot.count("->") == 0


def test_dot_chain():
    # PS(Z_12) has nested points, 4Z12 in 2Z12, yet no specialization is
    # one-way: the closure of a point is every point over its ring prime, so
    # the DOT clusters 4Z12 with 2Z12 over (2), leaves 3Z12 alone over (3)
    # and draws no edge
    m = parse_model("group = Z2\nring = Z12\nmodule = Z12@0\n")
    sp = build_space(m.module)
    dot = space_dot(sp)
    assert "digraph" in dot
    assert dot.count("->") == 0


def test_ring_space_renders_to_dot_and_json():
    # the points of a ring spectrum are ideals, shown by their generators
    rs = build_ring_space(BaseRing(6))
    assert "digraph" in space_dot(rs)
    assert report_json(rs, analyze_space(rs))["points"] == [{"ideal": 2}, {"ideal": 3}]
