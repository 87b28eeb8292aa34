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
    # Spec of Z_8 on the ring side is a point; use a module with a real chain:
    # PS(Z_12) has nested varieties, so some specializations are one-way
    m = parse_model("group = Z2\nring = Z12\nmodule = Z12@0\n")
    sp = build_space(m.module)
    dot = space_dot(sp)
    assert "digraph" in dot


def test_ring_space_renders_to_dot_and_json():
    # the points of a ring spectrum are ideals, shown by their generators
    rs = build_ring_space(BaseRing(6))
    assert "digraph" in space_dot(rs)
    assert report_json(rs, analyze_space(rs))["points"] == [{"ideal": 2}, {"ideal": 3}]
