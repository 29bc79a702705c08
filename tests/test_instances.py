import pytest

from bddsets.instances import (
    InstanceError,
    build_from_instance,
    parse_instance,
)
from bddsets.models import BacpSpec, GolfersSpec, HammingSpec, SteinerSpec, hamming_valid
from bddsets.propagate import State
from bddsets.search import solve

STEINER = """
# triple system
problem = steiner
t = 2
k = 3
n = 7
"""

GOLFERS = """
problem = golfers
w = 2
g = 5
s = 4
"""

HAMMING = """
problem = hamming
l = 6
d = 4
w = 3
n = 2
"""

BACP = """
problem = bacp
periods = 2
load_min = 1
load_max = 4
courses_min = 1
courses_max = 3
variant = dual
course 1 1
course 2 2 1   # requires course 1
course 3 1
course 4 2
"""


def test_parse_steiner():
    out = parse_instance(STEINER)
    assert out["problem"] == "steiner"
    assert out["spec"] == SteinerSpec(2, 3, 7)
    assert out["merged"] is True
    out = parse_instance(STEINER + "merged = no\n")
    assert out["merged"] is False


def test_parse_golfers_and_hamming():
    assert parse_instance(GOLFERS)["spec"] == GolfersSpec(2, 5, 4)
    out = parse_instance(HAMMING)
    assert out["spec"] == HammingSpec(6, 4, 3, 2)
    # n defaults to 1
    short = HAMMING.replace("n = 2\n", "")
    assert parse_instance(short)["spec"].n == 1


def test_parse_bacp():
    out = parse_instance(BACP)
    assert out["variant"] == "dual"
    spec = out["spec"]
    assert spec == BacpSpec(
        loads=(1, 2, 1, 2),
        periods=2,
        load_min=1,
        load_max=4,
        courses_min=1,
        courses_max=3,
        prereqs=((2, 1),),
    )
    # tabs separate fields as spaces do, course lines included
    assert parse_instance(BACP.replace(" ", "\t")) == out


def test_build_from_instance():
    m = build_from_instance(parse_instance(STEINER))
    assert len(m.vars) == 7
    m = build_from_instance(parse_instance(BACP))
    assert any(v.name == "X1" for v in m.vars)


def test_build_from_hamming_instance_solves_to_a_valid_code():
    parsed = parse_instance(HAMMING)
    m = build_from_instance(parsed)
    st = State(m.store, m.vars, m.constraints)
    res = solve(st, m.strategy, branch_vars=m.branch_vars)
    assert res.status == "sat"
    spec = parsed["spec"]
    words = [res.solutions[0][f"c{i + 1}"] for i in range(spec.n)]
    assert hamming_valid(spec, words)


BACP_HEADER = (
    "problem = bacp\nperiods = 2\nload_min = 0\nload_max = 2\n"
    "courses_min = 0\ncourses_max = 2\n"
)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("t = 2\nk = 3\nn = 7\n", "problem"),
        ("problem = steiner\nt = 2\nk = 3\n", "require"),
        ("problem = steiner\nt = 2\nt = 2\nk = 3\nn = 7\n", "duplicate"),
        ("problem = steiner\nt = two\nk = 3\nn = 7\n", "integer"),
        ("problem = steiner\nt =\nk = 3\nn = 7\n", "empty value"),
        ("problem = steiner\nt 2\nk = 3\nn = 7\n", "key = value"),
        ("problem = sudoku\n", "unknown problem"),
        ("problem = steiner\nt = 2\nk = 3\nn = 8\n", "inadmissible"),
        # cases that extend a long shared header are named: their generated
        # ids differ only after it, so a truncated listing conflates them
        pytest.param(STEINER + "extra = 1\n", "unknown keys", id="steiner-extra-key"),
        pytest.param(STEINER + "merged = maybe\n", "boolean", id="steiner-merged-maybe"),
        pytest.param(STEINER + "course 1 3\n", "only valid for bacp", id="steiner-course-line"),
        pytest.param(
            "problem = hamming\nl = 4\nd = 5\nw = 2\n", "exceeds the length",
            id="hamming-distance-above-length",
        ),
        pytest.param(BACP_HEADER, "course line", id="bacp-no-course"),
        pytest.param(
            BACP_HEADER + "course 1 1\ncourse 3 1\n", "exactly 1..m", id="bacp-course-ids-gap"
        ),
        pytest.param(
            BACP_HEADER + "course 1\n", "need an id and a load", id="bacp-course-no-load"
        ),
        pytest.param(
            BACP.replace("load_min = 1", "load_min = 5"), "load_min 5 exceeds load_max 4",
            id="bacp-load-min-above-max",
        ),
        pytest.param(
            BACP.replace("courses_min = 1", "courses_min = 4"),
            "courses_min 4 exceeds courses_max 3", id="bacp-courses-min-above-max",
        ),
        pytest.param(
            BACP.replace("variant = dual", "variant = nope"), "unknown variant 'nope'",
            id="bacp-unknown-variant",
        ),
        pytest.param(
            BACP.replace("periods = 2", "periods = 0"), "at least one period",
            id="bacp-no-period",
        ),
        pytest.param(
            BACP.replace("load_min = 1", "load_min = -1"), "non-negative",
            id="bacp-negative-load-min",
        ),
        pytest.param(
            BACP.replace("courses_min = 1", "courses_min = -1"), "non-negative",
            id="bacp-negative-courses-min",
        ),
        pytest.param(
            BACP.replace("course 3 1", "course 3 -1"), "non-negative",
            id="bacp-negative-course-load",
        ),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(InstanceError, match=fragment):
        parse_instance(text)

