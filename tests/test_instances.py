import pytest

from bddsets.instances import (
    InstanceError,
    build_from_instance,
    parse_instance,
)
from bddsets.models import BacpSpec, GolfersSpec, HammingSpec, SteinerSpec

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


def test_build_from_instance():
    m = build_from_instance(parse_instance(STEINER))
    assert len(m.vars) == 7
    m = build_from_instance(parse_instance(BACP))
    assert any(v.name == "X1" for v in m.vars)


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
        (STEINER + "extra = 1\n", "unknown keys"),
        (STEINER + "merged = maybe\n", "boolean"),
        (STEINER + "course 1 3\n", "only valid for bacp"),
        ("problem = steiner\nt = 2\nk = 3\nn = 8\n", "inadmissible"),
        ("problem = bacp\nperiods = 2\nload_min = 0\nload_max = 2\n"
         "courses_min = 0\ncourses_max = 2\n", "course line"),
        ("problem = bacp\nperiods = 2\nload_min = 0\nload_max = 2\n"
         "courses_min = 0\ncourses_max = 2\ncourse 1 1\ncourse 3 1\n",
         "exactly 1..m"),
        ("problem = bacp\nperiods = 2\nload_min = 0\nload_max = 2\n"
         "courses_min = 0\ncourses_max = 2\ncourse 1\n", "need an id and a load"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(InstanceError, match=fragment):
        parse_instance(text)


def test_build_rejects_bad_variant():
    parsed = parse_instance(BACP.replace("variant = dual", "variant = nope"))
    with pytest.raises(InstanceError, match="variant"):
        build_from_instance(parsed)
