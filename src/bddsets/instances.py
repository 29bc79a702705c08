"""Instance file parsing for the benchmark families.

Steiner, golfers and Hamming instances are plain key=value text:

    problem = steiner
    t = 2
    k = 3
    n = 7
    merged = true        # optional, default true

BACP adds one `course` line per course after the key=value block:

    problem = bacp
    periods = 8
    load_min = 2
    load_max = 17
    courses_min = 2
    courses_max = 10
    variant = hybrid_dual
    course 1 3
    course 2 4 1        # course 2, load 4, prerequisite course 1

Comments start with '#'; blank lines are ignored.
"""

from __future__ import annotations

from .models import (
    BACP_VARIANTS,
    BacpSpec,
    GolfersSpec,
    HammingSpec,
    Model,
    SteinerSpec,
    build_bacp,
    build_golfers,
    build_hamming,
    build_steiner,
)


class InstanceError(ValueError):
    """The instance text is malformed or inconsistent."""


_BOOLS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _parse_bool(raw, key):
    try:
        return _BOOLS[raw.lower()]
    except KeyError:
        raise InstanceError(f"{key} must be a boolean, got {raw!r}") from None


def _parse_int(raw, key):
    try:
        return int(raw)
    except ValueError:
        raise InstanceError(f"{key} must be an integer, got {raw!r}") from None


def parse_instance(text: str) -> dict:
    """Parse instance text into a dict with 'spec' and builder options."""
    pairs = {}
    courses = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "course":
            if len(parts) < 3:
                raise InstanceError(f"line {lineno}: course lines need an id and a load")
            cid = _parse_int(parts[1], "course id")
            load = _parse_int(parts[2], "course load")
            prereqs = [_parse_int(p, "prerequisite") for p in parts[3:]]
            courses.append((cid, load, prereqs))
            continue
        if "=" not in line:
            raise InstanceError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip().lower(), value.strip()
        if not value:
            raise InstanceError(f"line {lineno}: empty value for {key!r}")
        if key in pairs:
            raise InstanceError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = value

    problem = pairs.pop("problem", None)
    if problem is None:
        raise InstanceError("missing required key 'problem'")
    problem = problem.lower()

    def take_int(key, default=None):
        if key in pairs:
            return _parse_int(pairs.pop(key), key)
        if default is None:
            raise InstanceError(f"{problem} instances require {key!r}")
        return default

    try:
        if problem == "steiner":
            spec = SteinerSpec(take_int("t"), take_int("k"), take_int("n"))
            merged = _parse_bool(pairs.pop("merged", "true"), "merged")
            out = {"problem": problem, "spec": spec, "merged": merged}
        elif problem == "golfers":
            spec = GolfersSpec(take_int("w"), take_int("g"), take_int("s"))
            out = {"problem": problem, "spec": spec}
        elif problem == "hamming":
            spec = HammingSpec(
                take_int("l"), take_int("d"), take_int("w"), take_int("n", 1)
            )
            out = {"problem": problem, "spec": spec}
        elif problem == "bacp":
            if not courses:
                raise InstanceError("bacp instances need at least one course line")
            ids = [c for c, _, _ in courses]
            if sorted(ids) != list(range(1, len(ids) + 1)):
                raise InstanceError("course ids must be exactly 1..m")
            loads = [0] * len(ids)
            prereqs = []
            for cid, load, ps in courses:
                loads[cid - 1] = load
                prereqs.extend((cid, p) for p in ps)
            variant = pairs.pop("variant", "hybrid_dual").lower()
            if variant not in BACP_VARIANTS:
                raise InstanceError(f"unknown variant {variant!r}")
            spec = BacpSpec(
                loads=tuple(loads),
                periods=take_int("periods"),
                load_min=take_int("load_min"),
                load_max=take_int("load_max"),
                courses_min=take_int("courses_min"),
                courses_max=take_int("courses_max"),
                prereqs=tuple(prereqs),
            )
            out = {"problem": problem, "spec": spec, "variant": variant}
        else:
            raise InstanceError(f"unknown problem type {problem!r}")
    except ValueError as exc:
        if isinstance(exc, InstanceError):
            raise
        raise InstanceError(str(exc)) from exc
    if courses and problem != "bacp":
        raise InstanceError("course lines are only valid for bacp instances")
    if pairs:
        raise InstanceError(f"unknown keys: {', '.join(sorted(pairs))}")
    return out


def build_from_instance(parsed: dict, node_limit=None) -> Model:
    problem = parsed["problem"]
    spec = parsed["spec"]
    if problem == "steiner":
        return build_steiner(spec, merged=parsed["merged"], node_limit=node_limit)
    if problem == "golfers":
        return build_golfers(spec, node_limit=node_limit)
    if problem == "hamming":
        return build_hamming(spec, node_limit=node_limit)
    if problem == "bacp":
        return build_bacp(spec, variant=parsed["variant"], node_limit=node_limit)
    raise InstanceError(f"unknown problem type {problem!r}")
