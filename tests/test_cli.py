import csv
import io
import json
import weakref
from pathlib import Path

import pytest

from bddsets import cli

STEINER = "problem = steiner\nt = 2\nk = 3\nn = 7\n"
GOLFERS = "problem = golfers\nw = 2\ng = 5\ns = 4\n"
HAMMING = "problem = hamming\nl = 3\nd = 3\nw = 1\n"
ROOT = Path(__file__).parent.parent


def write(tmp_path, text, name="inst.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_cli(args):
    out = io.StringIO()
    code = cli.run(cli.make_parser().parse_args(args), out=out)
    return code, out.getvalue()


def report_rows(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    assert rows, text
    return rows


def test_first_solution_report(tmp_path):
    path = write(tmp_path, STEINER)
    code, out = run_cli([path])
    assert code == 0
    (row,) = report_rows(out)
    assert row["problem"] == "steiner"
    assert row["mode"] == "domain"
    assert row["status"] == "ok"
    assert row["solutions"] == "1"
    assert row["fails"] == "0"
    assert int(row["peak_nodes"]) > 2
    float(row["time_s"])


def test_main_writes_to_the_current_stdout(capsys):
    # main() resolves stdout when it runs, so a redirect made after import
    # receives the report
    path = str(ROOT / "instances" / "steiner-2-3-7.txt")
    assert cli.main([path]) == 0
    (row,) = report_rows(capsys.readouterr().out)
    assert row["problem"] == "steiner"
    assert row["status"] == "ok"
    assert row["solutions"] == "1"


def test_all_solutions_count(tmp_path):
    path = write(tmp_path, STEINER)
    code, out = run_cli([path, "--target", "all"])
    (row,) = report_rows(out)
    assert row["solutions"] == "30"
    assert row["fails"] == "47"


def test_bounds_mode_fail_count(tmp_path):
    path = write(tmp_path, GOLFERS)
    code, out = run_cli([path, "--mode", "bounds"])
    (row,) = report_rows(out)
    assert row["status"] == "ok"
    assert row["fails"] == "30"


def test_strategy_overrides_appear_in_report(tmp_path):
    path = write(tmp_path, STEINER)
    _, out = run_cli(
        [path, "--var-order", "first-fail", "--value-order", "largest",
         "--branch", "in-first"]
    )
    (row,) = report_rows(out)
    assert row["var_order"] == "first_fail"
    assert row["value_order"] == "largest"
    assert row["branch"] == "in_first"


def test_jsonl_output(tmp_path):
    path = write(tmp_path, STEINER)
    code, out = run_cli([path, "--format", "jsonl"])
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["kind"] for r in records] == ["report"]
    assert records[0]["solutions"] == 1


def test_trace_rows(tmp_path):
    path = write(tmp_path, STEINER, "trace.txt")
    code, out = run_cli([path, "--trace", "--format", "jsonl"])
    records = [json.loads(line) for line in out.splitlines()]
    trace = [r for r in records if r["kind"] == "trace"]
    assert trace and trace[0]["step"] == 0
    # a first-solution run never backtracks here, so the logged search
    # space shrinks monotonically
    bits = [float(r["domain_bits"]) for r in trace]
    assert bits == sorted(bits, reverse=True)
    assert records[-1]["kind"] == "report"


@pytest.mark.parametrize("mode", cli.MODES)
def test_trace_leaves_the_report_row_alone(mode):
    # the trace reads the stored domains and builds no node, so the row,
    # peak_nodes included, is the same with and without it
    path = str(ROOT / "instances" / "steiner-2-3-7.txt")
    rows = []
    for extra in ([], ["--trace"]):
        code, out = run_cli([path, "--mode", mode, "--format", "jsonl", *extra])
        assert code == 0
        (row,) = [r for r in map(json.loads, out.splitlines()) if r["kind"] == "report"]
        row.pop("time_s")
        rows.append(row)
    assert rows[0] == rows[1]


def test_deterministic_modulo_time(tmp_path):
    path = write(tmp_path, STEINER)
    _, out1 = run_cli([path, "--target", "all"])
    _, out2 = run_cli([path, "--target", "all"])
    strip = lambda text: [row[:-1] for row in csv.reader(io.StringIO(text))]
    assert strip(out1) == strip(out2)


def test_optimize_target(tmp_path):
    path = write(tmp_path, HAMMING)
    code, out = run_cli([path, "--target", "optimize"])
    assert code == 0
    (row,) = report_rows(out)
    assert row["status"] == "ok"
    assert row["optimum"] == "1"


def test_optimize_rejected_for_other_problems(tmp_path, capsys):
    path = write(tmp_path, STEINER)
    code, _ = run_cli([path, "--target", "optimize"])
    assert code == 2
    assert "optimize" in capsys.readouterr().err


def test_malformed_instance_exits_2(tmp_path, capsys):
    path = write(tmp_path, "problem = steiner\nt = 2\n")
    code, out = run_cli([path])
    assert code == 2 and out == ""
    assert "require" in capsys.readouterr().err


def test_non_utf8_instance_exits_2(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    path.write_bytes(b"problem = steiner\nt = 2\xff\n")
    code, out = run_cli([str(path)])
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith(f"bddsets: {path} ") and "utf-8" in err


def test_distance_above_length_exits_2(tmp_path, capsys):
    path = write(tmp_path, "problem = hamming\nl = 4\nd = 5\nw = 2\n")
    code, out = run_cli([path, "--target", "optimize"])
    assert code == 2 and out == ""
    assert "exceeds the length" in capsys.readouterr().err


BACP = (
    "problem = bacp\nperiods = 2\nload_min = 1\nload_max = 2\n"
    "courses_min = 1\ncourses_max = 2\nvariant = hybrid_dual\n"
    "course 1 1\ncourse 2 2\ncourse 3 4\n"
)


def test_load_min_above_load_max_exits_2(tmp_path, capsys):
    path = write(tmp_path, BACP.replace("load_min = 1", "load_min = 9"))
    code, out = run_cli([path])
    assert code == 2 and out == ""
    assert "load_min 9 exceeds load_max 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "old,new,message",
    [
        pytest.param("variant = hybrid_dual", "variant = nope", "unknown variant 'nope'",
                     id="unknown-variant"),
        pytest.param("periods = 2", "periods = 0", "need at least one period, got 0",
                     id="no-period"),
        pytest.param("load_min = 1", "load_min = -1", "must be non-negative",
                     id="negative-load-min"),
        pytest.param("course 2 2", "course 2 -2", "must be non-negative",
                     id="negative-course-load"),
    ],
)
def test_malformed_bacp_exits_2(tmp_path, capsys, old, new, message):
    path = write(tmp_path, BACP.replace(old, new))
    code, out = run_cli([path])
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("bddsets: ") and message in err


def test_constraint_false_when_built_reports_unsat(tmp_path):
    # hybrid_dual's I3 (the period loads sum to the course loads, 7) is
    # FALSE when built: each period load is a 2-bit integer, so two sum to
    # 6 at most.  Its first run wipes out at the root: unsat with 0 fails
    path = write(tmp_path, BACP)
    code, out = run_cli([path, "--target", "all"])
    assert code == 0
    (row,) = report_rows(out)
    assert (row["status"], row["solutions"], row["fails"], row["nodes"]) == ("ok", "0", "0", "0")


def test_missing_file_exits_2(tmp_path, capsys):
    code, _ = run_cli([str(tmp_path / "nope.txt")])
    assert code == 2
    assert capsys.readouterr().err


def test_node_limit_mark(tmp_path):
    path = write(tmp_path, GOLFERS)
    code, out = run_cli([path, "--node-limit", "2000"])
    assert code == 0
    (row,) = report_rows(out)
    assert row["status"] == "×"


def test_time_limit_mark(tmp_path):
    path = write(tmp_path, STEINER)
    code, out = run_cli([path, "--target", "all", "--time-limit", "0"])
    (row,) = report_rows(out)
    assert row["status"] == "—"


@pytest.mark.parametrize(
    "flag,below,lowest",
    [
        ("--max-solutions", ["-3", "0"], 1),
        ("--node-limit", ["-5", "0"], 1),
        ("--time-limit", ["-0.5", "nan"], 0),
    ],
)
def test_limit_below_its_range_exits_2(capsys, flag, below, lowest):
    parser = cli.make_parser()
    for raw in below:
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["inst.txt", flag, raw])
        assert exc.value.code == 2
        assert "must be at least" in capsys.readouterr().err
    args = parser.parse_args(["inst.txt", flag, str(lowest)])
    assert getattr(args, flag[2:].replace("-", "_")) == lowest


@pytest.mark.parametrize(
    "flags,message",
    [
        pytest.param(["--max-solutions", "2"], "--max-solutions needs --target all",
                     id="max-solutions-first"),
        pytest.param(["--max-solutions", "2", "--target", "optimize"],
                     "--max-solutions needs --target all", id="max-solutions-optimize"),
        pytest.param(["--trace", "--target", "optimize"],
                     "--trace does not apply to --target optimize", id="trace-optimize"),
    ],
)
def test_flag_the_target_would_ignore_exits_2(tmp_path, capsys, flags, message):
    path = write(tmp_path, HAMMING)
    with pytest.raises(SystemExit) as exc:
        cli.main([path] + flags)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err



# Every report row pinned field for field, except its time.  The three
# paths that write one (a model build that hits the node ceiling, an
# ordinary solve, and --target optimize) must agree on the layout.

def report_fields(args):
    code, out = run_cli(args + ["--format", "jsonl"])
    assert code == 0
    (record,) = [json.loads(line) for line in out.splitlines()]
    assert float(record.pop("time_s")) >= 0
    return record


ROW_BASE = {
    "kind": "report",
    "version": 1,
    "mode": "domain",
    "var_order": "seq",
    "value_order": "largest",
    "branch": "not_in_first",
    "target": "first",
}


# the row names the family's own strategy, though no model was built
@pytest.mark.parametrize(
    "text,limit,strategy",
    [
        pytest.param(GOLFERS, 2000, {"problem": "golfers", "branch": "in_first"}, id="golfers"),
        pytest.param(STEINER, 5, {"problem": "steiner", "value_order": "smallest"}, id="steiner"),
    ],
)
def test_report_row_node_limit_during_build(tmp_path, text, limit, strategy):
    path = write(tmp_path, text)
    assert report_fields([path, "--node-limit", str(limit)]) == {
        **ROW_BASE,
        **strategy,
        "status": "×",
        "solutions": 0,
        "fails": 0,
        "nodes": 0,
        "optimum": "",
        "peak_nodes": limit,
    }


def test_report_row_solve(tmp_path):
    path = write(tmp_path, STEINER)
    assert report_fields([path, "--target", "all", "--mode", "split"]) == {
        **ROW_BASE,
        "problem": "steiner",
        "mode": "split",
        "value_order": "smallest",
        "target": "all",
        "status": "ok",
        "solutions": 30,
        "fails": 47,
        "nodes": 94,
        "optimum": "",
        "peak_nodes": 7980,
    }


def test_report_row_optimize(tmp_path):
    path = write(tmp_path, "problem = hamming\nl = 5\nd = 3\nw = 2\n")
    assert report_fields([path, "--target", "optimize", "--mode", "lex"]) == {
        **ROW_BASE,
        "problem": "hamming",
        "mode": "lex",
        "target": "optimize",
        "status": "ok",
        "solutions": 1,
        "fails": 6,
        "nodes": "",
        "optimum": 2,
        "peak_nodes": 829,
    }


def test_optimize_frees_each_model_two_builds_later(tmp_path, monkeypatch):
    # while build n runs, the search still holds model n - 1; the report
    # keeps no store, so model n - 2's store is already freed
    real_build = cli.build_hamming
    stores = []
    freed = []

    def build_hamming(spec, node_limit=None):
        if len(stores) >= 2:
            freed.append(stores[-2]() is None)
        model = real_build(spec, node_limit=node_limit)
        stores.append(weakref.ref(model.store))
        return model

    monkeypatch.setattr(cli, "build_hamming", build_hamming)
    path = write(tmp_path, "problem = hamming\nl = 5\nd = 3\nw = 2\n")
    assert run_cli([path, "--target", "optimize", "--mode", "lex"])[0] == 0
    assert len(stores) == 3 and freed == [True]


def test_report_row_optimize_node_limit(tmp_path):
    # n = 1 is solved and the build for n = 2 hits the ceiling: the row
    # keeps the code found, and the failed build counts as node_limit nodes;
    # n = 1 ends at 9 nodes and the n = 2 build needs 44
    path = write(tmp_path, HAMMING)
    assert report_fields([path, "--target", "optimize", "--node-limit", "20"]) == {
        **ROW_BASE,
        "problem": "hamming",
        "target": "optimize",
        "status": "×",
        "solutions": 1,
        "fails": 0,
        "nodes": "",
        "optimum": 1,
        "peak_nodes": 20,
    }


def test_report_row_optimize_node_limit_during_a_later_build(tmp_path):
    # n = 2 ends at 290 nodes and the n = 3 build needs 321
    path = write(tmp_path, "problem = hamming\nl = 5\nd = 3\nw = 2\n")
    args = [path, "--target", "optimize", "--mode", "lex", "--node-limit", "300"]
    assert report_fields(args) == {
        **ROW_BASE,
        "problem": "hamming",
        "mode": "lex",
        "target": "optimize",
        "status": "×",
        "solutions": 1,
        "fails": 0,
        "nodes": "",
        "optimum": 2,
        "peak_nodes": 300,
    }


def test_report_row_optimize_out_of_time_before_any_build(tmp_path):
    # no model was built, so no node was ever made
    path = write(tmp_path, HAMMING)
    args = [path, "--target", "optimize", "--time-limit", "0"]
    assert report_fields(args) == {
        **ROW_BASE,
        "problem": "hamming",
        "target": "optimize",
        "status": "—",
        "solutions": 0,
        "fails": 0,
        "nodes": "",
        "optimum": "",
        "peak_nodes": 0,
    }
    (row,) = report_rows(run_cli(args)[1])
    assert row["peak_nodes"] == "0"


def readme_cli_commands():
    """The argument lists of the bddsets commands in README's CLI block."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split()[1:] for line in block.splitlines() if line.startswith("bddsets ")]


def test_readme_cli_block_is_found():
    assert len(readme_cli_commands()) == 4


@pytest.mark.parametrize(
    "argv",
    readme_cli_commands()
    + [[f"instances/{p.name}"] for p in sorted((ROOT / "instances").glob("*.txt"))],
    ids=" ".join,
)
def test_readme_commands_and_shipped_instances_run(argv, monkeypatch, capsys):
    # the paths in README and here are relative to the repository root
    monkeypatch.chdir(ROOT)
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    if "jsonl" in argv:
        (row,) = [r for r in map(json.loads, out.splitlines()) if r["kind"] == "report"]
    else:
        (row,) = report_rows(out)
    assert row["status"] == "ok"
