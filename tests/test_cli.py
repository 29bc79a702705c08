import csv
import io
import json

import pytest

from bddsets import cli

STEINER = "problem = steiner\nt = 2\nk = 3\nn = 7\n"
GOLFERS = "problem = golfers\nw = 2\ng = 5\ns = 4\n"
HAMMING = "problem = hamming\nl = 3\nd = 3\nw = 1\n"


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


def test_report_row_node_limit_during_build(tmp_path):
    path = write(tmp_path, GOLFERS)
    assert report_fields([path, "--node-limit", "2000"]) == {
        **ROW_BASE,
        "problem": "golfers",
        "status": "×",
        "solutions": 0,
        "fails": 0,
        "nodes": 0,
        "optimum": "",
        "peak_nodes": 2000,
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
        "peak_nodes": 15604,
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
        "peak_nodes": 3038,
    }


def test_report_row_optimize_node_limit(tmp_path):
    # n = 1 is solved and the build for n = 2 hits the ceiling: the row
    # keeps the code found, and the failed build counts as node_limit nodes
    path = write(tmp_path, HAMMING)
    assert report_fields([path, "--target", "optimize", "--node-limit", "50"]) == {
        **ROW_BASE,
        "problem": "hamming",
        "target": "optimize",
        "status": "×",
        "solutions": 1,
        "fails": 0,
        "nodes": "",
        "optimum": 1,
        "peak_nodes": 50,
    }


def test_report_row_optimize_node_limit_during_a_later_build(tmp_path):
    path = write(tmp_path, "problem = hamming\nl = 5\nd = 3\nw = 2\n")
    args = [path, "--target", "optimize", "--mode", "lex", "--node-limit", "1000"]
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
        "peak_nodes": 1000,
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
