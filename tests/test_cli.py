"""Command line behavior: output shapes, formats, exit codes, stdin."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from genocchi import models, triangles
from genocchi.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_triangle_kreweras_text(capsys):
    code, out, _ = run(capsys, "triangle", "kreweras", "--rows", "4")
    assert code == 0
    assert out.splitlines() == ["1", "1 1", "2 3 2", "7 12 12 7"]


def test_triangle_seidel_text(capsys):
    code, out, _ = run(capsys, "triangle", "seidel", "--rows", "6")
    assert code == 0
    assert out.splitlines() == ["1", "1", "1 1", "2 1", "2 3 3", "8 6 3"]


def test_triangle_csv(capsys):
    code, out, _ = run(capsys, "triangle", "kreweras", "--rows", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "n,k,value",
        "1,1,1",
        "2,1,1",
        "2,2,1",
        "3,1,2",
        "3,2,3",
        "3,3,2",
    ]


def test_triangle_json(capsys):
    code, out, _ = run(capsys, "triangle", "kreweras", "--rows", "4", "--format", "json")
    assert code == 0
    assert json.loads(out) == [[1], [1, 1], [2, 3, 2], [7, 12, 12, 7]]


def test_sequence_text(capsys):
    code, out, _ = run(capsys, "sequence", "genocchi", "--count", "6")
    assert code == 0
    assert [int(v) for v in out.split()] == [1, 1, 3, 17, 155, 2073]
    code, out, _ = run(capsys, "sequence", "median", "--count", "5")
    assert [int(v) for v in out.split()] == [1, 2, 8, 56, 608]
    code, out, _ = run(capsys, "sequence", "normalized", "--count", "7")
    assert [int(v) for v in out.split()] == [1, 1, 2, 7, 38, 295, 3098]


_DIGITS = "1" + "0" * 5000  # more digits than CPython writes by default
_HUGE_OUTPUTS = {
    "triangle": {"text": f"{_DIGITS}\n", "csv": f"n,k,value\n1,1,{_DIGITS}\n",
                 "json": f"[[{_DIGITS}]]\n"},
    "sequence": {"text": f"{_DIGITS}\n", "csv": f"n,value\n0,{_DIGITS}\n",
                 "json": f"[{_DIGITS}]\n"},
}


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("argv", [("triangle", "kreweras", "--rows", "1"),
                                  ("sequence", "normalized", "--count", "1")],
                         ids=["triangle", "sequence"])
def test_entries_beyond_the_digit_limit_print_exactly(capsys, monkeypatch, argv, fmt):
    huge = 10 ** 5000
    monkeypatch.setattr(triangles, "kreweras_row", lambda n: (huge,))
    monkeypatch.setattr(triangles, "normalized_genocchi", lambda n: huge)
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    limit = get_limit()
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert (code, err) == (0, "")
    assert out == _HUGE_OUTPUTS[argv[0]][fmt]
    assert get_limit() == limit


def test_sequence_csv_carries_indices(capsys):
    _, out, _ = run(capsys, "sequence", "genocchi", "--count", "2", "--format", "csv")
    assert out.splitlines() == ["n,value", "1,1", "2,1"]
    _, out, _ = run(capsys, "sequence", "median", "--count", "2", "--format", "csv")
    assert out.splitlines() == ["n,value", "0,1", "1,2"]


def test_enumerate_lists_the_order_three_words(capsys):
    code, out, _ = run(capsys, "enumerate", "--model", "pd2n", "--n", "3")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 7
    assert lines == sorted(lines)
    assert "2 1 6 3 7 4 8 5" in lines


def test_enumerate_stats_column(capsys):
    _, out, _ = run(capsys, "enumerate", "--model", "settuple", "--n", "2", "--stats")
    assert out.splitlines() == ["1;2\tk=1 l=2", "2;1\tk=2 l=1"]


def test_enumerate_csv_quotes_serializations(capsys):
    _, out, _ = run(capsys, "enumerate", "--model", "hetyei", "--n", "2",
                    "--format", "csv", "--stats")
    lines = out.splitlines()
    assert lines[0] == "serialization,k,l"
    # hetyei serializations contain commas, so the csv field is quoted
    assert lines[1] == '"1,1;1,2",2,1'


def test_enumerate_json_with_stats(capsys):
    _, out, _ = run(capsys, "enumerate", "--model", "chain", "--n", "2",
                    "--format", "json", "--stats")
    assert json.loads(out) == [
        {"serialization": ";1;1,2", "k": 1, "l": 2},
        {"serialization": ";2;1,2", "k": 2, "l": 1},
    ]


@pytest.mark.parametrize("model", models.MODEL_NAMES)
def test_enumerate_json_is_the_dumped_list(capsys, model):
    for n in range(1, 5):
        objs = list(models.enumerate_model(model, n))
        plain = [models.serialize(o) for o in objs]
        stats = [{"serialization": models.serialize(o), "k": models.k_statistic(o),
                  "l": models.l_statistic(o)} for o in objs]
        for extra, listing in (((), plain), (("--stats",), stats)):
            _, out, _ = run(capsys, "enumerate", "--model", model, "--n", str(n),
                            "--format", "json", *extra)
            assert out == json.dumps(listing, sort_keys=True) + "\n", (n, extra)


def test_enumerate_json_streams_in_bounded_memory(monkeypatch):
    # built as one list, the order-6 listing with statistics peaks at about
    # 2.4 MiB; the writer is the same for every family
    with open(os.devnull, "w") as sink:
        monkeypatch.setattr("sys.stdout", sink)
        tracemalloc.start()
        try:
            code = main(["enumerate", "--model", "hetyei", "--n", "6", "--stats",
                         "--format", "json"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 1024 * 1024


def test_count_total_and_histogram(capsys):
    code, out, _ = run(capsys, "count", "--model", "dellac", "--n", "5")
    assert code == 0 and out.strip() == "295"
    _, out, _ = run(capsys, "count", "--model", "dellac", "--n", "5", "--by", "k")
    assert out.strip() == "38 69 81 69 38"
    _, out, _ = run(capsys, "count", "--model", "dellac", "--n", "4", "--by", "l",
                    "--format", "csv")
    assert out.splitlines() == ["l,count", "1,7", "2,12", "3,12", "4,7"]
    _, out, _ = run(capsys, "count", "--model", "chain", "--n", "3", "--format", "json")
    assert json.loads(out) == {"model": "chain", "n": 3, "total": 7}


def test_map_phi_worked_example(capsys):
    code, out, _ = run(capsys, "map", "--op", "phi",
                       "--input", ";3;1,3;1,3,4;1,2,3,5;1,2,3,4,5")
    assert code == 0
    assert out == "1,1;1,2;2,2;3,4;3,5\n"


def test_map_roundtrip_is_byte_identical(capsys):
    source = ";3;1,3;1,3,4;1,2,3,5;1,2,3,4,5"
    _, forward, _ = run(capsys, "map", "--op", "phi", "--input", source)
    _, back, _ = run(capsys, "map", "--op", "phi-inv", "--input", forward.strip())
    assert back == source + "\n"


def test_map_settuple_conversions(capsys):
    _, out, _ = run(capsys, "map", "--op", "to-settuple", "--input", ";3;1,3;1,2,3")
    assert out.strip() == "3;1;2"
    _, out, _ = run(capsys, "map", "--op", "to-chain", "--input", "3;1;2")
    assert out.strip() == ";3;1,3;1,2,3"


def test_map_involutions_and_order_maps(capsys):
    _, out, _ = run(capsys, "map", "--op", "t", "--model", "pd2n",
                    "--input", "4 1 6 2 7 5 8 3")
    assert out.strip() == "2 1 6 3 7 4 8 5"
    _, out, _ = run(capsys, "map", "--op", "r", "--model", "dellac",
                    "--input", "1 2 2 1 3 3")
    assert out.strip() == "1 1 3 2 2 3"
    _, out, _ = run(capsys, "map", "--op", "reduce", "--model", "dellac",
                    "--input", "1 2 3 1 2 3")
    assert out.strip() == "1 2 1 2"
    _, out, _ = run(capsys, "map", "--op", "lift", "--model", "pd2n",
                    "--input", "2 1 4 3 6 5")
    assert out.strip() == "2 1 4 3 6 5 8 7"
    _, out, _ = run(capsys, "map", "--op", "embed", "--input", "3 1 2")
    assert out.strip() == "3;1;2"


def test_map_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("2 1 6 3 7 4 8 5\n"))
    code, out, _ = run(capsys, "map", "--op", "t", "--model", "pd2n")
    assert code == 0
    assert out.strip() == "4 1 6 2 7 5 8 3"


def test_map_undecodable_stdin_exits_3(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"\xff;1"), encoding="utf-8"))
    code, out, err = run(capsys, "map", "--op", "to-chain")
    assert (code, out) == (3, "")
    assert err.startswith("error: ")


def test_map_json_format(capsys):
    _, out, _ = run(capsys, "map", "--op", "embed", "--input", "2 1",
                    "--format", "json")
    assert json.loads(out) == {"op": "embed", "input": "2 1", "output": "2;1"}


def test_map_usage_errors(capsys):
    code, _, err = run(capsys, "map", "--op", "t", "--input", "2 1 4 3")
    assert code == 2 and "--model" in err
    code, _, err = run(capsys, "map", "--op", "phi", "--model", "settuple",
                       "--input", ";1;1,2")
    assert code == 2 and "chain" in err


def test_map_invalid_objects_exit_3(capsys):
    code, _, err = run(capsys, "map", "--op", "phi", "--input", ";1;2,3;1,2,3")
    assert code == 3 and err
    code, _, err = run(capsys, "map", "--op", "t", "--model", "pd2n",
                       "--input", "1 2 3 4")
    assert code == 3
    code, _, err = run(capsys, "map", "--op", "reduce", "--model", "settuple",
                       "--input", "1;3;2")
    assert code == 3
    code, _, err = run(capsys, "map", "--op", "embed", "--input", "1 junk")
    assert code == 3
    # only ASCII digits without leading zeros are numbers, and embed
    # separates them by single spaces, as a pd2n word does
    for op, model, text in (("t", "dellac", "1 \u00b2"), ("t", "settuple", "02;1"),
                            ("t", "settuple", "\u0661;2"), ("embed", None, "\u0661 2"),
                            ("embed", None, "2  1"), ("embed", None, "2\t1"),
                            ("embed", None, " 2 1"), ("embed", None, "2 1 "),
                            ("t", "dellac", "1 " + "9" * 5000)):
        argv = ["map", "--op", op, "--input", text] + (["--model", model] if model else [])
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), text
        assert err.startswith("error: ")


_MAP_OPS = ("phi", "phi-inv", "to-settuple", "to-chain", "t", "r", "reduce", "lift", "embed")


@given(st.sampled_from(_MAP_OPS), st.sampled_from((None, *models.MODEL_NAMES)), st.text())
def test_map_exit_code_on_any_input(op, model, text):
    argv = ["map", "--op", op, f"--input={text}"] + (["--model", model] if model else [])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if code:
        assert out.getvalue() == ""


def test_guard_refusal_and_override(capsys):
    code, _, err = run(capsys, "enumerate", "--model", "chain", "--n", "9")
    assert code == 2 and "guard" in err
    code, _, _ = run(capsys, "count", "--model", "chain", "--n", "5", "--guard", "4")
    assert code == 2
    code, out, _ = run(capsys, "count", "--model", "chain", "--n", "5", "--guard", "5")
    assert code == 0 and out.strip() == "295"


def test_verify_guard_refuses_with_no_output(capsys):
    code, out, err = run(capsys, "verify", "--max-n", "7", "--guard", "6")
    assert (code, out) == (2, "")
    assert "guard 6" in err


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "bogus")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "triangle", "kreweras")[0] == 2
    assert run(capsys, "triangle", "kreweras", "--rows", "0")[0] == 2
    assert run(capsys, "enumerate", "--model", "pd2n", "--n", "2",
               "--format", "yaml")[0] == 2


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "map", "--help")[0] == 0


def test_verify_subcommand(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "2", "--pairs-n", "2")
    assert code == 0
    assert "overall: PASS" in out
    code, out, _ = run(capsys, "verify", "--max-n", "2", "--pairs-n", "0", "--json")
    assert code == 0
    records = json.loads(out)
    assert any(r["model"] == "triangles" for r in records)
    code, out, _ = run(capsys, "verify", "--max-n", "1", "--pairs-n", "1",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "n,model,name,status,witness"


# sha256 of the stdout of `verify --max-n N --json`; the report is byte-stable
VERIFY_JSON_SHA256 = {
    6: "1363ab8f68d994ce6bef78bbd74b08e91b0a09f5a3952611fc0900075a6647bb",
    7: "4a4605da9c82ac83a17b5e056f1e662a796c9aec10ce231b37928bbd8c208570",
}


@pytest.mark.parametrize("max_n", [6, pytest.param(7, marks=pytest.mark.slow)])
def test_verify_json_is_byte_stable(capsys, max_n):
    code, out, _ = run(capsys, "verify", "--max-n", str(max_n), "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_JSON_SHA256[max_n]


def test_verify_refuses_the_removed_threads_option(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "3", "--threads", "4")
    assert code == 2
    assert out == ""
