"""Command line behavior: output shapes, formats, exit codes, stdin."""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
import weakref

import pytest
from hypothesis import given, strategies as st

from conftest import package_env
from genocchi import cli, models, triangles
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
    monkeypatch.setattr(triangles, "_kreweras_rows", lambda: iter([(huge,)]))
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


def test_a_reader_that_goes_away_ends_enumerate_quietly():
    # the 99 kB listing outgrows the pipe, so the program is still writing
    # when the reader takes its one line and closes its end
    proc = subprocess.Popen(
        [sys.executable, "-m", "genocchi.cli", "enumerate", "--model", "hetyei",
         "--n", "6", "--stats"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0, env=package_env())
    first = models.serialize(next(models.enumerate_model("hetyei", 6)))
    assert proc.stdout.readline().decode().startswith(first + "\tk=")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


@pytest.mark.parametrize("model", models.MODEL_NAMES)
def test_enumerate_json_is_the_dumped_list(capsys, model):
    # order 5 has 295 objects: the listing is written in two batches
    for n in range(1, 6):
        objs = list(models.enumerate_model(model, n))
        plain = [models.serialize(o) for o in objs]
        stats = [{"serialization": models.serialize(o), "k": models.k_statistic(o),
                  "l": models.l_statistic(o)} for o in objs]
        for extra, listing in (((), plain), (("--stats",), stats)):
            _, out, _ = run(capsys, "enumerate", "--model", model, "--n", str(n),
                            "--format", "json", *extra)
            assert out == json.dumps(listing, sort_keys=True) + "\n", (n, extra)


def test_sequence_json_is_the_dumped_list(capsys):
    # 600 values are written in three batches
    _, out, _ = run(capsys, "sequence", "normalized", "--count", "600", "--format", "json")
    values = [triangles.normalized_genocchi(n) for n in range(600)]
    assert out == json.dumps(values, sort_keys=True) + "\n"


def test_an_empty_json_list_is_the_dumped_list(capsys):
    # no command lists an empty sequence today; the "[" waits for a batch
    # that never comes, and is written with the "]"
    cli._dump_json_list(iter(()))
    assert capsys.readouterr().out == json.dumps([]) + "\n"


def traced_peak(monkeypatch, sink, *argv):
    """Exit code and tracemalloc peak of main(argv), with stdout sent to sink."""
    monkeypatch.setattr("sys.stdout", sink)
    tracemalloc.start()
    try:
        code = main(list(argv))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, peak


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_enumerate_json_streams_in_bounded_memory(monkeypatch, fmt):
    # built as one list, the order-6 listing with statistics peaks at about
    # 2.4 MiB; the writers are the same for every family, and the text
    # format's holds one batch of 256 blocks
    with open(os.devnull, "w") as sink:
        code, peak = traced_peak(monkeypatch, sink, "enumerate", "--model", "hetyei",
                                 "--n", "6", "--stats", "--format", fmt)
    assert code == 0
    assert peak < 1024 * 1024


@pytest.mark.parametrize("model", ["pd2n", "dellac", "chain", "settuple"])
def test_the_stats_text_streams_in_bounded_memory(monkeypatch, model):
    # the bound of the hetyei listing above, for the other families' text:
    # a walk's blocks, its map of rendered lines and one batch of 256
    # blocks.  As the first call in a fresh process, they peak at 667, 474,
    # 457 and 352 KiB
    with open(os.devnull, "w") as sink:
        code, peak = traced_peak(monkeypatch, sink, "enumerate", "--model", model,
                                 "--n", "6", "--stats")
    assert code == 0
    assert peak < 1024 * 1024


@pytest.mark.parametrize("argv, bound", [
    # with every row kept, these peak at 21-30 and 4 MiB
    (("sequence", "normalized", "--count", "300"), 4 * 1024 * 1024),
    (("triangle", "kreweras", "--rows", "200"), 1.5 * 1024 * 1024),
], ids=["sequence", "triangle"])
def test_triangle_and_sequence_stream_in_bounded_memory(monkeypatch, argv, bound):
    with open(os.devnull, "w") as sink:
        code, peak = traced_peak(monkeypatch, sink, *argv)
    assert code == 0
    assert peak < bound


@pytest.mark.slow
def test_sequence_prints_values_past_the_digit_limit(monkeypatch, tmp_path):
    # normalized_genocchi crosses CPython's 4,300-digit limit at n = 972
    path = tmp_path / "out.txt"
    with open(path, "w") as sink:
        code, peak = traced_peak(monkeypatch, sink, "sequence", "normalized",
                                 "--count", "1000")
    values = path.read_text().split()
    assert code == 0
    assert len(values) == 1000
    assert len(values[-1]) > 4300
    assert peak < 32 * 1024 * 1024


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


def test_map_reads_stdin_without_a_newline(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("2 1 6 3 7 4 8 5"))
    assert run(capsys, "map", "--op", "t", "--model", "pd2n") == (0, "4 1 6 2 7 5 8 3\n", "")


@pytest.mark.parametrize("text", ["\xa02 1 6 3 7 4 8 5\n", "\t2 1 6 3 7 4 8 5\n",
                                  "2 1 6 3 7 4 8 5 \n", "2 1 6 3 7 4 8 5\n\n"],
                         ids=["nbsp", "tab", "trailing-space", "two-newlines"])
def test_map_stdin_drops_only_one_newline(capsys, monkeypatch, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run(capsys, "map", "--op", "t", "--model", "pd2n")
    assert (code, out) == (3, "")
    assert err.startswith("error: ")


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
    # embed reads a permutation word, whatever family --model names
    code, out, err = run(capsys, "map", "--op", "embed", "--model", "dellac",
                         "--input", "2 1")
    assert (code, out) == (2, "")
    assert err == "error: --op embed works on permutation input, not dellac\n"


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


@pytest.mark.parametrize("model", models.MODEL_NAMES)
def test_count_guard_refuses_before_any_tally(capsys, monkeypatch, model):
    calls = []
    monkeypatch.setattr(models, "_tally", lambda *args: calls.append(args))
    for by in ((), ("--by", "k")):
        code, out, err = run(capsys, "count", "--model", model, "--n", "9", *by)
        assert (code, out) == (2, "")
        assert "guard 8" in err
    assert calls == []


def test_verify_guard_refuses_with_no_output(capsys):
    code, out, err = run(capsys, "verify", "--max-n", "7", "--guard", "6")
    assert (code, out) == (2, "")
    assert "guard 6" in err


@pytest.mark.parametrize("argv", [
    ("triangle", "kreweras", "--rows", "3"),
    ("sequence", "normalized", "--count", "3"),
    ("map", "--op", "t", "--model", "pd2n", "--input", "2 1 6 3 7 4 8 5"),
])
def test_guard_only_where_an_enumeration_runs(capsys, argv):
    assert run(capsys, *argv)[0] == 0
    code, out, _ = run(capsys, *argv, "--guard", "1")
    assert (code, out) == (2, "")


def _out_of_memory_on(model, real):
    """real, but out of memory on the named family."""
    def run_out(m, *args):
        if m == model:
            raise MemoryError
        return real(m, *args)
    return run_out


@pytest.mark.parametrize("argv", [
    ("enumerate", "--model", "hetyei", "--n", "3"),
    ("enumerate", "--model", "hetyei", "--n", "3", "--format", "csv"),
    ("enumerate", "--model", "hetyei", "--n", "3", "--format", "json"),
    ("enumerate", "--model", "hetyei", "--n", "3", "--stats", "--format", "json"),
    ("count", "--model", "dellac", "--n", "3"),
    ("verify", "--max-n", "3"),
], ids=["enumerate", "enumerate-csv", "enumerate-json", "enumerate-stats-json",
        "count", "verify"])
def test_running_out_of_memory_exits_2(capsys, monkeypatch, argv):
    monkeypatch.setattr(models, "_walk", _out_of_memory_on("hetyei", models._walk))
    monkeypatch.setattr(models, "_tally", _out_of_memory_on("dellac", models._tally))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_running_out_of_memory_frees_the_failed_frames_before_printing(capsys, monkeypatch):
    # a real MemoryError can strike again while the first one unwinds; the
    # frames both tracebacks hold keep the memory that ran out
    class Held:
        pass

    refs = []

    def tally(model, n):
        held = Held()
        refs.append(weakref.ref(held))
        try:
            raise MemoryError
        except MemoryError:
            raise MemoryError from None

    freed = []

    def printed(*args, **kwargs):
        freed.append(refs[0]() is None)
        print(*args, **kwargs)

    monkeypatch.setattr(models, "_tally", tally)
    monkeypatch.setattr(cli, "print", printed, raising=False)
    code, out, err = run(capsys, "count", "--model", "dellac", "--n", "3")
    assert (code, out, err) == (2, "", "error: out of memory\n")
    assert freed == [True]


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "bogus")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "triangle", "kreweras")[0] == 2
    assert run(capsys, "triangle", "kreweras", "--rows", "0")[0] == 2
    assert run(capsys, "enumerate", "--model", "pd2n", "--n", "2",
               "--format", "yaml")[0] == 2


def test_help_exits_zero(capsys, monkeypatch):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "map", "--help")[0] == 0
    for command in HELP_SHA256:
        code, out, _ = run(capsys, *command.split(), "--help")
        assert code == 0
        assert out.startswith("usage: genocchi")
    # the parser is built once a process, but its help is wrapped to the
    # terminal width at each call
    wrapped = {}
    for columns in ("50", "120"):
        monkeypatch.setenv("COLUMNS", columns)
        code, wrapped[columns], _ = run(capsys, "count", "--help")
        assert code == 0
    assert wrapped["50"] != wrapped["120"]
    assert max(map(len, wrapped["120"].splitlines())) > 50


# sha256 of `--help` under COLUMNS=80, for the root command and each
# subcommand: (Python 3.10-3.12, Python 3.13), whose argparse lays out the
# usage lines and the command list otherwise
HELP_SHA256 = {
    "": ("ced894610aa3d7518f3ec661e20d5dcfd59846924e1bdd879fa3abaa7b5fd0fd",
         "99cb678b66532b96128f304369508fdc89c9b1072c2ea9a403ea34b9f976fd2e"),
    "triangle": ("62d602a7ba22aa1b386cde7f1a7cc33419ebafb2e425cdafd70710683681004d",
                 "62d602a7ba22aa1b386cde7f1a7cc33419ebafb2e425cdafd70710683681004d"),
    "sequence": ("548782273744f2e725081e41ae378250521c5fb68fdb4c87c0588b20ba6fdd50",
                 "548782273744f2e725081e41ae378250521c5fb68fdb4c87c0588b20ba6fdd50"),
    "enumerate": ("797968555e2290bd4dd63891cf4113517b674e8c4752f42f8369bfc6ba60a7c1",
                  "a953ffcd32f6ca73540812fe93baa28d22465d3f1d85b26033ee6748a5682e27"),
    "count": ("adb0a13d0426d57bd838627c4505841e95e31bded5741b92dd2e8338d9ee8c15",
              "581698af0d431ceb4ff7b7ef411668d661e28495eff4b1e204e34b447fff703f"),
    "map": ("fa02e015b7d272f108a2e7458553969ca5a2e8875953fcd33e0d99d74e037a80",
            "52b6051a804349d10d7e400dc73ca8f8520307288dc570370279919b6854eeda"),
    "verify": ("155379ba44813d41a582e1214d2b44060d6dddf44a43cb5c5d28afebbdd1d615",
               "155379ba44813d41a582e1214d2b44060d6dddf44a43cb5c5d28afebbdd1d615"),
}
_HELP_LAYOUT = {(3, 10): 0, (3, 11): 0, (3, 12): 0, (3, 13): 1}


@pytest.mark.parametrize("command", list(HELP_SHA256))
def test_help_text_is_pinned(capsys, monkeypatch, command):
    layout = _HELP_LAYOUT.get(sys.version_info[:2])
    if layout is None:
        pytest.skip("no help pins for this Python's argparse")
    monkeypatch.setenv("COLUMNS", "80")
    code, out, _ = run(capsys, *command.split(), "--help")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_SHA256[command][layout]


def test_main_builds_its_parser_once(capsys, monkeypatch):
    run(capsys, "count", "--model", "dellac", "--n", "3")
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    calls = [
        ("triangle", "kreweras", "--rows", "3"),
        ("triangle", "seidel", "--rows", "2", "--format", "csv"),
        ("sequence", "genocchi", "--count", "4"),
        ("sequence", "median", "--count", "3", "--format", "json"),
        ("enumerate", "--model", "chain", "--n", "3"),
        ("enumerate", "--model", "hetyei", "--n", "3", "--stats", "--format", "csv"),
        ("count", "--model", "pd2n", "--n", "4", "--by", "l"),
        ("count", "--model", "settuple", "--n", "4", "--format", "json"),
        ("count", "--model", "dellac", "--n", "9"),
        ("map", "--op", "phi", "--input", ";3;1,3;1,2,3"),
        ("map", "--op", "t", "--model", "pd2n", "--input", "2 1 4 3"),
        ("map", "--op", "phi", "--input", ";3;3,1"),
        ("verify", "--max-n", "2", "--pairs-n", "1"),
        ("verify", "--max-n", "2", "--pairs-n", "0", "--json"),
        ("--help",),
        ("count", "--help"),
        ("verify", "--help"),
        ("bogus",),
        ("triangle", "kreweras"),
        ("enumerate", "--model", "pd2n", "--n", "2", "--format", "yaml"),
    ]
    codes = [run(capsys, *argv)[0] for argv in calls]
    assert built == []
    assert codes == [0] * 8 + [2] + [0, 0, 3, 0, 0, 0, 0, 0, 2, 2, 2]


# one process's calls, in an order where each could see what the last left:
# a json verify before a plain count, the last of --json and --format
# winning either way, a usage error, a refused guard, an invalid map input,
# csv, and two text listings with statistics, whose lines are rendered
# once for each block of a walk and must not outlive it
STATELESS_CALLS = [
    ("verify", "--max-n", "3", "--json"),
    ("count", "--model", "dellac", "--n", "5"),
    ("verify", "--max-n", "3", "--json", "--format", "text"),
    ("verify", "--max-n", "3", "--format", "text", "--json"),
    ("triangle", "kreweras"),
    ("count", "--model", "dellac", "--n", "9"),
    ("map", "--op", "phi", "--input", ";3;3,1"),
    ("count", "--model", "hetyei", "--n", "5", "--format", "csv"),
    ("enumerate", "--model", "dellac", "--n", "5", "--stats"),
    ("enumerate", "--model", "hetyei", "--n", "5", "--stats"),
]


def test_calls_in_one_process_carry_no_state(capsys, monkeypatch):
    # each call must give what its argv gives as the first call of a fresh
    # process, whichever calls ran before it
    env = dict(package_env(), COLUMNS="80")
    fresh = []
    for argv in STATELESS_CALLS:
        done = subprocess.run([sys.executable, "-m", "genocchi.cli", *argv], env=env,
                              stdin=subprocess.DEVNULL, capture_output=True, text=True,
                              timeout=120)
        fresh.append((done.returncode, done.stdout, done.stderr))
    assert [code for code, _, _ in fresh] == [0, 0, 0, 0, 2, 2, 3, 0, 0, 0]
    assert fresh[1] == (0, "295\n", "")
    assert fresh[2][1].endswith("overall: PASS\n")
    assert fresh[3][1] == fresh[0][1]
    assert fresh[5][1] == ""
    expected = dict(zip(STATELESS_CALLS, fresh))
    monkeypatch.setenv("COLUMNS", "80")
    for order in (STATELESS_CALLS, STATELESS_CALLS[::-1]):
        for argv in order:
            assert run(capsys, *argv) == expected[argv], argv


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


def test_verify_json_is_format_json(capsys):
    code, by_flag, _ = run(capsys, "verify", "--max-n", "2", "--json")
    assert code == 0
    assert run(capsys, "verify", "--max-n", "2", "--format", "json")[1] == by_flag
    # both set the one output format, so the last of them wins
    _, out, _ = run(capsys, "verify", "--max-n", "2", "--json", "--format", "csv")
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


# sha256 of the stdout of `verify --max-n N --format csv`, which lists every
# check in the report's order: the JSON groups the checks by (n, model), so
# a stage whose checks move within their order changes only this
VERIFY_CSV_SHA256 = {
    6: "5f3fbac577a9f3770168d85a752d27d18ae8c5372505dcd78489bbae1524400b",
    7: "f2ec6036651930338edf7e528afecf08c987031fca800c1079b3d0d04a8280f6",
}


@pytest.mark.parametrize("max_n", [6, pytest.param(7, marks=pytest.mark.slow)])
def test_verify_csv_keeps_the_check_order(capsys, max_n):
    code, out, _ = run(capsys, "verify", "--max-n", str(max_n), "--format", "csv")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_CSV_SHA256[max_n]


def test_verify_refuses_the_removed_threads_option(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "3", "--threads", "4")
    assert code == 2
    assert out == ""
