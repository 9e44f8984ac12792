"""One slice of a workload in one fresh process: set up, run whole rounds, check.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS MODE [FILE]

MODE is `setup` (import and prepare, then stop), `run` (whole rounds for
about SECONDS, untraced, with the time of every operation written to FILE
as doubles) or `trace` (the same with spans instead, written to FILE as
JSON).  Every round runs the same operations on the same inputs.  The last
line of standard output is one JSON object.  run.py starts this; it is
not meant to be called by hand except to debug a workload.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from array import array
from pathlib import Path
from time import perf_counter

import reference
import samplers
from speed import SpeedProbe, setup_factor
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
FAMILIES = ("pd2n", "dellac", "chain", "settuple", "hetyei")


def _run_cli(cli, argv):
    """One CLI command with stdout captured; returns (exit code, text, seconds)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = perf_counter()
        code = cli.main(argv)
        took = perf_counter() - start
    return code, out.getvalue(), took


class Outcome:
    """What a slice of rounds leaves for the checks and the metrics."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.objects = 0  # objects of one round
        self.rounds: list[float] = []  # seconds of each round, scaled to the reference speed
        self.raw_rounds: list[float] = []  # seconds of each round as measured
        self.items: dict[str, array] = {}  # scaled seconds of each operation, by kind
        self.stdout_bytes = 0  # of one round
        self.digest = ""  # program outputs of the warm-up round
        self.checks: dict[str, bool] = {}
        self.warming = True  # the warm-up round is checked in full and not timed

    def check(self, name: str, ok: bool) -> None:
        """Record one check; a check holds only if it held every time."""
        self.checks[name] = self.checks.get(name, True) and ok

    def add_round(self, seconds: float, raw: float, digest: str,
                  items: dict[str, list[float]]) -> None:
        if self.warming:
            self.digest, self.warming = digest, False
            return
        self.check("rounds-agree", digest == self.digest)
        self.rounds.append(seconds)
        self.raw_rounds.append(raw)
        for kind, times in items.items():
            self.items.setdefault(kind, array("d")).extend(times)


def run_rounds(job, seconds: float, probe: SpeedProbe) -> Outcome:
    """A warm-up round, then timed rounds until about `seconds` have passed:
    the slice stops when one more round of average length would end further
    from `seconds` than stopping now.  The warm-up lets the program's lazy
    set-up and the allocator settle, so that the memory peak does not
    depend on the number of rounds."""
    out = Outcome()
    job.round(out, probe)
    begin = perf_counter()
    while True:
        job.round(out, probe)
        spent = perf_counter() - begin
        if spent + spent / len(out.rounds) / 2 >= seconds:
            return out


def _digest(parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(f"{part}\n".encode())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# command workloads


class Command:
    """Fixed CLI commands, each run once a round; the inputs do not use the
    seed.  Only the warm-up round's outputs are checked in full; every
    later round must print the same."""

    inputs = "fixed"

    def __init__(self, seed: int) -> None:
        from genocchi import cli
        self.cli = cli

    def prepare(self) -> None:
        pass

    def round(self, out: Outcome, probe: SpeedProbe) -> None:
        results, items, scaled, raw = [], {}, 0.0, 0.0
        for argv in self.commands:
            mark = probe.mark()
            code, text, took = _run_cli(self.cli, argv)
            net, factor = probe.scale(mark, took)
            results.append((argv, code, text))
            items[" ".join(argv)] = [net * factor]
            scaled += net * factor
            raw += net
        out.attempted += len(self.commands)
        if out.warming:
            out.objects = self.objects
            out.stdout_bytes = sum(len(text.encode()) for _, _, text in results)
            self.check_round(results, out)
        out.add_round(scaled, raw,
                      _digest(f"{a} {c}\n{t}" for a, c, t in results), items)


class Verify6(Command):
    max_n = 6
    commands = [["verify", "--max-n", "6", "--json"]]
    objects = 5 * sum(reference.H[1:7])  # every object of order <= 6, each family

    def check_round(self, results, out: Outcome) -> None:
        (_, code, text), = results
        out.check("exit-0", code == 0)
        records = json.loads(text)
        cells = {(r["n"], r["model"]): r for r in records}
        expected = [(n, m) for n in range(1, 7) for m in FAMILIES if (n, m) in cells]
        out.check("groups-complete", len(expected) == 30)
        rows = reference.kreweras_rows(6)
        out.check("totals-h_n", all(cells[n, m]["total"] == reference.H[n] for n, m in expected))
        out.check("k-hist-kreweras",
                  all(tuple(cells[n, m]["k_hist"]) == rows[n - 1] for n, m in expected))
        out.check("l-hist-kreweras",
                  all(tuple(cells[n, m]["l_hist"]) == rows[n - 1] for n, m in expected))
        out.check("every-check-passes",
                  all(c["status"] == "pass" for r in records for c in r["checks"]))


FAMILIES_7 = ("hetyei", "dellac")
# the statistics column of `enumerate --n 7 --stats`
_STATS = {f"k={k} l={l}": (k, l) for k in range(1, 8) for l in range(1, 8)}


class Emit7(Command):
    commands = [["enumerate", "--model", m, "--n", "7", "--stats"] for m in FAMILIES_7]
    objects = 2 * reference.H[7]

    def check_round(self, results, out: Outcome) -> None:
        row = reference.kreweras_row(7)
        for (argv, code, text), model in zip(results, FAMILIES_7):
            lines = text.split("\n")
            ok_end = lines.pop() == ""
            out.check(f"{model}-exit-0", code == 0)
            out.check(f"{model}-count", ok_end and len(lines) == reference.H[7])
            out.check(f"{model}-strictly-increasing",
                      all(a < b for a, b in zip(lines, lines[1:])))
            k_hist, l_hist = [0] * 7, [0] * 7
            valid = True
            checker = reference.CHECKERS[model]
            for line in lines:
                obj, _, stats = line.partition("\t")
                got = checker(obj)
                kl = _STATS.get(stats)
                if got is None or kl is None or got[0] != 7 or got[2] != kl[1] \
                        or got[1] not in (None, kl[0]):
                    valid = False
                    break
                k_hist[kl[0] - 1] += 1
                l_hist[kl[1] - 1] += 1
            out.check(f"{model}-definition", valid)
            out.check(f"{model}-k-hist-kreweras", tuple(k_hist) == row)
            out.check(f"{model}-l-hist-kreweras", tuple(l_hist) == row)


class Count7(Command):
    commands = [["count", "--model", m, "--n", "7", "--by", "k"] for m in FAMILIES_7]
    objects = 2 * reference.H[7]

    def check_round(self, results, out: Outcome) -> None:
        row = " ".join(map(str, reference.kreweras_row(7))) + "\n"
        for (argv, code, text), model in zip(results, FAMILIES_7):
            out.check(f"{model}-exit-0", code == 0)
            out.check(f"{model}-k-counts-kreweras", text == row)


# ---------------------------------------------------------------------------
# map-stream


PER_OP = 12  # requests of each op in one group
GROUPS = 8  # groups of requests in one round
LOW_N, HIGH_N = 6, 12
# Non-canonical text, the same in every group and on every seed: a leading
# zero, an Arabic-Indic digit and a superscript digit.  parse must refuse
# each with ModelError.
NON_CANONICAL = (("involution_t", "settuple", "02;1"),
                 ("involution_t", "settuple", "١;2"),
                 ("involution_t", "dellac", "1 ²"))


def _same(k, l, n, k2, l2, n2):
    return n2 == n and l2 == l and (k is None or k2 is None or k2 == k)


def _swap(k, l, n, k2, l2, n2):
    return n2 == n and (k2, l2) == (l, k)


def _turn(k, l, n, k2, l2, n2):
    return n2 == n and (k2, l2) == (n + 1 - l, n + 1 - k)


def _lifted(k, l, n, k2, l2, n2):
    return n2 == n + 1 and k2 == k and l2 == n2


def _reduced(k, l, n, k2, l2, n2):
    return n2 == n - 1 and k2 == k and l == n


class MapStream:
    """Closed loop, one client: each request parses one object, applies an
    op, serializes, then parses the output and applies the inverse op.  A
    round sends every request of the seed's request set once."""

    inputs = "seed"

    def __init__(self, seed: int) -> None:
        from genocchi import maps, models
        self.maps, self.models = maps, models
        self.seed = seed
        # (op, input model, output model, inverse op, (k, l) law); the map
        # functions are looked up in each round, so tracing sees them
        self.ops = [
            ("phi", "chain", "hetyei", "phi_inverse", _same),
            ("phi_inverse", "hetyei", "chain", "phi", _same),
            ("chain_to_settuple", "chain", "settuple", "settuple_to_chain", _same),
            ("settuple_to_chain", "settuple", "chain", "chain_to_settuple", _same),
        ]
        for model in ("pd2n", "dellac", "settuple"):
            self.ops += [
                ("involution_t", model, model, "involution_t", _swap),
                ("involution_r", model, model, "involution_r", _turn),
                ("lift", model, model, "reduce", _lifted),
                ("reduce", model, model, "lift", _reduced),
            ]
        self.by_name = {(op[0], op[1]): op for op in self.ops}

    def prepare(self) -> None:
        """The seed's requests, from the benchmark's own samplers, in an
        order shuffled by the seed."""
        rng = random.Random(f"map-stream:{self.seed}")
        batch = []
        for _ in range(GROUPS):
            for op in self.ops:
                name, model = op[:2]
                for _ in range(PER_OP):
                    n = rng.randint(LOW_N, HIGH_N)
                    if name == "lift":
                        text = samplers.SAMPLERS[model](rng, n - 1)
                    elif name == "reduce":
                        text = samplers.lift(model, samplers.SAMPLERS[model](rng, n - 1))
                    else:
                        text = samplers.SAMPLERS[model](rng, n)
                    batch.append((op, text, True))
            batch += [(self.by_name[(name, model)], text, False)
                      for name, model, text in NON_CANONICAL]
        rng.shuffle(batch)
        self.batch = batch

    def round(self, out: Outcome, probe: SpeedProbe) -> None:
        parse, serialize, model_error = self.models.parse, self.models.serialize, \
            self.models.ModelError
        fn = {op[0]: getattr(self.maps, op[0]) for op in self.ops}
        done, times, ok = [], [], []
        mark = probe.mark()
        begin = perf_counter()
        for op, text, canonical in self.batch:
            mid = back = error = None
            calibrating = probe.spent
            start = perf_counter()
            try:
                mid = serialize(fn[op[0]](parse(op[1], text)))
                back = serialize(fn[op[3]](parse(op[2], mid)))
            except model_error:
                error = "ModelError"
            except Exception as exc:  # counted as a failed request, not raised
                error = type(exc).__name__
            times.append(perf_counter() - start - (probe.spent - calibrating))
            done.append((mid, back, error))
            # non-canonical text must be refused with ModelError
            ok.append(canonical and error is None)
            if (error is not None) if canonical else (error != "ModelError"):
                out.failed += 1
        net, factor = probe.scale(mark, perf_counter() - begin)
        out.attempted += len(self.batch)
        if out.warming:
            out.objects = sum(ok)
            self.check_round(done, out)
        out.add_round(net * factor, net, _digest(done),
                      {"request": [t * factor for t, good in zip(times, ok) if good]})

    def check_round(self, done: list[tuple], out: Outcome) -> None:
        """Check the warm-up round's outputs."""
        roundtrip = outputs = laws = True
        for ((_, model, out_model, _, law), text, canonical), (mid, back, error) \
                in zip(self.batch, done):
            if not canonical or error is not None:
                continue  # refused or failed requests are counted in `failed`
            roundtrip &= back == text
            got_in = reference.CHECKERS[model](text)
            got_out = reference.CHECKERS[out_model](mid)
            if got_in is None or got_out is None:
                outputs = False
            else:
                laws &= law(*got_in[1:], got_in[0], *got_out[1:], got_out[0])
        out.check("inverse-restores-input", roundtrip)
        out.check("outputs-satisfy-definition", outputs)
        out.check("kl-transport", laws)


WORKLOADS = {"verify-6": Verify6, "emit-7": Emit7, "count-7": Count7, "map-stream": MapStream}


# ---------------------------------------------------------------------------
# per-layer metrics from a traced run, per round


def layer_metrics(tracer: Tracer, job, out: Outcome) -> dict[str, float]:
    m: dict[str, float] = {}
    for f in FAMILIES:
        m[f"models.enumerate_model.{f}.self_s"] = tracer.self_seconds(f"models.enumerate_model.{f}")
        m[f"models.validate.{f}.s"] = tracer.seconds(f"models.validate.{f}")
    m["models.enumerate_model.calls"] = tracer.total("models.enumerate_model.", 0)
    m["models.enumerate_model.objects"] = tracer.edge_calls("models.enumerate_model.",
                                                            "models.validate.")
    m["models.validate.calls"] = tracer.total("models.validate.", 0)
    for fn in ("serialize", "parse", "statistics"):
        m[f"models.{fn}.s"] = tracer.seconds(f"models.{fn}")
        m[f"models.{fn}.calls"] = tracer.calls(f"models.{fn}")
    for fn in ("k_statistic", "l_statistic", "redundant_positions", "hetyei_pair_count"):
        m[f"models.{fn}.s"] = tracer.seconds(f"models.{fn}")
    for fn in MAP_SPANS:
        m[f"maps.{fn}.s"] = tracer.seconds(f"maps.{fn}")
        m[f"maps.{fn}.calls"] = tracer.calls(f"maps.{fn}")
    m["triangles.s"] = tracer.total("triangles.", 2)
    m["verify.run_suite.s"] = tracer.seconds("verify.run_suite")
    m["verify.self_s"] = tracer.total("verify.", 2)
    max_n = getattr(job, "max_n", 0)
    if max_n:
        distinct = 5 * sum(reference.H[1:max_n + 1])
        m["verify.enumerations_per_cell"] = tracer.edge_calls(
            "verify.run_suite", "models.enumerate_model.") / (5 * max_n)
        m["verify.statistics_per_object"] = tracer.calls("models.k_statistic") / distinct
        m["verify.serialize_per_object"] = tracer.calls("models.serialize") / distinct
    else:
        m["verify.enumerations_per_cell"] = 0
        m["verify.statistics_per_object"] = 0
        m["verify.serialize_per_object"] = 0
    m["cli.main.s"] = tracer.seconds("cli.main")
    m["cli.self_s"] = tracer.self_seconds("cli.main")
    rounds = len(out.rounds) + 1  # the warm-up round is traced too
    m = {name: value / rounds for name, value in m.items()}
    m["cli.stdout_bytes"] = out.stdout_bytes
    return m


MAP_SPANS = ["chain_to_settuple", "settuple_to_chain", "closed_form_chain", "phi",
             "phi_trace", "phi_inverse", "embed_permutation"] + [
    f"{fn}.{f}" for fn in ("involution_t", "involution_r", "reduce", "lift")
    for f in ("pd2n", "dellac", "settuple")]


def main(argv: list[str]) -> int:
    workload, seed, seconds, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    before = setup_factor()
    start = perf_counter()
    import genocchi
    job = WORKLOADS[workload](seed)
    setup_s = perf_counter() - start
    setup_s *= (before + setup_factor()) / 2
    if not Path(genocchi.__file__).resolve().is_relative_to(src):
        print(f"error: genocchi imported from {genocchi.__file__}, not {src}", file=sys.stderr)
        return 2
    result = {"setup_s": setup_s}
    if mode != "setup":
        job.prepare()
        # the traced run takes no calibration passes, which its spans would
        # count; its times are as measured
        tracer, probe = None, SpeedProbe()
        if mode == "trace":
            tracer = Tracer()
            tracer.install()
        else:
            probe.start()
        out = run_rounds(job, seconds, probe)
        probe.stop()
        result.update(attempted=out.attempted, failed=out.failed, objects=out.objects,
                      rounds=out.rounds, raw_rounds=out.raw_rounds,
                      items={kind: len(times) for kind, times in out.items.items()},
                      digest=out.digest, checks=out.checks, inputs=job.inputs)
        if tracer is not None:
            result["layers"] = layer_metrics(tracer, job, out)
            tracer.dump(argv[4])
        else:
            with open(argv[4], "wb") as fh:
                for times in out.items.values():
                    times.tofile(fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
