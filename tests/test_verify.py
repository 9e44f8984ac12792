"""The consistency suite itself: green on the real build, red on a sabotaged
one, deterministic, and schema-stable."""

from __future__ import annotations

import json
import weakref

import pytest

from genocchi import maps, models, verify
from genocchi.cli import main
from genocchi.models import DellacConfiguration, FeiginChain
from genocchi.verify import ORDER3_CELLS, count_matrix, run_suite


def test_count_matrix_order_one():
    report = count_matrix(1)
    assert report.totals == {m: 1 for m in models.MODEL_NAMES}
    assert all(h == (1,) for h in report.k_hists.values())
    assert all(h == (1,) for h in report.l_hists.values())
    assert report.passed


def test_count_matrix_order_three():
    report = count_matrix(3)
    assert report.triangle_row == (2, 3, 2)
    for model in models.MODEL_NAMES:
        assert report.totals[model] == 7
        assert report.k_hists[model] == (2, 3, 2)
        assert report.l_hists[model] == (2, 3, 2)
    assert report.passed


def test_order3_reference_is_total():
    for model, cells in ORDER3_CELLS.items():
        assert len(cells) == 7, model
        assert (1, 1) not in cells and (3, 3) not in cells
        for text in cells.values():
            models.parse(model, text)  # every reference entry is well formed


def test_suite_passes_at_small_bounds():
    report = run_suite(3, 2)
    assert report.passed
    assert not report.failures()
    assert report.to_text().endswith("overall: PASS")


def test_suite_is_deterministic():
    assert run_suite(3, 2).to_json() == run_suite(3, 2).to_json()


def test_json_records_schema():
    report = run_suite(2, 1)
    records = json.loads(report.to_json())
    assert isinstance(records, list) and records
    seen_models = set()
    for record in records:
        assert set(record) == {"n", "model", "total", "k_hist", "l_hist", "checks"}
        seen_models.add(record["model"])
        for check in record["checks"]:
            assert set(check) == {"name", "status", "witness"}
            assert check["status"] in ("pass", "fail")
            if check["status"] == "pass":
                assert check["witness"] is None
    assert seen_models >= set(models.MODEL_NAMES) | {"triangles"}
    model_rows = [r for r in records if r["n"] == 2 and r["model"] == "pd2n"]
    assert model_rows and model_rows[0]["total"] == 2
    assert model_rows[0]["k_hist"] == [1, 1]


def literal_redundant_positions(m):
    # uncorrected variant: treats the top position like all the others
    chain = models.redundancy_chain(m)
    out = set()
    for l in range(chain[-1], m.n + 1):
        anchor = max(c for c in chain if c <= l)
        if anchor in m.pairs[l - 1]:
            out.add(l)
    return frozenset(out)


def test_suite_catches_the_uncorrected_redundancy_rule(monkeypatch):
    # k read off the uncorrected rule, which phi's transport of k contradicts
    monkeypatch.setattr(models.HetyeiTuple, "_k",
                        lambda m: m.n + 1 - max(literal_redundant_positions(m)))
    report = run_suite(3, 0)
    assert not report.passed
    transport = [
        c for c in report.failures()
        if c.name == "redundancy-transport" and c.n == 3
    ]
    assert transport, "the transport check must be the one that fires"
    assert "1,1;1,2;1,3" in transport[0].witness
    # failure is reported, not raised, and the text names the witness
    assert "redundancy-transport" in report.to_text()


def test_redundancy_structure_checks_k_against_the_redundant_positions(monkeypatch):
    # k is scanned directly, so the uncorrected rule in redundant_positions
    # alone contradicts it; the pair {1, 2} at the top is not redundant
    monkeypatch.setattr(models, "redundant_positions", literal_redundant_positions)
    report = run_suite(3, 0)
    structure = [c for c in report.failures() if c.name == "redundancy-structure"]
    assert [(c.n, c.witness) for c in structure] == [(2, "1,1;1,2"), (3, "1,1;1,1;2,3")]
    assert {c.name for c in report.failures()} == {"redundancy-structure"}


def test_failed_check_appears_in_text_and_csv_friendly_fields(monkeypatch):
    monkeypatch.setattr(models, "redundant_positions", literal_redundant_positions)
    report = run_suite(3, 0)
    for check in report.failures():
        assert check.witness, check.name
        assert check.status == "fail"
    assert report.to_text().endswith("overall: FAIL")


def test_each_cell_is_enumerated_once(monkeypatch):
    calls = []
    listing = models.listing

    def counting(model, n, *args):
        calls.append((model, n))
        return listing(model, n, *args)

    monkeypatch.setattr(models, "listing", counting)
    assert run_suite(4, 0).passed
    assert len(calls) == 5 * 4
    assert sorted(calls) == sorted((m, n) for m in models.MODEL_NAMES for n in range(1, 5))


def test_a_cell_lives_from_its_first_reader_to_its_last(monkeypatch):
    # no stage reads more than two cells of an order, so the last order
    # never holds more than two at once; the cells of an order below it
    # live on only for the next order's reduce-lift
    alive = weakref.WeakSet()
    most: dict[int, int] = {}

    class Tracked(verify._Cell):
        __slots__ = ("__weakref__",)

        def __init__(self, model, pairs):
            super().__init__(model, pairs)
            alive.add(self)
            n = self.objs[0].n
            most[n] = max(most.get(n, 0), sum(cell.objs[0].n == n for cell in alive))

    monkeypatch.setattr(verify, "_Cell", Tracked)
    for max_n in (4, 5, 6):
        most.clear()
        assert run_suite(max_n, 0).passed
        assert most[max_n] == 2
        assert not alive  # not a cell of any order outlives the run


def test_guard_refuses_before_any_enumeration(monkeypatch):
    calls = []
    monkeypatch.setattr(models, "listing", lambda *args: calls.append(args))
    with pytest.raises(models.ResourceGuardError, match="guard 6"):
        run_suite(7, limit=6)
    monkeypatch.setattr(models, "normalized_genocchi", calls.append)
    with pytest.raises(models.ResourceGuardError, match=r"guard 8; raise"):
        run_suite(10**6)
    assert calls == []


def test_an_order_below_one_is_refused_before_any_enumeration(monkeypatch):
    # as count_matrix refuses it; a suite of no order would pass having
    # checked nothing
    with pytest.raises(ValueError, match="order must be >= 1, got 0"):
        count_matrix(0)
    calls = []
    monkeypatch.setattr(models, "listing", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="max_n must be >= 1, got 0"):
        run_suite(0)
    with pytest.raises(ValueError, match="max_n must be >= 1, got -5"):
        run_suite(-5, 3)
    assert calls == []


def test_a_passing_suite_serializes_only_the_order3_reference_objects(monkeypatch):
    # the round-trip parses the texts the walk wrote, so serialize writes
    # no enumerated object unless a check fails or names a reference cell
    written = []
    serialize = models.serialize

    def counting(obj):
        written.append(serialize(obj))
        return written[-1]

    monkeypatch.setattr(models, "serialize", counting)
    assert run_suite(4, 0).passed
    assert sorted(written) == sorted(
        text for cells in ORDER3_CELLS.values() for text in cells.values())


def failed_checks(report) -> dict:
    """Witness of each failed check, keyed by (name, model, n)."""
    return {(c.name, c.model, c.n): c.witness for c in report.failures()}


# Each case sends one object to a wrong but valid image: (map, input model,
# input, wrong image, check that must fail, the check's model, its witness).  reduce-lift names the first l = n object
# that reduce and lift do not carry back to itself.
SABOTAGED_MAPS = [
    ("chain_to_settuple", "chain", ";1;1,2;1,2,3", "2;1;3",
     "chain-settuple-roundtrip", "settuple", ";1;1,2;1,2,3"),
    ("settuple_to_chain", "settuple", "1;2;3", ";2;1,2;1,2,3",
     "settuple-chain-roundtrip", "settuple", "1;2;3"),
    # closed_form_chain is the independent side: the wrong image fails it too
    ("settuple_to_chain", "settuple", "1;2;3", ";2;1,2;1,2,3",
     "chain-closed-form", "settuple", "1;2;3"),
    ("phi", "chain", ";1;1,2;1,2,3", "1,1;1,2;3,3",
     "phi-roundtrip", "hetyei", ";1;1,2;1,2,3"),
    ("phi_inverse", "hetyei", "1,1;1,1;2,3", ";3;2,3;1,2,3",
     "phi-inverse-roundtrip", "hetyei", "1,1;1,1;2,3"),
    ("involution_t", "pd2n", "2 1 4 3 6 5 8 7", "2 1 6 3 7 4 8 5",
     "involution-t", "pd2n", "2 1 4 3 6 5 8 7"),
    ("involution_r", "dellac", "1 1 2 2 3 3", "1 2 1 2 3 3",
     "involution-r", "dellac", "1 1 2 2 3 3"),
    ("reduce", "settuple", "1;2;3", "2;1", "reduce-lift", "settuple", "1;2;3"),
    ("lift", "dellac", "1 1 2 2", "1 2 3 1 2 3", "reduce-lift", "dellac", "1 1 3 2 2 3"),
    # a collision: 2;1;3 reduces to the image of 1;2;3, an earlier object
    ("reduce", "settuple", "2;1;3", "1;2", "reduce-lift", "settuple", "2;1;3"),
    # 1 2 3 1 2 3 reduces to 1 2 1 2, whose lift now leads elsewhere
    ("lift", "dellac", "1 2 1 2", "1 1 3 2 2 3", "reduce-lift", "dellac", "1 2 3 1 2 3"),
]
_IMAGE_MODEL = {"chain_to_settuple": "settuple", "settuple_to_chain": "chain",
                "phi": "hetyei", "phi_inverse": "chain"}

# Every check that a sabotaged case fails, keyed by (map, input), where that
# is more than the check its row names: each check that reads the wrong image
# fails, with its own witness.
SABOTAGE_FAILURES = {
    ("chain_to_settuple", ";1;1,2;1,2,3"): {
        ("chain-settuple-roundtrip", "settuple", 3): ";1;1,2;1,2,3",
        ("chain-settuple-statistics", "settuple", 3): ";1;1,2;1,2,3",
        ("settuple-chain-roundtrip", "settuple", 3): "1;2;3",
    },
    ("settuple_to_chain", "1;2;3"): {
        ("chain-closed-form", "settuple", 3): "1;2;3",
        ("chain-settuple-roundtrip", "settuple", 3): ";1;1,2;1,2,3",
        ("settuple-chain-roundtrip", "settuple", 3): "1;2;3",
    },
    ("phi", ";1;1,2;1,2,3"): {
        ("phi-image", "hetyei", 3): "phi image differs from the enumerated pair tuples",
        ("phi-injective", "hetyei", 3): ";1;1,3;1,2,3",
        ("phi-inverse-roundtrip", "hetyei", 3): "1,1;2,2;3,3",
        ("phi-roundtrip", "hetyei", 3): ";1;1,2;1,2,3",
        ("phi-statistics", "hetyei", 3): ";1;1,2;1,2,3",
    },
    ("phi_inverse", "1,1;1,1;2,3"): {
        ("phi-inverse-roundtrip", "hetyei", 3): "1,1;1,1;2,3",
        ("phi-roundtrip", "hetyei", 3): ";2;2,3;1,2,3",
        ("redundancy-transport", "hetyei", 3): "1,1;1,1;2,3",
    },
}


@pytest.mark.parametrize("name,model,text,wrong,check,owner,witness", SABOTAGED_MAPS)
def test_suite_catches_a_sabotaged_map(monkeypatch, name, model, text, wrong,
                                       check, owner, witness):
    real = getattr(maps, name)
    target = models.parse(model, text)
    image = models.parse(_IMAGE_MODEL.get(name, model), wrong)
    assert real(target) != image

    monkeypatch.setattr(maps, name, lambda obj: image if obj == target else real(obj))
    failed = failed_checks(run_suite(3, 0))
    assert failed.get((check, owner, 3)) == witness
    assert failed == SABOTAGE_FAILURES.get((name, text), {(check, owner, 3): witness})


def test_embedding_names_the_first_missed_singleton(monkeypatch, capsys):
    # (1, 2, 3) goes to a valid settuple that is no singleton tuple, so
    # 1;2;3 is the one singleton no permutation reaches
    real = maps.embed_permutation
    image = models.parse("settuple", "2;1,3;2")
    monkeypatch.setattr(maps, "embed_permutation",
                        lambda word: image if tuple(word) == (1, 2, 3) else real(word))
    failed = failed_checks(run_suite(3, 0))
    assert failed == {("permutation-embedding", "settuple", 3): "1;2;3"}
    assert main(["verify", "--max-n", "3"]) == 1


def test_embedding_counts_a_cell_short_of_singletons(monkeypatch, capsys):
    real = models.listing
    dropped = models.parse("settuple", "1;2;3")
    monkeypatch.setattr(models, "listing",
                        lambda *args: (pair for pair in real(*args) if pair[1] != dropped))
    failed = failed_checks(run_suite(3, 0))
    assert failed[("permutation-embedding", "settuple", 3)] == (
        "expected 6 singleton tuples, got 5")


@pytest.mark.parametrize("model", models.MODEL_NAMES)
def test_suite_reports_a_cell_out_of_canonical_order(monkeypatch, capsys, model):
    # the first two pairs of the order-3 cell swapped: both still round-trip,
    # and every check but the order reads positions, which stay consistent
    real = models.listing

    def swapped(m, n, *args):
        pairs = list(real(m, n, *args))
        return pairs[1::-1] + pairs[2:] if (m, n) == (model, 3) else pairs

    monkeypatch.setattr(models, "listing", swapped)
    failed = failed_checks(run_suite(3, 0))
    assert failed == {("canonical-order", model, 3): "enumeration is not sorted by serialization"}
    assert main(["verify", "--max-n", "3"]) == 1


# k of every Dellac configuration of order n falls outside 1..n: n + 1 (past
# the last bin) or 0 (which wraps into bin n unless it is refused).
OUT_OF_RANGE_STATISTICS = [lambda n: n + 1, lambda n: 0]


@pytest.mark.parametrize("k_of", OUT_OF_RANGE_STATISTICS, ids=["n+1", "0"])
def test_suite_reports_an_out_of_range_statistic(monkeypatch, capsys, k_of):
    real = models.k_statistic
    monkeypatch.setattr(models, "k_statistic", lambda obj: (
        k_of(obj.n) if isinstance(obj, DellacConfiguration) else real(obj)))
    failed = failed_checks(run_suite(3, 0))
    assert failed[("k-histogram", "dellac", 1)] == "expected (1,), got (0,)"
    assert main(["verify", "--max-n", "3"]) == 1


# Each case sends one object, the first of its cell, to an image that breaks
# its family's definition, built unvalidated as the maps build theirs:
# (map, input model, input, the image's data, check that must fail, the
# check's model, its witness).  The image is no member of its target cell,
# so the check fails without computing anything on it.
INVALID_IMAGES = [
    ("involution_t", "dellac", "1 1 2 2 3 3", (1, 1, 1, 1, 1, 1),
     "involution-t", "dellac", "1 1 2 2 3 3"),
    ("involution_r", "pd2n", "2 1 4 3 6 5 8 7", (1, 2, 3, 4, 5, 6, 7, 8),
     "involution-r", "pd2n", "2 1 4 3 6 5 8 7"),
    ("chain_to_settuple", "chain", ";1;1,2;1,2,3", ((1,), (1,), (1,)),
     "chain-settuple-roundtrip", "settuple", ";1;1,2;1,2,3"),
    ("settuple_to_chain", "settuple", "1;2;3", ((), (1,), (1,), (1,)),
     "settuple-chain-roundtrip", "settuple", "1;2;3"),
    ("phi", "chain", ";1;1,2;1,2,3", ((1, 1), (1, 1), (1, 1)),
     "phi-roundtrip", "hetyei", ";1;1,2;1,2,3"),
    ("phi_inverse", "hetyei", "1,1;1,1;2,3", ((), (1,), (1,), (1, 2, 3)),
     "phi-inverse-roundtrip", "hetyei", "1,1;1,1;2,3"),
    ("reduce", "settuple", "1;2;3", ((1,), (1,)), "reduce-lift", "settuple", "1;2;3"),
    ("lift", "dellac", "1 1 2 2", (1, 1, 1, 1, 1, 1), "reduce-lift", "dellac", "1 1 3 2 2 3"),
]
# An invalid image fails the same checks as a wrong valid one, but it is no
# member, so it collides with no other image and phi stays injective.
INVALID_IMAGE_FAILURES = {
    **SABOTAGE_FAILURES,
    ("phi", ";1;1,2;1,2,3"): {
        key: witness for key, witness in SABOTAGE_FAILURES[("phi", ";1;1,2;1,2,3")].items()
        if key[0] != "phi-injective"
    },
}


@pytest.mark.parametrize("name,model,text,data,check,owner,witness", INVALID_IMAGES)
def test_suite_reports_an_invalid_map_image(monkeypatch, capsys, name, model, text, data,
                                            check, owner, witness):
    real = getattr(maps, name)
    target = models.parse(model, text)
    good = real(target)
    image = models._trusted(type(good), good.n, data)
    with pytest.raises(models.ModelInvariantError):
        type(good)(good.n, data)

    monkeypatch.setattr(maps, name, lambda obj: image if obj == target else real(obj))
    failed = failed_checks(run_suite(3, 0))
    assert failed.get((check, owner, 3)) == witness
    assert failed == INVALID_IMAGE_FAILURES.get((name, text), {(check, owner, 3): witness})
    assert main(["verify", "--max-n", "3"]) == 1


def test_suite_reports_invalid_images_of_a_whole_family(monkeypatch, capsys):
    # t puts every dot of every Dellac configuration in column 1, which is
    # valid at order 1 only
    real = maps.involution_t

    def column_one(obj):
        if isinstance(obj, DellacConfiguration):
            return models._trusted(DellacConfiguration, obj.n, (1,) * (2 * obj.n))
        return real(obj)

    monkeypatch.setattr(maps, "involution_t", column_one)
    failed = failed_checks(run_suite(3, 0))
    assert failed == {("involution-t", "dellac", 2): "1 1 2 2",
                      ("involution-t", "dellac", 3): "1 1 2 2 3 3"}
    assert main(["verify", "--max-n", "3"]) == 1


@pytest.mark.parametrize("model,cls,data,text", [
    ("dellac", DellacConfiguration, (1, 1, 2, 2, 3, 4), "1 1 2 2 3 4"),
    # no subset holds 1, so neither k nor phi is defined on it
    ("chain", FeiginChain, ((), (2,), (2, 3), (2, 3)), ";2;2,3;2,3"),
])
def test_suite_reports_an_invalid_enumerated_object(monkeypatch, capsys, model, cls, data,
                                                    text):
    # the enumerators build unvalidated objects too; this one replaces the
    # first of its order-3 cell, text and object, and parse refuses it
    real = models.listing
    bad = models._trusted(cls, 3, data)

    def sabotaged(m, n, *args):
        pairs = list(real(m, n, *args))
        return [(text, bad)] + pairs[1:] if (m, n) == (model, 3) else pairs

    monkeypatch.setattr(models, "listing", sabotaged)
    failed = failed_checks(run_suite(3, 0))
    assert failed[("serialization-roundtrip", model, 3)] == text
    assert failed[("total", model, 3)] == "expected 7, got 6"
    assert main(["verify", "--max-n", "3"]) == 1


def test_count_matrix_refuses_before_any_tally(monkeypatch):
    calls = []
    monkeypatch.setattr(models, "_tally", lambda *args: calls.append(args))
    with pytest.raises(models.ResourceGuardError, match="guard 8"):
        count_matrix(9)
    with pytest.raises(models.ResourceGuardError, match="guard 3"):
        count_matrix(4, limit=3)
    assert calls == []


def test_pair_count_bound_is_honored():
    for pairs_n in (2, 4):
        # the count runs at the orders n <= min(pairs_n, max_n)
        names = [c.name for c in run_suite(2, pairs_n).checks]
        assert names.count("pair-count") == 2
    skipped = run_suite(2, 0)
    assert "pair-count" not in [c.name for c in skipped.checks]


def test_verify_module_exports():
    assert verify.Check("x", "suite", None, "pass").ok
    assert not verify.Check("x", "suite", 1, "fail", "w").ok
