"""Tests for the benchmark's own helpers (percentiles, self time, seeded inputs)."""

from __future__ import annotations

import itertools
import time

import pb_inputs
import pb_stats
import pb_trace
import pytest
from run import parse_importtime

from repro.core import AnalysisContext, FetchDetector
from repro.elf.image import BinaryImage
from repro.elf.writer import write_elf
from repro.synth import corpus as synth_corpus


@pytest.fixture(scope="module")
def small_binary():
    """The smallest binary of one sampled corpus cell."""
    cell = pb_inputs.draw_cells(5, "tests", per_project=1)[0]
    return min(pb_inputs.build_cells(5, [cell]), key=lambda b: b.function_count)


class TestTail:
    def test_hundred_samples_give_p90(self):
        tail = pb_stats.tail([float(v) for v in range(1, 101)])
        assert (tail.value, tail.percentile, tail.beyond, tail.samples) == (90.0, 90.0, 10, 100)

    def test_order_does_not_matter(self):
        values = [float(v) for v in range(1, 31)]
        assert pb_stats.tail(values) == pb_stats.tail(list(reversed(values)))

    def test_smallest_sample_with_a_tail(self):
        tail = pb_stats.tail([5.0, 1.0, 3.0, 2.0, 4.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0])
        assert (tail.value, tail.beyond, tail.samples) == (1.0, 10, 11)

    @pytest.mark.parametrize("count", [0, 1, 10])
    def test_no_tail_without_ten_beyond(self, count):
        assert pb_stats.tail([1.0] * count) is None

    def test_one_block_is_the_plain_rule(self):
        values = [float(v) for v in range(1, 201)]
        assert pb_stats.block_tail(values).value == pb_stats.tail(values).value

    def test_block_tail_is_the_median_block(self):
        # three blocks of 1000; block i's p99 is 990 + i * 10000
        values = [float(i * 10000 + v) for i in range(3) for v in range(1, 1001)]
        tail = pb_stats.block_tail(values, block=1000)
        assert (tail.value, tail.percentile, tail.blocks, tail.samples) == (
            10990.0, 99.0, 3, 3000)
        assert pb_stats.block_tail(values).percentile == 95.0

    def test_block_tail_needs_eleven_samples(self):
        assert pb_stats.block_tail([]) is None
        assert pb_stats.block_tail([1.0] * 10) is None

    def test_quartile_spread(self):
        assert pb_stats.quartile_spread([10.0] * 5) == 0.0
        assert pb_stats.quartile_spread([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx(0.3)


class TestSelfTime:
    def test_covered_clips_and_merges_overlaps(self):
        assert pb_trace.covered_ns(0, 100, [(10, 30), (20, 50), (90, 120)]) == 50
        assert pb_trace.covered_ns(0, 100, []) == 0

    def test_self_times_of_nested_spans(self):
        spans = [
            (1, 0, "core.detect", 0, 100, "a"),
            (2, 1, "core.tailcall", 10, 60, "a"),
            (3, 2, "x86.decode", 20, 30, "a"),
            (4, 2, "x86.decode", 40, 45, "a"),
            (5, 1, "analysis.recursion", 70, 90, "a"),
        ]
        totals = pb_trace.layer_totals(spans)
        assert totals["core.detect"] == {"calls": 1, "total_ns": 100, "self_ns": 30}
        assert totals["core.tailcall"] == {"calls": 1, "total_ns": 50, "self_ns": 35}
        assert totals["x86.decode"] == {"calls": 2, "total_ns": 15, "self_ns": 15}
        assert sum(row["self_ns"] for row in totals.values()) == 100

    def test_window_keeps_spans_ending_inside(self):
        spans = [(1, 0, "elf.load", 0, 10, None), (2, 0, "elf.load", 20, 30, None)]
        assert pb_trace.layer_totals(spans, window=(15, 35))["elf.load"]["calls"] == 1

    def test_tracer_links_children_and_request_ids(self):
        tracer = pb_trace.Tracer()

        def leaf():
            time.sleep(0.001)

        def stage():
            tracer.call("x86.decode", leaf, (), {})

        tracer.call("core.detect", stage, (), {}, rid="req-1")
        (child_id, parent_of_child, _, _, _, child_rid), (root_id, root_parent, *_, root_rid) = (
            tracer.spans
        )
        assert parent_of_child == root_id and root_parent == 0
        assert child_rid == root_rid == "req-1"
        totals = pb_trace.layer_totals(tracer.spans)
        detect = totals["core.detect"]
        assert detect["self_ns"] + totals["x86.decode"]["self_ns"] == detect["total_ns"]

    def test_install_wraps_and_undoes(self, small_binary):
        original = FetchDetector.detect
        tracer = pb_trace.Tracer()
        undo = pb_trace.install(tracer)
        try:
            assert FetchDetector.detect is not original
            FetchDetector().detect(small_binary.image, AnalysisContext(small_binary.image))
        finally:
            undo()
        assert FetchDetector.detect is original
        totals = pb_trace.layer_totals(tracer.spans)
        detect = totals["core.detect"]
        assert detect["calls"] == 1
        assert totals["x86.decode"]["calls"] > 0
        children = sum(row["self_ns"] for name, row in totals.items() if name != "core.detect")
        assert children + detect["self_ns"] == detect["total_ns"]


class TestSeededInputs:
    def test_same_seed_same_cells(self):
        draw = lambda seed: pb_inputs.draw_cells(seed, "serve-cold", per_project=1)
        assert draw(2021) == draw(2021)
        assert draw(2021) != draw(2022)
        assert [cell[0] for cell in draw(2021)] == list(synth_corpus.SELFBUILT_PROJECTS)

    def test_every_project_is_sampled(self):
        cells = pb_inputs.draw_cells(7, "serve-cold", per_project=2)
        assert len(cells) == 2 * len(synth_corpus.SELFBUILT_PROJECTS)
        assert len(set(cells)) == len(cells)

    def test_same_seed_same_op_sequence(self):
        first = lambda seed: list(itertools.islice(pb_inputs.cold_passes(seed, 46), 100))
        assert first(2021) == first(2021)
        assert first(2021) != first(2022)

    def test_cold_passes_never_repeat_a_binary_variant(self):
        pairs = list(itertools.islice(pb_inputs.cold_passes(1, 6), 18))
        assert len(set(pairs)) == 18
        assert sorted(index for index, variant in pairs if variant == 1) == list(range(6))

    def test_sampled_cell_matches_full_corpus(self):
        project = next(p for p in synth_corpus.SELFBUILT_PROJECTS if p.programs == 1)
        cells = pb_inputs.draw_cells(5, "serve-cold", per_project=1)
        cell = next(c for c in cells if c[0] == project)
        sampled = pb_inputs.build_cells(5, [cell])
        full = synth_corpus.build_selfbuilt_corpus(seed=5, scale=1.0, projects=(project,))
        match = [b for b in full if b.name == sampled[0].name]
        assert len(sampled) == 1 and len(match) == 1
        assert match[0].ground_truth.function_starts == sampled[0].ground_truth.function_starts
        assert write_elf(match[0].image.elf) == write_elf(sampled[0].image.elf)

    def test_variant_is_detected_like_the_original(self, tmp_path, small_binary):
        (item,) = pb_inputs.write_inputs([small_binary], tmp_path)
        variant = item.variant(3)
        assert variant.read_bytes() != item.path.read_bytes()

        def starts(path):
            image = BinaryImage.from_bytes(path.read_bytes())
            return FetchDetector().detect(image, AnalysisContext(image)).function_starts

        assert starts(variant) == starts(item.path)


class TestChecks:
    def test_tally_flags_inconsistent_repeats(self):
        tally = pb_inputs.Tally()
        truth = frozenset(range(0, 100, 10))
        assert tally.check("a", list(truth), truth) is None
        assert tally.check("a", list(truth)[:-1], truth) is not None

    def test_tally_flags_duplicate_starts(self):
        tally = pb_inputs.Tally()
        assert "duplicate" in tally.check("c", [0, 10, 10], frozenset({0, 10}))

    def test_tally_counts_every_operation(self):
        tally = pb_inputs.Tally()
        truth = frozenset(range(0, 100, 10))
        for _ in range(3):
            assert tally.check("d", [*range(0, 90, 10), 95], truth) is None
        assert (tally.true_positives, tally.false_positives, tally.false_negatives) == (27, 3, 3)
        assert tally.precision == tally.recall == 0.9

    def test_tally_floors(self):
        tally = pb_inputs.Tally()
        truth = frozenset(range(10))
        assert "floor" in tally.check("b", [0, 1, 2], truth)

    def test_parse_importtime(self):
        stderr = (
            "import time: self [us] | cumulative | imported package\n"
            "import time:       100 |        100 |     networkx.x\n"
            "import time:       200 |        300 |   networkx\n"
            "import time:        50 |        350 | repro.eval\n"
        )
        parsed = parse_importtime(stderr)
        assert parsed["total"] == pytest.approx(350e-6)
        assert parsed["networkx"] == pytest.approx(300e-6)
        assert parsed["repro.eval"] == pytest.approx(350e-6)
