"""Tests for the persistent detection service.

Covers the service checklist: batch submission with streamed results,
digest-sharded dedupe (in-batch, cross-batch and cross-process through the
store), job states and progress, the failure paths (a detector raising
mid-batch fails only that binary's job entry; an unreadable file likewise),
backpressure under both policies (``reject`` refuses the batch, ``block``
pipelines it), the JSON-lines serve protocol, and the ``fetch-detect
submit`` client whose warm re-run performs zero detector invocations.
"""

from __future__ import annotations

import io
import json
import threading
import time

import pytest
from process_gate import ProcessGate

from repro.cli import main
from repro.core.registry import create_detectors
from repro.core.results import DetectionResult
from repro.eval.executor import ShardedWorkerPool
from repro.service import (
    DetectionService,
    JobState,
    ServeSession,
    ServiceClosed,
    ServiceSaturated,
)
from repro.store import ArtifactStore


@pytest.fixture(scope="module")
def elf_dir(tmp_path_factory, small_corpus):
    """The small corpus written out as ELF files, service-submission style."""
    from repro.elf.writer import write_elf

    directory = tmp_path_factory.mktemp("service-elves")
    paths = []
    for binary in small_corpus[:4]:
        path = directory / f"{binary.name.replace(':', '_')}.elf"
        path.write_bytes(write_elf(binary.image.elf))
        paths.append(str(path))
    return paths


class SlowDetector:
    """A gated stub detector: blocks until released, then reports nothing.

    It runs in a service worker process, so its gate is a
    :class:`ProcessGate`, which the test opens from this process."""

    name = "slow-stub"

    def __init__(self, gate: ProcessGate):
        self.gate = gate

    def detect(self, image, context=None):
        self.gate.wait()
        return DetectionResult(binary_name=image.name)


@pytest.fixture()
def gate(tmp_path):
    """A closed :class:`ProcessGate`, opened again at teardown."""
    gate = ProcessGate(tmp_path / "gate")
    gate.clear()
    yield gate
    gate.set()


class ExplodingDetector:
    """Raises on one specific binary name, succeeds (empty) on the rest."""

    name = "exploding-stub"

    def __init__(self, poison: str):
        self.poison = poison

    def detect(self, image, context=None):
        if self.poison in image.name:
            raise RuntimeError("synthetic mid-batch failure")
        return DetectionResult(binary_name=image.name)


# ----------------------------------------------------------------------
# Submission, streaming and dedupe
# ----------------------------------------------------------------------

class TestSubmission:
    def test_path_batch_streams_results(self, elf_dir):
        with DetectionService(workers=2) as service:
            handle = service.submit(elf_dir)
            results = list(handle.results())
        assert len(results) == len(elf_dir)
        assert handle.state is JobState.DONE
        assert handle.progress() == (len(elf_dir), len(elf_dir))
        assert all(result.ok and result.detector == "fetch" for result in results)
        assert all(result.function_starts for result in results)
        # results() replays after completion
        assert [r.name for r in handle.results()] == [r.name for r in results]

    def test_corpus_entries_carry_metrics(self, small_corpus):
        with DetectionService(workers=2) as service:
            handle = service.submit(small_corpus[:3])
            results = list(handle.results())
        assert all(result.metrics is not None for result in results)
        for result in results:
            assert result.metrics.true_count > 0
            assert result.metrics.recall > 0.9

    def test_results_match_direct_detection(self, elf_dir):
        from repro.core import AnalysisContext, FetchDetector
        from repro.elf.image import BinaryImage

        with DetectionService(workers=3) as service:
            by_name = {r.name: r for r in service.submit(elf_dir).results()}
        for path in elf_dir:
            image = BinaryImage.from_file(path)
            expected = FetchDetector().detect(image, AnalysisContext(image))
            assert by_name[path].function_starts == tuple(
                sorted(expected.function_starts)
            )

    def test_duplicate_binaries_dedupe_in_batch(self, elf_dir):
        with DetectionService(workers=2) as service:
            handle = service.submit([elf_dir[0]] * 4)
            results = list(handle.results())
        assert service.detector_runs == 1
        assert sum(result.cached for result in results) == 3
        assert len({result.function_starts for result in results}) == 1

    def test_store_dedupes_across_services(self, elf_dir, tmp_path):
        store_root = tmp_path / "store"
        with DetectionService(workers=2, store=ArtifactStore(store_root)) as cold:
            list(cold.submit(elf_dir).results())
            assert cold.detector_runs == len(elf_dir)

        # a brand-new service (a "restarted process") over the same store
        with DetectionService(workers=2, store=ArtifactStore(store_root)) as warm:
            results = list(warm.submit(elf_dir).results())
            stats = warm.stats()
        assert warm.detector_runs == 0
        assert all(result.cached for result in results)
        assert stats["store"]["detection_hits"] == len(elf_dir)
        assert stats["store"]["detection_misses"] == 0

    def test_multiple_detectors_and_instances(self, elf_dir):
        exploding = ExplodingDetector(poison="<nowhere>")
        with DetectionService(workers=2) as service:
            handle = service.submit(elf_dir[:2], detectors=["fetch", exploding])
            results = list(handle.results())
        assert handle.total == 4
        assert {result.detector for result in results} == {"fetch", "exploding-stub"}

    def test_unknown_detector_fails_fast(self, elf_dir):
        with DetectionService(workers=1) as service:
            with pytest.raises(KeyError, match="nonexistent"):
                service.submit(elf_dir, detectors=["nonexistent"])
            assert service.stats()["pending_entries"] == 0

    def test_submit_after_close_raises(self, elf_dir):
        service = DetectionService(workers=1)
        service.close()
        with pytest.raises(ServiceClosed):
            service.submit(elf_dir)

    def test_unsubmittable_item_fails_only_that_entry(self, elf_dir):
        with DetectionService(workers=1) as service:
            results = list(service.submit([elf_dir[0], object()]).results())
        by_ok = sorted(results, key=lambda result: result.ok)
        assert not by_ok[0].ok and "unsubmittable item" in by_ok[0].error
        assert by_ok[1].ok

    def test_bounded_state_in_long_lived_service(self, elf_dir):
        with DetectionService(workers=1, job_history=3) as service:
            for _ in range(10):
                assert service.submit(elf_dir[:1]).wait(timeout=30)
            stats = service.stats()
        assert stats["jobs"] == 10
        assert stats["jobs_retained"] <= 3 + 1  # history + possibly-running newest
        assert len(service._memo) <= service.MEMO_LIMIT


# ----------------------------------------------------------------------
# Failure paths
# ----------------------------------------------------------------------

class TestFailurePaths:
    def test_detector_raising_fails_only_that_entry(self, elf_dir):
        poison = elf_dir[1]
        with DetectionService(workers=2) as service:
            handle = service.submit(elf_dir, detectors=[ExplodingDetector(poison)])
            results = list(handle.results())

        assert handle.state is JobState.DONE
        failed = [result for result in results if not result.ok]
        assert [result.name for result in failed] == [poison]
        assert "RuntimeError: synthetic mid-batch failure" in failed[0].error
        assert len([result for result in results if result.ok]) == len(elf_dir) - 1

    def test_unreadable_file_fails_only_that_entry(self, elf_dir, tmp_path):
        missing = str(tmp_path / "never-written.elf")
        with DetectionService(workers=2) as service:
            handle = service.submit([elf_dir[0], missing, elf_dir[1]])
            results = list(handle.results())
        assert service.detector_runs == 2
        by_name = {result.name: result for result in results}
        assert not by_name[missing].ok and "Error" in by_name[missing].error
        assert by_name[elf_dir[0]].ok and by_name[elf_dir[1]].ok

    def test_non_elf_bytes_fail_only_that_entry(self, elf_dir, tmp_path):
        junk = tmp_path / "junk.elf"
        junk.write_bytes(b"definitely not an ELF file")
        with DetectionService(workers=1) as service:
            results = list(service.submit([str(junk), elf_dir[0]]).results())
        by_name = {result.name: result for result in results}
        assert not by_name[str(junk)].ok
        assert by_name[elf_dir[0]].ok

    def test_failed_detection_is_not_cached(self, elf_dir, tmp_path):
        poison = elf_dir[0]
        store = ArtifactStore(tmp_path / "store")
        with DetectionService(workers=1, store=store) as service:
            list(service.submit([poison], detectors=[ExplodingDetector(poison)]).results())
            # the failure must not have poisoned the cache for a healthy run
            results = list(service.submit([poison]).results())
        assert results[0].ok and not results[0].cached


# ----------------------------------------------------------------------
# Backpressure
# ----------------------------------------------------------------------

class TestBackpressure:
    def test_reject_policy_refuses_overflowing_batch(self, elf_dir, gate):
        service = DetectionService(workers=1, queue_limit=2, backpressure="reject")
        try:
            first = service.submit(elf_dir[:2], detectors=[SlowDetector(gate)])
            assert first.state in (JobState.QUEUED, JobState.RUNNING)
            with pytest.raises(ServiceSaturated, match="queue limit 2"):
                service.submit(elf_dir[:1])
            gate.set()
            assert first.wait(timeout=30)
            assert service.stats()["detector_runs"] == 2
            # capacity freed: the same submission is admitted now
            second = service.submit(elf_dir[:1])
            assert second.wait(timeout=30)
        finally:
            gate.set()
            service.close()

    def test_reject_never_partially_enqueues(self, elf_dir, gate):
        service = DetectionService(workers=1, queue_limit=1, backpressure="reject")
        try:
            service.submit(elf_dir[:1], detectors=[SlowDetector(gate)])
            before = service.stats()["pending_entries"]
            with pytest.raises(ServiceSaturated):
                service.submit(elf_dir[:3])
            assert service.stats()["pending_entries"] == before
        finally:
            gate.set()
            service.close()

    def test_block_policy_pipelines_oversized_batch(self, elf_dir):
        # a batch larger than the whole queue drains through it entry by entry
        with DetectionService(workers=1, queue_limit=1, backpressure="block") as service:
            handle = service.submit(elf_dir)
            assert handle.wait(timeout=60)
            assert all(result.ok for result in handle.results())

    def test_block_policy_waits_for_capacity(self, elf_dir, gate):
        service = DetectionService(workers=1, queue_limit=1, backpressure="block")
        try:
            service.submit(elf_dir[:1], detectors=[SlowDetector(gate)])
            admitted = []

            def second_submit():
                admitted.append(service.submit(elf_dir[1:2]))

            submitter = threading.Thread(target=second_submit, daemon=True)
            submitter.start()
            submitter.join(timeout=0.3)
            assert submitter.is_alive(), "submit should block while the queue is full"
            gate.set()
            submitter.join(timeout=30)
            assert not submitter.is_alive()
            assert admitted[0].wait(timeout=30)
        finally:
            gate.set()
            service.close()

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError, match="backpressure"):
            DetectionService(workers=1, backpressure="drop")

    def test_rejected_jobs_are_not_retained(self, elf_dir, gate):
        service = DetectionService(workers=1, queue_limit=1, backpressure="reject")
        try:
            service.submit(elf_dir[:1], detectors=[SlowDetector(gate)])
            retained_before = service.stats()["jobs_retained"]
            for _ in range(10):
                with pytest.raises(ServiceSaturated):
                    service.submit(elf_dir[:2])
            assert service.stats()["jobs_retained"] == retained_before
            with pytest.raises(KeyError):
                service.job(2)  # a rejected job id is not looked up as queued
        finally:
            gate.set()
            service.close()

    def test_close_during_blocked_submit_completes_job_with_errors(self, elf_dir, gate):
        service = DetectionService(workers=1, queue_limit=1, backpressure="block")
        outcome: list = []

        def submitter():
            try:
                service.submit(elf_dir[:3], detectors=[SlowDetector(gate)])
            except ServiceClosed:
                outcome.append("closed")

        submitter_thread = threading.Thread(target=submitter, daemon=True)
        submitter_thread.start()
        deadline = time.monotonic() + 10
        while service.stats()["pending_entries"] < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.2)  # let the submitter park on admission for entry 2
        service.close(wait=False)
        submitter_thread.join(timeout=10)
        assert outcome == ["closed"]

        handle = service.job(1)
        gate.set()  # let the one admitted entry finish
        assert handle.wait(timeout=30), "job must still reach DONE after close"
        failed = [result for result in handle.results() if not result.ok]
        assert failed and all("closed" in result.error for result in failed)
        assert len(failed) == 2
        service.close()  # joins what close(wait=False) left running


# ----------------------------------------------------------------------
# Worker processes: decode accounting
# ----------------------------------------------------------------------

class TestWorkerProcesses:
    # 5: more shard threads folding deltas at once than most hosts have cores
    @pytest.mark.parametrize("workers", [2, 5])
    def test_worker_decodes_fold_back_exactly(self, elf_dir, workers):
        """Detections run in worker processes, yet the parent's
        ``DECODE_STATS`` moves by exactly what running the same binaries
        serially in this process does."""
        from pathlib import Path

        from repro.core.pipeline import FetchDetector
        from repro.elf.image import BinaryImage
        from repro.x86.disassembler import DECODE_STATS

        before = DECODE_STATS.raw_decodes
        for path in elf_dir:
            FetchDetector().detect(BinaryImage.from_bytes(Path(path).read_bytes(), name=path))
        serial = DECODE_STATS.raw_decodes - before
        assert serial > 0

        with DetectionService(workers=workers) as service:
            before = DECODE_STATS.raw_decodes
            results = list(service.submit(elf_dir).results())
            moved = DECODE_STATS.raw_decodes - before
        assert all(result.ok for result in results)
        assert service.detector_runs == len(elf_dir)
        assert moved == serial


# ----------------------------------------------------------------------
# The sharded pool and detector resolution
# ----------------------------------------------------------------------

class TestShardedWorkerPool:
    def test_same_key_runs_in_submission_order_on_one_thread(self):
        observed: list[tuple[int, str]] = []
        with ShardedWorkerPool(4) as pool:
            done = threading.Event()
            digest = "ab" * 32
            for index in range(8):
                pool.submit(
                    digest,
                    lambda i=index: observed.append((i, threading.current_thread().name)),
                )
            pool.submit(digest, done.set)
            assert done.wait(timeout=10)
        assert [index for index, _ in observed] == list(range(8))
        assert len({thread for _, thread in observed}) == 1

    def test_task_exceptions_are_recorded_not_fatal(self):
        with ShardedWorkerPool(1) as pool:
            done = threading.Event()
            pool.submit(0, lambda: 1 / 0)
            pool.submit(0, done.set)
            assert done.wait(timeout=10)
        assert len(pool.task_errors) == 1
        assert isinstance(pool.task_errors[0], ZeroDivisionError)

    def test_submit_after_close_raises(self):
        pool = ShardedWorkerPool(1)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.submit(0, lambda: None)


class TestJobHandleTimeout:
    def test_results_timeout_is_a_monotonic_deadline(self):
        """Spurious condition wakeups must not restart the timeout clock.

        Regression: the wait loop used to re-wait the *full* timeout after
        every notification, so a handle poked often enough (progress on
        other jobs sharing the condition) never timed out at all.
        """
        from repro.service.service import JobHandle

        handle = JobHandle(1, total=1)  # no results ever arrive
        stop = threading.Event()

        def nuisance_notifier():
            while not stop.is_set():
                with handle._cond:
                    handle._cond.notify_all()
                time.sleep(0.05)

        noise = threading.Thread(target=nuisance_notifier, daemon=True)
        noise.start()
        try:
            start = time.monotonic()
            with pytest.raises(TimeoutError):
                list(handle.results(timeout=0.4))
            elapsed = time.monotonic() - start
        finally:
            stop.set()
            noise.join(timeout=5)
        assert 0.4 <= elapsed < 2.0


class TestCreateDetectors:
    def test_default_is_fetch(self):
        detectors = create_detectors(None)
        assert [type(d).__name__ for d in detectors] == ["FetchDetector"]
        assert create_detectors([])[0].name == "fetch"

    def test_mixes_names_and_instances(self):
        stub = ExplodingDetector(poison="x")
        resolved = create_detectors(["ghidra", stub, "fetch"])
        assert [getattr(d, "name") for d in resolved] == ["ghidra", "exploding-stub", "fetch"]
        assert resolved[1] is stub

    def test_unknown_name_raises_before_running(self):
        with pytest.raises(KeyError, match="no-such-tool"):
            create_detectors(["fetch", "no-such-tool"])


# ----------------------------------------------------------------------
# The serve protocol
# ----------------------------------------------------------------------

def _serve(requests: list[dict | str], **service_kwargs) -> list[dict]:
    lines = [
        request if isinstance(request, str) else json.dumps(request)
        for request in requests
    ]
    output = io.StringIO()
    with DetectionService(**service_kwargs) as service:
        assert ServeSession(service, io.StringIO("\n".join(lines) + "\n"), output).run() == 0
    return [json.loads(line) for line in output.getvalue().splitlines()]


class TestServeProtocol:
    def test_submit_wait_stats_shutdown(self, elf_dir):
        events = _serve(
            [
                {"op": "submit", "paths": elf_dir[:2], "detectors": ["fetch"]},
                {"op": "wait", "job": 1},
                {"op": "stats"},
                {"op": "shutdown"},
            ],
            workers=2,
        )
        kinds = [event["event"] for event in events]
        assert kinds[0] == "accepted" and kinds[-1] == "bye"
        accepted = events[0]
        assert accepted["job"] == 1 and accepted["units"] == 2

        results = [event for event in events if event["event"] == "result"]
        assert len(results) == 2
        assert all(event["count"] > 0 and "error" not in event for event in results)

        status = next(event for event in events if event["event"] == "status")
        assert status["state"] == "done" and status["done"] == status["total"] == 2
        stats = next(event for event in events if event["event"] == "stats")
        assert stats["detector_runs"] == 2
        assert any(event["event"] == "job-done" for event in events)

    def test_end_of_input_drains_in_flight_jobs(self, elf_dir):
        # no shutdown op: the session must still drain the job before "bye"
        events = _serve([{"op": "submit", "paths": elf_dir[:1]}], workers=1)
        kinds = [event["event"] for event in events]
        assert "job-done" in kinds and kinds[-1] == "bye"

    def test_errors_are_events_not_crashes(self, elf_dir):
        events = _serve(
            [
                "this is not json",
                {"op": "frobnicate"},
                {"op": "submit", "paths": []},
                {"op": "submit", "paths": [5, None]},
                {"op": "submit", "paths": ["a.elf"], "detectors": [7]},
                {"op": "status", "job": 99},
                {"op": "shutdown"},
            ],
            workers=1,
        )
        errors = [event for event in events if event["event"] == "error"]
        assert len(errors) == 6
        assert events[-1]["event"] == "bye"

    def test_drainer_threads_are_pruned(self, elf_dir):
        output = io.StringIO()
        with DetectionService(workers=1) as service:
            session = ServeSession(service, io.StringIO(), output)
            for job_id in range(1, 6):
                assert session._handle({"op": "submit", "paths": [elf_dir[0]]})
                assert session._jobs[job_id].wait(timeout=30)
            deadline = time.monotonic() + 10
            while (
                any(thread.is_alive() for thread in session._drainers.values())
                and time.monotonic() < deadline
            ):
                time.sleep(0.02)
            assert session._handle({"op": "submit", "paths": [elf_dir[0]]})
            assert set(session._drainers) == {6}, "finished drainers must be pruned"
            assert session._jobs[6].wait(timeout=30)
            assert session.drain(timeout=10)

    def test_saturation_is_an_error_event(self, elf_dir):
        events = _serve(
            [
                {"op": "submit", "paths": elf_dir},
                {"op": "wait", "job": 1},
                {"op": "submit", "paths": elf_dir * 40},
                {"op": "shutdown"},
            ],
            workers=1,
            queue_limit=4,
            backpressure="reject",
        )
        errors = [event for event in events if event["event"] == "error"]
        assert any("queue limit" in event["error"] for event in errors)


# ----------------------------------------------------------------------
# The fetch-detect submit client
# ----------------------------------------------------------------------

class TestSubmitCli:
    def test_warm_submission_does_zero_detector_work(self, elf_dir, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["submit", *elf_dir, "--store", store]) == 0
        cold = capsys.readouterr().out
        assert "0 cached" in cold and f"{len(elf_dir)} detector runs" in cold

        assert main(["submit", *elf_dir, "--store", store]) == 0
        warm = capsys.readouterr().out
        assert "0 detector runs" in warm
        assert f"{len(elf_dir)} cached" in warm
        assert f"{len(elf_dir)} detection hits, 0 misses" in warm

    def test_json_output_carries_stats(self, elf_dir, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["submit", *elf_dir[:2], "--json", "--store", store]) == 0
        record = json.loads(capsys.readouterr().out)
        assert len(record["results"]) == 2
        assert record["stats"]["detector_runs"] == 2
        assert record["stats"]["store"]["detection_misses"] == 2
        assert record["status"] == 0

    def test_submit_reports_entry_errors(self, elf_dir, tmp_path, capsys):
        missing = str(tmp_path / "missing.elf")
        assert main(["submit", elf_dir[0], missing, "--no-store"]) == 1
        captured = capsys.readouterr()
        assert missing in captured.err
        assert elf_dir[0] in captured.out

    def test_submit_rejects_unknown_detector(self, elf_dir, capsys):
        with pytest.raises(SystemExit):
            main(["submit", elf_dir[0], "--detector", "nonexistent"])

    def test_subcommand_word_prefers_existing_file(self, tmp_path, monkeypatch, capsys):
        # a *file* named "serve" is analysed, not routed to the service
        monkeypatch.chdir(tmp_path)
        (tmp_path / "serve").write_bytes(b"not an ELF")
        assert main(["serve"]) == 1
        assert "cannot load" in capsys.readouterr().err
