"""Content-addressed, on-disk artifact store.

The store persists every expensive artifact of the evaluation stack so warm
re-runs reuse instead of recompute:

* **blobs** (``objects/``) — raw content-addressed bytes: serialized ELF
  images and pickled program plans, named by their SHA-256.
* **corpus manifests** (``corpora/``) — one JSON document per built corpus,
  keyed by a digest of the build parameters (plan parameters, scenario,
  generator version).  A manifest row references each binary's ELF blob and
  plan blob and inlines its ground truth.
* **detector results** (``results/``) — one :class:`BinaryMetrics` record
  per (binary digest, detector name, options digest) triple.
* **map values** (``values/``) — pickled per-binary values for opt-in
  :meth:`CorpusEvaluator.map` caching.
* **matrix cells** (``matrix/``) — one summary record per
  (scenario, detector) cell of a :class:`~repro.eval.runner.ScenarioMatrix`
  run; deleting a cell file invalidates exactly that cell.

The store is a layered subsystem (see ``docs/ARCHITECTURE.md``):

* :mod:`repro.store.backend` owns the versioned on-disk layout (sharded
  directory fanout, v1→v2 migration, durable atomic writes);
* :mod:`repro.store.locking` provides the cross-process advisory
  :class:`FileLock` (timeout + stale-lock recovery) wrapping every
  read-modify-write;
* :mod:`repro.store.index` keeps the append-only manifest/index journal,
  so :meth:`describe`, :meth:`corpus_manifests` and key enumeration never
  scan the object tree;
* :mod:`repro.store.gc` evicts by age and size budget
  (``fetch-detect store gc``).

All artifact writes are atomic *and durable* (tempfile + fsync + rename +
directory fsync) so concurrent runs over one store never observe torn
artifacts, even across a crash.  The store root defaults to the
``REPRO_STORE_DIR`` environment variable, falling back to ``.repro-store``
in the working directory.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import pickle
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator, Sequence

from repro.store.backend import FilesystemBackend, StoreBackend
from repro.store.digest import blob_digest, stable_digest
from repro.store.index import StoreIndex
from repro.store.locking import FileLock, LockTimeout

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.eval.metrics import BinaryMetrics
    from repro.store.gc import GCReport
    from repro.synth.compiler import SyntheticBinary

#: Bumped when the *record* format changes; part of every key, so a format
#: change invalidates old stores instead of misreading them.  (Directory
#: layout is versioned separately — see :mod:`repro.store.backend` — and
#: never affects keys, which is what makes layout migration warm.)
STORE_FORMAT = 1

#: Attribute attached to binaries whose ELF digest is already known (set on
#: store load and after the first digest computation), so reloaded binaries
#: are never re-serialized just to learn their own digest.
_DIGEST_ATTRIBUTE = "_store_elf_digest"

#: Keep at most this many lock-wait samples (the contention benchmark
#: reads them; a long-lived service must not grow without bound).
_LOCK_WAIT_SAMPLES = 10_000


def default_store_root() -> Path:
    """The store root from ``REPRO_STORE_DIR``, or ``.repro-store``."""
    return Path(os.environ.get("REPRO_STORE_DIR") or ".repro-store")


def elf_bytes_of(binary: "SyntheticBinary") -> bytes:
    """The serialized ELF image of ``binary`` (kept bytes, else re-written)."""
    if binary.elf_bytes:
        return binary.elf_bytes
    from repro.elf.writer import write_elf

    return write_elf(binary.image.elf)


def digest_of_binary(binary: "SyntheticBinary", data: bytes | None = None) -> str:
    """The content digest of ``binary``'s serialized ELF image, memoized.

    Computed once per binary object and cached on it (the same attribute
    :meth:`ArtifactStore.binary_digest` and the corpus loader use), so
    repeated submissions of one in-memory binary never re-serialize it —
    with or without a store.  ``data`` is that image when the caller has
    already serialized it.
    """
    cached = getattr(binary, _DIGEST_ATTRIBUTE, None)
    if cached is not None:
        return cached
    digest = blob_digest(elf_bytes_of(binary) if data is None else data)
    setattr(binary, _DIGEST_ATTRIBUTE, digest)
    return digest


class ArtifactStore:
    """Content-addressed cache of corpora, detector results and matrix cells.

    Thread safety: every write goes through the backend's durable atomic
    write (tempfile + fsync + ``os.replace``), so readers — in this
    process, in concurrent worker threads, or in other processes sharing
    the directory — observe either the complete artifact or none of it,
    never a torn file.  Two writers racing on one key both write the same
    content-addressed payload, so the loser's replace is harmless.  The
    :attr:`stats` counters are mutated under an internal lock, so
    concurrent workers (the :class:`~repro.eval.executor.ShardedWorkerPool`
    threads of the detection service) never lose increments; a
    multi-counter snapshot taken while workers run is still only
    approximate — take :meth:`stats_snapshot` deltas around quiescent
    points (as :class:`~repro.eval.runner.ScenarioMatrix` and the
    detection service do).

    Cross-process read-modify-write sections (index journal appends and
    compaction, GC, migration, corpus-build arbitration) serialise on one
    advisory :class:`FileLock` at ``<root>/.lock`` with timeout and
    stale-lock recovery; per-acquisition wait times accumulate in
    :attr:`lock_waits` for the contention benchmark's percentiles.
    """

    def __init__(
        self,
        root: str | os.PathLike | None = None,
        *,
        backend: StoreBackend | None = None,
        lock_timeout: float = 30.0,
        journal_limit_bytes: int = 1_000_000,
    ):
        if backend is not None:
            self.backend = backend
        else:
            self.backend = FilesystemBackend(
                Path(root) if root is not None else default_store_root()
            )
        self.root = self.backend.root
        self.index = StoreIndex(self.root, journal_limit_bytes=journal_limit_bytes)
        self._file_lock = FileLock(self.root / ".lock", timeout=lock_timeout)
        self._stats_lock = threading.Lock()
        #: seconds waited per cross-process lock acquisition (bounded ring)
        self.lock_waits: list[float] = []
        self.stats: dict[str, int] = {
            "corpus_hits": 0,
            "corpus_misses": 0,
            "result_hits": 0,
            "result_misses": 0,
            "value_hits": 0,
            "value_misses": 0,
            "cell_hits": 0,
            "cell_misses": 0,
            "detection_hits": 0,
            "detection_misses": 0,
        }

    # -- plumbing -------------------------------------------------------
    def _bump(self, counter: str) -> None:
        """Increment one stats counter (lock-guarded: never loses updates)."""
        with self._stats_lock:
            self.stats[counter] += 1

    def _note_lock_wait(self, waited: float) -> None:
        with self._stats_lock:
            self.lock_waits.append(waited)
            if len(self.lock_waits) > _LOCK_WAIT_SAMPLES:
                del self.lock_waits[: _LOCK_WAIT_SAMPLES // 2]

    @contextlib.contextmanager
    def _locked(self) -> Iterator[None]:
        """Hold the store-wide cross-process lock (RMW sections only)."""
        self._note_lock_wait(self._file_lock.acquire())
        try:
            yield
        finally:
            self._file_lock.release()

    def _index_put(self, namespace: str, key: str, size_bytes: int) -> None:
        """Journal one new artifact; compact when the journal outgrows its
        budget.  The lock makes append-then-maybe-compact atomic across
        processes — a concurrent writer's append can never be dropped."""
        with self._locked():
            size = self.index.append("put", namespace, key, size_bytes)
            if size > self.index.journal_limit_bytes:
                self.index.compact()

    def _record_path(self, namespace: str, key: str) -> Path:
        return self.backend.record_path(namespace, key)

    def _load_record(self, namespace: str, key: str) -> dict[str, Any] | None:
        data = self.backend.load_record_bytes(namespace, key)
        if data is None:
            return None
        try:
            record = json.loads(data)
        except ValueError:
            return None
        if record.get("format") != STORE_FORMAT:
            return None
        return record

    def _save_record(self, namespace: str, key: str, record: dict[str, Any]) -> Path:
        record = {"format": STORE_FORMAT, **record}
        data = (json.dumps(record, indent=2, sort_keys=True) + "\n").encode()
        path, existed = self.backend.save_record_bytes(namespace, key, data)
        if not existed:
            self._index_put(namespace, key, len(data))
        return path

    # -- blobs ----------------------------------------------------------
    def blob_path(self, digest: str) -> Path:
        """Where the blob named ``digest`` lives (whether or not it exists).

        The canonical path under the active layout; a blob written before
        a layout migration may still live at its legacy path, which
        :meth:`get_blob` finds transparently.
        """
        return self.backend.blob_path(digest)

    def put_blob(self, data: bytes) -> str:
        """Store raw bytes under their SHA-256; returns the digest.

        Idempotent and safe to race: a blob that already exists is left
        untouched (content addressing makes re-writing it a no-op by
        definition), and a concurrent writer of the same bytes produces the
        identical file via the atomic-rename path.
        """
        digest = blob_digest(data)
        _path, existed = self.backend.save_blob(digest, data)
        if not existed:
            self._index_put("objects", digest, len(data))
        return digest

    def get_blob(self, digest: str) -> bytes | None:
        """The bytes stored under ``digest``, or ``None`` when absent.

        Never raises on a missing or unreadable blob — garbage-collected
        objects read as cache misses, matching :meth:`load_corpus`.
        """
        return self.backend.load_blob(digest)

    # -- binary identity ------------------------------------------------
    def binary_digest(self, binary: "SyntheticBinary") -> str:
        """The content digest of ``binary``'s serialized ELF image.

        Computed once per binary object and cached on it; binaries loaded
        from a manifest carry the digest of the stored blob, so they are
        never re-serialized (re-serializing a *parsed* image is not
        byte-stable, the blob is the identity).
        """
        return digest_of_binary(binary)

    @staticmethod
    def _elf_bytes(binary: "SyntheticBinary") -> bytes:
        return elf_bytes_of(binary)

    # -- corpora --------------------------------------------------------
    def corpus_key(self, kind: str, params: dict[str, Any]) -> str:
        """Content key of a corpus: build kind + every build parameter."""
        return stable_digest({"kind": kind, "params": params, "format": STORE_FORMAT})

    def has_corpus(self, key: str) -> bool:
        return self._load_record("corpora", key) is not None

    @contextlib.contextmanager
    def build_lock(self, key: str, *, timeout: float = 600.0) -> Iterator[None]:
        """Cross-process arbitration for one expensive build keyed ``key``.

        Two processes racing to build the same corpus serialise here: the
        loser waits, re-checks the store, and reloads instead of
        rebuilding.  On lock timeout the caller proceeds to build anyway —
        duplicated work is always preferred over a wedged build (the save
        race itself is benign: both writers produce the same key).
        """
        lock = FileLock(
            self.root / "locks" / f"build-{key[:16]}.lock",
            timeout=timeout,
            stale_after=3600.0,
        )
        try:
            waited = lock.acquire()
        except LockTimeout:
            yield
            return
        self._note_lock_wait(waited)
        try:
            yield
        finally:
            lock.release()

    def save_corpus(
        self,
        key: str,
        kind: str,
        params: dict[str, Any],
        entries: Sequence[Any],
    ) -> Path:
        """Persist a built corpus under ``key``.

        ``entries`` are :class:`SyntheticBinary` objects or
        ``(WildProfile, SyntheticBinary)`` pairs (the wild corpus shape);
        :meth:`load_corpus` returns the same shape.
        """
        rows = []
        for entry in entries:
            profile, binary = entry if isinstance(entry, tuple) else (None, entry)
            elf_digest = self.put_blob(self._elf_bytes(binary))
            setattr(binary, _DIGEST_ATTRIBUTE, elf_digest)
            plan_digest = self.put_blob(pickle.dumps(binary.plan, protocol=4))
            rows.append(
                {
                    "name": binary.name,
                    "elf": elf_digest,
                    "plan": plan_digest,
                    "ground_truth": _ground_truth_to_record(binary.ground_truth),
                    "wild_profile": dataclasses.asdict(profile) if profile else None,
                }
            )
        return self._save_record(
            "corpora",
            key,
            {"kind": kind, "params": _jsonable(params), "binaries": rows},
        )

    def load_corpus(self, key: str) -> list[Any] | None:
        """Reload the corpus stored under ``key`` (``None`` on a miss).

        A manifest whose blobs have been garbage-collected counts as a miss,
        never as an error.
        """
        record = self._load_record("corpora", key)
        if record is None:
            self._bump("corpus_misses")
            return None
        from repro.elf.image import BinaryImage
        from repro.synth.compiler import SyntheticBinary
        from repro.synth.profiles import WildProfile

        entries: list[Any] = []
        for row in record["binaries"]:
            elf_data = self.get_blob(row["elf"])
            plan_data = self.get_blob(row["plan"])
            if elf_data is None or plan_data is None:
                self._bump("corpus_misses")
                return None
            binary = SyntheticBinary(
                name=row["name"],
                image=BinaryImage.from_bytes(elf_data, name=row["name"]),
                ground_truth=_ground_truth_from_record(row["ground_truth"]),
                plan=pickle.loads(plan_data),
            )
            setattr(binary, _DIGEST_ATTRIBUTE, row["elf"])
            if row.get("wild_profile"):
                entries.append((WildProfile(**row["wild_profile"]), binary))
            else:
                entries.append(binary)
        self._bump("corpus_hits")
        return entries

    def corpus_manifests(self) -> list[dict[str, Any]]:
        """Every stored corpus manifest (for ``fetch-detect corpus info``).

        Answered from the manifest index — no tree walk; a legacy
        (pre-index) store falls back to one walk of ``corpora/`` until its
        index is rebuilt (``store migrate`` / ``store stats --rebuild``).
        """
        manifests = []
        if self.index.has_data():
            keys = self.index.keys("corpora")
        else:
            keys = sorted(
                key
                for namespace, key, _path, _size, _mtime in self.backend.iter_entries()
                if namespace == "corpora"
            )
        for key in keys:
            record = self._load_record("corpora", key)
            if record is None:
                continue
            record["key"] = key
            manifests.append(record)
        return manifests

    # -- detector results -----------------------------------------------
    def _result_key(self, binary: "SyntheticBinary", detector: str, options_digest: str) -> str:
        return stable_digest(
            {
                "binary": self.binary_digest(binary),
                "detector": detector,
                "options": options_digest,
                "format": STORE_FORMAT,
            }
        )

    def load_result(
        self, binary: "SyntheticBinary", detector: str, options_digest: str
    ) -> "BinaryMetrics | None":
        """The cached :class:`BinaryMetrics` of one detector run, or ``None``.

        Keyed by (binary content digest, detector name, options digest), so
        a hit is only served for byte-identical input analysed by an
        identically-configured, identically-versioned detector.  Safe to
        call from concurrent workers: a record is read back only after its
        atomic rename, never mid-write.
        """
        record = self._load_record("results", self._result_key(binary, detector, options_digest))
        if record is None:
            self._bump("result_misses")
            return None
        self._bump("result_hits")
        return _metrics_from_record(record["metrics"])

    def save_result(
        self,
        binary: "SyntheticBinary",
        detector: str,
        options_digest: str,
        metrics: "BinaryMetrics",
    ) -> Path:
        """Persist one detector run's :class:`BinaryMetrics` (atomic write).

        Concurrent saves of the same key are benign — both writers derived
        the metrics from identical inputs, so last-rename-wins replaces the
        record with equal content.
        """
        return self._save_record(
            "results",
            self._result_key(binary, detector, options_digest),
            {"detector": detector, "metrics": _metrics_to_record(metrics)},
        )

    # -- opt-in map-value cache -----------------------------------------
    def _value_key(self, binary: "SyntheticBinary", cache_key: str) -> str:
        return stable_digest(
            {"binary": self.binary_digest(binary), "key": cache_key, "format": STORE_FORMAT}
        )

    def load_value(self, binary: "SyntheticBinary", cache_key: str) -> tuple[bool, Any]:
        """``(hit, value)`` for a cached per-binary map value."""
        data = self.backend.load_record_bytes(
            "values", self._value_key(binary, cache_key)
        )
        if data is None:
            self._bump("value_misses")
            return False, None
        self._bump("value_hits")
        return True, pickle.loads(data)

    def save_value(self, binary: "SyntheticBinary", cache_key: str, value: Any) -> None:
        """Persist a picklable per-binary value under ``cache_key`` (atomic).

        The caller owns the key's meaning — see
        :meth:`CorpusEvaluator.map`'s ``cache_key`` contract.
        """
        key = self._value_key(binary, cache_key)
        data = pickle.dumps(value, protocol=4)
        _path, existed = self.backend.save_record_bytes("values", key, data)
        if not existed:
            self._index_put("values", key, len(data))

    # -- scenario-matrix cells ------------------------------------------
    def cell_key(
        self,
        scenario: str,
        detector: str,
        binary_digests: Sequence[str],
        options_digest: str,
    ) -> str:
        """Content key of one matrix cell.

        The binary digests are part of the key, so any change to the corpus
        row (different scale, seed, generator version) invalidates the cell
        automatically.
        """
        return stable_digest(
            {
                "scenario": scenario,
                "detector": detector,
                "binaries": list(binary_digests),
                "options": options_digest,
                "format": STORE_FORMAT,
            }
        )

    def cell_path(self, key: str) -> Path:
        return self._record_path("matrix", key)

    def load_cell(self, key: str) -> dict[str, Any] | None:
        record = self._load_record("matrix", key)
        if record is None:
            self._bump("cell_misses")
            return None
        self._bump("cell_hits")
        return record

    def save_cell(self, key: str, record: dict[str, Any]) -> Path:
        return self._save_record("matrix", key, record)

    # -- CLI / service detection records --------------------------------
    def detection_key(self, file_digest: str, detector: str, options_digest: str) -> str:
        """Content key of one detection run over one binary.

        Shared by the ``fetch-detect`` CLI and the detection service, so a
        corpus analysed through either front-end warms the other: the key
        depends only on the file's content digest, the detector name and
        its options/logic digest — never on the path or the submitting
        process.
        """
        return stable_digest(
            {"file": file_digest, "detector": detector, "options": options_digest}
        )

    def load_detection(self, key: str) -> dict[str, Any] | None:
        """A cached ``fetch-detect`` run (starts, stages, merged parts)."""
        record = self._load_record("detections", key)
        if record is None:
            self._bump("detection_misses")
            return None
        self._bump("detection_hits")
        return record

    def save_detection(self, key: str, record: dict[str, Any]) -> Path:
        return self._save_record("detections", key, record)

    # -- maintenance ----------------------------------------------------
    def migrate(self) -> dict[str, int]:
        """Migrate the on-disk layout to the current version and rebuild
        the index (``fetch-detect store migrate``).

        Keys never change, so every cached artifact stays warm: a
        :class:`~repro.eval.runner.ScenarioMatrix` re-run over a migrated
        store still performs zero detector invocations.
        """
        with self._locked():
            report = self.backend.migrate()
            report.update(self.index.rebuild(self.backend))
        return report

    def rebuild_index(self) -> dict[str, int]:
        """Reconstruct the manifest index from the tree (one slow walk)."""
        with self._locked():
            return self.index.rebuild(self.backend)

    def compact_index(self) -> int:
        """Fold the index journal into its snapshot; returns live entries."""
        with self._locked():
            return self.index.compact()

    def gc(
        self,
        *,
        max_bytes: int | None = None,
        max_age_seconds: float | None = None,
        dry_run: bool = False,
    ) -> "GCReport":
        """Evict derived artifacts by age and/or size budget (see
        :mod:`repro.store.gc`; corpus manifests are never evicted)."""
        from repro.store.gc import collect

        return collect(
            self,
            max_bytes=max_bytes,
            max_age_seconds=max_age_seconds,
            dry_run=dry_run,
        )

    # -- introspection --------------------------------------------------
    def describe(self) -> dict[str, Any]:
        """Layout, index and lock statistics — answered without walking
        the object tree (the ``fetch-detect store stats`` payload)."""
        with self._stats_lock:
            acquisitions = len(self.lock_waits)
            total_wait = sum(self.lock_waits)
        return {
            "root": str(self.root),
            "layout": self.backend.layout,
            "index": self.index.stats(),
            "lock": {
                "acquisitions": acquisitions,
                "wait_seconds_total": round(total_wait, 6),
            },
        }

    def stats_snapshot(self) -> dict[str, int]:
        """A copy of the hit/miss counters (for ``BENCH_*.json`` records)."""
        with self._stats_lock:
            return dict(self.stats)

    def stats_delta(self, before: dict[str, int]) -> dict[str, int]:
        """Counter deltas since a previous :meth:`stats_snapshot`.

        The standard way to scope hit/miss accounting to one run (a matrix
        pass, a service batch) instead of the store's lifetime.
        """
        return {
            key: value - before.get(key, 0) for key, value in self.stats_snapshot().items()
        }


# ----------------------------------------------------------------------
# Record (de)serialization
# ----------------------------------------------------------------------

def _jsonable(value: Any) -> Any:
    """Best-effort plain-JSON rendering of parameter values for manifests."""
    from repro.store.digest import _plain

    return _plain(value)


def _ground_truth_to_record(truth: Any) -> dict[str, Any]:
    return {
        "name": truth.name,
        "scenario": truth.scenario,
        "functions": [dataclasses.asdict(info) for info in truth.functions],
    }


def _ground_truth_from_record(record: dict[str, Any]) -> Any:
    from repro.synth.groundtruth import FunctionInfo, GroundTruth

    return GroundTruth(
        name=record["name"],
        scenario=record["scenario"],
        functions=[FunctionInfo(**fields) for fields in record["functions"]],
    )


def _metrics_to_record(metrics: "BinaryMetrics") -> dict[str, Any]:
    return {
        "binary_name": metrics.binary_name,
        "true_count": metrics.true_count,
        "detected_count": metrics.detected_count,
        "false_positives": sorted(metrics.false_positives),
        "false_negatives": sorted(metrics.false_negatives),
        "cold_part_false_positives": sorted(metrics.cold_part_false_positives),
    }


def _metrics_from_record(record: dict[str, Any]) -> "BinaryMetrics":
    from repro.eval.metrics import BinaryMetrics

    return BinaryMetrics(
        binary_name=record["binary_name"],
        true_count=record["true_count"],
        detected_count=record["detected_count"],
        false_positives=set(record["false_positives"]),
        false_negatives=set(record["false_negatives"]),
        cold_part_false_positives=set(record["cold_part_false_positives"]),
    )
