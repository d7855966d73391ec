"""Transports and the publish-once blob store.

Pins the contracts every consumer of :mod:`repro.runtime` leans on: a
publication pickles exactly once per key, small payloads ride inline
while large ones spill to disk, and workers memoize fetches per process.
"""

from __future__ import annotations

import pickle

import pytest

from concurrent.futures.process import BrokenProcessPool

from repro.exceptions import ConfigurationError
from repro.runtime import (
    DEFAULT_SPILL_THRESHOLD,
    BlobRef,
    HostLost,
    PoolCrash,
    PoolTransport,
    RemoteTransport,
    SerialTransport,
    WorkerCrash,
    check_picklable,
    fetch_blob,
    resolve_workers,
    translate_crash,
)


def _double(x):
    return 2 * x


def _boom(x):
    raise RuntimeError("boom")


# --------------------------------------------------------------------- #
# resolve_workers / check_picklable (satellite: single shared home)
# --------------------------------------------------------------------- #
class TestHelpers:
    def test_resolve_workers(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(1) == 1
        assert resolve_workers(3) == 3
        assert resolve_workers(0) >= 1

    def test_resolve_workers_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            resolve_workers(-2)

    def test_check_picklable_names_the_offender(self):
        with pytest.raises(ConfigurationError, match="task function"):
            check_picklable(lambda x: x, "task function")
        check_picklable(_double, "task function")  # no raise

    def test_old_import_paths_still_work(self):
        from repro.experiments.parallel import resolve_workers as legacy

        assert legacy is resolve_workers


# --------------------------------------------------------------------- #
# Publish-once blob store
# --------------------------------------------------------------------- #
class TestBlobStore:
    def test_small_payload_rides_inline(self):
        with SerialTransport() as transport:
            ref = transport.publish("k", {"a": 1})
            assert isinstance(ref, BlobRef)
            assert ref.data is not None and ref.path is None
            assert ref.size == len(pickle.dumps({"a": 1}, protocol=pickle.HIGHEST_PROTOCOL))
            assert fetch_blob(ref) == {"a": 1}

    def test_large_payload_spills_to_disk(self, tmp_path):
        big = list(range(DEFAULT_SPILL_THRESHOLD))
        with SerialTransport(spill_dir=tmp_path) as transport:
            ref = transport.publish("big", big)
            assert ref.path is not None and ref.data is None
            assert fetch_blob(ref) == big

    def test_spill_threshold_is_configurable(self, tmp_path):
        with SerialTransport(spill_dir=tmp_path, spill_threshold=0) as transport:
            ref = transport.publish("k", 1)
            assert ref.path is not None

    def test_republish_is_a_noop(self):
        with SerialTransport() as transport:
            first = transport.publish("k", [1, 2, 3])
            second = transport.publish("k", [4, 5, 6])  # ignored: same key
            assert second is first

    def test_fetch_is_memoized_per_token(self):
        with SerialTransport() as transport:
            ref = transport.publish("memo-key", {"payload": 7})
            assert fetch_blob(ref) is fetch_blob(ref)

    def test_owned_spill_dir_removed_on_close(self):
        transport = SerialTransport(spill_threshold=0)
        ref = transport.publish("k", list(range(100)))
        spill_dir = transport._spill_dir
        assert spill_dir is not None
        transport.close()
        import os

        assert not os.path.exists(spill_dir)
        _ = ref  # the ref outlives the store only for memoized fetchers

    def test_borrowed_spill_dir_left_alone(self, tmp_path):
        with SerialTransport(spill_dir=tmp_path, spill_threshold=0) as transport:
            transport.publish("k", 1)
        assert tmp_path.exists()

    def test_publish_after_close_rejected(self):
        transport = SerialTransport()
        transport.close()
        with pytest.raises(ConfigurationError, match="closed"):
            transport.publish("k", 1)


# --------------------------------------------------------------------- #
# SerialTransport
# --------------------------------------------------------------------- #
class TestSerialTransport:
    def test_submit_resolves_immediately(self):
        with SerialTransport() as transport:
            assert transport.submit(_double, 4).result() == 8

    def test_submit_captures_exceptions(self):
        with SerialTransport() as transport:
            fut = transport.submit(_boom, 1)
            with pytest.raises(RuntimeError, match="boom"):
                fut.result()

    def test_map_preserves_order(self):
        with SerialTransport() as transport:
            assert transport.map(_double, [3, 1, 2]) == [6, 2, 4]


# --------------------------------------------------------------------- #
# PoolTransport
# --------------------------------------------------------------------- #
class TestPoolTransport:
    def test_map_matches_serial(self):
        tasks = list(range(6))
        with PoolTransport(workers=2) as transport:
            assert transport.map(_double, tasks) == [2 * x for x in tasks]

    def test_single_task_short_circuits_in_process(self):
        with PoolTransport(workers=2) as transport:
            assert transport.map(_double, [5]) == [10]
            assert transport._pool is None  # never spun up

    def test_recycle_then_dispatch(self):
        with PoolTransport(workers=2) as transport:
            assert transport.map(_double, [1, 2]) == [2, 4]
            transport.recycle()
            assert transport.map(_double, [3, 4]) == [6, 8]

    def test_submit_after_close_rejected(self):
        transport = PoolTransport(workers=2)
        transport.close()
        with pytest.raises(ConfigurationError, match="closed"):
            transport.submit(_double, 1)


# --------------------------------------------------------------------- #
# The WorkerCrash hierarchy (tentpole: no longer a bare alias)
# --------------------------------------------------------------------- #
class TestCrashHierarchy:
    def test_hierarchy_membership(self):
        assert issubclass(PoolCrash, WorkerCrash)
        assert issubclass(PoolCrash, BrokenProcessPool)
        assert issubclass(HostLost, WorkerCrash)
        assert not issubclass(HostLost, BrokenProcessPool)

    def test_translate_crash_wraps_raw_pool_breakage(self):
        raw = BrokenProcessPool("a worker died")
        crash = translate_crash(raw)
        assert isinstance(crash, PoolCrash)
        assert crash.__cause__ is raw

    def test_translate_crash_passes_hierarchy_and_others_through(self):
        host = HostLost("lease expired")
        assert translate_crash(host) is host
        plain = ValueError("not a crash")
        assert translate_crash(plain) is plain

    def test_except_broken_process_pool_misses_host_lost(self):
        """The narrowing reprolint R7 now flags: a legacy handler keeps
        catching local pool breakage but misses remote host loss."""
        with pytest.raises(HostLost):
            try:
                raise HostLost("agent died")
            except BrokenProcessPool:  # reprolint: ok[R7] the test demonstrates exactly this narrowing
                pytest.fail("HostLost must not be BrokenProcessPool")

    def test_pool_transport_translates_at_the_boundary(self):
        import os

        with PoolTransport(workers=2) as transport:
            fut = transport.submit(os._exit, 3)
            with pytest.raises(WorkerCrash) as excinfo:
                fut.result(timeout=60)
            assert isinstance(excinfo.value, PoolCrash)


# --------------------------------------------------------------------- #
# Blob checksums (tentpole: content integrity end to end)
# --------------------------------------------------------------------- #
class TestBlobChecksums:
    def test_published_refs_carry_sha256(self):
        import hashlib

        with SerialTransport() as transport:
            ref = transport.publish("k", {"a": 1})
            payload = pickle.dumps({"a": 1}, protocol=pickle.HIGHEST_PROTOCOL)
            assert ref.checksum == hashlib.sha256(payload).hexdigest()

    def test_corrupt_spilled_blob_fails_loudly(self, tmp_path):
        big = list(range(DEFAULT_SPILL_THRESHOLD))
        with SerialTransport(spill_dir=tmp_path, spill_threshold=0) as transport:
            ref = transport.publish("corrupt-me", big)
            assert ref.path is not None
            with open(ref.path, "r+b") as fh:
                fh.seek(10)
                fh.write(b"\xde\xad\xbe\xef")
            with pytest.raises(ConfigurationError, match="checksum"):
                fetch_blob(ref)

    def test_legacy_refs_without_checksum_still_resolve(self):
        payload = pickle.dumps([1, 2, 3], protocol=pickle.HIGHEST_PROTOCOL)
        ref = BlobRef(token="legacy-no-checksum", data=payload, size=len(payload))
        assert ref.checksum is None
        assert fetch_blob(ref) == [1, 2, 3]


# --------------------------------------------------------------------- #
# RemoteTransport: the seam is filled (full coverage in test_remote*.py)
# --------------------------------------------------------------------- #
def test_remote_transport_importable_from_legacy_path(tmp_path):
    from repro.runtime.remote import RemoteTransport as Direct
    from repro.runtime.transport import RemoteTransport as ViaTransport

    assert ViaTransport is Direct is RemoteTransport
    transport = RemoteTransport(tmp_path / "spool")
    try:
        assert transport.colocated is False
        assert transport.workers == 1  # no hosts yet; floor for scheduling
    finally:
        transport.close()
