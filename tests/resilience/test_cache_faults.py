"""Disk-cache resilience: injected write/read faults and corruption
must always degrade to a cache miss — never to a failed compile, and
never, ever to wrong results."""

import os

import pytest

from repro import faults
from repro.ir.printer import format_module
from repro.pipeline.cache import (BackendCache, FrontendCache,
                                  _seal_entry, _unseal_entry)

pytestmark = pytest.mark.resilience

SOURCE = """\
program cachefault
  input integer :: n = 6
  integer :: i
  real :: a(8)
  do i = 1, n
    a(i) = real(i) * 2.0
  end do
  print a(n)
end program
"""


def frontend_ir(cache):
    return format_module(cache.frontend(SOURCE))


@pytest.fixture
def reference():
    """The fault-free frontend result everything is compared against."""
    return frontend_ir(FrontendCache())


class TestSealedEntryFormat:
    def test_round_trip(self):
        blob = b"some pickled module"
        assert _unseal_entry(_seal_entry(blob)) == blob

    @pytest.mark.parametrize("mangle", [
        lambda data: data[: len(data) // 2],          # truncation
        lambda data: data[:-1],                        # one byte short
        lambda data: data[:40] + b"\xff" + data[41:],  # one flipped byte
        lambda data: b"",                              # empty file
        lambda data: b"not a sealed entry at all",     # foreign content
        lambda data: data[len(b"RPRC2\n"):],           # frame stripped
        lambda data: b"RPRC1\n" + data[6:],            # older pickled form
    ])
    def test_any_damage_is_detected(self, mangle):
        sealed = _seal_entry(b"payload bytes of a module pickle")
        assert _unseal_entry(mangle(sealed)) is None

    def test_disk_round_trip_counts_a_disk_hit(self, tmp_path):
        writer = FrontendCache(disk_dir=str(tmp_path))
        expected = frontend_ir(writer)
        reader = FrontendCache(disk_dir=str(tmp_path))
        assert frontend_ir(reader) == expected
        assert reader.disk_hits == 1
        assert reader.frontend_compiles == 0

    def test_legacy_unsealed_entry_is_a_miss(self, tmp_path):
        # an entry written by an older version (raw pickle, no frame)
        # must be recompiled, not unpickled blind
        cache = FrontendCache(disk_dir=str(tmp_path))
        path = cache._path(cache.key(SOURCE))
        os.makedirs(str(tmp_path), exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(b"\x80\x04raw legacy pickle bytes")
        frontend_ir(cache)
        assert cache.disk_hits == 0
        assert cache.frontend_compiles == 1


class TestFrontendCacheWriteFaults:
    def test_corrupt_write_degrades_to_miss(self, tmp_path, reference):
        with faults.armed("diskcache.write:corrupt:p=1.0:seed=3"):
            writer = FrontendCache(disk_dir=str(tmp_path))
            assert frontend_ir(writer) == reference  # compile unharmed
        # the poisoned entry must never be *served*
        reader = FrontendCache(disk_dir=str(tmp_path))
        assert frontend_ir(reader) == reference
        assert reader.disk_hits == 0
        assert reader.frontend_compiles == 1

    def test_enospc_write_fails_silently(self, tmp_path, reference):
        with faults.armed("diskcache.write:raise:p=1.0"):
            writer = FrontendCache(disk_dir=str(tmp_path))
            assert frontend_ir(writer) == reference
        published = [name for name in os.listdir(str(tmp_path))
                     if not name.endswith(".lock")]
        assert published == []  # nothing published (lock sidecar aside)
        reader = FrontendCache(disk_dir=str(tmp_path))
        assert frontend_ir(reader) == reference  # cold miss, recompile

    def test_recovery_after_disarm(self, tmp_path, reference):
        with faults.armed("diskcache.write:corrupt:p=1.0"):
            frontend_ir(FrontendCache(disk_dir=str(tmp_path)))
        # fault-free writer repairs the entry in place
        frontend_ir(FrontendCache(disk_dir=str(tmp_path)))
        reader = FrontendCache(disk_dir=str(tmp_path))
        assert frontend_ir(reader) == reference
        assert reader.disk_hits == 1


class TestFrontendCacheReadFaults:
    def test_read_fault_degrades_to_miss(self, tmp_path, reference):
        frontend_ir(FrontendCache(disk_dir=str(tmp_path)))  # valid entry
        with faults.armed("diskcache.read:raise:p=1.0"):
            reader = FrontendCache(disk_dir=str(tmp_path))
            assert frontend_ir(reader) == reference
            assert reader.disk_hits == 0
            assert reader.frontend_compiles == 1

    def test_read_corruption_degrades_to_miss(self, tmp_path, reference):
        # bytes mangled on the way *in* (bad sector, torn read): the
        # integrity frame catches it regardless of the mangle shape
        frontend_ir(FrontendCache(disk_dir=str(tmp_path)))
        for seed in range(6):  # cover all three mangle modes
            with faults.armed(
                    "diskcache.read:corrupt:p=1.0:seed=%d" % seed):
                reader = FrontendCache(disk_dir=str(tmp_path))
                assert frontend_ir(reader) == reference
                assert reader.disk_hits == 0

    def test_on_disk_corruption_never_served(self, tmp_path, reference):
        # corrupt the actual file, not just the read path
        cache = FrontendCache(disk_dir=str(tmp_path))
        frontend_ir(cache)
        path = cache._path(cache.key(SOURCE))
        data = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(data[:len(data) // 2])
        reader = FrontendCache(disk_dir=str(tmp_path))
        assert frontend_ir(reader) == reference
        assert reader.disk_hits == 0


class TestBackendCacheFaults:
    def _translated_source(self, cache, tmp_path):
        module = FrontendCache().frontend(SOURCE)
        return cache.compiled(module).source

    def test_corrupt_write_degrades_to_miss(self, tmp_path):
        expected = self._translated_source(BackendCache(), tmp_path)
        with faults.armed("diskcache.write:corrupt:p=1.0:seed=9"):
            writer = BackendCache(disk_dir=str(tmp_path))
            assert self._translated_source(writer, tmp_path) == expected
        reader = BackendCache(disk_dir=str(tmp_path))
        assert self._translated_source(reader, tmp_path) == expected
        assert reader.disk_hits == 0
        assert reader.translations == 1

    def test_read_fault_degrades_to_miss(self, tmp_path):
        expected = self._translated_source(
            BackendCache(disk_dir=str(tmp_path)), tmp_path)
        with faults.armed("diskcache.read:raise:p=1.0"):
            reader = BackendCache(disk_dir=str(tmp_path))
            assert self._translated_source(reader, tmp_path) == expected
            assert reader.disk_hits == 0
            assert reader.translations == 1

    def test_fault_free_disk_hit_still_works(self, tmp_path):
        expected = self._translated_source(
            BackendCache(disk_dir=str(tmp_path)), tmp_path)
        reader = BackendCache(disk_dir=str(tmp_path))
        assert self._translated_source(reader, tmp_path) == expected
        assert reader.disk_hits == 1
        assert reader.translations == 0
