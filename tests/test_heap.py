from types import SimpleNamespace

from aad import heap


class _Mallopt:
    def __init__(self):
        self.calls = []

    def __call__(self, param, value):
        self.calls.append((param, value))
        return 1


# keep_freed_memory is cached: __wrapped__ runs its body again
def test_thresholds_are_fixed_at_32_and_64_mib(monkeypatch):
    mallopt = _Mallopt()
    monkeypatch.setattr(heap.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
    heap.keep_freed_memory.__wrapped__()
    assert mallopt.calls == [(-3, 32 << 20), (-1, 64 << 20)]


def test_c_library_without_mallopt_is_left_as_it_is(monkeypatch):
    monkeypatch.setattr(heap.ctypes, "CDLL", lambda name: SimpleNamespace())
    assert heap.keep_freed_memory.__wrapped__() is None


def test_no_c_library_is_left_as_it_is(monkeypatch):
    def no_library(name):
        raise OSError("no such library")
    monkeypatch.setattr(heap.ctypes, "CDLL", no_library)
    assert heap.keep_freed_memory.__wrapped__() is None
