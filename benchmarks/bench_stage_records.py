"""Stage-record writes — append-only packs against one file per record.

Not a paper figure: this is the layer floor of the store's writes in
:mod:`repro.engine.store`. The end-to-end benchmark
(``python3 perfbench/run.py --workload sweep_cached``) times cold sweeps,
which write about a hundred stage records per synthesis; this script
checks the layer claim behind them, that appending those records as
frames to a pack beats creating one file per record. Run it with::

    python -m pytest benchmarks/bench_stage_records.py -q -s

Both legs write, then read back, the stage records of one cold d26_media
synthesis, each as the pickled ``StageRecord`` bytes the stage cache
filed, so the legs differ only in the layout:

* packs: ``ResultStore.put`` under the record's own ``stage:*`` task
  type, one frame appended to this process's pack;
* files: the reference leg, the layout the store used before packs, kept
  here: the same header and payload pickles written to one file per
  record under a fan-out directory (``mkdir``, ``mkstemp``, write,
  ``os.replace``), read back with ``open``.

The script asserts

* both legs read back exactly the bytes that were written, on every
  repeat;
* the pack leg is >= 5x faster on writes.

Each repeat writes into a fresh store directory. The ratio is the median
of interleaved repeats, single-process, so the floor does not depend on
the CPU count.
"""

import os
import pickle
import shutil
import statistics
import tempfile
import time
from pathlib import Path

import pytest

from repro.bench.registry import get_benchmark
from repro.core.synthesis import synthesize
from repro.engine.stagecache import StageCache
from repro.engine.store import STORE_FORMAT, ResultStore

REPEATS = 5
FLOOR = 5.0


@pytest.fixture(scope="module")
def records():
    """``(fingerprint, task type, pickled StageRecord)`` of every stage
    record one cold d26_media synthesis writes."""
    bench = get_benchmark("d26_media")
    root = tempfile.mkdtemp(prefix="stage-records-")
    try:
        store = ResultStore(root)
        synthesize(bench.core_spec_3d, bench.comm_spec,
                   stage_cache=StageCache(store))
        out = [
            (fp, task_type,
             pickle.dumps(store.get(fp).payload))
            for fp, task_type in sorted(store.entries().items())
        ]
    finally:
        shutil.rmtree(root)
    assert len(out) > 50
    assert all(task_type.startswith("stage:") for _fp, task_type, _b in out)
    return out


def _pack_leg(records):
    """Seconds to write ``records`` into a fresh store, and what it reads
    back."""
    root = tempfile.mkdtemp(prefix="stage-records-")
    try:
        store = ResultStore(root)
        start = time.perf_counter()
        for fp, task_type, blob in records:
            store.put(fp, blob, task_type=task_type)
        seconds = time.perf_counter() - start
        back = [store.get(fp).payload for fp, _task_type, _blob in records]
    finally:
        shutil.rmtree(root)
    return seconds, back


def _file_path(root, fp):
    return root / "objects" / fp[:2] / (fp[2:] + ".pkl")


def _file_leg(records):
    """Seconds to write ``records`` one file each, as the store did before
    packs, and what reads back."""
    root = Path(tempfile.mkdtemp(prefix="stage-records-"))
    try:
        start = time.perf_counter()
        for fp, task_type, blob in records:
            header = {
                "format": STORE_FORMAT, "fingerprint": fp, "salt": "bench",
                "task_type": task_type, "elapsed_s": 0.0,
                "created_s": time.time(),
            }
            path = _file_path(root, fp)
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                prefix=".tmp-", suffix=".pkl", dir=path.parent
            )
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(header, fh, protocol=pickle.HIGHEST_PROTOCOL)
                pickle.dump(blob, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.path.getsize(tmp)  # put returned the bytes written
            os.replace(tmp, path)
        seconds = time.perf_counter() - start
        back = []
        for fp, _task_type, _blob in records:
            with open(_file_path(root, fp), "rb") as fh:
                pickle.load(fh)
                back.append(pickle.load(fh))
    finally:
        shutil.rmtree(root)
    return seconds, back


def test_packed_writes_beat_one_file_per_record(records):
    written = [blob for _fp, _task_type, blob in records]
    _pack_leg(records)  # warm both code paths off the clock
    _file_leg(records)
    pack_s, file_s = [], []
    for _ in range(REPEATS):
        seconds, back = _pack_leg(records)
        pack_s.append(seconds)
        assert back == written
        seconds, back = _file_leg(records)
        file_s.append(seconds)
        assert back == written

    speedup = statistics.median(file_s) / statistics.median(pack_s)
    size = sum(len(blob) for blob in written)
    print(f"\n{len(records)} stage records of one d26_media synthesis "
          f"({size / 1024:.0f} KiB), median of {REPEATS}: one file each "
          f"{statistics.median(file_s) * 1e3:.1f} ms, packed "
          f"{statistics.median(pack_s) * 1e3:.1f} ms, {speedup:.1f}x")
    assert speedup >= FLOOR, (
        f"packed stage-record writes only {speedup:.1f}x faster than one "
        f"file per record (floor {FLOOR}x)"
    )
