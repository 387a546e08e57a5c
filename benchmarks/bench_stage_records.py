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
* files: the same bytes under a non-stage task type, which the store
  files under ``objects/`` (``mkdir``, ``mkstemp``, write,
  ``os.replace``), as it filed stage records before packs.

The script asserts

* both legs read back exactly the bytes that were written, on every
  repeat;
* the pack leg is >= 5x faster on writes.

Each repeat writes into a fresh store directory. The ratio is the median
of interleaved repeats, single-process, so the floor does not depend on
the CPU count.
"""

import pickle
import shutil
import statistics
import tempfile
import time

import pytest

from repro.bench.registry import get_benchmark
from repro.core.synthesis import synthesize
from repro.engine.stagecache import StageCache
from repro.engine.store import ResultStore

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
             pickle.dumps(store.get(fp, packed=True).payload))
            for fp, task_type in sorted(store.entries().items())
        ]
    finally:
        shutil.rmtree(root)
    assert len(out) > 50
    assert all(task_type.startswith("stage:") for _fp, task_type, _b in out)
    return out


def _leg(records, packed):
    """Seconds to write ``records`` into a fresh store, and what it reads
    back."""
    root = tempfile.mkdtemp(prefix="stage-records-")
    try:
        store = ResultStore(root)
        start = time.perf_counter()
        for fp, task_type, blob in records:
            store.put(fp, blob,
                      task_type=task_type if packed else "file:" + task_type)
        seconds = time.perf_counter() - start
        back = [store.get(fp, packed=packed).payload
                for fp, _task_type, _blob in records]
    finally:
        shutil.rmtree(root)
    return seconds, back


def test_packed_writes_beat_one_file_per_record(records):
    written = [blob for _fp, _task_type, blob in records]
    _leg(records, True)  # warm both code paths off the clock
    _leg(records, False)
    pack_s, file_s = [], []
    for _ in range(REPEATS):
        seconds, back = _leg(records, True)
        pack_s.append(seconds)
        assert back == written
        seconds, back = _leg(records, False)
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
