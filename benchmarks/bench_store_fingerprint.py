"""Store fingerprints — the per-call memo against the frozen oracle.

Not a paper figure: this is the layer floor of the content addressing in
:mod:`repro.engine.store`. The end-to-end benchmark
(``python3 perfbench/run.py --workload sim_serve``) times store-served
simulation replays; this script checks the layer claim behind them, that
fingerprinting the replications of one batch through one executor-call
memo beats the frozen unmemoised oracle
(:func:`repro.engine.reference.naive_fingerprint_task`). Run it with::

    python -m pytest benchmarks/bench_store_fingerprint.py -q -s

Both legs address the 16 per-replication sub-tasks of one 16-seed
d26_media ``BatchSimulationTask`` (``expand_for_store()``), which share
one routed ``Topology``. The script asserts

* the memoised addresses equal the oracle's on every repeat, so the
  speedup is pure encoding cost;
* the memoised leg is >= 5x faster than the oracle.

Each memoised leg starts from an empty memo, as each ``run_tasks`` call
does. The ratio is the median of interleaved repeats, single-process, so
the floor does not depend on the CPU count.
"""

import statistics
import time

import pytest

from repro.campaign.spec import CampaignSpec, compile_campaign
from repro.engine.reference import naive_fingerprint_task
from repro.engine.store import CODE_SALT, _fingerprint

REPEATS = 5
FLOOR = 5.0


@pytest.fixture(scope="module")
def sub_tasks():
    (batch,) = compile_campaign(CampaignSpec.from_dict({
        "name": "fingerprint-floor", "kind": "sim", "benchmark": "d26_media",
        "scenarios": ["bernoulli"], "seeds": list(range(16)),
        "injection_scales": [0.3], "cycles": 1000, "warmup": 200,
        "batch": 16, "config": {"switch_count_range": [3, 4]},
    }))
    subs = batch.expand_for_store()
    assert len(subs) == 16
    return subs


def _memoised(subs):
    memo = {}
    return [_fingerprint(sub, CODE_SALT, memo) for sub in subs]


def _naive(subs):
    return [naive_fingerprint_task(sub, salt=CODE_SALT) for sub in subs]


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def test_memoised_fingerprints_beat_oracle(sub_tasks):
    _memoised(sub_tasks)  # warm both code paths off the clock
    _naive(sub_tasks)
    memo_s, naive_s = [], []
    for _ in range(REPEATS):
        seconds, memoised = _timed(_memoised, sub_tasks)
        memo_s.append(seconds)
        seconds, naive = _timed(_naive, sub_tasks)
        naive_s.append(seconds)
        assert memoised == naive

    speedup = statistics.median(naive_s) / statistics.median(memo_s)
    print(f"\nfingerprints of {len(sub_tasks)} d26_media replications, "
          f"median of {REPEATS}: oracle "
          f"{statistics.median(naive_s) * 1e3:.1f} ms, memoised "
          f"{statistics.median(memo_s) * 1e3:.1f} ms -> {speedup:.1f}x")
    assert speedup >= FLOOR, f"memoised {speedup:.1f}x below {FLOOR}x"
