"""Per-stage memoization over the content-addressed result store.

PR 5's :class:`~repro.engine.store.ResultStore` caches whole engine tasks:
a sweep point either hits entirely or recomputes entirely. This layer
pushes the same content addressing down to the stage granularity of
:mod:`repro.core.pipeline` — each :class:`~repro.core.pipeline.Stage`
declares the exact subset of context/config/state fields it reads plus a
code-version salt, and :class:`StageCache` fingerprints those inputs
(through the store's canonical encoder) to file the stage's *outputs* on
disk. A stage result computed at one sweep point is then served at every
neighbouring point whose inputs hash identically: a frequency sweep
re-runs only the frequency-sensitive stages, and a floorplan ``seed``
bump reuses every upstream stage verbatim.

Invalidation model (see ``docs/pipeline.md`` for the full policy):

* a stage's fingerprint covers its declared **context/config inputs by
  value**, its **state inputs by provenance** (the fingerprint of the
  upstream stage that produced each field — equal producers imply equal
  values, without re-hashing a routed topology per candidate), the
  fingerprint of the stage just before it, its own **signature** (class
  identity, salt, declared field names) and the **signature chain** of
  every upstream stage in the pipeline — so editing a stage's salt or
  declarations invalidates exactly that stage *and its downstream
  dependents*, never its upstream, and a stage's record names the
  fingerprints of every stage before it;
* deterministic :class:`~repro.core.pipeline.StageFailure` rejections are
  cached and replayed like successes (an expensive routing rejection is
  exactly as deterministic as a success); hard errors, quarantined and
  timed-out work never produce records, matching the PR 6 executor
  semantics;
* every stage is fingerprinted before any runs: an input with no stable
  encoding (a custom stage holding a live handle) raises
  :class:`~repro.errors.StoreError` under a stage cache, and no stage runs;
* a replay asks the pack index which records exist and reads only those
  it loads.

Records share the store directory, its packs and its salt with
whole-task caching and are filed under ``task_type="stage:<name>"``, one
frame each (one cold synthesis writes hundreds); ``cache stats`` /
``verify`` / ``clear`` count them per stage, and a ``REPRO_STORE_SALT``
bump retires both layers at once.
"""

from __future__ import annotations

import dataclasses
import hashlib
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.engine.store import ResultStore, _Chunks, _feed, open_store
from repro.errors import StoreError

#: Record-format tag folded into every stage fingerprint; bump when the
#: :class:`StageRecord` layout, the fingerprint composition or the replay
#: semantics change. v2: state inputs hash by producer fingerprint
#: (provenance) instead of by value. v3: each fingerprint folds in the
#: previous stage's, so a record proves every stage before it passed
#: under the same fingerprints (the replay-from-deepest walk of
#: ``Pipeline.evaluate`` relies on it), and switch positions are plain
#: floats. v4: a record holds the seconds of every stage in its chain.
STAGE_RECORD_SALT = "stage-record-v4"


@dataclasses.dataclass
class StageRecord:
    """The replayable outcome of one stage execution."""

    #: The stage's registry name — doubles as a payload sanity check.
    stage: str
    #: ``{state field: value}`` snapshot of the stage's declared outputs.
    outputs: Dict[str, Any]
    #: Whether the stage rejected the candidate (a StageFailure).
    failed: bool = False
    failure_reason: str = ""
    #: ``{stage: recorded seconds}`` of this stage and every stage before
    #: it, as the writing candidate credited them.
    seconds: Dict[str, float] = dataclasses.field(default_factory=dict)

    def apply(self, state) -> None:
        """Replay this record onto a :class:`CandidateState`."""
        for name, value in self.outputs.items():
            setattr(state, name, value)
        if self.failed:
            state.failed_stage = self.stage
            state.failure_reason = self.failure_reason


@dataclasses.dataclass
class StageCounter:
    """Session counters for one stage (hits/misses/bytes)."""

    hits: int = 0
    misses: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
        }


def _stage_signature(stage) -> Tuple[Any, ...]:
    """What identifies a stage's *code* to the fingerprint: the instance
    itself (class identity + any instance configuration, via the canonical
    encoder), its salt and its declared field names."""
    return (
        stage.name,
        getattr(stage, "salt", ""),
        stage,
        tuple(getattr(stage, "context_inputs", ())),
        tuple(getattr(stage, "config_inputs", ())),
        tuple(getattr(stage, "state_inputs", ())),
        tuple(getattr(stage, "state_outputs", ())),
    )


class StageCache:
    """Memoises pipeline stage outputs in a :class:`ResultStore`.

    One instance is threaded through
    :meth:`repro.core.pipeline.Pipeline.evaluate` and keeps per-stage
    session counters (in pipeline execution order). A synthesis run given
    one evaluates its candidates on a run-private instance over the same
    store (:func:`repro.engine.tasks.seed_context`), in-process or in fork
    workers, and :meth:`fold`\\ s each candidate's counters into the
    caller's, so they read the same at any ``jobs``. ``spec()`` names the
    store, so a worker started without ``fork`` reopens an equivalent
    cache.
    """

    #: Cap on the memoised per-(stage, context) fingerprint prefixes and
    #: per-context input encodings; the memos hold strong references (so
    #: ``id()`` keys stay valid), and the cap bounds how many contexts a
    #: long-lived cache keeps alive.
    _PREFIX_MEMO_MAX = 64

    def __init__(self, store: ResultStore) -> None:
        self.store = store
        self.counters: Dict[str, StageCounter] = {}
        self._prefixes: Dict[Tuple[int, int], Tuple[Any, ...]] = {}
        self._inputs: Dict[int, Tuple[Any, Dict[Tuple[bool, str], bytes]]] = {}

    # -- plumbing -----------------------------------------------------------

    def spec(self) -> Tuple[str, str]:
        """``(directory, salt)`` — enough to reopen this cache elsewhere."""
        return str(self.store.root), self.store.salt

    def _counter(self, name: str) -> StageCounter:
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = StageCounter()
        return counter

    # -- fingerprints -------------------------------------------------------

    def _prefix(self, stage, chain: Tuple[Any, ...], ctx):
        """A sha256 primed with everything candidates at one sweep point
        share: salts, the upstream signature chain, the stage's own
        signature and the declared context/config input *values*. Computed
        once per (stage, context) pair and ``copy()``-ed per candidate —
        re-hashing the communication graph and component library for every
        candidate is what made fingerprinting dominate warm sweeps."""
        key = (id(stage), id(ctx))
        memo = self._prefixes.get(key)
        if (
            memo is not None
            and memo[0] is stage
            and memo[1] is ctx
            and memo[2] == chain
        ):
            return memo[3]
        h = hashlib.sha256()
        _feed(h, self.store.salt)
        _feed(h, STAGE_RECORD_SALT)
        _feed(h, chain)
        _feed(h, _stage_signature(stage))
        for name in stage.context_inputs:
            h.update(self._input(ctx, False, name))
        for name in stage.config_inputs:
            h.update(self._input(ctx, True, name))
        if len(self._prefixes) >= self._PREFIX_MEMO_MAX:
            self._prefixes.clear()
        self._prefixes[key] = (stage, ctx, chain, h)
        return h

    def _input(self, ctx, config: bool, name: str) -> bytes:
        """The encoding of one declared input, its name then its value (of
        ``ctx.config`` when ``config``), made once per context however many
        stages declare it: several stages read the communication graph
        and the library. SHA-256 is a stream, so feeding these bytes
        digests as feeding the name and value would."""
        memo = self._inputs.get(id(ctx))
        if memo is None or memo[0] is not ctx:
            if len(self._inputs) >= self._PREFIX_MEMO_MAX:
                self._inputs.clear()
            memo = self._inputs[id(ctx)] = (ctx, {})
        data = memo[1].get((config, name))
        if data is None:
            chunks = _Chunks()
            _feed(chunks, name)
            _feed(chunks, getattr(ctx.config if config else ctx, name))
            data = memo[1][config, name] = b"".join(chunks)
        return data

    def fingerprints(self, stages: Sequence[Any], ctx, request) -> List[str]:
        """The content address of each stage's output for ``request``, in
        stage order, computed before any stage runs.

        Each fingerprint folds in the signatures of every upstream stage
        (the chain), so a salt or declaration edit anywhere upstream moves
        it too, and the fingerprint of the stage just before it: a record
        filed under it was written only after that stage passed, so one
        record vouches for every stage before it. State inputs fold in by
        **provenance**: the fingerprint of the stage that produced a field
        stands in for its value — the producer is deterministic, so equal
        producer fingerprints imply equal values, and the (large) routed
        topology is never hashed. ``request`` is the one state input no
        stage produces, so it alone hashes by value. Raises
        :class:`StoreError` for an input with no stable encoding, or a
        state input no earlier stage writes.
        """
        chain: List[Any] = []
        provenance: Dict[str, str] = {}
        out: List[str] = []
        for stage in stages:
            h = self._prefix(stage, tuple(chain), ctx).copy()
            _feed(h, out[-1] if out else None)
            for name in stage.state_inputs:
                _feed(h, name)
                if name in provenance:
                    _feed(h, ("produced-by", provenance[name]))
                elif name == "request":
                    _feed(h, request)
                else:
                    raise StoreError(
                        f"stage {stage.name!r} reads state field {name!r}, "
                        "which no earlier stage writes"
                    )
            out.append(h.hexdigest())
            chain.append(_stage_signature(stage))
            for name in stage.state_outputs:
                provenance[name] = out[-1]
        return out

    # -- record IO ----------------------------------------------------------

    def load(self, stage, fingerprint: str) -> Optional[Tuple[StageRecord, int]]:
        """Fetch ``(record, frame bytes)``; ``None`` when it is missing or
        unreadable. The store's session hit/miss counters do not move."""
        entry = self.store.get(fingerprint, counted=False)
        if (
            entry is None
            or not isinstance(entry.payload, StageRecord)
            or entry.payload.stage != stage.name
        ):
            return None
        return entry.payload, self.store.size_of(fingerprint)

    def save(self, stage, fingerprint: str, state, elapsed_s: float) -> None:
        """Checkpoint the stage's declared outputs and ``stage_seconds``
        (pickled immediately, so later in-place mutation cannot leak in)."""
        failed = state.failed_stage == stage.name
        record = StageRecord(
            stage=stage.name,
            outputs={
                name: getattr(state, name) for name in stage.state_outputs
            },
            failed=failed,
            failure_reason=state.failure_reason if failed else "",
            seconds=state.stage_seconds,
        )
        written = self.store.put(
            fingerprint,
            record,
            task_type=f"stage:{stage.name}",
            elapsed_s=elapsed_s,
        )
        self._counter(stage.name).bytes_written += int(written)

    # -- stats --------------------------------------------------------------

    def tally(self, name: str, *, hit: bool, bytes_read: int = 0) -> None:
        """Count one stage as served from a record (``hit``, ``bytes_read``
        of it loaded) or run."""
        counter = self._counter(name)
        if hit:
            counter.hits += 1
            counter.bytes_read += bytes_read
        else:
            counter.misses += 1

    def fold(self, stats: Optional[Mapping[str, Mapping[str, int]]]) -> None:
        """Add one ``stats_dict()``-shaped mapping (a candidate's own
        counters, shipped back in ``TaskResult.stage_cache``) to these."""
        for name, row in (stats or {}).items():
            counter = self._counter(name)
            for key, value in row.items():
                setattr(counter, key, getattr(counter, key) + int(value))

    def stats_dict(self) -> Dict[str, Dict[str, int]]:
        """``{stage: {hits, misses, bytes_read, bytes_written}}`` in
        pipeline order: a candidate counts its stages in that order."""
        return {
            name: counter.as_dict() for name, counter in self.counters.items()
        }


def merge_stage_stats(
    into: Dict[str, Dict[str, int]],
    stats: Optional[Mapping[str, Mapping[str, int]]],
) -> Dict[str, Dict[str, int]]:
    """Accumulate one ``stats_dict()``-shaped mapping into ``into``."""
    for name, row in (stats or {}).items():
        merged = into.setdefault(
            name, {"hits": 0, "misses": 0, "bytes_read": 0, "bytes_written": 0}
        )
        for key, value in row.items():
            merged[key] = merged.get(key, 0) + int(value)
    return into


def format_stage_cache_summary(
    stats: Mapping[str, Mapping[str, int]], *, indent: str = "  "
) -> str:
    """An aligned per-stage hit/miss/bytes table for CLI summaries."""
    rows = [("stage", "hits", "misses", "read", "written")]
    totals = {"hits": 0, "misses": 0, "bytes_read": 0, "bytes_written": 0}
    for name, row in stats.items():
        for key in totals:
            totals[key] += int(row.get(key, 0))
        rows.append((
            name,
            str(row.get("hits", 0)),
            str(row.get("misses", 0)),
            human_bytes(row.get("bytes_read", 0)),
            human_bytes(row.get("bytes_written", 0)),
        ))
    rows.append((
        "total",
        str(totals["hits"]),
        str(totals["misses"]),
        human_bytes(totals["bytes_read"]),
        human_bytes(totals["bytes_written"]),
    ))
    widths = [max(len(r[c]) for r in rows) for c in range(5)]
    lines = []
    for i, row in enumerate(rows):
        lines.append(
            indent + row[0].ljust(widths[0]) + "  "
            + "  ".join(row[c].rjust(widths[c]) for c in range(1, 5))
        )
        if i == 0:
            lines.append(indent + "  ".join("-" * w for w in widths))
    return "\n".join(lines)


def human_bytes(n: int) -> str:
    """``n`` bytes as ``512B`` / ``1.5KiB`` / ``2.0MiB`` / ``1.0GiB``."""
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024.0 or unit == "GiB":
            return f"{value:.1f}{unit}" if unit != "B" else f"{int(value)}B"
        value /= 1024.0
    return f"{int(n)}B"


def open_stage_cache(
    cache_dir: Optional[Union[str, Path]] = None,
    *,
    salt: Optional[str] = None,
) -> StageCache:
    """Open a stage cache over the store at ``cache_dir`` (see
    :func:`repro.engine.store.open_store` for the fallbacks)."""
    return StageCache(open_store(cache_dir, salt=salt))
