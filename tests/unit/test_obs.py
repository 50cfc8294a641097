"""Unit tests for the observability layer (repro.obs).

Includes the frozen-vocabulary pins: the phase names, event kinds and
sim-trace ``KIND_*`` strings are public API keyed on by the JSONL
validator, the report renderer and the stress suite — this file spells
them out as literal sets so a rename fails a test instead of silently
producing artifacts nothing can read.
"""

from __future__ import annotations

import math

import pytest

from repro.obs import (
    EVENT_KINDS,
    MetricsRegistry,
    NullRecorder,
    ObsConfig,
    OffsetEstimator,
    PHASES,
    RegistryCollector,
    WorkerObs,
    align_events,
    best_offsets,
    validate_record,
)
from repro.obs.events import (
    PHASE_ORDER,
    SPAN_KINDS,
    TRACE_KINDS as OBS_TRACE_KINDS,
    decode_jsonl_line,
    encode_jsonl_line,
)
from repro.obs.metrics import POW2_BUCKETS
from repro.obs.recorder import BufferRecorder, TraceRecorder
from repro import Application, RetryPolicy, VirtualMachine
from repro.sim.trace import KINDS as TRACE_KINDS, Trace


# -- frozen vocabulary (satellite: renames are breaking changes) -----------

def test_phases_are_frozen():
    assert PHASES == frozenset(
        {"freeze", "reject", "drain", "transfer", "restore", "commit",
         "recover"})
    assert tuple(PHASE_ORDER) == ("freeze", "reject", "drain", "transfer",
                                  "restore", "commit", "recover")
    assert set(PHASE_ORDER) == set(PHASES)


def test_event_kinds_are_frozen():
    assert EVENT_KINDS == frozenset({
        "span_start", "span_end", "drain_peer", "state_chunk",
        "migration_window", "send", "recv", "connect", "lookup", "retry",
        "gauge", "mark", "clock_offset"})
    assert SPAN_KINDS == frozenset({"span_start", "span_end"})
    assert SPAN_KINDS <= EVENT_KINDS
    assert OBS_TRACE_KINDS == frozenset({
        "span_start", "span_end", "drain_peer", "state_chunk",
        "migration_window"})
    assert OBS_TRACE_KINDS <= EVENT_KINDS


def test_sim_trace_kinds_are_frozen():
    assert TRACE_KINDS == frozenset(
        {"retry", "timeout", "fault_drop", "fault_dup", "fault_delay"})


# -- metrics registry ------------------------------------------------------

def test_counter_and_gauge_basics():
    reg = MetricsRegistry()
    c = reg.counter("mp.msgs_sent", rank=1)
    c.inc()
    c.inc(4)
    assert reg.value("mp.msgs_sent", rank=1) == 5
    assert reg.counter("mp.msgs_sent", rank=1) is c  # same instrument
    assert reg.value("mp.msgs_sent", rank=2) == 0    # never created
    g = reg.gauge("mp.links", rank=1)
    g.set(3)
    g.dec()
    assert g.value == 2


def test_registry_rejects_kind_confusion():
    reg = MetricsRegistry()
    reg.counter("x", rank=0)
    with pytest.raises(TypeError):
        reg.gauge("x", rank=0)


def test_histogram_buckets_and_quantile():
    reg = MetricsRegistry()
    h = reg.histogram("scan", bounds=(1, 2, 4, 8))
    for v in (1, 1, 3, 9):
        h.record(v)
    assert h.count == 4
    assert h.counts == [2, 0, 1, 0, 1]  # <=1, <=2, <=4, <=8, overflow
    assert h.vmin == 1 and h.vmax == 9
    assert h.mean == pytest.approx(3.5)
    assert h.quantile(0.5) == 1
    assert h.quantile(1.0) == 9  # overflow bucket reports observed max


def test_histogram_rejects_unsorted_bounds():
    with pytest.raises(ValueError):
        MetricsRegistry().histogram("bad", bounds=(4, 2, 1))


def test_snapshot_merge_adds_counters_and_buckets():
    a, b, merged = MetricsRegistry(), MetricsRegistry(), MetricsRegistry()
    a.counter("n", rank=0).inc(2)
    a.histogram("h", bounds=(1, 2)).record(1)
    b.counter("n", rank=1).inc(3)
    b.histogram("h", bounds=(1, 2)).record(5)
    for reg in (a, b):
        merged.merge_snapshot(reg.snapshot())
    assert merged.sum("n") == 5
    h = merged.histogram("h", bounds=(1, 2))
    assert h.count == 2 and h.counts == [1, 0, 1]
    assert h.vmin == 1 and h.vmax == 5
    # merging the same snapshot again keeps adding (caller dedupes)
    merged.merge_snapshot(a.snapshot())
    assert merged.sum("n") == 7


def test_snapshot_is_plain_data():
    reg = MetricsRegistry()
    reg.counter("c").inc()
    reg.histogram("h", bounds=POW2_BUCKETS).record(3)
    for rec in reg.snapshot():
        assert type(rec) is dict
        for v in rec.values():
            assert isinstance(v, (str, int, float, dict, list, type(None)))


# -- recorders and spans ---------------------------------------------------

def test_null_recorder_is_inert():
    rec = NullRecorder()
    assert not rec.enabled
    rec.event("send", dest=1)
    span = rec.span("freeze")
    assert span.close() == 0.0


def test_span_rejects_unknown_phase():
    with pytest.raises(ValueError):
        NullRecorder().span("warmup")  # not in PHASES


def test_trace_recorder_feeds_sim_trace():
    trace = Trace()
    rec = TraceRecorder(trace, actor="p0")
    with rec.span("freeze", rank=0):
        pass
    rec.event("drain_peer", peer=1, last="eom")
    kinds = [ev.kind for ev in trace.events]
    assert kinds == ["span_start", "span_end", "drain_peer"]
    end = trace.first("span_end")
    assert end.detail["phase"] == "freeze"
    assert "seconds" in end.detail
    with pytest.raises(ValueError):
        rec.event("bogus_kind")


def test_buffer_recorder_flushes_on_full():
    batches = []
    rec = BufferRecorder("p0", flush_every=3,
                         on_full=lambda r: batches.append(r.drain()))
    for i in range(7):
        rec.event("mark", text=str(i))
    assert [len(b) for b in batches] == [3, 3]
    assert len(rec.drain()) == 1  # the remainder
    assert rec.drain() == []


def test_span_double_close_records_once():
    trace = Trace()
    rec = TraceRecorder(trace, actor="p0")
    span = rec.span("commit", rank=2)
    first = span.close(extra_field=1)
    assert span.close() == 0.0 and first >= 0.0
    assert len(trace.filter(kind="span_end")) == 1


# -- worker/registry collection -------------------------------------------

def test_obs_config_coerce():
    assert ObsConfig.coerce(None) is None
    assert ObsConfig.coerce(False) is None
    assert ObsConfig.coerce(True) == ObsConfig()
    cfg = ObsConfig(sample_every=7)
    assert ObsConfig.coerce(cfg) is cfg
    assert ObsConfig.coerce(ObsConfig(enabled=False)) is None
    with pytest.raises(TypeError):
        ObsConfig.coerce(1)


def test_sampling_disabled_by_default():
    obs = WorkerObs(ObsConfig(), rank=0, actor="p0", send_batch=lambda f: None)
    assert not any(obs.sample_message() for _ in range(100))


def test_sampling_every_nth():
    obs = WorkerObs(ObsConfig(sample_every=4), rank=0, actor="p0",
                    send_batch=lambda f: None)
    hits = [obs.sample_message() for _ in range(12)]
    assert hits.count(True) == 3


def test_worker_to_collector_round_trip(tmp_path):
    frames = []
    obs = WorkerObs(ObsConfig(), rank=1, actor="p1",
                    send_batch=frames.append)
    obs.metrics.counter("mp.msgs_sent", rank=1).inc(9)
    span = obs.span("drain")
    obs.event("drain_peer", peer=0, last="eom", rank=1)
    span.close(peers=1)
    obs.flush(final=True)

    collector = RegistryCollector()
    for frame in frames:
        assert frame[0] == "obs"
        collector.absorb(frame)
    collector.record("registry", "migration_window", rank=1, seconds=0.5)

    events = collector.events()
    assert [e["kind"] for e in events[:3]] == ["span_start", "drain_peer",
                                               "span_end"]
    assert events[-1]["kind"] == "migration_window"
    assert all(validate_record(e) is None for e in events)
    assert collector.metrics.value("mp.msgs_sent", rank=1) == 9

    path = tmp_path / "events.jsonl"
    n = collector.write_jsonl(str(path))
    lines = path.read_text().strip().splitlines()
    assert len(lines) == n == len(events)
    assert all(validate_record(decode_jsonl_line(l)) is None for l in lines)


# -- JSONL schema ----------------------------------------------------------

def test_validate_record_accepts_good_records():
    assert validate_record({"ts": 1.0, "actor": "p0", "kind": "span_end",
                            "phase": "drain", "rank": 0,
                            "seconds": 0.1}) is None
    assert validate_record({"ts": 2, "actor": "registry",
                            "kind": "mark", "text": "hi"}) is None


@pytest.mark.parametrize("rec,why", [
    ("nope", "not an object"),
    ({"actor": "p0", "kind": "mark"}, "missing ts"),
    ({"ts": True, "actor": "p0", "kind": "mark"}, "bool ts"),
    ({"ts": 1.0, "actor": "p0", "kind": "launch"}, "unknown kind"),
    ({"ts": 1.0, "actor": "p0", "kind": "span_start", "phase": "warmup",
      "rank": 0}, "unknown phase"),
    ({"ts": 1.0, "actor": "p0", "kind": "state_chunk", "seq": 0},
     "missing nbytes"),
    ({"ts": 1.0, "actor": "p0", "kind": "mark", "trace_id": "mig-x"},
     "trace context on non-trace kind"),
    ({"ts": 1.0, "actor": "p0", "kind": "send", "dest": 1,
      "parent": "freeze"}, "parent on non-trace kind"),
    ({"ts": 1.0, "actor": "p0", "kind": "span_start", "phase": "freeze",
      "rank": 0, "trace_id": 7}, "non-string trace_id"),
    ({"ts": 1.0, "actor": "p0", "kind": "span_end", "phase": "drain",
      "rank": 0, "seconds": 0.1, "parent": ["reject"]},
     "non-string parent"),
])
def test_validate_record_rejects(rec, why):
    assert validate_record(rec) is not None, why


@pytest.mark.parametrize("kind,extra", [
    ("span_start", {"phase": "freeze", "rank": 1}),
    ("span_end", {"phase": "commit", "rank": 1, "seconds": 0.1}),
    ("drain_peer", {"peer": 0, "last": "eom"}),
    ("state_chunk", {"seq": 0, "nbytes": 4096}),
    ("migration_window", {"rank": 1, "seconds": 0.2}),
])
def test_validate_record_accepts_trace_context_on_trace_kinds(kind, extra):
    rec = {"ts": 1.0, "actor": "p1", "kind": kind,
           "trace_id": "mig-r1.m1-deadbeef", "parent": "freeze", **extra}
    assert validate_record(rec) is None
    # explicit None is treated as absent everywhere
    rec2 = {"ts": 1.0, "actor": "p1", "kind": kind, "trace_id": None, **extra}
    assert validate_record(rec2) is None


def test_validate_record_accepts_links_on_trace_kinds():
    rec = {"ts": 1.0, "actor": "p1", "kind": "span_start",
           "phase": "recover", "rank": 1, "trace_id": "rec-r1-1",
           "links": ["mig-r1.m1-deadbeef"]}
    assert validate_record(rec) is None
    rec["links"] = None  # explicit None treated as absent
    assert validate_record(rec) is None


@pytest.mark.parametrize("rec,why", [
    ({"ts": 1.0, "actor": "p0", "kind": "mark",
      "links": ["mig-x"]}, "links on non-trace kind"),
    ({"ts": 1.0, "actor": "p0", "kind": "span_start", "phase": "freeze",
      "rank": 0, "links": "mig-x"}, "links must be a list"),
    ({"ts": 1.0, "actor": "p0", "kind": "span_start", "phase": "freeze",
      "rank": 0, "links": [7]}, "link entries must be strings"),
])
def test_validate_record_rejects_bad_links(rec, why):
    assert validate_record(rec) is not None, why


def test_collector_trace_links_index():
    """trace_links() inverts the per-record links into a per-trace map,
    deduplicating repeats and skipping unlinked records."""
    collector = RegistryCollector()
    collector.record("p1", "span_start", phase="recover", rank=1,
                     trace_id="rec-r1-1",
                     links=["mig-r1.m1-aaaa", "mig-r1.m0-bbbb"])
    collector.record("p1", "span_start", phase="freeze", rank=1,
                     trace_id="mig-r1.m2-cccc")          # no links
    collector.record("p1", "drain_peer", peer=0, last="eom",
                     trace_id="rec-r1-1", links=["mig-r1.m1-aaaa"])
    links = collector.trace_links()
    assert links == {"rec-r1-1": ["mig-r1.m1-aaaa", "mig-r1.m0-bbbb"]}
    assert all(validate_record(e) is None for e in collector.events())


# -- clock alignment -------------------------------------------------------

def test_offset_estimator_midpoint_math():
    est = OffsetEstimator()
    # reply stamped 15.0 on the peer; local send/recv bracket [10.0, 10.5]
    s = est.observe("registry", t_send=10.0, t_peer=15.0, t_recv=10.5)
    assert s.offset == pytest.approx(15.0 - 10.25)
    assert s.err == pytest.approx(0.25)
    assert est.offset_to("registry") == pytest.approx(4.75)
    assert est.offset_to("p9") is None


def test_offset_estimator_normalizes_swapped_timestamps():
    a = OffsetEstimator().observe("r", 10.5, 15.0, 10.0)
    b = OffsetEstimator().observe("r", 10.0, 15.0, 10.5)
    assert a.offset == b.offset and a.err == b.err


def test_offset_estimator_keeps_min_err_sample_per_peer():
    est = OffsetEstimator()
    est.observe("registry", 0.0, 100.0, 1.0)    # err 0.50
    est.observe("registry", 0.0, 200.0, 0.1)    # err 0.05 — tightest, wins
    est.observe("registry", 0.0, 300.0, 2.0)    # err 1.00 — ignored
    assert est.offset_to("registry") == pytest.approx(200.0 - 0.05)
    est.observe("p0", 0.0, 50.0, 0.2)
    assert [s.peer for s in est.samples()] == ["p0", "registry"]
    # events() output is schema-legal clock_offset material
    for kind, fields in est.events():
        assert kind == "clock_offset"
        assert validate_record({"ts": 0.0, "actor": "p1", "kind": kind,
                                **fields}) is None


def test_best_offsets_picks_min_err_per_actor():
    events = [
        {"ts": 9.0, "actor": "p1", "kind": "clock_offset",
         "peer": "registry", "offset": -4.0, "err": 0.01},
        {"ts": 9.0, "actor": "p1", "kind": "clock_offset",
         "peer": "registry", "offset": -3.0, "err": 0.5},
        {"ts": 9.0, "actor": "p1", "kind": "clock_offset",
         "peer": "p0", "offset": 99.0, "err": 0.001},  # wrong peer
    ]
    assert best_offsets(events) == {"p1": -4.0}
    assert best_offsets(events, peer="p0") == {"p1": 99.0}


def test_align_events_shifts_onto_registry_clock():
    events = [
        {"ts": 0.0, "actor": "registry", "kind": "mark", "text": "t0"},
        {"ts": 5.0, "actor": "p1", "kind": "span_start", "phase": "freeze",
         "rank": 1},
        {"ts": 5.5, "actor": "p1", "kind": "span_end", "phase": "freeze",
         "rank": 1, "seconds": 0.5},
        {"ts": 9.0, "actor": "p1", "kind": "clock_offset",
         "peer": "registry", "offset": -4.0, "err": 0.01},
    ]
    aligned = align_events(events)
    p1_ts = [r["ts"] for r in aligned if r["actor"] == "p1"]
    assert p1_ts == [pytest.approx(1.0), pytest.approx(1.5),
                     pytest.approx(5.0)]
    # registry (no sample) passes through; stream re-sorted by ts
    assert [r["ts"] for r in aligned] == sorted(r["ts"] for r in aligned)
    assert events[1]["ts"] == 5.0  # input records untouched


# -- deterministic gauge merge ---------------------------------------------

def test_gauge_merge_is_order_independent():
    base = MetricsRegistry()
    base.gauge("mp.queue_depth", rank=1).set(7)
    repl = MetricsRegistry()
    repl.gauge("mp.queue_depth", rank=1).set(0)
    stamped = [(base.snapshot(), 0), (repl.snapshot(), 1)]
    for order in (stamped, stamped[::-1]):
        merged = MetricsRegistry()
        for snap, stamp in order:
            merged.merge_snapshot(snap, stamp=stamp)
        # the replacement incarnation's terminal value wins both ways
        assert merged.gauge("mp.queue_depth", rank=1).value == 0


def test_gauge_merge_equal_stamps_keep_max():
    a = MetricsRegistry()
    a.gauge("dir.live_shards").set(2)
    b = MetricsRegistry()
    b.gauge("dir.live_shards").set(5)
    for order in ((a, b), (b, a)):
        merged = MetricsRegistry()
        for reg in order:
            merged.merge_snapshot(reg.snapshot())
        assert merged.gauge("dir.live_shards").value == 5


# -- live streaming and trace grouping at the collector --------------------

def test_live_snapshot_feeds_live_view_not_metrics():
    frames = []
    obs = WorkerObs(ObsConfig(), rank=1, actor="p1",
                    send_batch=frames.append)
    obs.metrics.counter("mp.msgs_sent", rank=1).inc(5)
    obs.metrics.gauge("mp.queue_depth", rank=1).set(2)
    obs.flush(live=True)
    obs.metrics.gauge("mp.queue_depth", rank=1).set(0)
    obs.flush(final=True)

    collector = RegistryCollector()
    for frame in frames:
        collector.absorb(frame)
    view = collector.live_view()
    assert view["p1"]["gauges"]["mp.queue_depth"] == 2
    assert view["p1"]["ts"] > 0
    # the live snapshot was never merged: the counter counts once and the
    # cluster-wide gauge is the teardown value, not the mid-run one
    assert collector.metrics.value("mp.msgs_sent", rank=1) == 5
    assert collector.metrics.gauge("mp.queue_depth", rank=1).value == 0


def test_collector_groups_events_by_trace_id():
    tid = "mig-r1.m1-abcd0123"
    collector = RegistryCollector()
    collector.absorb(("obs", 1, "p1", [
        (1.0, "span_start", {"phase": "freeze", "rank": 1, "trace_id": tid}),
        (1.2, "span_end", {"phase": "freeze", "rank": 1, "seconds": 0.2,
                           "trace_id": tid, "parent": None}),
        (1.3, "mark", {"text": "untraced"}),
    ], None, False))
    collector.record("registry", "migration_window", rank=1, seconds=0.4,
                     trace_id=tid)
    traces = collector.traces()
    assert set(traces) == {tid}
    assert [r["kind"] for r in traces[tid]] == [
        "span_start", "span_end", "migration_window"]
    # everything in the group is schema-legal
    for rec in traces[tid]:
        assert validate_record(rec) is None


def test_worker_final_flush_ships_clock_offsets():
    frames = []
    obs = WorkerObs(ObsConfig(), rank=1, actor="p1",
                    send_batch=frames.append)
    obs.clock.observe("registry", 10.0, 14.0, 10.2)
    obs.flush(final=True)
    (_, _, _, events, snapshot, final), = frames
    assert final and snapshot is not None
    kinds = [k for _, k, _ in events]
    assert kinds == ["clock_offset"]
    fields = events[0][2]
    assert fields["peer"] == "registry"
    assert fields["offset"] == pytest.approx(14.0 - 10.1)


def test_jsonl_line_round_trip():
    rec = {"ts": 1.25, "actor": "p1.m1", "kind": "state_chunk", "seq": 3,
           "nbytes": 4096, "last": False}
    line = encode_jsonl_line(rec)
    assert "\n" not in line
    assert decode_jsonl_line(line) == rec
    assert not math.isnan(decode_jsonl_line(line)["ts"])


# -- abort path closes its phase spans -------------------------------------

def test_abort_migration_closes_open_phase_spans(kernel):
    """A drain-timeout abort must balance the trace: the ``reject`` and
    ``drain`` spans opened before the timeout get explicit ``span_end``
    events carrying ``aborted=True`` (no consumer-side timeout
    heuristics), and once the retried migration commits, every
    ``span_start`` in the whole run has a matching ``span_end``."""
    COUNT, STALL = 20, 0.25
    vm = VirtualMachine(kernel)
    for h in ("h0", "h1", "h2", "h3"):
        vm.add_host(h)

    def program(api, state):
        if api.rank == 0:
            i = state.get("i", 0)
            while i < COUNT:
                api.send(1, ("seq", i), tag=1)
                i += 1
                state["i"] = i
                api.compute(0.002)
                api.poll_migration(state)
        else:
            # take one message, then go deaf (signals held) for STALL —
            # exactly the window in which rank 0 tries to migrate, so
            # its bounded drain expires and the attempt aborts
            if not state.get("stalled"):
                api.recv(src=0, tag=1)
                state["n"] = 1
                state["stalled"] = True
                ctx = api.endpoint.ctx
                ctx.hold_signals()
                api.compute(STALL)
                ctx.release_signals()
            while state["n"] < COUNT:
                api.recv(src=0, tag=1)
                state["n"] += 1

    app = Application(
        vm, program, placement=["h0", "h1"], scheduler_host="h2",
        retry=RetryPolicy(seed=0, base=0.01, factor=2.0, cap=0.2,
                          max_attempts=12, jitter=0.1),
        drain_timeout=0.05, migration_retry_limit=5)
    app.start()
    app.migrate_at(0.02, rank=0, dest_host="h3")
    app.run()

    assert any(rec.aborted for rec in app.migrations)
    # the spans open at abort time were closed, explicitly marked
    assert vm.trace.count("span_end", aborted=True, phase="drain") >= 1
    assert vm.trace.count("span_end", aborted=True, phase="reject") >= 1
    # the aborted attempt's initialized process closes its restore span
    # on the way out too (InitAbort)
    assert vm.trace.count("span_end", aborted=True, phase="restore") >= 1
    # ... and only those three phases can ever abort mid-span
    aborted = {ev.detail["phase"]
               for ev in vm.trace.filter(kind="span_end", aborted=True)}
    assert aborted <= {"drain", "reject", "restore"}
    # global balance: per (actor, phase), starts == ends
    starts: dict[tuple, int] = {}
    ends: dict[tuple, int] = {}
    for ev in vm.trace.filter(kind="span_start"):
        key = (ev.actor, ev.detail["phase"])
        starts[key] = starts.get(key, 0) + 1
    for ev in vm.trace.filter(kind="span_end"):
        key = (ev.actor, ev.detail["phase"])
        ends[key] = ends.get(key, 0) + 1
    assert starts == ends
    # the aborted span_end records are schema-legal JSONL
    for ev in vm.trace.filter(kind="span_end", aborted=True):
        rec = {"ts": ev.time, "actor": ev.actor, "kind": ev.kind,
               **ev.detail}
        assert validate_record(rec) is None
