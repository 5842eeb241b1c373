//! Golden-trace test for the deterministic simulator.
//!
//! [`SimWorld`] stamps `MsgSend`/`MsgRecv` with *simulated* time and the
//! engine's own events come from manual-clock sinks, so a fixed workload
//! must always produce byte-identical JSONL traces. The test drives a
//! 3-site replicated-counter commit twice and asserts the runs agree
//! event-for-event, plus structural invariants (every send has a matching
//! delivery, timestamps follow the 5 ms uniform latency).

use decaf_core::{ObjectName, Site, Transaction, TxnCtx, TxnError, TxnOutcome};
use decaf_net::sim::{LatencyModel, SimTime};
use decaf_trace::{Replay, TraceEvent, TraceKind, TraceSink};
use decaf_vt::SiteId;
use decaf_workload::SimWorld;

struct Incr(ObjectName);
impl Transaction for Incr {
    fn execute(&mut self, ctx: &mut TxnCtx<'_>) -> Result<(), TxnError> {
        let v = ctx.read_int(self.0)?;
        ctx.write_int(self.0, v + 1)
    }
}

/// Runs the fixed 3-site workload: site 1 increments a replicated counter,
/// all protocol traffic crosses the simulator, and each site's trace is
/// collected. Returns the concatenated JSONL (sites in id order).
fn run_once() -> (String, Vec<i64>) {
    let mut world = SimWorld::new(3, LatencyModel::uniform(SimTime::from_millis(5)));
    let objs = world.wire_int(0);
    let sinks: Vec<TraceSink> = (1..=3u32)
        .map(|i| TraceSink::enabled_manual(i, 1024))
        .collect();
    for (i, sink) in sinks.iter().enumerate() {
        world
            .site(SiteId(i as u32 + 1))
            .set_trace_sink(sink.clone());
    }

    let h = world.site(SiteId(1)).execute(Box::new(Incr(objs[0])));
    world.run_to_quiescence();

    assert_eq!(
        world.site(SiteId(1)).txn_outcome(h),
        Some(TxnOutcome::Committed)
    );
    let values: Vec<i64> = (1..=3u32)
        .zip(objs.iter())
        .map(|(i, o)| {
            world
                .site(SiteId(i))
                .read_int_committed(*o)
                .expect("committed value")
        })
        .collect();

    let mut jsonl = String::new();
    for sink in &sinks {
        assert_eq!(sink.dropped(), 0, "ring must not overflow in this test");
        let mut buf = Vec::new();
        sink.write_jsonl(&mut buf).expect("serialize trace");
        jsonl.push_str(std::str::from_utf8(&buf).expect("jsonl is utf-8"));
    }
    (jsonl, values)
}

#[test]
fn engine_emits_txn_lifecycle_into_sink() {
    let sink = TraceSink::enabled(1, 256);
    let mut a = Site::new(SiteId(1));
    a.set_trace_sink(sink.clone());
    let o = a.create_int(0);
    let h = a.execute(Box::new(Incr(o)));
    assert_eq!(a.txn_outcome(h), Some(TxnOutcome::Committed));

    let kinds: Vec<TraceKind> = sink.snapshot().iter().map(|e| e.kind).collect();
    assert!(
        kinds.contains(&TraceKind::TxnBegin),
        "begin traced: {kinds:?}"
    );
    assert!(
        kinds.contains(&TraceKind::Commit),
        "commit traced: {kinds:?}"
    );
    let summary = sink.summary();
    assert_eq!(
        summary.commit_lat_ns.count, 1,
        "one begin→commit latency sample paired"
    );
    assert_eq!(a.stats().trace_events_dropped, 0);
}

#[test]
fn three_site_commit_trace_is_deterministic() {
    let (trace_a, values_a) = run_once();
    let (trace_b, values_b) = run_once();
    assert_eq!(values_a, vec![1, 1, 1], "all replicas converge to 1");
    assert_eq!(values_b, values_a);
    assert_eq!(
        trace_a, trace_b,
        "identical workloads must produce byte-identical traces"
    );
    assert!(!trace_a.is_empty(), "the commit crossed the wire");
}

#[test]
fn three_site_commit_trace_structure() {
    let (jsonl, _) = run_once();
    let mut replay = Replay::new();
    replay
        .observe_jsonl(&jsonl)
        .expect("trace parses cleanly back through the analyzer");

    let mut sends = 0u64;
    let mut recvs = 0u64;
    let mut lines = 0u64;
    for line in jsonl.lines() {
        lines += 1;
        let ev = TraceEvent::from_jsonl(line).expect("well-formed event");
        match ev.kind {
            TraceKind::MsgSend => sends += 1,
            TraceKind::MsgRecv => recvs += 1,
            _ => continue, // the engine's own events share the sink
        }
        assert!(ev.peer.is_some(), "transport events always name a peer");
        assert_eq!(
            ev.ts_ns % 5_000_000,
            0,
            "uniform 5ms latency: every timestamp is a whole hop count"
        );
    }
    assert_eq!(sends, recvs, "reliable links: every send is delivered");
    assert!(sends >= 2, "a 3-site commit takes at least one round trip");
    assert_eq!(replay.events(), lines, "analyzer saw every line");
    assert_eq!(replay.sites().len(), 3, "all three sites traced");
    let total_sent: u64 = replay.sites().values().map(|s| s.msgs_sent).sum();
    assert_eq!(total_sent, sends, "per-site digests agree with raw events");
}
