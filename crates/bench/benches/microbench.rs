//! Criterion micro-benchmarks for the DECAF engine: raw engine costs that
//! complement the simulated-latency experiments (`src/bin/e*`), one group
//! per experiment family.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use decaf_core::{wiring, Blueprint, ObjectName, Site, Transaction, TxnCtx, TxnError, ViewMode};
use decaf_vt::SiteId;

struct Incr(ObjectName);
impl Transaction for Incr {
    fn execute(&mut self, ctx: &mut TxnCtx<'_>) -> Result<(), TxnError> {
        let v = ctx.read_int(self.0)?;
        ctx.write_int(self.0, v + 1)
    }
}

struct Push(ObjectName);
impl Transaction for Push {
    fn execute(&mut self, ctx: &mut TxnCtx<'_>) -> Result<(), TxnError> {
        ctx.list_push(self.0, Blueprint::Int(1))?;
        Ok(())
    }
}

/// Cost of one local read-modify-write transaction (commit immediate:
/// single-site object).
fn bench_local_txn(c: &mut Criterion) {
    c.bench_function("local_txn_commit", |b| {
        let mut site = Site::new(SiteId(1));
        let obj = site.create_int(0);
        b.iter(|| {
            site.execute(Box::new(Incr(obj)));
        });
    });
}

/// Full two-site round trip: execute at the non-primary site, deliver all
/// protocol messages to quiescence.
fn bench_two_site_roundtrip(c: &mut Criterion) {
    c.bench_function("two_site_roundtrip", |b| {
        let mut a = Site::new(SiteId(1));
        let mut s2 = Site::new(SiteId(2));
        let oa = a.create_int(0);
        let ob = s2.create_int(0);
        wiring::wire_pair(&mut a, oa, &mut s2, ob);
        b.iter(|| {
            s2.execute(Box::new(Incr(ob)));
            wiring::run_to_quiescence(&mut [&mut a, &mut s2]);
        });
    });
}

/// Replica-set size sweep: cost of propagating one update to n replicas.
fn bench_fanout(c: &mut Criterion) {
    let mut group = c.benchmark_group("update_fanout");
    for n in [2u32, 4, 8, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut sites: Vec<Site> = (1..=n).map(|i| Site::new(SiteId(i))).collect();
            let objs: Vec<ObjectName> = sites.iter_mut().map(|s| s.create_int(0)).collect();
            {
                let mut parts: Vec<(&mut Site, ObjectName)> =
                    sites.iter_mut().zip(objs.iter().copied()).collect();
                wiring::wire_replicas(&mut parts);
            }
            b.iter(|| {
                sites[0].execute(Box::new(Incr(objs[0])));
                let mut refs: Vec<&mut Site> = sites.iter_mut().collect();
                wiring::run_to_quiescence(&mut refs);
            });
        });
    }
    group.finish();
}

/// Composite structural op + indirect path propagation to a replica.
fn bench_composite_push(c: &mut Criterion) {
    c.bench_function("composite_push_replicated", |b| {
        let mut a = Site::new(SiteId(1));
        let mut s2 = Site::new(SiteId(2));
        let la = a.create_list();
        let lb = s2.create_list();
        wiring::wire_pair(&mut a, la, &mut s2, lb);
        b.iter(|| {
            a.execute(Box::new(Push(la)));
            wiring::run_to_quiescence(&mut [&mut a, &mut s2]);
        });
    });
}

/// View notification overhead: optimistic update+commit per transaction.
fn bench_view_notification(c: &mut Criterion) {
    let mut group = c.benchmark_group("view_notification");
    for mode in [ViewMode::Optimistic, ViewMode::Pessimistic] {
        let name = match mode {
            ViewMode::Optimistic => "optimistic",
            ViewMode::Pessimistic => "pessimistic",
        };
        group.bench_function(name, |b| {
            let mut a = Site::new(SiteId(1));
            let mut s2 = Site::new(SiteId(2));
            let oa = a.create_int(0);
            let ob = s2.create_int(0);
            wiring::wire_pair(&mut a, oa, &mut s2, ob);
            let view = decaf_core::RecordingView::new(vec![]);
            a.attach_view(Box::new(view), &[oa], mode);
            b.iter(|| {
                s2.execute(Box::new(Incr(ob)));
                wiring::run_to_quiescence(&mut [&mut a, &mut s2]);
            });
        });
    }
    group.finish();
}

/// GVT baseline: full sweep cost over n sites.
fn bench_gvt_sweep(c: &mut Criterion) {
    use decaf_gvt::GvtSite;
    let mut group = c.benchmark_group("gvt_sweep");
    for n in [3u32, 9, 33] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let ring: Vec<SiteId> = (1..=n).map(SiteId).collect();
            let mut sites: Vec<GvtSite> = (1..=n)
                .map(|i| GvtSite::new(SiteId(i), ring.clone()))
                .collect();
            for s in sites.iter_mut() {
                let o = s.create_int("x", 0);
                s.add_replicas(o, vec![SiteId(1), SiteId(2)]);
            }
            b.iter(|| {
                sites[0].write(decaf_gvt::GvtObject("x".into()), 1);
                sites[0].start_sweep();
                loop {
                    let mut envs = Vec::new();
                    for s in sites.iter_mut() {
                        envs.extend(s.drain_outbox());
                    }
                    if envs.is_empty() {
                        break;
                    }
                    for e in envs {
                        if let Some(s) = sites.iter_mut().find(|s| s.id() == e.to) {
                            s.handle_message(e);
                        }
                    }
                }
                for s in sites.iter_mut() {
                    s.drain_events();
                }
            });
        });
    }
    group.finish();
}

/// Checkpoint + encoding cost as object count grows (§5.3 persistence).
fn bench_checkpoint(c: &mut Criterion) {
    let mut group = c.benchmark_group("checkpoint_bytes");
    for n in [10usize, 100, 1000] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut site = Site::new(SiteId(1));
            for i in 0..n {
                site.create_int(i as i64);
            }
            b.iter(|| {
                let cp = site.checkpoint().expect("quiescent");
                criterion::black_box(cp.to_bytes())
            });
        });
    }
    group.finish();
}

/// Full join-protocol cost (invitation → merged graphs → value adoption →
/// commit) for a composite of n children.
fn bench_join(c: &mut Criterion) {
    let mut group = c.benchmark_group("join_protocol");
    group.sample_size(20);
    for n in [1usize, 16, 64] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut a = Site::new(SiteId(1));
                let mut s2 = Site::new(SiteId(2));
                let list = a.create_list();
                struct PushN(ObjectName, usize);
                impl Transaction for PushN {
                    fn execute(&mut self, ctx: &mut TxnCtx<'_>) -> Result<(), TxnError> {
                        for i in 0..self.1 {
                            ctx.list_push(self.0, Blueprint::Int(i as i64))?;
                        }
                        Ok(())
                    }
                }
                a.execute(Box::new(PushN(list, n)));
                let assoc = a.create_association();
                let rel = a.create_relation(assoc, "bench", list).expect("relation");
                wiring::run_to_quiescence(&mut [&mut a, &mut s2]);
                let inv = a.make_invitation(assoc, rel).expect("invitation");
                let local = s2.create_list();
                s2.join(inv, local).expect("join");
                wiring::run_to_quiescence(&mut [&mut a, &mut s2]);
                criterion::black_box(s2.list_children_current(local).len())
            });
        });
    }
    group.finish();
}

/// ORESTE straggler integration: in-order (cheap) vs undo/redo replay.
fn bench_oreste_integration(c: &mut Criterion) {
    use decaf_oreste::{Op, OresteSite};
    let mut group = c.benchmark_group("oreste_integrate");
    group.bench_function("in_order", |b| {
        let mut src = OresteSite::new(SiteId(9), 1);
        let ops: Vec<_> = (0..64)
            .map(|i| src.perform(Op::AppendLabel(format!("{i}"))))
            .collect();
        b.iter(|| {
            let mut s = OresteSite::new(SiteId(1), 1);
            for o in &ops {
                s.integrate(o.clone());
            }
            criterion::black_box(s.state().label.len())
        });
    });
    group.bench_function("reversed_undo_redo", |b| {
        let mut src = OresteSite::new(SiteId(9), 1);
        let mut ops: Vec<_> = (0..64)
            .map(|i| src.perform(Op::AppendLabel(format!("{i}"))))
            .collect();
        ops.reverse();
        b.iter(|| {
            let mut s = OresteSite::new(SiteId(1), 1);
            for o in &ops {
                s.integrate(o.clone());
            }
            criterion::black_box(s.reorders)
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets =
        bench_local_txn,
        bench_two_site_roundtrip,
        bench_fanout,
        bench_composite_push,
        bench_view_notification,
        bench_gvt_sweep,
        bench_checkpoint,
        bench_join,
        bench_oreste_integration
}
criterion_main!(benches);
