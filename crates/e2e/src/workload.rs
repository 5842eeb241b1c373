//! The four workloads: object layout, who submits what and when, and the
//! state a correct run must end in.
//!
//! Sizing comes from measurements on the seed commit (see the README):
//! free-running contention livelocks in retry storms, a closed-loop writer
//! at the primary starves its peers into heartbeat fail-stop, and two
//! writing daemons hang when one gesture exhausts its retry budget. Each
//! workload is shaped to stay clear of the one that would make its numbers
//! unrepeatable.

use std::collections::BTreeMap;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use crate::node::{Gesture, ObjKind, ObjValue, Op, Pacing};
use crate::rng::SplitMix64;

/// The sites of every workload. Site 1 is the primary copy of every object
/// (`PrimarySelector::MinNode`, the default).
pub const SITES: [u32; 3] = [1, 2, 3];

/// Open-loop gesture rate per site in `whiteboard3`.
const WHITEBOARD_RATE_HZ: u64 = 200;
/// Bytes in a `whiteboard3` text gesture.
const WHITEBOARD_TEXT_LEN: usize = 128;
/// Gestures each writer keeps outstanding in `saturate3`.
const SATURATE_WINDOW: usize = 8;
/// Elements of the shared list in `duel_list3`.
const LIST_LEN: usize = 256;
/// The daemon's `--phase1-target` in `daemon3`, above anything the counter
/// reaches by increments. The run ends by adding it to the counter, so the
/// daemon's `exit value=` still shows how many increments committed.
pub const DAEMON_SENTINEL: i64 = 1 << 40;

/// One of the four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop blind writes from all three sites.
    Whiteboard3,
    /// Lock-step conflicting list rotations from sites 2 and 3.
    DuelList3,
    /// Closed-loop blind writes from sites 2 and 3, eight outstanding each.
    Saturate3,
    /// Site 1 is a `decaf-site` process; site 2 increments the counter.
    Daemon3,
}

impl Workload {
    /// All four, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Whiteboard3,
        Workload::DuelList3,
        Workload::Saturate3,
        Workload::Daemon3,
    ];

    /// The name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        crate::spec::WORKLOADS[self as usize].0
    }

    /// The workload of that name.
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether site 1 runs as a `decaf-site` child process.
    pub fn daemon_primary(self) -> bool {
        self == Workload::Daemon3
    }

    /// Whether the run is confined to one CPU. `whiteboard3`'s load fits
    /// on one, and the guest scheduler then either clusters the threads on
    /// one CPU or spreads them over both and changes its mind mid-run; the
    /// spread costs 25 % (cross-CPU wake-ups in a VM), so unconfined runs
    /// land on one of two levels (README, finding 9). The closed-loop
    /// workloads use all the CPU there is and repeat better with both.
    pub fn one_cpu(self) -> bool {
        self == Workload::Whiteboard3
    }

    /// Whether gestures go in lock-step rounds, one per duelling site; a
    /// latency sample is then a round's mean (see `measure::join`).
    pub fn lock_step(self) -> bool {
        self == Workload::DuelList3
    }

    /// Length of one bout's measured window, for a workload whose
    /// end-to-end run is many short sessions ("bouts") on fresh engines
    /// instead of one long one. `duel_list3` must be: every rotation leaves
    /// one more object in each engine's store and the engine walks the
    /// store on every rollback and garbage collection, so a session slows
    /// as it runs (a third in 20 s; README, finding 8). Of one long session
    /// only the first two or three seconds could give the run's number,
    /// and a run whose first seconds met a slow spell of the host had
    /// nothing else to offer. Two-second bouts are all alike, and each is
    /// a candidate.
    pub fn bout_seconds(self) -> Option<f64> {
        (self == Workload::DuelList3).then_some(2.0)
    }

    /// The replicated objects, created in this order at every site.
    pub fn layout(self) -> Vec<ObjKind> {
        use ObjKind::{Int, List, Str};
        match self {
            // Site k owns int k-1 and string 3+k-1.
            Workload::Whiteboard3 => vec![Int, Int, Int, Str, Str, Str],
            Workload::Saturate3 => vec![Int, Int, Int],
            Workload::DuelList3 => vec![List],
            // The daemon's counter is the first object at each site.
            Workload::Daemon3 => vec![Int],
        }
    }

    /// The layout objects the two views of `site` watch; none means the
    /// site has no views. Everywhere but `saturate3` each site watches
    /// everything. There, a view over several writers' objects makes the
    /// primary deny every second blind write (the view snapshots' read
    /// reservations, §4.2) and now and then starve one through all 64
    /// retries — the conflict machinery would be what is measured. So each
    /// writer watches only the other writer's object, and site 1 nothing.
    pub fn watched(self, site: u32) -> Vec<usize> {
        match (self, site) {
            (Workload::Saturate3, 2) => vec![2],
            (Workload::Saturate3, 3) => vec![1],
            (Workload::Saturate3, _) => vec![],
            _ => (0..self.layout().len()).collect(),
        }
    }

    /// When `site` submits. `duel` is the round counter the two duelling
    /// sites share.
    pub fn pacing(self, site: u32, duel: &Arc<AtomicU64>) -> Pacing {
        match (self, site) {
            (Workload::Whiteboard3, _) => {
                let period_ns = 1_000_000_000 / WHITEBOARD_RATE_HZ;
                Pacing::Open {
                    period_ns,
                    phase_ns: period_ns * u64::from(site - 1) / 3,
                }
            }
            (Workload::Saturate3, 2 | 3) => Pacing::Window(SATURATE_WINDOW),
            (Workload::DuelList3, 2 | 3) => Pacing::LockStep {
                decided: Arc::clone(duel),
                parties: 2,
            },
            (Workload::Daemon3, 2) => Pacing::Window(1),
            _ => Pacing::Passive,
        }
    }

    /// The gesture generator of `site`: gesture `k` is a function of
    /// `(seed, site, k)` alone.
    pub fn generator(self, site: u32, seed: u64) -> Box<dyn FnMut(u64) -> Op + Send> {
        let mut rng = SplitMix64::stream(seed, u64::from(site));
        let own = u64::from(site - 1);
        // Positive and far below the daemon's sentinel.
        let value = |rng: &mut SplitMix64| (rng.next_u64() >> 32) as i64;
        match self {
            Workload::Whiteboard3 => Box::new(move |_| {
                if rng.below(4) < 3 {
                    Op::WriteInt {
                        obj: own,
                        v: value(&mut rng),
                    }
                } else {
                    Op::WriteStr {
                        obj: 3 + own,
                        s: rng.ascii(WHITEBOARD_TEXT_LEN),
                    }
                }
            }),
            Workload::Saturate3 => Box::new(move |_| Op::WriteInt {
                obj: own,
                v: value(&mut rng),
            }),
            Workload::DuelList3 => Box::new(move |_| Op::Rotate {
                obj: 0,
                v: value(&mut rng),
            }),
            Workload::Daemon3 => Box::new(|_| Op::Add { obj: 0, by: 1 }),
        }
    }

    /// Set-up gestures, in stages: a stage's gestures go out together, and
    /// all must be seen committed at every harness site before the next
    /// stage. Between them the stages cross all six links.
    pub fn setup_stages(self) -> Vec<Vec<(u32, Op)>> {
        match self {
            Workload::Whiteboard3 | Workload::Saturate3 => vec![SITES
                .iter()
                .map(|&s| {
                    let op = Op::WriteInt {
                        obj: u64::from(s - 1),
                        v: -1,
                    };
                    (s, op)
                })
                .collect()],
            // The fill is blind appends at the primary, which never
            // conflict; the two rotations would, so each gets a stage.
            Workload::DuelList3 => vec![
                (0..LIST_LEN as i64)
                    .map(|v| (1, Op::Push { obj: 0, v }))
                    .collect(),
                vec![(2, Op::Rotate { obj: 0, v: -2 })],
                vec![(3, Op::Rotate { obj: 0, v: -3 })],
            ],
            // Each commit needs the daemon's confirmation and its commit
            // broadcast, so these two cross the four links that touch it.
            Workload::Daemon3 => vec![
                vec![(2, Op::Add { obj: 0, by: 1 })],
                vec![(3, Op::Add { obj: 0, by: 1 })],
            ],
        }
    }
}

/// The state every site starts from.
pub fn initial_state(layout: &[ObjKind]) -> Vec<ObjValue> {
    layout
        .iter()
        .map(|k| match k {
            ObjKind::Int => ObjValue::Int(Some(0)),
            ObjKind::Str => ObjValue::Str(Some(String::new())),
            ObjKind::List => ObjValue::List(Vec::new()),
        })
        .collect()
}

/// What one committed gesture does to the state.
pub fn apply(state: &mut [ObjValue], op: &Op) {
    match (&mut state[op.obj() as usize], op) {
        (ObjValue::Int(v), Op::WriteInt { v: new, .. }) => *v = Some(*new),
        (ObjValue::Str(v), Op::WriteStr { s, .. }) => *v = Some(s.clone()),
        (ObjValue::Int(Some(v)), Op::Add { by, .. }) => *v += by,
        (ObjValue::List(l), Op::Rotate { v, .. }) => {
            l.pop();
            l.insert(0, Some(*v));
        }
        (ObjValue::List(l), Op::Push { v, .. }) => l.push(Some(*v)),
        (value, op) => panic!("{op:?} does not apply to {value:?}"),
    }
}

/// Replays the committed gestures of all sites in VT order against a
/// single-site model — the state serializability in VT order implies.
pub fn model_state(layout: &[ObjKind], all_gestures: &[&[Gesture]]) -> Vec<ObjValue> {
    let mut state = initial_state(layout);
    let committed: BTreeMap<_, _> = all_gestures
        .iter()
        .flat_map(|g| g.iter())
        .filter(|g| g.committed)
        .map(|g| (g.vt, &g.op))
        .collect();
    for op in committed.into_values() {
        apply(&mut state, op);
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_the_spec_table() {
        for (w, (name, _)) in Workload::ALL.into_iter().zip(crate::spec::WORKLOADS) {
            assert_eq!(w.name(), name);
            assert_eq!(Workload::by_name(name), Some(w));
        }
        assert_eq!(Workload::by_name("nope"), None);
    }

    /// The acceptance property: the same seed yields the same gestures,
    /// and a different seed or site does not.
    #[test]
    fn gestures_are_a_function_of_seed_and_site() {
        let take = |w: Workload, site, seed| -> Vec<Op> {
            let mut g = w.generator(site, seed);
            (0..64).map(&mut g).collect()
        };
        for w in Workload::ALL {
            assert_eq!(take(w, 2, 42), take(w, 2, 42));
        }
        assert_ne!(
            take(Workload::Whiteboard3, 2, 42),
            take(Workload::Whiteboard3, 2, 43)
        );
        assert_ne!(
            take(Workload::Whiteboard3, 2, 42),
            take(Workload::Whiteboard3, 3, 42)
        );
        let wb = take(Workload::Whiteboard3, 1, 7);
        assert!(wb
            .iter()
            .any(|op| matches!(op, Op::WriteStr { s, .. } if s.len() == 128)));
        assert!(wb
            .iter()
            .any(|op| matches!(op, Op::WriteInt { obj: 0, .. })));
    }

    #[test]
    fn model_replays_in_vt_order() {
        use decaf_vt::{SiteId, VirtualTime};
        let g = |lamport, site, op, committed| Gesture {
            op,
            setup: false,
            due_ns: 0,
            submit_ns: 0,
            vt: VirtualTime::new(lamport, SiteId(site)),
            attempts: 1,
            decided_ns: 1,
            committed,
        };
        let a = [
            g(1, 1, Op::Push { obj: 0, v: 0 }, true),
            g(2, 1, Op::Push { obj: 0, v: 1 }, true),
            g(9, 1, Op::Rotate { obj: 0, v: 99 }, false),
        ];
        let b = [
            g(5, 2, Op::Rotate { obj: 0, v: 50 }, true),
            g(3, 2, Op::Rotate { obj: 0, v: 30 }, true),
        ];
        let state = model_state(&[ObjKind::List], &[&a, &b]);
        assert_eq!(state, vec![ObjValue::List(vec![Some(50), Some(30)])]);
    }
}
