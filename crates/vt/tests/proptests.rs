//! Property-based tests for virtual-time primitives: the history behaves
//! like a sorted map regardless of insertion order, and reservations /
//! clocks uphold their invariants.

use decaf_proptest::prelude::*;

use decaf_vt::{History, LamportClock, ReservationSet, SiteId, VirtualTime};

fn vt(lamport: u64, site: u32) -> VirtualTime {
    VirtualTime::new(lamport, SiteId(site))
}

fn arb_vt() -> impl Strategy<Value = VirtualTime> {
    (1u64..50, 0u32..4).prop_map(|(l, s)| vt(l, s))
}

proptest! {
    /// Whatever the insertion order, iteration is sorted and `current` is
    /// the max-VT entry.
    #[test]
    fn history_iteration_is_sorted(entries in prop::collection::vec((arb_vt(), 0i64..100), 0..40)) {
        let mut h = History::new();
        for (t, v) in &entries {
            h.insert(*t, *v);
        }
        let vts: Vec<VirtualTime> = h.iter().map(|e| e.vt).collect();
        let mut sorted = vts.clone();
        sorted.sort();
        sorted.dedup();
        prop_assert_eq!(&vts, &sorted);
        if let Some(cur) = h.current() {
            prop_assert_eq!(cur.vt, *vts.last().unwrap());
        } else {
            prop_assert!(entries.is_empty());
        }
    }

    /// `value_at` agrees with a naive model (last write at or before the
    /// probe, later inserts win on VT ties).
    #[test]
    fn history_value_at_matches_model(
        entries in prop::collection::vec((arb_vt(), 0i64..100), 1..40),
        probe in arb_vt(),
    ) {
        let mut h = History::new();
        let mut model: std::collections::BTreeMap<VirtualTime, i64> = Default::default();
        for (t, v) in &entries {
            h.insert(*t, *v);
            model.insert(*t, *v);
        }
        let expected = model.range(..=probe).next_back().map(|(_, v)| *v);
        prop_assert_eq!(h.value_at(probe).map(|e| e.value), expected);
    }

    /// The RL check agrees with a naive open-interval scan.
    #[test]
    fn history_rl_check_matches_model(
        entries in prop::collection::vec(arb_vt(), 0..30),
        lo in arb_vt(),
        hi in arb_vt(),
    ) {
        let mut h = History::new();
        for t in &entries {
            h.insert(*t, ());
        }
        let expected = entries.iter().any(|t| *t > lo && *t < hi);
        prop_assert_eq!(h.has_write_in(lo, hi), expected);
    }

    /// The one-probe `write_in` agrees with both predicates it stands for:
    /// any write in the open interval (`has_write_in`), and any committed
    /// one there (a naive scan).
    #[test]
    fn history_write_in_matches_both_predicates(
        entries in prop::collection::vec((arb_vt(), prop::bool::ANY), 0..30),
        lo in arb_vt(),
        hi in arb_vt(),
    ) {
        let mut h = History::new();
        for (t, committed) in &entries {
            h.insert(*t, ());
            if *committed {
                h.mark_committed(*t);
            }
        }
        let committed = h.iter().any(|e| e.committed && e.vt > lo && e.vt < hi);
        let expected = h.has_write_in(lo, hi).then_some(committed);
        prop_assert_eq!(h.write_in(lo, hi), expected);
    }

    /// GC never discards the latest committed entry or anything after the
    /// low-water mark, and the observable value at any probe ≥ low water is
    /// unchanged.
    #[test]
    fn history_gc_preserves_reachable_values(
        entries in prop::collection::vec((arb_vt(), 0i64..100, prop::bool::ANY), 1..30),
        low in arb_vt(),
        probe_after in 0u64..20,
    ) {
        let mut h = History::new();
        for (t, v, committed) in &entries {
            h.insert(*t, *v);
            if *committed {
                h.mark_committed(*t);
            }
        }
        let probe = VirtualTime::new(low.lamport + probe_after, low.site);
        let before = h.value_at(probe).map(|e| (e.vt, e.value));
        let latest_committed = h.latest_committed().map(|e| e.vt);
        h.gc(low);
        // Latest committed entry survives.
        prop_assert_eq!(h.latest_committed().map(|e| e.vt), latest_committed);
        // Reads at or after the low-water mark are unchanged.
        prop_assert_eq!(h.value_at(probe).map(|e| (e.vt, e.value)), before);
    }

    /// Purging entries restores the pre-insertion observable state.
    #[test]
    fn history_purge_inverts_insert(
        base in prop::collection::vec((arb_vt(), 0i64..100), 0..20),
        extra in arb_vt(),
        v in 0i64..100,
    ) {
        let mut h = History::new();
        for (t, val) in &base {
            h.insert(*t, *val);
        }
        let snapshot: Vec<_> = h.iter().map(|e| (e.vt, e.value)).collect();
        if h.entry_at(extra).is_none() {
            h.insert(extra, v);
            h.purge(extra);
            let after: Vec<_> = h.iter().map(|e| (e.vt, e.value)).collect();
            prop_assert_eq!(snapshot, after);
        }
    }

    /// A write inside any foreign reservation is rejected; endpoint and
    /// owner writes are accepted.
    #[test]
    fn reservations_reject_exactly_interior_foreign_writes(
        reservations in prop::collection::vec((arb_vt(), 1u64..20), 0..20),
        w in arb_vt(),
    ) {
        let mut rs = ReservationSet::new();
        let mut intervals = Vec::new();
        for (lo, span) in &reservations {
            let hi = VirtualTime::new(lo.lamport + span, lo.site);
            let owner = hi;
            rs.reserve(*lo, hi, owner);
            intervals.push((*lo, hi));
        }
        let expected_conflict = intervals.iter().any(|(lo, hi)| w > *lo && w < *hi);
        prop_assert_eq!(rs.check_write(w).is_err(), expected_conflict);
    }

    /// Releasing every owner empties the set.
    #[test]
    fn release_all_owners_empties(
        reservations in prop::collection::vec((arb_vt(), 1u64..20), 0..20),
    ) {
        let mut rs = ReservationSet::new();
        let mut owners = Vec::new();
        for (lo, span) in &reservations {
            let hi = VirtualTime::new(lo.lamport + span, lo.site);
            rs.reserve(*lo, hi, hi);
            owners.push(hi);
        }
        for o in owners {
            rs.release(o);
        }
        prop_assert!(rs.is_empty());
    }

    /// Lamport clocks: issued VTs are strictly increasing and dominate
    /// everything witnessed.
    #[test]
    fn clock_monotonicity(witnessed in prop::collection::vec(arb_vt(), 0..30)) {
        let mut clock = LamportClock::new(SiteId(7));
        let mut last = VirtualTime::ZERO;
        for w in witnessed {
            clock.witness(w);
            let t = clock.next();
            prop_assert!(t > last);
            prop_assert!(t.lamport > w.lamport);
            last = t;
        }
    }
}
