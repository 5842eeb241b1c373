//! Oracle accessor surface for deterministic model checking.
//!
//! The `decaf-check` subsystem drives N sites over the simulated network
//! and, after every step and again at quiescence, asks each [`Site`] for
//! evidence that the paper's guarantees actually held on the explored
//! schedule:
//!
//! * [`Site::committed_digest`] — an order-independent structural hash of
//!   an object's latest **committed** value, for the committed-store
//!   convergence oracle (§3: every replica must agree once quiescent);
//! * [`Site::view_ledger`] — the per-view notification ledger (recorded
//!   only when [`SiteConfig::view_ledger`](crate::SiteConfig) is set), for
//!   the pessimistic losslessness / VT-monotonicity oracles and the
//!   optimistic superseded-or-committed oracle (§4);
//! * [`Site::gc_watermark`] — the low-water mark the most recent GC sweep
//!   actually used, together with the smallest pessimistic-view frontier
//!   that existed at that moment, for the "GC never collects history a
//!   straggler view still needs" oracle.
//!
//! [`TestMutation`] is the seeded-bug hook: a deliberately wrong variant
//! of the protocol that the checker must be able to catch, proving the
//! oracles have teeth.

use decaf_vt::VirtualTime;

use crate::engine::Site;
use crate::object::{ObjectName, ObjectValue};
use crate::value::ScalarValue;
use crate::view::{ViewId, ViewMode};

/// Digest of one object's latest committed value, as captured by
/// [`Site::committed_digest`].
///
/// Two replicas of the same logical object must produce equal digests at
/// quiescence even though their local [`ObjectName`]s differ: the hash
/// recurses into composite children *structurally* (by embedding tag and
/// child value) rather than by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommittedDigest {
    /// VT of the latest committed history entry.
    pub vt: VirtualTime,
    /// FNV-1a hash of the committed value (recursive for composites).
    pub hash: u64,
}

/// What kind of notification a [`ViewLedgerEntry`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewLedgerKind {
    /// An update notification delivered in the given mode.
    Update(ViewMode),
    /// A commit notification (optimistic views only; pessimistic
    /// notifications are committed by construction).
    Commit,
}

/// One recorded view-notification delivery.
///
/// Recorded only when the site was built with
/// [`SiteConfig::view_ledger`](crate::SiteConfig) set — the ledger grows
/// with every notification and exists purely for checker oracles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViewLedgerEntry {
    /// The notification's snapshot VT (`tS` in §4).
    pub ts: VirtualTime,
    /// Update or commit, and in which mode.
    pub kind: ViewLedgerKind,
}

/// The most recent GC sweep's bookkeeping, from [`Site::gc_watermark`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcWatermark {
    /// The low-water mark the sweep collected below.
    pub low: VirtualTime,
    /// The smallest `lastNotifiedVT` over pessimistic view proxies **at
    /// the moment of the sweep** (`None` if no pessimistic views were
    /// attached). Computed independently of `low`, so the checker's
    /// `low <= pess_frontier` oracle genuinely cross-checks the sweep.
    pub pess_frontier: Option<VirtualTime>,
    /// History entries the sweep discarded.
    pub discarded: u64,
}

/// A deliberately seeded protocol bug, injected with
/// [`Site::inject_test_mutation`] so `decaf-check` can prove its oracles
/// detect real violations. Always compiled (the checker lives in another
/// crate, so `#[cfg(test)]` would not be visible to it), but hidden from
/// the public API surface.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum TestMutation {
    /// Drop the commit notice delivered to pessimistic view proxies: the
    /// snapshot for a committed update never becomes deliverable, so the
    /// view silently loses committed updates (violates §4.2
    /// losslessness).
    DropPessCommitNotice,
    /// Skip the optimistic-snapshot rerun after a rollback: the view keeps
    /// showing rolled-back state forever (violates §4.1
    /// superseded-or-committed).
    SkipRollbackRenotify,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn mix(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

fn mix_u64(h: &mut u64, v: u64) {
    mix(h, &v.to_le_bytes());
}

fn mix_vt(h: &mut u64, vt: VirtualTime) {
    mix_u64(h, vt.lamport);
    mix_u64(h, u64::from(vt.site.0));
}

impl Site {
    /// Structural digest of `object`'s latest committed value, or `None`
    /// if the object is unknown or has no committed entry yet.
    pub fn committed_digest(&self, object: ObjectName) -> Option<CommittedDigest> {
        let obj = self.store.get(object).ok()?;
        let entry = obj.values.latest_committed()?;
        let mut h = FNV_OFFSET;
        self.mix_value(&entry.value, &mut h);
        Some(CommittedDigest {
            vt: entry.vt,
            hash: h,
        })
    }

    fn mix_child(&self, child: ObjectName, h: &mut u64) {
        match self
            .store
            .get(child)
            .ok()
            .and_then(|m| m.values.latest_committed())
        {
            Some(e) => {
                mix_vt(h, e.vt);
                self.mix_value(&e.value, h);
            }
            None => mix(h, b"absent"),
        }
    }

    fn mix_value(&self, value: &ObjectValue, h: &mut u64) {
        match value {
            ObjectValue::Scalar(s) => match s {
                ScalarValue::Int(v) => {
                    mix(h, b"i");
                    mix_u64(h, *v as u64);
                }
                ScalarValue::Real(v) => {
                    mix(h, b"r");
                    mix_u64(h, v.to_bits());
                }
                ScalarValue::Str(s) => {
                    mix(h, b"s");
                    mix_u64(h, s.len() as u64);
                    mix(h, s.as_bytes());
                }
            },
            ObjectValue::List { entries, .. } => {
                mix(h, b"L");
                mix_u64(h, entries.len() as u64);
                for e in entries.iter() {
                    mix_vt(h, e.tag);
                    self.mix_child(e.child, h);
                }
            }
            ObjectValue::Tuple { entries, .. } => {
                mix(h, b"T");
                mix_u64(h, entries.len() as u64);
                for (k, child) in entries.iter() {
                    mix_u64(h, k.len() as u64);
                    mix(h, k.as_bytes());
                    self.mix_child(*child, h);
                }
            }
            ObjectValue::Assoc(state) => {
                mix(h, b"A");
                mix_u64(h, state.len() as u64);
                for (rid, rel) in state.iter() {
                    mix_u64(h, rid.0);
                    mix(h, rel.description.as_bytes());
                    mix_u64(h, rel.members.len() as u64);
                    for m in &rel.members {
                        mix_u64(h, u64::from(m.site.0));
                        mix_u64(h, u64::from(m.object.site.0));
                        mix_u64(h, m.object.seq);
                    }
                }
            }
        }
    }

    /// The notification ledger of view `id`, or `None` for an unknown
    /// view. Empty unless the site was configured with
    /// [`SiteConfig::view_ledger`](crate::SiteConfig).
    pub fn view_ledger(&self, id: ViewId) -> Option<Vec<ViewLedgerEntry>> {
        self.views.get(&id).map(|p| p.ledger.clone())
    }

    /// The most recent GC sweep's watermark record, or `None` if no sweep
    /// has run yet.
    pub fn gc_watermark(&self) -> Option<GcWatermark> {
        self.last_gc
    }

    /// Injects a seeded protocol bug (checker self-test only).
    #[doc(hidden)]
    pub fn inject_test_mutation(&mut self, mutation: TestMutation) {
        self.mutation = Some(mutation);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::ViewMode;
    use crate::{RecordingView, Site, Transaction, TxnCtx, TxnError};
    use decaf_vt::SiteId;

    struct SetInt(ObjectName, i64);
    impl Transaction for SetInt {
        fn execute(&mut self, ctx: &mut TxnCtx<'_>) -> Result<(), TxnError> {
            ctx.write_int(self.0, self.1)
        }
    }

    #[test]
    fn digest_tracks_committed_value() {
        let mut site = Site::new(SiteId(1));
        let obj = site.create_int(7);
        let d0 = site.committed_digest(obj).expect("initial commit");
        // Same value at another site hashes equal despite a different name.
        let mut other = Site::new(SiteId(2));
        let obj2 = other.create_int(7);
        assert_eq!(d0.hash, other.committed_digest(obj2).unwrap().hash);
        // A committed write changes the digest.
        site.execute(Box::new(SetInt(obj, 8)));
        let d1 = site.committed_digest(obj).unwrap();
        assert_ne!(d0.hash, d1.hash);
        assert!(d1.vt > d0.vt);
    }

    #[test]
    fn view_ledger_records_deliveries_when_enabled() {
        let config = crate::SiteConfig {
            view_ledger: true,
            ..Default::default()
        };
        let mut site = Site::with_config(SiteId(1), config);
        let obj = site.create_int(0);
        let vid = site.attach_view(
            Box::new(RecordingView::new(vec![obj])),
            &[obj],
            ViewMode::Optimistic,
        );
        site.execute(Box::new(SetInt(obj, 1)));
        let ledger = site.view_ledger(vid).unwrap();
        assert!(
            ledger
                .iter()
                .any(|e| e.kind == ViewLedgerKind::Update(ViewMode::Optimistic)),
            "update recorded: {ledger:?}"
        );
        assert_eq!(
            ledger.last().map(|e| e.kind),
            Some(ViewLedgerKind::Commit),
            "single-site txn settles immediately: {ledger:?}"
        );
        // Ledger stays empty when the flag is off.
        let mut plain = Site::new(SiteId(2));
        let obj2 = plain.create_int(0);
        let vid2 = plain.attach_view(
            Box::new(RecordingView::new(vec![obj2])),
            &[obj2],
            ViewMode::Optimistic,
        );
        plain.execute(Box::new(SetInt(obj2, 1)));
        assert!(plain.view_ledger(vid2).unwrap().is_empty());
    }

    #[test]
    fn drop_pess_commit_notice_mutation_starves_the_view() {
        let config = crate::SiteConfig {
            view_ledger: true,
            ..Default::default()
        };
        let mut site = Site::with_config(SiteId(1), config);
        site.inject_test_mutation(TestMutation::DropPessCommitNotice);
        let obj = site.create_int(0);
        let vid = site.attach_view(
            Box::new(RecordingView::new(vec![obj])),
            &[obj],
            ViewMode::Pessimistic,
        );
        let h = site.execute(Box::new(SetInt(obj, 5)));
        assert_eq!(site.txn_outcome(h), Some(crate::TxnOutcome::Committed));
        assert!(
            site.view_ledger(vid).unwrap().is_empty(),
            "mutated site never delivers the committed update"
        );
    }
}
