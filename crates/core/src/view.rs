//! View objects and view notification (paper §2.5, §4).
//!
//! A **view object** is user code attached to one or more (always local)
//! model objects. When an attached object changes, the infrastructure calls
//! the view's [`update`](View::update) method with a consistent
//! **state snapshot** — "guaranteed by the infrastructure to be atomic
//! actions, behaving as if they are instantaneous with respect to update
//! transactions" (§2.5).
//!
//! * **Optimistic views** are notified as soon as a transaction executes
//!   locally — possibly before it commits — and receive a
//!   [`commit`](View::commit) call once the latest notified snapshot proves
//!   committed. They trade accuracy for responsiveness (§2.5.1).
//! * **Pessimistic views** are notified only of committed values, losslessly
//!   and in monotonic VT order (§4.2).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use decaf_vt::{SiteId, VirtualTime};

use crate::collab::RelationInfo;
use crate::error::DecafError;
use crate::object::{ObjectName, ObjectValue};
use crate::store::Store;
use crate::txn::Transaction;
use crate::value::ScalarValue;

/// Identifier of an attached view within its site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ViewId(pub(crate) u64);

impl fmt::Display for ViewId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "V{}", self.0)
    }
}

/// Whether a view observes updates optimistically or pessimistically
/// (§2.5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViewMode {
    /// Notified immediately on local execution; may observe uncommitted
    /// state; lossy; `commit()` fires when the latest snapshot commits.
    Optimistic,
    /// Notified only of committed updates, losslessly, in monotonic order.
    Pessimistic,
}

/// A user-defined view object.
///
/// # Example
///
/// The paper's `BalanceView` (Fig. 3), showing a balance in red while the
/// value is tentative and black once committed:
///
/// ```
/// use decaf_core::{ObjectName, UpdateNotification, View};
///
/// struct BalanceView {
///     balance: ObjectName,
///     color: &'static str,
///     shown: f64,
/// }
///
/// impl View for BalanceView {
///     fn update(&mut self, n: &UpdateNotification<'_>) {
///         self.color = "red"; // tentative
///         if let Ok(v) = n.read_real(self.balance) {
///             self.shown = v;
///         }
///     }
///     fn commit(&mut self) {
///         self.color = "black"; // the last shown value committed
///     }
/// }
/// ```
pub trait View: Send + 'static {
    /// Called with a consistent snapshot whenever attached model objects
    /// change. `n` lists exactly the objects "that have changed value since
    /// the last notification" (§2.5) and provides snapshot reads.
    fn update(&mut self, n: &UpdateNotification<'_>);

    /// For optimistic views: "called whenever its most recent update
    /// notification is known to have been from a committed state" (§2.5.1).
    /// Pessimistic views never receive this call (every update they see is
    /// already committed).
    fn commit(&mut self) {}
}

/// The notification passed to [`View::update`]: the changed-object list
/// plus snapshot read access at the snapshot's virtual time.
pub struct UpdateNotification<'a> {
    pub(crate) ts: VirtualTime,
    pub(crate) changed: &'a [ObjectName],
    pub(crate) store: &'a Store,
    pub(crate) spawned: std::cell::RefCell<Vec<Box<dyn Transaction>>>,
}

impl fmt::Debug for UpdateNotification<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UpdateNotification")
            .field("ts", &self.ts)
            .field("changed", &self.changed)
            .finish()
    }
}

impl<'a> UpdateNotification<'a> {
    /// The objects that changed since this view's last notification.
    pub(crate) fn changed(&self) -> &[ObjectName] {
        self.changed
    }

    /// Initiates a new transaction from within the update method ("the
    /// update method may initiate new transactions", §2.5); it runs after
    /// the notification returns.
    pub fn initiate(&self, txn: Box<dyn Transaction>) {
        self.spawned.borrow_mut().push(txn);
    }

    fn value_at(&self, object: ObjectName) -> Result<&ObjectValue, DecafError> {
        let obj = self.store.get(object)?;
        obj.values
            .value_at(self.ts)
            .map(|e| &e.value)
            .ok_or(DecafError::Uninitialized(object))
    }

    /// Snapshot-reads an integer model object.
    ///
    /// # Errors
    ///
    /// Fails if the object is missing or of the wrong kind.
    pub fn read_int(&self, object: ObjectName) -> Result<i64, DecafError> {
        self.value_at(object)?
            .as_scalar()
            .and_then(ScalarValue::as_int)
            .ok_or(DecafError::KindMismatch {
                object,
                expected: "int",
            })
    }

    /// Snapshot-reads a real model object.
    ///
    /// # Errors
    ///
    /// Fails if the object is missing or of the wrong kind.
    pub fn read_real(&self, object: ObjectName) -> Result<f64, DecafError> {
        self.value_at(object)?
            .as_scalar()
            .and_then(ScalarValue::as_real)
            .ok_or(DecafError::KindMismatch {
                object,
                expected: "real",
            })
    }

    /// Snapshot-reads a string model object.
    ///
    /// # Errors
    ///
    /// Fails if the object is missing or of the wrong kind.
    pub fn read_str(&self, object: ObjectName) -> Result<String, DecafError> {
        self.value_at(object)?
            .as_scalar()
            .and_then(|s| s.as_str().map(str::to_owned))
            .ok_or(DecafError::KindMismatch {
                object,
                expected: "string",
            })
    }

    /// Snapshot-reads a list's children.
    ///
    /// # Errors
    ///
    /// Fails if the object is missing or not a list.
    pub fn read_list(&self, object: ObjectName) -> Result<Vec<ObjectName>, DecafError> {
        match self.value_at(object)? {
            ObjectValue::List { entries, .. } => Ok(entries.iter().map(|e| e.child).collect()),
            _ => Err(DecafError::KindMismatch {
                object,
                expected: "list",
            }),
        }
    }

    /// Snapshot-reads a tuple's keyed children.
    ///
    /// # Errors
    ///
    /// Fails if the object is missing or not a tuple.
    pub fn read_tuple(&self, object: ObjectName) -> Result<Vec<(String, ObjectName)>, DecafError> {
        match self.value_at(object)? {
            ObjectValue::Tuple { entries, .. } => {
                Ok(entries.iter().map(|(k, v)| (k.clone(), *v)).collect())
            }
            _ => Err(DecafError::KindMismatch {
                object,
                expected: "tuple",
            }),
        }
    }

    /// Snapshot-reads an association object's relationships.
    ///
    /// # Errors
    ///
    /// Fails if the object is missing or not an association.
    pub fn read_assoc(&self, object: ObjectName) -> Result<Vec<RelationInfo>, DecafError> {
        match self.value_at(object)? {
            ObjectValue::Assoc(state) => Ok(state
                .iter()
                .map(|(id, rel)| RelationInfo {
                    id: *id,
                    members: rel.members.iter().copied().collect(),
                    description: rel.description.clone(),
                })
                .collect()),
            _ => Err(DecafError::KindMismatch {
                object,
                expected: "association",
            }),
        }
    }
}

/// Snapshot reader re-exported name; see [`UpdateNotification`].
///
/// The update notification *is* the snapshot reader in this implementation;
/// the alias exists so signatures can say what they mean.
pub type SnapshotReader<'a> = UpdateNotification<'a>;

// ---------------------------------------------------------------------------
// Internal proxy state (driven by the engine)
// ---------------------------------------------------------------------------

/// An in-flight snapshot's guess bookkeeping.
#[derive(Debug, Clone, Default)]
pub(crate) struct SnapGuesses {
    /// Uncommitted transactions whose values the snapshot read (RC).
    pub rc_waits: BTreeSet<VirtualTime>,
    /// Primary sites whose RL confirmation is outstanding.
    pub outstanding: BTreeSet<SiteId>,
    /// Set when a primary denied an interval; cleared on revision.
    pub denied: bool,
}

impl SnapGuesses {
    pub(crate) fn settled(&self) -> bool {
        !self.denied && self.rc_waits.is_empty() && self.outstanding.is_empty()
    }
}

/// The single uncommitted snapshot an optimistic proxy maintains (§4.1:
/// "an optimistic view proxy maintains at most one uncommitted snapshot —
/// the one with the latest tS").
#[derive(Debug, Clone)]
pub(crate) struct OptSnap {
    /// Snapshot VT: greatest VT of the current values of attached objects.
    pub ts: VirtualTime,
    /// Unique VT identifying this snapshot for reply routing (its
    /// reservations have no owner: `ReservationSet::reserve_read`).
    pub token: VirtualTime,
    pub guesses: SnapGuesses,
}

/// One pending snapshot of a pessimistic proxy (§4.2 keeps "a list of
/// snapshot objects sorted by VT").
#[derive(Debug, Clone)]
pub(crate) struct PessSnap {
    /// Unique VT for reply routing.
    pub token: VirtualTime,
    /// Attached objects updated at `ts` (the notification's changed list).
    pub changed: BTreeSet<ObjectName>,
    /// Whether the updating transaction at `ts` has committed.
    pub committed: bool,
    pub guesses: SnapGuesses,
    /// Per updated object, the `tR` its update carried: the transaction's
    /// own confirmed RL reservation covers `(tR, ts)`, so the snapshot's
    /// monotonicity guess only needs `(lo, tR)` (§5.1.2's "confirmations
    /// proceed concurrently" shortcut).
    pub coverage: BTreeMap<ObjectName, VirtualTime>,
    /// The `(object, lo, hi)` intervals the current guesses were issued
    /// for; a denied snapshot re-issues as soon as local commits shrink an
    /// interval (progress guarantee for guess revision, §4.2).
    pub issued: Vec<(ObjectName, VirtualTime, VirtualTime)>,
}

/// Per-view bookkeeping held by the site engine.
pub(crate) struct ViewProxy {
    pub id: ViewId,
    pub mode: ViewMode,
    pub attached: BTreeSet<ObjectName>,
    pub view: Box<dyn View>,
    /// VT of each attached object's value at the last delivered
    /// notification, for computing the changed list.
    pub last_seen: BTreeMap<ObjectName, VirtualTime>,
    /// Optimistic: the one uncommitted snapshot.
    pub opt: Option<OptSnap>,
    /// Optimistic: ts of the last delivered update notification.
    pub last_notified_ts: Option<VirtualTime>,
    /// Pessimistic: pending snapshots by VT.
    pub pess: BTreeMap<VirtualTime, PessSnap>,
    /// Pessimistic: "a field lastNotifiedVT, which is the VT of the last
    /// update notification" (§4.2).
    pub last_notified_vt: VirtualTime,
    /// Attachment points with changes not yet notified (drives the changed
    /// list of the next optimistic notification).
    pub dirty: BTreeSet<ObjectName>,
    /// Max VT among pending triggering updates (lower bound for the next
    /// optimistic snapshot's ts).
    pub pending_ts: VirtualTime,
    /// `(object, value VT)` pairs shown by the last delivered optimistic
    /// notification, for update-inconsistency accounting (§5.1.2). While
    /// `opt` is held they are that snapshot's reads: both are set together.
    pub last_delivered_reads: Vec<(ObjectName, VirtualTime)>,
    /// Notification ledger for the model-checking oracles; populated only
    /// when [`SiteConfig::view_ledger`](crate::SiteConfig) is set.
    pub ledger: Vec<crate::oracle::ViewLedgerEntry>,
}

impl fmt::Debug for ViewProxy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ViewProxy")
            .field("id", &self.id)
            .field("mode", &self.mode)
            .field("attached", &self.attached)
            .finish()
    }
}

impl ViewProxy {
    pub(crate) fn new(
        id: ViewId,
        mode: ViewMode,
        attached: BTreeSet<ObjectName>,
        view: Box<dyn View>,
    ) -> Self {
        ViewProxy {
            id,
            mode,
            attached,
            view,
            last_seen: BTreeMap::new(),
            opt: None,
            last_notified_ts: None,
            pess: BTreeMap::new(),
            last_notified_vt: VirtualTime::ZERO,
            dirty: BTreeSet::new(),
            pending_ts: VirtualTime::ZERO,
            last_delivered_reads: Vec::new(),
            ledger: Vec::new(),
        }
    }
}

// ---------------------------------------------------------------------------
// A ready-made recording view for tests, examples, and benchmarks
// ---------------------------------------------------------------------------

/// An event captured by a [`RecordingView`].
#[derive(Debug, Clone, PartialEq)]
pub enum ViewEvent {
    /// An update notification, with the changed objects and the snapshot
    /// values of all watched scalars.
    Update {
        /// The changed-object list.
        changed: Vec<ObjectName>,
        /// `(object, value)` for each watched object readable as a scalar.
        values: Vec<(ObjectName, ScalarValue)>,
    },
    /// A commit notification.
    Commit,
}

/// A [`View`] that records every notification, for assertions in tests and
/// statistics in benchmarks.
///
/// # Example
///
/// ```
/// use decaf_core::{RecordingView, ViewEvent};
///
/// let view = RecordingView::new(vec![]);
/// let log = view.log();
/// // ... attach to a site, run transactions ...
/// assert!(log.lock().unwrap().is_empty());
/// ```
#[derive(Debug)]
pub struct RecordingView {
    watch: Vec<ObjectName>,
    log: std::sync::Arc<std::sync::Mutex<Vec<ViewEvent>>>,
}

impl RecordingView {
    /// Creates a view that snapshot-reads `watch` scalars on each update.
    pub fn new(watch: Vec<ObjectName>) -> Self {
        RecordingView {
            watch,
            log: Default::default(),
        }
    }

    /// Shared handle to the captured event log.
    pub fn log(&self) -> std::sync::Arc<std::sync::Mutex<Vec<ViewEvent>>> {
        std::sync::Arc::clone(&self.log)
    }
}

impl View for RecordingView {
    fn update(&mut self, n: &UpdateNotification<'_>) {
        let values = self
            .watch
            .iter()
            .filter_map(|&o| {
                let v = n
                    .read_int(o)
                    .map(ScalarValue::Int)
                    .or_else(|_| n.read_real(o).map(ScalarValue::Real))
                    .or_else(|_| n.read_str(o).map(ScalarValue::Str))
                    .ok()?;
                Some((o, v))
            })
            .collect();
        self.log
            .lock()
            .expect("view log poisoned")
            .push(ViewEvent::Update {
                changed: n.changed().to_vec(),
                values,
            });
    }

    fn commit(&mut self) {
        self.log
            .lock()
            .expect("view log poisoned")
            .push(ViewEvent::Commit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_id_display() {
        assert_eq!(ViewId(3).to_string(), "V3");
    }

    #[test]
    fn snap_guesses_settled_logic() {
        let mut g = SnapGuesses::default();
        assert!(g.settled());
        g.outstanding.insert(SiteId(1));
        assert!(!g.settled());
        g.outstanding.clear();
        g.rc_waits.insert(VirtualTime::new(5, SiteId(1)));
        assert!(!g.settled());
        g.rc_waits.clear();
        g.denied = true;
        assert!(!g.settled());
    }

    #[test]
    fn recording_view_collects_events() {
        let mut v = RecordingView::new(vec![]);
        let log = v.log();
        v.commit();
        assert_eq!(log.lock().unwrap().as_slice(), &[ViewEvent::Commit]);
    }
}
