//! An **ORESTE-style** operation-based replication baseline (Karsenty &
//! Beaudouin-Lafon, ICDCS '93), built to reproduce the DECAF paper's
//! related-work critique (§6):
//!
//! 1. "Programmers define high-level operations and specify their
//!    commutativity and masking relations" — here via the
//!    [`OpSpec`] table.
//! 2. Correctness "only considers quiescent state": commuting operations
//!    applied in different orders converge *eventually*, but "once views or
//!    read-only transactions or system state in nonquiescent conditions is
//!    taken into account, some sites might see a transition in which a blue
//!    object was at A and others a transition in which a red object was at
//!    B" — the `transient_views_disagree_across_sites` test reproduces
//!    exactly the paper's color/move example.
//! 3. "A state cannot be committed to an external view until it is known
//!    that there is no straggler; this involves a global sweep" — stability
//!    here requires hearing from *every* site ([`OresteSite::stable_len`]),
//!    the same network-wide dependence the `e5` experiment measures for
//!    GVT.
//!
//! Operations carry unique virtual times. A receiver integrates a remote
//! operation in timestamp order: if every later-applied operation commutes
//! with it, it is applied "late" in place; otherwise the non-commuting
//! suffix is undone and replayed (undo/redo integration). Masked
//! operations — e.g. a `SetColor` masked by a later `Delete` — become
//! no-ops.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;

use decaf_vt::{LamportClock, SiteId, VirtualTime};

/// A high-level ORESTE operation on one named object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Change the object's color.
    SetColor(String),
    /// Move the object to a container.
    MoveTo(String),
    /// Append to the object's label (order-sensitive: two appends neither
    /// commute nor mask).
    AppendLabel(String),
    /// Delete the object (masks everything before it).
    Delete,
}

impl Op {
    fn kind(&self) -> OpKind {
        match self {
            Op::SetColor(_) => OpKind::SetColor,
            Op::MoveTo(_) => OpKind::MoveTo,
            Op::AppendLabel(_) => OpKind::AppendLabel,
            Op::Delete => OpKind::Delete,
        }
    }
}

/// Operation kinds, the domain of the commutativity/masking table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Color changes.
    SetColor,
    /// Container moves.
    MoveTo,
    /// Label appends.
    AppendLabel,
    /// Deletion.
    Delete,
}

/// The programmer-specified relations between operation kinds (§6: "The
/// ORESTE implementation provides a useful model in which programmers
/// define high-level operations and specify their commutativity and
/// masking relations").
#[derive(Debug, Clone)]
pub struct OpSpec;

impl OpSpec {
    /// Whether two operation kinds commute (their application order does
    /// not change the final state).
    pub fn commutes(a: OpKind, b: OpKind) -> bool {
        match (a, b) {
            // Independent attributes commute.
            (OpKind::SetColor, OpKind::MoveTo) | (OpKind::MoveTo, OpKind::SetColor) => true,
            (OpKind::AppendLabel, OpKind::SetColor)
            | (OpKind::SetColor, OpKind::AppendLabel)
            | (OpKind::AppendLabel, OpKind::MoveTo)
            | (OpKind::MoveTo, OpKind::AppendLabel) => true,
            // Two writes to the same attribute do not commute.
            (OpKind::SetColor, OpKind::SetColor)
            | (OpKind::MoveTo, OpKind::MoveTo)
            | (OpKind::AppendLabel, OpKind::AppendLabel) => false,
            // Nothing commutes with deletion.
            (OpKind::Delete, _) | (_, OpKind::Delete) => false,
        }
    }

    /// Whether a later operation of kind `later` masks an earlier `earlier`
    /// (makes its effect unobservable), so a straggling `earlier` can be
    /// dropped.
    pub fn masks(later: OpKind, earlier: OpKind) -> bool {
        // Appends are order-sensitive but never masked (both effects stay
        // visible): the pair that forces ORESTE's undo/redo integration.
        matches!(
            (later, earlier),
            (OpKind::Delete, _)
                | (OpKind::SetColor, OpKind::SetColor)
                | (OpKind::MoveTo, OpKind::MoveTo)
        )
    }
}

/// The replicated object's state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectState {
    /// Current color.
    pub color: String,
    /// Current container.
    pub container: String,
    /// Accumulated label.
    pub label: String,
    /// Whether the object was deleted.
    pub deleted: bool,
}

impl ObjectState {
    /// Observable equivalence: deleted objects are indistinguishable
    /// regardless of their masked attributes.
    pub fn observably_eq(&self, other: &ObjectState) -> bool {
        if self.deleted && other.deleted {
            return true;
        }
        self == other
    }
}

impl Default for ObjectState {
    fn default() -> Self {
        ObjectState {
            color: "red".into(),
            container: "A".into(),
            label: String::new(),
            deleted: false,
        }
    }
}

impl fmt::Display for ObjectState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.deleted {
            write!(f, "(deleted)")
        } else {
            write!(f, "{} object at {}", self.color, self.container)
        }
    }
}

fn apply(state: &mut ObjectState, op: &Op) {
    match op {
        Op::SetColor(c) => state.color = c.clone(),
        Op::MoveTo(t) => state.container = t.clone(),
        Op::AppendLabel(l) => state.label.push_str(l),
        Op::Delete => state.deleted = true,
    }
}

/// A timestamped operation in flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StampedOp {
    /// Unique virtual time (total order).
    pub vt: VirtualTime,
    /// The operation.
    pub op: Op,
}

/// One ORESTE replica.
///
/// # Example
///
/// ```
/// use decaf_oreste::{Op, OresteSite};
/// use decaf_vt::SiteId;
///
/// let mut a = OresteSite::new(SiteId(1), 2);
/// let mut b = OresteSite::new(SiteId(2), 2);
/// let op_color = a.perform(Op::SetColor("blue".into()));
/// let op_move = b.perform(Op::MoveTo("B".into()));
/// // Cross-deliver: color/move commute, so both replicas converge without
/// // reordering.
/// b.integrate(op_color);
/// a.integrate(op_move);
/// assert_eq!(a.state(), b.state());
/// ```
#[derive(Debug)]
pub struct OresteSite {
    id: SiteId,
    clock: LamportClock,
    /// Applied operations in application order (not necessarily VT order).
    applied: Vec<StampedOp>,
    state: ObjectState,
    /// Transition log for view-observation tests: every state the local
    /// "view" observed, in observation order.
    pub observed: Vec<ObjectState>,
    /// Highest VT heard from each site (self included), for stability.
    heard: BTreeMap<SiteId, u64>,
    total_sites: usize,
    /// How many times integration had to undo/redo (non-commuting
    /// stragglers).
    pub reorders: u64,
}

impl OresteSite {
    /// Creates a replica in a collaboration of `total_sites` sites.
    pub fn new(id: SiteId, total_sites: usize) -> Self {
        let state = ObjectState::default();
        OresteSite {
            id,
            clock: LamportClock::new(id),
            applied: Vec::new(),
            observed: vec![state.clone()],
            state,
            heard: BTreeMap::new(),
            total_sites,
            reorders: 0,
        }
    }

    /// This replica's site id.
    pub fn id(&self) -> SiteId {
        self.id
    }

    /// The current (possibly transient) state — what an ORESTE view shows
    /// immediately.
    pub fn state(&self) -> &ObjectState {
        &self.state
    }

    /// Performs a local operation, observing the new state immediately, and
    /// returns the stamped op to broadcast.
    pub fn perform(&mut self, op: Op) -> StampedOp {
        let vt = self.clock.next();
        self.heard.insert(self.id, vt.lamport);
        let stamped = StampedOp { vt, op };
        self.apply_in_order(stamped.clone());
        stamped
    }

    /// Integrates a remote operation.
    pub fn integrate(&mut self, op: StampedOp) {
        self.clock.witness(op.vt);
        let e = self.heard.entry(op.vt.site).or_insert(0);
        *e = (*e).max(op.vt.lamport);
        if self.applied.iter().any(|a| a.vt == op.vt) {
            return; // duplicate delivery
        }
        // Masking: a straggler wholly masked by a later applied operation
        // can be recorded as a no-op.
        let masked = self
            .applied
            .iter()
            .any(|a| a.vt > op.vt && OpSpec::masks(a.op.kind(), op.op.kind()));
        if masked {
            // Record for ordering/stability purposes, without state change.
            let pos = self.applied.partition_point(|a| a.vt < op.vt);
            self.applied.insert(pos, op);
            return;
        }
        self.apply_in_order(op);
    }

    fn apply_in_order(&mut self, op: StampedOp) {
        // Operations applied after op.vt that do NOT commute with op force
        // an undo/redo; commuting suffixes allow in-place application.
        let suffix_start = self.applied.partition_point(|a| a.vt < op.vt);
        let commutes_with_suffix = self.applied[suffix_start..]
            .iter()
            .all(|a| OpSpec::commutes(a.op.kind(), op.op.kind()));
        if commutes_with_suffix {
            apply(&mut self.state, &op.op);
            self.applied.insert(suffix_start, op);
            self.observed.push(self.state.clone());
            return;
        }
        // Undo/redo: rebuild from scratch in VT order (simple and correct;
        // real ORESTE uses transposition, the observable effect is the
        // same).
        self.reorders += 1;
        self.applied.insert(suffix_start, op);
        let mut state = ObjectState::default();
        for a in &self.applied {
            apply(&mut state, &a.op);
        }
        self.state = state;
        self.observed.push(self.state.clone());
    }

    /// How many applied operations are *stable* — known to precede any
    /// possible straggler, i.e. below the minimum VT heard from **every**
    /// site. This is the paper's criticism: commit-to-view "involves a
    /// global sweep analogous to Jefferson's Global Virtual Time algorithm"
    /// (§6) — a single silent site anywhere in the network blocks
    /// stability.
    pub fn stable_len(&self) -> usize {
        if self.heard.len() < self.total_sites {
            return 0; // some site never heard from: nothing is stable
        }
        let min_heard = self.heard.values().copied().min().unwrap_or(0);
        self.applied.partition_point(|a| a.vt.lamport <= min_heard)
    }

    /// The applied operations, in application order.
    pub fn ops(&self) -> &[StampedOp] {
        &self.applied
    }
}

impl OresteSite {
    /// Test helper: advances the local clock.
    #[doc(hidden)]
    pub fn clock_sync_for_test(&mut self, to: u64) {
        self.clock.witness(VirtualTime::new(to, SiteId(u32::MAX)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's §6 example: "starting with a red object at A and
    /// applying both 'change to blue' and 'move to B' yields a blue object
    /// at B, regardless of the order in which the operations are applied."
    #[test]
    fn commuting_ops_converge_in_any_order() {
        let mut a = OresteSite::new(SiteId(1), 2);
        let mut b = OresteSite::new(SiteId(2), 2);
        let color = a.perform(Op::SetColor("blue".into()));
        let mv = b.perform(Op::MoveTo("B".into()));
        b.integrate(color);
        a.integrate(mv);
        assert_eq!(a.state(), b.state());
        assert_eq!(a.state().color, "blue");
        assert_eq!(a.state().container, "B");
        assert_eq!(a.reorders + b.reorders, 0, "commuting: no undo/redo");
    }

    /// The paper's §6 critique, verbatim: "some sites might see a
    /// transition in which a blue object was at A and others a transition
    /// in which a red object was at B."
    #[test]
    fn transient_views_disagree_across_sites() {
        let mut a = OresteSite::new(SiteId(1), 2);
        let mut b = OresteSite::new(SiteId(2), 2);
        let color = a.perform(Op::SetColor("blue".into())); // a sees blue@A
        let mv = b.perform(Op::MoveTo("B".into())); // b sees red@B
        b.integrate(color);
        a.integrate(mv);

        let a_saw_blue_at_a = a
            .observed
            .iter()
            .any(|s| s.color == "blue" && s.container == "A");
        let b_saw_red_at_b = b
            .observed
            .iter()
            .any(|s| s.color == "red" && s.container == "B");
        assert!(a_saw_blue_at_a, "site A's view saw the blue@A transition");
        assert!(b_saw_red_at_b, "site B's view saw the red@B transition");
        // The transitions are mutually exclusive in any serial execution:
        // the two sites observed incompatible histories even though the
        // final states agree. DECAF's snapshot machinery forbids exactly
        // this (its pessimistic views are monotonic over ONE serial order).
        assert!(
            !b.observed
                .iter()
                .any(|s| s.color == "blue" && s.container == "A"),
            "site B never saw site A's intermediate state"
        );
    }

    #[test]
    fn same_attribute_straggler_is_masked_without_reorder() {
        let mut a = OresteSite::new(SiteId(1), 2);
        let mut b = OresteSite::new(SiteId(2), 2);
        let c1 = a.perform(Op::SetColor("blue".into())); // vt 1@S1
        let c2 = b.perform(Op::SetColor("green".into())); // vt 1@S2 > 1@S1
        b.integrate(c1); // straggler below green: masked, no undo/redo
        a.integrate(c2);
        assert_eq!(a.state(), b.state());
        assert_eq!(a.state().color, "green", "higher VT wins both places");
        assert_eq!(b.reorders, 0, "masking absorbs the straggler");
    }

    #[test]
    fn order_sensitive_straggler_forces_undo_redo() {
        // Appends neither commute nor mask: the straggler must be
        // integrated by undoing and replaying in timestamp order.
        let mut a = OresteSite::new(SiteId(1), 2);
        let mut b = OresteSite::new(SiteId(2), 2);
        let l1 = a.perform(Op::AppendLabel("x".into())); // vt 1@S1
        let l2 = b.perform(Op::AppendLabel("y".into())); // vt 1@S2
        b.integrate(l1); // straggler below y
        a.integrate(l2);
        assert_eq!(a.state(), b.state());
        assert_eq!(a.state().label, "xy", "timestamp order everywhere");
        assert!(b.reorders >= 1, "b had to undo/redo the straggler");
        assert_eq!(a.reorders, 0, "a applied in order");
    }

    #[test]
    fn masked_straggler_is_dropped() {
        let mut a = OresteSite::new(SiteId(1), 2);
        let mut b = OresteSite::new(SiteId(2), 2);
        let color = a.perform(Op::SetColor("blue".into())); // vt 1@S1
        b.clock_sync_for_test(5);
        let del = b.perform(Op::Delete); // vt 6@S2
        b.integrate(color); // masked by the delete
        a.integrate(del);
        assert!(
            a.state().observably_eq(b.state()),
            "deleted objects are observably identical"
        );
        assert!(b.state().deleted);
        assert_eq!(b.reorders, 0, "masked op needs no reordering");
    }

    /// §6: stability (commit-to-view) needs to hear from everyone — one
    /// silent site blocks it network-wide.
    #[test]
    fn stability_requires_hearing_from_every_site() {
        let mut a = OresteSite::new(SiteId(1), 3); // three-site network
        let mut b = OresteSite::new(SiteId(2), 3);
        let op = a.perform(Op::SetColor("blue".into()));
        b.integrate(op.clone());
        // Site 3 has said nothing: nothing is stable anywhere.
        assert_eq!(a.stable_len(), 0);
        assert_eq!(b.stable_len(), 0);
        // Once EVERY site has spoken, stability advances.
        let mut c = OresteSite::new(SiteId(3), 3);
        c.integrate(op);
        let c_op = c.perform(Op::MoveTo("B".into()));
        let b_op = b.perform(Op::AppendLabel("!".into()));
        a.integrate(c_op.clone());
        a.integrate(b_op.clone());
        b.integrate(c_op);
        c.integrate(b_op);
        assert!(a.stable_len() >= 1, "heard from all: early ops stable");
    }

    #[test]
    fn convergence_under_many_interleavings() {
        // All permutations of four ops delivered to fresh replicas end in
        // the same state.
        let mut gen = OresteSite::new(SiteId(9), 1);
        let ops = vec![
            gen.perform(Op::SetColor("blue".into())),
            gen.perform(Op::MoveTo("B".into())),
            gen.perform(Op::SetColor("green".into())),
            gen.perform(Op::MoveTo("C".into())),
        ];
        let reference = {
            let mut s = OresteSite::new(SiteId(1), 1);
            for o in &ops {
                s.integrate(o.clone());
            }
            s.state().clone()
        };
        // A few representative permutations.
        let perms: Vec<Vec<usize>> = vec![
            vec![0, 1, 2, 3],
            vec![3, 2, 1, 0],
            vec![2, 0, 3, 1],
            vec![1, 3, 0, 2],
        ];
        for p in perms {
            let mut s = OresteSite::new(SiteId(2), 1);
            for &i in &p {
                s.integrate(ops[i].clone());
            }
            assert_eq!(s.state(), &reference, "order {p:?} diverged");
        }
    }
}
