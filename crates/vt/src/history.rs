//! VT-indexed value histories.

use std::fmt;

use crate::VirtualTime;

/// One entry of a [`History`]: a value written at a virtual time, plus its
/// commit status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryEntry<T> {
    /// Virtual time of the transaction that wrote this value.
    pub vt: VirtualTime,
    /// The written value.
    pub value: T,
    /// Whether the writing transaction is known to have committed.
    pub committed: bool,
}

/// A value history: "a set of pairs of values and VTs, sorted by VT. The
/// value with the latest VT is called the *current value*" (paper §3).
///
/// Every model object holds one `History` for its values and another for its
/// replication graphs. Histories support:
///
/// * optimistic insertion of (possibly uncommitted, possibly straggling)
///   writes in arbitrary arrival order;
/// * purging an aborted transaction's entry ([`purge`](History::purge));
/// * marking an entry committed ([`mark_committed`](History::mark_committed));
/// * the *read-latest* (RL) check: is an interval write-free?
///   ([`has_write_in`](History::has_write_in));
/// * garbage collection once commits make old values unnecessary "for view
///   snapshots or for rollback after abort" ([`gc`](History::gc)).
///
/// # Example
///
/// ```
/// use decaf_vt::{History, SiteId, VirtualTime};
///
/// let vt = |n| VirtualTime::new(n, SiteId(1));
/// let mut h = History::new();
/// h.insert(vt(60), 2);
/// h.insert(vt(40), 6); // straggler: arrives late, sorts into place
/// assert_eq!(h.current().unwrap().value, 2);
/// assert_eq!(h.value_at(vt(50)).unwrap().value, 6);
/// assert!(h.has_write_in(vt(40), vt(100))); // the write at 60
/// assert!(!h.has_write_in(vt(60), vt(100)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct History<T> {
    // Sorted by `vt`, ascending. Histories are short in practice (GC keeps
    // them near length 1), so a sorted Vec beats a tree map.
    entries: Vec<HistoryEntry<T>>,
}

impl<T> Default for History<T> {
    fn default() -> Self {
        History {
            entries: Vec::new(),
        }
    }
}

impl<T> History<T> {
    /// Creates an empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries currently retained.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the history holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Inserts a value written at `vt`.
    ///
    /// Entries may arrive out of VT order (stragglers); the history keeps
    /// them sorted. Inserting at an already-present VT replaces that entry
    /// (idempotent redelivery) and returns the previous value.
    pub fn insert(&mut self, vt: VirtualTime, value: T) -> Option<T> {
        match self.position(vt) {
            Ok(i) => {
                let old = std::mem::replace(&mut self.entries[i].value, value);
                Some(old)
            }
            Err(i) => {
                self.entries.insert(
                    i,
                    HistoryEntry {
                        vt,
                        value,
                        committed: false,
                    },
                );
                None
            }
        }
    }

    /// Inserts a value written at `vt` that is already known committed.
    pub fn insert_committed(&mut self, vt: VirtualTime, value: T) {
        self.insert(vt, value);
        self.mark_committed(vt);
    }

    /// The entry with the latest VT (the paper's *current value*), if any.
    pub fn current(&self) -> Option<&HistoryEntry<T>> {
        self.entries.last()
    }

    /// The latest entry at or before `vt`, if any: the value a transaction
    /// executing at virtual time `vt` reads.
    pub fn value_at(&self, vt: VirtualTime) -> Option<&HistoryEntry<T>> {
        match self.position(vt) {
            Ok(i) => Some(&self.entries[i]),
            Err(0) => None,
            Err(i) => Some(&self.entries[i - 1]),
        }
    }

    /// The latest *committed* entry, if any.
    pub fn latest_committed(&self) -> Option<&HistoryEntry<T>> {
        self.entries.iter().rev().find(|e| e.committed)
    }

    /// The latest committed entry at or before `vt`, if any.
    pub fn committed_at(&self, vt: VirtualTime) -> Option<&HistoryEntry<T>> {
        self.entries
            .iter()
            .rev()
            .find(|e| e.committed && e.vt <= vt)
    }

    /// The latest committed entry *strictly* before `vt`, if any — the
    /// lower bound of a pessimistic snapshot's monotonicity guess (the
    /// update at `vt` itself is excluded).
    pub fn committed_before(&self, vt: VirtualTime) -> Option<&HistoryEntry<T>> {
        self.entries.iter().rev().find(|e| e.committed && e.vt < vt)
    }

    /// The entry written exactly at `vt`, if present.
    pub fn entry_at(&self, vt: VirtualTime) -> Option<&HistoryEntry<T>> {
        self.position(vt).ok().map(|i| &self.entries[i])
    }

    /// Marks the entry written at `vt` committed. Returns `true` if such an
    /// entry exists.
    pub fn mark_committed(&mut self, vt: VirtualTime) -> bool {
        match self.position(vt) {
            Ok(i) => {
                self.entries[i].committed = true;
                true
            }
            Err(_) => false,
        }
    }

    /// Removes the entry written at `vt` (rollback after abort), returning
    /// its value if present.
    pub fn purge(&mut self, vt: VirtualTime) -> Option<T> {
        match self.position(vt) {
            Ok(i) => Some(self.entries.remove(i).value),
            Err(_) => None,
        }
    }

    /// The read-latest (RL) test: does any write fall in the *open* interval
    /// `(lo, hi)`?
    ///
    /// The endpoints are excluded: the write at `lo` is the value the guess
    /// was based on, and a write at `hi` is the guessing transaction's own.
    pub fn has_write_in(&self, lo: VirtualTime, hi: VirtualTime) -> bool {
        self.entries.iter().any(|e| e.vt > lo && e.vt < hi)
    }

    /// What writes fall in the open interval `(lo, hi)`, in one probe: none
    /// (`None`), only uncommitted ones (`Some(false)`), or at least one
    /// committed one (`Some(true)`). A view snapshot's guess at the primary
    /// is denied on a committed write and waits on uncommitted ones
    /// (paper §4.2).
    pub fn write_in(&self, lo: VirtualTime, hi: VirtualTime) -> Option<bool> {
        let from = self.entries.partition_point(|e| e.vt <= lo);
        let mut found = None;
        for e in self.entries[from..].iter().take_while(|e| e.vt < hi) {
            if e.committed {
                return Some(true);
            }
            found = Some(false);
        }
        found
    }

    /// Garbage-collects entries made obsolete by commitment.
    ///
    /// "Committal makes old values no longer needed for view snapshots or
    /// for rollback after abort, thus they are discarded" (paper §3).
    ///
    /// Keeps every entry at or above `low_water` (VTs still needed by
    /// pending snapshots or transactions), plus the latest committed entry
    /// at or below it (the value any such reader would observe). Returns the
    /// number of entries discarded.
    pub fn gc(&mut self, low_water: VirtualTime) -> usize {
        // Find the latest committed entry with vt <= low_water; everything
        // strictly before it is unreachable.
        let keep_from = self
            .entries
            .iter()
            .rposition(|e| e.committed && e.vt <= low_water);
        match keep_from {
            Some(i) if i > 0 => {
                self.entries.drain(..i);
                i
            }
            _ => 0,
        }
    }

    /// Iterates entries in ascending VT order.
    pub fn iter(&self) -> std::slice::Iter<'_, HistoryEntry<T>> {
        self.entries.iter()
    }

    /// Iterates entries mutably in ascending VT order.
    ///
    /// Callers must not change entry `vt`s (that would break the sort
    /// invariant); this exists so composite objects can re-fold their
    /// materialized values in place when structural stragglers arrive.
    pub fn iter_mut_values(&mut self) -> std::slice::IterMut<'_, HistoryEntry<T>> {
        self.entries.iter_mut()
    }

    fn position(&self, vt: VirtualTime) -> Result<usize, usize> {
        self.entries.binary_search_by(|e| e.vt.cmp(&vt))
    }
}

impl<T: fmt::Display> fmt::Display for History<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(
                f,
                "{}={}{}",
                e.vt,
                e.value,
                if e.committed { "✓" } else { "?" }
            )?;
        }
        write!(f, "]")
    }
}

impl<T> FromIterator<(VirtualTime, T)> for History<T> {
    fn from_iter<I: IntoIterator<Item = (VirtualTime, T)>>(iter: I) -> Self {
        let mut h = History::new();
        for (vt, v) in iter {
            h.insert(vt, v);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SiteId;

    fn vt(n: u64) -> VirtualTime {
        VirtualTime::new(n, SiteId(1))
    }

    #[test]
    fn insert_keeps_sorted_despite_stragglers() {
        let mut h = History::new();
        h.insert(vt(60), "x");
        h.insert(vt(40), "w");
        h.insert(vt(80), "y");
        let vts: Vec<u64> = h.iter().map(|e| e.vt.lamport).collect();
        assert_eq!(vts, vec![40, 60, 80]);
        assert_eq!(h.current().unwrap().value, "y");
    }

    #[test]
    fn insert_duplicate_replaces() {
        let mut h = History::new();
        assert_eq!(h.insert(vt(10), 1), None);
        assert_eq!(h.insert(vt(10), 2), Some(1));
        assert_eq!(h.len(), 1);
        assert_eq!(h.current().unwrap().value, 2);
    }

    #[test]
    fn value_at_picks_latest_at_or_before() {
        let mut h = History::new();
        h.insert(vt(40), 6);
        h.insert(vt(60), 2);
        assert_eq!(h.value_at(vt(39)), None);
        assert_eq!(h.value_at(vt(40)).unwrap().value, 6);
        assert_eq!(h.value_at(vt(59)).unwrap().value, 6);
        assert_eq!(h.value_at(vt(60)).unwrap().value, 2);
        assert_eq!(h.value_at(vt(1000)).unwrap().value, 2);
    }

    #[test]
    fn rl_check_is_open_interval() {
        let mut h = History::new();
        h.insert(vt(60), ());
        assert!(!h.has_write_in(vt(60), vt(100)), "lo endpoint excluded");
        assert!(!h.has_write_in(vt(10), vt(60)), "hi endpoint excluded");
        assert!(h.has_write_in(vt(59), vt(61)));
    }

    #[test]
    fn committed_write_check_ignores_uncommitted() {
        let mut h = History::new();
        h.insert(vt(50), ());
        assert_eq!(h.write_in(vt(0), vt(100)), Some(false));
        h.mark_committed(vt(50));
        assert_eq!(h.write_in(vt(0), vt(100)), Some(true));
        assert_eq!(h.write_in(vt(50), vt(100)), None, "endpoints excluded");
    }

    #[test]
    fn purge_removes_aborted_write() {
        let mut h = History::new();
        h.insert(vt(40), 6);
        h.insert(vt(100), 9);
        assert_eq!(h.purge(vt(100)), Some(9));
        assert_eq!(h.current().unwrap().value, 6);
        assert_eq!(h.purge(vt(100)), None, "double purge is a no-op");
    }

    #[test]
    fn latest_committed_skips_uncommitted_suffix() {
        let mut h = History::new();
        h.insert_committed(vt(40), 6);
        h.insert(vt(100), 9);
        assert_eq!(h.latest_committed().unwrap().vt, vt(40));
        assert_eq!(h.current().unwrap().vt, vt(100));
        h.mark_committed(vt(100));
        assert_eq!(h.latest_committed().unwrap().vt, vt(100));
    }

    #[test]
    fn committed_at_respects_bound() {
        let mut h = History::new();
        h.insert_committed(vt(40), 6);
        h.insert_committed(vt(80), 7);
        assert_eq!(h.committed_at(vt(79)).unwrap().vt, vt(40));
        assert_eq!(h.committed_at(vt(80)).unwrap().vt, vt(80));
    }

    #[test]
    fn gc_keeps_latest_committed_at_or_below_horizon() {
        let mut h = History::new();
        h.insert_committed(vt(10), 1);
        h.insert_committed(vt(20), 2);
        h.insert(vt(30), 3);
        let dropped = h.gc(vt(25));
        assert_eq!(dropped, 1);
        let vts: Vec<u64> = h.iter().map(|e| e.vt.lamport).collect();
        assert_eq!(vts, vec![20, 30]);
    }

    #[test]
    fn gc_with_no_committed_entries_is_noop() {
        let mut h = History::new();
        h.insert(vt(10), 1);
        h.insert(vt(20), 2);
        assert_eq!(h.gc(vt(100)), 0);
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn gc_never_drops_entries_above_horizon() {
        let mut h = History::new();
        h.insert_committed(vt(10), 1);
        h.insert_committed(vt(20), 2);
        h.insert_committed(vt(30), 3);
        // Horizon at 15: only the entry at 10 is the latest committed <= 15,
        // so nothing before it exists to drop.
        assert_eq!(h.gc(vt(15)), 0);
        assert_eq!(h.len(), 3);
    }

    #[test]
    fn from_iterator_collects() {
        let h: History<i32> = vec![(vt(2), 20), (vt(1), 10)].into_iter().collect();
        assert_eq!(h.len(), 2);
        assert_eq!(h.current().unwrap().value, 20);
    }

    #[test]
    fn display_is_nonempty() {
        let mut h = History::new();
        assert_eq!(h.to_string(), "[]");
        h.insert_committed(vt(10), 5);
        assert!(h.to_string().contains("10@S1=5"));
    }
}
