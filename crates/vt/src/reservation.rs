//! Write-free interval reservations kept at primary copies.

use std::fmt;

use crate::VirtualTime;

/// A write-free reservation: the half-open region of virtual time `(lo, hi)`
/// that transaction `owner` has been confirmed to have read as write-free.
///
/// "The transaction requests each primary copy to 'reserve' a region of time
/// between `tR` and `tT` as write-free" (paper §3.1). A confirmed RL guess
/// creates this reservation "so that no conflicting write will be made in
/// the future".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reservation {
    /// VT of the value read (exclusive lower bound of the protected region).
    pub lo: VirtualTime,
    /// VT of the reserving transaction (exclusive upper bound).
    pub hi: VirtualTime,
    /// The reserving transaction.
    pub owner: VirtualTime,
}

impl fmt::Display for Reservation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}) by {}", self.lo, self.hi, self.owner)
    }
}

/// Result of a failed no-conflict (NC) check: the reservation that a
/// proposed write would invalidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReservationConflict {
    /// The reservation the write falls inside.
    pub reservation: Reservation,
    /// VT of the rejected write.
    pub write_vt: VirtualTime,
}

impl fmt::Display for ReservationConflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "write at {} conflicts with reservation {}",
            self.write_vt, self.reservation
        )
    }
}

/// The set of write-free reservations held by one object's primary copy.
///
/// Supports the primary-site side of the DECAF guess checks (paper §3.1):
///
/// * a confirmed RL guess [`reserve`](ReservationSet::reserve)s its interval;
/// * the NC guess check asks whether a proposed write's VT falls inside a
///   reservation made by *another* transaction
///   ([`check_write`](ReservationSet::check_write));
/// * an aborted transaction's reservations are
///   [`release`](ReservationSet::release)d;
/// * reservations wholly below the commit horizon are garbage-collected.
///
/// # Example
///
/// ```
/// use decaf_vt::{ReservationSet, SiteId, VirtualTime};
///
/// let vt = |n| VirtualTime::new(n, SiteId(1));
/// let mut rs = ReservationSet::new();
/// rs.reserve(vt(80), vt(100), vt(100)); // txn@100 read the value written at 80
/// // A straggling write at 90 by another transaction violates the reservation:
/// assert!(rs.check_write(vt(90)).is_err());
/// // The reserving transaction's own write at 100 is fine:
/// assert!(rs.check_write(vt(100)).is_ok());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReservationSet {
    // Unsorted small vec; reservation counts stay tiny because commits GC
    // them promptly.
    reservations: Vec<Reservation>,
}

impl ReservationSet {
    /// Creates an empty reservation set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live reservations.
    pub fn len(&self) -> usize {
        self.reservations.len()
    }

    /// Whether no reservations are held.
    pub fn is_empty(&self) -> bool {
        self.reservations.is_empty()
    }

    /// Records that `owner` has been confirmed to read the region `(lo, hi)`
    /// as write-free.
    ///
    /// `hi` is normally `owner`'s own VT; view snapshots also reserve with
    /// `hi` equal to the snapshot VT.
    pub fn reserve(&mut self, lo: VirtualTime, hi: VirtualTime, owner: VirtualTime) {
        debug_assert!(lo <= hi, "reservation interval must not be inverted");
        self.reservations.push(Reservation { lo, hi, owner });
    }

    /// The no-conflict (NC) guess check for a proposed write at `write_vt`.
    ///
    /// # Errors
    ///
    /// Returns the violated [`ReservationConflict`] if some *other*
    /// transaction holds a reservation whose open interval contains
    /// `write_vt`. (Virtual times are unique, so a reservation with
    /// `hi == write_vt` necessarily belongs to the writing transaction
    /// itself and does not conflict.)
    pub fn check_write(&self, write_vt: VirtualTime) -> Result<(), ReservationConflict> {
        for r in &self.reservations {
            if write_vt > r.lo && write_vt < r.hi {
                return Err(ReservationConflict {
                    reservation: *r,
                    write_vt,
                });
            }
        }
        Ok(())
    }

    /// Releases every reservation held by `owner` (called when `owner`
    /// aborts). Returns how many were released.
    pub fn release(&mut self, owner: VirtualTime) -> usize {
        let before = self.reservations.len();
        self.reservations.retain(|r| r.owner != owner);
        before - self.reservations.len()
    }

    /// Drops reservations whose protected region lies entirely at or below
    /// the commit horizon: no future write can be assigned a VT below a
    /// committed horizon, so those reservations can no longer be violated.
    /// Returns how many were dropped.
    pub fn gc(&mut self, horizon: VirtualTime) -> usize {
        let before = self.reservations.len();
        self.reservations.retain(|r| r.hi > horizon);
        before - self.reservations.len()
    }

    /// Iterates the live reservations in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Reservation> {
        self.reservations.iter()
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
    fn write_inside_foreign_reservation_conflicts() {
        let mut rs = ReservationSet::new();
        rs.reserve(vt(40), vt(100), vt(100));
        let err = rs.check_write(vt(70)).unwrap_err();
        assert_eq!(err.write_vt, vt(70));
        assert_eq!(err.reservation.owner, vt(100));
    }

    #[test]
    fn endpoints_do_not_conflict() {
        let mut rs = ReservationSet::new();
        rs.reserve(vt(40), vt(100), vt(100));
        assert!(rs.check_write(vt(40)).is_ok(), "read value itself");
        assert!(rs.check_write(vt(100)).is_ok(), "owner's own write");
        assert!(rs.check_write(vt(101)).is_ok(), "after the region");
    }

    #[test]
    fn release_removes_only_owner() {
        let mut rs = ReservationSet::new();
        rs.reserve(vt(10), vt(50), vt(50));
        rs.reserve(vt(20), vt(60), vt(60));
        assert_eq!(rs.release(vt(50)), 1);
        assert_eq!(rs.len(), 1);
        assert!(rs.check_write(vt(30)).is_err(), "other reservation remains");
        assert_eq!(rs.release(vt(50)), 0, "second release is a no-op");
    }

    #[test]
    fn gc_drops_reservations_below_horizon() {
        let mut rs = ReservationSet::new();
        rs.reserve(vt(10), vt(50), vt(50));
        rs.reserve(vt(20), vt(80), vt(80));
        assert_eq!(rs.gc(vt(60)), 1);
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.iter().next().unwrap().owner, vt(80));
    }

    #[test]
    fn empty_set_accepts_all_writes() {
        let rs = ReservationSet::new();
        assert!(rs.check_write(vt(1)).is_ok());
        assert!(rs.is_empty());
    }

    #[test]
    fn conflict_display_mentions_both_vts() {
        let mut rs = ReservationSet::new();
        rs.reserve(vt(40), vt(100), vt(100));
        let err = rs.check_write(vt(70)).unwrap_err();
        let s = err.to_string();
        assert!(s.contains("70@S1") && s.contains("100@S1"));
    }
}
