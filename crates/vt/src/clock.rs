//! Per-site Lamport clock.

use crate::{SiteId, VirtualTime};

/// A per-site Lamport clock that issues unique [`VirtualTime`]s.
///
/// Each transaction "is assigned a unique virtual time (VT) prior to
/// execution. The VT is computed as a Lamport time, including a site
/// identifier to guarantee uniqueness" (paper §3).
///
/// The clock advances on two events, per Lamport's rules:
///
/// * [`next`](LamportClock::next) — a local event (starting a transaction or
///   a view snapshot) increments the counter and returns a fresh timestamp.
/// * [`witness`](LamportClock::witness) — receiving any message stamped with
///   a remote VT advances the local counter past it, so that subsequently
///   issued local VTs are greater than every VT causally observed.
///
/// # Example
///
/// ```
/// use decaf_vt::{LamportClock, SiteId, VirtualTime};
///
/// let mut clock = LamportClock::new(SiteId(1));
/// let t1 = clock.next();
/// clock.witness(VirtualTime::new(50, SiteId(2)));
/// let t2 = clock.next();
/// assert!(t2.lamport > 50, "local clock advanced past the witnessed VT");
/// assert!(t1 < t2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LamportClock {
    site: SiteId,
    counter: u64,
}

impl LamportClock {
    /// Creates a clock for `site` starting at counter zero.
    pub fn new(site: SiteId) -> Self {
        LamportClock { site, counter: 0 }
    }

    /// The site this clock issues timestamps for.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// The last counter value issued or witnessed.
    pub fn counter(&self) -> u64 {
        self.counter
    }

    /// The clock's current reading as a virtual time, without advancing it.
    ///
    /// Used to stamp outgoing messages so receivers can witness the
    /// sender's progress even when the payload carries no transaction VT.
    pub fn now(&self) -> VirtualTime {
        VirtualTime::new(self.counter, self.site)
    }

    /// Issues a fresh virtual time for a local event.
    ///
    /// The returned timestamp is strictly greater than every timestamp
    /// previously issued by or witnessed on this clock.
    #[allow(clippy::should_implement_trait)] // a clock is not an iterator
    pub fn next(&mut self) -> VirtualTime {
        self.counter += 1;
        VirtualTime::new(self.counter, self.site)
    }

    /// Observes a remote virtual time, advancing this clock past it.
    ///
    /// Call on receipt of every message carrying a VT so that future local
    /// timestamps dominate all causally prior remote ones.
    pub fn witness(&mut self, remote: VirtualTime) {
        if remote.lamport > self.counter {
            self.counter = remote.lamport;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_is_monotonic() {
        let mut c = LamportClock::new(SiteId(3));
        let a = c.next();
        let b = c.next();
        assert!(a < b);
        assert_eq!(a.site, SiteId(3));
    }

    #[test]
    fn witness_advances_clock() {
        let mut c = LamportClock::new(SiteId(1));
        c.witness(VirtualTime::new(100, SiteId(2)));
        assert_eq!(c.counter(), 100);
        let t = c.next();
        assert_eq!(t.lamport, 101);
    }

    #[test]
    fn witness_of_older_time_is_noop() {
        let mut c = LamportClock::new(SiteId(1));
        c.witness(VirtualTime::new(10, SiteId(2)));
        c.witness(VirtualTime::new(5, SiteId(2)));
        assert_eq!(c.counter(), 10);
    }

    #[test]
    fn two_sites_never_collide() {
        let mut c1 = LamportClock::new(SiteId(1));
        let mut c2 = LamportClock::new(SiteId(2));
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            assert!(seen.insert(c1.next()));
            assert!(seen.insert(c2.next()));
        }
    }
}
