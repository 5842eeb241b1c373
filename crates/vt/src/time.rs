//! Site identifiers and virtual timestamps.

use std::fmt;

/// Identifier of a collaborating site.
///
/// A *site* in DECAF is one running application instance (typically one
/// user). Sites originate transactions, host model-object replicas, and may
/// be selected as the *primary site* of a replication graph.
///
/// # Example
///
/// ```
/// use decaf_vt::SiteId;
///
/// let a = SiteId(1);
/// let b = SiteId(2);
/// assert!(a < b);
/// assert_eq!(a.to_string(), "S1");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SiteId(pub u32);

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

impl From<u32> for SiteId {
    fn from(v: u32) -> Self {
        SiteId(v)
    }
}

/// A unique virtual time (VT).
///
/// Computed as a Lamport time including a site identifier to guarantee
/// uniqueness (paper §3). The ordering is lexicographic on
/// `(lamport, site)`, which totally orders all transactions in the system.
///
/// `VirtualTime` is the identifier of a transaction: the paper speaks of
/// "the transaction at virtual time 100", and sites other than the
/// originator only ever need to remember their dependency on "the
/// transaction identified by a particular virtual time" (paper §3.3).
///
/// # Example
///
/// ```
/// use decaf_vt::{SiteId, VirtualTime};
///
/// let t1 = VirtualTime::new(100, SiteId(1));
/// let t2 = VirtualTime::new(100, SiteId(2));
/// let t3 = VirtualTime::new(101, SiteId(1));
/// assert!(t1 < t2 && t2 < t3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtualTime {
    /// Lamport counter component.
    pub lamport: u64,
    /// Site that issued this timestamp (tie-breaker, guarantees uniqueness).
    pub site: SiteId,
}

impl VirtualTime {
    /// The smallest virtual time; used as the initial "beginning of history"
    /// timestamp for freshly created objects.
    pub const ZERO: VirtualTime = VirtualTime {
        lamport: 0,
        site: SiteId(0),
    };

    /// Creates a virtual time from a Lamport counter and issuing site.
    pub fn new(lamport: u64, site: SiteId) -> Self {
        VirtualTime { lamport, site }
    }
}

impl fmt::Display for VirtualTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.lamport, self.site)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_lamport_then_site() {
        let a = VirtualTime::new(5, SiteId(9));
        let b = VirtualTime::new(6, SiteId(0));
        assert!(a < b, "lamport component dominates");

        let c = VirtualTime::new(6, SiteId(1));
        assert!(b < c, "site id breaks ties");
    }

    #[test]
    fn zero_is_minimal() {
        let any = VirtualTime::new(1, SiteId(0));
        assert!(VirtualTime::ZERO < any);
        assert_eq!(VirtualTime::ZERO, VirtualTime::default());
    }

    #[test]
    fn display_formats() {
        assert_eq!(VirtualTime::new(100, SiteId(2)).to_string(), "100@S2");
        assert_eq!(SiteId(7).to_string(), "S7");
    }

    #[test]
    fn site_id_from_u32() {
        assert_eq!(SiteId::from(3), SiteId(3));
    }
}
