//! Dynamic collaboration establishment (paper §2.6, §3.3): replica
//! relationships, association objects, invitations, and the join protocol's
//! state machines.

use std::collections::BTreeSet;
use std::fmt;

use decaf_vt::{SiteId, VirtualTime};

use crate::graph::NodeRef;
use crate::object::ObjectName;

/// Identifier of a replica relationship.
///
/// "A replica relationship is a collection of model objects, usually
/// spanning multiple applications, which are required to mirror one
/// another's value. Replica relationships are symmetric and transitive"
/// (§2.2). The id labels the multigraph edges the relationship contributes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RelationId(pub u64);

impl fmt::Display for RelationId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

/// A published right to join a replica relationship.
///
/// "Application A must publicize the right to make replicas of its objects
/// by creating an external token, called an *invitation*, containing a
/// reference to Aassoc, somewhere where application B can access it (e.g.,
/// on a bulletin board)" (§2.6). The invitation is plain data — pass it
/// out-of-band (a test fixture, a file, a real bulletin board), as a value or
/// as its [`to_bytes`](Invitation::to_bytes) form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Invitation {
    /// The inviter's association object.
    pub assoc: NodeRef,
    /// The relationship being offered.
    pub relation: RelationId,
    /// A current member object of the relationship to contact (the paper's
    /// "reference to one of the objects in the replica relationship", §3.3).
    pub contact: NodeRef,
}

impl Invitation {
    /// The invitation's byte form, in the crate's one binary codec.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        crate::codec::invitation(&mut out, self);
        out
    }

    /// Decodes [`to_bytes`](Self::to_bytes) output.
    ///
    /// # Errors
    ///
    /// Truncation or trailing bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Invitation, String> {
        crate::codec::decode_invitation(bytes)
    }
}

/// A read-only description of one replica relationship inside an
/// association object's value, as surfaced to transactions and views.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationInfo {
    /// The relationship.
    pub id: RelationId,
    /// Member objects with their sites.
    pub members: Vec<NodeRef>,
    /// The application-supplied description.
    pub description: String,
}

// ---------------------------------------------------------------------------
// Engine-internal pending-operation state (§3.3 protocol)
// ---------------------------------------------------------------------------

/// Which phase a join initiated at this site is in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum JoinPhase {
    /// JoinRequest sent; awaiting JoinReply from the contact.
    AwaitingReply,
    /// Reply processed, merged graph applied and propagated; awaiting
    /// primary confirmations and RC commitments.
    AwaitingConfirms,
}

/// State of a join operation originated at this site (the paper's "A").
#[derive(Debug)]
pub(crate) struct JoinOp {
    /// The local object joining the relationship.
    pub local: ObjectName,
    /// The invitation being exercised.
    pub invitation: Invitation,
    pub phase: JoinPhase,
    /// `tG` of the local object's graph when the join started (the gA
    /// primary's RL guess interval).
    pub t_ga: VirtualTime,
    /// Outstanding primary confirmations (gA's primary, gB's primary, and
    /// the association's primary when it is remote). May go negative while
    /// the JoinReply is still in flight: primaries can confirm before the
    /// reply announces how many confirmations to expect.
    pub awaiting: i64,
    /// RC guesses: uncommitted transactions (e.g. the writer of gB's
    /// current value) that must commit first.
    pub rc_waits: BTreeSet<VirtualTime>,
    /// Every site that must receive the summary COMMIT/ABORT.
    pub affected: BTreeSet<SiteId>,
    /// Objects created locally by adopting the contact's value (committed
    /// and rolled back together with the join).
    pub adopted: Vec<ObjectName>,
    /// VT the adopted value was applied at (the contact's value VT).
    pub adopted_vt: VirtualTime,
    /// Denied by some primary (abort when bookkeeping drains).
    pub denied: bool,
    /// Remaining automatic retries.
    pub retries_left: u32,
}

/// State of a graph-only transaction (leave, failure repair via primary)
/// originated at this site.
#[derive(Debug)]
pub(crate) struct GraphTxn {
    /// Local object whose graph changes.
    pub local: ObjectName,
    pub awaiting: u32,
    pub affected: BTreeSet<SiteId>,
    pub denied: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relation_id_display() {
        assert_eq!(RelationId(4).to_string(), "R4");
    }
}
