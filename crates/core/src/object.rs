//! Model objects: the replicated application state holders.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use decaf_vt::{History, ReservationSet, SiteId, VirtualTime};

use crate::collab::RelationId;
use crate::graph::{NodeRef, ReplicationGraph};
use crate::value::ScalarValue;

/// The name of a model object at its hosting site.
///
/// Names are allocated locally — `(creating site, per-site sequence)` — so
/// object creation needs no coordination. Replicas of the same logical
/// object at different sites have *different* names; the replication graph
/// records the correspondence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectName {
    /// Site that created the object.
    pub site: SiteId,
    /// Creation sequence number at that site.
    pub seq: u64,
}

impl ObjectName {
    /// Creates an object name.
    pub fn new(site: SiteId, seq: u64) -> Self {
        ObjectName { site, seq }
    }
}

impl fmt::Display for ObjectName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "O{}.{}", self.site.0, self.seq)
    }
}

/// The kind of a model object (paper §2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjectKind {
    /// Scalar: 64-bit integer.
    Int,
    /// Scalar: 64-bit real.
    Real,
    /// Scalar: string.
    Str,
    /// Composite: linearly indexed sequence of children.
    List,
    /// Composite: children indexed by a string key.
    Tuple,
    /// Association: tracks membership in collaborations (§2.1, §2.6).
    Association,
}

impl ObjectKind {
    /// Whether objects of this kind may embed children.
    pub fn is_composite(self) -> bool {
        matches!(self, ObjectKind::List | ObjectKind::Tuple)
    }
}

impl fmt::Display for ObjectKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ObjectKind::Int => "int",
            ObjectKind::Real => "real",
            ObjectKind::Str => "string",
            ObjectKind::List => "list",
            ObjectKind::Tuple => "tuple",
            ObjectKind::Association => "association",
        };
        f.write_str(s)
    }
}

/// A recipe for creating a model object (possibly a whole subtree), used
/// when embedding new children into composites.
///
/// When a transaction embeds a child, the child must also be created at
/// every replica of the enclosing composite; the blueprint travels in the
/// propagated update so each site can instantiate its own copy.
///
/// # Example
///
/// ```
/// use decaf_core::Blueprint;
///
/// // A chat message: a tuple of author and text.
/// let msg = Blueprint::Tuple(vec![
///     ("author".into(), Blueprint::str("alice")),
///     ("text".into(), Blueprint::str("hello")),
/// ]);
/// # let _ = msg;
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Blueprint {
    /// An integer scalar with initial value.
    Int(i64),
    /// A real scalar with initial value.
    Real(f64),
    /// A string scalar with initial value.
    Str(String),
    /// A list composite with initial children.
    List(Vec<Blueprint>),
    /// A tuple composite with initial keyed children.
    Tuple(Vec<(String, Blueprint)>),
}

impl Blueprint {
    /// Convenience constructor for a string blueprint.
    pub fn str(s: impl Into<String>) -> Self {
        Blueprint::Str(s.into())
    }

    /// The object kind this blueprint instantiates.
    pub(crate) fn kind(&self) -> ObjectKind {
        match self {
            Blueprint::Int(_) => ObjectKind::Int,
            Blueprint::Real(_) => ObjectKind::Real,
            Blueprint::Str(_) => ObjectKind::Str,
            Blueprint::List(_) => ObjectKind::List,
            Blueprint::Tuple(_) => ObjectKind::Tuple,
        }
    }
}

/// One element of a list composite's materialized state: the embedded child
/// plus the VT tag of the transaction that embedded it.
///
/// The tag makes path names robust: "in addition to using the actual list
/// index in a path name, the propagation algorithm includes the VT at which
/// the object was updated as a tag to the index" (§3.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ListEntry {
    pub tag: VirtualTime,
    pub child: ObjectName,
}

/// A structural operation on a list, retained in the history so straggling
/// operations can be re-folded deterministically in VT order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ListOp {
    /// Insert `child` at `index` (clamped; `usize::MAX` = append), tagged
    /// with the inserting transaction's VT.
    Insert {
        index: usize,
        tag: VirtualTime,
        child: ObjectName,
    },
    /// Remove the entry carrying `tag`.
    Remove { tag: VirtualTime },
    /// Replace the entire list state (join-value adoption via `SetTree`).
    ReplaceAll { entries: Vec<ListEntry> },
}

/// A structural operation on a tuple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum TupleOp {
    Put {
        key: String,
        child: ObjectName,
    },
    Remove {
        key: String,
    },
    /// Replace the entire tuple state (join-value adoption via `SetTree`).
    ReplaceAll {
        entries: BTreeMap<String, ObjectName>,
    },
}

/// One replica relationship within an association object's value.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct Relation {
    /// The model objects that have joined, "together with their sites and
    /// object descriptions" (§2.1).
    pub members: std::collections::BTreeSet<NodeRef>,
    /// Human-readable description of the relationship's purpose.
    pub description: String,
}

/// The value of an association object: "a set of replica relationships that
/// are bundled together for some application purpose" (§2.1).
pub(crate) type AssocState = BTreeMap<RelationId, Relation>;

/// The value of a model object, stored in its history.
///
/// Composite entry sets and association state live behind [`Arc`]s:
/// history entries structurally share unchanged state, so snapshotting a
/// value, restoring it on rollback, and re-folding after a straggler are
/// O(touched entries) — a fold clones the underlying collection (via
/// [`Arc::make_mut`]) only at the moment it actually diverges. The codec
/// writes the `Arc`s by content, so sharing is a memory matter only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ObjectValue {
    Scalar(ScalarValue),
    /// Materialized list state plus the ops (one transaction may perform
    /// several) that produced it, retained for re-folding when structural
    /// stragglers arrive.
    List {
        entries: Arc<Vec<ListEntry>>,
        ops: Vec<ListOp>,
    },
    Tuple {
        entries: Arc<BTreeMap<String, ObjectName>>,
        ops: Vec<TupleOp>,
    },
    Assoc(Arc<AssocState>),
}

impl ObjectValue {
    /// An empty list value (no entries, no pending ops).
    pub(crate) fn empty_list() -> Self {
        ObjectValue::List {
            entries: Arc::new(Vec::new()),
            ops: Vec::new(),
        }
    }

    /// An empty tuple value.
    pub(crate) fn empty_tuple() -> Self {
        ObjectValue::Tuple {
            entries: Arc::new(BTreeMap::new()),
            ops: Vec::new(),
        }
    }

    /// An empty association value.
    pub(crate) fn empty_assoc() -> Self {
        ObjectValue::Assoc(Arc::new(AssocState::new()))
    }

    pub(crate) fn as_scalar(&self) -> Option<&ScalarValue> {
        match self {
            ObjectValue::Scalar(s) => Some(s),
            _ => None,
        }
    }

    pub(crate) fn as_list(&self) -> Option<&[ListEntry]> {
        match self {
            ObjectValue::List { entries, .. } => Some(entries.as_slice()),
            _ => None,
        }
    }

    pub(crate) fn as_tuple(&self) -> Option<&BTreeMap<String, ObjectName>> {
        match self {
            ObjectValue::Tuple { entries, .. } => Some(entries),
            _ => None,
        }
    }

    pub(crate) fn as_assoc(&self) -> Option<&AssocState> {
        match self {
            ObjectValue::Assoc(a) => Some(a),
            _ => None,
        }
    }

    /// The list entries as a shared handle (CoW hot path: histories hand
    /// these around without copying the underlying vector).
    pub(crate) fn list_arc(&self) -> Option<Arc<Vec<ListEntry>>> {
        match self {
            ObjectValue::List { entries, .. } => Some(Arc::clone(entries)),
            _ => None,
        }
    }

    /// The tuple entries as a shared handle (CoW hot path).
    pub(crate) fn tuple_arc(&self) -> Option<Arc<BTreeMap<String, ObjectName>>> {
        match self {
            ObjectValue::Tuple { entries, .. } => Some(Arc::clone(entries)),
            _ => None,
        }
    }
}

/// How updates to this object reach its replicas (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum PropagationMode {
    /// The object holds its own replication graph and communicates directly
    /// with its replicas. Roots are always direct; embedded objects switch
    /// to direct when they collaborate independently of their root.
    #[default]
    Direct,
    /// The object inherits the replication graph of its enclosing root;
    /// updates travel as (root, VT-tagged path) pairs.
    Indirect,
}

/// A model object as stored at one site.
#[derive(Debug, Clone)]
pub(crate) struct ModelObject {
    pub name: ObjectName,
    pub kind: ObjectKind,
    /// Value history (paper §3: "a set of pairs of values and VTs").
    pub values: History<ObjectValue>,
    /// Replication graph history ("a similarly indexed set of replication
    /// graphs"). Meaningful only for `Direct` objects.
    pub graphs: History<ReplicationGraph>,
    /// Write-free reservations held when this site is the object's primary.
    pub value_reservations: ReservationSet,
    /// Reservations against replication-graph changes.
    pub graph_reservations: ReservationSet,
    /// The enclosing composite, if this object is embedded.
    pub parent: Option<ObjectName>,
    pub propagation: PropagationMode,
    /// Registry of every embedding this composite has applied:
    /// `tag → child`. Survives removals and history GC so straggling
    /// indirect updates can always resolve their VT-tagged paths (§3.2.1);
    /// entries for *aborted* embeddings are withdrawn on purge. Grows with
    /// the number of embeddings ever made — the same asymptotics as the
    /// orphaned child objects themselves.
    pub embeddings: BTreeMap<VirtualTime, ObjectName>,
    /// Whether the store lists this object for its next sweep; the store
    /// alone writes it (see [`Store`](crate::store::Store)).
    pub unsettled: bool,
}

impl ModelObject {
    pub(crate) fn new(name: ObjectName, kind: ObjectKind) -> Self {
        ModelObject {
            name,
            kind,
            values: History::new(),
            graphs: History::new(),
            value_reservations: ReservationSet::new(),
            graph_reservations: ReservationSet::new(),
            parent: None,
            propagation: PropagationMode::Direct,
            embeddings: BTreeMap::new(),
            unsettled: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_name_display_and_order() {
        let a = ObjectName::new(SiteId(1), 2);
        let b = ObjectName::new(SiteId(1), 3);
        let c = ObjectName::new(SiteId(2), 0);
        assert_eq!(a.to_string(), "O1.2");
        assert!(a < b && b < c);
    }

    #[test]
    fn blueprint_kinds() {
        assert_eq!(Blueprint::Int(1).kind(), ObjectKind::Int);
        assert_eq!(Blueprint::Real(1.0).kind(), ObjectKind::Real);
        assert_eq!(Blueprint::str("x").kind(), ObjectKind::Str);
        assert_eq!(Blueprint::List(vec![]).kind(), ObjectKind::List);
        assert_eq!(Blueprint::Tuple(vec![]).kind(), ObjectKind::Tuple);
        assert!(ObjectKind::List.is_composite());
        assert!(!ObjectKind::Int.is_composite());
    }

    #[test]
    fn kind_display() {
        assert_eq!(ObjectKind::Association.to_string(), "association");
        assert_eq!(ObjectKind::Int.to_string(), "int");
    }

    #[test]
    fn object_value_accessors() {
        let s = ObjectValue::Scalar(ScalarValue::Int(3));
        assert!(s.as_scalar().is_some());
        assert!(s.as_list().is_none());
        let l = ObjectValue::empty_list();
        assert!(l.as_list().is_some());
        assert!(l.as_tuple().is_none());
        assert!(l.list_arc().is_some());
        assert!(l.tuple_arc().is_none());
        let t = ObjectValue::empty_tuple();
        assert!(t.as_tuple().is_some());
        assert!(t.tuple_arc().is_some());
        let a = ObjectValue::empty_assoc();
        assert!(a.as_assoc().is_some());
        assert!(a.as_scalar().is_none());
    }
}
