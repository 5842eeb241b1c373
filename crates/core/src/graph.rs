//! Replication graphs and primary-copy selection.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use decaf_vt::SiteId;

use crate::collab::RelationId;
use crate::object::ObjectName;

/// A reference to one model object at one site: a node of a replication
/// graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeRef {
    /// Hosting site.
    pub site: SiteId,
    /// The object's name at that site.
    pub object: ObjectName,
}

impl NodeRef {
    /// Creates a node reference.
    pub fn new(site: SiteId, object: ObjectName) -> Self {
        NodeRef { site, object }
    }
}

impl fmt::Display for NodeRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.site, self.object)
    }
}

/// A replication graph: "a connected multigraph whose nodes are references
/// to model objects, and whose multi-edges are the replication relations
/// built by the users" (§3).
///
/// The graph of object *M* includes *M* and every object directly or
/// indirectly required to mirror it. Edges are labelled with the
/// [`RelationId`] of the replica relationship that created them, making the
/// graph a multigraph (two objects may be joined through several
/// relationships).
///
/// "There is a function which maps replication graphs to a selected node in
/// that graph. The node is called the *primary copy* and the site of that
/// node is called the *primary site*" (§3). Here that function is
/// [`primary`](Self::primary): the least node. It is a pure function of
/// the graph, so "there is no negotiation for primary copy... no phase
/// during which updates are not possible because a primary site is being
/// chosen" (§3.3).
///
/// # Example
///
/// ```
/// use decaf_core::{NodeRef, ObjectName, RelationId, ReplicationGraph};
/// use decaf_vt::SiteId;
///
/// let a = NodeRef::new(SiteId(1), ObjectName::new(SiteId(1), 0));
/// let b = NodeRef::new(SiteId(2), ObjectName::new(SiteId(2), 0));
/// let g = ReplicationGraph::singleton(a).joined_with(&ReplicationGraph::singleton(b), a, b, RelationId(7));
/// assert_eq!(g.sites().collect::<Vec<_>>(), vec![SiteId(1), SiteId(2)]);
/// assert_eq!(g.primary(), Some(a));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReplicationGraph {
    nodes: BTreeSet<NodeRef>,
    edges: BTreeSet<(NodeRef, NodeRef, RelationId)>,
}

impl ReplicationGraph {
    /// The graph of an unshared object: one node, no edges.
    pub fn singleton(node: NodeRef) -> Self {
        let mut nodes = BTreeSet::new();
        nodes.insert(node);
        ReplicationGraph {
            nodes,
            edges: BTreeSet::new(),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes (only possible transiently, after
    /// every member left).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Whether `node` participates in this graph.
    pub(crate) fn contains(&self, node: NodeRef) -> bool {
        self.nodes.contains(&node)
    }

    /// The primary copy: the least `(site, object)` node. `None` only for
    /// an empty graph.
    pub fn primary(&self) -> Option<NodeRef> {
        self.nodes.iter().next().copied()
    }

    /// Iterates the nodes in ascending order.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = &NodeRef> {
        self.nodes.iter()
    }

    /// Iterates the relation edges `(a, b, relation)` in ascending order,
    /// with `a < b` as maintained by [`joined_with`](Self::joined_with).
    pub(crate) fn edges(&self) -> impl ExactSizeIterator<Item = &(NodeRef, NodeRef, RelationId)> {
        self.edges.iter()
    }

    /// Rebuilds a graph from the parts produced by [`nodes`](Self::nodes)
    /// and `edges`. Edge endpoints are normalized (`a < b`)
    /// and added to the node set, so any well-formed part list round-trips.
    pub fn from_parts(
        nodes: impl IntoIterator<Item = NodeRef>,
        edges: impl IntoIterator<Item = (NodeRef, NodeRef, RelationId)>,
    ) -> Self {
        let mut g = ReplicationGraph {
            nodes: nodes.into_iter().collect(),
            edges: BTreeSet::new(),
        };
        for (a, b, r) in edges {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            g.nodes.insert(lo);
            g.nodes.insert(hi);
            g.edges.insert((lo, hi, r));
        }
        g
    }

    /// Iterates the distinct sites hosting nodes, ascending.
    pub fn sites(&self) -> impl Iterator<Item = SiteId> + '_ {
        let mut last = None;
        self.nodes.iter().filter_map(move |n| {
            if last == Some(n.site) {
                None
            } else {
                last = Some(n.site);
                Some(n.site)
            }
        })
    }

    /// The node hosted at `site`, if any. (A site hosts at most one replica
    /// of a given logical object.)
    pub(crate) fn node_at(&self, site: SiteId) -> Option<NodeRef> {
        self.nodes.iter().find(|n| n.site == site).copied()
    }

    /// Merges `self` and `other` with a new replica-relation edge
    /// `a — b` labelled `relation`, producing the joined graph (§3.3: "B
    /// merges gA and gB").
    #[must_use]
    pub fn joined_with(
        &self,
        other: &ReplicationGraph,
        a: NodeRef,
        b: NodeRef,
        relation: RelationId,
    ) -> ReplicationGraph {
        let mut nodes = self.nodes.clone();
        nodes.extend(other.nodes.iter().copied());
        let mut edges = self.edges.clone();
        edges.extend(other.edges.iter().copied());
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        edges.insert((lo, hi, relation));
        ReplicationGraph { nodes, edges }
    }

    /// Removes `node` and its incident edges, returning the graph that the
    /// *remaining* members share. If removal disconnects the graph, the
    /// component containing `keep_perspective` is returned (leave semantics:
    /// each component carries on independently).
    #[must_use]
    pub(crate) fn without_node(
        &self,
        node: NodeRef,
        keep_perspective: NodeRef,
    ) -> ReplicationGraph {
        let mut g = self.clone();
        g.nodes.remove(&node);
        g.edges.retain(|(a, b, _)| *a != node && *b != node);
        g.component_of(keep_perspective)
    }

    /// Removes every node hosted at `site` (fail-stop repair, §3.4),
    /// keeping the component of `keep_perspective`.
    #[must_use]
    pub(crate) fn without_site(&self, site: SiteId, keep_perspective: NodeRef) -> ReplicationGraph {
        let mut g = self.clone();
        g.nodes.retain(|n| n.site != site);
        g.edges.retain(|(a, b, _)| a.site != site && b.site != site);
        g.component_of(keep_perspective)
    }

    /// The connected component containing `node` (empty if absent).
    #[must_use]
    pub(crate) fn component_of(&self, node: NodeRef) -> ReplicationGraph {
        if !self.nodes.contains(&node) {
            return ReplicationGraph::default();
        }
        // Union-find-free BFS over the adjacency derived from edges;
        // isolated nodes are their own component.
        let mut adj: BTreeMap<NodeRef, Vec<NodeRef>> = BTreeMap::new();
        for (a, b, _) in &self.edges {
            adj.entry(*a).or_default().push(*b);
            adj.entry(*b).or_default().push(*a);
        }
        let mut seen = BTreeSet::new();
        let mut frontier = vec![node];
        while let Some(n) = frontier.pop() {
            if !seen.insert(n) {
                continue;
            }
            if let Some(neigh) = adj.get(&n) {
                frontier.extend(neigh.iter().copied());
            }
        }
        let edges = self
            .edges
            .iter()
            .filter(|(a, b, _)| seen.contains(a) && seen.contains(b))
            .copied()
            .collect();
        ReplicationGraph { nodes: seen, edges }
    }

    /// Whether the graph is connected (a DECAF invariant for live graphs).
    pub fn is_connected(&self) -> bool {
        match self.nodes.iter().next() {
            None => true,
            Some(first) => self.component_of(*first).nodes.len() == self.nodes.len(),
        }
    }
}

impl fmt::Display for ReplicationGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, n) in self.nodes.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{n}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(site: u32, seq: u64) -> NodeRef {
        NodeRef::new(SiteId(site), ObjectName::new(SiteId(site), seq))
    }

    fn three_chain() -> (ReplicationGraph, NodeRef, NodeRef, NodeRef) {
        let (a, b, c) = (node(1, 0), node(2, 0), node(3, 0));
        let g = ReplicationGraph::singleton(a)
            .joined_with(&ReplicationGraph::singleton(b), a, b, RelationId(1))
            .joined_with(&ReplicationGraph::singleton(c), b, c, RelationId(2));
        (g, a, b, c)
    }

    #[test]
    fn singleton_properties() {
        let g = ReplicationGraph::singleton(node(1, 5));
        assert_eq!(g.len(), 1);
        assert!(g.is_connected());
        assert_eq!(g.primary(), Some(node(1, 5)));
    }

    #[test]
    fn join_merges_nodes_and_edges() {
        let (g, a, b, c) = three_chain();
        assert_eq!(g.len(), 3);
        assert!(g.contains(a) && g.contains(b) && g.contains(c));
        assert!(g.is_connected());
        assert_eq!(
            g.sites().collect::<Vec<_>>(),
            vec![SiteId(1), SiteId(2), SiteId(3)]
        );
    }

    #[test]
    fn primary_is_the_least_node_whatever_the_join_order() {
        let (g, a, b, c) = three_chain();
        assert_eq!(g.primary(), Some(a));
        let reversed = ReplicationGraph::singleton(c)
            .joined_with(&ReplicationGraph::singleton(b), c, b, RelationId(2))
            .joined_with(&ReplicationGraph::singleton(a), b, a, RelationId(1));
        assert_eq!(reversed, g);
        assert_eq!(reversed.primary(), Some(a));
        assert_eq!(ReplicationGraph::default().primary(), None);
    }

    #[test]
    fn leave_removes_node_and_keeps_connected_component() {
        let (g, a, b, c) = three_chain();
        // b is the cut vertex: removing it separates {a} and {c}.
        let ga = g.without_node(b, a);
        assert_eq!(ga.nodes().copied().collect::<Vec<_>>(), vec![a]);
        let gc = g.without_node(b, c);
        assert_eq!(gc.nodes().copied().collect::<Vec<_>>(), vec![c]);
        // Removing a leaf keeps the rest together.
        let g2 = g.without_node(c, a);
        assert_eq!(g2.len(), 2);
        assert!(g2.is_connected());
    }

    #[test]
    fn without_site_strips_all_nodes_of_that_site() {
        let (g, a, _, c) = three_chain();
        let g2 = g.without_site(SiteId(2), a);
        assert!(!g2.nodes().any(|n| n.site == SiteId(2)));
        // a and c were only connected through site 2, so only a's component
        // survives from a's perspective.
        assert_eq!(g2.nodes().copied().collect::<Vec<_>>(), vec![a]);
        let _ = c;
    }

    #[test]
    fn multigraph_allows_parallel_edges() {
        let (a, b) = (node(1, 0), node(2, 0));
        let g = ReplicationGraph::singleton(a)
            .joined_with(&ReplicationGraph::singleton(b), a, b, RelationId(1))
            .joined_with(&ReplicationGraph::singleton(b), a, b, RelationId(2));
        // Removing nothing: both edges counted distinct; graph still 2 nodes.
        assert_eq!(g.len(), 2);
        assert!(g.is_connected());
    }

    #[test]
    fn node_at_finds_site_replica() {
        let (g, a, ..) = three_chain();
        assert_eq!(g.node_at(SiteId(1)), Some(a));
        assert_eq!(g.node_at(SiteId(9)), None);
    }

    #[test]
    fn component_of_missing_node_is_empty() {
        let (g, ..) = three_chain();
        assert!(g.component_of(node(9, 9)).is_empty());
    }

    #[test]
    fn display_lists_nodes() {
        let g = ReplicationGraph::singleton(node(1, 2));
        assert_eq!(g.to_string(), "{S1:O1.2}");
    }
}
