//! The per-site object store: model-object state, composite
//! materialization, path resolution, and straggler re-folding.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use decaf_vt::{SiteId, VirtualTime};

use crate::error::DecafError;
use crate::graph::{NodeRef, ReplicationGraph};
use crate::message::{AssocSnapshot, ObjectAddr, Path, PathElem, TreeSnapshot, WireOp};
use crate::object::{
    Blueprint, ListEntry, ListOp, ModelObject, ObjectKind, ObjectName, ObjectValue,
    PropagationMode, TupleOp,
};
use crate::value::ScalarValue;

/// Why a wire operation could not (yet) be applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ApplyBlocked {
    /// The update's path or tag references a structural update (at the
    /// given VT, if known) that has not arrived yet; buffer and retry.
    /// (Paper §3.2.1: "the propagation will block until the earlier update
    /// is received".)
    MissingDependency(Option<VirtualTime>),
    /// A hard error (bad kind, unknown object) — drop the update.
    Fatal(DecafError),
}

impl From<DecafError> for ApplyBlocked {
    fn from(e: DecafError) -> Self {
        ApplyBlocked::Fatal(e)
    }
}

/// The per-site collection of model objects.
///
/// Most objects of a long session are *settled*: one value, one graph, no
/// reservations — a removed list child, an element nobody has written
/// since the last sweep. Nothing in them can be collected or released, so
/// the walks every commit pays for ([`Store::sweep`],
/// [`Store::release_reservations`], [`Store::graph_sites`]) visit only the
/// others: an object is listed in `unsettled` from its insertion or its
/// first mutable access ([`Store::get_mut`]) until a sweep finds it
/// settled again. The sites of the settled objects' graphs are kept as
/// counts, since a settled object cannot change.
#[derive(Debug)]
pub(crate) struct Store {
    site: SiteId,
    objects: HashMap<ObjectName, ModelObject, BuildHasherDefault<NameHasher>>,
    /// Names of the objects whose `unsettled` flag is set. A destroyed
    /// object's name stays until the next sweep drops it.
    unsettled: Vec<ObjectName>,
    /// For each site, how many settled objects' current graphs name it.
    settled_graph_sites: BTreeMap<SiteId, usize>,
    next_seq: u64,
}

/// The hasher of [`Store`]'s object map: one multiply per word, the two
/// halves of the 128-bit product folded together. [`ObjectName`]s are
/// allocated by sites (a site id and a counter), never taken from input, so
/// the keyed SipHash of the default `HashMap` defends against nothing here
/// — and without a per-process key the store's iteration order is the same
/// in every run that builds the same store.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct NameHasher(u64);

impl NameHasher {
    fn mix(&mut self, word: u64) {
        // An odd 64-bit constant (the golden ratio's fraction).
        let m = u128::from(self.0 ^ word) * 0x9E37_79B9_7F4A_7C15_u128;
        self.0 = (m as u64) ^ ((m >> 64) as u64);
    }
}

impl Hasher for NameHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Where the read guesses on one object are checked, found the long way
/// ([`Store::guess_route`]): the primary copy of the graph that governs it
/// and, when that primary is another site, the object's address there.
#[derive(Debug, Clone, PartialEq)]
struct GuessRoute {
    primary: NodeRef,
    /// The effective root's replica at the primary site and the path down
    /// from it; `None` at the primary itself, and when the path cannot be
    /// built or the graph has no node there.
    there: Option<(ObjectName, Path)>,
}

/// How one entry of a [`ReadSet`] finds its [`GuessRoute`].
#[derive(Debug)]
enum EntryRoute {
    /// Looked up for this object itself; `None` where
    /// [`Store::primary_of`] fails.
    Own(Option<GuessRoute>),
    /// An indirect child embedded under `elem` in the composite at entry
    /// `from`: the same primary, the same root there, the path one
    /// element longer.
    Under { from: usize, elem: PathElem },
}

/// One object a view snapshot reads.
#[derive(Debug)]
pub(crate) struct ReadEntry {
    pub object: ObjectName,
    /// `(vt, committed)` of the object's current value entry; `None` for
    /// an object with no value (or no longer in the store).
    pub current: Option<(VirtualTime, bool)>,
    route: EntryRoute,
}

/// The read set of a view snapshot ([`Store::read_set`]): every object
/// under the view's attachment points, each with what a snapshot needs of
/// it, built in one traversal. An entry costs one look-up in the store and
/// no allocation (a tuple child clones its key); primaries and addresses
/// are derived from the entries on demand.
#[derive(Debug, Default)]
pub(crate) struct ReadSet {
    entries: Vec<ReadEntry>,
}

impl ReadSet {
    pub(crate) fn entries(&self) -> &[ReadEntry] {
        &self.entries
    }

    /// The primary copy of the graph governing entry `i`
    /// ([`Store::primary_of`]).
    pub(crate) fn primary(&self, mut i: usize) -> Option<NodeRef> {
        loop {
            match &self.entries[i].route {
                EntryRoute::Own(route) => return route.as_ref().map(|r| r.primary),
                EntryRoute::Under { from, .. } => i = *from,
            }
        }
    }

    /// Entry `i`'s wire address at its primary's site ([`Store::addr_at`]);
    /// `None` when this site is the primary.
    pub(crate) fn addr(&self, i: usize) -> Option<ObjectAddr> {
        // Up to the entry that has its own route.
        let mut at = i;
        let route = loop {
            match &self.entries[at].route {
                EntryRoute::Own(route) => break route.as_ref()?,
                EntryRoute::Under { from, .. } => at = *from,
            }
        };
        let (root, path) = route.there.as_ref()?;
        // A list child under its root gets a one-element path, which
        // allocates nothing.
        let mut path = path.clone();
        self.push_path(i, &mut path);
        Some(object_addr(*root, path))
    }

    /// Entry `i` as a list child one index below its routed root at its
    /// primary's site: that root there, the index and the tag — the
    /// address [`addr`](ReadSet::addr) gives, unbuilt. `None` for any other
    /// shape, and where `addr` gives none.
    pub(crate) fn child_key(&self, i: usize) -> Option<(ObjectName, usize, VirtualTime)> {
        let EntryRoute::Under {
            from,
            elem: PathElem::Index { index, tag },
        } = &self.entries[i].route
        else {
            return None;
        };
        let EntryRoute::Own(Some(GuessRoute {
            there: Some((root, path)),
            ..
        })) = &self.entries[*from].route
        else {
            return None;
        };
        path.is_root().then_some((*root, *index, *tag))
    }

    /// Appends the elements leading from entry `i`'s routed ancestor down to
    /// it, outermost first.
    fn push_path(&self, i: usize, path: &mut Path) {
        if let EntryRoute::Under { from, elem } = &self.entries[i].route {
            self.push_path(*from, path);
            path.push(elem.clone());
        }
    }
}

/// A list object and its current entries ([`Store::list_children`]).
pub(crate) struct ListChildren<'a> {
    obj: &'a ModelObject,
    entries: &'a [ListEntry],
}

impl ListChildren<'_> {
    /// The child embedded at `tag`, `index` a hint of where it sits — the
    /// one way an address's list element is resolved ([`Store::resolve`]).
    ///
    /// The tag decides. A child that was concurrently *removed* must still
    /// resolve (§3.2.1: propagation proceeds "regardless of the order in
    /// which it has received other structure-changing operations"), which
    /// the embedding registry answers — as it does for a child the hint is
    /// merely off for, without a scan of the list. Only embeddings that
    /// never went through a list op (a blueprint's children) are missing
    /// from it.
    pub(crate) fn child(&self, index: usize, tag: VirtualTime) -> Option<ObjectName> {
        let scan = || self.entries.iter().find(|e| e.tag == tag).map(|e| e.child);
        self.entries
            .get(index)
            .filter(|e| e.tag == tag)
            .map(|e| e.child)
            .or_else(|| {
                let known = self.obj.embeddings.get(&tag).copied();
                debug_assert!(
                    known.is_none() || scan().is_none_or(|c| Some(c) == known),
                    "registry and list disagree on the child tagged {tag}"
                );
                known
            })
            .or_else(scan)
    }
}

/// The wire address of the object `path` leads to from replica `root`.
fn object_addr(root: ObjectName, path: Path) -> ObjectAddr {
    if path.is_root() {
        ObjectAddr::Direct(root)
    } else {
        ObjectAddr::Indirect { root, path }
    }
}

/// Whether nothing in `obj` can be collected by a sweep or released by a
/// rollback, whatever the low-water mark.
fn is_settled(obj: &ModelObject) -> bool {
    obj.values.len() <= 1
        && obj.graphs.len() <= 1
        && obj.value_reservations.is_empty()
        && obj.graph_reservations.is_empty()
}

fn current_graph_sites(obj: &ModelObject) -> impl Iterator<Item = SiteId> + '_ {
    obj.graphs
        .current()
        .into_iter()
        .flat_map(|e| e.value.sites())
}

fn count_settled(counts: &mut BTreeMap<SiteId, usize>, obj: &ModelObject) {
    for site in current_graph_sites(obj) {
        *counts.entry(site).or_insert(0) += 1;
    }
}

fn uncount_settled(counts: &mut BTreeMap<SiteId, usize>, obj: &ModelObject) {
    for site in current_graph_sites(obj) {
        let n = counts.get_mut(&site).expect("settled object was counted");
        *n -= 1;
        if *n == 0 {
            counts.remove(&site);
        }
    }
}

impl Store {
    pub(crate) fn new(site: SiteId) -> Self {
        Store {
            site,
            objects: HashMap::default(),
            unsettled: Vec::new(),
            settled_graph_sites: BTreeMap::new(),
            next_seq: 0,
        }
    }

    fn alloc_name(&mut self) -> ObjectName {
        let n = ObjectName::new(self.site, self.next_seq);
        self.next_seq += 1;
        n
    }

    pub(crate) fn get(&self, name: ObjectName) -> Result<&ModelObject, DecafError> {
        self.objects
            .get(&name)
            .ok_or(DecafError::NoSuchObject(name))
    }

    /// Mutable access, which may unsettle the object: it is listed for the
    /// next sweep (a flag test on every access after the first).
    pub(crate) fn get_mut(&mut self, name: ObjectName) -> Result<&mut ModelObject, DecafError> {
        let obj = self
            .objects
            .get_mut(&name)
            .ok_or(DecafError::NoSuchObject(name))?;
        if !obj.unsettled {
            obj.unsettled = true;
            uncount_settled(&mut self.settled_graph_sites, obj);
            self.unsettled.push(name);
        }
        Ok(obj)
    }

    pub(crate) fn contains(&self, name: ObjectName) -> bool {
        self.objects.contains_key(&name)
    }

    pub(crate) fn objects(&self) -> impl Iterator<Item = &ModelObject> {
        self.objects.values()
    }

    /// Every object on the `unsettled` list that still exists.
    fn unsettled_objects(&self) -> impl Iterator<Item = &ModelObject> {
        self.unsettled
            .iter()
            .filter_map(|name| self.objects.get(name))
    }

    /// The sites named by any object's current replication graph.
    pub(crate) fn graph_sites(&self) -> BTreeSet<SiteId> {
        let mut sites: BTreeSet<SiteId> = self.settled_graph_sites.keys().copied().collect();
        for obj in self.unsettled_objects() {
            sites.extend(current_graph_sites(obj));
        }
        debug_assert_eq!(
            sites,
            self.objects()
                .flat_map(current_graph_sites)
                .collect::<BTreeSet<_>>(),
            "settled-object site counts disagree with the full walk"
        );
        sites
    }

    /// Garbage-collects every history and reservation set below `low`;
    /// returns the number of history entries discarded. Objects the sweep
    /// leaves settled come off the list.
    pub(crate) fn sweep(&mut self, low: VirtualTime) -> usize {
        let mut discarded = 0;
        let mut listed = std::mem::take(&mut self.unsettled);
        listed.retain(|name| {
            let Some(obj) = self.objects.get_mut(name) else {
                return false; // destroyed since it was listed
            };
            discarded += obj.values.gc(low);
            discarded += obj.graphs.gc(low);
            obj.value_reservations.gc(low);
            obj.graph_reservations.gc(low);
            obj.unsettled = !is_settled(obj);
            if !obj.unsettled {
                count_settled(&mut self.settled_graph_sites, obj);
            }
            obj.unsettled
        });
        self.unsettled = listed;
        // The full walk would have found nothing more.
        debug_assert!(self.objects().all(|o| o.unsettled || is_settled(o)));
        discarded
    }

    /// Releases the reservations transaction `owner` holds on any object.
    pub(crate) fn release_reservations(&mut self, owner: VirtualTime) {
        for name in &self.unsettled {
            if let Some(obj) = self.objects.get_mut(name) {
                obj.value_reservations.release(owner);
                obj.graph_reservations.release(owner);
            }
        }
        debug_assert!(self.objects().all(|o| o.unsettled || is_settled(o)));
    }

    /// Adds `obj` (under a name the store does not hold) unsettled.
    fn insert(&mut self, mut obj: ModelObject) {
        obj.unsettled = true;
        self.unsettled.push(obj.name);
        let replaced = self.objects.insert(obj.name, obj);
        debug_assert!(replaced.is_none(), "object names are allocated once");
    }

    /// Name-allocation counter (persistence support).
    pub(crate) fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Restores the name-allocation counter (persistence support).
    pub(crate) fn set_next_seq(&mut self, seq: u64) {
        self.next_seq = seq;
    }

    /// Installs a fully-formed object (persistence support).
    pub(crate) fn insert_object(&mut self, obj: ModelObject) {
        self.insert(obj);
    }

    /// Creates a standalone (root, direct-mode) object with a committed
    /// initial value at `VirtualTime::ZERO`.
    pub(crate) fn create_root(&mut self, kind: ObjectKind, value: ObjectValue) -> ObjectName {
        let name = self.alloc_name();
        let mut obj = ModelObject::new(name, kind);
        obj.values.insert_committed(VirtualTime::ZERO, value);
        obj.graphs.insert_committed(
            VirtualTime::ZERO,
            ReplicationGraph::singleton(NodeRef::new(self.site, name)),
        );
        self.insert(obj);
        name
    }

    /// Instantiates `bp` (and its subtree) at `vt` as a child embedded
    /// under `parent` (indirect propagation by default, §3.2).
    pub(crate) fn instantiate(
        &mut self,
        bp: &Blueprint,
        vt: VirtualTime,
        parent: ObjectName,
    ) -> ObjectName {
        let name = self.alloc_name();
        let value = match bp {
            Blueprint::Int(v) => ObjectValue::Scalar(ScalarValue::Int(*v)),
            Blueprint::Real(v) => ObjectValue::Scalar(ScalarValue::Real(*v)),
            Blueprint::Str(v) => ObjectValue::Scalar(ScalarValue::Str(v.clone())),
            Blueprint::List(children) => {
                let entries: Vec<ListEntry> = children
                    .iter()
                    .map(|c| ListEntry {
                        tag: vt,
                        child: self.instantiate(c, vt, name),
                    })
                    .collect();
                ObjectValue::List {
                    entries: Arc::new(entries),
                    ops: Vec::new(),
                }
            }
            Blueprint::Tuple(children) => {
                let entries: BTreeMap<String, ObjectName> = children
                    .iter()
                    .map(|(k, c)| (k.clone(), self.instantiate(c, vt, name)))
                    .collect();
                ObjectValue::Tuple {
                    entries: Arc::new(entries),
                    ops: Vec::new(),
                }
            }
        };
        let mut obj = ModelObject::new(name, bp.kind());
        obj.parent = Some(parent);
        obj.propagation = PropagationMode::Indirect;
        obj.values.insert(vt, value);
        self.insert(obj);
        name
    }

    /// Instantiates a [`TreeSnapshot`] at `vt` (join-value adoption),
    /// preserving the snapshot's embedding tags.
    pub(crate) fn instantiate_tree(
        &mut self,
        snap: &TreeSnapshot,
        vt: VirtualTime,
        parent: ObjectName,
    ) -> ObjectName {
        let name = self.alloc_name();
        let value = self.tree_value(snap, vt, name);
        let kind = kind_of_snapshot(snap);
        let mut obj = ModelObject::new(name, kind);
        obj.parent = Some(parent);
        obj.propagation = PropagationMode::Indirect;
        obj.values.insert(vt, value);
        self.insert(obj);
        name
    }

    fn tree_value(
        &mut self,
        snap: &TreeSnapshot,
        vt: VirtualTime,
        owner: ObjectName,
    ) -> ObjectValue {
        match snap {
            TreeSnapshot::Scalar(s) => ObjectValue::Scalar(s.clone()),
            TreeSnapshot::List(children) => {
                let entries: Vec<ListEntry> = children
                    .iter()
                    .map(|(tag, c)| ListEntry {
                        tag: *tag,
                        child: self.instantiate_tree(c, vt, owner),
                    })
                    .collect();
                ObjectValue::List {
                    entries: Arc::new(entries.clone()),
                    ops: vec![ListOp::ReplaceAll { entries }],
                }
            }
            TreeSnapshot::Tuple(children) => {
                let entries: BTreeMap<String, ObjectName> = children
                    .iter()
                    .map(|(k, c)| (k.clone(), self.instantiate_tree(c, vt, owner)))
                    .collect();
                ObjectValue::Tuple {
                    entries: Arc::new(entries.clone()),
                    ops: vec![TupleOp::ReplaceAll { entries }],
                }
            }
            TreeSnapshot::Assoc(a) => ObjectValue::Assoc(Arc::new(a.0.clone())),
        }
    }

    /// Deep snapshot of `name`'s subtree as of `at` (`None` = current).
    pub(crate) fn tree_snapshot(
        &self,
        name: ObjectName,
        at: Option<VirtualTime>,
    ) -> Result<TreeSnapshot, DecafError> {
        let obj = self.get(name)?;
        let entry = match at {
            Some(vt) => obj.values.value_at(vt),
            None => obj.values.current(),
        }
        .ok_or(DecafError::Uninitialized(name))?;
        Ok(match &entry.value {
            ObjectValue::Scalar(s) => TreeSnapshot::Scalar(s.clone()),
            ObjectValue::List { entries, .. } => TreeSnapshot::List(
                entries
                    .iter()
                    .map(|e| Ok((e.tag, self.tree_snapshot(e.child, at)?)))
                    .collect::<Result<_, DecafError>>()?,
            ),
            ObjectValue::Tuple { entries, .. } => TreeSnapshot::Tuple(
                entries
                    .iter()
                    .map(|(k, c)| Ok((k.clone(), self.tree_snapshot(*c, at)?)))
                    .collect::<Result<_, DecafError>>()?,
            ),
            ObjectValue::Assoc(a) => TreeSnapshot::Assoc(AssocSnapshot((**a).clone())),
        })
    }

    // ---- roots, paths, graphs -------------------------------------------

    /// Walks `parent` links up to the nearest direct-propagation object
    /// (the "effective root" whose replication graph governs `name`).
    pub(crate) fn effective_root(&self, name: ObjectName) -> Result<ObjectName, DecafError> {
        let mut cur = name;
        loop {
            let obj = self.get(cur)?;
            match (obj.propagation, obj.parent) {
                (PropagationMode::Direct, _) | (PropagationMode::Indirect, None) => return Ok(cur),
                (PropagationMode::Indirect, Some(p)) => cur = p,
            }
        }
    }

    /// The VT-tagged path from `name`'s effective root down to `name`.
    pub(crate) fn path_to(&self, name: ObjectName) -> Result<(ObjectName, Path), DecafError> {
        let root = self.effective_root(name)?;
        let mut elems = Vec::new();
        let mut cur = name;
        while cur != root {
            let parent = self.get(cur)?.parent.ok_or(DecafError::NoSuchObject(cur))?;
            let pobj = self.get(parent)?;
            let pval = pobj
                .values
                .current()
                .ok_or(DecafError::Uninitialized(parent))?;
            let elem = match &pval.value {
                ObjectValue::List { entries, .. } => {
                    let (index, entry) = entries
                        .iter()
                        .enumerate()
                        .find(|(_, e)| e.child == cur)
                        .ok_or_else(|| DecafError::NoSuchChild {
                        object: parent,
                        detail: format!("{cur}"),
                    })?;
                    PathElem::Index {
                        index,
                        tag: entry.tag,
                    }
                }
                ObjectValue::Tuple { entries, .. } => {
                    let key = entries
                        .iter()
                        .find(|(_, c)| **c == cur)
                        .map(|(k, _)| k.clone())
                        .ok_or_else(|| DecafError::NoSuchChild {
                            object: parent,
                            detail: format!("{cur}"),
                        })?;
                    PathElem::Key(key)
                }
                _ => {
                    return Err(DecafError::KindMismatch {
                        object: parent,
                        expected: "composite",
                    })
                }
            };
            elems.push(elem);
            cur = parent;
        }
        elems.reverse();
        Ok((root, Path::from(elems)))
    }

    /// Resolves an incoming address to the local object it names.
    ///
    /// For indirect addresses the tag is authoritative: if a path element's
    /// tag has not been applied here yet, resolution blocks
    /// ([`ApplyBlocked::MissingDependency`]) until the structural straggler
    /// arrives (§3.2.1).
    pub(crate) fn resolve(&self, addr: &ObjectAddr) -> Result<ObjectName, ApplyBlocked> {
        match addr {
            ObjectAddr::Direct(name) => {
                if self.contains(*name) {
                    Ok(*name)
                } else {
                    Err(ApplyBlocked::Fatal(DecafError::NoSuchObject(*name)))
                }
            }
            ObjectAddr::Indirect { root, path } => {
                let mut cur = *root;
                if path.is_root() && !self.contains(cur) {
                    return Err(ApplyBlocked::Fatal(DecafError::NoSuchObject(cur)));
                }
                for elem in path.elems() {
                    let obj = self.get(cur)?;
                    let val = obj.values.current().ok_or(DecafError::Uninitialized(cur))?;
                    cur = match (elem, &val.value) {
                        (PathElem::Index { tag, index }, ObjectValue::List { entries, .. }) => {
                            match (ListChildren { obj, entries }).child(*index, *tag) {
                                Some(child) => child,
                                None => return Err(ApplyBlocked::MissingDependency(Some(*tag))),
                            }
                        }
                        (PathElem::Key(k), ObjectValue::Tuple { entries, .. }) => {
                            match entries.get(k) {
                                Some(c) => *c,
                                None => return Err(ApplyBlocked::MissingDependency(None)),
                            }
                        }
                        _ => {
                            return Err(ApplyBlocked::Fatal(DecafError::KindMismatch {
                                object: cur,
                                expected: "composite matching path element",
                            }))
                        }
                    };
                }
                Ok(cur)
            }
        }
    }

    /// The current children of `list`, to resolve many of them against one
    /// look-up; `None` when there is no such object, it has no value, or
    /// its value is not a list.
    pub(crate) fn list_children(&self, list: ObjectName) -> Option<ListChildren<'_>> {
        let obj = self.objects.get(&list)?;
        let entries = obj.values.current()?.value.as_list()?;
        Some(ListChildren { obj, entries })
    }

    /// Finds the child a list embedded under `tag`, even if a later
    /// removal took it out of the current state, by scanning the retained
    /// history (materialized states and insert ops).
    pub(crate) fn find_list_child_by_tag(
        &self,
        list: ObjectName,
        tag: VirtualTime,
    ) -> Option<ObjectName> {
        let obj = self.objects.get(&list)?;
        obj.embeddings.get(&tag).copied()
    }

    /// The replication graph governing `name` (its own if direct, its
    /// effective root's if indirect), plus the VT at which that graph last
    /// changed (`tG`).
    pub(crate) fn effective_graph(
        &self,
        name: ObjectName,
    ) -> Result<(&ReplicationGraph, VirtualTime), DecafError> {
        let root = self.effective_root(name)?;
        let obj = self.get(root)?;
        let entry = obj
            .graphs
            .current()
            .ok_or(DecafError::Uninitialized(root))?;
        Ok((&entry.value, entry.vt))
    }

    /// The primary copy of the graph governing `name`.
    pub(crate) fn primary_of(&self, name: ObjectName) -> Result<NodeRef, DecafError> {
        let (graph, _) = self.effective_graph(name)?;
        graph.primary().ok_or(DecafError::UnknownRelation)
    }

    // ---- reading --------------------------------------------------------

    /// The scalar value of `name` as of `at` (`None` = current).
    pub(crate) fn scalar_at(
        &self,
        name: ObjectName,
        at: Option<VirtualTime>,
    ) -> Result<(ScalarValue, VirtualTime, bool), DecafError> {
        let obj = self.get(name)?;
        let entry = match at {
            Some(vt) => obj.values.value_at(vt),
            None => obj.values.current(),
        }
        .ok_or(DecafError::Uninitialized(name))?;
        match &entry.value {
            ObjectValue::Scalar(s) => Ok((s.clone(), entry.vt, entry.committed)),
            _ => Err(DecafError::KindMismatch {
                object: name,
                expected: "scalar",
            }),
        }
    }

    // ---- applying wire operations ---------------------------------------

    /// Applies `op` to `target` at `vt`, creating children as needed.
    ///
    /// Returns the list of objects whose value changed (for view
    /// notification).
    pub(crate) fn apply_wire_op(
        &mut self,
        target: ObjectName,
        vt: VirtualTime,
        op: &WireOp,
    ) -> Result<Vec<ObjectName>, ApplyBlocked> {
        match op {
            WireOp::SetScalar(s) => {
                let obj = self.get_mut(target)?;
                if !matches!(
                    obj.kind,
                    ObjectKind::Int | ObjectKind::Real | ObjectKind::Str
                ) {
                    return Err(DecafError::KindMismatch {
                        object: target,
                        expected: "scalar",
                    }
                    .into());
                }
                obj.values.insert(vt, ObjectValue::Scalar(s.clone()));
                Ok(vec![target])
            }
            WireOp::ListInsert { index, child } => {
                self.require_kind(target, ObjectKind::List)?;
                let child_name = self.instantiate(child, vt, target);
                if let Ok(obj) = self.get_mut(target) {
                    obj.embeddings.insert(vt, child_name);
                }
                self.apply_list_op(
                    target,
                    vt,
                    ListOp::Insert {
                        index: *index,
                        tag: vt,
                        child: child_name,
                    },
                )?;
                let mut changed = vec![target];
                changed.extend(self.subtree(child_name));
                Ok(changed)
            }
            WireOp::ListRemove { tag } => {
                self.require_kind(target, ObjectKind::List)?;
                // Block until the embedding at `tag` has been seen here —
                // but a tag that existed *historically* (e.g. already
                // removed by a concurrent transaction) is fine: the fold is
                // a no-op for it.
                let known = self.find_list_child_by_tag(target, *tag).is_some();
                let already = self.get(target)?.values.entry_at(vt).is_some();
                if !known && !already {
                    return Err(ApplyBlocked::MissingDependency(Some(*tag)));
                }
                self.apply_list_op(target, vt, ListOp::Remove { tag: *tag })?;
                Ok(vec![target])
            }
            WireOp::TuplePut { key, child } => {
                self.require_kind(target, ObjectKind::Tuple)?;
                let child_name = self.instantiate(child, vt, target);
                self.apply_tuple_op(
                    target,
                    vt,
                    TupleOp::Put {
                        key: key.clone(),
                        child: child_name,
                    },
                )?;
                let mut changed = vec![target];
                changed.extend(self.subtree(child_name));
                Ok(changed)
            }
            WireOp::TupleRemove { key } => {
                self.require_kind(target, ObjectKind::Tuple)?;
                self.apply_tuple_op(target, vt, TupleOp::Remove { key: key.clone() })?;
                Ok(vec![target])
            }
            WireOp::SetAssoc(a) => {
                self.require_kind(target, ObjectKind::Association)?;
                let obj = self.get_mut(target)?;
                obj.values
                    .insert(vt, ObjectValue::Assoc(Arc::new(a.0.clone())));
                Ok(vec![target])
            }
            WireOp::SetTree(snap) => {
                self.apply_tree(target, vt, snap)?;
                Ok(self.subtree(target))
            }
        }
    }

    fn require_kind(&self, target: ObjectName, kind: ObjectKind) -> Result<(), ApplyBlocked> {
        let obj = self.get(target)?;
        if obj.kind == kind {
            Ok(())
        } else {
            Err(DecafError::KindMismatch {
                object: target,
                expected: match kind {
                    ObjectKind::List => "list",
                    ObjectKind::Tuple => "tuple",
                    ObjectKind::Association => "association",
                    _ => "scalar",
                },
            }
            .into())
        }
    }

    /// Overwrites `target`'s subtree with `snap` at `vt`.
    fn apply_tree(
        &mut self,
        target: ObjectName,
        vt: VirtualTime,
        snap: &TreeSnapshot,
    ) -> Result<Vec<ObjectName>, ApplyBlocked> {
        let value = self.tree_value(snap, vt, target);
        let obj = self.get_mut(target)?;
        match (&value, obj.kind) {
            (ObjectValue::Scalar(_), ObjectKind::Int | ObjectKind::Real | ObjectKind::Str)
            | (ObjectValue::List { .. }, ObjectKind::List)
            | (ObjectValue::Tuple { .. }, ObjectKind::Tuple)
            | (ObjectValue::Assoc(_), ObjectKind::Association) => {}
            _ => {
                return Err(DecafError::KindMismatch {
                    object: target,
                    expected: "snapshot-compatible kind",
                }
                .into())
            }
        }
        match value {
            ObjectValue::List { entries, ops } => {
                let op = ops
                    .into_iter()
                    .next()
                    .unwrap_or_else(|| ListOp::ReplaceAll {
                        entries: (*entries).clone(),
                    });
                self.apply_list_op(target, vt, op)?;
            }
            ObjectValue::Tuple { entries, ops } => {
                let op = ops
                    .into_iter()
                    .next()
                    .unwrap_or_else(|| TupleOp::ReplaceAll {
                        entries: (*entries).clone(),
                    });
                self.apply_tuple_op(target, vt, op)?;
            }
            v => {
                self.get_mut(target)?.values.insert(vt, v);
            }
        }
        Ok(vec![target])
    }

    /// Applies one list op at `vt`, re-folding later materialized states
    /// (handles stragglers arriving out of VT order).
    fn apply_list_op(
        &mut self,
        target: ObjectName,
        vt: VirtualTime,
        op: ListOp,
    ) -> Result<(), ApplyBlocked> {
        let obj = self.get_mut(target)?;
        // Base = materialized entries strictly before vt (shared handle —
        // no copy until a fold actually diverges from it).
        let base: Arc<Vec<ListEntry>> = obj
            .values
            .iter()
            .rev()
            .find(|e| e.vt < vt)
            .and_then(|e| e.value.list_arc())
            .unwrap_or_default();
        // Keep the embedding registry complete (adoptions included).
        match &op {
            ListOp::Insert { tag, child, .. } => {
                obj.embeddings.insert(*tag, *child);
            }
            ListOp::ReplaceAll { entries } => {
                for e in entries {
                    obj.embeddings.insert(e.tag, e.child);
                }
            }
            ListOp::Remove { .. } => {}
        }
        // Record the op at vt (idempotent against redelivery).
        match obj.values.entry_at(vt) {
            Some(_) => {
                // Extend the existing same-VT entry's ops (multi-op txns).
                for e in obj.values.iter_mut_values() {
                    if e.vt == vt {
                        if let ObjectValue::List { ops, .. } = &mut e.value {
                            if !ops.contains(&op) {
                                ops.push(op.clone());
                            }
                        }
                    }
                }
            }
            None => {
                obj.values.insert(
                    vt,
                    ObjectValue::List {
                        entries: Arc::new(Vec::new()),
                        ops: vec![op.clone()],
                    },
                );
            }
        }
        // Re-fold every entry at or after vt. `make_mut` copies the state
        // only when it is still shared with an earlier entry; the folded
        // result is then re-shared into this entry.
        let mut state = base;
        for e in obj.values.iter_mut_values() {
            if e.vt < vt {
                continue;
            }
            if let ObjectValue::List { entries, ops } = &mut e.value {
                for op in ops.iter() {
                    fold_list_op(Arc::make_mut(&mut state), op);
                }
                *entries = Arc::clone(&state);
            }
        }
        // Maintain parent links for the children this op introduces.
        // Children already present were linked when their own introducing
        // op (or `instantiate`) ran, so the pass is O(op), not O(entries).
        let new_children: Vec<ObjectName> = match &op {
            ListOp::Insert { child, .. } => vec![*child],
            ListOp::ReplaceAll { entries } => entries.iter().map(|e| e.child).collect(),
            ListOp::Remove { .. } => Vec::new(),
        };
        for c in new_children {
            if let Ok(child) = self.get_mut(c) {
                child.parent = Some(target);
            }
        }
        Ok(())
    }

    fn apply_tuple_op(
        &mut self,
        target: ObjectName,
        vt: VirtualTime,
        op: TupleOp,
    ) -> Result<(), ApplyBlocked> {
        let obj = self.get_mut(target)?;
        let base: Arc<BTreeMap<String, ObjectName>> = obj
            .values
            .iter()
            .rev()
            .find(|e| e.vt < vt)
            .and_then(|e| e.value.tuple_arc())
            .unwrap_or_default();
        match obj.values.entry_at(vt) {
            Some(_) => {
                for e in obj.values.iter_mut_values() {
                    if e.vt == vt {
                        if let ObjectValue::Tuple { ops, .. } = &mut e.value {
                            if !ops.contains(&op) {
                                ops.push(op.clone());
                            }
                        }
                    }
                }
            }
            None => {
                obj.values.insert(
                    vt,
                    ObjectValue::Tuple {
                        entries: Default::default(),
                        ops: vec![op.clone()],
                    },
                );
            }
        }
        let mut state = base;
        for e in obj.values.iter_mut_values() {
            if e.vt < vt {
                continue;
            }
            if let ObjectValue::Tuple { entries, ops } = &mut e.value {
                for op in ops.iter() {
                    fold_tuple_op(Arc::make_mut(&mut state), op);
                }
                *entries = Arc::clone(&state);
            }
        }
        let new_children: Vec<ObjectName> = match &op {
            TupleOp::Put { child, .. } => vec![*child],
            TupleOp::ReplaceAll { entries } => entries.values().copied().collect(),
            TupleOp::Remove { .. } => Vec::new(),
        };
        for c in new_children {
            if let Ok(child) = self.get_mut(c) {
                child.parent = Some(target);
            }
        }
        Ok(())
    }

    /// Rolls back the write to `target` at `vt` (abort), destroying any
    /// children it created and re-folding composites.
    pub(crate) fn purge_write(&mut self, target: ObjectName, vt: VirtualTime) {
        let Ok(obj) = self.get_mut(target) else {
            return;
        };
        let Some(purged) = obj.values.purge(vt) else {
            return;
        };
        let mut orphans: Vec<ObjectName> = Vec::new();
        let mut withdrawn_tags: Vec<VirtualTime> = Vec::new();
        match purged {
            ObjectValue::List { ops, .. } => {
                for op in &ops {
                    match op {
                        ListOp::Insert { tag, child, .. } => {
                            orphans.push(*child);
                            withdrawn_tags.push(*tag);
                        }
                        ListOp::ReplaceAll { entries } => {
                            for e in entries {
                                orphans.push(e.child);
                                withdrawn_tags.push(e.tag);
                            }
                        }
                        ListOp::Remove { .. } => {}
                    }
                }
                self.refold_list(target, vt);
            }
            ObjectValue::Tuple { ops, .. } => {
                for op in &ops {
                    match op {
                        TupleOp::Put { child, .. } => orphans.push(*child),
                        TupleOp::ReplaceAll { entries } => {
                            orphans.extend(entries.values().copied())
                        }
                        TupleOp::Remove { .. } => {}
                    }
                }
                self.refold_tuple(target, vt);
            }
            _ => {}
        }
        if let Ok(obj) = self.get_mut(target) {
            for tag in withdrawn_tags {
                obj.embeddings.remove(&tag);
            }
        }
        for o in orphans {
            self.destroy_subtree(o);
        }
    }

    fn refold_list(&mut self, target: ObjectName, from: VirtualTime) {
        let Ok(obj) = self.get_mut(target) else {
            return;
        };
        // Rollback of the newest write re-folds nothing: the base handle
        // is shared, the loop body never runs, and the restore is O(1)
        // regardless of how many entries the composite holds.
        let base: Arc<Vec<ListEntry>> = obj
            .values
            .iter()
            .rev()
            .find(|e| e.vt < from)
            .and_then(|e| e.value.list_arc())
            .unwrap_or_default();
        let mut state = base;
        for e in obj.values.iter_mut_values() {
            if e.vt < from {
                continue;
            }
            if let ObjectValue::List { entries, ops } = &mut e.value {
                for op in ops.iter() {
                    fold_list_op(Arc::make_mut(&mut state), op);
                }
                *entries = Arc::clone(&state);
            }
        }
    }

    fn refold_tuple(&mut self, target: ObjectName, from: VirtualTime) {
        let Ok(obj) = self.get_mut(target) else {
            return;
        };
        let base: Arc<BTreeMap<String, ObjectName>> = obj
            .values
            .iter()
            .rev()
            .find(|e| e.vt < from)
            .and_then(|e| e.value.tuple_arc())
            .unwrap_or_default();
        let mut state = base;
        for e in obj.values.iter_mut_values() {
            if e.vt < from {
                continue;
            }
            if let ObjectValue::Tuple { entries, ops } = &mut e.value {
                for op in ops.iter() {
                    fold_tuple_op(Arc::make_mut(&mut state), op);
                }
                *entries = Arc::clone(&state);
            }
        }
    }

    /// Removes an object and its entire (current) subtree from the store.
    pub(crate) fn destroy_subtree(&mut self, name: ObjectName) {
        let children: Vec<ObjectName> = match self.objects.get(&name) {
            Some(obj) => obj
                .values
                .iter()
                .flat_map(|e| match &e.value {
                    ObjectValue::List { entries, .. } => {
                        entries.iter().map(|le| le.child).collect::<Vec<_>>()
                    }
                    ObjectValue::Tuple { entries, .. } => entries.values().copied().collect(),
                    _ => Vec::new(),
                })
                .collect(),
            None => return,
        };
        if let Some(gone) = self.objects.remove(&name).filter(|o| !o.unsettled) {
            uncount_settled(&mut self.settled_graph_sites, &gone);
        }
        for c in children {
            self.destroy_subtree(c);
        }
    }

    /// `name` plus every object currently embedded (transitively) under it
    /// — the read set of a view snapshot attached at `name`.
    pub(crate) fn subtree(&self, name: ObjectName) -> Vec<ObjectName> {
        let mut out = vec![name];
        let mut frontier = vec![name];
        while let Some(cur) = frontier.pop() {
            let children: Vec<ObjectName> = match self.objects.get(&cur) {
                Some(obj) => match obj.values.current().map(|e| &e.value) {
                    Some(ObjectValue::List { entries, .. }) => {
                        entries.iter().map(|e| e.child).collect()
                    }
                    Some(ObjectValue::Tuple { entries, .. }) => entries.values().copied().collect(),
                    _ => Vec::new(),
                },
                None => Vec::new(),
            };
            for c in children {
                out.push(c);
                frontier.push(c);
            }
        }
        out
    }

    /// `name`'s effective root as `site` names it, and the path down from
    /// there; `None` when the path cannot be built or the governing graph
    /// has no node at `site`.
    fn root_and_path_at(&self, name: ObjectName, site: SiteId) -> Option<(ObjectName, Path)> {
        let (root, path) = self.path_to(name).ok()?;
        let (graph, _) = self.effective_graph(root).ok()?;
        Some((graph.node_at(site)?.object, path))
    }

    /// Wire address of `name` from the perspective of `site` (for snapshot
    /// CONFIRM-READ requests and catch-up streaming).
    pub(crate) fn addr_at(&self, name: ObjectName, site: SiteId) -> Option<ObjectAddr> {
        let (root, path) = self.root_and_path_at(name, site)?;
        Some(object_addr(root, path))
    }

    /// Where `name`'s read guesses go, found the long way: up the `parent`
    /// links to the effective root, then down again for the path.
    fn guess_route(&self, name: ObjectName) -> Option<GuessRoute> {
        let primary = self.primary_of(name).ok()?;
        let there = (primary.site != self.site)
            .then(|| self.root_and_path_at(name, primary.site))
            .flatten();
        Some(GuessRoute { primary, there })
    }

    /// The read set of a snapshot over the attachment points `points`:
    /// [`Store::subtree`] of each in turn, in the same order. An indirect
    /// child inherits the route of the composite it was reached from, so a
    /// whole read set costs one traversal; only the attachment points,
    /// children that propagate directly, and children whose `parent` link
    /// points elsewhere go the long way ([`Store::guess_route`]).
    pub(crate) fn read_set(&self, points: impl IntoIterator<Item = ObjectName>) -> ReadSet {
        let mut out: Vec<ReadEntry> = Vec::new();
        // Entries whose children are still to be listed.
        let mut frontier: Vec<usize> = Vec::new();
        for point in points {
            let first = out.len();
            self.list_read(&mut out, &mut frontier, point, None);
            while let Some(at) = frontier.pop() {
                let cur = out[at].object;
                let value = self.objects.get(&cur).and_then(|o| o.values.current());
                match value.map(|e| &e.value) {
                    Some(ObjectValue::List { entries, .. }) => {
                        out.reserve(entries.len());
                        for (index, e) in entries.iter().enumerate() {
                            let elem = PathElem::Index { index, tag: e.tag };
                            self.list_read(&mut out, &mut frontier, e.child, Some((at, cur, elem)));
                        }
                    }
                    Some(ObjectValue::Tuple { entries, .. }) => {
                        out.reserve(entries.len());
                        for (key, child) in entries.iter() {
                            let elem = PathElem::Key(key.clone());
                            self.list_read(&mut out, &mut frontier, *child, Some((at, cur, elem)));
                        }
                    }
                    _ => {}
                }
            }
            debug_assert!(out[first..]
                .iter()
                .map(|e| e.object)
                .eq(self.subtree(point)));
        }
        ReadSet { entries: out }
    }

    /// Appends the read-set entry of `name` — reached, unless it is an
    /// attachment point, from the composite `cur` at entry `from` through
    /// `elem` — and puts it on the frontier if it holds children of its
    /// own (an object that holds none would add nothing when popped).
    fn list_read(
        &self,
        out: &mut Vec<ReadEntry>,
        frontier: &mut Vec<usize>,
        name: ObjectName,
        reached: Option<(usize, ObjectName, PathElem)>,
    ) {
        let obj = self.objects.get(&name);
        let value = obj.and_then(|o| o.values.current());
        let inherits = |cur| {
            obj.is_some_and(|o| o.parent == Some(cur) && o.propagation == PropagationMode::Indirect)
        };
        let route = match reached {
            Some((from, cur, elem)) if inherits(cur) => EntryRoute::Under { from, elem },
            _ => EntryRoute::Own(self.guess_route(name)),
        };
        if let Some(ObjectValue::List { .. } | ObjectValue::Tuple { .. }) = value.map(|e| &e.value)
        {
            frontier.push(out.len());
        }
        out.push(ReadEntry {
            object: name,
            current: value.map(|e| (e.vt, e.committed)),
            route,
        });
    }

    /// All ancestors of `name` (nearest first), for ancestor view
    /// notification ("a view attached to a composite receives notifications
    /// for changes to any of its children", §2.5).
    pub(crate) fn ancestors(&self, name: ObjectName) -> Vec<ObjectName> {
        let mut out = Vec::new();
        let mut cur = name;
        while let Some(p) = self.objects.get(&cur).and_then(|o| o.parent) {
            out.push(p);
            cur = p;
        }
        out
    }
}

fn fold_list_op(state: &mut Vec<ListEntry>, op: &ListOp) {
    match op {
        ListOp::Insert { index, tag, child } => {
            if state.iter().any(|e| e.tag == *tag && e.child == *child) {
                return; // idempotent redelivery
            }
            let pos = (*index).min(state.len());
            state.insert(
                pos,
                ListEntry {
                    tag: *tag,
                    child: *child,
                },
            );
        }
        ListOp::Remove { tag } => {
            state.retain(|e| e.tag != *tag);
        }
        ListOp::ReplaceAll { entries } => {
            *state = entries.clone();
        }
    }
}

fn fold_tuple_op(state: &mut BTreeMap<String, ObjectName>, op: &TupleOp) {
    match op {
        TupleOp::Put { key, child } => {
            state.insert(key.clone(), *child);
        }
        TupleOp::Remove { key } => {
            state.remove(key);
        }
        TupleOp::ReplaceAll { entries } => {
            *state = entries.clone();
        }
    }
}

fn kind_of_snapshot(snap: &TreeSnapshot) -> ObjectKind {
    match snap {
        TreeSnapshot::Scalar(ScalarValue::Int(_)) => ObjectKind::Int,
        TreeSnapshot::Scalar(ScalarValue::Real(_)) => ObjectKind::Real,
        TreeSnapshot::Scalar(ScalarValue::Str(_)) => ObjectKind::Str,
        TreeSnapshot::List(_) => ObjectKind::List,
        TreeSnapshot::Tuple(_) => ObjectKind::Tuple,
        TreeSnapshot::Assoc(_) => ObjectKind::Association,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vt(n: u64) -> VirtualTime {
        VirtualTime::new(n, SiteId(1))
    }

    fn store() -> Store {
        Store::new(SiteId(1))
    }

    #[test]
    fn create_root_has_committed_value_and_singleton_graph() {
        let mut s = store();
        let n = s.create_root(ObjectKind::Int, ObjectValue::Scalar(ScalarValue::Int(5)));
        let (v, wvt, committed) = s.scalar_at(n, None).unwrap();
        assert_eq!(v, ScalarValue::Int(5));
        assert_eq!(wvt, VirtualTime::ZERO);
        assert!(committed);
        let (g, tg) = s.effective_graph(n).unwrap();
        assert_eq!(g.len(), 1);
        assert_eq!(tg, VirtualTime::ZERO);
        assert_eq!(s.primary_of(n).unwrap().site, SiteId(1));
    }

    #[test]
    fn scalar_set_and_read_back() {
        let mut s = store();
        let n = s.create_root(ObjectKind::Int, ObjectValue::Scalar(ScalarValue::Int(0)));
        s.apply_wire_op(n, vt(10), &WireOp::SetScalar(ScalarValue::Int(7)))
            .unwrap();
        assert_eq!(s.scalar_at(n, None).unwrap().0, ScalarValue::Int(7));
        assert_eq!(
            s.scalar_at(n, Some(vt(5))).unwrap().0,
            ScalarValue::Int(0),
            "as-of read sees the older value"
        );
    }

    #[test]
    fn list_insert_creates_child_with_parent_link() {
        let mut s = store();
        let l = s.create_root(ObjectKind::List, ObjectValue::empty_list());
        s.apply_wire_op(
            l,
            vt(10),
            &WireOp::ListInsert {
                index: usize::MAX,
                child: Blueprint::Int(1),
            },
        )
        .unwrap();
        let entries = {
            let obj = s.get(l).unwrap();
            obj.values
                .current()
                .unwrap()
                .value
                .as_list()
                .unwrap()
                .to_vec()
        };
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].tag, vt(10));
        let child = entries[0].child;
        assert_eq!(s.get(child).unwrap().parent, Some(l));
        assert_eq!(s.effective_root(child).unwrap(), l);
        let (root, path) = s.path_to(child).unwrap();
        assert_eq!(root, l);
        assert_eq!(
            path.elems(),
            vec![PathElem::Index {
                index: 0,
                tag: vt(10)
            }]
        );
    }

    #[test]
    fn straggler_insert_refolds_earlier_position() {
        let mut s = store();
        let l = s.create_root(ObjectKind::List, ObjectValue::empty_list());
        // Append at vt 20 arrives first...
        s.apply_wire_op(
            l,
            vt(20),
            &WireOp::ListInsert {
                index: 0,
                child: Blueprint::Int(2),
            },
        )
        .unwrap();
        // ... then a straggling insert at vt 10, also at position 0.
        s.apply_wire_op(
            l,
            vt(10),
            &WireOp::ListInsert {
                index: 0,
                child: Blueprint::Int(1),
            },
        )
        .unwrap();
        let obj = s.get(l).unwrap();
        let cur = obj.values.current().unwrap().value.as_list().unwrap();
        // Folding in VT order: [1] then insert 2 at 0 → [2, 1].
        assert_eq!(cur.len(), 2);
        assert_eq!(cur[0].tag, vt(20));
        assert_eq!(cur[1].tag, vt(10));
        // The as-of state at vt 15 contains only the vt-10 entry.
        let at15 = obj
            .values
            .value_at(vt(15))
            .unwrap()
            .value
            .as_list()
            .unwrap();
        assert_eq!(at15.len(), 1);
        assert_eq!(at15[0].tag, vt(10));
    }

    #[test]
    fn list_remove_by_tag_and_blocking_on_unknown_tag() {
        let mut s = store();
        let l = s.create_root(ObjectKind::List, ObjectValue::empty_list());
        // Removing a tag we have never seen blocks (straggler ordering).
        let blocked = s.apply_wire_op(l, vt(30), &WireOp::ListRemove { tag: vt(10) });
        assert_eq!(
            blocked.unwrap_err(),
            ApplyBlocked::MissingDependency(Some(vt(10)))
        );
        s.apply_wire_op(
            l,
            vt(10),
            &WireOp::ListInsert {
                index: 0,
                child: Blueprint::Int(1),
            },
        )
        .unwrap();
        s.apply_wire_op(l, vt(30), &WireOp::ListRemove { tag: vt(10) })
            .unwrap();
        let obj = s.get(l).unwrap();
        assert!(obj
            .values
            .current()
            .unwrap()
            .value
            .as_list()
            .unwrap()
            .is_empty());
    }

    #[test]
    fn purge_rolls_back_composite_and_destroys_children() {
        let mut s = store();
        let l = s.create_root(ObjectKind::List, ObjectValue::empty_list());
        s.apply_wire_op(
            l,
            vt(10),
            &WireOp::ListInsert {
                index: 0,
                child: Blueprint::List(vec![Blueprint::Int(1), Blueprint::Int(2)]),
            },
        )
        .unwrap();
        let child = s
            .get(l)
            .unwrap()
            .values
            .current()
            .unwrap()
            .value
            .as_list()
            .unwrap()[0]
            .child;
        assert!(s.contains(child));
        s.purge_write(l, vt(10));
        assert!(!s.contains(child), "aborted insert's subtree destroyed");
        assert!(s
            .get(l)
            .unwrap()
            .values
            .current()
            .unwrap()
            .value
            .as_list()
            .unwrap()
            .is_empty());
    }

    #[test]
    fn tuple_put_get_remove_roundtrip() {
        let mut s = store();
        let t = s.create_root(ObjectKind::Tuple, ObjectValue::empty_tuple());
        s.apply_wire_op(
            t,
            vt(10),
            &WireOp::TuplePut {
                key: "name".into(),
                child: Blueprint::str("alice"),
            },
        )
        .unwrap();
        let child = *s
            .get(t)
            .unwrap()
            .values
            .current()
            .unwrap()
            .value
            .as_tuple()
            .unwrap()
            .get("name")
            .unwrap();
        assert_eq!(
            s.scalar_at(child, None).unwrap().0,
            ScalarValue::from("alice")
        );
        let (root, path) = s.path_to(child).unwrap();
        assert_eq!(root, t);
        assert_eq!(path.elems(), vec![PathElem::Key("name".into())]);
        s.apply_wire_op(t, vt(20), &WireOp::TupleRemove { key: "name".into() })
            .unwrap();
        assert!(s
            .get(t)
            .unwrap()
            .values
            .current()
            .unwrap()
            .value
            .as_tuple()
            .unwrap()
            .is_empty());
    }

    #[test]
    fn resolve_indirect_by_tag_not_index() {
        let mut s = store();
        let l = s.create_root(ObjectKind::List, ObjectValue::empty_list());
        for (i, t) in [(0usize, 10u64), (0, 20), (0, 30)] {
            s.apply_wire_op(
                l,
                vt(t),
                &WireOp::ListInsert {
                    index: i,
                    child: Blueprint::Int(t as i64),
                },
            )
            .unwrap();
        }
        // Current order: [30, 20, 10]. An address formed when 10 was at
        // index 0 still resolves via its tag.
        let addr = ObjectAddr::Indirect {
            root: l,
            path: Path::from(vec![PathElem::Index {
                index: 0,
                tag: vt(10),
            }]),
        };
        let resolved = s.resolve(&addr).unwrap();
        assert_eq!(s.scalar_at(resolved, None).unwrap().0, ScalarValue::Int(10));
        // Unknown tag blocks.
        let addr2 = ObjectAddr::Indirect {
            root: l,
            path: Path::from(vec![PathElem::Index {
                index: 0,
                tag: vt(99),
            }]),
        };
        assert!(matches!(
            s.resolve(&addr2),
            Err(ApplyBlocked::MissingDependency(Some(t))) if t == vt(99)
        ));
    }

    #[test]
    fn tree_snapshot_roundtrip_through_instantiate() {
        let mut s = store();
        let l = s.create_root(ObjectKind::List, ObjectValue::empty_list());
        s.apply_wire_op(
            l,
            vt(10),
            &WireOp::ListInsert {
                index: 0,
                child: Blueprint::Tuple(vec![("x".into(), Blueprint::Int(7))]),
            },
        )
        .unwrap();
        let snap = s.tree_snapshot(l, None).unwrap();
        // Adopt into a second store, as join does.
        let mut s2 = Store::new(SiteId(2));
        let l2 = s2.create_root(ObjectKind::List, ObjectValue::empty_list());
        s2.apply_wire_op(l2, vt(40), &WireOp::SetTree(snap))
            .unwrap();
        let entries = s2
            .get(l2)
            .unwrap()
            .values
            .current()
            .unwrap()
            .value
            .as_list()
            .unwrap()
            .to_vec();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].tag, vt(10), "embedding tags preserved");
        let tuple = entries[0].child;
        let x = *s2
            .get(tuple)
            .unwrap()
            .values
            .current()
            .unwrap()
            .value
            .as_tuple()
            .unwrap()
            .get("x")
            .unwrap();
        assert_eq!(s2.scalar_at(x, None).unwrap().0, ScalarValue::Int(7));
    }

    #[test]
    fn kind_mismatch_is_fatal() {
        let mut s = store();
        let n = s.create_root(ObjectKind::Int, ObjectValue::Scalar(ScalarValue::Int(0)));
        let err = s
            .apply_wire_op(
                n,
                vt(10),
                &WireOp::ListInsert {
                    index: 0,
                    child: Blueprint::Int(1),
                },
            )
            .unwrap_err();
        assert!(matches!(err, ApplyBlocked::Fatal(_)));
    }

    #[test]
    fn ancestors_walk_to_root() {
        let mut s = store();
        let l = s.create_root(ObjectKind::List, ObjectValue::empty_list());
        s.apply_wire_op(
            l,
            vt(10),
            &WireOp::ListInsert {
                index: 0,
                child: Blueprint::List(vec![Blueprint::Int(3)]),
            },
        )
        .unwrap();
        let mid = s
            .get(l)
            .unwrap()
            .values
            .current()
            .unwrap()
            .value
            .as_list()
            .unwrap()[0]
            .child;
        let leaf = s
            .get(mid)
            .unwrap()
            .values
            .current()
            .unwrap()
            .value
            .as_list()
            .unwrap()[0]
            .child;
        assert_eq!(s.ancestors(leaf), vec![mid, l]);
        assert!(s.ancestors(l).is_empty());
    }
}

#[cfg(test)]
mod embedding_tests {
    use super::*;

    fn vt(n: u64) -> VirtualTime {
        VirtualTime::new(n, SiteId(1))
    }

    fn list_store() -> (Store, ObjectName) {
        list_store_at(SiteId(1))
    }

    fn list_store_at(site: SiteId) -> (Store, ObjectName) {
        let mut s = Store::new(site);
        let l = s.create_root(ObjectKind::List, ObjectValue::empty_list());
        (s, l)
    }

    #[test]
    fn registry_tracks_inserts_and_survives_removal() {
        let (mut s, l) = list_store();
        s.apply_wire_op(
            l,
            vt(10),
            &WireOp::ListInsert {
                index: 0,
                child: Blueprint::Int(1),
            },
        )
        .unwrap();
        let child = s.find_list_child_by_tag(l, vt(10)).expect("registered");
        s.apply_wire_op(l, vt(20), &WireOp::ListRemove { tag: vt(10) })
            .unwrap();
        assert_eq!(
            s.find_list_child_by_tag(l, vt(10)),
            Some(child),
            "registry survives removal (tombstone resolution)"
        );
        assert!(s.contains(child), "removed child object is retained");
    }

    #[test]
    fn registry_withdraws_aborted_embeddings() {
        let (mut s, l) = list_store();
        s.apply_wire_op(
            l,
            vt(10),
            &WireOp::ListInsert {
                index: 0,
                child: Blueprint::Int(1),
            },
        )
        .unwrap();
        s.purge_write(l, vt(10)); // the embedding transaction aborted
        assert_eq!(
            s.find_list_child_by_tag(l, vt(10)),
            None,
            "aborted embeddings must not resolve"
        );
    }

    #[test]
    fn registry_survives_history_gc() {
        let (mut s, l) = list_store();
        s.apply_wire_op(
            l,
            vt(10),
            &WireOp::ListInsert {
                index: 0,
                child: Blueprint::Int(1),
            },
        )
        .unwrap();
        s.apply_wire_op(l, vt(20), &WireOp::ListRemove { tag: vt(10) })
            .unwrap();
        {
            let obj = s.get_mut(l).unwrap();
            obj.values.mark_committed(vt(10));
            obj.values.mark_committed(vt(20));
            obj.values.gc(vt(100));
        }
        assert_eq!(s.get(l).unwrap().values.len(), 1, "history collapsed");
        assert!(
            s.find_list_child_by_tag(l, vt(10)).is_some(),
            "tag still resolves after GC"
        );
    }

    #[test]
    fn subtree_lists_every_descendant() {
        let (mut s, l) = list_store();
        s.apply_wire_op(
            l,
            vt(10),
            &WireOp::ListInsert {
                index: 0,
                child: Blueprint::List(vec![Blueprint::Int(1), Blueprint::Int(2)]),
            },
        )
        .unwrap();
        let tree = s.subtree(l);
        assert_eq!(tree.len(), 4, "root + inner list + two ints: {tree:?}");
        assert_eq!(tree[0], l, "root first");
    }

    /// `l`, of a store at site 3, replicated at site 2 too, whose copy (the
    /// least node) is the primary.
    fn replicate_at_site_2(s: &mut Store, l: ObjectName) -> ObjectName {
        let there = ObjectName::new(SiteId(2), 7);
        let (here, peer) = (NodeRef::new(s.site, l), NodeRef::new(SiteId(2), there));
        assert!(peer < here, "the copy at site 2 is the primary");
        let graph = ReplicationGraph::singleton(here).joined_with(
            &ReplicationGraph::singleton(peer),
            here,
            peer,
            crate::collab::RelationId(1),
        );
        s.get_mut(l).unwrap().graphs.insert_committed(vt(1), graph);
        there
    }

    #[test]
    fn read_set_routes_equal_the_long_way_for_every_object() {
        let (mut s, l) = list_store_at(SiteId(3));
        let there = replicate_at_site_2(&mut s, l);
        let row = |n| {
            Blueprint::Tuple(vec![
                ("a".into(), Blueprint::Int(n)),
                ("b".into(), Blueprint::List(vec![Blueprint::Int(n)])),
            ])
        };
        for (i, at) in [10, 20, 30].into_iter().enumerate() {
            let op = WireOp::ListInsert {
                index: usize::MAX,
                child: row(i as i64),
            };
            s.apply_wire_op(l, vt(at), &op).unwrap();
        }
        let rows: Vec<ObjectName> = s
            .get(l)
            .unwrap()
            .values
            .current()
            .unwrap()
            .value
            .as_list()
            .unwrap()
            .iter()
            .map(|e| e.child)
            .collect();
        // One row collaborates on its own (its subtree is governed by its
        // own graph, primary here); another's parent link points at a
        // composite that does not hold it, so it has no path.
        let own = s.get_mut(rows[1]).unwrap();
        own.propagation = PropagationMode::Direct;
        own.graphs.insert_committed(
            VirtualTime::ZERO,
            ReplicationGraph::singleton(NodeRef::new(SiteId(3), rows[1])),
        );
        s.get_mut(rows[2]).unwrap().parent = Some(rows[0]);

        // A committed value and a fresh write among the uncommitted ones.
        s.get_mut(l).unwrap().values.mark_committed(vt(30));
        s.apply_wire_op(
            s.subtree(rows[0])[1],
            vt(40),
            &WireOp::SetScalar(ScalarValue::Int(9)),
        )
        .unwrap();

        let set = s.read_set([l]);
        assert_eq!(
            set.entries().iter().map(|e| e.object).collect::<Vec<_>>(),
            s.subtree(l),
            "subtree order"
        );
        assert_eq!(set.entries().len(), 1 + 3 * 4);
        let mut remote = 0;
        for (i, e) in set.entries().iter().enumerate() {
            let o = e.object;
            assert_eq!(set.primary(i), s.primary_of(o).ok(), "{o}");
            let primary = set.primary(i).expect("every object has a primary");
            if primary.site != SiteId(3) {
                remote += 1;
                assert_eq!(set.addr(i), s.addr_at(o, SiteId(2)), "{o}");
            }
            let current = s.get(o).unwrap().values.current();
            assert_eq!(e.current, current.map(|c| (c.vt, c.committed)), "{o}");
        }
        assert_eq!(remote, 1 + 4 + 4, "all but the row with its own graph");
        assert_eq!(s.addr_at(rows[2], SiteId(2)), None);
        assert_eq!(set.addr(0), Some(ObjectAddr::Direct(there)));
        let written: Vec<_> = set.entries().iter().filter_map(|e| e.current).collect();
        assert_eq!(written.iter().filter(|c| **c == (vt(40), false)).count(), 1);
        assert_eq!(set.entries()[0].current, Some((vt(30), true)));

        // Two attachment points: one set, each point's subtree in turn.
        let both = s.read_set([rows[0], l]);
        let objects: Vec<ObjectName> = both.entries().iter().map(|e| e.object).collect();
        assert_eq!(objects, [s.subtree(rows[0]), s.subtree(l)].concat());
        for (i, e) in both.entries().iter().enumerate() {
            assert_eq!(both.primary(i), s.primary_of(e.object).ok());
            assert_eq!(both.addr(i), s.addr_at(e.object, SiteId(2)), "{}", e.object);
        }
    }

    #[test]
    fn resolve_finds_a_child_the_index_hint_misses_without_scanning() {
        let (mut s, l) = list_store();
        for at in 1..=8 {
            let op = WireOp::ListInsert {
                index: usize::MAX,
                child: Blueprint::Int(at as i64),
            };
            s.apply_wire_op(l, vt(at * 10), &op).unwrap();
        }
        let children = s.subtree(l);
        s.apply_wire_op(l, vt(100), &WireOp::ListRemove { tag: vt(20) })
            .unwrap();
        let at = |index: usize, tag: u64| ObjectAddr::Indirect {
            root: l,
            path: Path::from(vec![PathElem::Index {
                index,
                tag: vt(tag),
            }]),
        };
        let entries = s.get(l).unwrap().values.current().unwrap();
        let entries = entries.value.as_list().unwrap().to_vec();
        // The hint is three places off: the registry names the child the
        // scan of the list would have found.
        let scanned = entries.iter().find(|e| e.tag == vt(60)).unwrap().child;
        assert_eq!(s.find_list_child_by_tag(l, vt(60)), Some(scanned));
        assert_eq!(s.resolve(&at(1, 60)), Ok(scanned));
        assert_eq!(scanned, children[6]);
        // A right hint is taken as it is.
        assert_eq!(s.resolve(&at(4, 60)), Ok(scanned));
        // The removed child is in no current entry and still resolves.
        assert!(entries.iter().all(|e| e.tag != vt(20)));
        assert_eq!(s.resolve(&at(1, 20)), Ok(children[2]));
        // A blueprint's children were never embedded by a list op: no
        // registry entry, found by the scan.
        let op = WireOp::ListInsert {
            index: 0,
            child: Blueprint::List(vec![Blueprint::Int(0)]),
        };
        s.apply_wire_op(l, vt(110), &op).unwrap();
        let inner = s.find_list_child_by_tag(l, vt(110)).unwrap();
        assert_eq!(s.find_list_child_by_tag(inner, vt(110)), None);
        let nested = ObjectAddr::Indirect {
            root: l,
            path: Path::from(vec![
                PathElem::Index {
                    index: 0,
                    tag: vt(110),
                },
                PathElem::Index {
                    index: 3,
                    tag: vt(110),
                },
            ]),
        };
        assert_eq!(s.resolve(&nested), Ok(s.subtree(inner)[1]));
        assert!(matches!(
            s.resolve(&at(0, 999)),
            Err(ApplyBlocked::MissingDependency(Some(t))) if t == vt(999)
        ));
    }

    #[test]
    fn name_hasher_spreads_the_names_sites_allocate() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        // Three sites' first 4 096 names: the map takes its bucket from the
        // low bits of a hash and its control byte from the top seven.
        let hasher = BuildHasherDefault::<NameHasher>::default();
        let (mut low, mut high) = (vec![0u32; 1 << 12], [0u32; 128]);
        for site in 1..=3 {
            for seq in 0..4096 {
                let h = hasher.hash_one(ObjectName::new(SiteId(site), seq));
                low[(h & 0xfff) as usize] += 1;
                high[(h >> 57) as usize] += 1;
            }
        }
        // Twelve thousand balls in four thousand bins: a uniform hash leaves
        // about one bin in twenty empty and fills none past a dozen or so.
        assert!(low.iter().filter(|n| **n == 0).count() < 400);
        assert!(*low.iter().max().unwrap() <= 16);
        assert!(high.iter().all(|n| (48..=144).contains(n)), "{high:?}");
        // The generic path hashes what the fixed-width ones do.
        let (mut a, mut b) = (NameHasher::default(), NameHasher::default());
        a.write(&7u64.to_le_bytes());
        b.write_u64(7);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn settled_objects_leave_the_sweep_list_and_come_back_when_touched() {
        let (mut s, l) = list_store_at(SiteId(3));
        replicate_at_site_2(&mut s, l);
        for at in [10, 20] {
            let op = WireOp::ListInsert {
                index: usize::MAX,
                child: Blueprint::Int(at as i64),
            };
            s.apply_wire_op(l, vt(at), &op).unwrap();
        }
        assert_eq!(s.unsettled.len(), 3, "everything is listed on insert");
        let both: BTreeSet<SiteId> = [SiteId(2), SiteId(3)].into();
        assert_eq!(s.graph_sites(), both);

        // Uncommitted history stays; the children are settled already.
        assert_eq!(s.sweep(vt(100)), 1, "the graph before the join");
        assert_eq!(s.unsettled, vec![l]);
        for at in [10, 20] {
            s.get_mut(l).unwrap().values.mark_committed(vt(at));
        }
        assert_eq!(s.sweep(vt(100)), 2, "the list values before the last");
        assert!(s.unsettled.is_empty());
        assert_eq!(
            s.graph_sites(),
            both,
            "now from the settled objects' counts"
        );
        assert_eq!(s.sweep(vt(200)), 0);

        // A reservation unsettles its object until it is released or
        // collected; nothing else is walked meanwhile.
        let child = s.subtree(l)[1];
        s.get_mut(child)
            .unwrap()
            .value_reservations
            .reserve(vt(10), vt(150), vt(151));
        assert_eq!(s.unsettled, vec![child]);
        s.sweep(vt(120));
        assert_eq!(s.unsettled, vec![child], "the reservation is still live");
        s.release_reservations(vt(151));
        assert_eq!(s.get(child).unwrap().value_reservations.len(), 0);
        s.sweep(vt(120));
        assert!(s.unsettled.is_empty());

        // A settled object's sites go with it when it is destroyed.
        s.destroy_subtree(l);
        assert!(s.graph_sites().is_empty());
        assert_eq!(s.sweep(vt(300)), 0);
    }
}
