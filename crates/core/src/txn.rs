//! Transactions: atomic multi-object updates (paper §2.4, §3.1).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use decaf_vt::{SiteId, VirtualTime};

use crate::collab::RelationInfo;
use crate::error::{DecafError, TxnError};
use crate::message::WireOp;
use crate::object::{Blueprint, ObjectKind, ObjectName, ObjectValue};
use crate::store::Store;
use crate::value::ScalarValue;

/// A user-defined transaction object.
///
/// "Application programmers may define transaction objects, with their
/// associated execute method, for actions that need to execute atomically
/// with respect to updates from other users. The execute method may contain
/// arbitrary code to read and write model objects" (§2.4).
///
/// The infrastructure may call [`execute`](Transaction::execute) **more
/// than once**: a transaction aborted by a concurrency-control conflict "is
/// automatically reexecuted at the originating site", so the body must be a
/// pure function of its inputs and the model-object state it reads.
/// Returning `Err` aborts *without* retry (the analogue of throwing an
/// exception), after which [`handle_abort`](Transaction::handle_abort) is
/// invoked.
///
/// # Example
///
/// The paper's `XferTrans` (Fig. 2), transferring between two balances:
///
/// ```
/// use decaf_core::{ObjectName, Transaction, TxnCtx, TxnError};
///
/// struct XferTrans {
///     from: ObjectName,
///     to: ObjectName,
///     amount: f64,
/// }
///
/// impl Transaction for XferTrans {
///     fn execute(&mut self, ctx: &mut TxnCtx<'_>) -> Result<(), TxnError> {
///         let a = ctx.read_real(self.from)?;
///         if a - self.amount < 0.0 {
///             return Err(TxnError::app("can't transfer more than balance"));
///         }
///         let b = ctx.read_real(self.to)?;
///         ctx.write_real(self.from, a - self.amount)?;
///         ctx.write_real(self.to, b + self.amount)?;
///         Ok(())
///     }
///
///     fn handle_abort(&mut self, reason: &decaf_core::AbortReason) {
///         eprintln!("transfer aborted: {reason}");
///     }
/// }
/// ```
pub trait Transaction: Send + 'static {
    /// The transaction body: read and write model objects through `ctx`.
    ///
    /// # Errors
    ///
    /// Returning an error aborts the transaction without retry.
    fn execute(&mut self, ctx: &mut TxnCtx<'_>) -> Result<(), TxnError>;

    /// Called when the transaction is aborted *without retry* — an
    /// application abort, a retry-budget exhaustion, or an unrecoverable
    /// failure — "so that the user can be notified if desired" (§2.4).
    fn handle_abort(&mut self, reason: &AbortReason) {
        let _ = reason;
    }
}

/// Handle identifying a submitted transaction across its retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnHandle {
    /// Originating site.
    pub site: SiteId,
    /// Site-local transaction number (stable across retries; each retry
    /// gets a fresh *virtual time* but keeps this handle).
    pub id: u64,
}

impl fmt::Display for TxnHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}.{}", self.site.0, self.id)
    }
}

/// Final outcome of a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxnOutcome {
    /// All guesses confirmed; effects are permanent everywhere.
    Committed,
    /// A guess was denied or the application aborted; effects were undone.
    Aborted,
}

impl fmt::Display for TxnOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TxnOutcome::Committed => "committed",
            TxnOutcome::Aborted => "aborted",
        })
    }
}

/// Why a transaction was aborted.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AbortReason {
    /// An RL or NC guess was denied at a primary copy (retried
    /// automatically; surfaced only if the retry budget runs out).
    Conflict,
    /// A transaction whose uncommitted value this one read (RC guess)
    /// aborted, cascading into this one (retried automatically).
    DependencyAborted(VirtualTime),
    /// The application aborted (no retry).
    Application(TxnError),
    /// The primary site coordinating the transaction failed before commit
    /// (§3.4); retried after graph repair.
    PrimaryFailed(SiteId),
    /// The automatic-retry budget was exhausted.
    RetriesExhausted(u32),
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbortReason::Conflict => write!(f, "concurrency-control conflict"),
            AbortReason::DependencyAborted(vt) => {
                write!(f, "read value written by aborted transaction {vt}")
            }
            AbortReason::Application(e) => write!(f, "{e}"),
            AbortReason::PrimaryFailed(s) => write!(f, "primary site {s} failed"),
            AbortReason::RetriesExhausted(n) => write!(f, "gave up after {n} retries"),
        }
    }
}

/// What the transaction recorded about one object it read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ReadRec {
    /// `tR`: VT of the value read.
    pub t_r: VirtualTime,
    /// `tG`: VT of the replication graph observed.
    pub t_g: VirtualTime,
    /// RC guess: the uncommitted writer this read depends on, if any.
    pub rc: Option<VirtualTime>,
}

/// One write performed by the transaction (already applied locally).
#[derive(Debug, Clone)]
pub(crate) struct WriteRec {
    pub object: ObjectName,
    pub op: WireOp,
}

/// Everything a transaction's execution recorded, from which the engine
/// builds the propagation messages.
#[derive(Debug, Default)]
pub(crate) struct Recording {
    pub reads: BTreeMap<ObjectName, ReadRec>,
    pub writes: Vec<WriteRec>,
    /// Per written object: `(tR, tG)` — read time (or the txn's own VT for
    /// blind writes) and observed graph time.
    pub write_meta: BTreeMap<ObjectName, (VirtualTime, VirtualTime)>,
    /// Objects written (for rollback on abort).
    pub touched: BTreeSet<ObjectName>,
    /// Structural RC dependencies: transactions whose effects this one's
    /// operations reference by tag (e.g. a list remove depends on the
    /// uncommitted insert that created the removed entry, §3.2.1).
    pub extra_rc: BTreeSet<VirtualTime>,
}

impl Recording {
    /// RC guesses: all distinct uncommitted writer VTs this txn read, plus
    /// explicit structural dependencies.
    pub(crate) fn rc_dependencies(&self) -> BTreeSet<VirtualTime> {
        self.reads
            .values()
            .filter_map(|r| r.rc)
            .chain(self.extra_rc.iter().copied())
            .collect()
    }
}

/// The execution context handed to [`Transaction::execute`].
///
/// Every read is recorded (for RL/RC guesses) and every write is applied
/// optimistically to the local replica at the transaction's VT, then
/// propagated by the engine after the body returns.
#[derive(Debug)]
pub struct TxnCtx<'a> {
    pub(crate) vt: VirtualTime,
    pub(crate) store: &'a mut Store,
    pub(crate) rec: &'a mut Recording,
}

impl<'a> TxnCtx<'a> {
    fn record_read(&mut self, object: ObjectName) -> Result<(), TxnError> {
        if self.rec.write_meta.contains_key(&object) || self.rec.reads.contains_key(&object) {
            return Ok(()); // own write or already recorded
        }
        let entry = {
            let obj = self.store.get(object)?;
            let e = obj
                .values
                .current()
                .ok_or(DecafError::Uninitialized(object))?;
            (e.vt, e.committed)
        };
        let (_, t_g) = self.store.effective_graph(object)?;
        let rc = if entry.1 || entry.0 == self.vt {
            None
        } else {
            Some(entry.0)
        };
        self.rec.reads.insert(
            object,
            ReadRec {
                t_r: entry.0,
                t_g,
                rc,
            },
        );
        Ok(())
    }

    fn record_write(&mut self, object: ObjectName, op: WireOp) -> Result<(), TxnError> {
        if !self.rec.write_meta.contains_key(&object) {
            let t_r = match self.rec.reads.get(&object) {
                Some(r) => r.t_r,
                None => self.vt, // blind write: tR = tT (§3.1)
            };
            let (_, t_g) = self.store.effective_graph(object)?;
            self.rec.write_meta.insert(object, (t_r, t_g));
        }
        let changed = self
            .store
            .apply_wire_op(object, self.vt, &op)
            .map_err(|e| match e {
                crate::store::ApplyBlocked::Fatal(d) => TxnError::Decaf(d),
                crate::store::ApplyBlocked::MissingDependency(_) => {
                    TxnError::Decaf(DecafError::NoSuchObject(object))
                }
            })?;
        // Created children belong to this transaction: roll back and
        // commit together with the composite.
        self.rec.touched.extend(changed);
        self.rec.writes.push(WriteRec { object, op });
        Ok(())
    }

    // ---- scalars ---------------------------------------------------------

    /// Reads an integer model object.
    ///
    /// # Errors
    ///
    /// Fails if the object is missing or not an integer.
    pub fn read_int(&mut self, object: ObjectName) -> Result<i64, TxnError> {
        self.record_read(object)?;
        let (v, ..) = self.store.scalar_at(object, Some(self.vt))?;
        v.as_int().ok_or({
            TxnError::Decaf(DecafError::KindMismatch {
                object,
                expected: "int",
            })
        })
    }

    /// Reads a real model object.
    ///
    /// # Errors
    ///
    /// Fails if the object is missing or not a real.
    pub fn read_real(&mut self, object: ObjectName) -> Result<f64, TxnError> {
        self.record_read(object)?;
        let (v, ..) = self.store.scalar_at(object, Some(self.vt))?;
        v.as_real().ok_or({
            TxnError::Decaf(DecafError::KindMismatch {
                object,
                expected: "real",
            })
        })
    }

    /// Reads a string model object.
    ///
    /// # Errors
    ///
    /// Fails if the object is missing or not a string.
    pub fn read_str(&mut self, object: ObjectName) -> Result<String, TxnError> {
        self.record_read(object)?;
        let (v, ..) = self.store.scalar_at(object, Some(self.vt))?;
        match v {
            ScalarValue::Str(s) => Ok(s),
            _ => Err(TxnError::Decaf(DecafError::KindMismatch {
                object,
                expected: "string",
            })),
        }
    }

    /// Writes an integer model object.
    ///
    /// # Errors
    ///
    /// Fails if the object is missing or not an integer.
    pub fn write_int(&mut self, object: ObjectName, v: i64) -> Result<(), TxnError> {
        self.check_scalar_kind(object, ObjectKind::Int)?;
        self.record_write(object, WireOp::SetScalar(ScalarValue::Int(v)))
    }

    /// Writes a real model object.
    ///
    /// # Errors
    ///
    /// Fails if the object is missing or not a real.
    pub fn write_real(&mut self, object: ObjectName, v: f64) -> Result<(), TxnError> {
        self.check_scalar_kind(object, ObjectKind::Real)?;
        self.record_write(object, WireOp::SetScalar(ScalarValue::Real(v)))
    }

    /// Writes a string model object.
    ///
    /// # Errors
    ///
    /// Fails if the object is missing or not a string.
    pub fn write_str(&mut self, object: ObjectName, v: impl Into<String>) -> Result<(), TxnError> {
        self.check_scalar_kind(object, ObjectKind::Str)?;
        self.record_write(object, WireOp::SetScalar(ScalarValue::Str(v.into())))
    }

    fn check_scalar_kind(&self, object: ObjectName, kind: ObjectKind) -> Result<(), TxnError> {
        let obj = self.store.get(object)?;
        if obj.kind == kind {
            Ok(())
        } else {
            Err(TxnError::Decaf(DecafError::KindMismatch {
                object,
                expected: match kind {
                    ObjectKind::Int => "int",
                    ObjectKind::Real => "real",
                    _ => "string",
                },
            }))
        }
    }

    // ---- lists -----------------------------------------------------------

    /// The number of children in a list (a structural read).
    ///
    /// # Errors
    ///
    /// Fails if the object is missing or not a list.
    pub fn list_len(&mut self, list: ObjectName) -> Result<usize, TxnError> {
        self.record_read(list)?;
        Ok(self.list_entries(list)?.len())
    }

    /// The child at `index`.
    ///
    /// This is *navigation*, not a semantic read: it records no read of the
    /// list, so a concurrent structural change to the list is "not a
    /// concurrency control conflict, because the two transactions
    /// read/update different objects" (§3.2.1). Use [`list_len`] when the
    /// transaction's logic depends on the structure.
    ///
    /// [`list_len`]: TxnCtx::list_len
    ///
    /// # Errors
    ///
    /// Fails if the object is not a list or the index is out of range.
    pub fn list_child(&mut self, list: ObjectName, index: usize) -> Result<ObjectName, TxnError> {
        let entries = self.list_entries(list)?;
        entries.get(index).map(|e| e.1).ok_or_else(|| {
            TxnError::Decaf(DecafError::NoSuchChild {
                object: list,
                detail: format!("index {index}"),
            })
        })
    }

    /// Inserts a new child built from `child` at `index` (clamped to the
    /// length). This is a *read-dependent* structural write: it records a
    /// read of the list, so a concurrent structural change forces a retry.
    ///
    /// Returns the new child's local name.
    ///
    /// # Errors
    ///
    /// Fails if the object is missing or not a list.
    pub fn list_insert(
        &mut self,
        list: ObjectName,
        index: usize,
        child: Blueprint,
    ) -> Result<ObjectName, TxnError> {
        self.record_read(list)?;
        self.record_write(list, WireOp::ListInsert { index, child })?;
        self.created_list_child(list)
    }

    /// Appends a new child — a *blind* structural write (no read recorded),
    /// so concurrent appends from different sites all commit, as in the
    /// paper's whiteboard workload (§5.1.2).
    ///
    /// Returns the new child's local name.
    ///
    /// # Errors
    ///
    /// Fails if the object is missing or not a list.
    pub fn list_push(
        &mut self,
        list: ObjectName,
        child: Blueprint,
    ) -> Result<ObjectName, TxnError> {
        self.record_write(
            list,
            WireOp::ListInsert {
                index: usize::MAX,
                child,
            },
        )?;
        self.created_list_child(list)
    }

    /// Removes the child at `index` (read-dependent).
    ///
    /// # Errors
    ///
    /// Fails if the object is not a list or the index is out of range.
    pub fn list_remove(&mut self, list: ObjectName, index: usize) -> Result<(), TxnError> {
        self.record_read(list)?;
        let entries = self.list_entries(list)?;
        let tag = entries.get(index).map(|e| e.0).ok_or_else(|| {
            TxnError::Decaf(DecafError::NoSuchChild {
                object: list,
                detail: format!("index {index}"),
            })
        })?;
        // The remove references the embedding at `tag`: if that structural
        // transaction is still uncommitted, this one must wait for it (and
        // abort with it) — a §3.2.1 path RC guess.
        let creator_committed = self
            .store
            .get(list)?
            .values
            .entry_at(tag)
            .map(|e| e.committed)
            .unwrap_or(true);
        if !creator_committed && tag != self.vt {
            self.rec.extra_rc.insert(tag);
        }
        self.record_write(list, WireOp::ListRemove { tag })
    }

    fn list_entries(&self, list: ObjectName) -> Result<Vec<(VirtualTime, ObjectName)>, TxnError> {
        let obj = self.store.get(list)?;
        let entry = obj
            .values
            .value_at(self.vt)
            .ok_or(DecafError::Uninitialized(list))?;
        match &entry.value {
            ObjectValue::List { entries, .. } => {
                Ok(entries.iter().map(|e| (e.tag, e.child)).collect())
            }
            _ => Err(TxnError::Decaf(DecafError::KindMismatch {
                object: list,
                expected: "list",
            })),
        }
    }

    fn created_list_child(&self, list: ObjectName) -> Result<ObjectName, TxnError> {
        let entries = self.list_entries(list)?;
        entries
            .iter()
            .rev()
            .find(|(tag, _)| *tag == self.vt)
            .map(|(_, c)| *c)
            .ok_or_else(|| {
                TxnError::Decaf(DecafError::NoSuchChild {
                    object: list,
                    detail: "freshly inserted child".into(),
                })
            })
    }

    // ---- tuples ----------------------------------------------------------

    /// Looks up a tuple child by key.
    ///
    /// Navigation only — records no read of the tuple (§3.2.1); use
    /// [`list_len`](TxnCtx::list_len)-style structural reads when the logic
    /// depends on the key set.
    ///
    /// # Errors
    ///
    /// Fails if the object is missing or not a tuple.
    pub fn tuple_get(
        &mut self,
        tuple: ObjectName,
        key: &str,
    ) -> Result<Option<ObjectName>, TxnError> {
        let obj = self.store.get(tuple)?;
        let entry = obj
            .values
            .value_at(self.vt)
            .ok_or(DecafError::Uninitialized(tuple))?;
        match &entry.value {
            ObjectValue::Tuple { entries, .. } => Ok(entries.get(key).copied()),
            _ => Err(TxnError::Decaf(DecafError::KindMismatch {
                object: tuple,
                expected: "tuple",
            })),
        }
    }

    /// Puts a child built from `child` under `key`, replacing any existing
    /// child. Returns the new child's local name.
    ///
    /// # Errors
    ///
    /// Fails if the object is missing or not a tuple.
    pub fn tuple_put(
        &mut self,
        tuple: ObjectName,
        key: impl Into<String>,
        child: Blueprint,
    ) -> Result<ObjectName, TxnError> {
        let key = key.into();
        self.record_write(
            tuple,
            WireOp::TuplePut {
                key: key.clone(),
                child,
            },
        )?;
        let obj = self.store.get(tuple)?;
        let entry = obj
            .values
            .value_at(self.vt)
            .ok_or(DecafError::Uninitialized(tuple))?;
        match &entry.value {
            ObjectValue::Tuple { entries, .. } => entries.get(&key).copied().ok_or({
                TxnError::Decaf(DecafError::NoSuchChild {
                    object: tuple,
                    detail: key,
                })
            }),
            _ => unreachable!("record_write verified tuple kind"),
        }
    }

    /// Removes the child under `key` (read-dependent).
    ///
    /// # Errors
    ///
    /// Fails if the object is not a tuple or the key is absent.
    pub fn tuple_remove(&mut self, tuple: ObjectName, key: &str) -> Result<(), TxnError> {
        self.record_read(tuple)?;
        if self.tuple_get(tuple, key)?.is_none() {
            return Err(TxnError::Decaf(DecafError::NoSuchChild {
                object: tuple,
                detail: key.to_owned(),
            }));
        }
        self.record_write(
            tuple,
            WireOp::TupleRemove {
                key: key.to_owned(),
            },
        )
    }

    // ---- associations ----------------------------------------------------

    /// Reads an association object's raw state (internal: the collaboration
    /// machinery's read-modify-write path).
    pub(crate) fn read_assoc_state(
        &mut self,
        assoc: ObjectName,
    ) -> Result<crate::object::AssocState, TxnError> {
        self.record_read(assoc)?;
        let obj = self.store.get(assoc)?;
        let entry = obj
            .values
            .value_at(self.vt)
            .ok_or(DecafError::Uninitialized(assoc))?;
        match &entry.value {
            ObjectValue::Assoc(state) => Ok((**state).clone()),
            _ => Err(TxnError::Decaf(DecafError::KindMismatch {
                object: assoc,
                expected: "association",
            })),
        }
    }

    /// Writes an association object's raw state (internal).
    pub(crate) fn write_assoc_state(
        &mut self,
        assoc: ObjectName,
        state: crate::object::AssocState,
    ) -> Result<(), TxnError> {
        self.record_write(
            assoc,
            WireOp::SetAssoc(crate::message::AssocSnapshot(state)),
        )
    }

    /// Reads an association object's replica relationships (§2.6).
    ///
    /// # Errors
    ///
    /// Fails if the object is missing or not an association.
    pub fn read_assoc(&mut self, assoc: ObjectName) -> Result<Vec<RelationInfo>, TxnError> {
        self.record_read(assoc)?;
        let obj = self.store.get(assoc)?;
        let entry = obj
            .values
            .value_at(self.vt)
            .ok_or(DecafError::Uninitialized(assoc))?;
        match &entry.value {
            ObjectValue::Assoc(state) => Ok(state
                .iter()
                .map(|(id, rel)| RelationInfo {
                    id: *id,
                    members: rel.members.iter().copied().collect(),
                    description: rel.description.clone(),
                })
                .collect()),
            _ => Err(TxnError::Decaf(DecafError::KindMismatch {
                object: assoc,
                expected: "association",
            })),
        }
    }
}
