//! One site's node thread: the daemon's pump order round a [`Site`] and a
//! [`TcpEndpoint`], with every call into the engine and the transport timed
//! from outside.
//!
//! The loop is: submit due gestures → `drain_outbox`→`send` → block in
//! `recv_timeout(min(time to next due gesture, 1 ms))` → `handle_message`
//! for everything received → `drain_outbox`→`send` → `drain_events`. It
//! never busy-polls: on a 2-core box a spinning node starves the mesh
//! threads until heartbeats lapse and peers are declared failed.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use decaf_core::{
    AbortReason, Blueprint, EngineEvent, Envelope, Message, ObjectName, Site, SiteStats,
    Transaction, TxnCtx, TxnError, TxnHandle, TxnOutcome, ViewMode,
};
use decaf_net::tcp::TcpEndpoint;
use decaf_net::{TransportEndpoint, TransportEvent};
use decaf_vt::{SiteId, VirtualTime};

/// Longest a node blocks in `recv_timeout` — the daemon's pacing.
const MAX_WAIT: Duration = Duration::from_millis(1);

/// Envelopes each traced node keeps for the isolated codec replay.
const CAPTURE_CAP: usize = 8192;

/// The kind of a replicated model object in a workload's layout. Every
/// site creates the layout's objects in order, so logical object `j` is
/// `ObjectName(site, j)` at each site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjKind {
    /// An integer scalar.
    Int,
    /// A string scalar.
    Str,
    /// A list composite of integer children.
    List,
}

/// One gesture: what the user did, as data. `obj` is a layout index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Blind integer write.
    WriteInt {
        /// Layout index of the target.
        obj: u64,
        /// Value written.
        v: i64,
    },
    /// Blind string write.
    WriteStr {
        /// Layout index of the target.
        obj: u64,
        /// Value written.
        s: String,
    },
    /// Read-modify-write: add `by` to the counter. With `by` = 1 this is
    /// the daemon's own gesture.
    Add {
        /// Layout index of the counter.
        obj: u64,
        /// The increment.
        by: i64,
    },
    /// Read the list's length, remove its tail, insert `v` at its head.
    Rotate {
        /// Layout index of the list.
        obj: u64,
        /// Value of the new head element.
        v: i64,
    },
    /// Blind append of one integer child (set-up only: a transaction can
    /// embed one child per list, its VT being the child's tag).
    Push {
        /// Layout index of the list.
        obj: u64,
        /// Value of the new tail element.
        v: i64,
    },
}

impl Op {
    /// Layout index of the object the gesture writes.
    pub fn obj(&self) -> u64 {
        match self {
            Op::WriteInt { obj, .. }
            | Op::WriteStr { obj, .. }
            | Op::Add { obj, .. }
            | Op::Rotate { obj, .. }
            | Op::Push { obj, .. } => *obj,
        }
    }
}

/// An [`Op`] bound to the site that executes it.
struct OpTxn {
    site: SiteId,
    op: Op,
}

impl Transaction for OpTxn {
    /// No workload is meant to fail a gesture; when the engine gives one
    /// up, say why — the result line only counts it.
    fn handle_abort(&mut self, reason: &AbortReason) {
        eprintln!("site {}: gesture aborted: {reason}", self.site.0);
    }

    fn execute(&mut self, ctx: &mut TxnCtx<'_>) -> Result<(), TxnError> {
        let name = |obj: u64| ObjectName::new(self.site, obj);
        match &self.op {
            Op::WriteInt { obj, v } => ctx.write_int(name(*obj), *v),
            Op::WriteStr { obj, s } => ctx.write_str(name(*obj), s.clone()),
            Op::Add { obj, by } => {
                let v = ctx.read_int(name(*obj))?;
                ctx.write_int(name(*obj), v + by)
            }
            Op::Rotate { obj, v } => {
                let list = name(*obj);
                let len = ctx.list_len(list)?;
                ctx.list_remove(list, len - 1)?;
                ctx.list_insert(list, 0, Blueprint::Int(*v)).map(|_| ())
            }
            Op::Push { obj, v } => ctx.list_push(name(*obj), Blueprint::Int(*v)).map(|_| ()),
        }
    }
}

/// How a node decides when its next gesture is due.
#[derive(Debug, Clone)]
pub enum Pacing {
    /// Submits nothing of its own.
    Passive,
    /// Open loop: one gesture every `period_ns`, first at `phase_ns` after
    /// the run starts, each timed from its due instant.
    Open {
        /// Gesture period.
        period_ns: u64,
        /// Offset of this site's first gesture.
        phase_ns: u64,
    },
    /// Closed loop: keeps this many gestures outstanding.
    Window(usize),
    /// Closed loop in lock-step rounds: one gesture per round, and round
    /// `r` starts when the shared counter shows all `parties × r` earlier
    /// gestures decided.
    LockStep {
        /// Gestures decided so far, over all parties.
        decided: Arc<AtomicU64>,
        /// Sites taking part.
        parties: u64,
    },
}

/// Node phases, set by the coordinating thread.
pub mod phase {
    /// Pump messages and obey commands; submit nothing.
    pub const HOLD: u8 = 0;
    /// Submit gestures as [`super::Pacing`] says.
    pub const RUN: u8 = 1;
    /// Leave the loop and hand the log back.
    pub const STOP: u8 = 2;
}

/// State a node publishes for the coordinating thread.
#[derive(Debug, Default)]
pub struct NodeShared {
    /// One of [`phase`].
    pub phase: AtomicU8,
    /// When the run starts, on the process clock: written before the
    /// phase becomes `RUN`. One instant for all sites, so that open-loop
    /// schedules keep their stagger exactly, run after run.
    pub run_start_ns: AtomicU64,
    /// The phase the node last read. Once this shows `HOLD`, the node
    /// submits no more workload gestures.
    pub phase_seen: AtomicU8,
    /// Own gestures submitted and not yet decided.
    pub outstanding: AtomicU64,
}

/// A request from the coordinating thread.
pub enum Cmd {
    /// Submit this gesture now, outside the measured workload.
    Submit(Op),
    /// Report committed state and counters.
    Probe(Sender<Probe>),
}

/// Committed value of one layout object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObjValue {
    /// An integer object's committed value.
    Int(Option<i64>),
    /// A string object's committed value.
    Str(Option<String>),
    /// A list's children, in order.
    List(Vec<Option<i64>>),
}

/// A node's answer to [`Cmd::Probe`].
#[derive(Debug, Clone)]
pub struct Probe {
    /// Committed value per layout object.
    pub values: Vec<ObjValue>,
    /// Engine counters.
    pub stats: SiteStats,
    /// Value-history entries retained over all layout objects.
    pub history_len: u64,
    /// Whether every layout object's primary copy is at site 1.
    pub primaries_at_1: bool,
}

/// One submitted gesture and what became of it.
#[derive(Debug, Clone)]
pub struct Gesture {
    /// What was submitted.
    pub op: Op,
    /// Submitted by a [`Cmd::Submit`], not by the workload.
    pub setup: bool,
    /// When it was due (open loop) or submitted (closed loop).
    pub due_ns: u64,
    /// When `execute` was entered.
    pub submit_ns: u64,
    /// VT of the latest execution attempt.
    pub vt: VirtualTime,
    /// Executions so far: 1 + automatic retries.
    pub attempts: u32,
    /// When the outcome was observed at the origin; 0 while undecided.
    pub decided_ns: u64,
    /// Whether that outcome was `Committed`.
    pub committed: bool,
}

/// What a node saw happen, other than to its own gestures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsKind {
    /// `TxnCommitted { local_origin: false }`.
    RemoteCommit,
    /// `ViewUpdated` on the pessimistic view.
    PessView,
    /// `ViewUpdated` on the optimistic view.
    OptView,
}

/// One stamped observation.
#[derive(Debug, Clone, Copy)]
pub struct Obs {
    /// Stamp taken right after the `drain_events` that returned it.
    pub t_ns: u64,
    /// The transaction (or snapshot) VT.
    pub vt: VirtualTime,
    /// What was observed.
    pub kind: ObsKind,
}

/// Span names: the calls the harness times, plus the loop iteration that
/// contains them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanKind {
    /// One loop iteration; parent of everything else.
    Step,
    /// `Site::execute`.
    Execute,
    /// `Site::handle_message`, by message kind.
    Handle(MsgTag),
    /// `Site::drain_outbox`; `n` = envelopes returned.
    DrainOutbox,
    /// `TcpEndpoint::send`, one envelope.
    Send,
    /// `recv_timeout` plus the `try_recv`s after it; `n` = events returned.
    Recv,
    /// `Site::drain_events`.
    DrainEvents,
}

impl SpanKind {
    /// The name written to the span file.
    pub fn name(self) -> String {
        match self {
            SpanKind::Step => "harness.step".into(),
            SpanKind::Execute => "core.execute".into(),
            SpanKind::Handle(t) => format!("core.handle.{}", t.name()),
            SpanKind::DrainOutbox => "core.drain_outbox".into(),
            SpanKind::Send => "net.tcp.send".into(),
            SpanKind::Recv => "net.tcp.recv".into(),
            SpanKind::DrainEvents => "core.drain_events".into(),
        }
    }
}

/// Message kinds, from [`Message::tag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MsgTag {
    /// `TXN`: updates that need no reply.
    Txn,
    /// `TXN+CHECK`: updates plus guesses for the primary to check.
    TxnCheck,
    /// `CONFIRM`
    Confirm,
    /// `DENY`
    Deny,
    /// `COMMIT`
    Commit,
    /// `ABORT`
    Abort,
    /// `SNAP-CONFIRM-READ`
    SnapConfirm,
    /// Heartbeats and the membership/recovery messages.
    Other,
}

impl MsgTag {
    /// All tags, in per-layer metric order.
    pub const ALL: [MsgTag; 8] = [
        MsgTag::Txn,
        MsgTag::TxnCheck,
        MsgTag::Confirm,
        MsgTag::Deny,
        MsgTag::Commit,
        MsgTag::Abort,
        MsgTag::SnapConfirm,
        MsgTag::Other,
    ];

    fn of(msg: &Message) -> MsgTag {
        match msg.tag() {
            "TXN" => MsgTag::Txn,
            "TXN+CHECK" => MsgTag::TxnCheck,
            "CONFIRM" => MsgTag::Confirm,
            "DENY" => MsgTag::Deny,
            "COMMIT" => MsgTag::Commit,
            "ABORT" => MsgTag::Abort,
            "SNAP-CONFIRM-READ" => MsgTag::SnapConfirm,
            _ => MsgTag::Other,
        }
    }

    /// The metric-name fragment.
    pub fn name(self) -> &'static str {
        match self {
            MsgTag::Txn => "txn",
            MsgTag::TxnCheck => "txn_check",
            MsgTag::Confirm => "confirm",
            MsgTag::Deny => "deny",
            MsgTag::Commit => "commit",
            MsgTag::Abort => "abort",
            MsgTag::SnapConfirm => "snap_confirm",
            MsgTag::Other => "other",
        }
    }
}

/// `parent` of a span with none.
pub const NO_PARENT: u32 = u32::MAX;

/// One timed call (traced runs only).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Which call.
    pub kind: SpanKind,
    /// Entry, on the process clock.
    pub start_ns: u64,
    /// Return.
    pub end_ns: u64,
    /// Index of the enclosing [`SpanKind::Step`] span in the same log.
    pub parent: u32,
    /// The transaction the call was about, or `ZERO`.
    pub vt: VirtualTime,
    /// Call-specific count (envelopes, events).
    pub n: u32,
}

/// One envelope crossing the endpoint (traced runs only). Links are FIFO,
/// so the k-th `out` record for A→B is the k-th `in` record from A at B.
#[derive(Debug, Clone, Copy)]
pub struct MsgRec {
    /// The other end of the link.
    pub peer: u32,
    /// Message kind.
    pub tag: MsgTag,
    /// The transaction the message is about, or `ZERO`.
    pub vt: VirtualTime,
    /// Out: when `send` returned. In: when the receive that carried it
    /// returned.
    pub t_ns: u64,
    /// Index of the send span (out) or the handle span (in).
    pub span: u32,
}

/// Everything a node recorded, handed back when it stops.
#[derive(Debug, Default)]
pub struct NodeLog {
    /// This node's site id.
    pub site: u32,
    /// Layout objects this site's views watch.
    pub watched: Vec<usize>,
    /// Own gestures; index = `TxnHandle::id`.
    pub gestures: Vec<Gesture>,
    /// Stamped observations, in order.
    pub obs: Vec<Obs>,
    /// Timed calls (traced runs only).
    pub spans: Vec<Span>,
    /// Envelopes sent (traced runs only).
    pub msgs_out: Vec<MsgRec>,
    /// Envelopes received (traced runs only).
    pub msgs_in: Vec<MsgRec>,
    /// Outbound envelopes kept for the codec replay (traced runs only).
    pub captured: Vec<Envelope>,
    /// `SiteFailed` notifications from the transport.
    pub site_failures: u64,
}

impl NodeLog {
    /// Bytes this log has written: what the harness itself adds to the
    /// process's resident set, to be taken off `VmHWM`.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let strings: usize = self
            .gestures
            .iter()
            .map(|g| match &g.op {
                Op::WriteStr { s, .. } => s.capacity(),
                _ => 0,
            })
            .sum();
        self.gestures.len() * size_of::<Gesture>()
            + strings
            + self.obs.len() * size_of::<Obs>()
            + self.spans.len() * size_of::<Span>()
            + (self.msgs_out.len() + self.msgs_in.len()) * size_of::<MsgRec>()
    }
}

/// A node's configuration.
pub struct NodeConfig {
    /// The process-wide clock origin.
    pub clock: Instant,
    /// Layout shared by all sites.
    pub layout: Vec<ObjKind>,
    /// Layout objects this site's views watch (for the log).
    pub watched: Vec<usize>,
    /// When gestures are due.
    pub pacing: Pacing,
    /// The workload's gesture generator for this site.
    pub next_op: Box<dyn FnMut(u64) -> Op + Send>,
    /// Record spans, message records and captured envelopes.
    pub traced: bool,
}

/// One site, its endpoint, and the log being filled.
pub struct Node {
    cfg: NodeConfig,
    site: Site,
    ep: TcpEndpoint,
    shared: Arc<NodeShared>,
    cmds: Receiver<Cmd>,
    log: NodeLog,
    /// Indices of undecided gestures.
    undecided: Vec<usize>,
    /// Workload gestures submitted so far.
    submitted: u64,
    /// The open `Step` span, if tracing.
    step: u32,
}

impl Node {
    /// Wraps a fully wired site; views must already be attached.
    pub fn new(
        cfg: NodeConfig,
        site: Site,
        ep: TcpEndpoint,
        shared: Arc<NodeShared>,
        cmds: Receiver<Cmd>,
    ) -> Node {
        // Reserved, not touched: untouched pages are not resident, the logs
        // never reallocate mid-run, and `heap_bytes` can say exactly how
        // much of the process's resident set is the harness's own.
        let log = NodeLog {
            site: site.id().0,
            watched: cfg.watched.clone(),
            gestures: Vec::with_capacity(1 << 20),
            obs: Vec::with_capacity(1 << 22),
            spans: Vec::with_capacity(if cfg.traced { 1 << 22 } else { 0 }),
            msgs_out: Vec::with_capacity(if cfg.traced { 1 << 21 } else { 0 }),
            msgs_in: Vec::with_capacity(if cfg.traced { 1 << 21 } else { 0 }),
            ..NodeLog::default()
        };
        Node {
            cfg,
            site,
            ep,
            shared,
            cmds,
            log,
            undecided: Vec::new(),
            submitted: 0,
            step: NO_PARENT,
        }
    }

    fn now(&self) -> u64 {
        self.cfg.clock.elapsed().as_nanos() as u64
    }

    fn span(&mut self, kind: SpanKind, start_ns: u64, vt: VirtualTime, n: usize) -> u32 {
        if !self.cfg.traced {
            return NO_PARENT;
        }
        let end_ns = self.now();
        self.log.spans.push(Span {
            kind,
            start_ns,
            end_ns,
            parent: self.step,
            vt,
            n: n as u32,
        });
        (self.log.spans.len() - 1) as u32
    }

    /// Runs until the phase reads `STOP`; returns the log.
    pub fn run(mut self) -> NodeLog {
        loop {
            let phase = self.shared.phase.load(Ordering::Acquire);
            if phase == phase::STOP {
                return self.log;
            }
            self.shared.phase_seen.store(phase, Ordering::Release);
            let step_start = self.now();
            if self.cfg.traced {
                self.log.spans.push(Span {
                    kind: SpanKind::Step,
                    start_ns: step_start,
                    end_ns: step_start,
                    parent: NO_PARENT,
                    vt: VirtualTime::ZERO,
                    n: 0,
                });
                self.step = (self.log.spans.len() - 1) as u32;
            }

            while let Ok(cmd) = self.cmds.try_recv() {
                match cmd {
                    Cmd::Submit(op) => {
                        let now = self.now();
                        self.submit(op, now, true);
                    }
                    Cmd::Probe(reply) => {
                        let _ = reply.send(self.probe());
                    }
                }
            }
            let mut wait = MAX_WAIT;
            if phase == phase::RUN {
                wait = self.submit_due();
            }
            self.flush_outbox();

            let recv_start = self.now();
            let mut events = Vec::new();
            if let Some(first) = self.ep.recv_timeout(wait) {
                events.push(first);
                while let Some(more) = self.ep.try_recv() {
                    events.push(more);
                }
            }
            let recv_end = self.now();
            self.span(SpanKind::Recv, recv_start, VirtualTime::ZERO, events.len());
            if !events.is_empty() {
                for event in events {
                    match event {
                        TransportEvent::Message { from, msg } => self.handle(from, msg, recv_end),
                        TransportEvent::SiteFailed { failed } => {
                            self.log.site_failures += 1;
                            self.site.notify_site_failed(failed);
                        }
                    }
                }
                self.flush_outbox();
                self.observe();
            }
            if self.cfg.traced {
                let end = self.now();
                self.log.spans[self.step as usize].end_ns = end;
                self.step = NO_PARENT;
            }
        }
    }

    fn handle(&mut self, from: SiteId, env: Envelope, recv_ns: u64) {
        let tag = MsgTag::of(&env.msg);
        let vt = env.msg.witnessed_vt().unwrap_or(VirtualTime::ZERO);
        let start = self.now();
        self.site.handle_message(env);
        let span = self.span(SpanKind::Handle(tag), start, vt, 1);
        if self.cfg.traced {
            self.log.msgs_in.push(MsgRec {
                peer: from.0,
                tag,
                vt,
                t_ns: recv_ns,
                span,
            });
        }
    }

    /// Submits every gesture that is due; returns how long the loop may
    /// block before the next one.
    fn submit_due(&mut self) -> Duration {
        let run_start = self.shared.run_start_ns.load(Ordering::Acquire);
        loop {
            let now = self.now();
            let due_ns = match &self.cfg.pacing {
                Pacing::Passive => None,
                Pacing::Open {
                    period_ns,
                    phase_ns,
                } => {
                    let due = run_start + phase_ns + self.submitted * period_ns;
                    if due > now {
                        return Duration::from_nanos(due - now).min(MAX_WAIT);
                    }
                    Some(due)
                }
                Pacing::Window(window) => (self.workload_undecided() < *window).then_some(now),
                Pacing::LockStep { decided, parties } => (self.workload_undecided() == 0
                    && decided.load(Ordering::Acquire) >= parties * self.submitted)
                    .then_some(now),
            };
            let Some(due_ns) = due_ns else {
                return MAX_WAIT;
            };
            let op = (self.cfg.next_op)(self.submitted);
            self.submit(op, due_ns, false);
        }
    }

    fn workload_undecided(&self) -> usize {
        self.undecided
            .iter()
            .filter(|&&i| !self.log.gestures[i].setup)
            .count()
    }

    fn submit(&mut self, op: Op, due_ns: u64, setup: bool) {
        let txn = Box::new(OpTxn {
            site: self.site.id(),
            op: op.clone(),
        });
        let submit_ns = self.now();
        let handle = self.site.execute(txn);
        let span = self.span(SpanKind::Execute, submit_ns, VirtualTime::ZERO, 1);
        // Gestures are the only transactions this site originates, so the
        // engine's handle numbering is the gesture index.
        assert_eq!(handle.id as usize, self.log.gestures.len());
        self.log.gestures.push(Gesture {
            op,
            setup,
            due_ns,
            submit_ns,
            vt: VirtualTime::ZERO,
            attempts: 0,
            decided_ns: 0,
            committed: false,
        });
        self.undecided.push(handle.id as usize);
        if !setup {
            self.submitted += 1;
        }
        self.observe();
        if span != NO_PARENT {
            // The execute span learns its VT from the TxnExecuted event.
            self.log.spans[span as usize].vt = self.log.gestures[handle.id as usize].vt;
        }
    }

    fn flush_outbox(&mut self) {
        let start = self.now();
        let out = self.site.drain_outbox();
        self.span(SpanKind::DrainOutbox, start, VirtualTime::ZERO, out.len());
        for env in out {
            if self.cfg.traced {
                if self.log.captured.len() < CAPTURE_CAP {
                    self.log.captured.push(env.clone());
                }
                let (to, tag) = (env.to, MsgTag::of(&env.msg));
                let vt = env.msg.witnessed_vt().unwrap_or(VirtualTime::ZERO);
                let start = self.now();
                self.ep.send(to, env);
                let span = self.span(SpanKind::Send, start, vt, 1);
                let t_ns = self.log.spans[span as usize].end_ns;
                self.log.msgs_out.push(MsgRec {
                    peer: to.0,
                    tag,
                    vt,
                    t_ns,
                    span,
                });
            } else {
                self.ep.send(env.to, env);
            }
        }
    }

    /// Drains and stamps engine events, then settles decided gestures.
    fn observe(&mut self) {
        let start = self.now();
        let events = self.site.drain_events();
        let t_ns = self.now();
        self.span(
            SpanKind::DrainEvents,
            start,
            VirtualTime::ZERO,
            events.len(),
        );
        for event in events {
            match event {
                EngineEvent::TxnExecuted { handle, vt } => {
                    let g = &mut self.log.gestures[handle.id as usize];
                    g.vt = vt;
                    g.attempts += 1;
                }
                EngineEvent::TxnCommitted {
                    vt,
                    local_origin: false,
                } => self.log.obs.push(Obs {
                    t_ns,
                    vt,
                    kind: ObsKind::RemoteCommit,
                }),
                EngineEvent::ViewUpdated { ts, mode, .. } => {
                    let kind = match mode {
                        ViewMode::Pessimistic => ObsKind::PessView,
                        ViewMode::Optimistic => ObsKind::OptView,
                    };
                    self.log.obs.push(Obs { t_ns, vt: ts, kind });
                }
                _ => {}
            }
        }
        let site = self.site.id();
        let mut decided_now = 0;
        let (gestures, engine) = (&mut self.log.gestures, &self.site);
        self.undecided.retain(|&i| {
            let Some(outcome) = engine.txn_outcome(TxnHandle { site, id: i as u64 }) else {
                return true;
            };
            let g = &mut gestures[i];
            g.decided_ns = t_ns;
            g.committed = outcome == TxnOutcome::Committed;
            if !g.setup {
                decided_now += 1;
            }
            false
        });
        if decided_now > 0 {
            if let Pacing::LockStep { decided, .. } = &self.cfg.pacing {
                decided.fetch_add(decided_now, Ordering::AcqRel);
            }
        }
        self.shared
            .outstanding
            .store(self.undecided.len() as u64, Ordering::Release);
    }

    fn probe(&self) -> Probe {
        let id = self.site.id();
        let mut primaries_at_1 = true;
        let mut history_len = 0;
        let values = self
            .cfg
            .layout
            .iter()
            .enumerate()
            .map(|(j, kind)| {
                let obj = ObjectName::new(id, j as u64);
                history_len += self.site.history_len(obj) as u64;
                primaries_at_1 &= self
                    .site
                    .primary_of(obj)
                    .map(|p| p.site == SiteId(1))
                    .unwrap_or(false);
                match kind {
                    ObjKind::Int => ObjValue::Int(self.site.read_int_committed(obj)),
                    ObjKind::Str => ObjValue::Str(self.site.read_str_committed(obj)),
                    ObjKind::List => ObjValue::List(
                        self.site
                            .list_children_current(obj)
                            .into_iter()
                            .map(|c| self.site.read_int_committed(c))
                            .collect(),
                    ),
                }
            })
            .collect();
        Probe {
            values,
            stats: self.site.stats(),
            history_len,
            primaries_at_1,
        }
    }
}
