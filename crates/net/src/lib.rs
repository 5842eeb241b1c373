//! Network substrates for DECAF replicas, and the loop that drives a site
//! over them.
//!
//! The DECAF site engine ([`decaf-core`](https://docs.rs/decaf-core)) is
//! *sans-I/O*: a site is a deterministic state machine that consumes
//! messages and produces messages. The paper runs that machine two ways,
//! and this crate has one substrate for each:
//!
//! * [`sim`] — a deterministic discrete-event simulator with configurable
//!   per-link latency, optional jitter, timers (for workload injection),
//!   partitions, crash-restart and ISIS-style fail-stop notification. It
//!   makes the analytic latency claims (commit in `2t`/`3t`, §5.1) directly
//!   measurable, and it is what `decaf-check` explores schedules on.
//! * [`tcp`] — a real TCP mesh (std sockets + threads): one process per
//!   site, length-prefixed CRC-checked frames ([`wire`]), heartbeats, and
//!   reconnect with exponential backoff. Persistent peer loss is surfaced
//!   as the §3.4 fail-stop notification, the way the paper's prototype ran
//!   one JVM per user on a real LAN/WAN (§5.2).
//!
//! [`link`] is the TCP mesh's link model, one state machine per peer: the
//! re-dial ladders, batching, heartbeats, the silence watchdog, the
//! fail-stop and the reopening of a failed peer that dials back in are
//! decided there, in time passed as an argument; [`tcp`] owns the
//! sockets, threads and clock and does what the link asks.
//!
//! [`node`] is the loop between a site and either of them: deliver a
//! [`TransportEvent`], persist, send, collect events — in that order,
//! written once. The daemon and the TCP example call [`Node::pump`] on a
//! [`TransportEndpoint`]; the simulator world and the checker call
//! [`Node::deliver`] and [`Node::flush`] from their event loop.
//!
//! # Example
//!
//! ```
//! use decaf_net::sim::{Event, LatencyModel, SimNet, SimTime};
//! use decaf_vt::SiteId;
//!
//! let mut net: SimNet<&'static str> =
//!     SimNet::new(LatencyModel::uniform(SimTime::from_millis(10)));
//! net.send(SiteId(1), SiteId(2), "hello");
//! match net.step() {
//!     Some(Event::Deliver { from, to, msg, .. }) => {
//!         assert_eq!((from, to, msg), (SiteId(1), SiteId(2), "hello"));
//!         assert_eq!(net.now(), SimTime::from_millis(10));
//!     }
//!     _ => unreachable!(),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Duration;

use decaf_vt::SiteId;

pub mod link;
pub mod node;
pub mod sim;
pub mod tcp;
pub mod wire;

pub use node::{Log, Node, Pumped};

/// An event surfaced by a [`TransportEndpoint`].
///
/// This is the substrate-independent vocabulary between a network and the
/// sans-I/O engine: either a protocol message arrived, or the communication
/// layer's failure detector has declared a peer fail-stopped — the ISIS
/// model the paper assumes ("the underlying communication infrastructure
/// provides notification of such failures ... as fail-stop failures",
/// §3.4). [`Node::deliver`] hands either kind to the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportEvent<M> {
    /// A payload arrived from `from`.
    Message {
        /// The sending site.
        from: SiteId,
        /// The payload.
        msg: M,
    },
    /// The transport has determined that `failed` has fail-stopped.
    SiteFailed {
        /// The site declared failed.
        failed: SiteId,
    },
}

impl<M> TransportEvent<M> {
    /// The message payload, if this is a `Message` event.
    pub fn into_message(self) -> Option<(SiteId, M)> {
        match self {
            TransportEvent::Message { from, msg } => Some((from, msg)),
            TransportEvent::SiteFailed { .. } => None,
        }
    }
}

/// One site's handle onto a network substrate.
///
/// Endpoints are the per-site I/O surface [`Node::pump`] drives: the
/// engine's outbox goes into [`send`](TransportEndpoint::send) and received
/// [`TransportEvent`]s go back into the engine. All methods take `&self` so
/// an endpoint can be cloned/shared into a site's thread.
pub trait TransportEndpoint {
    /// The payload type carried by this transport.
    type Msg;

    /// The site this endpoint belongs to.
    fn site(&self) -> SiteId;

    /// Sends `msg` to `to`. Delivery is asynchronous and may silently fail
    /// (fail-stop peers, bounded queues); the protocol's own
    /// acknowledgements, not the transport, provide reliability semantics.
    fn send(&self, to: SiteId, msg: Self::Msg);

    /// Non-blocking receive.
    fn try_recv(&self) -> Option<TransportEvent<Self::Msg>>;

    /// Receive, waiting up to `timeout`.
    fn recv_timeout(&self, timeout: Duration) -> Option<TransportEvent<Self::Msg>>;
}
