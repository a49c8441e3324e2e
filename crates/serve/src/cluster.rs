//! The cluster tier: static membership, ring placement, peer fill, and
//! the in-process harness.
//!
//! A cluster is N `serve` processes, each running the unmodified epoll
//! event loop over its own [`CacheService`], joined by nothing more
//! than a static membership list and a shared seed. There is no
//! coordinator and no gossip: placement is a pure function of
//! `(seed, membership, clip)` through [`HashRing`], so every node and
//! every client computes identical owner sets without talking to
//! anyone.
//!
//! ## Placement and replication
//!
//! A clip's owners are the first `R` distinct nodes clockwise from its
//! ring point ([`ClusterView::owners_for`]). Reads are **read-any**: a
//! client sends its GET to the first alive owner. Writes (cache fills)
//! are **write-all-on-miss**: when the handling owner misses locally it
//! probes every other owner with `PEERGET`, and a `PEERGET` is a full
//! local access on the receiving node — it admits on miss. After any
//! miss-handled GET, every reachable owner therefore holds the clip,
//! which is what makes read-any sound. On a local hit no peer traffic
//! happens at all, so replicas' recency drifts between fills; that is
//! deliberate (hits are the common case and must stay single-node
//! cheap).
//!
//! A peer fill that finds the clip on some other owner is reported to
//! the client as `PHIT` (`GetOutcome::peer`): not a local hit, but not
//! an origin fetch either. `PEERGET` never recurses — the receiving
//! node answers from its own shards only — so peer traffic is loop-free
//! by construction.
//!
//! With `R = 1` the probe set (owners minus self) is empty and the
//! cluster tier adds *zero* work to the request path: a 1-node / R=1
//! cluster is bit-for-bit the standalone server, which keeps the serial
//! equivalence anchor intact.
//!
//! ## Versioning
//!
//! Peers handshake with `VERSION` ([`WireVersions`]) before the first
//! probe. Any skew — protocol, snapshot, or WAL — marks the peer
//! terminally skewed (`PeerSlot::Skewed`) and is reported loudly by name;
//! a skewed peer is never probed again (fail loud, not byzantine).
//!
//! ## Degraded mode: breakers and hinted handoff
//!
//! Every peer sits behind a [`PeerBreaker`] — a **count-based** circuit
//! breaker (Closed → Open after [`BREAKER_FAILURE_THRESHOLD`]
//! consecutive failures → HalfOpen probe after
//! [`BREAKER_PROBE_INTERVAL`] skipped attempts → Closed on success).
//! The schedule consults no clock: breaker state is a pure function of
//! the failure/success sequence, so a killed member costs at most K
//! timeouts before misses degrade to local-only fills, and the replay
//! stays deterministic like everything else.
//!
//! While a peer's breaker is Open its half of write-all is not simply
//! dropped: the handler enqueues a bounded per-peer **hint**
//! ([`HANDOFF_QUEUE_LIMIT`] clips, oldest dropped first, duplicates
//! collapsed) and replays the queue over the wire as soon as a probe
//! to that peer succeeds again — restoring replica coverage after a
//! revive without any coordinator.
//!
//! ## One core, two links
//!
//! Peer fill, breaker gating, the hint queue and hint replay exist once,
//! in [`PeerFill`], generic over the [`PeerLink`] that carries probes.
//! `serve --cluster` ([`ClusterRuntime`]) links to its peers over TCP.
//! The in-process [`ClusterHarness`] — what `clusterbench`,
//! `degradebench` and the cluster chaos goldens replay — links to its
//! member services through a deterministic [`PeerFaults`] plan
//! (drop-pre / drop-post / garbage only: torn writes and shard poison
//! make no sense on the modelled peer hop), decided as a pure function
//! of `(handler node, probe sequence)`. A dropped-after-send probe still
//! executes on the peer — the idempotent-GET duplicate the single-node
//! chaos suite already proves harmless — so the conservation invariant
//! `delivered = local hits + peer hits + misses` holds at every rate.

use crate::client::TcpCacheClient;
use crate::fault::{FaultKind, FaultPlan};
use crate::protocol::WireVersions;
use crate::ring::{HashRing, DEFAULT_VNODES};
use crate::service::{CacheService, ServiceError};
use crate::shard::GetOutcome;
use clipcache_media::ClipId;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

/// Default budget for opening a peer connection.
pub const DEFAULT_PEER_CONNECT_TIMEOUT: Duration = Duration::from_millis(250);

/// Default budget for a peer reply; also bounds how long a mutual-fetch
/// stall between two busy event loops can last.
pub const DEFAULT_PEER_READ_TIMEOUT: Duration = Duration::from_millis(1000);

/// Consecutive probe failures before a peer's breaker trips Open.
pub const BREAKER_FAILURE_THRESHOLD: u32 = 3;

/// Probe attempts skipped while Open before the breaker lets one
/// HalfOpen probe through. Count-based on purpose: a wall-clock
/// cool-down would make breaker state depend on timing and break the
/// deterministic-replay contract every other subsystem keeps.
pub const BREAKER_PROBE_INTERVAL: u64 = 8;

/// Per-peer hint-queue bound. The queue drops its *oldest* hint when
/// full — the newest misses are the ones a reviving replica most needs
/// — and collapses duplicate clips, so it holds at most
/// `HANDOFF_QUEUE_LIMIT` distinct clips per peer.
pub const HANDOFF_QUEUE_LIMIT: usize = 128;

/// Circuit-breaker state for one peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: every probe is admitted.
    Closed,
    /// Tripped: probes are skipped (and their write-all half hinted)
    /// until `BREAKER_PROBE_INTERVAL` attempts have been skipped.
    Open,
    /// One probe in flight to test the peer; its outcome decides
    /// Closed (success) or Open again (failure).
    HalfOpen,
}

/// A deterministic, count-based circuit breaker for one peer.
///
/// Closed → Open after `failure_threshold` *consecutive* failures;
/// Open → HalfOpen after `probe_interval` skipped attempts; HalfOpen →
/// Closed on a successful probe, back to Open on a failed one. No
/// wall clock anywhere: the state after any call sequence is a pure
/// function of that sequence (`tests/breaker_props.rs` pins it), which
/// keeps cluster replays byte-identical.
///
/// Usage discipline: call [`admit`](Self::admit) before each probe
/// attempt; iff it returns `true`, perform the probe and report the
/// outcome with [`record`](Self::record).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerBreaker {
    state: BreakerState,
    consecutive_failures: u32,
    skipped: u64,
    failure_threshold: u32,
    probe_interval: u64,
    opens: u64,
}

impl Default for PeerBreaker {
    fn default() -> PeerBreaker {
        PeerBreaker::new(BREAKER_FAILURE_THRESHOLD, BREAKER_PROBE_INTERVAL)
    }
}

impl PeerBreaker {
    /// A Closed breaker with explicit thresholds.
    ///
    /// # Panics
    /// If `failure_threshold` or `probe_interval` is zero (a breaker
    /// that trips on nothing, or never re-probes, is a config bug).
    pub fn new(failure_threshold: u32, probe_interval: u64) -> PeerBreaker {
        assert!(failure_threshold > 0, "failure threshold must be >= 1");
        assert!(probe_interval > 0, "probe interval must be >= 1");
        PeerBreaker {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            skipped: 0,
            failure_threshold,
            probe_interval,
            opens: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Cumulative trips into Open (from Closed or HalfOpen).
    pub fn opens(&self) -> u64 {
        self.opens
    }

    /// Gate one probe attempt. `true` means probe now (and then call
    /// [`record`](Self::record)); `false` means skip — the peer is Open
    /// and the skip was counted toward the next HalfOpen probe.
    pub fn admit(&mut self) -> bool {
        if self.state == BreakerState::Open {
            self.skipped += 1;
            if self.skipped < self.probe_interval {
                return false;
            }
            self.state = BreakerState::HalfOpen;
        }
        true
    }

    /// Record the outcome of an admitted probe.
    pub fn record(&mut self, ok: bool) {
        match (self.state, ok) {
            // `record` without a `true` from `admit` is a caller bug,
            // but stay total: an Open breaker ignores stray outcomes.
            (BreakerState::Open, _) => {}
            (_, true) => {
                self.state = BreakerState::Closed;
                self.consecutive_failures = 0;
            }
            (BreakerState::HalfOpen, false) => self.trip(),
            (BreakerState::Closed, false) => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.failure_threshold {
                    self.trip();
                }
            }
        }
    }

    fn trip(&mut self) {
        self.state = BreakerState::Open;
        self.skipped = 0;
        self.consecutive_failures = 0;
        self.opens += 1;
    }
}

/// Static cluster membership plus this node's place in it.
///
/// `peers` lists every member's address **including this node's own**,
/// in the shared membership order; `me` indexes it. Every member must
/// be started with an identical list and seed or placement diverges —
/// there is no runtime agreement protocol to save you.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Every member address, in shared membership order (self included).
    pub peers: Vec<String>,
    /// This node's index into `peers`.
    pub me: usize,
    /// Replication factor `R` (1 ..= peers.len()).
    pub replication: usize,
    /// Ring seed — must equal every other member's.
    pub seed: u64,
    /// Vnodes per member on the ring.
    pub vnodes: usize,
    /// Budget for opening a peer connection.
    pub connect_timeout: Duration,
    /// Budget for a peer reply.
    pub read_timeout: Duration,
}

impl ClusterSpec {
    /// Build and validate a spec with default vnodes and timeouts.
    pub fn new(
        peers: Vec<String>,
        me: usize,
        replication: usize,
        seed: u64,
    ) -> Result<ClusterSpec, String> {
        if peers.is_empty() {
            return Err("cluster needs at least one member".into());
        }
        if me >= peers.len() {
            return Err(format!(
                "self index {me} out of range for {} member(s)",
                peers.len()
            ));
        }
        if replication == 0 || replication > peers.len() {
            return Err(format!(
                "replication factor {replication} must be in 1..={}",
                peers.len()
            ));
        }
        Ok(ClusterSpec {
            peers,
            me,
            replication,
            seed,
            vnodes: DEFAULT_VNODES,
            connect_timeout: DEFAULT_PEER_CONNECT_TIMEOUT,
            read_timeout: DEFAULT_PEER_READ_TIMEOUT,
        })
    }

    /// The pure-topology view this spec induces.
    pub fn view(&self) -> ClusterView {
        ClusterView::with_vnodes(self.seed, self.peers.len(), self.replication, self.vnodes)
    }
}

/// Pure cluster topology: the ring plus the replication factor. No
/// addresses, no sockets — the same view drives the TCP router, the
/// server-side peer fill, and the in-process harness, which is how
/// "every party computes identical placement" is enforced by
/// construction rather than by agreement.
#[derive(Debug, Clone)]
pub struct ClusterView {
    ring: HashRing,
    replication: usize,
}

impl ClusterView {
    /// A view with the default vnode count.
    pub fn new(seed: u64, nodes: usize, replication: usize) -> ClusterView {
        ClusterView::with_vnodes(seed, nodes, replication, DEFAULT_VNODES)
    }

    /// A view with an explicit vnode count.
    ///
    /// # Panics
    /// If `nodes == 0`, `vnodes == 0`, or `replication` is outside
    /// `1..=nodes`.
    pub fn with_vnodes(seed: u64, nodes: usize, replication: usize, vnodes: usize) -> ClusterView {
        assert!(
            (1..=nodes).contains(&replication),
            "replication factor {replication} must be in 1..={nodes}"
        );
        ClusterView {
            ring: HashRing::with_vnodes(seed, nodes, vnodes),
            replication,
        }
    }

    /// Member count.
    pub fn nodes(&self) -> usize {
        self.ring.nodes()
    }

    /// Replication factor.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// The clip's owner set: primary first, then `R - 1` distinct ring
    /// successors. Identical on every node and every client.
    pub fn owners_for(&self, clip: ClipId) -> Vec<usize> {
        self.ring.owners(u64::from(clip.get()), self.replication)
    }

    /// The clip's primary owner (`owners_for(clip)[0]`).
    pub fn primary_of(&self, clip: ClipId) -> usize {
        self.ring.node_of(u64::from(clip.get()))
    }
}

/// What one `PEERGET` probe came back with, as the breaker sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// The peer answered; `true` when it already held the clip.
    Answered(bool),
    /// The peer is live but its reply was lost. Not a breaker failure:
    /// breakers track liveness, and counting lost replies would make
    /// breaker state depend on the fault plan even in healthy clusters.
    Lost,
    /// The peer is down (unreachable, timed out, skewed, or dead). A
    /// breaker failure.
    Down,
}

/// How one handling node reaches its peers: the transport under
/// [`PeerFill`]. [`ClusterRuntime`] implements it over TCP,
/// [`ClusterHarness`] over in-process services.
pub trait PeerLink {
    /// One `PEERGET` for `clip` to `peer`. On any outcome but
    /// [`Probe::Down`] the peer has executed the access (admitting on
    /// its own miss), which is its half of write-all.
    fn probe(&mut self, peer: usize, clip: ClipId) -> Probe;

    /// Hand one queued hint to `peer`, which just answered a probe.
    /// `false` means the peer is down, which stops the drain.
    fn replay(&mut self, peer: usize, clip: ClipId) -> bool;
}

/// One handling node's view of its peers: a [`PeerBreaker`] and a hint
/// queue per peer, plus the counters of the fills it has run. The
/// single implementation of peer fill, breaker gating, hinted handoff
/// and hint replay, shared by both transports.
#[derive(Debug, Clone)]
pub struct PeerFill {
    breakers: Vec<PeerBreaker>,
    hints: Vec<VecDeque<ClipId>>,
    peer_hits: u64,
    skipped: u64,
    queued: u64,
    dropped: u64,
    replayed: u64,
}

impl PeerFill {
    /// A view of `nodes` members, every peer behind a copy of `breaker`.
    pub fn new(nodes: usize, breaker: PeerBreaker) -> PeerFill {
        PeerFill {
            breakers: vec![breaker; nodes],
            hints: vec![VecDeque::new(); nodes],
            peer_hits: 0,
            skipped: 0,
            queued: 0,
            dropped: 0,
            replayed: 0,
        }
    }

    /// Peer fill after `me` missed `clip` locally: probe every other
    /// owner (the write-all half — a probed owner admits on its own
    /// miss) and return whether any already had the clip. An Open peer
    /// is skipped and hinted instead; the first probe that finds it up
    /// again replays its hints. With `R = 1` this is a no-op.
    pub fn fill<L: PeerLink>(
        &mut self,
        me: usize,
        clip: ClipId,
        owners: &[usize],
        link: &mut L,
    ) -> bool {
        let mut filled = false;
        for &peer in owners.iter().filter(|&&n| n != me) {
            if !self.breakers[peer].admit() {
                self.skipped += 1;
                self.queue_hint(peer, clip);
                continue;
            }
            let probe = link.probe(peer, clip);
            let up = probe != Probe::Down;
            self.breakers[peer].record(up);
            filled |= probe == Probe::Answered(true);
            if up && !self.hints[peer].is_empty() {
                self.replay_hints(peer, link);
            }
        }
        self.peer_hits += u64::from(filled);
        filled
    }

    /// Remember the write-all half the Open `peer` just missed. Bounded
    /// (drop-oldest) and duplicate-free.
    fn queue_hint(&mut self, peer: usize, clip: ClipId) {
        let queue = &mut self.hints[peer];
        if queue.contains(&clip) {
            return;
        }
        if queue.len() == HANDOFF_QUEUE_LIMIT {
            queue.pop_front();
            self.dropped += 1;
        }
        queue.push_back(clip);
        self.queued += 1;
    }

    /// Replay `peer`'s hint queue: each hint is a full access on the
    /// peer (admit-on-miss), restoring the replica coverage the Open
    /// window skipped. A peer that goes down mid-replay stops the drain
    /// (the remaining hints stay queued for the next probe that finds it
    /// up) and counts as a breaker failure.
    fn replay_hints<L: PeerLink>(&mut self, peer: usize, link: &mut L) {
        while let Some(&clip) = self.hints[peer].front() {
            if !link.replay(peer, clip) {
                self.breakers[peer].record(false);
                return;
            }
            self.hints[peer].pop_front();
            self.replayed += 1;
        }
    }

    /// `peer`'s breaker.
    pub fn breaker(&self, peer: usize) -> &PeerBreaker {
        &self.breakers[peer]
    }
}

/// A peer slot in the server-side pool.
enum PeerSlot {
    /// No live connection; the next probe dials (and handshakes) lazily.
    Idle,
    /// Handshaked and usable.
    Connected(TcpCacheClient),
    /// Version skew detected — terminal. Never probed again.
    Skewed,
}

/// The TCP [`PeerLink`]: one lazily dialled slot per member. Any
/// transport error or `ERR` reply means the peer is down and drops the
/// cached connection, so the next probe redials (which is how a
/// killed-and-rejoined node is picked back up).
struct TcpLink {
    spec: ClusterSpec,
    slots: Vec<PeerSlot>,
}

impl TcpLink {
    /// Dial and version-handshake `peer`. A failed dial (`None`) leaves
    /// the slot retryable; version skew is terminal and loud.
    fn dial(&self, peer: usize) -> Option<PeerSlot> {
        let addr = &self.spec.peers[peer];
        let mut client = TcpCacheClient::connect_deadline(
            addr,
            Some(self.spec.read_timeout),
            Some(self.spec.connect_timeout),
            crate::client::Wire::Binary,
        )
        .ok()?;
        let theirs = client.version().ok()?;
        match WireVersions::current().check_matches(&theirs) {
            Ok(()) => Some(PeerSlot::Connected(client)),
            Err(why) => {
                eprintln!("clipcache-serve: refusing version-skewed peer {addr}: {why}");
                Some(PeerSlot::Skewed)
            }
        }
    }
}

impl PeerLink for TcpLink {
    fn probe(&mut self, peer: usize, clip: ClipId) -> Probe {
        if matches!(self.slots[peer], PeerSlot::Idle) {
            self.slots[peer] = self.dial(peer).unwrap_or(PeerSlot::Idle);
        }
        let PeerSlot::Connected(client) = &mut self.slots[peer] else {
            return Probe::Down;
        };
        match client.peer_get(clip) {
            Ok(had) => Probe::Answered(had),
            Err(_) => {
                self.slots[peer] = PeerSlot::Idle;
                Probe::Down
            }
        }
    }

    /// A replay is one more `PEERGET` on the probe's connection.
    fn replay(&mut self, peer: usize, clip: ClipId) -> bool {
        self.probe(peer, clip) != Probe::Down
    }
}

/// Server-side cluster state owned by the event loop: the node's
/// [`PeerFill`] over a lazily dialled TCP peer pool.
///
/// Peer fetches are *blocking* calls made from inside the epoll loop,
/// bounded by the spec's connect/read timeouts. That is a deliberate
/// trade: the probe is one tiny frame each way, and the timeout bounds
/// the worst case (two nodes filling from each other simultaneously
/// degrade to timeout-paced, not deadlocked — each one's `PEERGET`
/// queues behind the other's in-flight work and both sides give up
/// after `read_timeout`).
pub struct ClusterRuntime {
    view: ClusterView,
    peers: PeerFill,
    link: TcpLink,
}

impl ClusterRuntime {
    /// Build the runtime; connections are dialled lazily on first probe.
    pub fn new(spec: ClusterSpec) -> ClusterRuntime {
        let n = spec.peers.len();
        ClusterRuntime {
            view: spec.view(),
            peers: PeerFill::new(n, PeerBreaker::default()),
            link: TcpLink {
                spec,
                slots: (0..n).map(|_| PeerSlot::Idle).collect(),
            },
        }
    }

    /// GETs answered by a peer instead of the origin (`PHIT`s served).
    pub fn peer_hits(&self) -> u64 {
        self.peers.peer_hits
    }

    /// Peers whose breaker is currently Open (`STATS breaker_open=`).
    pub fn breaker_open(&self) -> u64 {
        let open = |b: &&PeerBreaker| b.state() == BreakerState::Open;
        self.peers.breakers.iter().filter(open).count() as u64
    }

    /// Hints replayed onto healed peers (`STATS handoff_replayed=`).
    pub fn handoff_replayed(&self) -> u64 {
        self.peers.replayed
    }

    /// [`PeerFill::fill`] over TCP after a local miss on `clip`.
    pub fn fill(&mut self, clip: ClipId) -> bool {
        let owners = self.view.owners_for(clip);
        let me = self.link.spec.me;
        self.peers.fill(me, clip, &owners, &mut self.link)
    }
}

/// A fault plan for the modelled peer wire: drop-pre, drop-post, and
/// garbage only. Torn writes and shard poison are wire/service faults
/// that do not exist on the in-process peer hop, so a plan scheduling
/// them is rejected at construction — a chaos run that silently
/// no-opped half its faults would overstate coverage.
#[derive(Debug, Clone)]
pub struct PeerFaults {
    plan: FaultPlan,
}

impl PeerFaults {
    /// Kinds a peer-wire plan may schedule.
    pub const KINDS: [FaultKind; 3] = [
        FaultKind::DropBeforeSend,
        FaultKind::DropAfterSend,
        FaultKind::Garbage,
    ];

    /// Wrap `plan`, rejecting kinds the peer hop cannot express.
    pub fn new(plan: FaultPlan) -> Result<PeerFaults, String> {
        for kind in [FaultKind::TornWrite, FaultKind::PoisonShard] {
            if plan.includes(kind) {
                return Err(format!(
                    "peer-wire faults cannot schedule `{}`: only {} apply to the peer hop",
                    kind.spelling(),
                    PeerFaults::KINDS
                        .iter()
                        .map(|k| k.spelling())
                        .collect::<Vec<_>>()
                        .join("/"),
                ));
            }
        }
        Ok(PeerFaults { plan })
    }

    /// The underlying plan (for spelling/rate introspection).
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The fault (if any) for probe number `probe` issued by `handler`.
    fn decide(&self, handler: usize, probe: u64) -> Option<FaultKind> {
        self.plan.decide(handler as u64, probe, 0)
    }
}

/// Counters for one cluster replay; every field is client-observed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// GETs issued to the cluster.
    pub requests: u64,
    /// GETs that produced an outcome (== `requests` unless owners died).
    pub delivered: u64,
    /// Served from the handling owner's own shards.
    pub local_hits: u64,
    /// Served by a peer fill (`PHIT`).
    pub peer_hits: u64,
    /// Missed cluster-wide (origin fetch).
    pub misses: u64,
    /// GETs whose primary owner was dead and a successor handled them.
    pub failovers: u64,
    /// `PEERGET` probes issued (including faulted ones).
    pub peer_probes: u64,
    /// Probes lost to drop-pre / drop-post faults.
    pub peer_drops: u64,
    /// Probes preceded by a garbage line (peer answered `ERR`, then
    /// the real probe proceeded).
    pub peer_garbage: u64,
    /// Probes that failed because the peer was dead or errored.
    pub peer_errors: u64,
    /// Breaker trips into Open (cumulative, across all handler→peer
    /// pairs).
    pub breaker_opens: u64,
    /// Probe attempts skipped because the peer's breaker was Open.
    pub breaker_skipped: u64,
    /// Write-all halves queued as hints for Open peers.
    pub handoff_queued: u64,
    /// Hints replayed onto healed peers.
    pub handoff_replayed: u64,
    /// Hints dropped because a peer's queue was full (oldest first).
    pub handoff_dropped: u64,
}

impl ClusterStats {
    /// Client-observed cluster-wide hit rate: `(local + peer) /
    /// delivered`.
    pub fn hit_rate(&self) -> f64 {
        if self.delivered == 0 {
            return 0.0;
        }
        (self.local_hits + self.peer_hits) as f64 / self.delivered as f64
    }

    /// The conservation invariant: every delivered GET is classified
    /// exactly once.
    pub fn conservation_ok(&self) -> bool {
        self.delivered == self.local_hits + self.peer_hits + self.misses
    }
}

/// Errors a cluster GET can hit that a single node cannot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// Every owner of the clip is dead.
    NoOwnerAlive(ClipId),
    /// The handling owner's service refused the request.
    Service(ServiceError),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::NoOwnerAlive(clip) => {
                write!(f, "no alive owner for clip {}", clip.get())
            }
            ClusterError::Service(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// An in-process cluster: N [`CacheService`]s joined by a
/// [`ClusterView`], replaying the full routed request path — read-any
/// owner selection, peer fill, write-all — without sockets. This is
/// what `clusterbench` measures and what the cluster chaos golden
/// replays: deterministic (no wall clock, no thread scheduling — one
/// caller at a time) and `--jobs`-invariant by construction.
///
/// [`kill`](Self::kill) / [`revive`](Self::revive) model node failure
/// and WAL-recovered rejoin: a killed node refuses probes and routes
/// (its requests fail over to ring successors); a revived node returns
/// with its pre-kill cache state, exactly like a `--data-dir` node
/// recovering its checkpoint + WAL.
pub struct ClusterHarness {
    view: ClusterView,
    nodes: Vec<Arc<CacheService>>,
    alive: Vec<bool>,
    faults: Option<PeerFaults>,
    probe_seq: u64,
    /// Routing and peer-wire counters; [`Self::stats`] adds the peer-hit,
    /// breaker and handoff counters from `fills`.
    stats: ClusterStats,
    /// One [`PeerFill`] per handler, like N [`ClusterRuntime`]s.
    fills: Vec<PeerFill>,
    /// Deterministic kill/revive points: `(request index, node, alive)`
    /// applied before routing that request.
    schedule: Vec<(u64, usize, bool)>,
}

impl ClusterHarness {
    /// Join `services` into a cluster with the given replication factor
    /// and ring seed.
    ///
    /// # Panics
    /// If `services` is empty or `replication` is outside
    /// `1..=services.len()`.
    pub fn new(seed: u64, replication: usize, services: Vec<Arc<CacheService>>) -> ClusterHarness {
        assert!(!services.is_empty(), "cluster needs at least one node");
        let n = services.len();
        let view = ClusterView::new(seed, n, replication);
        ClusterHarness {
            view,
            nodes: services,
            alive: vec![true; n],
            faults: None,
            probe_seq: 0,
            stats: ClusterStats::default(),
            fills: vec![PeerFill::new(n, PeerBreaker::default()); n],
            schedule: Vec::new(),
        }
    }

    /// Arm (or disarm) deterministic peer-wire faults.
    pub fn set_faults(&mut self, faults: Option<PeerFaults>) {
        self.faults = faults;
    }

    /// Member count.
    pub fn nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Direct access to node `i`'s service (for seeding and for
    /// server-side conservation checks in tests).
    pub fn node(&self, i: usize) -> &Arc<CacheService> {
        &self.nodes[i]
    }

    /// Counters so far.
    pub fn stats(&self) -> ClusterStats {
        let mut s = self.stats;
        for fill in &self.fills {
            s.peer_hits += fill.peer_hits;
            s.breaker_opens += fill.breakers.iter().map(PeerBreaker::opens).sum::<u64>();
            s.breaker_skipped += fill.skipped;
            s.handoff_queued += fill.queued;
            s.handoff_replayed += fill.replayed;
            s.handoff_dropped += fill.dropped;
        }
        s
    }

    /// SIGKILL node `i`: it stops answering routes and probes.
    pub fn kill(&mut self, i: usize) {
        self.alive[i] = false;
    }

    /// Rejoin node `i` with its recovered (pre-kill) cache state.
    pub fn revive(&mut self, i: usize) {
        self.alive[i] = true;
    }

    /// Node `i`'s breaker as seen from `handler` (for tests and the
    /// degradebench experiment).
    pub fn breaker(&self, handler: usize, peer: usize) -> &PeerBreaker {
        self.fills[handler].breaker(peer)
    }

    /// Replace every handler→peer breaker with fresh ones at the given
    /// thresholds. Call before traffic: `degradebench`'s breaker-off
    /// control arm passes `u32::MAX` so no failure run ever trips (the
    /// pre-breaker cluster, every dead probe paid in full).
    pub fn set_breaker_tuning(&mut self, failure_threshold: u32, probe_interval: u64) {
        let n = self.nodes.len();
        let breaker = PeerBreaker::new(failure_threshold, probe_interval);
        self.fills = vec![PeerFill::new(n, breaker); n];
    }

    /// Schedule a deterministic kill of node `i` applied before the
    /// `at_request`-th GET (0-based). Drives `loadgen --kill-span`.
    pub fn schedule_kill(&mut self, i: usize, at_request: u64) {
        assert!(i < self.nodes.len(), "node {i} out of range");
        self.schedule.push((at_request, i, false));
    }

    /// Schedule a deterministic revive of node `i` applied before the
    /// `at_request`-th GET (0-based).
    pub fn schedule_revive(&mut self, i: usize, at_request: u64) {
        assert!(i < self.nodes.len(), "node {i} out of range");
        self.schedule.push((at_request, i, true));
    }

    /// One routed GET: first alive owner handles it; on a local miss
    /// every other alive owner is probed (peer fill + write-all), under
    /// the armed fault plan.
    pub fn get(&mut self, clip: ClipId) -> Result<GetOutcome, ClusterError> {
        let seq = self.stats.requests;
        let alive = &mut self.alive;
        self.schedule.retain(|&(at, node, up)| {
            if at <= seq {
                alive[node] = up;
            }
            at > seq
        });
        self.stats.requests += 1;
        let owners = self.view.owners_for(clip);
        let Some(handler) = owners.iter().copied().find(|&n| self.alive[n]) else {
            return Err(ClusterError::NoOwnerAlive(clip));
        };
        if handler != owners[0] {
            self.stats.failovers += 1;
        }
        let mut outcome = self.nodes[handler]
            .get(clip)
            .map_err(ClusterError::Service)?;
        if outcome.hit {
            self.stats.local_hits += 1;
        } else {
            let mut link = LocalLink {
                handler,
                nodes: &self.nodes,
                alive: &self.alive,
                faults: self.faults.as_ref(),
                probe_seq: &mut self.probe_seq,
                stats: &mut self.stats,
            };
            outcome.peer = self.fills[handler].fill(handler, clip, &owners, &mut link);
            if !outcome.peer {
                self.stats.misses += 1;
            }
        }
        self.stats.delivered += 1;
        Ok(outcome)
    }

    /// Poison `clip`'s shard on its first alive owner (chaos parity
    /// with the single-node harness).
    pub fn poison(&mut self, clip: ClipId) -> Result<(), ClusterError> {
        let owners = self.view.owners_for(clip);
        let Some(handler) = owners.iter().copied().find(|&n| self.alive[n]) else {
            return Err(ClusterError::NoOwnerAlive(clip));
        };
        self.nodes[handler].poison(clip);
        Ok(())
    }

    /// The cluster block appended to chaos reports: byte-stable,
    /// wall-clock-free. Runs that never degraded (no breaker trip, no
    /// hint traffic) render exactly the pre-breaker block, so the
    /// healthy-cluster goldens stay byte-identical.
    pub fn chaos_lines(&self) -> String {
        let s = self.stats();
        let plan = match &self.faults {
            Some(f) => f.plan().spelling(),
            None => "none".into(),
        };
        format!(
            "cluster nodes={} replication={}\n\
             peer plan {plan}\n\
             cluster observed requests={} delivered={} local_hits={} peer_hits={} misses={}\n\
             peer wire probes={} drops={} garbage={} errors={} failovers={}\n\
             {}cluster invariant conservation={}\n",
            self.nodes.len(),
            self.view.replication(),
            s.requests,
            s.delivered,
            s.local_hits,
            s.peer_hits,
            s.misses,
            s.peer_probes,
            s.peer_drops,
            s.peer_garbage,
            s.peer_errors,
            s.failovers,
            self.degraded_lines(),
            if s.conservation_ok() {
                "ok"
            } else {
                "VIOLATED"
            },
        )
    }

    /// The `degraded` block: breaker and handoff counters, rendered
    /// only when a breaker actually tripped or a hint was queued — the
    /// zero-degradation path stays byte-identical to the old report.
    pub fn degraded_lines(&self) -> String {
        let s = self.stats();
        if s.breaker_opens == 0 && s.breaker_skipped == 0 && s.handoff_queued == 0 {
            return String::new();
        }
        format!(
            "degraded breaker_opens={} probes_skipped={} handoff_queued={} \
             handoff_replayed={} handoff_dropped={}\n",
            s.breaker_opens,
            s.breaker_skipped,
            s.handoff_queued,
            s.handoff_replayed,
            s.handoff_dropped,
        )
    }
}

/// The in-process [`PeerLink`]: `handler`'s hop to the harness's member
/// services under the armed [`PeerFaults`] plan. A dead peer is down; a
/// drop fault or a service error is a lost reply from a live peer.
struct LocalLink<'a> {
    handler: usize,
    nodes: &'a [Arc<CacheService>],
    alive: &'a [bool],
    faults: Option<&'a PeerFaults>,
    probe_seq: &'a mut u64,
    stats: &'a mut ClusterStats,
}

impl PeerLink for LocalLink<'_> {
    fn probe(&mut self, peer: usize, clip: ClipId) -> Probe {
        if !self.alive[peer] {
            self.stats.peer_errors += 1;
            return Probe::Down;
        }
        self.stats.peer_probes += 1;
        let fault = self
            .faults
            .and_then(|f| f.decide(self.handler, *self.probe_seq));
        *self.probe_seq += 1;
        if let Some(kind @ (FaultKind::DropBeforeSend | FaultKind::DropAfterSend)) = fault {
            // Dropped before the wire the peer never sees the probe;
            // dropped after send it executes the access (its half of
            // write-all still happens) and only the reply is lost.
            if kind == FaultKind::DropAfterSend {
                let _ = self.nodes[peer].get(clip);
            }
            self.stats.peer_drops += 1;
            return Probe::Lost;
        }
        if fault == Some(FaultKind::Garbage) {
            // A garbage line precedes the probe; the peer answers `ERR`
            // and the real probe proceeds (server-side line discipline
            // already proves this path).
            self.stats.peer_garbage += 1;
        }
        match self.nodes[peer].get(clip) {
            Ok(o) => Probe::Answered(o.hit),
            Err(_) => {
                self.stats.peer_errors += 1;
                Probe::Lost
            }
        }
    }

    /// Replay never consults the fault plan, so `probe_seq` — and with
    /// it every later fault decision — is independent of hint traffic.
    fn replay(&mut self, peer: usize, clip: ClipId) -> bool {
        if !self.alive[peer] {
            return false;
        }
        let _ = self.nodes[peer].get(clip);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use clipcache_core::PolicyKind;
    use clipcache_media::paper;

    fn service(clips: usize, seed: u64) -> Arc<CacheService> {
        let repo = Arc::new(paper::variable_sized_repository_of(clips));
        let capacity = repo.cache_capacity_for_ratio(0.25);
        Arc::new(
            CacheService::new(
                repo,
                ServiceConfig::new(PolicyKind::Lru, 1, capacity, seed),
                None,
            )
            .expect("LRU builds"),
        )
    }

    fn cluster(n: usize, r: usize) -> ClusterHarness {
        let services = (0..n).map(|i| service(48, 7 + i as u64)).collect();
        ClusterHarness::new(0xC1A5, r, services)
    }

    #[test]
    fn spec_validates_membership() {
        let peers = vec!["a:1".to_string(), "b:2".to_string()];
        assert!(ClusterSpec::new(peers.clone(), 0, 2, 1).is_ok());
        assert!(ClusterSpec::new(vec![], 0, 1, 1).is_err());
        assert!(ClusterSpec::new(peers.clone(), 2, 1, 1).is_err());
        assert!(ClusterSpec::new(peers.clone(), 0, 0, 1).is_err());
        assert!(ClusterSpec::new(peers, 0, 3, 1).is_err());
    }

    #[test]
    fn peer_fill_turns_second_read_into_phit() {
        let mut c = cluster(3, 2);
        let clip = ClipId::new(5);
        let first = c.get(clip).unwrap();
        assert!(!first.hit);
        // The fill wrote to every owner; a read handled by any owner
        // now hits locally.
        for &owner in &c.view.owners_for(clip) {
            assert!(c.node(owner).get(clip).unwrap().hit, "owner {owner}");
        }
        let stats = c.stats();
        assert_eq!(stats.misses, 1);
        assert!(stats.conservation_ok());
    }

    #[test]
    fn failover_serves_from_replica_after_kill() {
        let mut c = cluster(3, 2);
        let clip = ClipId::new(9);
        c.get(clip).unwrap(); // fill all owners
        let owners = c.view.owners_for(clip);
        c.kill(owners[0]);
        let outcome = c.get(clip).unwrap();
        assert!(outcome.hit, "replica owner must serve the clip locally");
        assert_eq!(c.stats().failovers, 1);
        c.revive(owners[0]);
        let outcome = c.get(clip).unwrap();
        assert!(outcome.hit, "revived primary still holds its state");
    }

    #[test]
    fn all_owners_dead_is_a_loud_error() {
        let mut c = cluster(2, 1);
        let clip = ClipId::new(3);
        let owners = c.view.owners_for(clip);
        assert_eq!(owners.len(), 1);
        c.kill(owners[0]);
        assert_eq!(c.get(clip), Err(ClusterError::NoOwnerAlive(clip)));
        let stats = c.stats();
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.delivered, 0);
    }

    #[test]
    fn replication_one_issues_no_peer_traffic() {
        let mut c = cluster(3, 1);
        for id in 1..=40u32 {
            c.get(ClipId::new(id)).unwrap();
        }
        let stats = c.stats();
        assert_eq!(stats.peer_probes, 0);
        assert_eq!(stats.peer_hits, 0);
        assert!(stats.conservation_ok());
    }

    #[test]
    fn peer_faults_reject_non_wire_kinds() {
        let lossless = FaultPlan::with_kinds(1, 0.5, &FaultKind::LOSSLESS);
        let err = PeerFaults::new(lossless).unwrap_err();
        assert!(err.contains("torn"), "names the offending kind: {err}");
        let ok = FaultPlan::with_kinds(1, 0.5, &PeerFaults::KINDS);
        assert!(PeerFaults::new(ok).is_ok());
    }

    #[test]
    fn conservation_holds_under_peer_faults() {
        let mut c = cluster(3, 3);
        let plan = FaultPlan::with_kinds(0xFA17, 0.25, &PeerFaults::KINDS);
        c.set_faults(Some(PeerFaults::new(plan).unwrap()));
        for round in 0..400u32 {
            c.get(ClipId::new(round % 48 + 1)).unwrap();
        }
        let stats = c.stats();
        assert_eq!(stats.requests, 400);
        assert_eq!(stats.delivered, 400);
        assert!(stats.conservation_ok(), "{stats:?}");
        assert!(stats.peer_drops > 0, "rate 0.25 must actually fire");
        assert!(stats.peer_garbage > 0);
    }

    #[test]
    fn harness_replay_is_deterministic() {
        let run = |faults: bool| {
            let mut c = cluster(3, 2);
            if faults {
                let plan = FaultPlan::with_kinds(0xFA17, 0.1, &PeerFaults::KINDS);
                c.set_faults(Some(PeerFaults::new(plan).unwrap()));
            }
            for round in 0..300u32 {
                c.get(ClipId::new(round * 7 % 48 + 1)).unwrap();
            }
            (c.stats(), c.chaos_lines())
        };
        assert_eq!(run(false), run(false));
        assert_eq!(run(true), run(true));
    }

    #[test]
    fn chaos_lines_are_byte_stable() {
        let mut c = cluster(2, 2);
        c.get(ClipId::new(1)).unwrap();
        c.get(ClipId::new(1)).unwrap();
        let lines = c.chaos_lines();
        assert!(lines.starts_with("cluster nodes=2 replication=2\n"));
        assert!(lines.contains("peer plan none\n"));
        assert!(lines.contains("cluster invariant conservation=ok\n"));
        assert!(
            !lines.contains("degraded"),
            "a healthy run must not grow a degraded block: {lines}"
        );
    }

    #[test]
    fn kill_trips_breaker_then_revive_replays_hints() {
        // The satellite pin: kill → K misses → Open → revive →
        // HalfOpen → Closed, with the Open window's write-all halves
        // handed back to the revived peer.
        let mut c = cluster(3, 2);
        for round in 0..200u32 {
            c.get(ClipId::new(round % 48 + 1)).unwrap();
        }
        assert_eq!(c.stats().breaker_opens, 0, "healthy cluster never trips");
        c.kill(2);
        for round in 0..400u32 {
            c.get(ClipId::new(round * 5 % 48 + 1)).unwrap();
        }
        let mid = c.stats();
        assert!(mid.breaker_opens > 0, "{mid:?}");
        assert!(mid.breaker_skipped > 0, "Open must skip probes: {mid:?}");
        assert!(mid.handoff_queued > 0, "skipped fills must hint: {mid:?}");
        assert_eq!(mid.handoff_replayed, 0, "nothing replays onto a corpse");
        assert!(
            (0..2).any(|h| c.breaker(h, 2).state() == BreakerState::Open),
            "some survivor holds node 2 Open"
        );
        c.revive(2);
        for round in 0..400u32 {
            c.get(ClipId::new(round * 11 % 48 + 1)).unwrap();
        }
        let end = c.stats();
        assert!(end.handoff_replayed > 0, "heal must replay hints: {end:?}");
        assert!(
            end.peer_hits > mid.peer_hits,
            "peer fills must resume after heal: {end:?}"
        );
        for h in 0..2 {
            assert_eq!(
                c.breaker(h, 2).state(),
                BreakerState::Closed,
                "survivor {h} heals its breaker"
            );
        }
        assert!(end.conservation_ok(), "{end:?}");
    }

    #[test]
    fn hint_queue_is_bounded() {
        // 400 distinct missing clips against one dead replica must
        // overflow the 128-clip queue (drop-oldest) and replay at most
        // the bound after revive.
        let services = (0..2).map(|i| service(400, 7 + i)).collect();
        let mut c = ClusterHarness::new(0xC1A5, 2, services);
        c.kill(1);
        for id in 1..=400u32 {
            c.get(ClipId::new(id)).unwrap();
        }
        let s = c.stats();
        assert!(
            s.handoff_dropped > 0,
            "400 distinct hints must overflow the {HANDOFF_QUEUE_LIMIT}-clip bound: {s:?}"
        );
        c.revive(1);
        for id in 1..=64u32 {
            c.get(ClipId::new(id)).unwrap();
        }
        let s = c.stats();
        assert!(s.handoff_replayed > 0, "{s:?}");
        assert!(s.handoff_replayed <= HANDOFF_QUEUE_LIMIT as u64, "{s:?}");
    }

    /// A [`PeerLink`] that answers from a script, for branches no
    /// in-process cluster can reach (a live peer going down mid-replay).
    struct Scripted(VecDeque<Probe>, VecDeque<bool>, Vec<u32>);

    impl PeerLink for Scripted {
        fn probe(&mut self, _: usize, _: ClipId) -> Probe {
            self.0.pop_front().expect("script ran out of probes")
        }

        fn replay(&mut self, _: usize, clip: ClipId) -> bool {
            self.2.push(clip.get());
            self.1.pop_front().expect("script ran out of replays")
        }
    }

    #[test]
    fn down_mid_replay_stops_the_drain_and_counts_one_failure() {
        // Two downs trip node 0's breaker on node 1, three skipped fills
        // hint clips 3..=5, the HalfOpen probe closes it, and node 1
        // goes down again after one replay.
        let mut fill = PeerFill::new(2, PeerBreaker::new(2, 4));
        let probes = [Probe::Down, Probe::Down, Probe::Answered(false)];
        let mut link = Scripted(probes.into(), [true, false].into(), vec![]);
        for id in 1..=6 {
            assert!(!fill.fill(0, ClipId::new(id), &[0, 1], &mut link));
        }
        assert_eq!(link.2, [3, 4], "the failed replay stops the drain");
        assert_eq!(fill.replayed, 1);
        assert_eq!(fill.hints[1], [ClipId::new(4), ClipId::new(5)]);
        assert_eq!(fill.breaker(1).state(), BreakerState::Closed);
        assert_eq!(fill.breaker(1).consecutive_failures, 1);
    }

    #[test]
    fn a_lost_reply_is_not_a_breaker_failure_but_down_is() {
        let mut fill = PeerFill::new(2, PeerBreaker::new(1, 4));
        let probes = [Probe::Lost, Probe::Lost, Probe::Down];
        let mut link = Scripted(probes.into(), VecDeque::new(), vec![]);
        for id in 1..=3 {
            assert_eq!(fill.breaker(1).state(), BreakerState::Closed);
            assert!(!fill.fill(0, ClipId::new(id), &[0, 1], &mut link));
        }
        assert_eq!(fill.breaker(1).state(), BreakerState::Open);
        assert_eq!(fill.breaker(1).opens(), 1);
    }

    #[test]
    fn scheduled_kill_revive_is_deterministic() {
        // The schedule behind `loadgen --kill-span`: same (trace,
        // schedule) ⇒ byte-identical stats and chaos block, and the
        // degraded lines actually render.
        let run = || {
            let mut c = cluster(3, 2);
            c.schedule_kill(1, 100);
            c.schedule_revive(1, 500);
            for round in 0..800u32 {
                c.get(ClipId::new(round * 7 % 48 + 1)).unwrap();
            }
            (c.stats(), c.chaos_lines())
        };
        assert_eq!(run(), run());
        let (stats, lines) = run();
        assert!(stats.breaker_opens > 0, "{stats:?}");
        assert!(stats.conservation_ok(), "{stats:?}");
        assert!(
            lines.contains("degraded breaker_opens="),
            "degraded block must render in a kill run: {lines}"
        );
    }
}
