//! The closed-loop load harness.
//!
//! [`run`] replays a materialized trace against a target — the in-process
//! service or a TCP front-end — from `clients` threads. Each client owns
//! a round-robin partition of the trace and issues its next request only
//! after the previous reply arrives (closed loop: offered load adapts to
//! service speed, there is no open-loop queue to overflow). Per-client
//! [`HitStats`] and [`LatencyLog`]s merge order-invariantly into the
//! [`LoadReport`].
//!
//! With `clients == 1` the replay is the exact trace order, so a 1-shard
//! in-process run reproduces the serial simulator bit for bit
//! ([`serial_baseline`] builds that reference).
//!
//! ## Chaos mode
//!
//! [`run_with`] threads an optional [`FaultPlan`] through the replay:
//! each `(client, request, attempt)` consults the plan before touching
//! the wire, and injected faults (dropped connections, lost replies,
//! garbage lines, torn writes, shard poisoning) are recovered by a
//! bounded, deterministic retry loop ([`RetryPolicy`]). The loop
//! guarantees delivery: a plan never schedules more faults for one
//! request than the client has retries, so every request's final reply
//! reaches the client exactly once — the "no lost or duplicated
//! responses" invariant `tests/chaos.rs` asserts. With no plan the
//! replay takes the exact pre-chaos code path, keeping the
//! serial-equivalence anchor bit for bit. A zero-rate plan injects
//! nothing (its stats are bit-identical to a clean run) but still
//! routes through the retrying transport — that is the restart-
//! resilient mode: a TCP request caught by a server crash-restart is
//! retried over a fresh connection and counted exactly once, so
//! [`LoadReport::conserved`] holds across a `kill -9` + recovery.

use crate::client::{TcpCacheClient, Wire};
use crate::cluster::{ClusterHarness, ClusterView};
use crate::fault::{ChaosStats, FaultKind, FaultPlan, RetryPolicy};
use crate::latency::LatencyLog;
use crate::protocol::parse_command;
use crate::service::CacheService;
use crate::shard::{shard_seed, GetOutcome};
use clipcache_core::PolicySpec;
use clipcache_media::{ByteSize, ClipId, Repository};
use clipcache_sim::metrics::HitStats;
use clipcache_sim::runner::{simulate, SimulationConfig};
use clipcache_workload::Trace;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Ring-routed TCP cluster membership as a load target: the client-side
/// half of the cluster tier. Every parameter must match the servers'
/// (same list order, same seed, same replication) — placement is a pure
/// function of them, so agreement is by construction, never negotiated.
#[derive(Debug, Clone)]
pub struct ClusterRoute {
    /// Every member address, in shared membership order.
    pub peers: Vec<String>,
    /// Replication factor `R`: a GET may be served by any of the clip's
    /// `R` ring owners (read-any), tried in owner order.
    pub replication: usize,
    /// The shared ring seed.
    pub seed: u64,
}

impl ClusterRoute {
    /// The topology view this route induces.
    pub fn view(&self) -> ClusterView {
        ClusterView::new(self.seed, self.peers.len(), self.replication)
    }
}

/// Where the load goes.
#[derive(Clone)]
pub enum Target {
    /// Call the service directly (no sockets).
    InProcess(Arc<CacheService>),
    /// Speak the line protocol to this address, one connection per
    /// client thread.
    Tcp(String),
    /// The in-process cluster harness (ring routing + peer fill without
    /// sockets). Deterministic with `clients == 1`; multi-client runs
    /// serialize on the harness lock.
    Cluster(Arc<Mutex<ClusterHarness>>),
    /// Ring-route each GET across a TCP cluster, failing over to the
    /// clip's replica owners when the primary is unreachable.
    ClusterTcp(ClusterRoute),
}

/// Everything configurable about one load run.
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// Closed-loop client threads (≥ 1).
    pub clients: usize,
    /// The fault schedule; `None` replays clean. A zero-rate plan
    /// injects nothing but keeps the retrying transport, which makes
    /// the run resilient to server restarts (`--faults rate=0`).
    pub faults: Option<FaultPlan>,
    /// Retry/backoff discipline for injected faults and real I/O errors.
    pub retry: RetryPolicy,
    /// Per-request client read timeout for TCP targets (a reply slower
    /// than this surfaces as an error the retry loop recovers from).
    pub read_timeout: Option<Duration>,
    /// Wire protocol for TCP targets (in-process has no wire). Binary
    /// is the fast path; text is the debuggable default every
    /// pre-existing golden was recorded against.
    pub wire: Wire,
    /// Pipeline depth for *clean* TCP replays: each client keeps up to
    /// this many requests in flight on its connection (batched into
    /// one write per window). Depth 1 is the classic closed loop. The
    /// chaos replay always runs request-at-a-time regardless — fault
    /// attribution is per-request. Per-connection reply order is
    /// preserved by the server, so a 1-shard 1-client pipelined run is
    /// still bit-identical to the serial simulator.
    pub pipeline: usize,
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions {
            clients: 1,
            faults: None,
            retry: RetryPolicy::default(),
            read_timeout: None,
            wire: Wire::Text,
            pipeline: 1,
        }
    }
}

impl LoadOptions {
    /// Clean-replay options for `clients` threads.
    pub fn clients(clients: usize) -> Self {
        LoadOptions {
            clients,
            ..LoadOptions::default()
        }
    }
}

/// Everything one load run measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Hit statistics observed at the clients (merged across threads).
    pub observed: HitStats,
    /// Wall-clock request latencies (merged across threads).
    pub latency: LatencyLog,
    /// Wall-clock duration of the whole run in seconds.
    pub elapsed_secs: f64,
    /// Client threads used.
    pub clients: usize,
    /// Chaos counters (all zero for a clean replay).
    pub chaos: ChaosStats,
    /// Shard recoveries the *server* performed during the run.
    pub recoveries: u64,
    /// The fault plan the run used, if any.
    pub plan: Option<FaultPlan>,
}

impl LoadReport {
    /// Requests completed per wall-clock second.
    pub fn throughput(&self) -> f64 {
        if self.elapsed_secs <= 0.0 {
            return 0.0;
        }
        self.observed.requests() as f64 / self.elapsed_secs
    }

    /// The chaos invariant: every request's reply was delivered to the
    /// issuing client exactly once (no losses, no duplicates), and each
    /// delivered reply was recorded exactly once in the hit statistics
    /// (`hits + misses == delivered`).
    pub fn conserved(&self) -> bool {
        self.observed.requests() == self.chaos.delivered
            && self.latency.count() as u64 == self.chaos.delivered
    }

    /// A deterministic chaos summary: everything the run counted except
    /// wall-clock quantities, one `key=value` group per line. Two runs
    /// with the same `(trace, plan, clients)` must render byte-identical
    /// reports — CI diffs this against a committed golden.
    ///
    /// The `degraded` line appears only when the run actually degraded
    /// (the client received governor `BUSY` sheds), so every report
    /// from a non-degraded run — including all pre-existing goldens —
    /// renders byte-identically to before the line existed.
    pub fn chaos_report(&self) -> String {
        let plan = match &self.plan {
            Some(p) => p.spelling(),
            None => "none".into(),
        };
        let c = &self.chaos;
        let degraded = if c.busy_backoffs > 0 {
            format!("degraded busy_backoffs={}\n", c.busy_backoffs)
        } else {
            String::new()
        };
        format!(
            "chaos-report v1\n\
             plan {plan}\n\
             clients={} delivered={}\n\
             faults drop_pre={} drop_post={} garbage={} torn={} poison={} injected={}\n\
             recovery retries={} reconnects={} err_replies={} shard_recoveries={}\n\
             {degraded}observed hits={} misses={} byte_hits={} byte_misses={} evictions={}\n\
             invariant conservation={}\n",
            self.clients,
            c.delivered,
            c.drops_before,
            c.drops_after,
            c.garbage,
            c.torn,
            c.poisons,
            c.injected(),
            c.retries,
            c.reconnects,
            c.err_replies,
            self.recoveries,
            self.observed.hits,
            self.observed.misses,
            self.observed.byte_hits.as_u64(),
            self.observed.byte_misses.as_u64(),
            self.observed.evictions,
            if self.conserved() { "ok" } else { "VIOLATED" },
        )
    }
}

/// One client's view of the run.
struct ClientLog {
    stats: HitStats,
    latency: LatencyLog,
    chaos: ChaosStats,
}

/// The target-specific operations the chaos replay drives. Implementors
/// reconnect lazily: dropping the connection is cheap, and the next
/// operation re-establishes it (counting the reconnect).
trait Transport {
    fn get(&mut self, clip: ClipId) -> std::io::Result<GetOutcome>;
    /// `get` delivered with hostile framing (torn write). In-process
    /// targets have no wire, so this is a plain `get` there.
    fn get_torn(&mut self, clip: ClipId) -> std::io::Result<GetOutcome>;
    /// Inject one line of garbage; returns whether it was answered with
    /// a structured `ERR` (always true in-process: the parser rejected).
    fn send_garbage(&mut self, payload: &[u8]) -> std::io::Result<bool>;
    /// Poison the clip's shard.
    fn poison(&mut self, clip: ClipId) -> std::io::Result<()>;
    /// Drop the connection (no-op in-process).
    fn drop_conn(&mut self);
    /// Reconnections performed so far.
    fn reconnects(&self) -> u64;
}

/// One in-process GET, acknowledged only once [`CacheService::sync`]
/// has made its WAL record durable (a no-op unless the service is
/// durable at `--wal-sync always`).
fn durable_get(service: &CacheService, clip: ClipId) -> std::io::Result<GetOutcome> {
    service
        .get(clip)
        .and_then(|outcome| service.sync().map(|()| outcome))
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))
}

struct InProcessTransport {
    service: Arc<CacheService>,
}

impl Transport for InProcessTransport {
    fn get(&mut self, clip: ClipId) -> std::io::Result<GetOutcome> {
        durable_get(&self.service, clip)
    }

    fn get_torn(&mut self, clip: ClipId) -> std::io::Result<GetOutcome> {
        self.get(clip)
    }

    fn send_garbage(&mut self, payload: &[u8]) -> std::io::Result<bool> {
        // No wire to corrupt; feed the garbage to the same parser the
        // server would use and report whether it was rejected.
        Ok(parse_command(&String::from_utf8_lossy(payload)).is_err())
    }

    fn poison(&mut self, clip: ClipId) -> std::io::Result<()> {
        self.service.poison(clip);
        Ok(())
    }

    fn drop_conn(&mut self) {}

    fn reconnects(&self) -> u64 {
        0
    }
}

struct TcpTransport {
    addr: String,
    read_timeout: Option<Duration>,
    wire: Wire,
    client: Option<TcpCacheClient>,
    reconnects: u64,
}

impl TcpTransport {
    fn new(addr: &str, read_timeout: Option<Duration>, wire: Wire) -> Self {
        TcpTransport {
            addr: addr.to_string(),
            read_timeout,
            wire,
            client: None,
            reconnects: 0,
        }
    }

    fn ensure(&mut self) -> std::io::Result<&mut TcpCacheClient> {
        if self.client.is_none() {
            self.client = Some(TcpCacheClient::connect_wire(
                self.addr.as_str(),
                self.read_timeout,
                self.wire,
            )?);
            self.reconnects += 1;
        }
        Ok(self.client.as_mut().expect("just connected"))
    }

    fn finish(mut self) -> std::io::Result<()> {
        match self.client.take() {
            Some(client) => client.quit(),
            None => Ok(()),
        }
    }
}

impl Transport for TcpTransport {
    fn get(&mut self, clip: ClipId) -> std::io::Result<GetOutcome> {
        self.ensure()?.get(clip)
    }

    fn get_torn(&mut self, clip: ClipId) -> std::io::Result<GetOutcome> {
        self.ensure()?.get_torn(clip)
    }

    fn send_garbage(&mut self, payload: &[u8]) -> std::io::Result<bool> {
        let client = self.ensure()?;
        let reply = match client.wire() {
            // Text garbage: the plan's payload as one hostile line.
            Wire::Text => client.send_raw(payload)?,
            // Binary garbage: a corrupt-length frame (valid check byte,
            // impossible length) — the recoverable header-corruption
            // path; the server must resync after exactly the header.
            Wire::Binary => client.send_corrupt_frame()?,
        };
        Ok(reply.starts_with("ERR "))
    }

    fn poison(&mut self, clip: ClipId) -> std::io::Result<()> {
        self.ensure()?.poison(clip).map(|_| ())
    }

    fn drop_conn(&mut self) {
        self.client = None; // closes the socket
    }

    fn reconnects(&self) -> u64 {
        // The first connection of the run is establishment, not
        // recovery.
        self.reconnects.saturating_sub(1)
    }
}

/// The in-process cluster harness as a transport: the harness already
/// models routing, failover, and the peer wire, so the transport is a
/// thin lock-and-forward.
struct HarnessTransport {
    harness: Arc<Mutex<ClusterHarness>>,
}

impl HarnessTransport {
    fn lock(&self) -> std::sync::MutexGuard<'_, ClusterHarness> {
        self.harness.lock().expect("cluster harness poisoned")
    }
}

impl Transport for HarnessTransport {
    fn get(&mut self, clip: ClipId) -> std::io::Result<GetOutcome> {
        self.lock()
            .get(clip)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::NotConnected, e))
    }

    fn get_torn(&mut self, clip: ClipId) -> std::io::Result<GetOutcome> {
        self.get(clip)
    }

    fn send_garbage(&mut self, payload: &[u8]) -> std::io::Result<bool> {
        Ok(parse_command(&String::from_utf8_lossy(payload)).is_err())
    }

    fn poison(&mut self, clip: ClipId) -> std::io::Result<()> {
        self.lock()
            .poison(clip)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::NotConnected, e))
    }

    fn drop_conn(&mut self) {}

    fn reconnects(&self) -> u64 {
        0
    }
}

/// The ring-routing TCP transport: one lazy connection per cluster
/// member, each GET sent to the clip's first reachable owner (read-any
/// failover in owner order). A member that refuses or times out has its
/// connection dropped; the next request to it redials, which is how a
/// killed-and-restarted node is picked back up without any membership
/// churn.
struct ClusterTcpTransport {
    route: ClusterRoute,
    view: ClusterView,
    read_timeout: Option<Duration>,
    wire: Wire,
    conns: Vec<Option<TcpCacheClient>>,
    /// Members dialled at least once (their first dial is
    /// establishment, not recovery).
    dialled: Vec<bool>,
    reconnects: u64,
}

impl ClusterTcpTransport {
    fn new(route: &ClusterRoute, read_timeout: Option<Duration>, wire: Wire) -> Self {
        let view = route.view();
        let conns = (0..route.peers.len()).map(|_| None).collect();
        let dialled = vec![false; route.peers.len()];
        ClusterTcpTransport {
            route: route.clone(),
            view,
            read_timeout,
            wire,
            conns,
            dialled,
            reconnects: 0,
        }
    }

    fn ensure(&mut self, node: usize) -> std::io::Result<&mut TcpCacheClient> {
        if self.conns[node].is_none() {
            self.conns[node] = Some(TcpCacheClient::connect_wire(
                self.route.peers[node].as_str(),
                self.read_timeout,
                self.wire,
            )?);
            if self.dialled[node] {
                self.reconnects += 1;
            }
            self.dialled[node] = true;
        }
        Ok(self.conns[node].as_mut().expect("just connected"))
    }

    /// Run `op` against each of `clip`'s owners in order until one
    /// succeeds; a failed owner's connection is dropped so its next use
    /// redials.
    fn on_owners<T>(
        &mut self,
        clip: ClipId,
        mut op: impl FnMut(&mut TcpCacheClient) -> std::io::Result<T>,
    ) -> std::io::Result<T> {
        let owners = self.view.owners_for(clip);
        let mut last: Option<std::io::Error> = None;
        for &node in &owners {
            match self.ensure(node).and_then(&mut op) {
                Ok(value) => return Ok(value),
                Err(e) => {
                    self.conns[node] = None;
                    last = Some(e);
                }
            }
        }
        Err(last.expect("owner set is never empty"))
    }

    fn finish(mut self) -> std::io::Result<()> {
        for conn in &mut self.conns {
            if let Some(client) = conn.take() {
                client.quit()?;
            }
        }
        Ok(())
    }
}

impl Transport for ClusterTcpTransport {
    fn get(&mut self, clip: ClipId) -> std::io::Result<GetOutcome> {
        self.on_owners(clip, |client| client.get(clip))
    }

    fn get_torn(&mut self, clip: ClipId) -> std::io::Result<GetOutcome> {
        self.on_owners(clip, |client| client.get_torn(clip))
    }

    fn send_garbage(&mut self, payload: &[u8]) -> std::io::Result<bool> {
        // Garbage has no clip to route by; member 0 takes the abuse.
        let client = self.ensure(0)?;
        let reply = match client.wire() {
            Wire::Text => client.send_raw(payload)?,
            Wire::Binary => client.send_corrupt_frame()?,
        };
        Ok(reply.starts_with("ERR "))
    }

    fn poison(&mut self, clip: ClipId) -> std::io::Result<()> {
        self.on_owners(clip, |client| client.poison(clip).map(|_| ()))
    }

    fn drop_conn(&mut self) {
        for conn in &mut self.conns {
            *conn = None;
        }
    }

    fn reconnects(&self) -> u64 {
        self.reconnects
    }
}

/// Deliver one request through the fault schedule, retrying until the
/// reply reaches the client.
///
/// `attempt` drives the plan (injection stops once the retry budget is
/// consumed, so delivery is guaranteed); `io_retries` separately bounds
/// recovery from *real* transport errors so a genuinely dead server
/// still surfaces as `Err` instead of an infinite loop.
fn chaos_get(
    transport: &mut dyn Transport,
    clip: ClipId,
    client: u64,
    request: u64,
    plan: &FaultPlan,
    retry: &RetryPolicy,
    chaos: &mut ChaosStats,
) -> std::io::Result<GetOutcome> {
    let mut attempt: u32 = 0;
    let mut io_retries: u32 = 0;
    loop {
        let injected = if attempt <= retry.max_retries {
            plan.decide(client, request, attempt)
        } else {
            None
        };
        // Faults that consume this attempt entirely and force a retry.
        match injected {
            Some(FaultKind::DropBeforeSend) => {
                chaos.drops_before += 1;
                chaos.retries += 1;
                transport.drop_conn();
                std::thread::sleep(retry.backoff(attempt));
                attempt += 1;
                continue;
            }
            Some(FaultKind::DropAfterSend) => {
                // The server processes the request; the reply is lost in
                // flight (read and discarded), so the retried GET is the
                // idempotent duplicate.
                match transport.get(clip) {
                    Ok(_) | Err(_) => {}
                }
                chaos.drops_after += 1;
                chaos.retries += 1;
                transport.drop_conn();
                std::thread::sleep(retry.backoff(attempt));
                attempt += 1;
                continue;
            }
            // Faults that precede the real request on this attempt.
            Some(FaultKind::Garbage) => {
                chaos.garbage += 1;
                let payload = plan.garbage_payload(client, request, attempt);
                match transport.send_garbage(&payload) {
                    Ok(true) => chaos.err_replies += 1,
                    Ok(false) => {}
                    Err(_) => transport.drop_conn(),
                }
            }
            Some(FaultKind::PoisonShard) => {
                chaos.poisons += 1;
                // A refusal (chaos-disabled server) is an ERR reply, not
                // a dead connection; either way the real GET proceeds.
                let _ = transport.poison(clip);
            }
            Some(FaultKind::TornWrite) | None => {}
        }
        let result = if injected == Some(FaultKind::TornWrite) {
            chaos.torn += 1;
            transport.get_torn(clip)
        } else {
            transport.get(clip)
        };
        match result {
            Ok(outcome) => {
                chaos.delivered += 1;
                return Ok(outcome);
            }
            Err(e) => {
                // A real transport failure (dead server, timeout,
                // refused admission): bounded reconnect-and-retry.
                if io_retries >= retry.max_retries {
                    return Err(e);
                }
                io_retries += 1;
                chaos.retries += 1;
                if crate::client::is_busy_error(&e) {
                    // A governor shed: the server is alive, just loaded.
                    // Keep the connection (redialing adds to its burden)
                    // and back off before the idempotent re-send.
                    chaos.busy_backoffs += 1;
                } else {
                    transport.drop_conn();
                }
                std::thread::sleep(retry.backoff(attempt));
                attempt += 1;
            }
        }
    }
}

/// The clean replay: the exact pre-chaos fast path, used whenever no
/// fault plan is active so the serial-equivalence anchor stays intact.
fn replay(
    part: &Trace,
    repo: &Repository,
    mut get: impl FnMut(ClipId) -> std::io::Result<GetOutcome>,
) -> std::io::Result<ClientLog> {
    let mut stats = HitStats::new();
    let mut latency = LatencyLog::new();
    let mut chaos = ChaosStats::default();
    for req in part {
        let size = repo.size_of(req.clip);
        let started = Instant::now();
        let outcome = get(req.clip)?;
        latency.record_nanos(started.elapsed().as_nanos() as u64);
        // A peer fill (`PHIT`) is an origin fetch avoided: the client
        // observes it as a hit. Non-cluster targets never set `peer`.
        stats.record(outcome.hit || outcome.peer, size, outcome.evictions);
        chaos.delivered += 1;
    }
    Ok(ClientLog {
        stats,
        latency,
        chaos,
    })
}

/// The pipelined clean replay: windows of up to `depth` requests are
/// batched into one write, then the replies are collected in order.
/// Per-reply latency is measured from the window's send, so it includes
/// the queueing a deep pipeline creates — that is the honest number.
///
/// Because the server preserves per-connection order, the sequence of
/// (request, outcome) pairs is identical to a depth-1 replay of the
/// same partition: pipelining changes timing, never results.
fn replay_pipelined(
    part: &Trace,
    repo: &Repository,
    client: &mut TcpCacheClient,
    depth: usize,
) -> std::io::Result<ClientLog> {
    let mut stats = HitStats::new();
    let mut latency = LatencyLog::new();
    let mut chaos = ChaosStats::default();
    let mut window: Vec<ClipId> = Vec::with_capacity(depth);
    for batch in part.requests().chunks(depth.max(1)) {
        window.clear();
        window.extend(batch.iter().map(|req| req.clip));
        let started = Instant::now();
        client.send_gets(&window)?;
        for req in batch {
            let outcome = client.recv_get()?;
            latency.record_nanos(started.elapsed().as_nanos() as u64);
            stats.record(
                outcome.hit || outcome.peer,
                repo.size_of(req.clip),
                outcome.evictions,
            );
            chaos.delivered += 1;
        }
    }
    Ok(ClientLog {
        stats,
        latency,
        chaos,
    })
}

/// The chaos replay: every request runs through [`chaos_get`].
fn replay_chaos(
    part: &Trace,
    repo: &Repository,
    transport: &mut dyn Transport,
    client: u64,
    plan: &FaultPlan,
    retry: &RetryPolicy,
) -> std::io::Result<ClientLog> {
    let mut stats = HitStats::new();
    let mut latency = LatencyLog::new();
    let mut chaos = ChaosStats::default();
    for (index, req) in part.requests().iter().enumerate() {
        let size = repo.size_of(req.clip);
        let started = Instant::now();
        let outcome = chaos_get(
            transport,
            req.clip,
            client,
            index as u64,
            plan,
            retry,
            &mut chaos,
        )?;
        latency.record_nanos(started.elapsed().as_nanos() as u64);
        stats.record(outcome.hit || outcome.peer, size, outcome.evictions);
    }
    chaos.reconnects = transport.reconnects();
    Ok(ClientLog {
        stats,
        latency,
        chaos,
    })
}

/// Replay `trace` against `target` from `options.clients` closed-loop
/// threads, injecting `options.faults` if set.
///
/// Client `c` replays partition `c` of
/// [`Trace::partition_round_robin`]`(clients)`, so the union of issued
/// requests is exactly the trace regardless of thread count; only the
/// interleaving (and therefore multi-shard cache state) varies.
///
/// # Panics
/// If `options.clients == 0`.
pub fn run_with(
    target: &Target,
    repo: &Arc<Repository>,
    trace: &Trace,
    options: &LoadOptions,
) -> std::io::Result<LoadReport> {
    let clients = options.clients;
    assert!(clients > 0, "need at least one client");
    let parts = trace.partition_round_robin(clients);
    let started = Instant::now();
    let logs: Vec<std::io::Result<ClientLog>> = if clients == 1 {
        // Single client: run on this thread — keeps the serial-equivalence
        // path free of scheduler noise.
        vec![run_client(target, repo, &parts[0], 0, options)]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = parts
                .iter()
                .enumerate()
                .map(|(c, part)| scope.spawn(move || run_client(target, repo, part, c, options)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        })
    };
    let elapsed_secs = started.elapsed().as_secs_f64();
    let mut observed = HitStats::new();
    let mut latency = LatencyLog::new();
    let mut chaos = ChaosStats::default();
    for log in logs {
        let log = log?;
        observed.merge(&log.stats);
        latency.merge(&log.latency);
        chaos.merge(&log.chaos);
    }
    let recoveries = match target {
        Target::InProcess(service) => service.recoveries(),
        Target::Tcp(addr) => {
            let mut client =
                TcpCacheClient::connect_wire(addr.as_str(), options.read_timeout, options.wire)?;
            let recoveries = client.stats()?.recoveries;
            client.quit()?;
            recoveries
        }
        Target::Cluster(harness) => {
            let harness = harness.lock().expect("cluster harness poisoned");
            (0..harness.nodes())
                .map(|i| harness.node(i).recoveries())
                .sum()
        }
        // Cluster-wide recoveries: sum over every member that still
        // answers (a dead member's count is unknowable — report what
        // the living cluster performed).
        Target::ClusterTcp(route) => {
            let mut total = 0;
            for addr in &route.peers {
                if let Ok(mut client) =
                    TcpCacheClient::connect_wire(addr.as_str(), options.read_timeout, options.wire)
                {
                    total += client.stats()?.recoveries;
                    client.quit()?;
                }
            }
            total
        }
    };
    Ok(LoadReport {
        observed,
        latency,
        elapsed_secs,
        clients,
        chaos,
        recoveries,
        plan: options.faults.clone(),
    })
}

/// Replay `trace` against `target` from `clients` clean closed-loop
/// threads (no fault injection) — see [`run_with`].
pub fn run(
    target: &Target,
    repo: &Arc<Repository>,
    trace: &Trace,
    clients: usize,
) -> std::io::Result<LoadReport> {
    run_with(target, repo, trace, &LoadOptions::clients(clients))
}

fn run_client(
    target: &Target,
    repo: &Repository,
    part: &Trace,
    client_index: usize,
    options: &LoadOptions,
) -> std::io::Result<ClientLog> {
    // Any plan — even rate=0 — routes through the retrying chaos
    // transport: zero-rate injects nothing (bit-identical stats, the
    // test below pins it) but survives a server restart mid-run via
    // lazy reconnect + bounded io_retries, with the request counted
    // exactly once.
    let plan = options.faults.as_ref();
    match (target, plan) {
        (Target::InProcess(service), None) => replay(part, repo, |clip| durable_get(service, clip)),
        (Target::Tcp(addr), None) => {
            let mut client =
                TcpCacheClient::connect_wire(addr.as_str(), options.read_timeout, options.wire)?;
            let log = if options.pipeline > 1 {
                replay_pipelined(part, repo, &mut client, options.pipeline)?
            } else {
                replay(part, repo, |clip| client.get(clip))?
            };
            client.quit()?;
            Ok(log)
        }
        (Target::InProcess(service), Some(plan)) => {
            let mut transport = InProcessTransport {
                service: Arc::clone(service),
            };
            replay_chaos(
                part,
                repo,
                &mut transport,
                client_index as u64,
                plan,
                &options.retry,
            )
        }
        (Target::Tcp(addr), Some(plan)) => {
            let mut transport = TcpTransport::new(addr, options.read_timeout, options.wire);
            let log = replay_chaos(
                part,
                repo,
                &mut transport,
                client_index as u64,
                plan,
                &options.retry,
            )?;
            transport.finish()?;
            Ok(log)
        }
        (Target::Cluster(harness), None) => replay(part, repo, |clip| {
            harness
                .lock()
                .expect("cluster harness poisoned")
                .get(clip)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::NotConnected, e))
        }),
        (Target::Cluster(harness), Some(plan)) => {
            let mut transport = HarnessTransport {
                harness: Arc::clone(harness),
            };
            replay_chaos(
                part,
                repo,
                &mut transport,
                client_index as u64,
                plan,
                &options.retry,
            )
        }
        // Ring routing picks a connection per clip, so there is no
        // single pipe to batch into: cluster replays run
        // request-at-a-time whatever `options.pipeline` says.
        (Target::ClusterTcp(route), None) => {
            let mut transport = ClusterTcpTransport::new(route, options.read_timeout, options.wire);
            let log = replay(part, repo, |clip| transport.get(clip))?;
            transport.finish()?;
            Ok(log)
        }
        (Target::ClusterTcp(route), Some(plan)) => {
            let mut transport = ClusterTcpTransport::new(route, options.read_timeout, options.wire);
            let log = replay_chaos(
                part,
                repo,
                &mut transport,
                client_index as u64,
                plan,
                &options.retry,
            )?;
            transport.finish()?;
            Ok(log)
        }
    }
}

/// The serial reference: replay `trace` through the plain simulator with
/// the seed shard 0 of a service would get. A 1-shard, 1-client load run
/// must produce these exact [`HitStats`].
pub fn serial_baseline(
    repo: &Arc<Repository>,
    policy: PolicySpec,
    capacity: ByteSize,
    seed: u64,
    trace: &Trace,
) -> HitStats {
    let mut cache = policy.build(Arc::clone(repo), capacity, shard_seed(seed, 0), None);
    simulate(
        cache.as_mut(),
        repo,
        trace.requests(),
        &SimulationConfig::default(),
    )
    .stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use clipcache_core::PolicyKind;
    use clipcache_media::paper;
    use clipcache_workload::RequestGenerator;

    fn fixture(shards: usize) -> (Arc<Repository>, Arc<CacheService>, Trace) {
        let repo = Arc::new(paper::variable_sized_repository_of(24));
        let service = Arc::new(
            CacheService::new(
                Arc::clone(&repo),
                ServiceConfig::new(
                    PolicyKind::Lru,
                    shards,
                    repo.cache_capacity_for_ratio(0.25),
                    42,
                ),
                None,
            )
            .unwrap(),
        );
        let trace = Trace::from_generator(RequestGenerator::new(24, 0.27, 0, 2_000, 9));
        (repo, service, trace)
    }

    #[test]
    fn observed_stats_match_service_stats() {
        let (repo, service, trace) = fixture(4);
        let report = run(&Target::InProcess(Arc::clone(&service)), &repo, &trace, 3).unwrap();
        // Client-observed and server-side counters describe the same
        // requests, so they agree exactly whatever the interleaving.
        assert_eq!(report.observed, service.stats());
        assert_eq!(report.observed.requests(), 2_000);
        assert_eq!(report.latency.count(), 2_000);
        assert!(report.throughput() > 0.0);
        assert_eq!(report.chaos.delivered, 2_000);
        assert!(report.conserved());
        assert_eq!(report.recoveries, 0);
    }

    #[test]
    fn single_client_single_shard_is_serial() {
        let (repo, service, trace) = fixture(1);
        let report = run(&Target::InProcess(Arc::clone(&service)), &repo, &trace, 1).unwrap();
        let baseline = serial_baseline(
            &repo,
            PolicyKind::Lru.into(),
            repo.cache_capacity_for_ratio(0.25),
            42,
            &trace,
        );
        assert_eq!(report.observed, baseline);
        assert_eq!(service.stats(), baseline);
    }

    #[test]
    fn zero_rate_plan_is_bit_identical_to_clean_replay() {
        let (repo, clean_service, trace) = fixture(1);
        let clean = run(
            &Target::InProcess(Arc::clone(&clean_service)),
            &repo,
            &trace,
            1,
        )
        .unwrap();
        let (_, chaos_service, _) = fixture(1);
        let options = LoadOptions {
            faults: Some(FaultPlan::new(7, 0.0)),
            ..LoadOptions::default()
        };
        let chaotic = run_with(
            &Target::InProcess(Arc::clone(&chaos_service)),
            &repo,
            &trace,
            &options,
        )
        .unwrap();
        assert_eq!(chaotic.observed, clean.observed);
        assert_eq!(chaotic.chaos.injected(), 0);
        assert!(chaotic.conserved());
    }
}
