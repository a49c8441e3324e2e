//! The load process: one timed pass against fresh `serve` children.
//!
//! A pass sets the server(s) up several times (set-up time is the median),
//! drives the kept set with the workload's load for the run length,
//! samples the servers' `/proc` files around the timed phase, runs the
//! workload's correctness check, and — when traced — the live-server
//! probes. At most `nproc` (2) threads and connections carry load.

use crate::check;
use crate::child::{free_port, Server};
use crate::hist::Windowed;
use crate::procfs::{self, Sample, TICK_NS};
use crate::spans::{Tracer, ROOT};
use crate::workload::{Check, Load, Workload};
use clipcache_core::PolicySpec;
use clipcache_media::{ClipId, Repository};
use clipcache_serve::protocol::{encode_command, encode_reply, format_command, parse_get, Command};
use clipcache_serve::{
    is_busy_error, GetOutcome, HashRing, Reply, ServiceConfig, TcpCacheClient, Wire,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per pass; the reported set-up time is their median.
const SETUPS: usize = 11;
/// A reply slower than this is a failed request (and ends the stream).
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);
/// Live PEERGET probes in a traced pass.
const PEER_PROBES: usize = 200;
/// Replies kept for the encode probe.
const KEPT_REPLIES: usize = 1 << 16;

/// What one run is about.
pub struct Ctx<'a> {
    pub w: &'a Workload,
    pub serve: &'a Path,
    pub work: &'a Path,
    pub seed: u64,
    pub seconds: u64,
    pub repo: Arc<Repository>,
    pub policy: PolicySpec,
    pub trace: &'a [ClipId],
    /// Open-loop send offsets (ns), empty for closed loops.
    pub sched: &'a [u64],
}

impl Ctx<'_> {
    fn server_seed(&self) -> u64 {
        self.w.server_seed(self.seed)
    }

    fn service_config(&self) -> ServiceConfig {
        ServiceConfig::new(
            self.policy,
            self.w.shards,
            self.repo.cache_capacity_for_ratio(self.w.ratio),
            self.server_seed(),
        )
    }
}

/// Everything one pass measured.
#[derive(Default)]
pub struct Pass {
    pub setup_s: Vec<f64>,
    pub attempted: u64,
    pub replies: u64,
    pub failed: u64,
    pub hits: u64,
    pub hit_bytes: u64,
    pub req_bytes: u64,
    pub wall: Duration,
    pub latency: Windowed,
    pub rss_kb: u64,
    pub checks: Vec<Result<(), String>>,
}

impl Pass {
    pub fn throughput(&self) -> f64 {
        self.replies as f64 / self.wall.as_secs_f64()
    }
}

/// One load connection.
enum Conn {
    /// The open loop's line-protocol stream.
    Text(TcpStream),
    Binary(TcpCacheClient),
}

fn data_dir(ctx: &Ctx, k: usize) -> PathBuf {
    ctx.work.join(format!("data-{}-{k}", std::process::id()))
}

/// Start the workload's server(s); a durable server opens `dir`.
fn start(ctx: &Ctx, dir: Option<&Path>) -> Result<Vec<Server>, String> {
    let w = ctx.w;
    let mut base = w.serve_args(ctx.seed);
    if let Some(dir) = dir {
        base.extend(["--data-dir".into(), dir.display().to_string()]);
    }
    if w.members == 1 {
        base.extend(["--addr".into(), "127.0.0.1:0".into()]);
        return Ok(vec![Server::spawn(ctx.serve, base)?]);
    }
    let peers = (0..w.members)
        .map(|_| free_port().map(|p| format!("127.0.0.1:{p}")))
        .collect::<Result<Vec<_>, _>>()?
        .join(",");
    (0..w.members)
        .map(|i| {
            let mut args = base.clone();
            args.extend([
                "--cluster".into(),
                i.to_string(),
                "--peers".into(),
                peers.clone(),
                "--replication".into(),
                w.replication.to_string(),
            ]);
            Server::spawn(ctx.serve, args)
        })
        .collect()
}

fn connect(ctx: &Ctx, servers: &[Server]) -> Result<Vec<Conn>, String> {
    let w = ctx.w;
    let dial = |addr: &str| -> Result<Conn, String> {
        if w.wire == "text" {
            let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
            s.set_nodelay(true).map_err(|e| e.to_string())?;
            s.set_read_timeout(Some(REPLY_TIMEOUT))
                .map_err(|e| e.to_string())?;
            Ok(Conn::Text(s))
        } else {
            TcpCacheClient::connect_wire(addr, Some(REPLY_TIMEOUT), Wire::Binary)
                .map(Conn::Binary)
                .map_err(|e| format!("connect {addr}: {e}"))
        }
    };
    if w.members > 1 {
        servers.iter().map(|s| dial(&s.addr)).collect()
    } else {
        (0..w.conns).map(|_| dial(&servers[0].addr)).collect()
    }
}

fn stats(addr: &str) -> Result<clipcache_serve::ServerStats, String> {
    TcpCacheClient::connect_wire(addr, Some(REPLY_TIMEOUT), Wire::Binary)
        .and_then(|mut c| c.stats())
        .map_err(|e| format!("STATS from {addr}: {e}"))
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

pub fn median_setup(pass: &Pass) -> f64 {
    median(&mut pass.setup_s.clone())
}

fn since(start: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(start).as_nanos() as u64
}

/// Bytes of one binary GET frame plus its reply frame, as the protocol
/// encodes them (the server encodes replies with the same function).
fn binary_wire_bytes(clip: ClipId, outcome: &GetOutcome) -> u64 {
    let mut buf = Vec::with_capacity(32);
    encode_command(&Command::Get(clip), &mut buf);
    encode_reply(&Reply::Get(*outcome), &mut buf);
    buf.len() as u64
}

/// Per-connection results of the load phase.
#[derive(Default)]
struct Tally {
    attempted: u64,
    replies: u64,
    failed: u64,
    hits: u64,
    hit_bytes: u64,
    req_bytes: u64,
    latency: Windowed,
    /// Per-request hit flags in trace order (open loop only).
    hit_seq: Vec<bool>,
    kept: Vec<GetOutcome>,
    /// Request and reply bytes on the wire (closed loops count them only
    /// when traced).
    wire_bytes: u64,
    end: Option<Instant>,
}

impl Tally {
    fn new(ctx: &Ctx) -> Tally {
        Tally {
            latency: Windowed::new((ctx.seconds * 1_000_000_000 / crate::hist::WINDOW_NS) as usize),
            ..Tally::default()
        }
    }

    fn reply(&mut self, ctx: &Ctx, clip: ClipId, outcome: GetOutcome) {
        let size = ctx.repo.size_of(clip).as_u64();
        let hit = outcome.hit || outcome.peer;
        self.replies += 1;
        self.req_bytes += size;
        if hit {
            self.hits += 1;
            self.hit_bytes += size;
        }
        if self.kept.len() < KEPT_REPLIES {
            self.kept.push(outcome);
        }
    }

    fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.replies += other.replies;
        self.failed += other.failed;
        self.hits += other.hits;
        self.hit_bytes += other.hit_bytes;
        self.req_bytes += other.req_bytes;
        self.wire_bytes += other.wire_bytes;
        self.latency.merge(&other.latency);
        self.hit_seq.extend(other.hit_seq);
        self.kept.extend(other.kept);
        self.end = self.end.max(other.end);
    }
}

/// Pin the calling thread to the CPUs in `mask`.
fn set_affinity(mask: &[u64; 16]) {
    extern "C" {
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `mask` is a 1024-bit cpu_set_t that outlives the call, and
    // pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) };
}

fn pin_to_cpu(cpu: usize) {
    let mut mask = [0u64; 16];
    mask[(cpu / 64) % 16] |= 1 << (cpu % 64);
    set_affinity(&mask);
}

/// Move the calling thread to `SCHED_IDLE`: it runs only when its CPU
/// has nothing else to run, and any other thread that wakes there
/// preempts it at once.
fn idle_priority() {
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `param` is a valid sched_param that outlives the call;
    // pid 0 names the calling thread, and SCHED_IDLE needs no privilege.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) };
}

/// Run one load thread's `load` pinned to the last CPU while every other
/// CPU runs an idle-priority spinner pinned to it.
///
/// On a virtual machine a CPU with nothing to run halts, and waking it
/// takes the hypervisor tens of microseconds to milliseconds. Every
/// request wakes the server and then the client, so those wake-ups, not
/// the program, would set the latency and its run-to-run spread. The
/// spinners keep the CPUs awake without taking time from anyone: the
/// server (or any other thread) that wakes on their CPU preempts them at
/// once. With `busy_poll` the load itself also runs at idle priority (it
/// spins on a non-blocking socket), on a thread of its own that ends
/// with it. The process runs at most `nproc` threads at a time. A
/// workload that keeps the CPUs busy by itself (`warm_cpus` false) just
/// runs `load`.
fn on_warm_cpus<T: Send>(w: &Workload, busy_poll: bool, load: impl FnOnce() -> T + Send) -> T {
    if !w.warm_cpus {
        return load();
    }
    let last = std::thread::available_parallelism().map_or(1, |n| n.get()) - 1;
    let finished = AtomicBool::new(false);
    std::thread::scope(|s| {
        for cpu in 0..last {
            let finished = &finished;
            s.spawn(move || {
                pin_to_cpu(cpu);
                idle_priority();
                while !finished.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            });
        }
        let out = if busy_poll {
            s.spawn(move || {
                pin_to_cpu(last);
                idle_priority();
                load()
            })
            .join()
            .expect("load thread panicked")
        } else {
            pin_to_cpu(last);
            let out = load();
            set_affinity(&[u64::MAX; 16]);
            out
        };
        finished.store(true, Ordering::Relaxed);
        out
    })
}

/// Open loop: requests go out when the schedule says, however far
/// behind the replies are, and latency runs from the scheduled send
/// time. The thread busy-polls a non-blocking socket, sending what is
/// due and reading what has arrived, so a sleeping sender's late
/// wake-up never enters the numbers (see [`on_warm_cpus`]).
fn open_loop(ctx: &Ctx, mut stream: TcpStream, start: Instant, tr: &mut Tracer) -> Tally {
    let (trace, sched) = (ctx.trace, ctx.sched);
    let n = sched.len();
    let due = |i: usize| start + Duration::from_nanos(sched[i]);
    let mut out = Tally::new(ctx);
    out.hit_seq.reserve(n);
    if stream.set_nonblocking(true).is_err() {
        return out;
    }
    let (mut sent, mut received) = (0usize, 0usize);
    let mut wbuf: Vec<u8> = Vec::new();
    let mut rbuf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut last_progress = Instant::now();
    while received < n {
        let now = Instant::now();
        let from = sent;
        while sent < n && due(sent) <= now {
            wbuf.extend_from_slice(format_command(&Command::Get(trace[sent])).as_bytes());
            wbuf.push(b'\n');
            if tr.on() {
                let at = tr.at(now);
                tr.span("gen.late", tr.at(due(sent)), at, ROOT, sent as u64, 1);
            }
            sent += 1;
            last_progress = now;
        }
        if !wbuf.is_empty() {
            let t0 = tr.now();
            match stream.write(&wbuf) {
                Ok(k) => {
                    wbuf.drain(..k);
                    out.wire_bytes += k as u64;
                    let t1 = tr.now();
                    tr.span(
                        "client.write_lines",
                        t0,
                        t1,
                        ROOT,
                        from as u64,
                        (sent - from) as u64,
                    );
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(_) => break,
            }
        }
        let t0 = tr.now();
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(k) => {
                let done = Instant::now();
                last_progress = done;
                out.wire_bytes += k as u64;
                rbuf.extend_from_slice(&chunk[..k]);
                let mut lines = 0;
                while let Some(end) = rbuf.iter().position(|&b| b == b'\n') {
                    let i = received;
                    out.latency.record(
                        sched[i],
                        done.saturating_duration_since(due(i)).as_nanos() as u64,
                    );
                    // A malformed or BUSY reply counts as failed below,
                    // and the short hit sequence fails the serial check.
                    if let Ok(outcome) = parse_get(std::str::from_utf8(&rbuf[..end]).unwrap_or(""))
                    {
                        out.hit_seq.push(outcome.hit || outcome.peer);
                        out.reply(ctx, trace[i], outcome);
                    }
                    rbuf.drain(..=end);
                    received += 1;
                    lines += 1;
                }
                tr.span(
                    "client.read_line",
                    t0,
                    tr.at(done),
                    ROOT,
                    received as u64,
                    lines,
                );
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if sent > received && now.saturating_duration_since(last_progress) > REPLY_TIMEOUT {
                    break;
                }
                std::hint::spin_loop();
            }
            Err(_) => break,
        }
    }
    out.end = Some(Instant::now());
    out.attempted = sent as u64;
    out.failed = out.attempted - out.replies;
    out
}

/// Closed loop on one connection: send a window of `depth` GETs in one
/// write, collect the replies in order, repeat until the deadline.
/// Latency runs from the window's write. Connection `t` of `conns` takes
/// trace positions `t, t + conns, …`, cycling.
fn closed_loop(
    ctx: &Ctx,
    client: &mut TcpCacheClient,
    t: usize,
    start: Instant,
    deadline: Instant,
    tr: &mut Tracer,
) -> Tally {
    let (w, trace) = (ctx.w, ctx.trace);
    let mut out = Tally::new(ctx);
    let mut pos = t;
    let mut window = Vec::with_capacity(w.depth);
    let mut batch = 0u64;
    'run: while Instant::now() < deadline {
        window.clear();
        for _ in 0..w.depth {
            window.push(trace[pos % trace.len()]);
            pos += w.conns;
        }
        let traced = tr.on() && batch.is_multiple_of(w.span_stride);
        batch += 1;
        let sent_at = Instant::now();
        let t0 = if traced { tr.at(sent_at) } else { 0 };
        out.attempted += window.len() as u64;
        if client.send_gets(&window).is_err() {
            out.failed += window.len() as u64;
            break;
        }
        let root = if traced {
            let t1 = tr.now();
            let root = tr.span("window", t0, t1, ROOT, pos as u64, window.len() as u64);
            tr.span(
                "client.send_gets",
                t0,
                t1,
                root,
                pos as u64,
                window.len() as u64,
            );
            root
        } else {
            ROOT
        };
        for (k, &clip) in window.iter().enumerate() {
            let r0 = if traced { tr.now() } else { 0 };
            match client.recv_get() {
                Ok(outcome) => {
                    let done = Instant::now();
                    out.latency
                        .record(since(start, sent_at), (done - sent_at).as_nanos() as u64);
                    if tr.on() {
                        out.wire_bytes += binary_wire_bytes(clip, &outcome);
                    }
                    out.reply(ctx, clip, outcome);
                    if traced {
                        tr.span("client.recv_get", r0, tr.at(done), root, pos as u64, 1);
                        tr.close(root, tr.at(done));
                    }
                }
                Err(e) if is_busy_error(&e) => out.failed += 1,
                Err(_) => {
                    out.failed += (window.len() - k) as u64;
                    break 'run;
                }
            }
        }
    }
    out.end = Some(Instant::now());
    out
}

/// Closed loop through the ring: each GET goes to its primary owner,
/// falling over to the next owner on error (read-any), depth 1.
fn ring_loop(
    ctx: &Ctx,
    clients: &mut [TcpCacheClient],
    start: Instant,
    deadline: Instant,
    tr: &mut Tracer,
) -> Tally {
    let (w, trace) = (ctx.w, ctx.trace);
    let ring = HashRing::new(ctx.server_seed(), w.members);
    let mut out = Tally::new(ctx);
    let mut i = 0usize;
    while Instant::now() < deadline {
        let clip = trace[i % trace.len()];
        let traced = tr.on() && (i as u64).is_multiple_of(w.span_stride);
        i += 1;
        out.attempted += 1;
        let sent_at = Instant::now();
        let owners = ring.owners(u64::from(clip.get()), w.replication);
        let root = if traced {
            let (t0, t1) = (tr.at(sent_at), tr.now());
            let root = tr.span("request", t0, t1, ROOT, i as u64, 1);
            tr.span("ring.owners", t0, t1, root, i as u64, 1);
            root
        } else {
            ROOT
        };
        let mut answered = None;
        for node in owners {
            let client = &mut clients[node];
            let s0 = tr.now();
            if client.send_gets(&[clip]).is_err() {
                continue;
            }
            let s1 = tr.now();
            let got = client.recv_get();
            let done = Instant::now();
            if traced {
                tr.span("client.send_gets", s0, s1, root, i as u64, 1);
                tr.span("client.recv_get", s1, tr.at(done), root, i as u64, 1);
                tr.close(root, tr.at(done));
            }
            if let Ok(outcome) = got {
                answered = Some((outcome, done));
                break;
            }
        }
        match answered {
            Some((outcome, done)) => {
                out.latency
                    .record(since(start, sent_at), (done - sent_at).as_nanos() as u64);
                if tr.on() {
                    out.wire_bytes += binary_wire_bytes(clip, &outcome);
                }
                out.reply(ctx, clip, outcome);
            }
            None => out.failed += 1,
        }
    }
    out.end = Some(Instant::now());
    out
}

fn drive(
    ctx: &Ctx,
    conns: Vec<Conn>,
    start: Instant,
    tr: &mut Tracer,
) -> (Tally, Vec<TcpCacheClient>) {
    let deadline = start + Duration::from_secs(ctx.seconds);
    if let Load::Open { .. } = ctx.w.load {
        let Some(Conn::Text(stream)) = conns.into_iter().next() else {
            panic!("open loop runs on one text connection");
        };
        return (
            on_warm_cpus(ctx.w, true, || open_loop(ctx, stream, start, tr)),
            Vec::new(),
        );
    }
    let mut clients: Vec<TcpCacheClient> = conns
        .into_iter()
        .map(|c| match c {
            Conn::Binary(c) => c,
            Conn::Text(_) => panic!("closed loops speak the binary wire"),
        })
        .collect();
    if ctx.w.members > 1 {
        let out = on_warm_cpus(ctx.w, false, || {
            ring_loop(ctx, &mut clients, start, deadline, tr)
        });
        return (out, clients);
    }
    if let [client] = &mut clients[..] {
        let out = on_warm_cpus(ctx.w, false, || {
            closed_loop(ctx, client, 0, start, deadline, tr)
        });
        return (out, clients);
    }
    let mut total = Tally::new(ctx);
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(t, client)| {
                let mut own = tr.fork();
                s.spawn(move || {
                    let out = closed_loop(ctx, client, t, start, deadline, &mut own);
                    (out, own)
                })
            })
            .collect();
        for h in handles {
            let (out, own) = h.join().expect("load thread panicked");
            total.absorb(out);
            tr.absorb(own);
        }
    });
    (total, clients)
}

fn sample_all(servers: &[Server]) -> Result<Sample, String> {
    let mut sum = Sample::default();
    for s in servers {
        sum.add(&procfs::sample(&s.pid())?);
    }
    Ok(sum)
}

/// Kill `server`, start it again with the same arguments (and data
/// directory), and return it with the time from spawn to its first reply.
fn restart(ctx: &Ctx, server: Server) -> Result<(Server, u64, u64), String> {
    let args = server.args.clone();
    server.kill();
    let t0 = Instant::now();
    let again = Server::spawn(ctx.serve, args)?;
    let stats = stats(&again.addr)?;
    let elapsed = t0.elapsed().as_nanos() as u64;
    Ok((again, elapsed, stats.stats.hits + stats.stats.misses))
}

/// A pass's servers, its load connections, and a durable server's data
/// directory.
type Fleet = (Vec<Server>, Vec<Conn>, Option<PathBuf>);

/// Set the workload's servers up `SETUPS` times, timing each from spawn
/// to connected, and keep the last set.
fn set_up(ctx: &Ctx, times: &mut Vec<f64>) -> Result<Fleet, String> {
    loop {
        let dir = ctx.w.durable.then(|| data_dir(ctx, times.len()));
        let t0 = Instant::now();
        let servers = start(ctx, dir.as_deref())?;
        let conns = connect(ctx, &servers)?;
        times.push(t0.elapsed().as_secs_f64());
        if times.len() == SETUPS {
            return Ok((servers, conns, dir));
        }
        drop(conns);
        for s in servers {
            s.kill();
        }
        if let Some(dir) = dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// One pass: set up, drive, check, and (traced) probe the live servers.
pub fn pass(ctx: &Ctx, tr: &mut Tracer) -> Result<(Pass, Vec<GetOutcome>), String> {
    let w = ctx.w;
    let mut pass = Pass::default();
    if w.disk_rest_s > 0 {
        println!("resting the data disk for {} s", w.disk_rest_s);
        std::thread::sleep(Duration::from_secs(w.disk_rest_s));
    }
    let (mut servers, conns, dir) = set_up(ctx, &mut pass.setup_s)?;

    let server_before = sample_all(&servers)?;
    // A short lead lets the load threads start before the first
    // scheduled send.
    let start = Instant::now() + Duration::from_millis(5);
    let phase_t0 = tr.at(start);
    let (load, mut clients) = drive(ctx, conns, start, tr);
    let end = load.end.unwrap_or_else(Instant::now);
    let server_after = sample_all(&servers)?;
    let phase_t1 = tr.at(end);

    pass.attempted = load.attempted;
    pass.replies = load.replies;
    pass.failed = load.failed;
    pass.hits = load.hits;
    pass.hit_bytes = load.hit_bytes;
    pass.req_bytes = load.req_bytes;
    pass.wall = end.saturating_duration_since(start);
    pass.latency = load.latency;
    pass.rss_kb = server_after.vm_hwm_kb;

    let d = server_after.delta(&server_before);
    let mut counter = |name: &'static str, n: u64| {
        tr.span(name, phase_t0, phase_t1, ROOT, 0, n);
    };
    counter("load.replies", load.replies);
    counter("server.utime_ns", d.utime * TICK_NS);
    counter("server.stime_ns", d.stime * TICK_NS);
    counter("server.syscalls", d.syscr + d.syscw);
    counter("server.ctx_switches", d.ctx_switches);
    counter("server.write_bytes", d.write_bytes);
    counter("client.wire_bytes", load.wire_bytes);

    let mut peer_hits = 0;
    let mut misses = 0;
    for s in &servers {
        let st = stats(&s.addr)?;
        peer_hits += st.peer_hits;
        misses += st.stats.misses;
    }
    counter("cluster.peer_hits", peer_hits);
    counter("cluster.misses", misses);

    let check = match w.check {
        Check::SerialSequence => {
            let expected =
                check::simulated_hits(&ctx.repo, ctx.policy, w.ratio, ctx.server_seed(), ctx.trace);
            check::serial_sequence(&load.hit_seq, &expected)
        }
        Check::ServiceReplay => {
            // One connection: the server saw exactly the trace, cycled.
            let sent = ctx
                .trace
                .iter()
                .copied()
                .cycle()
                .take(pass.replies as usize);
            if pass.failed > 0 {
                Err(format!("service replay: {} GETs failed", pass.failed))
            } else {
                check::replayed_hits(&ctx.repo, ctx.service_config(), sent)
                    .and_then(|expected| check::service_replay(pass.hits, expected))
            }
        }
        Check::DurableConservation => {
            let (again, took, recovered) = restart(ctx, servers.remove(0))?;
            servers.insert(0, again);
            tr.span("persist.recovery", 0, took, ROOT, 0, 1);
            check::durable_conservation(recovered, pass.replies)
        }
        Check::OneReplyEach => {
            // Each connection's next reply must be the STATS it asks for.
            let stray_free = clients.iter_mut().all(|c| c.stats().is_ok());
            check::one_reply_each(pass.attempted, pass.replies, pass.failed, stray_free)
        }
    };
    pass.checks.push(check);
    drop(clients);

    if tr.on() {
        let mut probe =
            TcpCacheClient::connect_wire(&servers[0].addr, Some(REPLY_TIMEOUT), Wire::Binary)
                .map_err(|e| format!("probe connect: {e}"))?;
        for (i, &clip) in ctx.trace.iter().take(PEER_PROBES).enumerate() {
            let t0 = tr.now();
            probe.peer_get(clip).map_err(|e| format!("PEERGET: {e}"))?;
            let t1 = tr.now();
            tr.span("cluster.peer_get", t0, t1, ROOT, i as u64, 1);
        }
        drop(probe);
        if w.check != Check::DurableConservation {
            let (again, took, _) = restart(ctx, servers.remove(0))?;
            servers.insert(0, again);
            tr.span("persist.recovery", 0, took, ROOT, 0, 1);
        }
    }
    for s in servers {
        s.kill();
    }
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok((pass, load.kept))
}
