//! `walbench` — the durable write path's performance envelope: what
//! acked-durable requests cost at `--wal-sync always`, in process and
//! over TCP, and what segmented recovery costs.
//!
//! ```text
//! walbench [--requests n] [--threads a,b] [--histories a,b,c]
//!          [--segment-bytes n] [--clips n] [--seed n]
//!          [--out path] [--check baseline.json] [--tolerance f]
//!          [--recovery-factor f]
//! ```
//!
//! Three sweeps, all over real disks and real fsyncs:
//!
//! * **in-process cells** — `--threads` workers drive a persistent
//!   [`CacheService`] at `--wal-sync always`; each request is a `get`
//!   followed by a `sync`, and counts as acked once the sync returns.
//!   Concurrent workers share an fsync when one worker's sync covers
//!   another's append.
//! * **TCP cells** — the same durable service behind [`serve_with`] on
//!   loopback, for every wire (binary, text) × depth (1, 16) ×
//!   connections (1, 2): each connection keeps `depth` GETs in flight
//!   and counts a request as acked when its reply arrives. The server
//!   fsyncs once per event-loop turn, so pipelined and concurrent
//!   requests share fsyncs.
//! * **recovery cells** — wall-clock reopen time versus WAL history,
//!   with and without a covering checkpoint. Without one, replay work
//!   grows with the log; with one, the checkpoint frame subsumes every
//!   sealed segment, so recovery decodes at most the one active
//!   segment and replays nothing, no matter how long the history.
//!
//! Throughput cells report the best of three trials. The report *shape*
//! is deterministic (same cells, same keys); the wall-clock numbers vary
//! run to run, which is why this is a serve binary and not a `repro`
//! figure. `--check baseline.json` turns the run into a gate: it fails
//! (exit 1) if any throughput cell drops more than `--tolerance`
//! (default 0.50 — fsync timing on shared runners is noisy) below the
//! committed baseline, or any recovery cell exceeds the baseline's by
//! more than `--recovery-factor` (default 10×). CI runs this against
//! `results/wal/BENCH_wal.json`.

use clipcache_core::snapshot::CacheSnapshot;
use clipcache_core::PolicyKind;
use clipcache_media::{paper, ByteSize, ClipId};
use clipcache_serve::persist::{DurableCheckpoint, ShardStore, WalOp, WalSync, WalTuning};
use clipcache_serve::{
    serve_with, CacheService, PersistOptions, ServerConfig, ServiceConfig, TcpCacheClient, Wire,
};
use clipcache_sim::metrics::HitStats;
use clipcache_workload::{json, Timestamp};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    requests: u64,
    threads: Vec<u64>,
    histories: Vec<u64>,
    segment_bytes: u64,
    clips: usize,
    seed: u64,
    out: Option<String>,
    check: Option<String>,
    tolerance: f64,
    recovery_factor: f64,
}

fn parse_list(v: &str, flag: &str) -> Result<Vec<u64>, String> {
    let list: Result<Vec<u64>, _> = v.split(',').map(|s| s.trim().parse()).collect();
    match list {
        Ok(l) if !l.is_empty() => Ok(l),
        _ => Err(format!("bad {flag}: need a comma list of counts")),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        requests: 16_000,
        threads: vec![1, 4],
        histories: vec![10_000, 40_000],
        segment_bytes: 256 * 1024,
        clips: 24,
        seed: 0x5EED_2009,
        out: None,
        check: None,
        tolerance: 0.50,
        recovery_factor: 10.0,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--requests" => {
                let v = argv.next().ok_or("--requests needs a count")?;
                args.requests = v.parse().map_err(|e| format!("bad --requests: {e}"))?;
            }
            "--threads" => {
                let v = argv.next().ok_or("--threads needs a comma list")?;
                args.threads = parse_list(&v, "--threads")?;
                if args.threads.contains(&0) {
                    return Err("--threads counts must be at least 1".into());
                }
            }
            "--histories" => {
                let v = argv.next().ok_or("--histories needs a comma list")?;
                args.histories = parse_list(&v, "--histories")?;
            }
            "--segment-bytes" => {
                let v = argv.next().ok_or("--segment-bytes needs a size")?;
                args.segment_bytes = v.parse().map_err(|e| format!("bad --segment-bytes: {e}"))?;
                if args.segment_bytes == 0 {
                    return Err("--segment-bytes must be at least 1".into());
                }
            }
            "--clips" => {
                let v = argv.next().ok_or("--clips needs a count")?;
                args.clips = v.parse().map_err(|e| format!("bad --clips: {e}"))?;
            }
            "--seed" => {
                let v = argv.next().ok_or("--seed needs a value")?;
                args.seed = v.parse().map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--out" => args.out = Some(argv.next().ok_or("--out needs a path")?),
            "--check" => args.check = Some(argv.next().ok_or("--check needs a baseline path")?),
            "--tolerance" => {
                let v = argv.next().ok_or("--tolerance needs a fraction")?;
                args.tolerance = v.parse().map_err(|e| format!("bad --tolerance: {e}"))?;
                if !(0.0..1.0).contains(&args.tolerance) {
                    return Err("--tolerance must be in [0, 1)".into());
                }
            }
            "--recovery-factor" => {
                let v = argv.next().ok_or("--recovery-factor needs a factor")?;
                args.recovery_factor = v
                    .parse()
                    .map_err(|e| format!("bad --recovery-factor: {e}"))?;
                if args.recovery_factor < 1.0 {
                    return Err("--recovery-factor must be at least 1".into());
                }
            }
            "--help" | "-h" => {
                return Err(
                    "usage: walbench [--requests n] [--threads a,b] [--histories a,b,c] \
                     [--segment-bytes n] [--clips n] [--seed n] [--out path] \
                     [--check baseline.json] [--tolerance f] [--recovery-factor f]\n\
                     Measures acked-durable throughput at --wal-sync always in \
                     process (per --threads count, get then sync) and over TCP \
                     (wire x depth x conns), and recovery wall-clock per WAL \
                     history length (with/without a covering checkpoint); \
                     --check gates against a committed baseline"
                        .into(),
                )
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// One acked-durable throughput cell, named `inproc/t<threads>` or
/// `tcp/<wire>/d<depth>/c<conns>`.
struct ThroughputCell {
    cell: String,
    throughput_rps: f64,
}

struct RecoveryCell {
    history: u64,
    checkpointed: bool,
    recovery_ms: f64,
    replayed: u64,
    segments: u64,
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clipcache-walbench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Measure `cell` as the best of three trials of `trial` (acked-durable
/// req/s), each in a fresh data directory. Best-of-N because fsync
/// scheduling on shared machines is noisy and a cell measures the
/// path's capability, not one run's luck.
fn measure(
    cell: String,
    mut trial: impl FnMut(&PathBuf) -> Result<f64, String>,
) -> Result<ThroughputCell, String> {
    let mut best = 0.0f64;
    for t in 0..3 {
        let dir = scratch(&format!("{}-{t}", cell.replace('/', "-")));
        let measured = trial(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        best = best.max(measured.map_err(|e| format!("{cell}: {e}"))?);
    }
    eprintln!("{cell}: {best:.0} acked-durable req/s");
    Ok(ThroughputCell {
        cell,
        throughput_rps: best,
    })
}

/// A fresh durable single-shard service at `--wal-sync always` in
/// `dir`, with checkpoints pushed out of the way so every request pays
/// only its append and its share of an fsync.
fn open_durable(args: &Args, dir: &PathBuf) -> Result<Arc<CacheService>, String> {
    let repo = Arc::new(paper::equi_sized_repository_of(
        args.clips,
        ByteSize::mb(10),
    ));
    let capacity = ByteSize::mb(10 * args.clips as u64);
    let config =
        ServiceConfig::new(PolicyKind::Lru, 1, capacity, args.seed).with_checkpoint_every(u64::MAX);
    let opts = PersistOptions {
        sync: WalSync::Always,
        tuning: WalTuning {
            segment_bytes: args.segment_bytes,
        },
        ..PersistOptions::at(dir)
    };
    let (service, _) = CacheService::open_persistent(repo, config, None, &opts)
        .map_err(|e| format!("cannot open durable service: {e}"))?;
    Ok(Arc::new(service))
}

/// The clip worker `w` requests `i`-th.
fn clip_for(args: &Args, w: u64, i: u64) -> ClipId {
    ClipId::new(((i * 7 + w * 3) % args.clips as u64) as u32 + 1)
}

/// Run `worker(w)` on `n` scoped threads and time them all.
fn timed_workers(
    n: u64,
    worker: impl Fn(u64) -> Result<(), String> + Sync,
) -> Result<Duration, String> {
    let started = Instant::now();
    let worker = &worker;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n).map(|w| scope.spawn(move || worker(w))).collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().map_err(|_| "worker panicked".to_string())?)
    })?;
    Ok(started.elapsed())
}

/// One in-process trial: `threads` workers, each request a `get`
/// followed by a `sync`; returns acked-durable req/s.
fn inproc_trial(args: &Args, threads: u64, dir: &PathBuf) -> Result<f64, String> {
    let service = open_durable(args, dir)?;
    let per_thread = args.requests / threads;
    let elapsed = timed_workers(threads, |w| {
        for i in 0..per_thread {
            service
                .get(clip_for(args, w, i))
                .and_then(|_| service.sync())
                .map_err(|e| format!("worker {w} request {i}: {e}"))?;
        }
        Ok(())
    })?;
    Ok((per_thread * threads) as f64 / elapsed.as_secs_f64())
}

/// One TCP trial: the durable service behind the epoll server on
/// loopback, `conns` connections each keeping `depth` GETs in flight;
/// returns acked-durable req/s (a reply is an ack).
fn tcp_trial(
    args: &Args,
    wire: Wire,
    depth: u64,
    conns: u64,
    dir: &PathBuf,
) -> Result<f64, String> {
    let handle = serve_with(
        open_durable(args, dir)?,
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .map_err(|e| format!("cannot bind: {e}"))?;
    let addr = handle.addr();
    let per_conn = args.requests / conns / depth * depth;
    let elapsed = timed_workers(conns, |w| {
        let io = |e: std::io::Error| format!("connection {w}: {e}");
        let mut client =
            TcpCacheClient::connect_wire(addr, Some(Duration::from_secs(30)), wire).map_err(io)?;
        for start in (0..per_conn).step_by(depth as usize) {
            let batch: Vec<ClipId> = (start..start + depth)
                .map(|i| clip_for(args, w, i))
                .collect();
            client.send_gets(&batch).map_err(io)?;
            for _ in 0..depth {
                client.recv_get().map_err(io)?;
            }
        }
        client.quit().map_err(io)
    });
    handle.shutdown();
    Ok((per_conn * conns) as f64 / elapsed?.as_secs_f64())
}

/// Every throughput cell: in-process per `--threads` count, then the
/// TCP grid.
fn throughput_cells(args: &Args) -> Result<Vec<ThroughputCell>, String> {
    let mut cells = Vec::new();
    for &threads in &args.threads {
        let name = format!("inproc/t{threads}");
        cells.push(measure(name, |dir| inproc_trial(args, threads, dir))?);
    }
    for (wire, wire_name) in [(Wire::Binary, "binary"), (Wire::Text, "text")] {
        for depth in [1, 16] {
            for conns in [1, 2] {
                let name = format!("tcp/{wire_name}/d{depth}/c{conns}");
                cells.push(measure(name, |dir| {
                    tcp_trial(args, wire, depth, conns, dir)
                })?);
            }
        }
    }
    Ok(cells)
}

/// A checkpoint covering through `seq`, over a throwaway cache — only
/// its `seq` matters to the recovery scan.
fn checkpoint_at(seq: u64) -> DurableCheckpoint {
    let repo = Arc::new(paper::equi_sized_repository_of(4, ByteSize::mb(1)));
    let cache = PolicyKind::Lru.build(repo, ByteSize::mb(4), 1, None);
    DurableCheckpoint {
        snapshot: CacheSnapshot::take(cache.as_ref(), PolicyKind::Lru, Timestamp(seq)),
        stats: HitStats::new(),
        seq,
    }
}

/// One recovery cell: build a `history`-record segmented log at the
/// store level, optionally checkpoint it, and time the reopen.
fn run_recovery_cell(
    args: &Args,
    history: u64,
    checkpointed: bool,
) -> Result<RecoveryCell, String> {
    let dir = scratch(&format!("recover-{history}-{checkpointed}"));
    let tuning = WalTuning {
        segment_bytes: args.segment_bytes,
    };
    {
        let (mut store, _) = ShardStore::open_tuned(&dir, WalSync::Off, tuning)
            .map_err(|e| format!("cannot create store: {e}"))?;
        for i in 1..=history {
            store
                .append(WalOp::Get, ClipId::new((i % args.clips as u64) as u32 + 1))
                .map_err(|e| format!("append {i}: {e}"))?;
        }
        if checkpointed {
            store
                .checkpoint(&checkpoint_at(history))
                .map_err(|e| format!("checkpoint: {e}"))?;
        }
    }
    let started = Instant::now();
    let (store, state) = ShardStore::open_tuned(&dir, WalSync::Off, tuning)
        .map_err(|e| format!("recovery open: {e}"))?;
    let elapsed = started.elapsed();
    let (oldest, newest) = store.segment_span();
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(RecoveryCell {
        history,
        checkpointed,
        recovery_ms: elapsed.as_secs_f64() * 1_000.0,
        replayed: state.records.len() as u64,
        segments: newest - oldest + 1,
    })
}

/// Render the report. Keys and cell order are deterministic; only the
/// measured values vary.
fn render(args: &Args, cells: &[ThroughputCell], recoveries: &[RecoveryCell]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"walbench\",\n  \"version\": 2,\n");
    out.push_str(&format!(
        "  \"requests\": {}, \"segment_bytes\": {}, \"seed\": {},\n",
        args.requests, args.segment_bytes, args.seed
    ));
    out.push_str("  \"throughput_cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"cell\": \"{}\", \"throughput_rps\": {:.0}}}{}\n",
            c.cell,
            c.throughput_rps,
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"recovery_cells\": [\n");
    for (i, c) in recoveries.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"history\": {}, \"checkpointed\": {}, \"recovery_ms\": {:.2}, \
             \"replayed\": {}, \"segments\": {}}}{}\n",
            c.history,
            c.checkpointed,
            c.recovery_ms,
            c.replayed,
            c.segments,
            if i + 1 < recoveries.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Compare measured cells against a committed baseline.
fn check(
    cells: &[ThroughputCell],
    recoveries: &[RecoveryCell],
    baseline: &json::Json,
    tolerance: f64,
    recovery_factor: f64,
) -> Result<(), String> {
    let base_cells = baseline
        .get("throughput_cells")
        .and_then(|c| c.as_array())
        .ok_or("baseline has no throughput_cells array")?;
    for base in base_cells {
        let name = base
            .get("cell")
            .and_then(|v| v.as_str())
            .ok_or("baseline throughput cell missing cell")?;
        let base_tp = base
            .get("throughput_rps")
            .and_then(|v| v.as_f64())
            .ok_or("baseline throughput cell missing throughput_rps")?;
        let Some(cell) = cells.iter().find(|c| c.cell == name) else {
            return Err(format!(
                "baseline cell {name} was not measured (pass a matching --threads)"
            ));
        };
        let floor = base_tp * (1.0 - tolerance);
        if cell.throughput_rps < floor {
            return Err(format!(
                "REGRESSION {name}: acked-durable {:.0} req/s fell below {floor:.0} \
                 (baseline {base_tp:.0}, tolerance {tolerance})",
                cell.throughput_rps
            ));
        }
        println!(
            "ok {name}: {:.0} req/s (baseline {base_tp:.0})",
            cell.throughput_rps
        );
    }
    let base_recoveries = baseline
        .get("recovery_cells")
        .and_then(|c| c.as_array())
        .ok_or("baseline has no recovery_cells array")?;
    for base in base_recoveries {
        let history = base
            .get("history")
            .and_then(|v| v.as_u64())
            .ok_or("baseline recovery cell missing history")?;
        let checkpointed = matches!(base.get("checkpointed"), Some(json::Json::Bool(true)));
        let base_ms = base
            .get("recovery_ms")
            .and_then(|v| v.as_f64())
            .ok_or("baseline recovery cell missing recovery_ms")?;
        let Some(cell) = recoveries
            .iter()
            .find(|c| c.history == history && c.checkpointed == checkpointed)
        else {
            return Err(format!(
                "baseline recovery cell history={history} checkpointed={checkpointed} \
                 was not measured (pass a matching --histories)"
            ));
        };
        // Floor the ceiling at 50 ms: sub-millisecond baselines would
        // otherwise gate on scheduler noise.
        let ceiling = (base_ms * recovery_factor).max(50.0);
        if cell.recovery_ms > ceiling {
            return Err(format!(
                "REGRESSION history={history} checkpointed={checkpointed}: recovery \
                 took {:.2} ms, past {ceiling:.2} ms ({recovery_factor}× baseline \
                 {base_ms:.2})",
                cell.recovery_ms
            ));
        }
        println!(
            "ok history={history} checkpointed={checkpointed}: {:.2} ms \
             (baseline {base_ms:.2}), replayed {}",
            cell.recovery_ms, cell.replayed
        );
    }
    Ok(())
}

/// Measure every cell, write the report, and gate it if asked.
fn run(args: &Args) -> Result<(), String> {
    let cells = throughput_cells(args)?;
    let mut recoveries = Vec::new();
    for &history in &args.histories {
        for checkpointed in [false, true] {
            let cell = run_recovery_cell(args, history, checkpointed)
                .map_err(|e| format!("recovery cell history={history} failed: {e}"))?;
            eprintln!(
                "recovery history={history} checkpointed={checkpointed}: \
                 {:.2} ms, replayed {}, {} segment(s)",
                cell.recovery_ms, cell.replayed, cell.segments
            );
            recoveries.push(cell);
        }
    }

    let rendered = render(args, &cells, &recoveries);
    match &args.out {
        Some(path) => {
            if let Some(parent) = std::path::Path::new(path).parent() {
                let _ = std::fs::create_dir_all(parent);
            }
            std::fs::write(path, &rendered).map_err(|e| format!("cannot write {path}: {e}"))?;
        }
        None => print!("{rendered}"),
    }

    if let Some(path) = &args.check {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read baseline {path}: {e}"))?;
        let baseline =
            json::parse(&text).map_err(|e| format!("cannot parse baseline {path}: {e}"))?;
        check(
            &cells,
            &recoveries,
            &baseline,
            args.tolerance,
            args.recovery_factor,
        )
        .map_err(|msg| format!("perf gate FAILED: {msg}"))?;
        println!("perf gate passed");
    }
    Ok(())
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
