//! In-process per-layer probes for the traced run: each times calls into
//! one module's public functions over the workload's own trace, as spans.
//! Every probe is time-boxed so a traced run stays short.

use crate::spans::{Tracer, ROOT};
use crate::workload::Workload;
use clipcache_core::cache::EvictionCount;
use clipcache_core::snapshot::CacheSnapshot;
use clipcache_core::{PolicySpec, Timestamp};
use clipcache_media::{ClipId, Repository};
use clipcache_serve::protocol::{
    decode_command, encode_command, encode_reply, format_command, format_get, parse_command,
    Command,
};
use clipcache_serve::{
    shard_seed, CacheService, Decoded, DurableCheckpoint, GetOutcome, HashRing, Reply,
    ServiceConfig, ShardStore, WalOp, WalSync,
};
use clipcache_sim::HitStats;
use std::hint::black_box;
use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const CHUNK: usize = 1024;
/// At most this many requests of the trace feed the codec probes.
const CODEC_REQUESTS: usize = 1 << 16;

/// Repeat `pass` (which records spans) until `budget` has passed, at
/// least once.
fn for_budget(budget: Duration, mut pass: impl FnMut() -> bool) {
    let start = Instant::now();
    while pass() && start.elapsed() < budget {}
}

/// `protocol.decode` / `protocol.encode`: the server's request decoder
/// over the workload's request bytes, and its reply encoder over the
/// replies the run received.
pub fn codec(w: &Workload, trace: &[ClipId], replies: &[GetOutcome], tr: &mut Tracer) {
    let clips = &trace[..trace.len().min(CODEC_REQUESTS)];
    let mut bytes = Vec::new();
    for &clip in clips {
        if w.wire == "text" {
            bytes.extend_from_slice(format_command(&Command::Get(clip)).as_bytes());
            bytes.push(b'\n');
        } else {
            encode_command(&Command::Get(clip), &mut bytes);
        }
    }
    for_budget(Duration::from_millis(300), || {
        let mut rest = &bytes[..];
        while !rest.is_empty() {
            let start = tr.now();
            let mut n = 0;
            while n < CHUNK && !rest.is_empty() {
                if w.wire == "text" {
                    let end = rest.iter().position(|&b| b == b'\n').unwrap_or(rest.len());
                    let line = std::str::from_utf8(&rest[..end]).unwrap_or("");
                    black_box(parse_command(line).ok());
                    rest = &rest[(end + 1).min(rest.len())..];
                } else {
                    match decode_command(rest) {
                        Ok(Decoded::Frame { value, consumed }) => {
                            black_box(value);
                            rest = &rest[consumed..];
                        }
                        _ => rest = &[],
                    }
                }
                n += 1;
            }
            let end = tr.now();
            tr.span("protocol.decode", start, end, ROOT, 0, n as u64);
        }
        true
    });
    let replies = &replies[..replies.len().min(CODEC_REQUESTS)];
    let mut out = Vec::with_capacity(CHUNK * 32);
    for_budget(Duration::from_millis(300), || {
        for chunk in replies.chunks(CHUNK) {
            out.clear();
            let start = tr.now();
            for outcome in chunk {
                if w.wire == "text" {
                    black_box(format_get(outcome));
                } else {
                    encode_reply(&Reply::Get(*outcome), &mut out);
                }
            }
            let end = tr.now();
            black_box(&out);
            tr.span("protocol.encode", start, end, ROOT, 0, chunk.len() as u64);
        }
        !replies.is_empty()
    });
}

/// `service.get`: an in-process service with the workload's policy,
/// shards, capacity and seed (in memory; persist is probed on its own)
/// replaying the trace.
pub fn service(
    repo: &Arc<Repository>,
    config: ServiceConfig,
    trace: &[ClipId],
    tr: &mut Tracer,
) -> Result<(), String> {
    let service = CacheService::new(Arc::clone(repo), config, None).map_err(|e| e.to_string())?;
    let budget = Instant::now();
    for chunk in trace.chunks(256) {
        let start = tr.now();
        for &clip in chunk {
            black_box(service.get(clip).map_err(|e| e.to_string())?);
        }
        let end = tr.now();
        tr.span("service.get", start, end, ROOT, 0, chunk.len() as u64);
        if budget.elapsed() > Duration::from_millis(1000) {
            break;
        }
    }
    Ok(())
}

/// `core.access_into`: the workload's policy over the trace at the
/// workload's total capacity. Misses are timed one by one (where
/// DYNSimple scans); evictions are counted per batch.
pub fn core(
    repo: &Arc<Repository>,
    policy: PolicySpec,
    w: &Workload,
    server_seed: u64,
    trace: &[ClipId],
    tr: &mut Tracer,
) -> Box<dyn clipcache_core::ClipCache> {
    let capacity = repo.cache_capacity_for_ratio(w.ratio);
    let mut cache = policy.build(Arc::clone(repo), capacity, shard_seed(server_seed, 0), None);
    let budget = Instant::now();
    let mut now = 0u64;
    for chunk in trace.chunks(256) {
        let batch_start = tr.now();
        let mut evictions = EvictionCount(0);
        for &clip in chunk {
            now += 1;
            let start = tr.now();
            let event = cache.access_into(clip, Timestamp(now), &mut evictions);
            if !event.starts_display() {
                let end = tr.now();
                tr.span("core.access_into.miss", start, end, ROOT, now, 1);
            }
        }
        let end = tr.now();
        tr.span(
            "core.access_into",
            batch_start,
            end,
            ROOT,
            0,
            chunk.len() as u64,
        );
        tr.span("core.evictions", end, end, ROOT, 0, evictions.0 as u64);
        if budget.elapsed() > Duration::from_millis(1500) {
            break;
        }
    }
    cache
}

/// `persist.append` (at `WalSync::Off`, so the file system's flush is
/// in and fsync is out) and `persist.checkpoint` of `cache`'s snapshot.
pub fn persist(
    dir: &Path,
    cache: &dyn clipcache_core::ClipCache,
    policy: PolicySpec,
    trace: &[ClipId],
    tr: &mut Tracer,
) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    let (mut store, _) = ShardStore::open(dir, WalSync::Off).map_err(|e| e.to_string())?;
    let budget = Instant::now();
    for chunk in trace.chunks(256) {
        let start = tr.now();
        for &clip in chunk {
            store.append(WalOp::Get, clip).map_err(|e| e.to_string())?;
        }
        let end = tr.now();
        tr.span("persist.append", start, end, ROOT, 0, chunk.len() as u64);
        if budget.elapsed() > Duration::from_millis(300) {
            break;
        }
    }
    let ckpt = DurableCheckpoint {
        snapshot: CacheSnapshot::take(cache, policy, Timestamp(trace.len() as u64)),
        stats: HitStats::new(),
        seq: store.next_seq() - 1,
    };
    for _ in 0..10 {
        let start = tr.now();
        store.checkpoint(&ckpt).map_err(|e| e.to_string())?;
        let end = tr.now();
        tr.span("persist.checkpoint", start, end, ROOT, 0, 1);
    }
    drop(store);
    std::fs::remove_dir_all(dir).map_err(|e| format!("remove {}: {e}", dir.display()))
}

/// `ring.owners` over the trace, for workloads that route nothing live.
pub fn ring(server_seed: u64, members: usize, trace: &[ClipId], tr: &mut Tracer) {
    let ring = HashRing::new(server_seed, members.max(2));
    let replicas = members.max(2);
    for_budget(Duration::from_millis(200), || {
        for chunk in trace.chunks(CHUNK) {
            let start = tr.now();
            for &clip in chunk {
                black_box(ring.owners(u64::from(clip.get()), replicas));
            }
            let end = tr.now();
            tr.span("ring.owners", start, end, ROOT, 0, chunk.len() as u64);
        }
        true
    });
}

/// `os.loopback_rtt`: 1-byte TCP echo over loopback, no program code.
pub fn loopback(tr: &mut Tracer) -> Result<(), String> {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    const ROUNDS: usize = 2_000;
    std::thread::scope(|s| {
        let echo = s.spawn(move || -> std::io::Result<()> {
            let (mut conn, _) = listener.accept()?;
            conn.set_nodelay(true)?;
            let mut b = [0u8; 1];
            for _ in 0..ROUNDS {
                conn.read_exact(&mut b)?;
                conn.write_all(&b)?;
            }
            Ok(())
        });
        let result = (|| -> std::io::Result<()> {
            let mut conn = std::net::TcpStream::connect(addr)?;
            conn.set_nodelay(true)?;
            let mut b = [7u8; 1];
            for i in 0..ROUNDS {
                let start = tr.now();
                conn.write_all(&b)?;
                conn.read_exact(&mut b)?;
                let end = tr.now();
                tr.span("os.loopback_rtt", start, end, ROOT, i as u64, 1);
            }
            Ok(())
        })();
        let echoed = echo
            .join()
            .map_err(|_| "echo thread panicked".to_string())?;
        result
            .and(echoed)
            .map_err(|e| format!("loopback echo: {e}"))
    })
}

/// `os.fsync`: a 25-byte append plus `fdatasync` (the size of one WAL
/// frame) on the data directory's file system, no program code.
pub fn fsync(dir: &Path, tr: &mut Tracer) -> Result<(), String> {
    let path = dir.join("fsync-probe");
    let mut file = std::fs::File::create(&path).map_err(|e| e.to_string())?;
    for i in 0..50 {
        let start = tr.now();
        file.write_all(&[0xA5; 25]).map_err(|e| e.to_string())?;
        file.sync_data().map_err(|e| e.to_string())?;
        let end = tr.now();
        tr.span("os.fsync", start, end, ROOT, i, 1);
    }
    drop(file);
    std::fs::remove_file(&path).map_err(|e| e.to_string())
}
