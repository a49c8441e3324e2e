//! `serve` — run the sharded cache service behind a TCP front-end.
//!
//! ```text
//! serve [--addr host:port] [--policy spec] [--shards n] [--clips n]
//!       [--ratio f] [--seed n|0xHEX] [--max-conns n]
//!       [--read-timeout ms] [--chaos]
//!       [--data-dir path] [--wal-sync always|off]
//!       [--segment-bytes n] [--checkpoint-every n] [--crash-at kind:N]
//!       [--cluster i --peers a,b,c [--replication r] [--peer-timeout ms]
//!        [--peer-connect-timeout ms] [--peer-read-timeout ms]]
//! ```
//!
//! Binds, prints `listening on <addr>`, then serves the line protocol
//! (`GET <clip>`, `STATS`, `SNAPSHOT`, `QUIT`) until stdin reaches EOF
//! or a `quit` line arrives on stdin — the graceful-shutdown path CI
//! exercises by driving stdin through a FIFO. The repository is the
//! paper's variable-sized catalog of `--clips` clips; `--ratio` sets the
//! total cache budget as a fraction of the repository, split evenly
//! across `--shards` shards.
//!
//! Resilience knobs: `--max-conns` refuses connections beyond the limit
//! with `ERR server busy`; `--read-timeout` reclaims connections idle
//! for that many milliseconds with `ERR idle timeout`; `--chaos` honors
//! the `POISON` fault-injection command (refused otherwise).
//!
//! Durability knobs: `--data-dir` persists every shard (a segmented
//! WAL with checkpoint frames) beneath the given directory and recovers whatever a previous
//! process made durable before listening; `--wal-sync` picks the fsync
//! policy (`off` flushes to the OS per append — survives `kill -9`;
//! `always` adds one fsync per event-loop turn, before any of the turn's
//! replies is written — survives power loss); `--segment-bytes` sets
//! the WAL segment-roll threshold; `--checkpoint-every` sets the
//! accesses between checkpoint frames; `--crash-at`
//! (requires `--data-dir`) arms a deterministic crash point
//! (`append:N`, `torn:N`, `checkpoint:N`, `seal:N`, `segment-roll:N`)
//! that kills the process with exit code 137 — the chaos harness's
//! crash-restart loop.
//!
//! Cluster knobs: `--cluster i` makes this process member `i` of a
//! static membership given by `--peers` (a comma-separated address
//! list, self included, identical on every member); `--replication r`
//! sets the replica count per clip (default 1). Members peer-fetch
//! missed clips from the clip's other ring owners (`PEERGET`) before
//! reporting a miss, after a `VERSION` handshake that refuses skewed
//! peers by name. `--peer-connect-timeout` and `--peer-read-timeout`
//! bound the two halves of each peer probe in milliseconds — a slow or
//! mutually-busy peer degrades to a timed-out probe (served as a miss),
//! never a deadlock; `--peer-timeout` is the coarse alias that sets
//! both, and the specific flags override it. If `--addr` is not given,
//! a cluster member binds its own `--peers` entry.

use clipcache_media::paper;
use clipcache_serve::{
    serve_with, CacheService, ClusterSpec, CrashAction, CrashSpec, PersistOptions, ServerConfig,
    ServiceConfig, WalSync, WalTuning,
};
use std::io::BufRead;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

struct Args {
    addr: Option<String>,
    policy: clipcache_core::PolicySpec,
    shards: usize,
    clips: usize,
    ratio: f64,
    chunk_mb: u64,
    seed: u64,
    server: ServerConfig,
    data_dir: Option<std::path::PathBuf>,
    wal_sync: WalSync,
    tuning: WalTuning,
    checkpoint_every: Option<u64>,
    crash_at: Option<CrashSpec>,
    cluster: Option<usize>,
    peers: Vec<String>,
    replication: usize,
    peer_timeout: Option<Duration>,
    peer_connect_timeout: Option<Duration>,
    peer_read_timeout: Option<Duration>,
}

/// Parse a peer-timeout flag value as whole milliseconds (at least 1).
fn parse_timeout_ms(flag: &str, v: &str) -> Result<Duration, String> {
    let ms: u64 = v.parse().map_err(|e| format!("bad {flag}: {e}"))?;
    if ms == 0 {
        return Err(format!("{flag} must be at least 1 ms"));
    }
    Ok(Duration::from_millis(ms))
}

/// Parse a seed as decimal or `0x`-prefixed hex (matches `repro`).
fn parse_u64(v: &str) -> Result<u64, String> {
    match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).map_err(|e| e.to_string()),
        None => v
            .parse()
            .map_err(|e: std::num::ParseIntError| e.to_string()),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: None,
        policy: clipcache_core::PolicyKind::Lru.into(),
        shards: 4,
        clips: 100,
        ratio: 0.25,
        chunk_mb: 0,
        seed: 0x5EED_2007,
        server: ServerConfig::default(),
        data_dir: None,
        wal_sync: WalSync::default(),
        tuning: WalTuning::default(),
        checkpoint_every: None,
        crash_at: None,
        cluster: None,
        peers: Vec::new(),
        replication: 1,
        peer_timeout: None,
        peer_connect_timeout: None,
        peer_read_timeout: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--addr" => args.addr = Some(argv.next().ok_or("--addr needs host:port")?),
            "--policy" => {
                let v = argv.next().ok_or("--policy needs a spec")?;
                args.policy = v.parse()?;
            }
            "--shards" => {
                let v = argv.next().ok_or("--shards needs a count")?;
                args.shards = v.parse().map_err(|e| format!("bad --shards: {e}"))?;
                if args.shards == 0 {
                    return Err("--shards must be at least 1".into());
                }
            }
            "--clips" => {
                let v = argv.next().ok_or("--clips needs a count")?;
                args.clips = v.parse().map_err(|e| format!("bad --clips: {e}"))?;
            }
            "--ratio" => {
                let v = argv.next().ok_or("--ratio needs a fraction")?;
                args.ratio = v.parse().map_err(|e| format!("bad --ratio: {e}"))?;
            }
            "--chunk-size" => {
                let v = argv
                    .next()
                    .ok_or("--chunk-size needs megabytes (0 = whole-clip)")?;
                args.chunk_mb = v.parse().map_err(|e| format!("bad --chunk-size: {e}"))?;
            }
            "--seed" => {
                let v = argv.next().ok_or("--seed needs a value")?;
                args.seed = parse_u64(&v).map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--max-conns" => {
                let v = argv.next().ok_or("--max-conns needs a count")?;
                let n: usize = v.parse().map_err(|e| format!("bad --max-conns: {e}"))?;
                if n == 0 {
                    return Err("--max-conns must be at least 1".into());
                }
                args.server.max_conns = Some(n);
            }
            "--read-timeout" => {
                let v = argv.next().ok_or("--read-timeout needs milliseconds")?;
                let ms: u64 = v.parse().map_err(|e| format!("bad --read-timeout: {e}"))?;
                if ms == 0 {
                    return Err("--read-timeout must be at least 1 ms".into());
                }
                args.server.read_timeout = Some(Duration::from_millis(ms));
            }
            "--chaos" => args.server.chaos = true,
            "--data-dir" => {
                let v = argv.next().ok_or("--data-dir needs a path")?;
                args.data_dir = Some(std::path::PathBuf::from(v));
            }
            "--wal-sync" => {
                let v = argv.next().ok_or("--wal-sync needs always or off")?;
                args.wal_sync = WalSync::parse(&v)?;
            }
            "--segment-bytes" => {
                let v = argv.next().ok_or("--segment-bytes needs a byte count")?;
                let n: u64 = v.parse().map_err(|e| format!("bad --segment-bytes: {e}"))?;
                if n == 0 {
                    return Err("--segment-bytes must be at least 1".into());
                }
                args.tuning.segment_bytes = n;
            }
            "--checkpoint-every" => {
                let v = argv.next().ok_or("--checkpoint-every needs a count")?;
                let n: u64 = v
                    .parse()
                    .map_err(|e| format!("bad --checkpoint-every: {e}"))?;
                if n == 0 {
                    return Err("--checkpoint-every must be at least 1".into());
                }
                args.checkpoint_every = Some(n);
            }
            "--crash-at" => {
                let v = argv.next().ok_or("--crash-at needs kind:N")?;
                args.crash_at = Some(CrashSpec::parse(&v)?);
            }
            "--cluster" => {
                let v = argv.next().ok_or("--cluster needs this node's index")?;
                args.cluster = Some(v.parse().map_err(|e| format!("bad --cluster: {e}"))?);
            }
            "--peers" => {
                let v = argv
                    .next()
                    .ok_or("--peers needs a comma-separated address list")?;
                args.peers = v
                    .split(',')
                    .map(|a| a.trim().to_string())
                    .filter(|a| !a.is_empty())
                    .collect();
                if args.peers.is_empty() {
                    return Err("--peers needs at least one address".into());
                }
            }
            "--replication" => {
                let v = argv.next().ok_or("--replication needs a count")?;
                args.replication = v.parse().map_err(|e| format!("bad --replication: {e}"))?;
                if args.replication == 0 {
                    return Err("--replication must be at least 1".into());
                }
            }
            "--peer-timeout" => {
                let v = argv.next().ok_or("--peer-timeout needs milliseconds")?;
                args.peer_timeout = Some(parse_timeout_ms("--peer-timeout", &v)?);
            }
            "--peer-connect-timeout" => {
                let v = argv
                    .next()
                    .ok_or("--peer-connect-timeout needs milliseconds")?;
                args.peer_connect_timeout = Some(parse_timeout_ms("--peer-connect-timeout", &v)?);
            }
            "--peer-read-timeout" => {
                let v = argv
                    .next()
                    .ok_or("--peer-read-timeout needs milliseconds")?;
                args.peer_read_timeout = Some(parse_timeout_ms("--peer-read-timeout", &v)?);
            }
            "--help" | "-h" => {
                return Err(
                    "usage: serve [--addr host:port] [--policy spec] [--shards n] \
                     [--clips n] [--ratio f] [--chunk-size mb] [--seed n|0xHEX] \
                     [--max-conns n] \
                     [--read-timeout ms] [--chaos] [--data-dir path] \
                     [--wal-sync always|off] [--segment-bytes n] \
                     [--checkpoint-every n] [--crash-at kind:N]\n\
                     \x20      [--cluster i --peers a,b,c [--replication r] \
                     [--peer-timeout ms] [--peer-connect-timeout ms] \
                     [--peer-read-timeout ms]]\n\
                     serves until stdin closes or reads a `quit` line;\n\
                     --chunk-size n addresses clips as n-MB chunks (prefix \
                     residency + GETRANGE probes; 0 = whole-clip, the default);\n\
                     --max-conns refuses excess connections with ERR server busy,\n\
                     --read-timeout reclaims idle connections, --chaos honors POISON;\n\
                     --data-dir makes every shard durable (a segmented WAL with\n\
                     checkpoint frames) and recovers previous state on start; --wal-sync always\n\
                     fsyncs once per event-loop turn before its replies go out;\n\
                     --segment-bytes sets the WAL segment-roll threshold;\n\
                     --crash-at arms a deterministic crash point (append:N,\n\
                     torn:N, checkpoint:N, seal:N, segment-roll:N);\n\
                     --cluster i joins the static membership in --peers (same list\n\
                     and --seed on every member) as member i, peer-filling misses\n\
                     from the clip's other ring owners at --replication r;\n\
                     --peer-timeout bounds each peer probe (sets both the\n\
                     connect and read bounds); --peer-connect-timeout /\n\
                     --peer-read-timeout set one side and override the alias"
                        .into(),
                )
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.crash_at.is_some() && args.data_dir.is_none() {
        return Err("--crash-at needs --data-dir (crash points live in the durable store)".into());
    }
    if args.tuning != WalTuning::default() && args.data_dir.is_none() {
        return Err("--segment-bytes needs --data-dir (it tunes the WAL)".into());
    }
    match args.cluster {
        Some(me) => {
            let mut spec = ClusterSpec::new(args.peers.clone(), me, args.replication, args.seed)?;
            // `--peer-timeout` is the coarse alias: it sets both bounds.
            // The specific flags override whichever side they name.
            if let Some(timeout) = args.peer_timeout {
                spec.connect_timeout = timeout;
                spec.read_timeout = timeout;
            }
            if let Some(timeout) = args.peer_connect_timeout {
                spec.connect_timeout = timeout;
            }
            if let Some(timeout) = args.peer_read_timeout {
                spec.read_timeout = timeout;
            }
            args.server.cluster = Some(spec);
        }
        None => {
            if !args.peers.is_empty() {
                return Err("--peers needs --cluster (this node's member index)".into());
            }
            if args.replication != 1 {
                return Err("--replication needs --cluster".into());
            }
            if args.peer_timeout.is_some() {
                return Err("--peer-timeout needs --cluster".into());
            }
            if args.peer_connect_timeout.is_some() {
                return Err("--peer-connect-timeout needs --cluster".into());
            }
            if args.peer_read_timeout.is_some() {
                return Err("--peer-read-timeout needs --cluster".into());
            }
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let mut repo = paper::variable_sized_repository_of(args.clips);
    if args.chunk_mb > 0 {
        repo = repo.with_chunk_size(clipcache_media::ByteSize::mb(args.chunk_mb));
    }
    let repo = Arc::new(repo);
    let capacity = repo.cache_capacity_for_ratio(args.ratio);
    let mut config = ServiceConfig::new(args.policy, args.shards, capacity, args.seed);
    if let Some(every) = args.checkpoint_every {
        config = config.with_checkpoint_every(every);
    }
    let service = match &args.data_dir {
        Some(dir) => {
            let opts = PersistOptions {
                dir: dir.clone(),
                sync: args.wal_sync,
                crash: args.crash_at,
                on_crash: CrashAction::ExitProcess,
                tuning: args.tuning,
            };
            match CacheService::open_persistent(Arc::clone(&repo), config, None, &opts) {
                Ok((s, report)) => {
                    println!(
                        "recovered {} (checkpoints={} wal_replayed={} torn_bytes_dropped={})",
                        dir.display(),
                        report.checkpoints_loaded,
                        report.replayed,
                        report.torn_bytes_dropped
                    );
                    Arc::new(s)
                }
                Err(e) => {
                    eprintln!("cannot open data dir {}: {e}", dir.display());
                    return ExitCode::FAILURE;
                }
            }
        }
        None => match CacheService::new(Arc::clone(&repo), config, None) {
            Ok(s) => Arc::new(s),
            Err(e) => {
                eprintln!("cannot build service: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    // A cluster member defaults to binding its own membership entry;
    // a standalone server keeps the ephemeral-port default.
    let addr = args
        .addr
        .clone()
        .unwrap_or_else(|| match &args.server.cluster {
            Some(spec) => spec.peers[spec.me].clone(),
            None => "127.0.0.1:0".into(),
        });
    let cluster = args.server.cluster.clone();
    let handle = match serve_with(service, &addr, args.server) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(spec) = &cluster {
        println!(
            "cluster member {}/{} (replication {})",
            spec.me,
            spec.peers.len(),
            spec.replication
        );
    }
    println!(
        "listening on {} ({} shards, {} policy, {} clips, {} bytes)",
        handle.addr(),
        args.shards,
        args.policy.spelling(),
        args.clips,
        capacity.as_u64()
    );

    // Serve until stdin closes or says quit, then drain gracefully.
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        match line {
            Ok(l) if l.trim() == "quit" => break,
            Ok(_) => {}
            Err(_) => break,
        }
    }
    handle.shutdown();
    println!("shut down cleanly");
    ExitCode::SUCCESS
}
