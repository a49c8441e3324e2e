//! Loop-level commit: the epoll server fsyncs once per event-loop turn,
//! after executing every ready request and before writing any of their
//! replies.
//!
//! Pins three promises of that commit point:
//!
//! * **acked ⇒ durable across SIGKILL** at `--wal-sync always` with
//!   small segments, under two loads: the wire benchmark's durable
//!   shape (binary wire, 2 connections × depth 16) and 4 text-wire
//!   connections at depth 1. After a restart, acked ≤ recovered ≤ sent;
//! * **pipelined requests share fsyncs**: one write carrying 32 GETs
//!   gets 32 replies for fewer than 32 syncs;
//! * **a failed commit never acks**: when the turn's sync fails, every
//!   reply of that turn is a structured `ERR`, never a GET reply, and
//!   later requests error because the store is dead.

use clipcache_core::PolicyKind;
use clipcache_media::{paper, ClipId};
use clipcache_serve::{
    serve_with, CacheService, CrashAction, CrashSpec, PersistOptions, ServerConfig, ServiceConfig,
    TcpCacheClient, WalSync, Wire,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "clipcache-loop-commit-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct Server {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

/// Spawn the real `serve` binary, durable in `data_dir` at
/// `--wal-sync always`, plus `extra` flags.
fn spawn_server(data_dir: &Path, extra: &[&str]) -> Server {
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--addr", "127.0.0.1:0", "--shards", "1", "--clips", "24"])
        .args(["--wal-sync", "always"])
        .args(extra)
        .arg("--data-dir")
        .arg(data_dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("serve binary spawns");
    let stdin = child.stdin.take().expect("piped stdin");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let addr = loop {
        let mut line = String::new();
        if stdout.read_line(&mut line).expect("server stdout readable") == 0 {
            panic!("server exited before printing its address");
        }
        if let Some(rest) = line.strip_prefix("listening on ") {
            break rest
                .split_whitespace()
                .next()
                .expect("address after 'listening on'")
                .to_string();
        }
    };
    Server {
        child,
        stdin,
        stdout,
        addr,
    }
}

#[test]
fn sigkill_under_pipelined_durable_load_conserves_acked_requests() {
    // (wire, connections, pipeline depth)
    for (wire, conns, depth) in [(Wire::Binary, 2u32, 16u32), (Wire::Text, 4, 1)] {
        sigkill_conserves_acked_requests(wire, conns, depth);
    }
}

fn sigkill_conserves_acked_requests(wire: Wire, conns: u32, depth: u32) {
    let dir = scratch(&format!("kill-{wire:?}"));
    // Tiny segments put seals and rolls in the kill path; the huge
    // checkpoint cadence keeps recovery a pure replay, so the recovered
    // request count is exact.
    let server = spawn_server(
        &dir,
        &["--segment-bytes", "2048", "--checkpoint-every", "1000000"],
    );
    let run_for = Duration::from_millis(300);
    let workers: Vec<_> = (0..conns)
        .map(|w| {
            let addr = server.addr.clone();
            std::thread::spawn(move || {
                let mut client = TcpCacheClient::connect_wire(addr.as_str(), None, wire)
                    .expect("client connects");
                let (mut sent, mut acked) = (0u64, 0u64);
                let started = Instant::now();
                // Run past the kill: the loop ends when the socket breaks.
                'run: while started.elapsed() < run_for * 20 {
                    let batch: Vec<ClipId> = (0..depth)
                        .map(|i| ClipId::new(((sent as u32 + i) * conns + w) % 24 + 1))
                        .collect();
                    // Counted before the write: a partial write may still
                    // deliver some of the batch, so `sent` stays an upper
                    // bound on what the server could have logged.
                    sent += depth as u64;
                    if client.send_gets(&batch).is_err() {
                        break;
                    }
                    for _ in 0..depth {
                        match client.recv_get() {
                            Ok(_) => acked += 1,
                            Err(_) => break 'run,
                        }
                    }
                }
                (sent, acked)
            })
        })
        .collect();
    std::thread::sleep(run_for);
    let mut child = server.child;
    child.kill().expect("SIGKILL delivered");
    child.wait().expect("killed server reaped");
    let (mut sent, mut acked) = (0u64, 0u64);
    for worker in workers {
        let (s, a) = worker.join().expect("worker joins");
        sent += s;
        acked += a;
    }
    assert!(
        acked > 100,
        "{wire:?}: the run did real work before the kill: {acked} acked"
    );

    let server = spawn_server(&dir, &[]);
    let mut client = TcpCacheClient::connect(&server.addr).expect("client reconnects");
    let stats = client.stats().expect("stats served");
    let recovered = stats.stats.requests();
    assert_eq!(stats.wal_replayed, recovered, "pure replay, no checkpoint");
    assert!(
        recovered >= acked,
        "{wire:?}: an acked request vanished: {recovered} recovered < {acked} acked"
    );
    assert!(
        recovered <= sent,
        "{wire:?}: a request was replayed twice: {recovered} recovered > {sent} sent"
    );
    client.quit().expect("clean disconnect");
    let Server {
        mut child,
        mut stdin,
        mut stdout,
        ..
    } = server;
    stdin.write_all(b"quit\n").expect("stdin writable");
    drop(stdin);
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).expect("shutdown output");
    assert!(child.wait().expect("server exits").success());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A durable single-shard service at `--wal-sync always` in `dir`.
fn durable_service(dir: &Path, every: u64, crash: Option<&str>) -> Arc<CacheService> {
    let repo = Arc::new(paper::variable_sized_repository_of(24));
    let capacity = repo.cache_capacity_for_ratio(0.25);
    let config = ServiceConfig::new(PolicyKind::Lru, 1, capacity, 7).with_checkpoint_every(every);
    let opts = PersistOptions {
        sync: WalSync::Always,
        crash: crash.map(|c| CrashSpec::parse(c).expect("crash spec parses")),
        on_crash: CrashAction::Surface,
        ..PersistOptions::at(dir)
    };
    let (service, _) =
        CacheService::open_persistent(repo, config, None, &opts).expect("durable service opens");
    Arc::new(service)
}

#[test]
fn one_pipelined_write_of_32_gets_shares_fsyncs() {
    let dir = scratch("shared");
    let service = durable_service(&dir, 1_000_000, None);
    let handle = serve_with(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default())
        .expect("server binds");
    let mut client =
        TcpCacheClient::connect_wire(handle.addr(), None, Wire::Binary).expect("client connects");
    let clips: Vec<ClipId> = (0..32u32).map(|i| ClipId::new(i % 24 + 1)).collect();
    client.send_gets(&clips).expect("one write of 32 GETs");
    for i in 0..32 {
        client
            .recv_get()
            .unwrap_or_else(|e| panic!("reply {i}: {e}"));
    }
    assert_eq!(client.stats().expect("stats").stats.requests(), 32);
    let syncs = service.wal_syncs();
    assert!(
        (1..32).contains(&syncs),
        "32 pipelined GETs cost {syncs} fsyncs; they must share them"
    );
    client.quit().expect("clean disconnect");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_failed_commit_turns_the_turns_replies_into_errs() {
    // The 8th access of the turn writes a checkpoint, and the armed
    // crash point kills the store mid-checkpoint: the 7 records before
    // it were written but never fsynced, so the turn's sync fails and
    // none of the 8 replies may be a GET ack.
    for wire in [Wire::Binary, Wire::Text] {
        let dir = scratch(&format!("fail-{wire:?}"));
        let service = durable_service(&dir, 8, Some("checkpoint:1"));
        let handle = serve_with(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default())
            .expect("server binds");
        let clips: Vec<ClipId> = (1..=8u32).map(ClipId::new).collect();
        let replies = match wire {
            Wire::Binary => {
                let mut client = TcpCacheClient::connect_wire(handle.addr(), None, Wire::Binary)
                    .expect("client connects");
                client.send_gets(&clips).expect("one write of 8 GETs");
                let mut replies: Vec<String> = (0..8)
                    .map(|_| match client.recv_get() {
                        Ok(outcome) => format!("ack {outcome:?}"),
                        Err(e) => e.to_string(),
                    })
                    .collect();
                // The store is dead: later requests error too.
                replies.push(match client.get(ClipId::new(9)) {
                    Ok(outcome) => format!("ack {outcome:?}"),
                    Err(e) => e.to_string(),
                });
                replies
            }
            Wire::Text => {
                let mut stream = TcpStream::connect(handle.addr()).expect("client connects");
                let batch: String = clips.iter().map(|c| format!("GET {}\n", c.get())).collect();
                stream.write_all(batch.as_bytes()).expect("one write");
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                let mut line = || {
                    let mut l = String::new();
                    reader.read_line(&mut l).expect("reply line");
                    l.trim_end().to_string()
                };
                let mut replies: Vec<String> = (0..8).map(|_| line()).collect();
                stream.write_all(b"GET 9\n").expect("later write");
                replies.push(line());
                replies
            }
        };
        for (i, reply) in replies.iter().enumerate() {
            assert!(
                reply.starts_with("ERR "),
                "{wire:?} reply {i} left the process as {reply:?}, not an ERR"
            );
        }
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
