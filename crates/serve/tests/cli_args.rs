//! CLI argument validation against the real `serve` and `loadgen`
//! binaries: flag combinations the semantics cannot honor must be
//! refused at parse time with an error that names the offending flags —
//! never silently downgraded, never discovered mid-run.

use std::process::Command;

/// Run the `serve` binary with `args` and return (success, stderr).
fn run_serve(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(args)
        .output()
        .expect("serve binary spawns");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Run the `loadgen` binary with `args` and return (success, stderr).
fn run_loadgen(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_loadgen"))
        .args(args)
        .output()
        .expect("loadgen binary spawns");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn loadgen_refuses_pipeline_combined_with_faults() {
    let out = Command::new(env!("CARGO_BIN_EXE_loadgen"))
        .args([
            "--target",
            "127.0.0.1:1", // never dialed: parsing must fail first
            "--pipeline",
            "4",
            "--faults",
            "rate=0.02,seed=7,kinds=drop-pre",
        ])
        .output()
        .expect("loadgen binary spawns");
    assert!(
        !out.status.success(),
        "conflicting flags must exit non-zero"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--pipeline") && stderr.contains("--faults"),
        "error must name both conflicting flags, got: {stderr}"
    );
}

#[test]
fn loadgen_accepts_pipeline_one_with_faults() {
    // Depth 1 is the request-at-a-time default, so it composes with
    // fault injection; only genuine pipelining (depth > 1) conflicts.
    // An unreachable target proves parsing got past the conflict check:
    // the failure is a connection error, not the flag refusal.
    let out = Command::new(env!("CARGO_BIN_EXE_loadgen"))
        .args([
            "--target",
            "127.0.0.1:1",
            "--requests",
            "1",
            "--pipeline",
            "1",
            "--faults",
            "rate=0.02,seed=7,kinds=drop-pre",
        ])
        .output()
        .expect("loadgen binary spawns");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("--pipeline cannot be combined"),
        "depth 1 must not trip the conflict check: {stderr}"
    );
}

#[test]
fn serve_refuses_peer_timeout_flags_without_cluster() {
    // All three flags tune peer probes, which only exist in cluster
    // mode; each must be refused by name when --cluster is absent.
    for flag in [
        "--peer-timeout",
        "--peer-connect-timeout",
        "--peer-read-timeout",
    ] {
        let (ok, stderr) = run_serve(&[flag, "50"]);
        assert!(!ok, "{flag} without --cluster must exit non-zero");
        assert!(
            stderr.contains(flag) && stderr.contains("--cluster"),
            "error must name {flag} and --cluster, got: {stderr}"
        );
    }
}

#[test]
fn serve_refuses_zero_and_garbage_peer_timeouts() {
    for flag in [
        "--peer-timeout",
        "--peer-connect-timeout",
        "--peer-read-timeout",
    ] {
        let (ok, stderr) = run_serve(&[flag, "0"]);
        assert!(!ok, "{flag} 0 must exit non-zero");
        assert!(
            stderr.contains(flag) && stderr.contains("at least 1 ms"),
            "zero {flag} must be refused with the 1 ms floor, got: {stderr}"
        );
        let (ok, stderr) = run_serve(&[flag, "fast"]);
        assert!(!ok, "{flag} fast must exit non-zero");
        assert!(
            stderr.contains(&format!("bad {flag}")),
            "garbage {flag} must be refused by name, got: {stderr}"
        );
    }
}

#[test]
fn serve_parses_alias_alongside_split_peer_timeouts() {
    // The alias and the specific flags compose (specific overrides the
    // alias's side). A trailing unknown argument proves parsing got
    // past all three flags: the failure names the bogus flag, not any
    // timeout flag.
    let (ok, stderr) = run_serve(&[
        "--cluster",
        "0",
        "--peers",
        "127.0.0.1:1",
        "--peer-timeout",
        "100",
        "--peer-connect-timeout",
        "25",
        "--peer-read-timeout",
        "400",
        "--bogus-flag",
    ]);
    assert!(!ok);
    assert!(
        stderr.contains("--bogus-flag") && !stderr.contains("peer-timeout"),
        "failure must be the unknown flag, not the timeouts, got: {stderr}"
    );
}

#[test]
fn loadgen_refuses_zero_max_backoff() {
    let (ok, stderr) = run_loadgen(&["--max-backoff-ms", "0"]);
    assert!(!ok, "--max-backoff-ms 0 must exit non-zero");
    assert!(
        stderr.contains("--max-backoff-ms") && stderr.contains("at least 1"),
        "error must name the flag and the floor, got: {stderr}"
    );
}

#[test]
fn loadgen_refuses_malformed_kill_spans() {
    // Shape errors: missing fields, and an empty span (from == to).
    let (ok, stderr) = run_loadgen(&["--kill-span", "1:100"]);
    assert!(!ok, "two-field span must exit non-zero");
    assert!(
        stderr.contains("node:from:to"),
        "error must show the expected shape, got: {stderr}"
    );
    let (ok, stderr) = run_loadgen(&["--kill-span", "0:500:500"]);
    assert!(!ok, "empty span must exit non-zero");
    assert!(
        stderr.contains("from must precede to"),
        "error must explain the ordering, got: {stderr}"
    );
}

#[test]
fn loadgen_refuses_kill_span_without_harness_or_serial_clients() {
    // A well-formed span still needs the in-process cluster harness...
    let (ok, stderr) = run_loadgen(&["--kill-span", "0:100:500"]);
    assert!(!ok);
    assert!(
        stderr.contains("--kill-span") && stderr.contains("--cluster-nodes"),
        "error must name both flags, got: {stderr}"
    );
    // ...a node index inside the membership...
    let (ok, stderr) = run_loadgen(&[
        "--cluster-nodes",
        "3",
        "--clients",
        "1",
        "--kill-span",
        "3:100:500",
    ]);
    assert!(!ok);
    assert!(
        stderr.contains("exceeds"),
        "out-of-range node must be refused, got: {stderr}"
    );
    // ...and a single client, so the request-count schedule is
    // deterministic (default is 4 clients).
    let (ok, stderr) = run_loadgen(&["--cluster-nodes", "3", "--kill-span", "0:100:500"]);
    assert!(!ok);
    assert!(
        stderr.contains("--clients 1"),
        "multi-client kill spans must be refused, got: {stderr}"
    );
}

#[test]
fn serve_refuses_a_commit_window_without_wal_sync_always() {
    // The window bounds how long a turn lingers before its fsync; with
    // no fsync to wait for it would do nothing, so it is refused rather
    // than silently accepted.
    let dir = std::env::temp_dir().join(format!("clipcache-cli-window-{}", std::process::id()));
    let dir = dir.to_str().expect("utf-8 temp dir");
    for args in [
        vec!["--commit-window-us", "200"],
        vec!["--commit-window-us", "200", "--data-dir", dir],
        vec![
            "--commit-window-us",
            "200",
            "--data-dir",
            dir,
            "--wal-sync",
            "off",
        ],
    ] {
        let (ok, stderr) = run_serve(&args);
        assert!(!ok, "{args:?} must exit non-zero");
        assert!(
            stderr.contains("--commit-window-us") && stderr.contains("--wal-sync always"),
            "error must name --commit-window-us and --wal-sync always, got: {stderr}"
        );
    }
    // A zero window is the default and composes with anything.
    let (ok, stderr) = run_serve(&["--commit-window-us", "0", "--bogus"]);
    assert!(!ok);
    assert!(
        stderr.contains("unknown argument --bogus"),
        "a zero window must parse, got: {stderr}"
    );
    let _ = std::fs::remove_dir_all(dir);
}
