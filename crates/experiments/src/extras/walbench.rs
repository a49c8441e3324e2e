//! WAL bench, the deterministic half: what a reopen *does* (records
//! replayed, bytes scanned, segments kept) as a function of WAL
//! history, with and without a covering checkpoint.
//!
//! The serve-layer `walbench` binary measures the wall-clock side of
//! the same story (acked-durable throughput per commit window, recovery
//! seconds per history) and is gated in CI against a committed
//! baseline; those numbers vary run to run. This figure pins the
//! *work*, which does not: without a checkpoint, replay and on-disk
//! bytes grow linearly with history and sealed segments accumulate;
//! after a checkpoint every segment is subsumed, so a reopen replays
//! nothing and finds one bare active segment no matter how long the
//! history was — recovery cost is flat in history once segments are
//! subsumed.
//!
//! The run is deterministic and jobs-invariant: every cell builds its
//! own scratch store, and every reported quantity is a count, never a
//! clock.

use crate::context::ExperimentContext;
use crate::report::{FigureResult, Series};
use clipcache_core::snapshot::CacheSnapshot;
use clipcache_core::PolicyKind;
use clipcache_media::{paper, ByteSize, ClipId};
use clipcache_serve::persist::{DurableCheckpoint, ShardStore, WalOp, WalSync, WalTuning};
use clipcache_sim::metrics::HitStats;
use clipcache_workload::Timestamp;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Records per segment in the scaled-down store: 24-byte header plus
/// twenty 25-byte frames.
const RECORDS_PER_SEGMENT: u64 = 20;

/// The two reopen variants compared, in series order.
pub const VARIANTS: [&str; 2] = ["no checkpoint", "checkpoint at head"];

/// Monotonic tag so concurrent cells (and concurrent test binaries)
/// never share a scratch directory.
fn scratch_dir() -> std::path::PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let tag = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "clipcache-walbench-fig-{}-{tag}",
        std::process::id()
    ))
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

/// One cell: build a `history`-record segmented log, optionally
/// checkpoint it, reopen, and report (records replayed, WAL bytes on
/// disk after reopen, live segment files).
fn run_cell(history: u64, checkpointed: bool) -> (u64, u64, u64) {
    let dir = scratch_dir();
    let _ = std::fs::remove_dir_all(&dir);
    let tuning = WalTuning {
        segment_bytes: 24 + RECORDS_PER_SEGMENT * 25,
    };
    {
        let (mut store, _) =
            ShardStore::open_tuned(&dir, WalSync::Off, tuning).expect("store creates");
        for i in 1..=history {
            store
                .append(WalOp::Get, ClipId::new((i % 24) as u32 + 1))
                .expect("append succeeds");
        }
        if checkpointed {
            store
                .checkpoint(&checkpoint_at(history))
                .expect("checkpoint succeeds");
        }
    }
    let (_store, state) =
        ShardStore::open_tuned(&dir, WalSync::Off, tuning).expect("store reopens");
    let mut wal_bytes = 0u64;
    let mut segments = 0u64;
    for entry in std::fs::read_dir(&dir).expect("scratch dir readable") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name().into_string().expect("utf-8 name");
        if name.starts_with("wal.") && name.ends_with(".log") {
            segments += 1;
            wal_bytes += entry.metadata().expect("metadata").len();
        }
    }
    let replayed = state.records.len() as u64;
    let _ = std::fs::remove_dir_all(&dir);
    (replayed, wal_bytes, segments)
}

/// Run the WAL bench figure.
pub fn run(ctx: &ExperimentContext) -> Vec<FigureResult> {
    let max = ctx.requests(2_000).max(8);
    let histories: Vec<u64> = vec![max / 8, max / 4, max / 2, max];

    let grid: Vec<(u64, bool)> = histories
        .iter()
        .flat_map(|&h| [(h, false), (h, true)])
        .collect();
    let cells = ctx.run_points(&grid, |_, &(h, c)| run_cell(h, c));

    let x: Vec<String> = histories.iter().map(|h| h.to_string()).collect();
    let series_for = |metric: fn(&(u64, u64, u64)) -> u64| -> Vec<Series> {
        VARIANTS
            .iter()
            .enumerate()
            .map(|(vi, name)| {
                let values = (0..histories.len())
                    .map(|hi| metric(&cells[hi * VARIANTS.len() + vi]) as f64)
                    .collect();
                Series::new((*name).to_string(), values)
            })
            .collect()
    };

    vec![
        FigureResult::new(
            "walbench_replay",
            "Records replayed at reopen vs WAL history: linear without a checkpoint, zero after one",
            "wal history (records)",
            x.clone(),
            series_for(|c| c.0),
        ),
        FigureResult::new(
            "walbench_bytes",
            "WAL bytes on disk after reopen vs history: a checkpoint subsumes every segment",
            "wal history (records)",
            x.clone(),
            series_for(|c| c.1),
        ),
        FigureResult::new(
            "walbench_segments",
            "Live segment files after reopen vs history: sealed segments accumulate until subsumed",
            "wal history (records)",
            x,
            series_for(|c| c.2),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_is_linear_without_a_checkpoint_and_zero_after_one() {
        let ctx = ExperimentContext::at_scale(0.1);
        let figs = run(&ctx);
        let replay = &figs[0];
        let without = replay.series_named(VARIANTS[0]).unwrap();
        let with = replay.series_named(VARIANTS[1]).unwrap();
        for (i, x) in replay.x.iter().enumerate() {
            let history: f64 = x.parse().unwrap();
            assert_eq!(
                without.values[i], history,
                "column {i}: replay equals history without a checkpoint"
            );
            assert_eq!(
                with.values[i], 0.0,
                "column {i}: a covering checkpoint leaves nothing to replay"
            );
        }
    }

    #[test]
    fn recovery_work_is_flat_in_history_once_segments_are_subsumed() {
        let ctx = ExperimentContext::at_scale(0.1);
        let figs = run(&ctx);
        for fig in &figs[1..] {
            let without = fig.series_named(VARIANTS[0]).unwrap();
            let with = fig.series_named(VARIANTS[1]).unwrap();
            // Without a checkpoint the cost grows strictly with history;
            // with one it is the same constant at every history length.
            for i in 1..without.values.len() {
                assert!(
                    without.values[i] > without.values[i - 1],
                    "{}: column {i} must grow without a checkpoint",
                    fig.id
                );
                assert_eq!(
                    with.values[i], with.values[0],
                    "{}: column {i} must be flat after a checkpoint",
                    fig.id
                );
            }
        }
    }

    #[test]
    fn figure_is_jobs_invariant() {
        let serial_ctx = ExperimentContext::at_scale(0.05);
        let figs1 = run(&serial_ctx);
        let mut parallel_ctx = ExperimentContext::at_scale(0.05);
        parallel_ctx.jobs = 4;
        let figs4 = run(&parallel_ctx);
        for (a, b) in figs1.iter().zip(&figs4) {
            assert_eq!(a.to_csv(), b.to_csv());
        }
    }
}
