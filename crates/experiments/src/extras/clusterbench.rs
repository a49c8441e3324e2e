//! Cluster bench: cluster-wide hit rate vs N independent caches.
//!
//! The serve-tier analog of the `coop` experiment. The simulator showed
//! ad-hoc cooperation lifting the offload rate from 55.3% (greedy,
//! independent devices) to 87.6% (radius-8 peer exchange); here the
//! same structural claim is measured on the cluster tier's actual
//! machinery — the consistent-hash ring and read-any/write-all peer
//! fill, replayed by the in-process [`ClusterHarness`]. Its peer fill
//! is the same `PeerFill` core `serve --cluster` runs over TCP, here
//! over an in-process link to the member services.
//!
//! Three hit-rate series over cluster size N:
//!
//! * **independent** — N caches, clients round-robin, no cooperation:
//!   every cache converges on the same Zipf head, so adding hardware
//!   buys almost nothing (the flat line the paper's greedy devices
//!   live on).
//! * **cluster, replication 1** — ring routing partitions the catalog:
//!   each member caches its shard of clips with its whole budget, so
//!   aggregate capacity actually aggregates.
//! * **cluster, replication 2** — the fault-tolerant point: each clip
//!   lives on two ring successors, trading some capacity back for the
//!   ability to survive a SIGKILL (`tests/cluster_e2e.rs`).
//!
//! A fourth series reports the cost of the replicated configuration as
//! a deterministic count — peer probes per 1k requests — not a
//! wall-clock latency: the replay is single-threaded and seeded, so
//! the figure is byte-identical at any `--jobs` value.

use crate::context::ExperimentContext;
use crate::figures::THETA;
use crate::report::{FigureResult, Series};
use clipcache_core::PolicyKind;
use clipcache_media::ClipId;
use clipcache_serve::{CacheService, ClusterHarness, ServiceConfig};
use clipcache_workload::RequestGenerator;
use std::sync::Arc;

/// Cluster sizes swept.
pub const NODES: [usize; 6] = [1, 2, 3, 4, 6, 8];

const CLIPS: usize = 96;
const RATIO: f64 = 0.25;

/// The four series, by cell index.
const MODES: usize = 4;

fn members(
    ctx: &ExperimentContext,
    repo: &Arc<clipcache_media::Repository>,
    n: usize,
) -> Vec<Arc<CacheService>> {
    (0..n)
        .map(|i| {
            let config = ServiceConfig::new(
                PolicyKind::Lru,
                1,
                repo.cache_capacity_for_ratio(RATIO),
                ctx.sub_seed(0xC1A5 + i as u64),
            );
            Arc::new(
                CacheService::new(Arc::clone(repo), config, None)
                    .expect("LRU builds without frequencies"),
            )
        })
        .collect()
}

fn run_cell(
    ctx: &ExperimentContext,
    repo: &Arc<clipcache_media::Repository>,
    trace: &[ClipId],
    n: usize,
    mode: usize,
) -> f64 {
    match mode {
        // Independent: clients land round-robin, nobody cooperates.
        0 => {
            let services = members(ctx, repo, n);
            let hits = trace
                .iter()
                .enumerate()
                .filter(|(i, &clip)| {
                    services[i % n]
                        .get(clip)
                        .expect("in-process access cannot fail")
                        .hit
                })
                .count();
            hits as f64 / trace.len() as f64
        }
        // Clustered: ring routing plus peer fill at replication R.
        _ => {
            let replication = if mode == 1 { 1 } else { 2.min(n) };
            let mut harness =
                ClusterHarness::new(ctx.sub_seed(0xC1A5), replication, members(ctx, repo, n));
            for &clip in trace {
                harness.get(clip).expect("all members alive");
            }
            let stats = harness.stats();
            assert!(stats.conservation_ok(), "clusterbench lost a request");
            if mode == 3 {
                stats.peer_probes as f64 * 1_000.0 / stats.delivered as f64
            } else {
                stats.hit_rate()
            }
        }
    }
}

/// Run the cluster-size sweep.
pub fn run(ctx: &ExperimentContext) -> Vec<FigureResult> {
    let repo = Arc::new(clipcache_media::paper::variable_sized_repository_of(CLIPS));
    let trace: Vec<ClipId> = RequestGenerator::new(
        CLIPS,
        THETA,
        0,
        ctx.requests(10_000),
        ctx.sub_seed(0xC1A5_7E12),
    )
    .map(|req| req.clip)
    .collect();

    let grid: Vec<(usize, usize)> = NODES
        .iter()
        .enumerate()
        .flat_map(|(ni, _)| (0..MODES).map(move |mode| (ni, mode)))
        .collect();
    let cells = ctx.run_points(&grid, |_, &(ni, mode)| {
        run_cell(ctx, &repo, &trace, NODES[ni], mode)
    });

    let names = [
        "N independent caches (round-robin clients)",
        "cluster, replication 1",
        "cluster, replication 2",
        "replication 2: peer probes per 1k requests",
    ];
    let series: Vec<Series> = names
        .iter()
        .enumerate()
        .map(|(mode, name)| {
            let values = (0..NODES.len())
                .map(|ni| cells[ni * MODES + mode])
                .collect();
            Series::new((*name).to_string(), values)
        })
        .collect();

    vec![FigureResult::new(
        "clusterbench",
        "Cluster-wide hit rate vs N independent caches (ring routing + peer fill, LRU, \
         deterministic replay)",
        "cluster size N",
        NODES.iter().map(|n| n.to_string()).collect(),
        series,
    )]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_member_cluster_matches_one_independent_cache() {
        // N=1: the ring routes everything to the only member and the
        // round-robin baseline uses the same single cache — all three
        // hit-rate series must agree bit for bit (the figure's own
        // degenerate-cluster anchor), and no peer traffic exists.
        let ctx = ExperimentContext::at_scale(0.1);
        let fig = run(&ctx).remove(0);
        let indep = fig
            .series_named("N independent caches (round-robin clients)")
            .unwrap();
        let r1 = fig.series_named("cluster, replication 1").unwrap();
        let r2 = fig.series_named("cluster, replication 2").unwrap();
        assert_eq!(indep.values[0], r1.values[0]);
        assert_eq!(indep.values[0], r2.values[0]);
        let probes = fig
            .series_named("replication 2: peer probes per 1k requests")
            .unwrap();
        assert_eq!(probes.values[0], 0.0, "one member has nobody to probe");
    }

    #[test]
    fn ring_partitioning_beats_independent_caches_at_scale() {
        // The headline: by N=4 the ring-routed cluster must clearly
        // beat N independent caches — the coop experiment's direction
        // (55.3% -> 87.6%), reproduced on the serving tier.
        let ctx = ExperimentContext::at_scale(0.1);
        let fig = run(&ctx).remove(0);
        let indep = fig
            .series_named("N independent caches (round-robin clients)")
            .unwrap();
        let r1 = fig.series_named("cluster, replication 1").unwrap();
        let n4 = NODES.iter().position(|&n| n == 4).unwrap();
        assert!(
            r1.values[n4] > indep.values[n4] + 0.10,
            "clustering must pay at N=4: {} vs {}",
            r1.values[n4],
            indep.values[n4]
        );
    }

    #[test]
    fn replication_trades_bounded_hit_rate_for_redundancy() {
        // R=2 duplicates every clip onto a second owner, so it may
        // trail R=1 — but peer fill must keep the gap bounded, and the
        // replicated cluster must still beat independent caches at the
        // largest size.
        let ctx = ExperimentContext::at_scale(0.1);
        let fig = run(&ctx).remove(0);
        let indep = fig
            .series_named("N independent caches (round-robin clients)")
            .unwrap();
        let r2 = fig.series_named("cluster, replication 2").unwrap();
        let last = NODES.len() - 1;
        assert!(
            r2.values[last] > indep.values[last],
            "replicated cluster must beat independent caches at N=8: {} vs {}",
            r2.values[last],
            indep.values[last]
        );
    }
}
