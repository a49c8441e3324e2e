//! Correctness checks, one per workload. Each compares what came back
//! over the wire with an expectation computed outside the server, and
//! names the first disagreement.

use clipcache_core::{PolicySpec, Timestamp};
use clipcache_media::{ClipId, Repository};
use clipcache_serve::{shard_seed, CacheService, ServiceConfig};
use clipcache_sim::runner::{simulate, SimulationConfig};
use clipcache_workload::{Request, Trace};
use std::sync::Arc;

/// `paper-dynsimple`: the per-request hit/miss sequence must equal the
/// serial simulator's on the same trace (the 1-shard serial anchor).
pub fn serial_sequence(observed: &[bool], expected: &[bool]) -> Result<(), String> {
    if observed.len() != expected.len() {
        return Err(format!(
            "serial anchor: {} replies, simulator has {} requests",
            observed.len(),
            expected.len()
        ));
    }
    match observed.iter().zip(expected).position(|(o, e)| o != e) {
        None => Ok(()),
        Some(i) => Err(format!(
            "serial anchor: request {i} was a {} over the wire but a {} in the simulator",
            if observed[i] { "hit" } else { "miss" },
            if expected[i] { "hit" } else { "miss" }
        )),
    }
}

/// The simulator's per-request hit sequence for shard 0 of a server
/// seeded `server_seed`.
pub fn simulated_hits(
    repo: &Arc<Repository>,
    policy: PolicySpec,
    ratio: f64,
    server_seed: u64,
    clips: &[ClipId],
) -> Vec<bool> {
    let capacity = repo.cache_capacity_for_ratio(ratio);
    let mut cache = policy.build(Arc::clone(repo), capacity, shard_seed(server_seed, 0), None);
    let trace = Trace::from_requests(
        clips
            .iter()
            .enumerate()
            .map(|(i, &c)| Request::new(Timestamp(i as u64 + 1), c))
            .collect(),
    );
    let config = SimulationConfig {
        window: 1,
        ..SimulationConfig::default()
    };
    let report = simulate(cache.as_mut(), repo, trace.requests(), &config);
    report.series.points().iter().map(|&p| p > 0.5).collect()
}

/// `mem-pipelined`: the client-observed hit count must equal an
/// in-process service replay of the same requests and configuration.
pub fn service_replay(observed_hits: u64, expected_hits: u64) -> Result<(), String> {
    if observed_hits == expected_hits {
        Ok(())
    } else {
        Err(format!(
            "service replay: {observed_hits} hits over the wire, {expected_hits} in process"
        ))
    }
}

/// Hits of an in-process `CacheService` replaying `clips` in order.
pub fn replayed_hits(
    repo: &Arc<Repository>,
    config: ServiceConfig,
    clips: impl Iterator<Item = ClipId>,
) -> Result<u64, String> {
    let service = CacheService::new(Arc::clone(repo), config, None).map_err(|e| e.to_string())?;
    let mut hits = 0;
    for clip in clips {
        let outcome = service.get(clip).map_err(|e| e.to_string())?;
        hits += u64::from(outcome.hit || outcome.peer);
    }
    Ok(hits)
}

/// `durable-always`: after SIGKILL and restart the recovered counters
/// must account for every acknowledged request, no more, no fewer.
pub fn durable_conservation(recovered: u64, acked: u64) -> Result<(), String> {
    if recovered == acked {
        Ok(())
    } else {
        Err(format!(
            "durability: {acked} requests acked before SIGKILL, {recovered} recovered"
        ))
    }
}

/// `cluster-ring`: every GET got exactly one parseable reply — none
/// lost (`replies == sent`), none errored, and no stray extra reply
/// left on any connection (`stray_free`: each connection's next reply
/// after the run was the STATS it asked for).
pub fn one_reply_each(
    sent: u64,
    replies: u64,
    failed: u64,
    stray_free: bool,
) -> Result<(), String> {
    if failed > 0 {
        return Err(format!("one reply each: {failed} of {sent} GETs failed"));
    }
    if replies != sent {
        return Err(format!(
            "one reply each: {sent} GETs sent, {replies} replies"
        ));
    }
    if !stray_free {
        return Err("one reply each: a connection held a reply nobody asked for".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use clipcache_core::PolicyKind;
    use clipcache_media::paper;

    #[test]
    fn serial_sequence_fails_on_a_wrong_expectation() {
        assert!(serial_sequence(&[true, false], &[true, false]).is_ok());
        let err = serial_sequence(&[true, false], &[true, true]).unwrap_err();
        assert!(err.contains("request 1"), "{err}");
        assert!(serial_sequence(&[true], &[true, true]).is_err());
    }

    #[test]
    fn simulated_hits_are_the_serial_reference() {
        let repo = Arc::new(paper::variable_sized_repository_of(24));
        let clips: Vec<ClipId> = (0..200).map(|i| ClipId::new(1 + (i * 7) % 24)).collect();
        let seq = simulated_hits(&repo, PolicyKind::Lru.into(), 0.5, 3, &clips);
        assert_eq!(seq.len(), clips.len());
        // The same trace through the service's single shard agrees.
        let config = ServiceConfig::new(PolicyKind::Lru, 1, repo.cache_capacity_for_ratio(0.5), 3);
        let hits = replayed_hits(&repo, config, clips.iter().copied()).unwrap();
        assert_eq!(hits, seq.iter().filter(|&&h| h).count() as u64);
        // A deliberately wrong expectation (one outcome flipped) fails.
        let mut wrong = seq.clone();
        wrong[150] = !wrong[150];
        assert!(serial_sequence(&seq, &wrong).is_err());
    }

    #[test]
    fn service_replay_fails_on_a_wrong_expectation() {
        assert!(service_replay(10, 10).is_ok());
        assert!(service_replay(10, 11).is_err());
    }

    #[test]
    fn durable_conservation_fails_on_a_wrong_expectation() {
        assert!(durable_conservation(500, 500).is_ok());
        assert!(durable_conservation(499, 500).is_err());
        assert!(durable_conservation(501, 500).is_err());
    }

    #[test]
    fn one_reply_each_fails_on_a_wrong_expectation() {
        assert!(one_reply_each(100, 100, 0, true).is_ok());
        assert!(one_reply_each(100, 99, 0, true).is_err());
        assert!(one_reply_each(100, 99, 1, true).is_err());
        assert!(one_reply_each(100, 100, 0, false).is_err());
    }
}
