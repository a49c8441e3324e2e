//! The four workloads: what each sends, to which server configuration,
//! and why. Each loads one layer of `clipcache-serve`; see README.md.

use crate::sched::fnv1a;
use clipcache_media::ClipId;
use clipcache_workload::{PhaseSchedule, RequestGenerator};

/// Bump when the result format or a metric definition changes.
pub const SCHEMA: u32 = 1;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// Seeded Poisson arrivals at this many requests per second, sent on
    /// schedule whatever the server's speed.
    Open { rate: f64 },
    /// Each connection sends its next window only after the previous
    /// window's replies arrived.
    Closed,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// The per-request hit/miss sequence equals the serial simulator's.
    SerialSequence,
    /// The hit count equals an in-process `CacheService` replay.
    ServiceReplay,
    /// After SIGKILL and restart, STATS hits + misses equal the acked
    /// count.
    DurableConservation,
    /// Every GET got exactly one parseable reply.
    OneReplyEach,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub layer: &'static str,
    pub clips: usize,
    /// Cache capacity as a share of the repository (S_T / S_DB).
    pub ratio: f64,
    pub policy: &'static str,
    pub shards: usize,
    /// `"text"` or `"binary"`.
    pub wire: &'static str,
    pub durable: bool,
    /// Seconds the data disk rests before each pass. A virtual disk may
    /// rate-limit writes with a token bucket that fsync-per-request load
    /// drains in seconds and that refills while idle; without a rest,
    /// back-to-back runs would measure how much budget the runs before
    /// them left.
    pub disk_rest_s: u64,
    /// Cluster members (1 = a standalone server).
    pub members: usize,
    pub replication: usize,
    pub conns: usize,
    pub depth: usize,
    pub load: Load,
    /// Keep idle CPUs awake with idle-priority spinners (see
    /// `drive::on_warm_cpus`): for loads that leave CPUs idle between
    /// requests, so each request would otherwise pay the virtual
    /// machine's wake-up of a halted CPU.
    pub warm_cpus: bool,
    /// Zipf skew.
    pub theta: f64,
    /// Popularity shift `g` applied from the trace midpoint on.
    pub shift_at_midpoint: usize,
    /// Distinct requests in a closed-loop trace; connections cycle
    /// through it for as long as the run lasts.
    pub closed_trace_len: usize,
    /// Record spans for one in this many windows of the traced pass.
    pub span_stride: u64,
    pub check: Check,
}

pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "paper-dynsimple",
            why: "the paper's own traffic: DYNSimple's per-miss scan over 576 clips makes core \
                  the dominant cost; the only workload on the text parser",
            layer: "core (policy), protocol text parser",
            clips: 576,
            ratio: 0.125,
            policy: "dynsimple:2",
            shards: 1,
            wire: "text",
            durable: false,
            disk_rest_s: 0,
            members: 1,
            replication: 1,
            conns: 1,
            depth: 1,
            load: Load::Open { rate: 5_000.0 },
            warm_cpus: true,
            theta: 0.27,
            shift_at_midpoint: 200,
            closed_trace_len: 0,
            span_stride: 1,
            check: Check::SerialSequence,
        },
        Workload {
            name: "mem-pipelined",
            why: "everything fits and LRU is cheap, so server, protocol and client do almost all \
                  the work; core and persist changes should not move it",
            layer: "server, protocol (binary), client",
            clips: 100,
            ratio: 2.0,
            policy: "lru",
            shards: 4,
            wire: "binary",
            durable: false,
            disk_rest_s: 0,
            members: 1,
            replication: 1,
            conns: 1,
            depth: 32,
            load: Load::Closed,
            warm_cpus: false,
            theta: 0.27,
            shift_at_midpoint: 0,
            closed_trace_len: 1 << 20,
            span_stride: 64,
            check: Check::ServiceReplay,
        },
        Workload {
            name: "durable-always",
            why: "every read appends to the WAL and fsyncs before the reply, so persist sets the \
                  rate; a front-end gain that costs the durable path shows here",
            layer: "persist",
            clips: 100,
            ratio: 0.25,
            policy: "lru",
            shards: 1,
            wire: "binary",
            durable: true,
            disk_rest_s: 30,
            members: 1,
            replication: 1,
            conns: 2,
            depth: 16,
            load: Load::Closed,
            warm_cpus: false,
            theta: 0.27,
            shift_at_midpoint: 0,
            closed_trace_len: 1 << 18,
            span_stride: 1,
            check: Check::DurableConservation,
        },
        Workload {
            name: "cluster-ring",
            why: "two ring members at R = 2: every primary miss pays a blocking PEERGET probe, \
                  the only workload that runs cluster and ring",
            layer: "cluster, ring",
            clips: 576,
            ratio: 0.25,
            policy: "lru",
            shards: 1,
            wire: "binary",
            durable: false,
            disk_rest_s: 0,
            members: 2,
            replication: 2,
            conns: 2,
            depth: 1,
            load: Load::Closed,
            warm_cpus: true,
            theta: 0.27,
            shift_at_midpoint: 0,
            closed_trace_len: 1 << 19,
            span_stride: 4,
            check: Check::OneReplyEach,
        },
    ]
}

pub fn find(name: &str) -> Result<Workload, String> {
    all().into_iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<_> = all().iter().map(|w| w.name).collect();
        format!(
            "unknown workload '{name}' (expected one of {})",
            names.join(", ")
        )
    })
}

/// Digest of every workload definition (all fields but the prose),
/// following the registry idiom: a result carries it and a comparison
/// refuses results whose digests differ.
pub fn digest() -> String {
    let canonical: String = all()
        .iter()
        .map(|w| {
            format!(
                "{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{:?}|{}|{}|{}|{}|{}|{:?}\n",
                w.name,
                w.clips,
                w.ratio,
                w.policy,
                w.shards,
                w.wire,
                w.durable,
                w.disk_rest_s,
                w.members,
                w.replication,
                w.conns,
                w.depth,
                w.load,
                w.warm_cpus,
                w.theta,
                w.shift_at_midpoint,
                w.closed_trace_len,
                w.span_stride,
                w.check
            )
        })
        .collect();
    format!("wld{SCHEMA}_{:016x}", fnv1a(canonical.as_bytes()))
}

impl Workload {
    /// The server's seed, derived from the workload seed.
    pub fn server_seed(&self, seed: u64) -> u64 {
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED_2007
    }

    /// Requests in the trace: the whole open-loop schedule, or the
    /// closed-loop cycle.
    pub fn trace_len(&self, seconds: u64) -> usize {
        match self.load {
            Load::Open { rate } => (rate * seconds as f64) as usize,
            Load::Closed => self.closed_trace_len,
        }
    }

    /// The clip ids the benchmark sends, from the workload seed.
    pub fn trace(&self, seed: u64, seconds: u64) -> Vec<ClipId> {
        let n = self.trace_len(seconds) as u64;
        let half = n / 2;
        let schedule = if self.shift_at_midpoint == 0 {
            PhaseSchedule::constant(n, 0)
        } else {
            PhaseSchedule::from_pairs(&[(half, 0), (n - half, self.shift_at_midpoint)])
        };
        RequestGenerator::with_schedule(self.clips, self.theta, schedule, seed)
            .map(|r| r.clip)
            .collect()
    }

    /// `serve` arguments shared by every member.
    pub fn serve_args(&self, seed: u64) -> Vec<String> {
        let mut args: Vec<String> = [
            "--policy",
            self.policy,
            "--shards",
            &self.shards.to_string(),
            "--clips",
            &self.clips.to_string(),
            "--ratio",
            &self.ratio.to_string(),
            "--seed",
            &self.server_seed(seed).to_string(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        if self.durable {
            args.extend(["--wal-sync".to_string(), "always".to_string()]);
        }
        args
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_findable() {
        let all = all();
        for w in &all {
            assert_eq!(find(w.name).unwrap().name, w.name);
            assert!(
                w.conns <= 2,
                "{}: one load process uses at most 2 connections",
                w.name
            );
        }
        assert!(find("nope").is_err());
    }

    #[test]
    fn traces_follow_the_seed() {
        let w = find("paper-dynsimple").unwrap();
        assert_eq!(w.trace(1, 2), w.trace(1, 2));
        assert_ne!(w.trace(1, 2), w.trace(2, 2));
        assert_eq!(w.trace(1, 2).len(), 10_000);
    }

    #[test]
    fn digest_is_stable_and_tracks_definitions() {
        assert_eq!(digest(), digest());
        assert!(digest().starts_with("wld1_"));
    }
}
