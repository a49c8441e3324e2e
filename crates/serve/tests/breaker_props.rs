//! Property tests for the per-peer circuit breaker: the guarantees the
//! degraded cluster path leans on.
//!
//! 1. **Determinism** — breaker state after any interleaved sequence of
//!    probe outcomes is a pure function of that sequence. Pinned by an
//!    independently-written reference model stepped in lockstep and by
//!    structural equality of twin breakers (no hidden clock, no
//!    randomness: `PeerBreaker` derives `Eq`).
//! 2. **Bounded probe cost** — once a peer is dead, at most
//!    `failure_threshold` probes pay full price before the trip, and
//!    from then on only one probe in every `probe_interval` attempts is
//!    admitted. This is the "steady-state misses never wait on a dead
//!    peer's connect timeout" acceptance bound.
//! 3. **Exact transitions** — Closed → Open on the K-th *consecutive*
//!    failure (a success resets the run), Open → HalfOpen after exactly
//!    M skipped attempts, HalfOpen → Closed on success / back to Open
//!    on failure.
//!
//! The `proptest!` cases widen the search when the real `proptest`
//! crate is available; the plain `#[test]`s keep a deterministic grid
//! of the same properties alive under the offline stub (see
//! `vendor/README.md`).

use clipcache_serve::{
    BreakerState, PeerBreaker, BREAKER_FAILURE_THRESHOLD, BREAKER_PROBE_INTERVAL,
};
use proptest::prelude::*;

/// An independently-written model of the breaker spec. Deliberately a
/// different shape from the implementation (state-carried counters
/// instead of struct fields) so a shared bug is unlikely to hide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Model {
    Closed { fails: u32 },
    Open { skipped: u64 },
    // No HalfOpen variant on purpose: under the drive discipline the
    // admitted probe's outcome resolves HalfOpen within the same step,
    // so the model never *rests* there.
}

impl Model {
    /// Drive one probe attempt with outcome `ok` (only consulted if the
    /// model admits the probe). Returns whether the probe was admitted.
    fn step(&mut self, ok: bool, threshold: u32, interval: u64) -> bool {
        match *self {
            Model::Closed { fails } => {
                *self = if ok {
                    Model::Closed { fails: 0 }
                } else if fails + 1 >= threshold {
                    Model::Open { skipped: 0 }
                } else {
                    Model::Closed { fails: fails + 1 }
                };
                true
            }
            Model::Open { skipped } => {
                if skipped + 1 >= interval {
                    // The admitted probe IS the HalfOpen probe: its
                    // outcome resolves the state immediately.
                    *self = if ok {
                        Model::Closed { fails: 0 }
                    } else {
                        Model::Open { skipped: 0 }
                    };
                    true
                } else {
                    *self = Model::Open {
                        skipped: skipped + 1,
                    };
                    false
                }
            }
        }
    }

    fn state(&self) -> BreakerState {
        match self {
            Model::Closed { .. } => BreakerState::Closed,
            Model::Open { .. } => BreakerState::Open,
        }
    }
}

/// Drive `breaker` through one attempt: admit, then record iff admitted
/// (the usage discipline the cluster paths follow). Returns admitted.
fn drive(breaker: &mut PeerBreaker, ok: bool) -> bool {
    let admitted = breaker.admit();
    if admitted {
        breaker.record(ok);
    }
    admitted
}

/// Check breaker-vs-model lockstep over an outcome sequence, returning
/// the number of admitted probes.
fn check_against_model(outcomes: &[bool], threshold: u32, interval: u64) -> u64 {
    let mut breaker = PeerBreaker::new(threshold, interval);
    let mut model = Model::Closed { fails: 0 };
    let mut admitted = 0u64;
    for (i, &ok) in outcomes.iter().enumerate() {
        let b = drive(&mut breaker, ok);
        let m = model.step(ok, threshold, interval);
        assert_eq!(b, m, "admit diverged from model at attempt {i}");
        if b {
            admitted += 1;
        }
        // After a full drive the implementation never rests in
        // HalfOpen either: record() always resolves it.
        assert_eq!(
            breaker.state(),
            model.state(),
            "state diverged from model after attempt {i}"
        );
    }
    admitted
}

/// A seedable outcome sequence for the deterministic grid (SplitMix64,
/// the repo's standard bit mixer).
fn outcome_sequence(seed: u64, len: usize, fail_num: u64, fail_den: u64) -> Vec<bool> {
    let mut x = seed;
    (0..len)
        .map(|_| {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            z % fail_den >= fail_num // true = success
        })
        .collect()
}

#[test]
fn breaker_matches_the_reference_model_on_a_seeded_grid() {
    for &seed in &[0x5EED_2007u64, 42, 0xDEAD_BEEF] {
        for &(num, den) in &[(1u64, 2u64), (9, 10), (1, 10), (1, 1), (0, 1)] {
            let outcomes = outcome_sequence(seed, 512, num, den);
            for threshold in 1..=4u32 {
                for interval in 1..=9u64 {
                    check_against_model(&outcomes, threshold, interval);
                }
            }
        }
    }
}

#[test]
fn twin_breakers_fed_the_same_sequence_are_structurally_equal() {
    // The replay contract: breaker state is a pure function of the
    // outcome sequence, so two instances walked through it agree field
    // for field at every step — nothing inside reads a clock.
    let outcomes = outcome_sequence(0x0B5E_55ED, 256, 1, 3);
    let mut a = PeerBreaker::default();
    let mut b = PeerBreaker::default();
    for &ok in &outcomes {
        drive(&mut a, ok);
        drive(&mut b, ok);
        assert_eq!(a, b, "twin breakers diverged");
    }
    assert!(
        a.opens() > 0,
        "sequence should trip the breaker at least once"
    );
}

#[test]
fn consecutive_failures_trip_exactly_at_the_threshold() {
    let mut breaker = PeerBreaker::default();
    // A success anywhere in the run resets it: threshold-1 failures,
    // one success, threshold-1 failures stays Closed throughout.
    for _ in 0..2 {
        for _ in 1..BREAKER_FAILURE_THRESHOLD {
            drive(&mut breaker, false);
            assert_eq!(breaker.state(), BreakerState::Closed);
        }
        drive(&mut breaker, true);
        assert_eq!(breaker.state(), BreakerState::Closed);
    }
    // The K-th consecutive failure is the one that trips.
    for n in 1..=BREAKER_FAILURE_THRESHOLD {
        drive(&mut breaker, false);
        let expect = if n < BREAKER_FAILURE_THRESHOLD {
            BreakerState::Closed
        } else {
            BreakerState::Open
        };
        assert_eq!(breaker.state(), expect, "after failure {n}");
    }
    assert_eq!(breaker.opens(), 1);
}

#[test]
fn open_skips_exactly_probe_interval_attempts_then_half_opens() {
    let mut breaker = PeerBreaker::default();
    for _ in 0..BREAKER_FAILURE_THRESHOLD {
        drive(&mut breaker, false);
    }
    assert_eq!(breaker.state(), BreakerState::Open);
    // interval-1 refusals, without record (nothing was admitted)...
    for skip in 1..BREAKER_PROBE_INTERVAL {
        assert!(
            !breaker.admit(),
            "attempt {skip} while Open must be skipped"
        );
        assert_eq!(breaker.state(), BreakerState::Open);
    }
    // ...then the interval-th attempt is the HalfOpen probe, and its
    // outcome resolves the state: failure re-opens (and recounts the
    // interval from zero), success closes.
    assert!(breaker.admit());
    assert_eq!(breaker.state(), BreakerState::HalfOpen);
    breaker.record(false);
    assert_eq!(breaker.state(), BreakerState::Open);
    assert_eq!(breaker.opens(), 2);
    for _ in 1..BREAKER_PROBE_INTERVAL {
        assert!(!breaker.admit());
    }
    assert!(breaker.admit());
    breaker.record(true);
    assert_eq!(breaker.state(), BreakerState::Closed);
    assert_eq!(breaker.opens(), 2);
}

#[test]
fn dead_peer_probe_cost_is_bounded_by_the_interval() {
    // The degraded-mode acceptance bound: against a peer that never
    // recovers, the trip costs `threshold` full-price probes and the
    // steady state costs one probe per `interval` attempts — every
    // other miss is served locally without waiting on the peer.
    let attempts = 10_000u64;
    let outcomes = vec![false; attempts as usize];
    let admitted =
        check_against_model(&outcomes, BREAKER_FAILURE_THRESHOLD, BREAKER_PROBE_INTERVAL);
    let bound = u64::from(BREAKER_FAILURE_THRESHOLD) + attempts / BREAKER_PROBE_INTERVAL + 1;
    assert!(
        admitted <= bound,
        "dead peer admitted {admitted} probes over {attempts} attempts (bound {bound})"
    );
    assert!(
        admitted >= attempts / BREAKER_PROBE_INTERVAL,
        "probes must keep flowing"
    );
}

#[test]
fn breaker_counts_failures_not_clocks() {
    let mut b = PeerBreaker::new(3, 4);
    assert_eq!(b.state(), BreakerState::Closed);
    for _ in 0..2 {
        assert!(b.admit());
        b.record(false);
    }
    assert_eq!(b.state(), BreakerState::Closed, "K-1 failures stay Closed");
    assert!(b.admit());
    b.record(false);
    assert_eq!(
        b.state(),
        BreakerState::Open,
        "Kth consecutive failure trips"
    );
    assert_eq!(b.opens(), 1);
    for _ in 0..3 {
        assert!(!b.admit(), "Open skips M-1 attempts");
    }
    assert!(b.admit(), "Mth attempt is the HalfOpen probe");
    assert_eq!(b.state(), BreakerState::HalfOpen);
    b.record(false);
    assert_eq!(b.state(), BreakerState::Open, "failed probe re-opens");
    for _ in 0..3 {
        assert!(!b.admit());
    }
    assert!(b.admit());
    b.record(true);
    assert_eq!(b.state(), BreakerState::Closed, "successful probe heals");
    assert_eq!(b.opens(), 2);
    // A success anywhere resets the consecutive-failure count.
    for ok in [false, false, true, false, false] {
        assert!(b.admit());
        b.record(ok);
    }
    assert_eq!(b.state(), BreakerState::Closed);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prop_breaker_is_a_pure_function_of_the_outcome_sequence(
        outcomes in proptest::collection::vec(any::<bool>(), 0..300),
        threshold in 1u32..6,
        interval in 1u64..12,
    ) {
        check_against_model(&outcomes, threshold, interval);
        // Replaying the identical sequence lands on the identical
        // struct — the determinism half, independent of the model.
        let mut first = PeerBreaker::new(threshold, interval);
        let mut second = PeerBreaker::new(threshold, interval);
        for &ok in &outcomes {
            drive(&mut first, ok);
        }
        for &ok in &outcomes {
            drive(&mut second, ok);
        }
        prop_assert_eq!(first, second);
    }

    #[test]
    fn prop_all_success_never_trips_and_all_failure_stays_bounded(
        len in 1usize..500,
        threshold in 1u32..6,
        interval in 1u64..12,
    ) {
        let mut healthy = PeerBreaker::new(threshold, interval);
        for _ in 0..len {
            prop_assert!(drive(&mut healthy, true), "healthy probes are always admitted");
        }
        prop_assert_eq!(healthy.state(), BreakerState::Closed);
        prop_assert_eq!(healthy.opens(), 0);

        let admitted = check_against_model(&vec![false; len], threshold, interval);
        let bound = u64::from(threshold) + len as u64 / interval + 1;
        prop_assert!(admitted <= bound, "admitted {} > bound {}", admitted, bound);
    }
}
