//! `CircuitBreaker` keeps a running count of the faults in its window
//! instead of rescanning the window on every call. The breaker below is
//! the rescanning one it replaced, kept as the reference: over random
//! fault sequences long enough to trip, half-open, re-trip and close,
//! both must report the same state and trip count after every call.

use std::collections::VecDeque;

use hbmd_core::supervisor::{BreakerState, CircuitBreaker};
use proptest::prelude::*;

/// The breaker as it was, counting the faults in `recent` on each
/// closed-state call.
struct RescanningBreaker {
    window: usize,
    trip_threshold: usize,
    cooldown_ticks: u64,
    state: BreakerState,
    recent: VecDeque<bool>,
    cooldown_left: u64,
    probation_clean: usize,
    trips: u64,
}

impl RescanningBreaker {
    fn new(window: usize, trip_threshold: usize, cooldown_ticks: u64) -> RescanningBreaker {
        let window = window.max(1);
        RescanningBreaker {
            window,
            trip_threshold: trip_threshold.clamp(1, window),
            cooldown_ticks,
            state: BreakerState::Closed,
            recent: VecDeque::with_capacity(window),
            cooldown_left: 0,
            probation_clean: 0,
            trips: 0,
        }
    }

    fn record(&mut self, faulted: bool) -> BreakerState {
        match self.state {
            BreakerState::Closed => {
                if self.recent.len() == self.window {
                    self.recent.pop_front();
                }
                self.recent.push_back(faulted);
                let faults = self.recent.iter().filter(|&&f| f).count();
                if faults >= self.trip_threshold {
                    self.trip();
                }
            }
            BreakerState::Open => {
                self.cooldown_left = self.cooldown_left.saturating_sub(1);
                if self.cooldown_left == 0 {
                    self.state = BreakerState::HalfOpen;
                    self.probation_clean = 0;
                }
            }
            BreakerState::HalfOpen => {
                if faulted {
                    self.trip();
                } else {
                    self.probation_clean += 1;
                    if self.probation_clean >= self.window {
                        self.state = BreakerState::Closed;
                        self.recent.clear();
                    }
                }
            }
        }
        self.state
    }

    fn trip(&mut self) {
        self.state = BreakerState::Open;
        self.trips += 1;
        self.cooldown_left = self.cooldown_ticks.max(1);
        self.recent.clear();
    }
}

#[test]
fn running_fault_count_matches_the_rescanning_breaker() {
    // The cases are drawn by hand from proptest strategies, rather than
    // inside `proptest!`, so the transitions seen across all of them can
    // be checked at the end.
    let cases = (
        0usize..9,
        0usize..10,
        0u64..6,
        0u32..=100,
        prop::collection::vec(0u32..100, 200..600),
    );
    let mut rng = TestRng::for_test("running_fault_count_matches_the_rescanning_breaker");
    let (mut tripped, mut half_opened, mut retripped, mut closed) = (0, 0, 0, 0);
    for _ in 0..512 {
        let (window, threshold, cooldown, fault_percent, draws) = cases.new_value(&mut rng);
        let mut breaker = CircuitBreaker::new(window, threshold, cooldown);
        let mut reference = RescanningBreaker::new(window, threshold, cooldown);
        for (call, draw) in draws.into_iter().enumerate() {
            let faulted = draw < fault_percent;
            let before = reference.state;
            let expected = reference.record(faulted);
            assert_eq!(
                breaker.record(faulted),
                expected,
                "call {call} of ({window}, {threshold}, {cooldown})"
            );
            assert_eq!(breaker.state(), reference.state);
            assert_eq!(breaker.trips(), reference.trips);
            match (before, expected) {
                (BreakerState::Closed, BreakerState::Open) => tripped += 1,
                (BreakerState::Open, BreakerState::HalfOpen) => half_opened += 1,
                (BreakerState::HalfOpen, BreakerState::Open) => retripped += 1,
                (BreakerState::HalfOpen, BreakerState::Closed) => closed += 1,
                _ => {}
            }
        }
    }
    for (transition, seen) in [
        ("trip", tripped),
        ("half-open", half_opened),
        ("re-trip", retripped),
        ("close", closed),
    ] {
        assert!(seen > 100, "{transition} seen only {seen} times");
    }
}
