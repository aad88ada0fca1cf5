//! Supervisor-visible service health, shared between the fleet and the
//! exposition server.
//!
//! A [`Health`] is a lock-free bundle of the one state machine and two
//! counters a supervised shard needs to expose: where its supervisor
//! currently is ([`ServiceState`]), how many times the worker has been
//! restarted, and how many times the circuit breaker has tripped. A
//! [`FleetHealth`] holds one per shard; the serve layer maps its quorum
//! onto `/readyz` (200 only while enough shards are
//! [`ServiceState::Ready`]), and `repro serve` mirrors the fleet totals
//! into the metrics [`Registry`](crate::metrics::Registry) so they reach
//! the Prometheus exposition as `hbmd_supervisor_restarts_total` and
//! `hbmd_breaker_trips_total`.
//!
//! # Examples
//!
//! ```
//! use hbmd_obs::health::{Health, ServiceState};
//!
//! let health = Health::new();
//! assert_eq!(health.state(), ServiceState::Starting);
//! health.set_state(ServiceState::Ready);
//! assert!(health.is_ready());
//! health.record_restart();
//! assert_eq!(health.restarts(), 1);
//! ```

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// Where the supervised pipeline currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServiceState {
    /// Booting: training or restoring the detector; not yet serving
    /// verdicts.
    Starting,
    /// Healthy and classifying windows.
    Ready,
    /// Running but degraded: the circuit breaker is open and windows
    /// are abstained instead of classified.
    Degraded,
    /// A worker fault is being recovered: restoring from checkpoint
    /// under backoff.
    Restarting,
}

impl ServiceState {
    /// Lower-case name, as served on `/readyz` and logged.
    pub fn as_str(self) -> &'static str {
        match self {
            ServiceState::Starting => "starting",
            ServiceState::Ready => "ready",
            ServiceState::Degraded => "degraded",
            ServiceState::Restarting => "restarting",
        }
    }
}

impl std::fmt::Display for ServiceState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Shared, lock-free health state: one [`ServiceState`] plus restart
/// and breaker-trip counters. Cheap enough to update from the hot
/// path and safe to read from any scrape thread.
#[derive(Debug, Default)]
pub struct Health {
    state: AtomicU8,
    restarts: AtomicU64,
    trips: AtomicU64,
}

const STATE_TAGS: [ServiceState; 4] = [
    ServiceState::Starting,
    ServiceState::Ready,
    ServiceState::Degraded,
    ServiceState::Restarting,
];

impl Health {
    /// A fresh health record in [`ServiceState::Starting`] with zeroed
    /// counters.
    pub fn new() -> Health {
        Health::default()
    }

    /// The current state.
    pub fn state(&self) -> ServiceState {
        STATE_TAGS[usize::from(self.state.load(Ordering::SeqCst)) % STATE_TAGS.len()]
    }

    /// Move to `state`.
    pub fn set_state(&self, state: ServiceState) {
        let tag = STATE_TAGS
            .iter()
            .position(|&s| s == state)
            .expect("state is one of the four tags") as u8;
        self.state.store(tag, Ordering::SeqCst);
    }

    /// `true` only in [`ServiceState::Ready`] — the `/readyz`
    /// criterion.
    pub fn is_ready(&self) -> bool {
        self.state() == ServiceState::Ready
    }

    /// Count one worker restart.
    pub fn record_restart(&self) {
        self.restarts.fetch_add(1, Ordering::SeqCst);
    }

    /// Worker restarts so far.
    pub fn restarts(&self) -> u64 {
        self.restarts.load(Ordering::SeqCst)
    }

    /// Count one circuit-breaker trip.
    pub fn record_trip(&self) {
        self.trips.fetch_add(1, Ordering::SeqCst);
    }

    /// Breaker trips so far.
    pub fn trips(&self) -> u64 {
        self.trips.load(Ordering::SeqCst)
    }
}

/// Health for a sharded fleet: one [`Health`] per shard (each shard's
/// supervisor drives its own), plus fleet-wide quarantine and shedding
/// counters.
///
/// Readiness is a *quorum*, not unanimity — that is the bulkhead
/// contract: one shard restarting must not flip the whole deployment
/// out of the load balancer. [`is_ready`](FleetHealth::is_ready)
/// requires a strict majority of shards in [`ServiceState::Ready`].
#[derive(Debug)]
pub struct FleetHealth {
    shards: Vec<Health>,
    quarantined: AtomicU64,
    readmissions: AtomicU64,
    shed: AtomicU64,
}

impl FleetHealth {
    /// A fleet of `shards` shard-health records, all
    /// [`ServiceState::Starting`].
    pub fn new(shards: usize) -> FleetHealth {
        FleetHealth {
            shards: (0..shards.max(1)).map(|_| Health::new()).collect(),
            quarantined: AtomicU64::new(0),
            readmissions: AtomicU64::new(0),
            shed: AtomicU64::new(0),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The health record of shard `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn shard(&self, index: usize) -> &Health {
        &self.shards[index]
    }

    /// Shards currently [`ServiceState::Ready`].
    pub fn ready_shards(&self) -> usize {
        self.shards.iter().filter(|s| s.is_ready()).count()
    }

    /// The `/readyz` criterion: a strict majority of shards ready.
    pub fn is_ready(&self) -> bool {
        self.ready_shards() * 2 > self.shards.len()
    }

    /// Total worker restarts across all shards.
    pub fn restarts(&self) -> u64 {
        self.shards.iter().map(Health::restarts).sum()
    }

    /// Total breaker trips across all shards.
    pub fn trips(&self) -> u64 {
        self.shards.iter().map(Health::trips).sum()
    }

    /// Streams currently quarantined (a gauge: raise on quarantine,
    /// lower on readmission).
    pub fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::SeqCst)
    }

    /// Count one stream entering quarantine.
    pub fn record_quarantine(&self) {
        self.quarantined.fetch_add(1, Ordering::SeqCst);
    }

    /// Count one stream readmitted after probation.
    pub fn record_readmission(&self) {
        self.readmissions.fetch_add(1, Ordering::SeqCst);
        // Saturating: a readmission without a recorded quarantine (e.g.
        // restored mid-probation) must not wrap the gauge.
        let _ = self
            .quarantined
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |q| q.checked_sub(1));
    }

    /// Streams readmitted after probation so far.
    pub fn readmissions(&self) -> u64 {
        self.readmissions.load(Ordering::SeqCst)
    }

    /// Count `n` windows shed under overload.
    pub fn record_shed(&self, n: u64) {
        self.shed.fetch_add(n, Ordering::SeqCst);
    }

    /// Windows shed under overload so far.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_machine_roundtrips_all_states() {
        let health = Health::new();
        for state in STATE_TAGS {
            health.set_state(state);
            assert_eq!(health.state(), state);
            assert_eq!(health.is_ready(), state == ServiceState::Ready);
        }
    }

    #[test]
    fn counters_accumulate() {
        let health = Health::new();
        health.record_restart();
        health.record_restart();
        health.record_trip();
        assert_eq!(health.restarts(), 2);
        assert_eq!(health.trips(), 1);
    }

    #[test]
    fn names_match_the_readyz_contract() {
        assert_eq!(ServiceState::Starting.to_string(), "starting");
        assert_eq!(ServiceState::Ready.to_string(), "ready");
        assert_eq!(ServiceState::Degraded.to_string(), "degraded");
        assert_eq!(ServiceState::Restarting.to_string(), "restarting");
    }

    #[test]
    fn fleet_readiness_is_a_strict_majority() {
        let fleet = FleetHealth::new(4);
        assert!(!fleet.is_ready(), "all starting");
        fleet.shard(0).set_state(ServiceState::Ready);
        fleet.shard(1).set_state(ServiceState::Ready);
        assert!(!fleet.is_ready(), "2 of 4 is not a strict majority");
        fleet.shard(2).set_state(ServiceState::Ready);
        assert!(fleet.is_ready(), "3 of 4 is");
        // A single restarting shard must not flip fleet readiness.
        fleet.shard(3).set_state(ServiceState::Restarting);
        assert!(fleet.is_ready());
    }

    #[test]
    fn fleet_counters_aggregate_across_shards() {
        let fleet = FleetHealth::new(2);
        fleet.shard(0).record_restart();
        fleet.shard(1).record_restart();
        fleet.shard(1).record_trip();
        assert_eq!(fleet.restarts(), 2);
        assert_eq!(fleet.trips(), 1);

        fleet.record_quarantine();
        fleet.record_quarantine();
        assert_eq!(fleet.quarantined(), 2);
        fleet.record_readmission();
        assert_eq!(fleet.quarantined(), 1);
        assert_eq!(fleet.readmissions(), 1);
        // Readmissions never wrap the quarantine gauge below zero.
        fleet.record_readmission();
        fleet.record_readmission();
        assert_eq!(fleet.quarantined(), 0);

        fleet.record_shed(5);
        assert_eq!(fleet.shed(), 5);
    }
}
