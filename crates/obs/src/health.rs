//! Supervisor-visible fleet health, shared between the fleet and the
//! exposition server through the metrics [`Registry`].
//!
//! A [`FleetHealth`] is a view over a registry: it resolves its series
//! once, its record methods are the only writers of them, and its
//! readers — `/readyz` among them — read the same cells the Prometheus
//! exposition renders. Two views built over one registry share every
//! cell, so the fleet and the server each build their own. The series:
//!
//! | series | kind | meaning |
//! |---|---|---|
//! | `fleet.shard_state{shard}` | gauge | the shard's [`ServiceState`] as 0 starting, 1 ready, 2 degraded, 3 restarting |
//! | `fleet.shard_restarts{shard}` | counter | worker restarts |
//! | `breaker.trips{shard}` | counter | circuit-breaker trips |
//! | `fleet.quarantined{shard}` | gauge | streams quarantined or on probation |
//! | `fleet.quarantines` | counter | stream entries into quarantine |
//! | `fleet.readmissions` | counter | streams readmitted after probation |
//! | `fleet.shed{priority}` | counter | windows shed under overload, `low` (cold) or `high` (hot) |
//!
//! The serve layer maps the shards' quorum onto `/readyz`: 200 only
//! while a strict majority of shards is [`ServiceState::Ready`].
//!
//! # Examples
//!
//! ```
//! use hbmd_obs::health::{FleetHealth, ServiceState};
//! use hbmd_obs::Registry;
//!
//! let registry = Registry::new();
//! let fleet = FleetHealth::new(&registry, 2);
//! assert_eq!(fleet.shard(0).state(), ServiceState::Starting);
//! fleet.shard(0).set_state(ServiceState::Ready);
//! fleet.shard(1).record_restart();
//! // A second view over the same registry reads the same cells.
//! let view = FleetHealth::new(&registry, 2);
//! assert!(view.shard(0).is_ready());
//! assert_eq!(view.restarts(), 1);
//! assert_eq!(registry.snapshot().counter("fleet.shard_restarts"), 1);
//! ```

use std::sync::Arc;

use crate::metrics::{Counter, Gauge, Registry};

/// Where a supervised shard currently is.
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

/// The `fleet.shard_state` value of each state, by position.
const STATE_TAGS: [ServiceState; 4] = [
    ServiceState::Starting,
    ServiceState::Ready,
    ServiceState::Degraded,
    ServiceState::Restarting,
];

/// One shard's health series: its [`ServiceState`], worker restarts,
/// breaker trips and streams out of service.
#[derive(Debug)]
pub struct Health {
    state: Arc<Gauge>,
    restarts: Arc<Counter>,
    trips: Arc<Counter>,
    quarantined: Arc<Gauge>,
}

impl Health {
    fn new(registry: &Registry, shard: usize) -> Health {
        let label = shard.to_string();
        let shard = [("shard", label.as_str())];
        Health {
            state: registry.gauge_with("fleet.shard_state", &shard),
            restarts: registry.counter_with("fleet.shard_restarts", &shard),
            trips: registry.counter_with("breaker.trips", &shard),
            quarantined: registry.gauge_with("fleet.quarantined", &shard),
        }
    }

    /// The current state.
    pub fn state(&self) -> ServiceState {
        let tag = usize::try_from(self.state.get()).unwrap_or(0);
        STATE_TAGS[tag % STATE_TAGS.len()]
    }

    /// Move to `state`.
    pub fn set_state(&self, state: ServiceState) {
        let tag = STATE_TAGS
            .iter()
            .position(|&s| s == state)
            .expect("state is one of the four tags");
        self.state.set(tag as i64);
    }

    /// `true` only in [`ServiceState::Ready`] — the `/readyz`
    /// criterion.
    pub fn is_ready(&self) -> bool {
        self.state() == ServiceState::Ready
    }

    /// Count one worker restart.
    pub fn record_restart(&self) {
        self.restarts.incr();
    }

    /// Worker restarts so far.
    pub fn restarts(&self) -> u64 {
        self.restarts.get()
    }

    /// Count one circuit-breaker trip.
    pub fn record_trip(&self) {
        self.trips.incr();
    }

    /// Breaker trips so far.
    pub fn trips(&self) -> u64 {
        self.trips.get()
    }

    /// Set how many of the shard's streams are quarantined or on
    /// probation — a count of their standings, not of events, so it
    /// cannot drift from them.
    pub fn set_quarantined(&self, streams: u64) {
        self.quarantined
            .set(i64::try_from(streams).unwrap_or(i64::MAX));
    }

    /// The shard's streams quarantined or on probation.
    pub fn quarantined(&self) -> u64 {
        u64::try_from(self.quarantined.get()).unwrap_or(0)
    }
}

/// Health for a sharded fleet: one [`Health`] per shard (each shard's
/// supervisor drives its own), plus fleet-wide quarantine, readmission
/// and shedding counters.
///
/// Readiness is a *quorum*, not unanimity — that is the bulkhead
/// contract: one shard restarting must not flip the whole deployment
/// out of the load balancer. [`is_ready`](FleetHealth::is_ready)
/// requires a strict majority of shards in [`ServiceState::Ready`].
#[derive(Debug)]
pub struct FleetHealth {
    shards: Vec<Health>,
    quarantines: Arc<Counter>,
    readmissions: Arc<Counter>,
    shed_low: Arc<Counter>,
    shed_high: Arc<Counter>,
}

impl FleetHealth {
    /// The health of a fleet of `shards` shards (at least one), over
    /// `registry`'s series. A shard no one has moved reads
    /// [`ServiceState::Starting`].
    pub fn new(registry: &Registry, shards: usize) -> FleetHealth {
        FleetHealth {
            shards: (0..shards.max(1))
                .map(|shard| Health::new(registry, shard))
                .collect(),
            quarantines: registry.counter("fleet.quarantines"),
            readmissions: registry.counter("fleet.readmissions"),
            shed_low: registry.counter_with("fleet.shed", &[("priority", "low")]),
            shed_high: registry.counter_with("fleet.shed", &[("priority", "high")]),
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

    /// Streams currently quarantined or on probation, across all
    /// shards.
    pub fn quarantined(&self) -> u64 {
        self.shards.iter().map(Health::quarantined).sum()
    }

    /// Count one stream entering quarantine.
    pub fn record_quarantine(&self) {
        self.quarantines.incr();
    }

    /// Count one stream readmitted after probation.
    pub fn record_readmission(&self) {
        self.readmissions.incr();
    }

    /// Count one window shed under overload: a `hot` stream's (alarmed
    /// or on probation) at high priority, a cold one's at low.
    pub fn record_shed(&self, hot: bool) {
        if hot {
            self.shed_high.incr();
        } else {
            self.shed_low.incr();
        }
    }

    /// Windows shed under overload so far, both priorities.
    pub fn shed(&self) -> u64 {
        self.shed_low.get() + self.shed_high.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_machine_roundtrips_all_states() {
        let registry = Registry::new();
        let health = FleetHealth::new(&registry, 1);
        for state in STATE_TAGS {
            health.shard(0).set_state(state);
            assert_eq!(health.shard(0).state(), state);
            assert_eq!(health.shard(0).is_ready(), state == ServiceState::Ready);
        }
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
        let fleet = FleetHealth::new(&Registry::new(), 4);
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
    fn fleet_counters_aggregate_across_shards_into_the_registry() {
        let registry = Registry::new();
        let fleet = FleetHealth::new(&registry, 2);
        fleet.shard(0).record_restart();
        fleet.shard(1).record_restart();
        fleet.shard(1).record_trip();
        assert_eq!(fleet.restarts(), 2);
        assert_eq!(fleet.trips(), 1);

        fleet.shard(0).set_quarantined(2);
        fleet.shard(1).set_quarantined(1);
        assert_eq!(fleet.quarantined(), 3);
        fleet.shard(0).set_quarantined(0);
        assert_eq!(fleet.quarantined(), 1);

        fleet.record_quarantine();
        fleet.record_readmission();
        fleet.record_shed(false);
        fleet.record_shed(true);
        fleet.record_shed(true);
        assert_eq!(fleet.shed(), 3);

        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("fleet.shard_restarts"), 2);
        assert_eq!(snapshot.counter("breaker.trips"), 1);
        assert_eq!(snapshot.counter("fleet.quarantines"), 1);
        assert_eq!(snapshot.counter("fleet.readmissions"), 1);
        assert_eq!(snapshot.counter("fleet.shed"), 3);
    }
}
