//! Robustness extension: accuracy and abstention under a degrading
//! collection pipeline.
//!
//! The reference evaluation assumes pristine counter streams; real PMU
//! collection drops windows, saturates counters, and starves
//! multiplexed events. This experiment trains detectors on a clean
//! collection, then sweeps the fault-injection rate over an *unseen*
//! evaluation catalog and measures how gracefully each classifier
//! degrades when its windows are screened by the
//! [`Sanitizer`](crate::Sanitizer): repairable corruption is imputed,
//! hopeless windows abstain, and accuracy is reported over the windows
//! the detector actually decided.

use hbmd_malware::SampleCatalog;
use hbmd_obs::par::try_par_map;
use hbmd_perf::{CollectorConfig, FaultPlan};

use crate::detector::DetectorBuilder;
use crate::error::CoreError;
use crate::experiments::cache::{catalog_recipe, CollectCache};
use crate::experiments::ExperimentConfig;
use crate::suite::ClassifierKind;

/// One cell of the fault-rate × classifier sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessRow {
    /// Uniform per-mode fault activation rate injected during the
    /// evaluation collection.
    pub fault_rate: f64,
    /// Classifier scheme under test.
    pub scheme: ClassifierKind,
    /// Binary accuracy over the windows the detector decided (abstained
    /// windows excluded); NaN when every window abstained.
    pub accuracy: f64,
    /// Fraction of evaluation windows the detector abstained on.
    pub abstain_rate: f64,
    /// Evaluation windows observed (post-fault, so drops and
    /// duplications shift this across rates).
    pub windows: usize,
    /// Samples quarantined by the collector after retries.
    pub quarantined: usize,
    /// Retry attempts the collector spent.
    pub retries: usize,
}

/// Sweep fault rates against classifier schemes.
///
/// Detectors are trained once per scheme on the configured *clean*
/// collection, then evaluated on a fresh catalog (ids unseen during
/// training) collected through a [`FaultPlan::uniform`] pipeline at
/// each rate. Everything is deterministic from the experiment config:
/// the fault seed is derived from the catalog seed and the rate's
/// index.
///
/// # Errors
///
/// Returns [`CoreError::Config`] for an empty scheme or rate list,
/// propagates training errors, and propagates
/// [`DegradedCollection`](hbmd_perf::PerfError::DegradedCollection)
/// when a rate corrupts the evaluation collection beyond the
/// collector's failure threshold.
pub fn degradation_sweep(
    config: &ExperimentConfig,
    schemes: &[ClassifierKind],
    fault_rates: &[f64],
) -> Result<Vec<RobustnessRow>, CoreError> {
    degradation_sweep_with(CollectCache::global(), config, schemes, fault_rates)
}

/// [`degradation_sweep`] against an explicit [`CollectCache`].
///
/// Detector training is fanned out across schemes and the fault-rate
/// sweep across rates, both on `config.threads` workers; each rate's
/// evaluation collection (and its report) is memoized in `cache`, so
/// re-running the sweep — or running it at a different thread count —
/// collects each faulted pipeline exactly once.
///
/// # Errors
///
/// Returns [`CoreError::Config`] for an empty scheme or rate list,
/// propagates training errors, and propagates
/// [`DegradedCollection`](hbmd_perf::PerfError::DegradedCollection)
/// when a rate corrupts the evaluation collection beyond the
/// collector's failure threshold.
pub fn degradation_sweep_with(
    cache: &CollectCache,
    config: &ExperimentConfig,
    schemes: &[ClassifierKind],
    fault_rates: &[f64],
) -> Result<Vec<RobustnessRow>, CoreError> {
    if schemes.is_empty() || fault_rates.is_empty() {
        return Err(CoreError::Config(
            "need at least one scheme and one fault rate".to_owned(),
        ));
    }

    let train_data = &cache.collect(config)?.dataset;
    let detectors = try_par_map(schemes, config.threads, |_, &scheme| {
        DetectorBuilder::new()
            .classifier(scheme)
            .train_binary(train_data)
            .map(|d| (scheme, d))
    })?;

    // Fresh specimen stream: same class mix, ids and behaviour seeds
    // the detectors have never seen.
    let eval_fraction = config.catalog_fraction.min(1.0);
    let eval_seed = config.catalog_seed ^ 0x0BAD_F00D;
    let eval_recipe = catalog_recipe(eval_fraction, eval_seed);

    let per_rate = try_par_map(fault_rates, config.threads, |k, &rate| {
        let collector = CollectorConfig {
            fault: (rate > 0.0)
                .then(|| FaultPlan::uniform(rate, config.catalog_seed ^ (k as u64) << 32)),
            ..config.collector.clone()
        };
        let collection = cache.collect_catalog(&collector, &eval_recipe, || {
            SampleCatalog::scaled(eval_fraction, eval_seed)
        })?;
        let (eval_data, report) = (&collection.dataset, &collection.report);

        let rows: Vec<RobustnessRow> = detectors
            .iter()
            .map(|(scheme, detector)| {
                let mut decided = 0usize;
                let mut correct = 0usize;
                let mut abstained = 0usize;
                for row in eval_data.rows() {
                    let verdict = detector.classify_sanitized(&row.features);
                    if verdict.is_abstain() {
                        abstained += 1;
                    } else {
                        decided += 1;
                        if verdict.is_malware() == row.class.is_malware() {
                            correct += 1;
                        }
                    }
                }
                RobustnessRow {
                    fault_rate: rate,
                    scheme: *scheme,
                    accuracy: if decided == 0 {
                        f64::NAN
                    } else {
                        correct as f64 / decided as f64
                    },
                    abstain_rate: if eval_data.is_empty() {
                        0.0
                    } else {
                        abstained as f64 / eval_data.len() as f64
                    },
                    windows: eval_data.len(),
                    quarantined: report.quarantined.len(),
                    retries: report.retries,
                }
            })
            .collect();
        Ok::<Vec<RobustnessRow>, CoreError>(rows)
    })?;
    Ok(per_rate.into_iter().flatten().collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCHEMES: [ClassifierKind; 3] = [
        ClassifierKind::J48,
        ClassifierKind::Logistic,
        ClassifierKind::NaiveBayes,
    ];

    #[test]
    fn accuracy_degrades_gracefully_not_cliff() {
        let rates = [0.0, 0.05, 0.1, 0.2];
        let rows = degradation_sweep(&ExperimentConfig::fast(), &SCHEMES, &rates).expect("sweep");
        assert_eq!(rows.len(), SCHEMES.len() * rates.len());

        for &scheme in &SCHEMES {
            let of_scheme: Vec<&RobustnessRow> =
                rows.iter().filter(|r| r.scheme == scheme).collect();
            let clean = of_scheme[0];
            let worst = of_scheme.last().expect("rows");
            assert_eq!(clean.fault_rate, 0.0);
            assert!(
                clean.accuracy > 0.6,
                "{scheme:?} clean accuracy {}",
                clean.accuracy
            );
            assert_eq!(clean.abstain_rate, 0.0, "{scheme:?} abstained when clean");
            // Graceful degradation: at a 20% fault rate the sanitised
            // pipeline must stay far above the cliff floor.
            assert!(
                worst.accuracy > 0.45,
                "{scheme:?} fell off a cliff: {} at rate {}",
                worst.accuracy,
                worst.fault_rate
            );
        }

        // Heavier faulting means more abstention somewhere in the sweep.
        let clean_abstain: f64 = rows
            .iter()
            .filter(|r| r.fault_rate == 0.0)
            .map(|r| r.abstain_rate)
            .sum();
        let worst_abstain: f64 = rows
            .iter()
            .filter(|r| r.fault_rate == 0.2)
            .map(|r| r.abstain_rate)
            .sum();
        assert_eq!(clean_abstain, 0.0);
        assert!(
            worst_abstain > 0.0,
            "a 20% fault rate should force some abstention"
        );
    }

    #[test]
    fn sweep_is_deterministic() {
        let rates = [0.1];
        let schemes = [ClassifierKind::J48];
        let a = degradation_sweep(&ExperimentConfig::fast(), &schemes, &rates).expect("sweep");
        let b = degradation_sweep(&ExperimentConfig::fast(), &schemes, &rates).expect("sweep");
        assert_eq!(a, b);
    }

    #[test]
    fn degenerate_inputs_are_rejected() {
        assert!(degradation_sweep(&ExperimentConfig::fast(), &[], &[0.1]).is_err());
        assert!(degradation_sweep(&ExperimentConfig::fast(), &[ClassifierKind::J48], &[]).is_err());
    }
}
