//! Adversarial robustness extension: attack the detector, then harden
//! it.
//!
//! "Defending Hardware-based Malware Detectors against Adversarial
//! Attacks" (arXiv:2005.03644) showed that HMD classifiers collapse
//! under small crafted counter perturbations. This experiment closes
//! the red-team/blue-team loop:
//!
//! * **Red team** — [`accuracy_under_attack`] crafts plausibility-
//!   constrained [`EvasionAttack`]s against each trained detector's
//!   malice score and sweeps the attacker's L1 budget;
//!   [`camouflage_sweep`] measures end-to-end detection against
//!   behaviour-level [`EvasionTactic`] camouflage that never touches a
//!   feature vector.
//! * **Blue team** — every crafted window is re-scored under two
//!   defenses: *adversarial retraining* (the training set is augmented
//!   with attack-successful windows crafted against the training
//!   catalog, then the detector is refit) and the *ensemble-
//!   disagreement alarm* (a committee whose vote dispersion crosses
//!   [`SUSPICION_ALARM`] flags the window even when the majority vote
//!   was evaded).
//!
//! Everything is deterministic from the [`ExperimentConfig`]: attack
//! seeds derive from the catalog seed and the cell's position in the
//! sweep, so the same config yields byte-identical rows at any thread
//! count.

use hbmd_events::FeatureVector;
use hbmd_malware::{
    evasive_catalog, EvasionAttack, EvasionTactic, PlausibilityEnvelope, SampleCatalog,
};
use hbmd_obs::par::try_par_map;
use hbmd_perf::{DataRow, HpcDataset};
use std::fmt;

use crate::convert::to_binary_dataset;
use crate::detector::{Detector, DetectorBuilder};
use crate::error::CoreError;
use crate::experiments::cache::{catalog_recipe, CollectCache};
use crate::experiments::ExperimentConfig;
use crate::suite::ClassifierKind;

/// Committee vote dispersion at or above this flags a window as a
/// suspected evasion attempt, independent of the majority verdict.
/// Binary committees disperse in `[0, 0.5]`; an evaded-but-contested
/// window sits just under the decision boundary, where dispersion
/// approaches its maximum.
pub const SUSPICION_ALARM: f64 = 0.4;

/// Ceiling width of the plausibility envelope, in benign standard
/// deviations above the benign mean.
pub const ENVELOPE_SIGMA: f64 = 6.0;

/// Attack-target cap per sweep cell: the first this-many malicious
/// evaluation windows, in dataset order (deterministic).
pub const MAX_ATTACK_TARGETS: usize = 256;

/// Cap on training-catalog windows attacked to build the retraining
/// augmentation set.
const MAX_RETRAIN_TARGETS: usize = 256;

/// Salt separating the unseen evaluation catalog from the training
/// catalog.
const EVAL_SEED_SALT: u64 = 0xA77A_C4ED;

/// The defense configuration a row was scored under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DefenseKind {
    /// The undefended detector, exactly as trained on clean data.
    Clean,
    /// Refit on the training set augmented with attack-successful
    /// windows crafted against the training catalog.
    Retrained,
    /// Clean detector plus the ensemble-disagreement alarm: a window is
    /// flagged when the majority votes malware *or* committee vote
    /// dispersion reaches [`SUSPICION_ALARM`].
    Ensemble,
}

impl DefenseKind {
    /// Every defense, in stable reporting order.
    pub const ALL: [DefenseKind; 3] = [
        DefenseKind::Clean,
        DefenseKind::Retrained,
        DefenseKind::Ensemble,
    ];

    /// Stable lower-case name (table rows, metric labels).
    pub fn name(self) -> &'static str {
        match self {
            DefenseKind::Clean => "clean",
            DefenseKind::Retrained => "retrained",
            DefenseKind::Ensemble => "ensemble",
        }
    }
}

impl fmt::Display for DefenseKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One cell of the budget × scheme × defense sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct AdversarialRow {
    /// Attacker's L1 budget as a fraction of each window's L1 mass.
    pub budget: f64,
    /// Classifier scheme under attack.
    pub scheme: ClassifierKind,
    /// Defense the adversarial windows were scored under.
    pub defense: DefenseKind,
    /// Malicious evaluation windows targeted.
    pub windows: usize,
    /// Detection rate over the targets *before* perturbation (clean
    /// detector on clean windows; identical across defenses).
    pub baseline_detection: f64,
    /// Detection rate over the same targets *after* perturbation,
    /// under this defense.
    pub detection_rate: f64,
    /// Fraction of initially-detected targets whose adversarial window
    /// slips past this defense.
    pub evasion_rate: f64,
    /// Mean L1 the attacker spent per initially-detected target.
    pub mean_l1: f64,
    /// Mean score-oracle queries per initially-detected target.
    pub mean_iterations: f64,
    /// Windows on which the disagreement alarm tripped (ensemble
    /// defense only; 0 otherwise).
    pub suspicion_trips: usize,
}

/// One cell of the behaviour-level camouflage sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct TacticRow {
    /// Camouflage tactic name, `"none"` for the uncamouflaged baseline.
    pub tactic: String,
    /// Classifier scheme under test.
    pub scheme: ClassifierKind,
    /// Detection rate over the catalog's malicious windows.
    pub detection_rate: f64,
    /// Malicious windows evaluated.
    pub windows: usize,
}

/// Sweep attack budgets against classifier schemes and defenses.
///
/// Per scheme, a detector is trained on the configured clean
/// collection. Per `(scheme, budget)` cell, an [`EvasionAttack`] —
/// constrained to a [`PlausibilityEnvelope`] fit on the benign training
/// windows — is crafted against the clean detector's malice score on
/// the first [`MAX_ATTACK_TARGETS`] malicious windows of an *unseen*
/// evaluation catalog. The same crafted windows are then scored under
/// every [`DefenseKind`], so the rows are directly comparable transfer
/// curves: detection rate vs. perturbation budget, clean vs. retrained
/// vs. ensemble-defended.
///
/// # Errors
///
/// Returns [`CoreError::Config`] for an empty scheme or budget list or
/// a non-finite/negative budget, and propagates training and collection
/// errors.
pub fn accuracy_under_attack(
    cache: &CollectCache,
    config: &ExperimentConfig,
    schemes: &[ClassifierKind],
    budgets: &[f64],
) -> Result<Vec<AdversarialRow>, CoreError> {
    if schemes.is_empty() || budgets.is_empty() {
        return Err(CoreError::Config(
            "need at least one scheme and one attack budget".to_owned(),
        ));
    }
    if let Some(&bad) = budgets.iter().find(|b| !b.is_finite() || **b < 0.0) {
        return Err(CoreError::Config(format!(
            "attack budgets must be finite and non-negative, got {bad}"
        )));
    }

    let train_data = &cache.collect(config)?.dataset;
    let envelope = benign_envelope(train_data);
    let detectors = try_par_map(schemes, config.threads, |_, &scheme| {
        DetectorBuilder::new()
            .classifier(scheme)
            .train_binary(train_data)
            .map(|d| (scheme, d))
    })?;

    // Fresh specimen stream: same class mix, ids and behaviour seeds
    // the detectors have never seen.
    let eval_fraction = config.catalog_fraction.min(1.0);
    let eval_seed = config.catalog_seed ^ EVAL_SEED_SALT;
    let eval_recipe = catalog_recipe(eval_fraction, eval_seed);
    let collection = cache.collect_catalog(&config.collector, &eval_recipe, || {
        SampleCatalog::scaled(eval_fraction, eval_seed)
    })?;
    let eval_data = &collection.dataset;

    let cells: Vec<(usize, usize)> = (0..schemes.len())
        .flat_map(|si| (0..budgets.len()).map(move |bi| (si, bi)))
        .collect();
    let per_cell = try_par_map(&cells, config.threads, |_, &(si, bi)| {
        let (scheme, detector) = &detectors[si];
        attack_cell(
            config,
            train_data,
            eval_data,
            &envelope,
            *scheme,
            detector,
            budgets[bi],
            (si as u64) << 8 | bi as u64,
        )
    })?;
    Ok(per_cell.into_iter().flatten().collect())
}

/// Behaviour-level camouflage: detection rate per scheme over the
/// uncamouflaged evaluation catalog and each [`EvasionTactic`] rewrite
/// of it.
///
/// # Errors
///
/// Returns [`CoreError::Config`] for an empty scheme list and
/// propagates training and collection errors.
pub fn camouflage_sweep(
    cache: &CollectCache,
    config: &ExperimentConfig,
    schemes: &[ClassifierKind],
) -> Result<Vec<TacticRow>, CoreError> {
    if schemes.is_empty() {
        return Err(CoreError::Config("need at least one scheme".to_owned()));
    }
    let train_data = &cache.collect(config)?.dataset;
    let detectors = try_par_map(schemes, config.threads, |_, &scheme| {
        DetectorBuilder::new()
            .classifier(scheme)
            .train_binary(train_data)
            .map(|d| (scheme, d))
    })?;

    let eval_fraction = config.catalog_fraction.min(1.0);
    let eval_seed = config.catalog_seed ^ EVAL_SEED_SALT;
    let base_recipe = catalog_recipe(eval_fraction, eval_seed);

    let variants: Vec<Option<EvasionTactic>> = std::iter::once(None)
        .chain(EvasionTactic::ALL.into_iter().map(Some))
        .collect();
    let per_variant = try_par_map(&variants, config.threads, |_, &tactic| {
        let recipe = match tactic {
            None => base_recipe.clone(),
            Some(t) => format!("evasive(tactic={},{base_recipe})", t.name()),
        };
        let collection = cache.collect_catalog(&config.collector, &recipe, || {
            let base = SampleCatalog::scaled(eval_fraction, eval_seed);
            match tactic {
                None => base,
                Some(t) => evasive_catalog(&base, t),
            }
        })?;
        let rows: Vec<TacticRow> = detectors
            .iter()
            .map(|(scheme, detector)| {
                let malicious: Vec<&DataRow> = collection
                    .dataset
                    .rows()
                    .iter()
                    .filter(|r| r.class.is_malware())
                    .collect();
                let detected = malicious
                    .iter()
                    .filter(|r| detector.malice_score(&r.features) > 0.5)
                    .count();
                TacticRow {
                    tactic: tactic.map_or("none", |t| t.name()).to_owned(),
                    scheme: *scheme,
                    detection_rate: rate(detected, malicious.len()),
                    windows: malicious.len(),
                }
            })
            .collect();
        Ok::<Vec<TacticRow>, CoreError>(rows)
    })?;
    Ok(per_variant.into_iter().flatten().collect())
}

/// Fit the physical-plausibility envelope on the benign training
/// windows: per-event rate ceilings at [`ENVELOPE_SIGMA`] benign
/// standard deviations above the benign mean.
fn benign_envelope(train_data: &HpcDataset) -> PlausibilityEnvelope {
    let benign = train_data.filtered(|c| !c.is_malware());
    let stats = to_binary_dataset(&benign).feature_stats();
    PlausibilityEnvelope::from_stats(&stats, ENVELOPE_SIGMA)
}

fn score_window(detector: &Detector, window: &[f64]) -> f64 {
    FeatureVector::from_slice(window)
        .map(|v| detector.malice_score(&v))
        .unwrap_or(1.0)
}

fn rate(hits: usize, of: usize) -> f64 {
    if of == 0 {
        f64::NAN
    } else {
        hits as f64 / of as f64
    }
}

/// Craft attacks against `detector` on the first `cap` malicious
/// windows of `data`, keyed by row index so every target gets its own
/// deterministic random stream.
fn craft_attacks<'a>(
    detector: &Detector,
    attack: &EvasionAttack,
    data: &'a HpcDataset,
    cap: usize,
) -> Vec<(&'a DataRow, hbmd_malware::AttackOutcome)> {
    data.rows()
        .iter()
        .enumerate()
        .filter(|(_, r)| r.class.is_malware())
        .take(cap)
        .map(|(i, r)| {
            let outcome = attack.perturb(r.features.as_slice(), i as u64, |w| {
                score_window(detector, w)
            });
            (r, outcome)
        })
        .collect()
}

/// One `(scheme, budget)` cell: craft the transfer attack set once
/// against the clean detector, then score it under every defense.
#[allow(clippy::too_many_arguments)]
fn attack_cell(
    config: &ExperimentConfig,
    train_data: &HpcDataset,
    eval_data: &HpcDataset,
    envelope: &PlausibilityEnvelope,
    scheme: ClassifierKind,
    detector: &Detector,
    budget: f64,
    cell_salt: u64,
) -> Result<Vec<AdversarialRow>, CoreError> {
    let attack_seed = config.catalog_seed ^ 0xE7A5_0000 ^ cell_salt;
    let attack = EvasionAttack::new(envelope.clone(), budget, attack_seed);
    let crafted = craft_attacks(detector, &attack, eval_data, MAX_ATTACK_TARGETS);

    let windows = crafted.len();
    let initially_detected: Vec<&(&DataRow, hbmd_malware::AttackOutcome)> = crafted
        .iter()
        .filter(|(_, o)| o.initial_score > 0.5)
        .collect();
    let baseline_detection = rate(initially_detected.len(), windows);
    let mean_l1 = mean(initially_detected.iter().map(|(_, o)| o.l1_spent));
    let mean_iterations = mean(
        initially_detected
            .iter()
            .map(|(_, o)| f64::from(o.iterations)),
    );

    // Blue team 1: adversarial retraining. The augmentation set is
    // crafted against the *training* catalog (the defender never sees
    // the evaluation attack), successful evasions keep their row's
    // sample id and family label, and the detector is refit.
    let retrain_attack = EvasionAttack::new(envelope.clone(), budget, attack_seed ^ 0x5E17_BACC);
    let mut augmented = train_data.clone();
    for (row, outcome) in craft_attacks(detector, &retrain_attack, train_data, MAX_RETRAIN_TARGETS)
    {
        if !outcome.evaded {
            continue;
        }
        if let Some(features) = FeatureVector::from_slice(&outcome.window) {
            augmented.push(DataRow {
                sample: row.sample,
                class: row.class,
                features,
            });
        }
    }
    let retrained = DetectorBuilder::new()
        .classifier(scheme)
        .train_binary(&augmented)?;

    let mut rows = Vec::with_capacity(DefenseKind::ALL.len());
    for defense in DefenseKind::ALL {
        let mut detected = 0usize;
        let mut evaded = 0usize;
        let mut suspicion_trips = 0usize;
        for (_, outcome) in &crafted {
            let hit = match defense {
                DefenseKind::Clean => outcome.final_score > 0.5,
                DefenseKind::Retrained => score_window(&retrained, &outcome.window) > 0.5,
                DefenseKind::Ensemble => {
                    let suspicious = FeatureVector::from_slice(&outcome.window)
                        .and_then(|v| detector.suspicion(&v))
                        .is_some_and(|d| d >= SUSPICION_ALARM);
                    if suspicious {
                        suspicion_trips += 1;
                        hbmd_obs::incr("adversarial.suspicion_trips");
                    }
                    outcome.final_score > 0.5 || suspicious
                }
            };
            if hit {
                detected += 1;
            } else if outcome.initial_score > 0.5 {
                evaded += 1;
            }
        }
        rows.push(AdversarialRow {
            budget,
            scheme,
            defense,
            windows,
            baseline_detection,
            detection_rate: rate(detected, windows),
            evasion_rate: rate(evaded, initially_detected.len()),
            mean_l1,
            mean_iterations,
            suspicion_trips,
        });
    }
    Ok(rows)
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        f64::NAN
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_cache;

    #[test]
    fn attack_erodes_detection_and_a_defense_recovers_it() {
        let schemes = [ClassifierKind::RandomForest];
        let budgets = [0.3];
        let rows =
            accuracy_under_attack(test_cache(), &ExperimentConfig::fast(), &schemes, &budgets)
                .expect("sweep");
        assert_eq!(rows.len(), DefenseKind::ALL.len());

        let by = |d: DefenseKind| {
            rows.iter()
                .find(|r| r.defense == d)
                .unwrap_or_else(|| panic!("{d} row missing"))
        };
        let clean = by(DefenseKind::Clean);
        assert!(clean.windows > 0);
        assert!(
            clean.baseline_detection > 0.6,
            "clean baseline {}",
            clean.baseline_detection
        );
        // The undefended detector must lose material ground to the
        // attack…
        assert!(
            clean.detection_rate < clean.baseline_detection - 0.05,
            "attack had no bite: {} vs baseline {}",
            clean.detection_rate,
            clean.baseline_detection
        );
        assert!(clean.evasion_rate > 0.0);
        // …and at least one defense must claw strictly back at the
        // same budget.
        let best_defended = clean
            .detection_rate
            .max(by(DefenseKind::Retrained).detection_rate)
            .max(by(DefenseKind::Ensemble).detection_rate);
        assert!(
            best_defended > clean.detection_rate,
            "no defense recovered: clean {} best {best_defended}",
            clean.detection_rate
        );
    }

    #[test]
    fn sweep_is_deterministic() {
        let schemes = [ClassifierKind::J48];
        let budgets = [0.15];
        let a = accuracy_under_attack(test_cache(), &ExperimentConfig::fast(), &schemes, &budgets)
            .expect("a");
        let b = accuracy_under_attack(test_cache(), &ExperimentConfig::fast(), &schemes, &budgets)
            .expect("b");
        assert_eq!(a, b);
    }

    #[test]
    fn camouflage_sweep_covers_every_tactic_and_stays_bounded() {
        let schemes = [ClassifierKind::J48];
        let rows =
            camouflage_sweep(test_cache(), &ExperimentConfig::fast(), &schemes).expect("sweep");
        assert_eq!(rows.len(), 1 + EvasionTactic::ALL.len());
        assert_eq!(rows[0].tactic, "none");
        for row in &rows {
            assert!(row.windows > 0, "{}: no malicious windows", row.tactic);
            assert!(
                (0.0..=1.0).contains(&row.detection_rate),
                "{}: rate {}",
                row.tactic,
                row.detection_rate
            );
        }
        let again =
            camouflage_sweep(test_cache(), &ExperimentConfig::fast(), &schemes).expect("again");
        assert_eq!(rows, again, "camouflage sweep is deterministic");
    }

    #[test]
    fn degenerate_inputs_are_rejected() {
        let config = ExperimentConfig::fast();
        assert!(accuracy_under_attack(test_cache(), &config, &[], &[0.1]).is_err());
        assert!(accuracy_under_attack(test_cache(), &config, &[ClassifierKind::J48], &[]).is_err());
        assert!(
            accuracy_under_attack(test_cache(), &config, &[ClassifierKind::J48], &[f64::NAN])
                .is_err()
        );
        assert!(
            accuracy_under_attack(test_cache(), &config, &[ClassifierKind::J48], &[-0.1]).is_err()
        );
        assert!(camouflage_sweep(test_cache(), &config, &[]).is_err());
    }
}
