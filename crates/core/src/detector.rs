use std::sync::Arc;
use std::time::Instant;

use hbmd_events::{FeatureVector, HpcEvent};
use hbmd_fpga::{synthesize, HwReport, SynthConfig};
use hbmd_malware::AppClass;
use hbmd_ml::{Classifier, CompiledModel, Evaluation};
use hbmd_obs::{Counter, Histogram};
use hbmd_perf::HpcDataset;

use crate::convert::{to_binary_dataset, to_multiclass_dataset};
use crate::error::CoreError;
use crate::features::{FeaturePlan, FeatureSet};
use crate::sanitize::{SanitizeOutcome, Sanitizer};
use crate::suite::{ClassifierKind, TrainedModel};

/// Detection granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DetectorMode {
    /// Benign vs malware.
    Binary,
    /// Benign plus the five malware families.
    Multiclass,
}

/// A single sampling window's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// The window looks benign.
    Benign,
    /// The window looks malicious; in multiclass mode the family is
    /// identified.
    Malware(AppClass),
    /// The window was too corrupted to classify — only produced by the
    /// sanitised path ([`Detector::classify_sanitized`]); corrupted
    /// windows must not vote either way.
    Abstain,
}

impl Verdict {
    /// `true` for [`Verdict::Malware`].
    pub fn is_malware(self) -> bool {
        matches!(self, Verdict::Malware(_))
    }

    /// `true` for [`Verdict::Abstain`].
    pub fn is_abstain(self) -> bool {
        matches!(self, Verdict::Abstain)
    }
}

/// Builder for [`Detector`]: pick a classifier, a feature policy, and
/// the split protocol, then train on a collected dataset.
///
/// # Examples
///
/// ```
/// use hbmd_core::{ClassifierKind, DetectorBuilder, FeatureSet};
/// use hbmd_malware::SampleCatalog;
/// use hbmd_perf::{Collector, CollectorConfig};
///
/// let catalog = SampleCatalog::scaled(0.02, 11);
/// let dataset = Collector::new(CollectorConfig::fast())?.collect(&catalog)?.dataset;
/// let detector = DetectorBuilder::new()
///     .classifier(ClassifierKind::OneR)
///     .feature_set(FeatureSet::Top(4))
///     .train_binary(&dataset)?;
/// assert_eq!(detector.feature_indices().len(), 4);
/// # Ok::<(), hbmd_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DetectorBuilder {
    classifier: ClassifierKind,
    feature_set: FeatureSet,
    train_fraction: f64,
    seed: u64,
}

impl DetectorBuilder {
    /// Defaults: J48 on all 16 features, the paper's 70/30 split,
    /// seed 42.
    pub fn new() -> DetectorBuilder {
        DetectorBuilder {
            classifier: ClassifierKind::J48,
            feature_set: FeatureSet::Full16,
            train_fraction: 0.7,
            seed: 42,
        }
    }

    /// Choose the classifier scheme.
    pub fn classifier(mut self, kind: ClassifierKind) -> DetectorBuilder {
        self.classifier = kind;
        self
    }

    /// Choose the feature policy.
    pub fn feature_set(mut self, set: FeatureSet) -> DetectorBuilder {
        self.feature_set = set;
        self
    }

    /// Override the train fraction (0.7 in the paper).
    pub fn train_fraction(mut self, fraction: f64) -> DetectorBuilder {
        self.train_fraction = fraction;
        self
    }

    /// Override the split seed.
    pub fn seed(mut self, seed: u64) -> DetectorBuilder {
        self.seed = seed;
        self
    }

    /// Train a benign/malware detector.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] for an unusable split fraction and
    /// propagates feature-plan and training errors.
    pub fn train_binary(self, dataset: &HpcDataset) -> Result<Detector, CoreError> {
        self.train(dataset, DetectorMode::Binary)
    }

    /// Train a six-class family detector.
    ///
    /// # Errors
    ///
    /// As [`DetectorBuilder::train_binary`].
    pub fn train_multiclass(self, dataset: &HpcDataset) -> Result<Detector, CoreError> {
        self.train(dataset, DetectorMode::Multiclass)
    }

    fn train(self, dataset: &HpcDataset, mode: DetectorMode) -> Result<Detector, CoreError> {
        let scheme = self.classifier.name();
        let _span = hbmd_obs::span!(
            "train",
            scheme = scheme,
            mode = format!("{mode:?}"),
            rows = dataset.len(),
        );
        let _latency = hbmd_obs::timer_with("train_ns", &[("scheme", scheme)]);
        if !(self.train_fraction > 0.0 && self.train_fraction < 1.0) {
            return Err(CoreError::Config(format!(
                "train_fraction {} is outside (0, 1)",
                self.train_fraction
            )));
        }
        let (train_hpc, test_hpc) = dataset.split(self.train_fraction, self.seed);
        let plan = FeaturePlan::fit(&train_hpc)?;
        let indices = plan.resolve(self.feature_set)?;

        let (train, test) = match mode {
            DetectorMode::Binary => (
                to_binary_dataset(&train_hpc).select_features(&indices)?,
                to_binary_dataset(&test_hpc).select_features(&indices)?,
            ),
            DetectorMode::Multiclass => (
                to_multiclass_dataset(&train_hpc).select_features(&indices)?,
                to_multiclass_dataset(&test_hpc).select_features(&indices)?,
            ),
        };

        let mut model = self.classifier.instantiate();
        model.fit(&train)?;
        let evaluation = Evaluation::of(&model, &test);
        hbmd_obs::counter_with("detectors_trained", &[("scheme", scheme)]).incr();

        Ok(Detector::assemble(
            model,
            mode,
            indices,
            evaluation,
            Sanitizer::fit(&train_hpc),
        ))
    }
}

impl Default for DetectorBuilder {
    fn default() -> DetectorBuilder {
        DetectorBuilder::new()
    }
}

/// Per-window telemetry handles of the classify and online-vote paths,
/// resolved once at detector construction in the context installed
/// then, so a served window takes no registry lock, builds no metric
/// key and allocates nothing to report itself.
#[derive(Debug, Clone)]
pub(crate) struct ClassifyMetrics {
    classify_ns: Arc<Histogram>,
    verdict_benign: Arc<Counter>,
    verdict_malware: Arc<Counter>,
    verdict_abstain: Arc<Counter>,
    pub(crate) observe_ns: Arc<Histogram>,
    pub(crate) windows_observed: Arc<Counter>,
    pub(crate) alarm_votes: Arc<Histogram>,
    pub(crate) alarms_raised: Arc<Counter>,
    pub(crate) alarms_cleared: Arc<Counter>,
    pub(crate) disagreement_trips: Arc<Counter>,
}

impl ClassifyMetrics {
    fn resolve(scheme: &str) -> ClassifyMetrics {
        let obs = hbmd_obs::current();
        let registry = obs.registry();
        ClassifyMetrics {
            classify_ns: registry.timing_with("classify_ns", &[("scheme", scheme)]),
            verdict_benign: registry.counter_with("verdict", &[("verdict", "benign")]),
            verdict_malware: registry.counter_with("verdict", &[("verdict", "malware")]),
            verdict_abstain: registry.counter_with("verdict", &[("verdict", "abstain")]),
            observe_ns: registry.timing("online.observe_ns"),
            windows_observed: registry.counter("online.windows_observed"),
            alarm_votes: registry.histogram("online.alarm_votes"),
            alarms_raised: registry.counter("online.alarms_raised"),
            alarms_cleared: registry.counter("online.alarms_cleared"),
            disagreement_trips: registry.counter("online.disagreement_trips"),
        }
    }
}

/// A trained hardware-based malware detector: classifies one sampling
/// window's feature vector in constant time, reports its held-out
/// evaluation, and synthesises to hardware.
#[derive(Debug, Clone)]
pub struct Detector {
    model: TrainedModel,
    mode: DetectorMode,
    feature_indices: Vec<usize>,
    evaluation: Evaluation,
    sanitizer: Sanitizer,
    /// The model's flat branchless form (`None` for schemes without
    /// one) — derived from `model` at construction / restore, never
    /// snapshotted.
    compiled: Option<CompiledModel>,
    /// Pre-resolved telemetry handles — derived state like `compiled`.
    metrics: ClassifyMetrics,
}

impl Detector {
    /// Build the detector plus its derived caches (compiled evaluator,
    /// telemetry handles) — the single funnel used by both training
    /// and snapshot restore.
    fn assemble(
        model: TrainedModel,
        mode: DetectorMode,
        feature_indices: Vec<usize>,
        evaluation: Evaluation,
        sanitizer: Sanitizer,
    ) -> Detector {
        let compiled = model.compile();
        let metrics = ClassifyMetrics::resolve(model.kind().name());
        Detector {
            model,
            mode,
            feature_indices,
            evaluation,
            sanitizer,
            compiled,
            metrics,
        }
    }
    /// The detection granularity.
    pub fn mode(&self) -> DetectorMode {
        self.mode
    }

    /// The trained model.
    pub fn model(&self) -> &TrainedModel {
        &self.model
    }

    /// The model's flat compiled evaluator, cached at construction
    /// (`None` for schemes without a flat form).
    pub fn compiled(&self) -> Option<&CompiledModel> {
        self.compiled.as_ref()
    }

    /// The feature columns consumed, in model input order.
    pub fn feature_indices(&self) -> &[usize] {
        &self.feature_indices
    }

    /// Held-out (30 %) evaluation computed at training time.
    pub fn evaluation(&self) -> &Evaluation {
        &self.evaluation
    }

    /// The sanitizer fitted on the training split — screens windows
    /// for the degraded-collection path.
    pub fn sanitizer(&self) -> &Sanitizer {
        &self.sanitizer
    }

    /// The telemetry handles this detector (and every monitor voting
    /// with it) reports into.
    pub(crate) fn metrics(&self) -> &ClassifyMetrics {
        &self.metrics
    }

    /// Classify one sampling window through the sanitised path:
    /// corrupted-but-repairable windows are median-imputed before
    /// classification, unsalvageable ones yield [`Verdict::Abstain`]
    /// instead of a guess. [`Detector::classify`] is the raw path and
    /// never abstains. The classification, not the screening, is timed
    /// into `classify_ns{scheme}`.
    pub fn classify_sanitized(&self, window: &FeatureVector) -> Verdict {
        match self.sanitizer.sanitize(window) {
            SanitizeOutcome::Clean(window) => self.classify(window),
            SanitizeOutcome::Repaired { features, .. } => self.classify(&features),
            SanitizeOutcome::Unusable { .. } => self.abstain(),
        }
    }

    /// The served form of [`classify_sanitized`](Self::classify_sanitized)
    /// for one [`StreamState`](crate::StreamState) window: untimed, since
    /// `online.observe_ns` times a sample of served windows (about one in
    /// 16 per thread) whole, and, when `armed`, paired with the
    /// [`suspicion`](Self::suspicion) of the raw window.
    ///
    /// A clean window is walked where it lies, uncopied. When the model's
    /// input row is the same before and after sanitizing — always for a
    /// clean window, and for a repaired one whose repairs all fall
    /// outside the model's columns — the verdict and the dispersion come
    /// from one committee walk. Otherwise the dispersion is of the raw
    /// window, from a separate walk.
    pub(crate) fn classify_served(
        &self,
        window: &FeatureVector,
        armed: bool,
    ) -> (Verdict, Option<f64>) {
        match self.sanitizer.sanitize(window) {
            SanitizeOutcome::Clean(window) => {
                let (verdict, dispersion) = self.walk(window);
                (verdict, if armed { dispersion } else { None })
            }
            SanitizeOutcome::Repaired { features, .. } => {
                let (verdict, dispersion) = self.walk(&features);
                if !armed {
                    (verdict, None)
                } else if self
                    .feature_indices
                    .iter()
                    .all(|&i| window.as_slice()[i].to_bits() == features.as_slice()[i].to_bits())
                {
                    (verdict, dispersion)
                } else {
                    (verdict, self.suspicion(window))
                }
            }
            SanitizeOutcome::Unusable { .. } => {
                let dispersion = if armed { self.suspicion(window) } else { None };
                (self.abstain(), dispersion)
            }
        }
    }

    fn abstain(&self) -> Verdict {
        self.metrics.verdict_abstain.incr();
        Verdict::Abstain
    }

    /// Classify one sampling window, timed into `classify_ns{scheme}` on
    /// every call.
    pub fn classify(&self, window: &FeatureVector) -> Verdict {
        let started = Instant::now();
        let (verdict, _) = self.walk(window);
        self.metrics.classify_ns.record_since(started);
        verdict
    }

    /// Classify one window and report its committee dispersion, both
    /// from one walk, and count the verdict. Untimed:
    /// [`classify`](Self::classify) times every call into
    /// `classify_ns{scheme}`, and `online.observe_ns` times about one
    /// served window in 16 per thread whole.
    fn walk(&self, window: &FeatureVector) -> (Verdict, Option<f64>) {
        let (label, dispersion) = self.with_row(window, |row| match &self.compiled {
            Some(compiled) => compiled.predict_with_disagreement(row),
            None => (self.model.predict(row), None),
        });
        let verdict = match self.mode {
            DetectorMode::Binary => {
                if label == 0 {
                    Verdict::Benign
                } else {
                    // Binary detectors cannot name the family.
                    Verdict::Malware(AppClass::Trojan)
                }
            }
            DetectorMode::Multiclass => match AppClass::from_index(label) {
                Some(AppClass::Benign) | None => Verdict::Benign,
                Some(family) => Verdict::Malware(family),
            },
        };
        match verdict {
            Verdict::Benign => self.metrics.verdict_benign.incr(),
            Verdict::Malware(_) => self.metrics.verdict_malware.incr(),
            Verdict::Abstain => self.metrics.verdict_abstain.incr(),
        }
        (verdict, dispersion)
    }

    /// Gather `window`'s model input columns into a stack row and call
    /// `f` with it (on the heap only for an input wider than a window,
    /// which a restored snapshot could carry).
    fn with_row<R>(&self, window: &FeatureVector, f: impl FnOnce(&[f64]) -> R) -> R {
        let width = self.feature_indices.len();
        let mut stack = [0.0f64; HpcEvent::COUNT];
        let mut heap;
        let row: &mut [f64] = if width <= stack.len() {
            &mut stack[..width]
        } else {
            heap = vec![0.0f64; width];
            &mut heap
        };
        for (slot, &i) in row.iter_mut().zip(&self.feature_indices) {
            *slot = window.as_slice()[i];
        }
        f(row)
    }

    /// Malice score of one window in `[0, 1]` — the oracle an evasion
    /// attack descends, consistent with [`Detector::classify`]: the
    /// window reads as malware exactly when the score exceeds `0.5`.
    ///
    /// Committees report their malicious vote share (fraction of member
    /// votes, or weight mass, not cast for class 0 = benign), a graded
    /// landscape. Single-model schemes degrade to the 0/1 landscape of
    /// their verdict.
    pub fn malice_score(&self, window: &FeatureVector) -> f64 {
        self.with_row(window, |row| match &self.compiled {
            Some(CompiledModel::Forest(f)) => f.with_class_votes(row, |votes| {
                let total: u32 = votes.iter().sum();
                if total == 0 {
                    return 0.0;
                }
                f64::from(total - votes[0]) / f64::from(total)
            }),
            Some(CompiledModel::Ensemble(e)) => e.with_class_weights(row, |votes| {
                let total: f64 = votes.iter().sum();
                if total <= 0.0 {
                    return 0.0;
                }
                (total - votes[0]) / total
            }),
            _ => {
                let label = match &self.compiled {
                    Some(compiled) => compiled.predict(row),
                    None => self.model.predict(row),
                };
                if label == 0 {
                    0.0
                } else {
                    1.0
                }
            }
        })
    }

    /// Committee disagreement on one window — the ensemble-dispersion
    /// defense signal: `Some(1 − winning vote share)` for committee
    /// schemes (RandomForest / Bagging / AdaBoost), `None` for
    /// single-model schemes, which have no committee to disagree.
    ///
    /// An adversarial window pushed *just* across the decision boundary
    /// flips the majority but leaves a near-even vote split behind;
    /// high dispersion on a benign-voted window is therefore suspicious
    /// even though the verdict reads clean.
    ///
    /// The dispersion is always that of the raw `window`, unsanitized.
    /// An armed [`StreamState`](crate::StreamState) shares the walk
    /// with classification when the window is clean, or repaired only
    /// outside the model's columns: the verdict and the dispersion are
    /// read off one vote tally. It calls this only for a window whose
    /// model row the sanitizer changed or abstained on. Neither walk of
    /// a served window is timed on its own: `online.observe_ns` times
    /// about one served window in 16 per thread, whole.
    pub fn suspicion(&self, window: &FeatureVector) -> Option<f64> {
        let compiled = self.compiled.as_ref()?;
        self.with_row(window, |row| compiled.disagreement(row))
    }

    /// Synthesise the detector to hardware.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError::Synthesis`] for models without a
    /// datapath.
    pub fn synthesize(&self, config: &SynthConfig) -> Result<HwReport, CoreError> {
        Ok(synthesize(&self.model.datapath()?, config))
    }
}

use hbmd_ml::snap::{Snap, SnapError, SnapReader, SnapWriter};

impl Snap for DetectorMode {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u8(match self {
            DetectorMode::Binary => 0,
            DetectorMode::Multiclass => 1,
        });
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.get_u8()? {
            0 => Ok(DetectorMode::Binary),
            1 => Ok(DetectorMode::Multiclass),
            other => Err(SnapError::Invalid(format!("DetectorMode tag {other}"))),
        }
    }
}

impl Snap for Verdict {
    fn snap(&self, w: &mut SnapWriter) {
        match self {
            Verdict::Benign => w.put_u8(0),
            Verdict::Malware(family) => {
                w.put_u8(1);
                w.put_u8(family.index() as u8);
            }
            Verdict::Abstain => w.put_u8(2),
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.get_u8()? {
            0 => Ok(Verdict::Benign),
            1 => {
                let index = usize::from(r.get_u8()?);
                let family = AppClass::from_index(index)
                    .ok_or_else(|| SnapError::Invalid(format!("AppClass index {index}")))?;
                Ok(Verdict::Malware(family))
            }
            2 => Ok(Verdict::Abstain),
            other => Err(SnapError::Invalid(format!("Verdict tag {other}"))),
        }
    }
}

impl Snap for Detector {
    fn snap(&self, w: &mut SnapWriter) {
        self.model.snap(w);
        self.mode.snap(w);
        self.feature_indices.snap(w);
        self.evaluation.snap(w);
        self.sanitizer.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        // Field order mirrors `snap`; the derived caches (compiled
        // evaluator, telemetry handles) are rebuilt, not decoded, so
        // snapshot bytes are unchanged by their existence.
        let model = Snap::unsnap(r)?;
        let mode = Snap::unsnap(r)?;
        let feature_indices = Snap::unsnap(r)?;
        let evaluation = Snap::unsnap(r)?;
        let sanitizer = Snap::unsnap(r)?;
        Ok(Detector::assemble(
            model,
            mode,
            feature_indices,
            evaluation,
            sanitizer,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbmd_malware::SampleCatalog;
    use hbmd_perf::{Collector, CollectorConfig};

    fn dataset() -> HpcDataset {
        let catalog = SampleCatalog::scaled(0.03, 9);
        Collector::new(CollectorConfig::fast())
            .expect("config")
            .collect(&catalog)
            .expect("collect")
            .dataset
    }

    #[test]
    fn binary_detector_beats_chance() {
        let detector = DetectorBuilder::new()
            .classifier(ClassifierKind::J48)
            .train_binary(&dataset())
            .expect("train");
        let accuracy = detector.evaluation().accuracy();
        assert!(accuracy > 0.7, "accuracy {accuracy}");
        assert_eq!(detector.mode(), DetectorMode::Binary);
    }

    #[test]
    fn multiclass_detector_identifies_families() {
        let detector = DetectorBuilder::new()
            .classifier(ClassifierKind::Logistic)
            .train_multiclass(&dataset())
            .expect("train");
        assert_eq!(detector.mode(), DetectorMode::Multiclass);
        assert!(detector.evaluation().accuracy() > 0.4);
    }

    #[test]
    fn feature_policy_shrinks_the_input() {
        let detector = DetectorBuilder::new()
            .classifier(ClassifierKind::OneR)
            .feature_set(FeatureSet::Top(4))
            .train_binary(&dataset())
            .expect("train");
        assert_eq!(detector.feature_indices().len(), 4);
    }

    #[test]
    fn classify_consumes_full_windows() {
        let data = dataset();
        let detector = DetectorBuilder::new()
            .classifier(ClassifierKind::J48)
            .feature_set(FeatureSet::Top(8))
            .train_binary(&data)
            .expect("train");
        // Classify rows of known-malicious samples: most must read as
        // malware. (Scanning the first N rows is fragile — the catalog
        // lists benign samples first, so that checked for false
        // positives, not detection.)
        let verdicts: Vec<Verdict> = data
            .rows()
            .iter()
            .filter(|r| r.class.is_malware())
            .take(20)
            .map(|r| detector.classify(&r.features))
            .collect();
        assert_eq!(verdicts.len(), 20);
        let malware = verdicts.iter().filter(|v| v.is_malware()).count();
        assert!(malware > 10, "only {malware}/20 malicious rows detected");
    }

    #[test]
    fn detectors_synthesise() {
        let detector = DetectorBuilder::new()
            .classifier(ClassifierKind::JRip)
            .feature_set(FeatureSet::Top(8))
            .train_binary(&dataset())
            .expect("train");
        let report = detector.synthesize(&SynthConfig::default()).expect("synth");
        assert!(report.area_units() > 0.0);
        assert_eq!(report.scheme, "JRip");
    }

    #[test]
    fn sanitized_path_repairs_or_abstains() {
        use hbmd_events::{FeatureVector, HpcEvent};
        let data = dataset();
        let detector = DetectorBuilder::new()
            .classifier(ClassifierKind::J48)
            .train_binary(&data)
            .expect("train");

        // A pristine window classifies identically on both paths.
        let window = &data.rows()[0].features;
        assert_eq!(
            detector.classify(window),
            detector.classify_sanitized(window)
        );

        // Light corruption is repaired, not abstained.
        let mut corrupt = window.clone();
        corrupt[HpcEvent::CacheMisses] = f64::NAN;
        assert!(!detector.classify_sanitized(&corrupt).is_abstain());

        // A window of pure garbage abstains.
        let garbage = FeatureVector::from_slice(&[f64::NAN; HpcEvent::COUNT]).expect("16");
        assert_eq!(detector.classify_sanitized(&garbage), Verdict::Abstain);
        // The raw path still never abstains (back-compat contract).
        assert!(!detector.classify(&garbage).is_abstain());
    }

    #[test]
    fn malice_score_agrees_with_the_verdict() {
        let data = dataset();
        for kind in [ClassifierKind::J48, ClassifierKind::RandomForest] {
            let detector = DetectorBuilder::new()
                .classifier(kind)
                .train_binary(&data)
                .expect("train");
            for row in data.rows().iter().take(40) {
                let score = detector.malice_score(&row.features);
                assert!((0.0..=1.0).contains(&score), "{kind:?} score {score}");
                assert_eq!(
                    detector.classify(&row.features).is_malware(),
                    score > 0.5,
                    "{kind:?} verdict disagrees with score {score}"
                );
            }
        }
    }

    #[test]
    fn suspicion_is_committee_only_and_bounded() {
        let data = dataset();
        let tree = DetectorBuilder::new()
            .classifier(ClassifierKind::J48)
            .train_binary(&data)
            .expect("train");
        assert_eq!(tree.suspicion(&data.rows()[0].features), None);

        let forest = DetectorBuilder::new()
            .classifier(ClassifierKind::RandomForest)
            .train_binary(&data)
            .expect("train");
        for row in data.rows().iter().take(40) {
            let s = forest.suspicion(&row.features).expect("committee");
            assert!((0.0..=0.5).contains(&s), "binary dispersion {s}");
        }
    }

    #[test]
    fn bad_fraction_is_rejected() {
        let result = DetectorBuilder::new()
            .train_fraction(1.0)
            .train_binary(&dataset());
        assert!(matches!(result, Err(CoreError::Config(_))));
    }
}
