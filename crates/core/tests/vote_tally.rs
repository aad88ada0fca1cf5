//! The stream's running vote tally against a rescanning reference.
//!
//! [`StreamState`] keeps its malicious vote count, in total and per
//! family, as verdicts enter and leave its history, and reads a
//! decision off that tally. The reference below keeps its own copy of
//! the history and recounts it at every decision, with the same
//! hysteresis state machine on top. Over random sequences of observed
//! windows (benign, each malware family, and abstaining garbage),
//! resets and snapshot round trips, both must reach the same decision
//! after every step.

use std::collections::VecDeque;
use std::sync::OnceLock;

use hbmd_core::{
    ClassifierKind, Detector, DetectorBuilder, FeatureSet, OnlineDetector, OnlineVerdict,
    StreamState, Verdict,
};
use hbmd_events::{FeatureVector, HpcEvent};
use hbmd_malware::{AppClass, SampleId};
use hbmd_ml::snap::{Snap, SnapReader, SnapWriter};
use hbmd_perf::{DataRow, HpcDataset};
use proptest::prelude::*;

/// Every class at its own level on every feature: a perfectly separable
/// set, so each window's verdict is the class it was drawn from.
fn level(class: AppClass) -> f64 {
    10f64.powi(class.index() as i32)
}

fn window_of(class: AppClass) -> FeatureVector {
    FeatureVector::from_slice(&[level(class); HpcEvent::COUNT]).expect("full-width vector")
}

/// A multiclass J48 detector that names each family.
fn detector() -> &'static Detector {
    static DETECTOR: OnceLock<Detector> = OnceLock::new();
    DETECTOR.get_or_init(|| {
        let rows = (0..60)
            .map(|i| {
                let class = AppClass::ALL[i % AppClass::COUNT];
                DataRow {
                    sample: SampleId(i as u32),
                    class,
                    features: window_of(class),
                }
            })
            .collect();
        DetectorBuilder::new()
            .classifier(ClassifierKind::J48)
            .feature_set(FeatureSet::Full16)
            .train_multiclass(&HpcDataset::from_rows(rows))
            .expect("train on separable data")
    })
}

/// The straightforward monitor: rescans its history at every decision.
struct Reference {
    window: usize,
    threshold: usize,
    raise_after: usize,
    clear_after: usize,
    history: VecDeque<Verdict>,
    alarm_streak: usize,
    clean_streak: usize,
    latched: Option<(AppClass, usize)>,
}

impl Reference {
    fn new(window: usize, threshold: usize, raise_after: usize, clear_after: usize) -> Reference {
        Reference {
            window,
            threshold,
            raise_after,
            clear_after,
            history: VecDeque::new(),
            alarm_streak: 0,
            clean_streak: 0,
            latched: None,
        }
    }

    fn raw_decision(&self) -> OnlineVerdict {
        if self.history.len() < self.window {
            return OnlineVerdict::Warmup;
        }
        let votes = |family: AppClass| {
            self.history
                .iter()
                .filter(|&&v| v == Verdict::Malware(family))
                .count()
        };
        let malicious: usize = AppClass::ALL.iter().map(|&family| votes(family)).sum();
        if malicious < self.threshold {
            return OnlineVerdict::Clean;
        }
        // The first family in class order among the most voted.
        let mut family = AppClass::ALL[0];
        for &candidate in &AppClass::ALL {
            if votes(candidate) > votes(family) {
                family = candidate;
            }
        }
        OnlineVerdict::Alarm {
            family,
            votes: malicious,
            of: self.window,
        }
    }

    fn settle(&self, raw: OnlineVerdict) -> OnlineVerdict {
        match (raw, self.latched) {
            (OnlineVerdict::Warmup, _) => OnlineVerdict::Warmup,
            (_, Some((family, votes))) => OnlineVerdict::Alarm {
                family,
                votes,
                of: self.window,
            },
            (OnlineVerdict::Alarm { .. }, None) if self.alarm_streak < self.raise_after => {
                OnlineVerdict::Clean
            }
            (raw, None) => raw,
        }
    }

    fn decision(&self) -> OnlineVerdict {
        self.settle(self.raw_decision())
    }

    fn observe(&mut self, verdict: Verdict) -> OnlineVerdict {
        if self.history.len() == self.window {
            self.history.pop_front();
        }
        self.history.push_back(verdict);
        let raw = self.raw_decision();
        match raw {
            OnlineVerdict::Alarm { family, votes, .. } => {
                self.alarm_streak += 1;
                self.clean_streak = 0;
                if self.alarm_streak >= self.raise_after || self.latched.is_some() {
                    self.latched = Some((family, votes));
                }
            }
            OnlineVerdict::Clean => {
                self.clean_streak += 1;
                self.alarm_streak = 0;
                if self.clean_streak >= self.clear_after {
                    self.latched = None;
                }
            }
            OnlineVerdict::Warmup => {}
        }
        self.settle(raw)
    }

    fn reset(&mut self) {
        self.history.clear();
        self.alarm_streak = 0;
        self.clean_streak = 0;
        self.latched = None;
    }
}

#[derive(Debug, Clone, Copy)]
enum Step {
    /// A window of this class (`AppClass::COUNT` for an all-NaN window,
    /// which abstains).
    Observe(usize),
    Reset,
    Roundtrip,
}

fn arb_step() -> impl Strategy<Value = Step> {
    (0u8..19, 0..=AppClass::COUNT).prop_map(|(kind, class)| match kind {
        0 => Step::Reset,
        1 | 2 => Step::Roundtrip,
        _ => Step::Observe(class),
    })
}

/// `(window, threshold, raise_after, clear_after)`: a window of 1–8, a
/// threshold in `1..=window`, hysteresis counts of 1–3.
fn arb_shape() -> impl Strategy<Value = (usize, usize, usize, usize)> {
    (1usize..=8, 0.0f64..1.0, 1usize..=3, 1usize..=3).prop_map(|(window, f, raise, clear)| {
        let threshold = 1 + ((f * window as f64) as usize).min(window - 1);
        (window, threshold, raise, clear)
    })
}

fn roundtrip(state: &StreamState) -> StreamState {
    let mut w = SnapWriter::new();
    state.snap(&mut w);
    let bytes = w.into_bytes();
    StreamState::unsnap(&mut SnapReader::new(&bytes)).expect("a snapshot restores")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn the_running_tally_decides_as_a_rescan_does(
        shape in arb_shape(),
        steps in prop::collection::vec(arb_step(), 1..80),
    ) {
        let (window, threshold, raise_after, clear_after) = shape;
        let detector = detector();
        let mut state = OnlineDetector::builder(detector.clone())
            .window(window)
            .threshold(threshold)
            .hysteresis(raise_after, clear_after)
            .build_stream()
            .expect("valid shape");
        let mut reference = Reference::new(window, threshold, raise_after, clear_after);
        let garbage = FeatureVector::from_slice(&[f64::NAN; HpcEvent::COUNT]).expect("16");
        for (i, step) in steps.into_iter().enumerate() {
            match step {
                Step::Observe(class) => {
                    let features = AppClass::ALL.get(class).map_or(garbage.clone(), |&c| window_of(c));
                    let verdict = detector.classify_sanitized(&features);
                    let expected = match AppClass::ALL.get(class) {
                        None => Verdict::Abstain,
                        Some(AppClass::Benign) => Verdict::Benign,
                        Some(&family) => Verdict::Malware(family),
                    };
                    prop_assert_eq!(verdict, expected, "class {}", class);
                    prop_assert_eq!(
                        state.observe(detector, &features),
                        reference.observe(verdict),
                        "step {}", i
                    );
                }
                Step::Reset => {
                    state.reset();
                    reference.reset();
                }
                Step::Roundtrip => state = roundtrip(&state),
            }
            prop_assert_eq!(state.decision(), reference.decision(), "step {}", i);
        }
    }
}

/// The tie-break the tally must keep: with two families level in the
/// window, the alarm names the one of lower class index, whichever
/// arrived first.
#[test]
fn a_tied_vote_names_the_lowest_family() {
    let detector = detector();
    let (low, high) = (AppClass::ALL[1], AppClass::ALL[AppClass::COUNT - 1]);
    for order in [[high, low, high, low], [low, high, low, high]] {
        let mut state = OnlineDetector::builder(detector.clone())
            .window(4)
            .threshold(4)
            .build_stream()
            .expect("valid shape");
        let mut decision = OnlineVerdict::Warmup;
        for class in order {
            decision = state.observe(detector, &window_of(class));
        }
        assert_eq!(
            decision,
            OnlineVerdict::Alarm {
                family: low,
                votes: 4,
                of: 4
            },
            "{order:?}"
        );
    }
}
