//! Property-based tests on the adversarial toolkit's hard invariants:
//! every perturbed window is physically plausible (finite,
//! non-negative, inside its rate envelope) no matter how hostile the
//! input, same-seed attacks are byte-identical, and the full
//! accuracy-under-attack sweep is thread-count invariant.

use hbmd::core::experiments::adversarial::accuracy_under_attack;
use hbmd::core::experiments::ExperimentConfig;
use hbmd::core::{ClassifierKind, CollectCache};
use hbmd::malware::{EvasionAttack, PlausibilityEnvelope};
use proptest::prelude::*;

/// An f64 that may be anything an upstream pipeline could emit: plain
/// magnitudes, negatives, zero, huge values, NaN and infinities.
fn arb_hostile_f64() -> impl Strategy<Value = f64> {
    (0u8..8, -1.0e15f64..1.0e15).prop_map(|(tag, v)| match tag {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => 0.0,
        4 => -v.abs(),
        _ => v,
    })
}

/// Per-feature benign `(mean, std)` stats zipped with a same-width
/// hostile window value. Zero-mean/zero-std columns exercise the
/// unbounded-ceiling path.
fn arb_case() -> impl Strategy<Value = Vec<((f64, f64), f64)>> {
    prop::collection::vec(((0.0f64..1.0e6, 0.0f64..1.0e5), arb_hostile_f64()), 1..17)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn perturbed_windows_stay_physically_plausible(
        case in arb_case(),
        budget in 0.0f64..2.0,
        seed in 0u64..u64::MAX,
        key in 0u64..u64::MAX,
        cut in 0.0f64..1.0e6,
    ) {
        let (stats, window): (Vec<(f64, f64)>, Vec<f64>) = case.into_iter().unzip();
        let envelope = PlausibilityEnvelope::from_stats(&stats, 6.0);
        let attack = EvasionAttack::new(envelope, budget, seed);
        let outcome = attack.perturb(&window, key, |w| {
            if w[0] > cut { 1.0 } else { 0.0 }
        });
        prop_assert!(
            attack.envelope().contains(&outcome.window),
            "window escaped its envelope: {:?}",
            outcome.window
        );
        for &v in &outcome.window {
            prop_assert!(v.is_finite() && v >= 0.0, "implausible value {v}");
        }
        prop_assert!(outcome.l1_spent.is_finite() && outcome.l1_spent >= 0.0);
        prop_assert!(outcome.iterations >= 1);
    }

    #[test]
    fn same_seed_attacks_are_byte_identical(
        case in arb_case(),
        budget in 0.0f64..1.0,
        seed in 0u64..u64::MAX,
        key in 0u64..u64::MAX,
        cut in 0.0f64..1.0e6,
    ) {
        let (stats, window): (Vec<(f64, f64)>, Vec<f64>) = case.into_iter().unzip();
        let envelope = PlausibilityEnvelope::from_stats(&stats, 6.0);
        let attack = EvasionAttack::new(envelope, budget, seed);
        let oracle = |w: &[f64]| if w[0] > cut { 1.0 } else { 0.0 };
        let a = attack.perturb(&window, key, oracle);
        let b = attack.perturb(&window, key, oracle);
        prop_assert_eq!(a, b);
    }
}

/// The sweep fans attacks out over `config.threads` workers; the rows
/// must be byte-identical at any worker count.
#[test]
fn attack_sweep_is_thread_count_invariant() {
    let schemes = [ClassifierKind::J48];
    let budgets = [0.2];
    let cache = CollectCache::new();
    let runs: Vec<_> = [1usize, 2, 8]
        .into_iter()
        .map(|threads| {
            let mut config = ExperimentConfig::fast();
            config.threads = threads;
            accuracy_under_attack(&cache, &config, &schemes, &budgets).expect("sweep")
        })
        .collect();
    assert_eq!(runs[0], runs[1], "1 vs 2 threads");
    assert_eq!(runs[0], runs[2], "1 vs 8 threads");
}
