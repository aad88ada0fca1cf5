//! The experiment runners: one function per table or figure, and the
//! tables that name them.

use std::time::Instant;

use hbmd_bench::{pct, TextTable};
use hbmd_core::experiments::{
    self, adversarial, binary, ensemble, hardware, latency, multiclass, pca, robustness, roc,
    ExperimentConfig,
};
use hbmd_core::{to_binary_dataset, ClassifierKind, CollectCache, FeaturePlan, FeatureSet};
use hbmd_fpga::SynthConfig;
use hbmd_malware::AppClass;
use hbmd_ml::{Classifier, Evaluation};
use hbmd_perf::PmuConfig;

/// An experiment: print its tables to stdout, given the run's
/// configuration and collection cache.
pub(crate) type Experiment =
    fn(&ExperimentConfig, &CollectCache) -> Result<(), Box<dyn std::error::Error>>;

/// What `repro all` runs, in order.
pub(crate) const ALL: &[(&str, Experiment)] = &[
    ("table1", table1),
    ("fig6", fig6),
    ("fig8", fig8),
    ("table2", table2),
    ("fig9", |c, k| scatter(c, k, AppClass::Rootkit, "Figure 9")),
    ("fig10", |c, k| scatter(c, k, AppClass::Trojan, "Figure 10")),
    ("fig11", |c, k| scatter(c, k, AppClass::Virus, "Figure 11")),
    ("fig12", |c, k| scatter(c, k, AppClass::Worm, "Figure 12")),
    ("fig13", fig13),
    ("fig14", |c, k| hardware_figures(c, k, "fig14")),
    ("fig15", |c, k| hardware_figures(c, k, "fig15")),
    ("fig16", |c, k| hardware_figures(c, k, "fig16")),
    ("fig17", |c, k| multiclass_figures(c, k, "fig17")),
    ("fig18", |c, k| multiclass_figures(c, k, "fig18")),
    ("fig19", fig19),
    ("ablate-ensemble", ablate_ensemble),
    ("ablate-mux", ablate_mux),
    ("ablate-noise", ablate_noise),
    ("ablate-features", ablate_features),
    ("ablate-mlp", ablate_mlp),
    ("ablate-prefetch", ablate_prefetch),
    ("roc", roc_analysis),
    ("detect-latency", detect_latency),
    ("robustness", robustness_sweep),
];

/// Experiments that run only when named.
pub(crate) const BY_NAME: &[(&str, Experiment)] = &[
    ("predict", predict_phase),
    ("adversarial", adversarial_phase),
    ("emit-hdl", emit_hdl),
];

/// The experiment named `name`, whether `all` runs it or not.
pub(crate) fn experiment(name: &str) -> Option<&'static (&'static str, Experiment)> {
    ALL.iter().chain(BY_NAME).find(|(n, _)| *n == name)
}

/// The `predict` experiment: fit every compilable scheme, lower it
/// through the compilation pass, and report the compiled evaluator's
/// footprint (deterministic: stdout) plus its batched columnar
/// throughput (machine-dependent: stderr only).
fn predict_phase(
    config: &ExperimentConfig,
    cache: &CollectCache,
) -> Result<(), Box<dyn std::error::Error>> {
    println!("## Predict: compiled evaluator footprint and batched throughput");
    let collection = cache.collect(config)?;
    let (train_hpc, test_hpc) = collection.dataset.split(0.7, config.split_seed);
    let (train, test) = (to_binary_dataset(&train_hpc), to_binary_dataset(&test_hpc));
    if test.is_empty() {
        return Err("predict phase needs a non-empty test split".into());
    }

    let kinds = [
        ClassifierKind::OneR,
        ClassifierKind::JRip,
        ClassifierKind::J48,
        ClassifierKind::RepTree,
        ClassifierKind::AdaBoost,
        ClassifierKind::Bagging,
        ClassifierKind::RandomForest,
    ];
    let mut table = TextTable::new(vec!["scheme", "accuracy %", "nodes", "bytes"]);
    for kind in kinds {
        let mut model = kind.instantiate();
        model.fit(&train)?;
        let accuracy = Evaluation::of(&model, &test).accuracy();
        let compiled = model
            .compile()
            .ok_or_else(|| format!("{kind} did not compile"))?;
        table.row(vec![
            kind.name().to_owned(),
            format!("{:.2}", accuracy * 100.0),
            compiled.node_count().to_string(),
            compiled.byte_size().to_string(),
        ]);

        // A fixed window budget (not a fixed duration), so the phase
        // does the same work at any machine speed.
        let rows = test.rows();
        let target = 200_000usize;
        let mut predicted = 0usize;
        let started = Instant::now();
        while predicted < target {
            predicted += compiled.predict_batch(rows).len();
        }
        let rate = predicted as f64 / started.elapsed().as_secs_f64();
        eprintln!(
            "predict: {} {:.3e} windows/sec compiled batch ({predicted} windows)",
            kind.name(),
            rate,
        );
    }
    print!("{}", table.render());
    Ok(())
}

/// The `adversarial` experiment: craft plausibility-constrained
/// evasion attacks against each trained detector, score the same
/// crafted windows under every defense (clean / retrained /
/// ensemble-disagreement), and measure end-to-end detection against
/// behaviour-level camouflage catalogs. All tables and the per-scheme
/// summary lines are deterministic (stdout); the attack throughput
/// goes to stderr only.
fn adversarial_phase(
    config: &ExperimentConfig,
    cache: &CollectCache,
) -> Result<(), Box<dyn std::error::Error>> {
    println!("## Adversarial: accuracy under attack, clean vs defended");
    println!("(gradient-free evasion inside a benign plausibility envelope; arXiv:2005.03644 threat model)");
    let schemes = [ClassifierKind::J48, ClassifierKind::RandomForest];
    let budgets = [0.05, 0.1, 0.2, 0.4];
    let started = Instant::now();
    let rows = adversarial::accuracy_under_attack(cache, config, &schemes, &budgets)?;
    let elapsed = started.elapsed().as_secs_f64();

    let mut table = TextTable::new(vec![
        "budget",
        "classifier",
        "defense",
        "baseline",
        "detection",
        "evasion",
        "mean L1",
        "iters",
        "windows",
        "susp trips",
    ]);
    for row in &rows {
        table.row(vec![
            pct(row.budget),
            row.scheme.to_string(),
            row.defense.to_string(),
            pct(row.baseline_detection),
            pct(row.detection_rate),
            pct(row.evasion_rate),
            format!("{:.1}", row.mean_l1),
            format!("{:.1}", row.mean_iterations),
            row.windows.to_string(),
            row.suspicion_trips.to_string(),
        ]);
    }
    print!("{}", table.render());

    // One machine-parseable verdict line per scheme at the heaviest
    // budget — the CI smoke gate asserts on these.
    let top_budget = budgets[budgets.len() - 1];
    for scheme in schemes {
        let at_top: Vec<&adversarial::AdversarialRow> = rows
            .iter()
            .filter(|r| r.scheme == scheme && r.budget == top_budget)
            .collect();
        let clean = at_top
            .iter()
            .find(|r| r.defense == adversarial::DefenseKind::Clean)
            .ok_or("missing clean defense row")?;
        let defended = at_top
            .iter()
            .filter(|r| r.defense != adversarial::DefenseKind::Clean)
            .map(|r| r.evasion_rate)
            .fold(f64::INFINITY, f64::min);
        println!(
            "adversarial: scheme={scheme} budget={top_budget} clean_evasion={:.4} defended_evasion={defended:.4}",
            clean.evasion_rate,
        );
    }

    println!();
    println!("### Behaviour-level camouflage (evasive catalog variants)");
    let tactic_rows = adversarial::camouflage_sweep(cache, config, &schemes)?;
    let mut camo = TextTable::new(vec!["tactic", "classifier", "detection", "windows"]);
    for row in &tactic_rows {
        camo.row(vec![
            row.tactic.clone(),
            row.scheme.to_string(),
            pct(row.detection_rate),
            row.windows.to_string(),
        ]);
    }
    print!("{}", camo.render());

    let attacked: usize = rows
        .iter()
        .filter(|r| r.defense == adversarial::DefenseKind::Clean)
        .map(|r| r.windows)
        .sum();
    let rate = attacked as f64 / elapsed.max(1e-9);
    eprintln!(
        "adversarial: {rate:.0} attacked windows/sec over {} sweep cells ({attacked} windows)",
        rows.len() / adversarial::DefenseKind::ALL.len(),
    );
    Ok(())
}

fn table1(
    config: &ExperimentConfig,
    cache: &CollectCache,
) -> Result<(), Box<dyn std::error::Error>> {
    println!("## Table 1: samples per application class");
    println!("paper: backdoor 452, rootkit 324, trojan 1169, virus 650, worm 149, benign 326 (3,070 total)");
    let rows = experiments::census(cache, config);
    let mut table = TextTable::new(vec!["class", "samples", "share", "dataset rows"]);
    let mut total = 0usize;
    for row in &rows {
        total += row.samples;
        table.row(vec![
            row.class.to_string(),
            row.samples.to_string(),
            pct(row.share),
            row.dataset_rows.to_string(),
        ]);
    }
    table.row(vec![
        "total".to_owned(),
        total.to_string(),
        String::new(),
        String::new(),
    ]);
    print!("{}", table.render());
    Ok(())
}

fn fig6(config: &ExperimentConfig, cache: &CollectCache) -> Result<(), Box<dyn std::error::Error>> {
    println!("## Figure 6: class distribution of the database");
    println!("paper: trojan-dominated, mirroring the in-the-wild distribution (Figure 3)");
    let rows = experiments::census(cache, config);
    let mut table = TextTable::new(vec!["class", "share", "bar"]);
    for row in &rows {
        let bar = "#".repeat((row.share * 60.0).round() as usize);
        table.row(vec![row.class.to_string(), pct(row.share), bar]);
    }
    print!("{}", table.render());
    Ok(())
}

fn table2(
    config: &ExperimentConfig,
    cache: &CollectCache,
) -> Result<(), Box<dyn std::error::Error>> {
    println!("## Table 2: PCA-reduced features per class");
    println!("paper: 4 common features + custom 8 per malware class");
    let result = pca::table2(cache, config)?;
    println!("common features: {}", result.common.join(", "));
    let mut table = TextTable::new(vec!["class", "custom top-8 features"]);
    for (class, features) in &result.per_class {
        table.row(vec![class.to_string(), features.join(", ")]);
    }
    print!("{}", table.render());
    Ok(())
}

fn fig8(config: &ExperimentConfig, cache: &CollectCache) -> Result<(), Box<dyn std::error::Error>> {
    println!("## Figure 8: PCA eigen summary (WEKA PrincipalComponents -R 0.95)");
    let summary = pca::eigen_summary(cache, config)?;
    println!(
        "components for 95% variance: {} of 16",
        summary.components_for_95
    );
    let mut table = TextTable::new(vec![
        "rank",
        "attribute",
        "score",
        "eigenvalue",
        "explained",
    ]);
    for (i, (name, score)) in summary.ranking.iter().enumerate() {
        table.row(vec![
            (i + 1).to_string(),
            name.clone(),
            format!("{score:.4}"),
            format!("{:.4}", summary.eigenvalues[i]),
            pct(summary.explained[i]),
        ]);
    }
    print!("{}", table.render());
    Ok(())
}

fn scatter(
    config: &ExperimentConfig,
    cache: &CollectCache,
    class: AppClass,
    figure: &str,
) -> Result<(), Box<dyn std::error::Error>> {
    println!("## {figure}: PCA plot for {class} (top-2 components, class vs benign)");
    let points = pca::scatter(cache, config, class)?;
    // Render as a coarse ASCII density plot: 'b' benign, 'm' malware,
    // '*' both.
    let (width, height) = (64usize, 20usize);
    let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut min_y, mut max_y) = (f64::INFINITY, f64::NEG_INFINITY);
    for p in &points {
        min_x = min_x.min(p.pc1);
        max_x = max_x.max(p.pc1);
        min_y = min_y.min(p.pc2);
        max_y = max_y.max(p.pc2);
    }
    let mut grid = vec![vec![' '; width]; height];
    for p in &points {
        let x = ((p.pc1 - min_x) / (max_x - min_x).max(1e-12) * (width - 1) as f64) as usize;
        let y = ((p.pc2 - min_y) / (max_y - min_y).max(1e-12) * (height - 1) as f64) as usize;
        let cell = &mut grid[height - 1 - y][x];
        let mark = if p.malware { 'm' } else { 'b' };
        *cell = match (*cell, mark) {
            (' ', m) => m,
            (existing, m) if existing == m => m,
            _ => '*',
        };
    }
    let malware_mean: f64 = points
        .iter()
        .filter(|p| p.malware)
        .map(|p| p.pc1)
        .sum::<f64>()
        / points.iter().filter(|p| p.malware).count().max(1) as f64;
    let benign_mean: f64 = points
        .iter()
        .filter(|p| !p.malware)
        .map(|p| p.pc1)
        .sum::<f64>()
        / points.iter().filter(|p| !p.malware).count().max(1) as f64;
    for line in grid {
        println!("|{}|", line.into_iter().collect::<String>());
    }
    println!(
        "PC1 centroid separation: {:.2} ({} points; b=benign, m={}, *=overlap)",
        (malware_mean - benign_mean).abs(),
        points.len(),
        class
    );
    Ok(())
}

fn fig13(
    config: &ExperimentConfig,
    cache: &CollectCache,
) -> Result<(), Box<dyn std::error::Error>> {
    println!("## Figure 13: binary accuracy, 16 vs PCA top-8 vs top-4 features");
    println!("paper: most classifiers dip slightly at 4 features; J48/OneR barely move");
    let rows = binary::accuracy_comparison(cache, config)?;
    let mut table = TextTable::new(vec![
        "classifier",
        "16 features",
        "8 features",
        "4 features",
        "8->4 cost",
    ]);
    for row in &rows {
        table.row(vec![
            row.scheme.to_string(),
            pct(row.accuracy_full),
            pct(row.accuracy_top8),
            pct(row.accuracy_top4),
            format!("{:+.1}pp", row.reduction_cost() * 100.0),
        ]);
    }
    print!("{}", table.render());
    Ok(())
}

fn hardware_figures(
    config: &ExperimentConfig,
    cache: &CollectCache,
    which: &str,
) -> Result<(), Box<dyn std::error::Error>> {
    let rows = hardware::comparison(cache, config, &SynthConfig::default())?;
    match which {
        "fig14" => {
            println!("## Figure 14: FPGA area comparison (8 vs 4 features)");
            println!("paper: OneR/JRip tiny; MLP an order of magnitude larger");
            let mut table = TextTable::new(vec![
                "classifier",
                "area (8f)",
                "area (4f)",
                "LUT/FF/DSP/BRAM (8f)",
            ]);
            for row in &rows {
                let r = &row.top8.report.resources;
                table.row(vec![
                    row.scheme.to_string(),
                    format!("{:.0}", row.top8.report.area_units()),
                    format!("{:.0}", row.top4.report.area_units()),
                    format!("{}/{}/{}/{}", r.luts, r.ffs, r.dsps, r.brams),
                ]);
            }
            print!("{}", table.render());
        }
        "fig15" => {
            println!("## Figure 15: FPGA latency comparison (8 vs 4 features)");
            println!("paper: rule learners in a couple of cycles; networks slower");
            let mut table = TextTable::new(vec![
                "classifier",
                "cycles (8f)",
                "latency ns (8f)",
                "cycles (4f)",
                "power mW (8f)",
            ]);
            for row in &rows {
                table.row(vec![
                    row.scheme.to_string(),
                    row.top8.report.latency_cycles.to_string(),
                    format!("{:.0}", row.top8.report.latency_ns()),
                    row.top4.report.latency_cycles.to_string(),
                    format!("{:.1}", row.top8.report.power_mw),
                ]);
            }
            print!("{}", table.render());
        }
        _ => {
            println!("## Figure 16: accuracy/area comparison (8 vs 4 features)");
            println!("paper: JRip and OneR dominate the figure of merit");
            let mut table = TextTable::new(vec![
                "classifier",
                "acc (8f)",
                "acc/area (8f)",
                "acc (4f)",
                "acc/area (4f)",
            ]);
            for row in &rows {
                table.row(vec![
                    row.scheme.to_string(),
                    pct(row.top8.accuracy),
                    format!("{:.3}", row.top8.accuracy_per_area()),
                    pct(row.top4.accuracy),
                    format!("{:.3}", row.top4.accuracy_per_area()),
                ]);
            }
            print!("{}", table.render());
        }
    }
    Ok(())
}

fn multiclass_figures(
    config: &ExperimentConfig,
    cache: &CollectCache,
    which: &str,
) -> Result<(), Box<dyn std::error::Error>> {
    let rows = multiclass::accuracy_comparison(cache, config)?;
    if which == "fig17" {
        println!("## Figure 17: average multiclass accuracy (MLR / MLP / SVM)");
        println!("paper: the neural network (MLP) leads the multiclass comparison");
        let mut table = TextTable::new(vec!["classifier", "average accuracy"]);
        for row in &rows {
            table.row(vec![row.scheme.to_string(), pct(row.average_accuracy)]);
        }
        print!("{}", table.render());
    } else {
        println!("## Figure 18: per-class accuracy for the multiclass classifiers");
        let mut headers = vec!["class"];
        let names: Vec<String> = rows.iter().map(|r| r.scheme.to_string()).collect();
        headers.extend(names.iter().map(String::as_str));
        let mut table = TextTable::new(headers);
        for class in AppClass::ALL {
            let mut cells = vec![class.to_string()];
            for row in &rows {
                cells.push(pct(row.per_class[class.index()]));
            }
            table.row(cells);
        }
        print!("{}", table.render());
    }
    Ok(())
}

fn fig19(
    config: &ExperimentConfig,
    cache: &CollectCache,
) -> Result<(), Box<dyn std::error::Error>> {
    println!("## Figure 19: PCA-assisted MLR vs normal MLR");
    println!("paper: custom per-class 8-feature sets gain ~7pp over non-custom features");
    let result = multiclass::pca_assisted_comparison(cache, config)?;
    let mut table = TextTable::new(vec!["variant", "accuracy"]);
    table.row(vec![
        "MLR, all 16 features (context)".to_owned(),
        pct(result.plain_full_accuracy),
    ]);
    table.row(vec![
        "normal MLR, generic top-8".to_owned(),
        pct(result.plain_accuracy),
    ]);
    table.row(vec![
        "PCA-assisted MLR, custom-8 per class".to_owned(),
        pct(result.assisted_accuracy),
    ]);
    print!("{}", table.render());
    println!(
        "improvement over non-custom reduction: {:+.1}pp overall, {:+.1}pp mean per-class",
        result.improvement() * 100.0,
        result.macro_improvement() * 100.0
    );
    let mut per_class = TextTable::new(vec!["class", "normal recall", "assisted recall"]);
    for class in AppClass::ALL {
        per_class.row(vec![
            class.to_string(),
            pct(result.plain_per_class[class.index()]),
            pct(result.assisted_per_class[class.index()]),
        ]);
    }
    print!("{}", per_class.render());
    Ok(())
}

fn detect_latency(
    config: &ExperimentConfig,
    cache: &CollectCache,
) -> Result<(), Box<dyn std::error::Error>> {
    println!("## Extension: run-time detection latency (windows to alarm)");
    println!("(J48 detector, 4-window vote, 3-vote threshold, unseen specimens)");
    let rows = latency::windows_to_alarm(cache, config, 8, 32)?;
    let mut table = TextTable::new(vec![
        "family",
        "detected",
        "mean windows",
        "mean ms (10ms/window)",
    ]);
    for row in &rows {
        table.row(vec![
            row.class.to_string(),
            format!("{}/{}", row.detected, row.observed),
            if row.detected > 0 {
                format!("{:.1}", row.mean_windows_to_alarm)
            } else {
                "-".to_owned()
            },
            if row.detected > 0 {
                format!("{:.0}", row.mean_ms_to_alarm())
            } else {
                "-".to_owned()
            },
        ]);
    }
    print!("{}", table.render());
    Ok(())
}

fn robustness_sweep(
    config: &ExperimentConfig,
    cache: &CollectCache,
) -> Result<(), Box<dyn std::error::Error>> {
    println!("## Extension: graceful degradation under collection faults");
    println!("(detectors trained clean, evaluated through a fault-injected pipeline)");
    let schemes = [
        ClassifierKind::J48,
        ClassifierKind::JRip,
        ClassifierKind::Logistic,
        ClassifierKind::NaiveBayes,
    ];
    let rates = [0.0, 0.02, 0.05, 0.1, 0.2];
    let rows = robustness::degradation_sweep(cache, config, &schemes, &rates)?;
    let mut table = TextTable::new(vec![
        "fault rate",
        "classifier",
        "accuracy (decided)",
        "abstained",
        "windows",
        "quarantined",
        "retries",
    ]);
    for row in &rows {
        table.row(vec![
            pct(row.fault_rate),
            row.scheme.to_string(),
            if row.accuracy.is_nan() {
                "-".to_owned()
            } else {
                pct(row.accuracy)
            },
            pct(row.abstain_rate),
            row.windows.to_string(),
            row.quarantined.to_string(),
            row.retries.to_string(),
        ]);
    }
    print!("{}", table.render());
    Ok(())
}

fn roc_analysis(
    config: &ExperimentConfig,
    cache: &CollectCache,
) -> Result<(), Box<dyn std::error::Error>> {
    println!("## Extension: ROC analysis of the score-producing detectors");
    println!("(a deployed monitor is tuned to a false-positive budget, not peak accuracy)");
    let rows = roc::comparison(cache, config)?;
    let mut table = TextTable::new(vec!["scheme", "AUC", "TPR @ 1% FPR", "TPR @ 5% FPR"]);
    for row in &rows {
        table.row(vec![
            row.scheme.clone(),
            format!("{:.4}", row.auc),
            pct(row.at_1pct_fpr.tpr),
            pct(row.at_5pct_fpr.tpr),
        ]);
    }
    print!("{}", table.render());
    Ok(())
}

fn emit_hdl(
    config: &ExperimentConfig,
    cache: &CollectCache,
) -> Result<(), Box<dyn std::error::Error>> {
    println!("## SystemVerilog skeletons for the trained rule learners");
    let collection = cache.collect(config)?;
    let (train_hpc, _) = collection.dataset.split(0.7, config.split_seed);
    let plan = FeaturePlan::fit(&train_hpc)?;
    let indices = plan.resolve(FeatureSet::Top(8))?;
    let train = to_binary_dataset(&train_hpc).select_features(&indices)?;
    for kind in [ClassifierKind::OneR, ClassifierKind::JRip] {
        let mut model = kind.instantiate();
        hbmd_ml::fit_timed(&mut model, &train)?;
        let rtl = hbmd_fpga::emit_system_verilog(&model.datapath()?, &SynthConfig::default());
        println!("{rtl}");
    }
    Ok(())
}

fn ablate_ensemble(
    config: &ExperimentConfig,
    cache: &CollectCache,
) -> Result<(), Box<dyn std::error::Error>> {
    println!("## Extension: ensemble learning (RAID'15 / DAC'18 follow-ups)");
    println!("(single learners vs boosting, bagging and random forests, top-8 features)");
    let rows = ensemble::comparison(cache, config)?;
    let mut table = TextTable::new(vec![
        "scheme",
        "accuracy",
        "area",
        "latency cyc",
        "acc/area",
    ]);
    for row in &rows {
        table.row(vec![
            row.scheme.to_string(),
            pct(row.accuracy),
            format!("{:.0}", row.area_units),
            row.latency_cycles.to_string(),
            format!("{:.3}", row.accuracy_per_area()),
        ]);
    }
    print!("{}", table.render());
    Ok(())
}

fn ablate_prefetch(
    config: &ExperimentConfig,
    cache: &CollectCache,
) -> Result<(), Box<dyn std::error::Error>> {
    println!("## Ablation: L1D next-line prefetcher vs counter signal");
    println!("(prefetching shifts traffic from demand misses to prefetch references)");
    let variant = |label: &str, cpu| {
        let mut variant = config.clone();
        variant.collector.sampler.cpu = cpu;
        (label.to_owned(), variant)
    };
    ablation(
        cache,
        "cpu model",
        &[ClassifierKind::J48, ClassifierKind::Logistic],
        vec![
            variant(
                "no prefetcher (paper model)",
                hbmd_uarch::CpuConfig::haswell(),
            ),
            variant(
                "next-line L1D prefetcher",
                hbmd_uarch::CpuConfig::haswell_prefetch(),
            ),
        ],
    )
}

fn ablate_mux(
    config: &ExperimentConfig,
    cache: &CollectCache,
) -> Result<(), Box<dyn std::error::Error>> {
    println!("## Ablation: PMU multiplexing pressure vs detection accuracy");
    println!("(design note: counter scaling noise is part of the measured signal)");
    let variant = |label: &str, pmu| {
        let mut variant = config.clone();
        variant.collector.sampler.pmu = pmu;
        (label.to_owned(), variant)
    };
    ablation(
        cache,
        "pmu mode",
        &[ClassifierKind::J48, ClassifierKind::Logistic],
        vec![
            variant("exact counting (no PMU sharing)", None),
            variant(
                "16 events on 8 counters (paper)",
                Some(PmuConfig::haswell_collected()),
            ),
            variant(
                "52 events on 8 counters (full catalog)",
                Some(PmuConfig::haswell_full()),
            ),
        ],
    )
}

fn ablate_noise(
    config: &ExperimentConfig,
    cache: &CollectCache,
) -> Result<(), Box<dyn std::error::Error>> {
    println!("## Ablation: container isolation vs shared-host noise");
    println!("(the LXC containers' purpose: keep host activity out of the counters)");
    let variants = [0.0, 0.5, 1.0, 2.0].map(|noise| {
        let mut variant = config.clone();
        variant.collector.sampler.host_noise = noise;
        (format!("{noise:.1}"), variant)
    });
    ablation(
        cache,
        "host noise ratio",
        &[ClassifierKind::J48],
        variants.into(),
    )
}

/// One table row per `(label, config)` variant: collect the variant,
/// split it by specimen, and print each scheme's held-out accuracy.
fn ablation(
    cache: &CollectCache,
    column: &str,
    schemes: &[ClassifierKind],
    variants: Vec<(String, ExperimentConfig)>,
) -> Result<(), Box<dyn std::error::Error>> {
    let headers: Vec<String> = schemes.iter().map(|s| format!("{s} accuracy")).collect();
    let mut table = TextTable::new(
        std::iter::once(column)
            .chain(headers.iter().map(String::as_str))
            .collect(),
    );
    for (label, variant) in variants {
        let collection = cache.collect(&variant)?;
        let (train_hpc, test_hpc) = collection.dataset.split(0.7, variant.split_seed);
        let train = to_binary_dataset(&train_hpc);
        let test = to_binary_dataset(&test_hpc);
        let mut row = vec![label];
        for kind in schemes {
            let mut model = kind.instantiate();
            hbmd_ml::fit_timed(&mut model, &train)?;
            row.push(pct(Evaluation::of(&model, &test).accuracy()));
        }
        table.row(row);
    }
    print!("{}", table.render());
    Ok(())
}

fn ablate_features(
    config: &ExperimentConfig,
    cache: &CollectCache,
) -> Result<(), Box<dyn std::error::Error>> {
    println!("## Ablation: feature-count sweep (beyond the paper's 8 and 4)");
    let collection = cache.collect(config)?;
    let (train_hpc, test_hpc) = collection.dataset.split(0.7, config.split_seed);
    let plan = FeaturePlan::fit(&train_hpc)?;
    let train_full = to_binary_dataset(&train_hpc);
    let test_full = to_binary_dataset(&test_hpc);
    let mut table = TextTable::new(vec![
        "features",
        "J48 accuracy",
        "Logistic accuracy",
        "Logistic area",
    ]);
    for k in [2usize, 4, 8, 12, 16] {
        let indices = plan.resolve(FeatureSet::Top(k))?;
        let train = train_full.select_features(&indices)?;
        let test = test_full.select_features(&indices)?;
        let mut j48 = ClassifierKind::J48.instantiate();
        hbmd_ml::fit_timed(&mut j48, &train)?;
        let mut logistic = ClassifierKind::Logistic.instantiate();
        hbmd_ml::fit_timed(&mut logistic, &train)?;
        let area =
            hbmd_fpga::synthesize(&logistic.datapath()?, &SynthConfig::default()).area_units();
        table.row(vec![
            k.to_string(),
            pct(Evaluation::of(&j48, &test).accuracy()),
            pct(Evaluation::of(&logistic, &test).accuracy()),
            format!("{area:.0}"),
        ]);
    }
    print!("{}", table.render());
    Ok(())
}

fn ablate_mlp(
    config: &ExperimentConfig,
    cache: &CollectCache,
) -> Result<(), Box<dyn std::error::Error>> {
    println!("## Ablation: MLP hidden width vs accuracy and area");
    let collection = cache.collect(config)?;
    let (train_hpc, test_hpc) = collection.dataset.split(0.7, config.split_seed);
    let train = to_binary_dataset(&train_hpc);
    let test = to_binary_dataset(&test_hpc);
    let mut table = TextTable::new(vec!["hidden units", "accuracy", "area", "latency cycles"]);
    for hidden in [2usize, 4, 9, 16, 32] {
        let mut mlp = hbmd_ml::Mlp::with_hidden(hidden);
        hbmd_ml::fit_timed(&mut mlp, &train)?;
        let evaluation = Evaluation::of(&mlp, &test);
        let report = hbmd_fpga::synthesize(
            &hbmd_fpga::ToDatapath::datapath(&mlp)?,
            &SynthConfig::default(),
        );
        table.row(vec![
            hidden.to_string(),
            pct(evaluation.accuracy()),
            format!("{:.0}", report.area_units()),
            report.latency_cycles.to_string(),
        ]);
    }
    print!("{}", table.render());
    Ok(())
}
