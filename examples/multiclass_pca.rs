//! Multiclass (malware-family) classification with PCA-assisted
//! feature reduction — the workload behind Table 2 and Figures 17–19.
//!
//! ```text
//! cargo run --release --example multiclass_pca
//! ```

use hbmd::core::experiments::{multiclass, pca, ExperimentConfig};
use hbmd::core::CollectCache;
use hbmd::perf::CollectorConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = ExperimentConfig {
        catalog_fraction: 0.1,
        catalog_seed: 2018,
        collector: CollectorConfig::paper(),
        split_seed: 42,
        threads: hbmd::core::par::default_threads(),
    };
    // The three experiments share one collection of the catalog.
    let cache = CollectCache::new();

    // Table 2: the PCA-reduced feature sets.
    let table2 = pca::table2(&cache, &config)?;
    println!("common features: {}", table2.common.join(", "));
    for (class, features) in &table2.per_class {
        println!("{class:<9} custom-8: {}", features.join(", "));
    }

    // Figures 17–18: the three multiclass schemes.
    println!("\nmulticlass accuracy (benign + 5 families):");
    for row in multiclass::accuracy_comparison(&cache, &config)? {
        println!(
            "  {:<22} {:.1}%",
            row.scheme.name(),
            row.average_accuracy * 100.0
        );
        let classes = ["benign", "backdoor", "rootkit", "trojan", "virus", "worm"];
        for (name, recall) in classes.iter().zip(&row.per_class) {
            println!("      {name:<9} recall {:.1}%", recall * 100.0);
        }
    }

    // Figure 19: custom-8 per class vs the generic top-8.
    let result = multiclass::pca_assisted_comparison(&cache, &config)?;
    println!("\nPCA-assisted MLR vs normal MLR:");
    println!(
        "  MLR, 16 features (context):       {:.1}%",
        result.plain_full_accuracy * 100.0
    );
    println!(
        "  normal MLR, generic top-8:        {:.1}%",
        result.plain_accuracy * 100.0
    );
    println!(
        "  assisted MLR, custom-8 per class: {:.1}%",
        result.assisted_accuracy * 100.0
    );
    println!("  improvement: {:+.1}pp", result.improvement() * 100.0);
    Ok(())
}
