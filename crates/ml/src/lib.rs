//! A WEKA-like machine learning library, implemented from scratch.
//!
//! The reference evaluation trained and tested its malware classifiers
//! in WEKA 3. This crate provides the same toolbox as a pure-Rust
//! library with no external ML dependencies:
//!
//! * [`Dataset`] — instances with numeric features and a nominal class
//!   (the in-memory ARFF equivalent),
//! * the [`Classifier`] trait and twelve implementations mirroring the
//!   WEKA classifiers the evaluation exercises:
//!   [`ZeroR`], [`OneR`], [`DecisionStump`], [`J48`] (C4.5),
//!   [`RepTree`], [`JRip`] (RIPPER), [`NaiveBayes`],
//!   [`Logistic`]/[`Mlr`] (multinomial logistic regression),
//!   [`Mlp`] (multilayer perceptron), [`LinearSvm`] (Pegasos SVM),
//!   and [`Ibk`] (k-nearest neighbours),
//! * [`Pca`] — principal component analysis with WEKA-Ranker-style
//!   attribute ranking (the paper's feature-reduction engine),
//! * [`Standardize`] / [`MinMaxNormalize`] filters,
//! * [`Evaluation`] / [`ConfusionMatrix`] / [`cross_validate`] —
//!   train/test and k-fold evaluation with per-class metrics,
//! * [`cross_validate`] fans its folds out through
//!   [`hbmd_obs::par::try_par_map`], the suite's deterministic,
//!   order-preserving parallel map,
//! * [`compiled`] — flat, branchless evaluators ([`CompiledModel`])
//!   that fitted tree/rule/ensemble schemes lower into for fast
//!   batched prediction.
//!
//! [`Dataset`] stores its feature matrix as one contiguous row-major
//! allocation; [`Dataset::rows`] hands out `&[f64]` views
//! ([`RowsView`]), so scans stay cache-friendly and projections are
//! single allocations.
//!
//! # Examples
//!
//! ```
//! use hbmd_ml::{Classifier, Dataset, Evaluation, J48};
//!
//! // A trivially separable two-class problem.
//! let mut data = Dataset::new(vec!["x".into()], vec!["a".into(), "b".into()])?;
//! for i in 0..60 {
//!     data.push(vec![i as f64], usize::from(i >= 30))?;
//! }
//! let (train, test) = data.split(0.7, 42);
//!
//! let mut tree = J48::new();
//! tree.fit(&train)?;
//! let eval = Evaluation::of(&tree, &test);
//! assert!(eval.accuracy() > 0.9);
//! # Ok::<(), hbmd_ml::MlError>(())
//! ```

mod classifier;
mod classifiers;
pub mod compiled;
mod data;
mod ensemble;
mod eval;
mod filter;
mod linalg;
mod pca;
mod roc;
pub mod snap;

pub use classifier::{fit_timed, Classifier};
pub use classifiers::ibk::Ibk;
pub use classifiers::j48::J48;
pub use classifiers::jrip::{Condition, JRip, Rule};
pub use classifiers::logistic::{Logistic, Mlr};
pub use classifiers::mlp::Mlp;
pub use classifiers::naive_bayes::NaiveBayes;
pub use classifiers::one_r::OneR;
pub use classifiers::rep_tree::RepTree;
pub use classifiers::stump::DecisionStump;
pub use classifiers::svm::LinearSvm;
pub use classifiers::zero_r::ZeroR;
pub use compiled::{CompiledEnsemble, CompiledForest, CompiledModel, CompiledRules, CompiledTree};
pub use data::{Dataset, MlError, RowsView};
pub use ensemble::{AdaBoostM1, Bagging, RandomForest};
pub use eval::{cross_validate, cross_validate_with_threads, ConfusionMatrix, Evaluation};
pub use filter::{Impute, MinMaxNormalize, Standardize};
pub use linalg::{covariance_matrix, jacobi_eigen, Matrix};
pub use pca::{Pca, RankedAttribute};
pub use roc::{RocCurve, RocPoint};
pub use snap::{Snap, SnapError, SnapReader, SnapWriter};
