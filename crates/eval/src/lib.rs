//! # logsynergy-eval
//!
//! The experiment harness: metrics (§IV-A3), a uniform runner over
//! LogSynergy + the nine baselines, and regenerators for **every table and
//! figure** of the paper's evaluation. [`experiments::REGISTRY`] names
//! each artifact's configuration and result file; `logsynergy experiment
//! <name>` runs it.
//!
//! | Paper artifact | Runner |
//! |---|---|
//! | Table I (syntax gap) | [`experiments::table1`] |
//! | Table III (datasets) | [`experiments::table3`] |
//! | Table IV (public group) | [`experiments::table4`] |
//! | Table V (ISP group) | [`experiments::table5`] |
//! | Fig. 4a (λ_MI) | [`experiments::fig4a`] |
//! | Fig. 4b (n_s) | [`experiments::fig4b`] |
//! | Fig. 4c (n_t) | [`experiments::fig4c`] |
//! | Fig. 5 (ablation) | [`experiments::fig5`] |
//! | Fig. 6 (lesson learned) | [`experiments::fig6`] |
//! | Fig. 8 (case study) | [`experiments::fig8_case_study`] |
//! | §VI-B (deployment costs) | [`experiments::deployment_costs`] |
//! | Design ablations | [`experiments::design_ablations`] |

#![warn(missing_docs)]

pub mod experiments;
pub mod methods;
pub mod metrics;
pub mod paper;
pub mod report;
pub mod setup;

pub use methods::{run_method, MethodKind, MethodResult};
pub use metrics::{average_precision, best_f1, pr_curve, Confusion, PrPoint, Prf};
pub use setup::{prepare, prepare_group, ExperimentConfig, SystemData};
