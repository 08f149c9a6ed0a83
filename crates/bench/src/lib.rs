//! The figure-regeneration harness behind the `figures` binary.
//!
//! Every experiment of §7 is represented by a function in [`experiments`]
//! that builds the corresponding cluster(s), runs the corresponding workload
//! and returns the series the paper plots. The `figures` binary prints them.

pub mod experiments;

pub use experiments::{ExperimentScale, Row};
