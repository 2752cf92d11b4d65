//! Experiment harness library behind the `tp` binary and the bench
//! targets in `benches/`: the experiment grid and its runner, the shared
//! command-line cell spec, branch profiling (Table 5), and paper-reference
//! data.

pub mod cli;
pub mod corpus;
pub mod ffwd;
pub mod json;
pub mod metrics;
pub mod paper;
pub mod profile;
pub mod sampled;
pub mod speed;
pub mod sweep;
pub mod tap;

pub use ffwd::{ffwd_to_json, run_ffwd_bench, speedup_geomean, FfwdBenchCell};
pub use profile::{profile_branches, BranchClass, BranchProfile};
pub use sampled::{
    cross_check, default_sample_for, run_sampled, sampled_to_json, CrossCheck, Interval,
    SampleConfig, SampledCell, SampledRun,
};
pub use tap::{
    capture_interval, capture_program, capture_sampled, measure_observability_overhead, Capture,
    ObsVariant, ObservabilityProbe, SampledCapture,
};
