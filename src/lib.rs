//! # trace-processor
//!
//! A from-scratch Rust reproduction of *Control Independence in Trace
//! Processors* (Eric Rotenberg and James E. Smith, MICRO-32, 1999): a
//! cycle-level, execution-driven trace processor simulator with fine-grain
//! (FGCI) and coarse-grain (CGCI) control-independence mechanisms, the
//! trace-selection algorithms that make trace-level re-convergence
//! possible, and the selective misspeculation recovery model built on an
//! address resolution buffer.
//!
//! This crate is a facade that re-exports the workspace's crates:
//!
//! * [`tp_isa`] — instruction set, assembler, functional simulator;
//! * [`tp_rv`] — RV64IM frontend: decoder, embedded assembler, and the
//!   real-ISA workload corpus;
//! * [`tp_workloads`] — the eight synthetic SPEC95-integer-like kernels
//!   plus the six-program RV64 suite;
//! * [`tp_predict`] — BTB, return address stack, next-trace predictor;
//! * [`tp_cache`] — instruction/data/trace caches and the ARB;
//! * [`tp_trace`] — traces, trace selection, the FGCI-algorithm, the BIT;
//! * [`tp_core`] — the trace processor itself;
//! * [`tp_ckpt`] — checkpointed fast-forward and the sampled-simulation
//!   engine (functional warming, versioned binary checkpoints);
//! * [`tp_events`] — the attachable structured event bus and its sinks
//!   (Chrome trace-event JSON for perfetto, ring buffer);
//! * [`tp_metrics`] — the histogram/time-series metrics layer: derived
//!   distributions over the event stream and the host-side pipeline-stage
//!   profiler;
//! * [`tp_stats`] — statistics helpers and the one JSON module behind
//!   every harness document.
//!
//! See `examples/quickstart.rs` for a five-minute tour, and `DESIGN.md` /
//! `EXPERIMENTS.md` for the system inventory and the reproduced tables and
//! figures.
//!
//! # Example
//!
//! ```
//! use trace_processor::tp_core::{CiModel, TraceProcessor, TraceProcessorConfig};
//! use trace_processor::tp_workloads::{by_name, Size};
//!
//! let w = by_name("compress", Size::Tiny).expect("a known workload");
//! let mut sim = TraceProcessor::new(&w.program, TraceProcessorConfig::paper(CiModel::FgMlbRet));
//! let result = sim.run(1_000_000).expect("no deadlock");
//! assert!(result.halted);
//! ```

pub use tp_cache;
pub use tp_cfg;
pub use tp_ckpt;
pub use tp_core;
pub use tp_events;
pub use tp_isa;
pub use tp_metrics;
pub use tp_predict;
pub use tp_rv;
pub use tp_stats;
pub use tp_trace;
pub use tp_workloads;
