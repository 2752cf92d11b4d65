//! Attachable structured event bus for the detailed trace-processor model.
//!
//! The bus separates trace *production* from trace *observation*: the
//! simulator emits a full-information stream of structured events
//! ([`Event`]) at fixed sites in every pipeline stage, and observers
//! ([`EventSink`]) attach downstream without rebuilding the simulator.
//! Two properties make this safe to compile into the hot path:
//!
//! * **Near-zero cost unattached.** Every emission site first tests a
//!   cached per-category enabled mask ([`EventBus::wants`], one load and
//!   an AND against a `u32`). With no sink attached the mask is zero and
//!   no event is ever constructed.
//! * **Zero behavioral effect.** The bus is observation-only: nothing the
//!   simulator computes depends on it, so golden statistics rows are
//!   byte-identical whether or not sinks are attached.
//!
//! Two sinks ship with the crate:
//!
//! * [`ChromeTraceSink`] — Chrome trace-event JSON (one pid per PE,
//!   duration events for trace residency, instants for squash/repair,
//!   counter tracks for window pressure) that loads directly in
//!   perfetto / `chrome://tracing`;
//! * [`RingSink`] — an in-memory ring buffer for tests and ad-hoc
//!   analysis.
//!
//! Counter totals and distributions are `tp-metrics`' `MetricsSink`, a
//! third analysis layered on the same stream.

pub mod bus;
pub mod chrome;
pub mod event;
pub mod ring;

pub use bus::{EventBus, EventSink, NullSink};
pub use chrome::ChromeTraceSink;
pub use event::{
    BusChannel, Category, CategoryMask, Event, FetchPath, MispredictKind, RecoveryPlan, StallReason,
};
pub use ring::RingSink;
