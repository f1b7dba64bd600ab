#![deny(missing_docs)]

//! Trace capture and replay for the tnt simulation.
//!
//! Any experiment in this workspace is a *program* that regenerates a
//! workload from scratch every run. This crate adds the complementary
//! representation: a *recording* of the I/O a run actually performed,
//! stored in a versioned on-disk format (`.tntrace`) that can be
//! replayed later — through the same disk model, under a fault profile
//! the original run never saw, or on an OS personality other than the
//! one that produced it. Three pieces:
//!
//! * [`Trace`] — the in-memory form of a recording plus codecs for the
//!   two interchangeable encodings of **`.tntrace` version 1**: a
//!   32-byte-header little-endian binary layout and a line-oriented
//!   text twin. Both are specified normatively in `docs/TRACE_FORMAT.md`;
//!   the codecs here are hand-rolled (no serde — the workspace builds
//!   offline against vendored shims only) and reject malformed input
//!   with a clean [`TraceError`] instead of panicking.
//! * [`Recorder`] — the capture shim the engine hosts. One per [`Sim`],
//!   disabled by default; disabled cost is a single relaxed atomic
//!   load per event site, and recording never advances the simulated
//!   clock, so a run with recording off is byte-identical to a build
//!   without this crate wired in at all.
//! * [`import::from_blkparse`] — an importer for `blkparse`-style text
//!   dumps of real Linux block traces, so measured workloads can be
//!   carried into the simulation.
//!
//! `reproduce replay --record <id>` runs the experiment under a
//! `tnt_sim::Instruments` capture: every machine it boots records
//! itself, and `Sim::run` hands the finished recording to the capture.
//!
//! [`Sim`]: ../tnt_sim/struct.Sim.html

pub mod format;
pub mod import;
pub mod recorder;

pub use format::{Op, Trace, TraceError, TraceEvent, FORMAT_VERSION, MAGIC};
pub use recorder::Recorder;
