//! Memory-access traces and synthetic trace generation.
//!
//! The XOR-indexing study is trace-driven: a program's memory behaviour is
//! captured as a sequence of addresses, profiled once, and then replayed
//! against candidate cache-index functions. This crate provides:
//!
//! * [`TraceRecord`] / [`AccessKind`] — one memory reference (instruction
//!   fetch, load or store) at a byte address;
//! * [`Trace`] — an owned access sequence plus the executed-operation count
//!   needed for the paper's misses-per-K-uop metric, with views that select
//!   the data side or the instruction side;
//! * [`TraceBuilder`] — the sink that instrumented workload kernels write
//!   their references into;
//! * [`generators`] — parameterized synthetic access patterns (strides,
//!   matrix walks, pointer chases, gather/scatter) used by unit tests and by
//!   the quickstart example;
//! * [`instr`] — a lightweight static-CFG model that synthesizes instruction
//!   fetch streams (loops, calls, straight-line code) for the instruction-cache
//!   half of the paper's Table 2;
//! * [`stats`] — footprint, stride and reuse-distance statistics of a trace.
//!
//! # Example
//!
//! ```
//! use memtrace::{AccessKind, TraceBuilder};
//!
//! let mut t = TraceBuilder::new("example");
//! for i in 0..16u64 {
//!     t.load(0x1000 + 8 * i);   // stride-8 stream
//!     t.store(0x8000 + 4 * i);  // stride-4 stream
//! }
//! let trace = t.finish();
//! assert_eq!(trace.len(), 32);
//! assert_eq!(trace.records().filter(|r| r.kind == AccessKind::Store).count(), 16);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod record;
mod trace;

pub mod generators;
pub mod instr;
pub mod stats;

pub use record::{AccessKind, TraceRecord};
pub use trace::{Trace, TraceBuilder};

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Trace>();
        assert_send_sync::<TraceRecord>();
        assert_send_sync::<TraceBuilder>();
    }
}
