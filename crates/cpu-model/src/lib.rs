//! A trace-driven CPU timing model for the software baseline.
//!
//! The paper compares BionicDB against Silo running on four Xeon E7-4807
//! chips (paper §5.2). We cannot run on that 2011 machine, so the benchmark
//! harness times the software engine in *model time*: the software index
//! structures emit their memory accesses into this crate's cache-hierarchy
//! simulator, which charges latencies with the paper's own constants
//! (Table 3: L3 ≈ 20 ns, DDR3 ≈ 80 ns; §5.2: 32 KB L1, 256 KB L2, 18 MB
//! shared L3, 1.87 GHz).
//!
//! The central argument of the paper — that OLTP on CPUs is bound by
//! *dependent pointer chasing* that the limited instruction window cannot
//! overlap (§3.1) — is modelled directly:
//!
//! * accesses inside one **chain** (one index probe) are fully dependent and
//!   their latencies add up;
//! * chains inside one **group** are independent, and the core may overlap
//!   up to [`CpuConfig::mlp`] of them (the out-of-order window bound);
//!   a group with a single chain (data-dependent transactions like TPC-C
//!   Payment) gets no overlap at all.
//!
//! The engine code is generic over the [`Tracer`] trait; the wall-clock
//! benchmarks instantiate it with [`NullTracer`] (zero overhead), the
//! paper-figure harness with [`CoreModel`].

#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod model;

pub use cache::Cache;
pub use config::CpuConfig;
pub use model::{CoreModel, NullTracer, Tracer};
