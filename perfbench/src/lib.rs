//! The repository benchmark: latency-limited serving capacity of the
//! simulated BionicDB hardware, plus the simulator's own host cost,
//! attributed per layer. See `perfbench/README.md`.

pub mod catalogue;
pub mod layers;
pub mod pass;
pub mod pct;
pub mod record;
pub mod replica;
pub mod timed;
pub mod trace;
pub mod workload;
