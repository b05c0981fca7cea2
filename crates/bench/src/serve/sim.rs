//! Deterministic virtual-time serving for the Silo baseline: the
//! synchronous [`ServeEngine`] whose service times come from the
//! calibrated Xeon core model, driven by the engine-agnostic front end
//! in [`super::engine`].
//!
//! Events (arrivals, retries, completions) live on a binary heap keyed by
//! `(time_ns, sequence)` — the sequence number breaks ties in insertion
//! order, so the event schedule is a total order and the whole run is a
//! pure function of [`ServeConfig`]. A fixed seed therefore produces a
//! **byte-identical** [`ServeSummary::render_json`] on any host, which is
//! what the `goldencheck` serve golden pins.
//! The goldens captured before the [`ServeEngine`] extraction still pass
//! byte-for-byte: a synchronous engine makes the generic loop replay the
//! old driver's event schedule and RNG draws exactly.
//!
//! ## What is modelled
//!
//! * `servers` identical lanes drain the admission queue; each dispatched
//!   transaction runs against the *real* [`SiloDb`](bionicdb_silo::SiloDb)
//!   under one persistent [`CoreModel`] (warm caches), and its service
//!   time is the model's cycle delta converted at the configured clock.
//! * Deadline enforcement at dispatch: an expired ticket is skipped for
//!   free. Enforcement at the commit point: when a transaction's
//!   completion lands past its deadline, the commit is treated as
//!   cancelled — the server time is still spent (the body ran), but
//!   the request counts as timed out. `ServeLoop::settle` in
//!   [`super::engine`] makes that call for every engine; the Silo
//!   transaction itself carries no deadline.
//! * Client retry per [`RetryMode`](super::RetryMode), with backoff delays in virtual time.
//!
//! Transactions execute one at a time (virtual servers overlap in virtual
//! time, not on host threads), so OCC conflicts cannot arise here — abort
//! retry paths get their coverage from the hardware engine (whose
//! interleaved batches conflict for real) and unit tests. Queueing,
//! shedding, deadline and retry dynamics — the things this subsystem
//! exists to measure — are exact.

use bionicdb_cpu_model::{CoreModel, CpuConfig};
use bionicdb_workloads::ServeMix;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use super::engine::{serve_with, Dispatch, ServeEngine};
use super::queue::Ticket;
use super::{ServeConfig, ServeSummary};

/// Epoch advance period (executions), matching `silo::runner`.
const EPOCH_PERIOD: u64 = 4096;

/// Warm-up transactions before the measured run (cache warming only; the
/// virtual clock starts after).
const WARMUP: usize = 32;

/// Mean service time of `mix` under the core model, nanoseconds — the
/// capacity probe `saturate` scales offered load against. Deterministic
/// for a fixed seed.
pub fn probe_service_ns(mix: &ServeMix, seed: u64, txns: usize) -> f64 {
    let cfg = CpuConfig::default();
    let mut model = CoreModel::new(cfg.clone());
    let mut rng = SmallRng::seed_from_u64(seed);
    for i in 0..WARMUP {
        mix.run_once(&mut model, &mut rng, i);
    }
    let c0 = model.cycles();
    for i in 0..txns.max(1) {
        mix.run_once(&mut model, &mut rng, WARMUP + i);
    }
    cycles_to_ns(model.cycles() - c0, &cfg) as f64 / txns.max(1) as f64
}

fn cycles_to_ns(cycles: u64, cfg: &CpuConfig) -> u64 {
    // cycles ≪ 2^34 per transaction: the product fits u64.
    cycles * 1_000_000_000 / cfg.clock_hz
}

/// The synchronous Silo engine: dispatch runs the transaction body inline
/// against one persistent core model, so completion time and outcome are
/// known immediately ([`Dispatch::Done`]).
pub struct SiloEngine<'a> {
    mix: &'a ServeMix,
    model: CoreModel,
    cpu: CpuConfig,
    rng_txn: SmallRng,
    servers: usize,
    executed: u64,
}

impl<'a> SiloEngine<'a> {
    /// Build the engine for one run: fresh model, decorrelated
    /// transaction-parameter RNG, and the warm-up wave (cache warming
    /// only; virtual time starts after).
    pub fn new(mix: &'a ServeMix, cfg: &ServeConfig) -> SiloEngine<'a> {
        let cpu = CpuConfig::default();
        let mut model = CoreModel::new(cpu.clone());
        let mut rng_txn = SmallRng::seed_from_u64(cfg.seed ^ 0x5E7E_5E7E_5E7E_5E7E);
        for i in 0..WARMUP {
            mix.run_once(&mut model, &mut rng_txn, i);
        }
        SiloEngine {
            mix,
            model,
            cpu,
            rng_txn,
            servers: cfg.servers,
            executed: 0,
        }
    }
}

impl ServeEngine for SiloEngine<'_> {
    fn servers(&self) -> usize {
        self.servers
    }

    fn dispatch(&mut self, tk: &Ticket, now_ns: u64) -> Dispatch {
        let c0 = self.model.cycles();
        let committed = self
            .mix
            .run_once(&mut self.model, &mut self.rng_txn, tk.txn_index);
        let svc_ns = cycles_to_ns(self.model.cycles() - c0, &self.cpu).max(1);
        self.executed += 1;
        if self.executed.is_multiple_of(EPOCH_PERIOD) {
            self.mix.advance_epoch();
        }
        Dispatch::Done {
            done_ns: now_ns + svc_ns,
            committed,
            svc_ns,
        }
    }
}

/// Run one virtual-time serving scenario to completion.
pub fn simulate(mix: &ServeMix, cfg: &ServeConfig) -> ServeSummary {
    let mut engine = SiloEngine::new(mix, cfg);
    serve_with(&mut engine, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bionicdb_workloads::ServeKind;

    use crate::serve::ArrivalProcess;

    #[test]
    fn light_load_all_good_and_deterministic() {
        // The probe must run on its own build: service times depend on
        // database state, and byte-stability is defined over identically
        // prepared systems (records get deterministic virtual addresses,
        // so two fresh builds time identically).
        let svc = probe_service_ns(&ServeMix::build(ServeKind::SmallBank, 1), 1, 50);
        let cfg = ServeConfig::controlled(
            ArrivalProcess::Poisson {
                rate_per_sec: 0.25 * 1e9 / svc,
            },
            120,
            (svc * 50.0) as u64,
            2,
            42,
        );
        let a = simulate(&ServeMix::build(ServeKind::SmallBank, 1), &cfg);
        let b = simulate(&ServeMix::build(ServeKind::SmallBank, 1), &cfg);
        assert_eq!(
            a.render_json("t"),
            b.render_json("t"),
            "fixed seed must be byte-stable"
        );
        assert_eq!(a.fresh, 120);
        assert!(
            a.good >= 115,
            "at 25% load nearly everything is good: {a:?}"
        );
        assert_eq!(a.sojourn.count(), a.good);
    }

    #[test]
    fn overload_baseline_collapses_controlled_degrades_gracefully() {
        let mix = ServeMix::build(ServeKind::YcsbC, 1);
        let svc = probe_service_ns(&mix, 1, 50);
        let servers = 2;
        let deadline = (svc * 25.0) as u64;
        // 2x saturation for 400 fresh requests.
        let arrivals = ArrivalProcess::Poisson {
            rate_per_sec: 2.0 * servers as f64 * 1e9 / svc,
        };
        let base = simulate(
            &mix,
            &ServeConfig::baseline(arrivals, 400, deadline, servers, 7),
        );
        let ctrl = simulate(
            &mix,
            &ServeConfig::controlled(arrivals, 400, deadline, servers, 7),
        );
        // The baseline queue grows without bound: most completions land
        // past the deadline, goodput collapses.
        assert!(
            base.late > base.good,
            "unbounded FIFO at 2x must mostly miss deadlines: {base:?}"
        );
        // The controlled server sheds instead of queueing: what it admits
        // it commits in time, so goodput stays near capacity.
        assert!(
            ctrl.good > 2 * base.good.max(1),
            "controlled goodput {} vs baseline {}",
            ctrl.good,
            base.good
        );
        assert!(ctrl.rejected + ctrl.dropped_expired > 0, "overload sheds");
        assert!(
            ctrl.queue_high_water <= ctrl.fresh,
            "bounded queue stayed bounded"
        );
    }

    #[test]
    fn batched_dispatch_conserves_ledger_on_silo_too() {
        // Batching is engine-agnostic plumbing: even against the
        // synchronous Silo engine (where grouping buys nothing — bodies
        // still run one at a time in virtual time) the staged dispatcher
        // must flush everything and keep the terminal ledger conserved.
        let svc = probe_service_ns(&ServeMix::build(ServeKind::SmallBank, 1), 1, 50);
        let cfg = ServeConfig::controlled(
            ArrivalProcess::Poisson {
                rate_per_sec: 0.9 * 2.0 * 1e9 / svc,
            },
            150,
            (svc * 40.0) as u64,
            4,
            13,
        )
        .with_batch(3, (svc * 4.0) as u64);
        let sum = simulate(&ServeMix::build(ServeKind::SmallBank, 1), &cfg);
        assert_eq!(sum.fresh, 150);
        sum.assert_conserved(); // engines assert too; explicit for clarity
        assert!(sum.good > 0);
        // Determinism holds with batching enabled.
        let again = simulate(&ServeMix::build(ServeKind::SmallBank, 1), &cfg);
        assert_eq!(sum.render_json("b"), again.render_json("b"));
    }
}
