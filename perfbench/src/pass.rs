//! The two halves of a run.
//!
//! * [`simulate`] measures everything simulated once: the capacity
//!   search and the light, nominal and overload serving runs. Simulated
//!   time repeats exactly, so once is enough.
//! * [`host_pass`] is the timed unit a run repeats for host-time medians:
//!   a nominal-rate serving run and the closed-loop replica wave, each
//!   built from scratch. Every repetition must reproduce the first
//!   byte for byte.

use std::time::Instant;

use bionicdb_bench::serve::hw::{probe_hw_variant, simulate_hw_variant};

use crate::layers;
use crate::pct::Tail;
use crate::replica::{self, EventSink};
use crate::trace::{span, Spans};
use crate::workload::{self, Clocks, Spec, LIMIT_PCT, WORKERS};

/// Simulation threads of the epoch-parallel replica wave (the host's
/// CPU count the benchmark is sized for).
pub const PAR_THREADS: usize = 2;

/// Every simulated metric of the serving runs.
pub struct Simulated {
    /// End-to-end metrics, in `catalogue::END_TO_END` order.
    pub e2e: Vec<(&'static str, f64)>,
    /// Per-layer metrics of the front end and engine.
    pub layer: Vec<(String, f64)>,
    /// Every serving run's ledger, byte-exact.
    pub fingerprint: String,
    /// Fresh requests offered at the nominal rate.
    pub nominal_fresh: u64,
    /// Of those, requests that failed (shed, timed out, aborted, late).
    pub nominal_failed: u64,
}

fn us(ns: Option<u64>) -> f64 {
    ns.map_or(f64::INFINITY, |v| v as f64 / 1e3)
}

/// The exact sojourn percentile `p` in µs. It must have ten samples
/// beyond it and land on a success.
fn sojourn_us(tail: &Tail, p: f64, what: &str, spec: &Spec) -> Result<f64, String> {
    match tail.reportable(p) {
        Ok(Some(ns)) => Ok(ns as f64 / 1e3),
        Ok(None) => Err(format!("{}: {what} lands on a failed request", spec.name)),
        Err(e) => Err(format!("{}: {what}: {e}", spec.name)),
    }
}

/// Run the capacity search and the three fixed-rate serving runs.
pub fn simulate(spec: &Spec, seed: u64) -> Result<Simulated, String> {
    let mut fingerprint = String::new();
    let cap = workload::capacity(spec, seed, &mut fingerprint)?;
    let nominal = workload::serve_pooled(spec, spec.nominal_tps, spec.nominal_requests, seed);
    let light = workload::serve_pooled(spec, spec.light_tps, spec.light_requests, seed);
    let over = workload::serve_pooled(spec, spec.overload_tps, spec.overload_requests, seed);
    for (label, run) in [("nominal", &nominal), ("light", &light), ("overload", &over)] {
        fingerprint.push_str(&run.sum.render_json(label));
    }

    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    Ok(Simulated {
        e2e: vec![
            ("capacity_tps", cap.rate),
            ("p50_us", sojourn_us(&nominal.tail, 50.0, "nominal p50", spec)?),
            ("p99_us", sojourn_us(&nominal.tail, LIMIT_PCT, "nominal p99", spec)?),
            ("light_p99_us", sojourn_us(&light.tail, LIMIT_PCT, "light p99", spec)?),
            ("overload_goodput_tps", over.sum.goodput_per_sec()),
        ],
        layer: vec![
            ("serve.admit_wait_p50_us".into(), us(nominal.admit_wait.percentile(50.0))),
            ("serve.admit_wait_p99_us".into(), us(nominal.admit_wait.percentile(99.0))),
            ("serve.queue_high_water".into(), nominal.sum.queue_high_water as f64),
            ("serve.failed_frac".into(), ratio(nominal.tail.failed(), nominal.sum.fresh)),
            ("serve.good_per_executed".into(), ratio(over.sum.good, over.sum.executed)),
            ("serve.retries_per_fresh".into(), ratio(over.sum.retries, over.sum.fresh)),
            ("engine.service_p50_us".into(), us(nominal.service.percentile(50.0))),
            ("engine.service_p99_us".into(), us(nominal.service.percentile(99.0))),
            (
                "engine.advance_calls_per_req".into(),
                ratio(nominal.advance_calls, nominal.sum.fresh),
            ),
        ],
        fingerprint,
        nominal_fresh: nominal.sum.fresh,
        nominal_failed: nominal.tail.failed(),
    })
}

/// One timed pass.
pub struct HostPass {
    /// Host clocks.
    pub clocks: Clocks,
    /// The serving run's ledger and the replica's report, byte-exact.
    pub fingerprint: String,
    /// The serving run's ledger alone, for the wrapper check.
    pub ledger: String,
    /// Replica-wave per-layer metrics (softcore, coprocessor, NoC, DRAM).
    pub layer: Vec<(String, f64)>,
    /// Traced passes only: exact softcore phases and the epoch-parallel
    /// scheduler's counters (simulated).
    pub traced_sim: Vec<(String, f64)>,
    /// Traced passes only: share of the epoch-parallel wave's lane wall
    /// time spent waiting at barriers (host-measured).
    pub barrier_idle_frac: Option<f64>,
}

/// Serve `pass_requests` at the nominal rate and run the replica wave,
/// building both from scratch; with `spans`, trace the pass.
pub fn host_pass(spec: &Spec, seed: u64, mut spans: Option<&mut Spans>) -> Result<HostPass, String> {
    let traced = spans.is_some();
    let sp = &mut spans;
    let mut clocks = Clocks::default();
    let run = workload::serve(spec, spec.nominal_tps, spec.pass_requests, seed, &mut clocks, sp);
    let ledger = run.sum.render_json("pass");

    let t = Instant::now();
    let mut w = span(sp, "workloads.build", || {
        replica::build(spec.kind, WORKERS, spec.batch, spec.chained)
    });
    clocks.setup_s += t.elapsed().as_secs_f64();
    let sink = EventSink::default();
    if traced {
        w.machine().set_trace_sink(Box::new(sink.clone()));
    }
    let t = Instant::now();
    let wave = replica::run_wave(&mut *w, spec.wave_txns, seed, sp);
    clocks.host_s += t.elapsed().as_secs_f64();
    let report_json = wave.report.to_json();

    let mut layer = vec![("replica.wave_tps".to_string(), wave.tps())];
    layer.extend(layers::from_report(&wave.report)?);

    let mut traced_sim = Vec::new();
    let mut barrier_idle_frac = None;
    if traced {
        traced_sim.extend(layers::from_events(&sink.0.lock().expect("event sink")));
        // The same wave through the epoch-parallel scheduler: identical
        // report required, scheduler activity recorded. Outside the
        // timed part; the serving workloads themselves run serially.
        let par = span(sp, "par.wave", || {
            let mut w = replica::build(spec.kind, WORKERS, spec.batch, spec.chained);
            replica::run_par_wave(&mut *w, spec.wave_txns, seed, PAR_THREADS, &mut None)
        });
        if par.wave.report.to_json() != report_json {
            return Err(format!(
                "{}: the {PAR_THREADS}-thread replica wave's report differs from the serial one",
                spec.name
            ));
        }
        traced_sim.extend([
            ("par.epoch_rounds".into(), par.epoch_rounds as f64),
            ("par.lane_ticks".into(), par.lane_ticks as f64),
            ("par.lane_skips".into(), par.lane_skips as f64),
            ("par.epoch_len_p50_cycles".into(), par.epoch_len_p50),
        ]);
        barrier_idle_frac = Some(par.barrier_idle_frac);
    }

    Ok(HostPass {
        clocks,
        fingerprint: format!("{ledger}{report_json}"),
        ledger,
        layer,
        traced_sim,
        barrier_idle_frac,
    })
}

/// Build what a pass builds, the serving engine and the replica, and
/// drop both; returns the seconds the builds took.
pub fn setup_only(spec: &Spec, seed: u64) -> f64 {
    let cfg = spec.config(spec.nominal_tps, spec.pass_requests, seed);
    let t = Instant::now();
    let built = (spec.engine(&cfg), replica::build(spec.kind, WORKERS, spec.batch, spec.chained));
    let secs = t.elapsed().as_secs_f64();
    drop(built);
    secs
}

/// Checks made once per process, outside the timed passes.
///
/// * The recording wrapper is transparent: the front end over the wrapped
///   engine renders the same ledger as `simulate_hw_variant`.
/// * The replica driver is the probe's procedure: run with the
///   workload's own seed and no batching, it reproduces
///   `probe_hw_variant`'s committed throughput bit for bit.
pub fn check_against_public_drivers(spec: &Spec, seed: u64, pass: &HostPass) -> Result<(), String> {
    let cfg = spec.config(spec.nominal_tps, spec.pass_requests, seed);
    let direct = simulate_hw_variant(spec.kind, WORKERS, spec.batch, spec.chained, &cfg);
    if direct.render_json("pass") != pass.ledger {
        return Err(format!(
            "{}: the wrapped engine's ledger differs from simulate_hw_variant's:\n  {}\n  {}",
            spec.name,
            pass.ledger,
            direct.render_json("pass")
        ));
    }
    let mut w = replica::build(spec.kind, WORKERS, None, spec.chained);
    let own_seed = w.seed();
    let wave = replica::run_wave(&mut *w, spec.wave_txns, own_seed, &mut None);
    let probe = probe_hw_variant(spec.kind, WORKERS, spec.wave_txns, spec.chained);
    if wave.tps().to_bits() != probe.capacity_per_sec.to_bits() {
        return Err(format!(
            "{}: replica wave {} txn/s != probe_hw_variant {} txn/s",
            spec.name,
            wave.tps(),
            probe.capacity_per_sec
        ));
    }
    Ok(())
}
