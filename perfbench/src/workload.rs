//! The benchmark's workloads and the measured pass each run repeats.
//!
//! Every rate, latency limit, deadline and size below is an absolute
//! number fixed here (and listed in `perfbench/README.md`), never derived
//! from a capacity probe at run time: a change that raised capacity would
//! otherwise also raise the offered load and read as a latency
//! regression.

use std::time::Instant;

use bionicdb_bench::serve::hw::{hw_servers, BionicServeEngine};
use bionicdb_bench::serve::engine::serve_with;
use bionicdb_bench::serve::{ArrivalProcess, ServeConfig, ServeSummary};
use bionicdb_workloads::ServeKind;

use crate::pct::{allowed_misses, search_capacity, Capacity, Tail};
use crate::timed::Timed;
use crate::trace::{span, Spans};

/// Partition workers of every serving machine.
pub const WORKERS: usize = 2;

/// The percentile the latency limit applies to.
pub const LIMIT_PCT: f64 = 99.0;

/// One serving workload: the machine, the traffic, and its fixed rates.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Workload name (`--workload`).
    pub name: &'static str,
    /// Transaction mix.
    pub kind: ServeKind,
    /// Serve YCSB-C on the 128-bucket long-chain hash table.
    pub chained: bool,
    /// Front-end batch width, which also arms `BatchMode::CrossTxn` at
    /// that wave width (`None`: unbatched, `BatchMode::Off`).
    pub batch: Option<usize>,
    /// Age at which a non-full front-end batch flushes, ns.
    pub batch_flush_ns: u64,
    /// Relative deadline per request, ns (enforced at the commit point).
    pub deadline_ns: u64,
    /// The p99 sojourn limit capacity is measured against, ns.
    pub limit_ns: u64,
    /// Capacity search floor, which must meet the limit (txn/s).
    pub floor_tps: f64,
    /// Capacity search ceiling, which must miss it (txn/s).
    pub ceiling_tps: f64,
    /// Bisection steps between floor and ceiling.
    pub search_steps: u32,
    /// Fresh requests per capacity-search run.
    pub search_requests: usize,
    /// Nominal rate, about 0.7 of today's capacity (txn/s).
    pub nominal_tps: f64,
    /// Fresh requests of the nominal-rate run.
    pub nominal_requests: usize,
    /// Light rate, about a quarter of today's capacity (txn/s).
    pub light_tps: f64,
    /// Fresh requests of the light-rate run.
    pub light_requests: usize,
    /// Overload rate, about twice today's capacity (txn/s).
    pub overload_tps: f64,
    /// Fresh requests of the overload-rate run.
    pub overload_requests: usize,
    /// Fresh requests of each timed pass's nominal-rate run.
    pub pass_requests: usize,
    /// Transactions per worker in the closed-loop replica wave.
    pub wave_txns: usize,
    /// Independent serving runs pooled into every simulated measurement
    /// (each with the per-run request count above).
    pub shards: u64,
}

/// The benchmark's workloads.
pub const SPECS: [Spec; 3] = [
    Spec {
        name: "ycsb_serve",
        kind: ServeKind::YcsbC,
        chained: false,
        batch: None,
        batch_flush_ns: 0,
        deadline_ns: 400_000,
        limit_ns: 100_000,
        floor_tps: 150_000.0,
        ceiling_tps: 450_000.0,
        search_steps: 5,
        search_requests: 6_000,
        nominal_tps: 210_000.0,
        nominal_requests: 15_000,
        light_tps: 75_000.0,
        light_requests: 6_000,
        overload_tps: 600_000.0,
        overload_requests: 2_000,
        pass_requests: 1_000,
        wave_txns: 192,
        shards: 2,
    },
    Spec {
        name: "tpcc_serve",
        kind: ServeKind::TpccMixed,
        chained: false,
        batch: None,
        batch_flush_ns: 0,
        deadline_ns: 400_000,
        limit_ns: 200_000,
        floor_tps: 20_000.0,
        ceiling_tps: 150_000.0,
        search_steps: 5,
        search_requests: 1_500,
        nominal_tps: 50_000.0,
        nominal_requests: 4_000,
        light_tps: 18_000.0,
        light_requests: 4_000,
        overload_tps: 145_000.0,
        overload_requests: 1_500,
        pass_requests: 1_000,
        wave_txns: 192,
        shards: 3,
    },
    Spec {
        name: "ycsb_chained_batched_serve",
        kind: ServeKind::YcsbC,
        chained: true,
        batch: Some(4),
        batch_flush_ns: 10_000,
        deadline_ns: 1_500_000,
        limit_ns: 200_000,
        floor_tps: 60_000.0,
        ceiling_tps: 160_000.0,
        search_steps: 5,
        search_requests: 1_500,
        nominal_tps: 75_000.0,
        nominal_requests: 8_000,
        light_tps: 28_000.0,
        light_requests: 1_500,
        overload_tps: 226_000.0,
        overload_requests: 1_000,
        pass_requests: 1_000,
        wave_txns: 192,
        shards: 3,
    },
];

/// Look a workload up by name.
pub fn spec(name: &str) -> Option<Spec> {
    SPECS.into_iter().find(|s| s.name == name)
}

impl Spec {
    /// The controlled-admission serving configuration: `requests` fresh
    /// Poisson arrivals at `rate`.
    pub fn config(&self, rate: f64, requests: usize, seed: u64) -> ServeConfig {
        let cfg = ServeConfig::controlled(
            ArrivalProcess::Poisson { rate_per_sec: rate },
            requests,
            self.deadline_ns,
            hw_servers(self.kind, WORKERS),
            seed,
        );
        match self.batch {
            Some(width) => cfg.with_batch(width, self.batch_flush_ns),
            None => cfg,
        }
    }

    /// Build the serving engine for `cfg`.
    pub fn engine(&self, cfg: &ServeConfig) -> BionicServeEngine {
        BionicServeEngine::new_variant(self.kind, WORKERS, self.batch, self.chained, cfg)
    }
}

/// One serving run's ledger and per-request records.
pub struct ServeRun {
    /// The front end's conserved ledger.
    pub sum: ServeSummary,
    /// Sojourns over every offered request, failures as misses.
    pub tail: Tail,
    /// Admission waits of first attempts, ns.
    pub admit_wait: Tail,
    /// Service times of every execution, ns.
    pub service: Tail,
    /// `advance` calls the front end made.
    pub advance_calls: u64,
}

impl ServeRun {
    /// Pool independent runs at one rate: ledgers add up (queue high
    /// water is the deepest), records concatenate.
    pub fn pool(runs: Vec<ServeRun>) -> ServeRun {
        let mut sum = ServeSummary::new();
        let (mut tails, mut admits, mut services) = (Vec::new(), Vec::new(), Vec::new());
        let mut advance_calls = 0;
        for r in runs {
            let s = &r.sum;
            sum.fresh += s.fresh;
            sum.retries += s.retries;
            sum.executed += s.executed;
            sum.good += s.good;
            sum.late += s.late;
            sum.timed_out += s.timed_out;
            sum.shed += s.shed;
            sum.aborted += s.aborted;
            sum.rejected += s.rejected;
            sum.dropped_expired += s.dropped_expired;
            sum.evicted += s.evicted;
            sum.queue_high_water = sum.queue_high_water.max(s.queue_high_water);
            sum.horizon_ns += s.horizon_ns;
            sum.busy_ns += s.busy_ns;
            sum.good_busy_ns += s.good_busy_ns;
            sum.sojourn.merge(&s.sojourn);
            tails.push(r.tail);
            admits.push(r.admit_wait);
            services.push(r.service);
            advance_calls += r.advance_calls;
        }
        sum.assert_conserved();
        ServeRun {
            sum,
            tail: Tail::pool(tails),
            admit_wait: Tail::pool(admits),
            service: Tail::pool(services),
            advance_calls,
        }
    }
}

/// The seed of shard `shard` of a measurement seeded `seed` (shard 0
/// keeps the seed itself).
pub fn shard_seed(seed: u64, shard: u64) -> u64 {
    seed ^ shard.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Serve `spec.shards` independent runs of `requests` at `rate`, pooled.
pub fn serve_pooled(spec: &Spec, rate: f64, requests: usize, seed: u64) -> ServeRun {
    let clocks = &mut Clocks::default();
    ServeRun::pool(
        (0..spec.shards)
            .map(|k| serve(spec, rate, requests, shard_seed(seed, k), clocks, &mut None))
            .collect(),
    )
}

/// Wall-clock accounting of one pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct Clocks {
    /// Building engines and machines, loading their databases.
    pub setup_s: f64,
    /// The timed part: serving runs and replica waves.
    pub host_s: f64,
}

/// Build an engine at `rate` and serve one run through the recording
/// wrapper, checking that the wrapper saw exactly the front end's good
/// commits.
pub fn serve(
    spec: &Spec,
    rate: f64,
    requests: usize,
    seed: u64,
    clocks: &mut Clocks,
    spans: &mut Option<&mut Spans>,
) -> ServeRun {
    let cfg = spec.config(rate, requests, seed);
    let t = Instant::now();
    let engine = span(spans, "workloads.build", || spec.engine(&cfg));
    clocks.setup_s += t.elapsed().as_secs_f64();

    let t = Instant::now();
    let run_span = spans.as_deref_mut().map(|s| s.open("serve.run"));
    let mut timed = Timed::new(engine, spans.as_deref_mut());
    let sum = serve_with(&mut timed, &cfg);
    let (good, advance_calls) = (timed.good(), timed.advance_calls);
    let (sojourn, admit, service) = (
        std::mem::take(&mut timed.good_sojourn_ns),
        std::mem::take(&mut timed.admit_wait_ns),
        std::mem::take(&mut timed.service_ns),
    );
    drop(timed);
    if let (Some(s), Some(id)) = (spans.as_deref_mut(), run_span) {
        s.close(id, format!("\"rate\":{rate:.1},\"fresh\":{}", sum.fresh));
    }
    clocks.host_s += t.elapsed().as_secs_f64();

    sum.assert_conserved();
    assert_eq!(
        good, sum.good,
        "{}: the wrapper's in-deadline commits must equal the ledger's good count",
        spec.name
    );
    ServeRun {
        tail: Tail::new(sojourn, sum.fresh - sum.good),
        admit_wait: Tail::new(admit, 0),
        service: Tail::new(service, 0),
        advance_calls,
        sum,
    }
}

/// The capacity search over pooled serving runs, appending each probe's
/// ledger to `fingerprint`.
pub fn capacity(spec: &Spec, seed: u64, fingerprint: &mut String) -> Result<Capacity, String> {
    let allowed = allowed_misses(LIMIT_PCT, spec.search_requests as u64 * spec.shards);
    search_capacity(spec.floor_tps, spec.ceiling_tps, spec.search_steps, allowed, |rate| {
        let run = serve_pooled(spec, rate, spec.search_requests, seed);
        fingerprint.push_str(&run.sum.render_json(&format!("search/{rate:.3}")));
        run.tail.misses(spec.limit_ns)
    })
    .map_err(|e| format!("{}: capacity search out of range: {e:?}", spec.name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bionicdb_bench::serve::hw::simulate_hw_variant;

    /// The recording wrapper changes nothing: over it, the front end
    /// renders the same ledger as the public hardware driver, and the
    /// wrapper counts exactly the ledger's in-deadline commits.
    #[test]
    fn wrapper_is_transparent_on_every_workload() {
        for spec in SPECS {
            let (rate, requests, seed) = (spec.nominal_tps, 300, 7);
            let run = serve(&spec, rate, requests, seed, &mut Clocks::default(), &mut None);
            let cfg = spec.config(rate, requests, seed);
            let direct = simulate_hw_variant(spec.kind, WORKERS, spec.batch, spec.chained, &cfg);
            assert_eq!(run.sum.render_json("x"), direct.render_json("x"), "{}", spec.name);

            let mut timed = Timed::new(spec.engine(&cfg), None);
            let sum = serve_with(&mut timed, &cfg);
            assert_eq!(timed.good(), sum.good, "{}", spec.name);
            assert_eq!(run.tail.n(), sum.fresh, "every offered request is a sample");
        }
    }

    #[test]
    fn rates_are_ordered_and_inside_the_search_range() {
        for s in SPECS {
            assert!(s.light_tps < s.nominal_tps && s.nominal_tps < s.overload_tps, "{}", s.name);
            assert!(s.floor_tps < s.nominal_tps && s.nominal_tps < s.ceiling_tps, "{}", s.name);
            assert!(s.limit_ns < s.deadline_ns, "{}", s.name);
            let pooled = [s.search_requests, s.nominal_requests, s.light_requests];
            for n in pooled.map(|n| n as u64 * s.shards).into_iter().chain([s.pass_requests as u64]) {
                assert!(n >= 1000, "{}: p99 needs ten samples beyond it", s.name);
            }
        }
    }
}
