//! Saturation sweep: offered load vs goodput across the five serving
//! workloads, baseline vs controlled.
//!
//! For each workload the bin probes the execution engine's capacity,
//! derives per-request deadlines from it, and sweeps offered load as
//! multiples of that capacity. Each sweep point runs twice: once as the
//! *no-control baseline* (unbounded FIFO, no deadline enforcement, naive
//! immediate retry) and once as the *controlled server* (bounded
//! deadline-aware queue, commit-point deadline aborts, budgeted backoff
//! retry). The output is the paper-style degradation curve: offered load,
//! goodput, sojourn p50/p95/p99, shed rate, timeout rate.
//!
//! `--engine` selects what executes the transactions:
//!
//! * `sim` (default) — the Silo baseline under the calibrated core model
//!   (virtual time, byte-stable);
//! * `hw` — the cycle-accurate BionicDB machine: dispatches enter
//!   transactions mid-run through `Machine::submit` between `step_until`
//!   calls (DESIGN.md §17), capacity comes from a closed preloaded wave,
//!   and the sweep additionally compares *batched admission* (front-end
//!   request groups feeding `BatchMode::CrossTxn` index waves) against
//!   unbatched dispatch at the saturation point — batching must not lose
//!   goodput, and on the index-bound YCSB mixes it must win.
//!
//! The headline claim is asserted, not just plotted: at 2x saturation the
//! controlled server must keep >= 85% of its peak goodput while the
//! baseline falls below 50% of its own peak — for the model engine *and*
//! the hardware engine. The bin exits non-zero when either side fails, so
//! `scripts/check.sh` gates on graceful degradation the same way it gates
//! on correctness.
//!
//! Both engines are virtual-time and fixed-seed, so `--json` dumps are
//! byte-stable. Full runs (no `--quick`) append per-workload
//! goodput and p99 rows to `results/bench_history.jsonl` for `benchdiff`
//! (`serve-*` keys for the model engine, `serve-hw-*` for the hardware
//! engine).
//!
//! Usage: `saturate [--quick] [--engine sim|hw] [--kind NAME] [--servers N]
//!                  [--json PATH] [--history PATH]`

use bionicdb_bench::history::{self, Entry};
use bionicdb_bench::serve::hw::{hw_config, hw_servers, probe_hw_variant, simulate_hw_variant};
use bionicdb_bench::serve::sim::{probe_service_ns, simulate};
use bionicdb_bench::serve::{ArrivalProcess, ServeConfig, ServeSummary};
use bionicdb_bench::{json::JsonOut, print_table, ArgSpec, BenchArgs};
use bionicdb_workloads::{ServeKind, ServeMix};
use std::num::NonZeroUsize;

const SPEC: ArgSpec = ArgSpec {
    bin: "saturate",
    flags: &[],
    options: &["--servers", "--kind", "--history", "--engine"],
};

/// Partition workers the hardware engine simulates (its server count is
/// `workers × max_batch` context slots, workload-dependent).
const HW_WORKERS: usize = 2;

/// What executes dispatched transactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Engine {
    /// Silo under the calibrated core model, virtual time.
    Sim,
    /// The cycle-accurate BionicDB machine.
    Hw,
}

/// One sweep point's results, kept for the degradation verdict.
struct Point {
    mult: f64,
    offered_per_sec: f64,
    baseline: ServeSummary,
    controlled: ServeSummary,
}

fn main() {
    let args = BenchArgs::from_env(&SPEC);
    let quick = args.quick();
    let engine = match args.value("--engine").unwrap_or("sim") {
        "sim" => Engine::Sim,
        "hw" => Engine::Hw,
        other => {
            eprintln!("saturate: unknown --engine {other} (want sim or hw)");
            std::process::exit(2);
        }
    };
    // Zero servers would make a zero capacity and a degenerate sweep: a
    // `NonZeroUsize` parse rejects it as a bad value (usage, exit 2).
    let servers = args
        .parsed("--servers", NonZeroUsize::new(4).expect("nonzero"))
        .get();
    let only = args.value("--kind").map(|s| {
        ServeKind::parse(s).unwrap_or_else(|| {
            eprintln!("saturate: unknown --kind {s} (want one of ycsb_c, ycsb_scan, tpcc_mixed, tpcc_payment, smallbank)");
            std::process::exit(2);
        })
    });
    let history_path = args
        .value("--history")
        .unwrap_or(history::DEFAULT_PATH)
        .to_string();

    let mults: &[f64] = if quick {
        &[0.5, 1.0, 2.0]
    } else {
        &[0.25, 0.5, 0.75, 1.0, 1.5, 2.0]
    };
    // The probe must run past the model's cache-warmup transient or it
    // overestimates steady-state service time (worst for scans) and the
    // sweep never actually overloads the server.
    let probe_txns = if quick { 400 } else { 1000 };
    // The hardware probe is a closed wave per worker; far fewer
    // transactions saturate the pipelines.
    let hw_probe_txns = if quick { 48 } else { 192 };
    // Long enough that the overloaded points reach steady state — with a
    // short run the pre-backlog transient dominates and the unbounded
    // queue's collapse is invisible. The cycle-accurate engine pays real
    // simulation work per request, so its sweeps are smaller.
    let requests = match (engine, quick) {
        (Engine::Hw, true) => 1000,
        (Engine::Hw, false) => 2500,
        (_, true) => 1500,
        (_, false) => 5000,
    };
    // Relative deadline: loose enough that an uncontended request commits
    // with lots of slack, tight enough that a backlog of a few dozen
    // requests is unservable. The sim scale is *one* mean service time;
    // the hw scale is the mean *in-system* time of a fully loaded machine
    // (already `slots` service times deep), so its multiplier is smaller
    // for the same relative tightness.
    let deadline_mults = if engine == Engine::Hw { 8.0 } else { 25.0 };

    let kinds: Vec<ServeKind> = ServeKind::ALL
        .into_iter()
        .filter(|k| only.is_none_or(|o| o == *k))
        .collect();

    let mut jout = JsonOut::from_env("saturate");
    let mut failed = false;

    for kind in kinds {
        // Probe on a private build: capacity depends on database state,
        // and every sweep run below also gets a fresh build so the fixed
        // seed is byte-stable.
        let (capacity_per_sec, scale_ns, eff_servers) = match engine {
            Engine::Sim => {
                let svc = probe_service_ns(&ServeMix::build(kind, 1), kind.seed(), probe_txns);
                (servers as f64 * 1e9 / svc, svc, servers)
            }
            Engine::Hw => {
                let p = probe_hw_variant(kind, HW_WORKERS, hw_probe_txns, false);
                (
                    p.capacity_per_sec,
                    p.mean_latency_ns,
                    hw_servers(kind, HW_WORKERS),
                )
            }
        };
        let deadline_ns = (scale_ns * deadline_mults) as u64;
        println!(
            "\n{}: scale {:.0} ns, {} servers => capacity {:.0} req/s, deadline {:.1} us",
            kind.name(),
            scale_ns,
            eff_servers,
            capacity_per_sec,
            deadline_ns as f64 / 1e3,
        );

        let run = |cfg: &ServeConfig, cross_txn: Option<usize>| match engine {
            Engine::Sim => simulate(&ServeMix::build(kind, 1), cfg),
            Engine::Hw => simulate_hw_variant(kind, HW_WORKERS, cross_txn, false, cfg),
        };

        let mut points: Vec<Point> = Vec::new();
        for &mult in mults {
            let offered = mult * capacity_per_sec;
            let arrivals = ArrivalProcess::Poisson {
                rate_per_sec: offered,
            };
            let baseline = run(
                &ServeConfig::baseline(arrivals, requests, deadline_ns, eff_servers, kind.seed()),
                None,
            );
            let controlled = run(
                &ServeConfig::controlled(arrivals, requests, deadline_ns, eff_servers, kind.seed()),
                None,
            );
            points.push(Point {
                mult,
                offered_per_sec: offered,
                baseline,
                controlled,
            });
        }

        let rows: Vec<Vec<String>> = points
            .iter()
            .flat_map(|p| {
                [("baseline", &p.baseline), ("controlled", &p.controlled)].map(|(mode, s)| {
                    vec![
                        format!("{:.2}x", p.mult),
                        mode.to_string(),
                        format!("{:.0}", p.offered_per_sec),
                        format!("{:.0}", s.goodput_per_sec()),
                        format!("{:.0}", s.sojourn.p50()),
                        format!("{:.0}", s.sojourn.p95()),
                        format!("{:.0}", s.sojourn.p99()),
                        format!("{:.1}%", s.shed_rate() * 100.0),
                        format!("{:.1}%", s.timeout_rate() * 100.0),
                    ]
                })
            })
            .collect();
        print_table(
            kind.name(),
            &[
                "load", "mode", "offered/s", "goodput/s", "p50 ns", "p95 ns", "p99 ns", "shed",
                "timeout",
            ],
            &rows,
        );

        let engine_tag = match engine {
            Engine::Sim => "sim",
            Engine::Hw => "hw",
        };
        for p in &points {
            for (mode, s) in [("baseline", &p.baseline), ("controlled", &p.controlled)] {
                let label = format!("{engine_tag}/{}/{}/x{:.2}", kind.name(), mode, p.mult);
                jout.push_raw(format!(
                    "{{\"kind\":\"{}\",\"engine\":\"{engine_tag}\",\"mode\":\"{mode}\",\
                     \"mult\":{:.2},\"offered_per_sec\":{:.3},\"svc_ns\":{:.1},\"sum\":{}}}",
                    kind.name(),
                    p.mult,
                    p.offered_per_sec,
                    scale_ns,
                    s.render_json(&label),
                ));
            }
        }

        // The degradation verdict. Peak = best goodput in the capacity
        // region (load <= 1x): degradation is measured against what the
        // server could do before saturation, not against its own
        // overloaded transient.
        let peak = |f: &dyn Fn(&Point) -> f64| {
            points
                .iter()
                .filter(|p| p.mult <= 1.0)
                .map(f)
                .fold(0.0f64, f64::max)
        };
        let at_top = points.last().expect("sweep is non-empty");
        let ctrl_peak = peak(&|p| p.controlled.goodput_per_sec());
        let base_peak = peak(&|p| p.baseline.goodput_per_sec());
        let ctrl_frac = at_top.controlled.goodput_per_sec() / ctrl_peak.max(1e-9);
        let base_frac = at_top.baseline.goodput_per_sec() / base_peak.max(1e-9);
        let ok = ctrl_frac >= 0.85 && base_frac < 0.50;
        println!(
            "  degradation @{:.1}x: controlled keeps {:.0}% of peak (need >= 85%), \
             baseline keeps {:.0}% (must be < 50%) => {}",
            at_top.mult,
            ctrl_frac * 100.0,
            base_frac * 100.0,
            if ok { "ok" } else { "FAILED" }
        );
        failed |= !ok;
        jout.push_raw(format!(
            "{{\"kind\":\"{}\",\"engine\":\"{engine_tag}\",\"mode\":\"verdict\",\
             \"ctrl_frac_of_peak\":{:.4},\"base_frac_of_peak\":{:.4},\"pass\":{}}}",
            kind.name(),
            ctrl_frac,
            base_frac,
            ok
        ));

        // Hardware engine: batched admission at the saturation point,
        // on the *chained-hash* YCSB-C variant (16-deep chains, the
        // regime the batched level-wise traversal engines exist for —
        // stock one-hop hash probes have nothing to wave). Front-end
        // groups ([`ServeConfig::with_batch`]) feed
        // `BatchMode::CrossTxn`, so flushed requests enter one
        // softcore interleaving batch and their index probes share
        // DRAM waves; the waves must beat unbatched dispatch on
        // goodput outright.
        if engine == Engine::Hw && kind == ServeKind::YcsbC {
            let width = 4usize;
            let p = probe_hw_variant(kind, HW_WORKERS, hw_probe_txns, true);
            let chain_deadline = (p.mean_latency_ns * deadline_mults) as u64;
            let mk = |seed| {
                ServeConfig::controlled(
                    ArrivalProcess::Poisson {
                        rate_per_sec: 2.0 * p.capacity_per_sec,
                    },
                    requests,
                    chain_deadline,
                    eff_servers,
                    seed,
                )
            };
            let unbatched = simulate_hw_variant(kind, HW_WORKERS, None, true, &mk(kind.seed()));
            let batched_cfg = mk(kind.seed()).with_batch(width, (chain_deadline / 8).max(1));
            let batched = simulate_hw_variant(kind, HW_WORKERS, Some(width), true, &batched_cfg);
            let (ug, bg) = (unbatched.goodput_per_sec(), batched.goodput_per_sec());
            let ok = bg > ug;
            println!(
                "  batched admission @2.0x on chained-hash ycsb_c (width {width}): \
                 {bg:.0} good/s vs {ug:.0} unbatched ({:.2}x, must beat) => {}",
                bg / ug.max(1e-9),
                if ok { "ok" } else { "FAILED" }
            );
            failed |= !ok;
            for (mode, s) in [
                ("chained_unbatched", &unbatched),
                ("chained_batched", &batched),
            ] {
                jout.push_raw(format!(
                    "{{\"kind\":\"ycsb_c_chained\",\"engine\":\"hw\",\"mode\":\"{mode}\",\
                     \"mult\":2.00,\"width\":{width},\"sum\":{}}}",
                    s.render_json(&format!("hw/ycsb_c_chained/{mode}/x2.00")),
                ));
            }
        }

        // Full virtual-time runs feed the regression history: goodput
        // under 2x overload is the gated throughput metric, the
        // overloaded sojourn p99 the gated tail metric.
        if !quick {
            let clock_hz = match engine {
                Engine::Hw => hw_config(kind, HW_WORKERS, None).fpga.clock_hz,
                _ => bionicdb_cpu_model::CpuConfig::default().clock_hz,
            };
            let key = match engine {
                Engine::Hw => format!("serve-hw-{}", kind.name()),
                _ => format!("serve-{}", kind.name()),
            };
            let mut e = Entry::basic(
                &key,
                at_top.controlled.goodput_per_sec(),
                history::now_unix(),
            );
            e.p99_ns = Some(at_top.controlled.sojourn.p99());
            e.committed_cycles = Some(at_top.controlled.good_busy_ns * clock_hz / 1_000_000_000);
            history::append(history_path.as_ref(), &e).expect("append bench history");
            println!("  appended {key} to {history_path}");
        }
    }

    jout.write();
    if failed {
        eprintln!("saturate: graceful-degradation claim FAILED (see above)");
        std::process::exit(1);
    }
    println!("\nsaturate: graceful degradation holds for every workload");
}
