//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Simulates one workload's serving runs once, then repeats timed passes
//! until about `S` seconds have passed, checks the outputs, prints every
//! metric by name and unit, and ends with one JSON line: end-to-end
//! metrics untraced, per-layer metrics traced. See `perfbench/README.md`.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use perfbench::catalogue::{per_layer, END_TO_END};
use perfbench::pass::{self, HostPass};
use perfbench::pct::rank;
use perfbench::record;
use perfbench::trace::Spans;
use perfbench::workload::{self, Spec, SPECS};

/// Where traces and determinism records go, inside the benchmark's own
/// directory.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// Timed passes every run makes at least, whatever its time budget.
const MIN_PASSES: usize = 3;

/// Set-ups timed on their own at the start of a run and after every
/// plain pass, beside those of the passes. Other tenants slow the host in
/// phases of seconds, so set-up is sampled across the whole run.
const SETUP_REPS: usize = 5;

struct Args {
    spec: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut map = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if ["--workload", "--seed", "--seconds", "--trace"].contains(&k.as_str()) => {
                map.insert(k.as_str(), v.as_str());
            }
            _ => return Err(format!("unexpected arguments {pair:?}")),
        }
    }
    let get = |k: &str| map.get(k).copied().ok_or(format!("missing {k}"));
    let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
    let name = get("--workload")?;
    Ok(Args {
        spec: workload::spec(name).ok_or(format!("unknown workload {name} (one of {names:?})"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace takes 0 or 1, not {t}")),
        },
    })
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The lower quartile (nearest rank) of identical passes' host times.
/// Other tenants of a shared host only ever slow a pass down, so the
/// fast quarter of many repetitions estimates the pass's own cost far
/// more steadily than their median does.
fn lower_quartile(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[rank(25.0, v.len() as u64) as usize - 1]
}

/// Peak resident set of this process, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn run() -> Result<String, String> {
    let a = parse_args()?;
    let spec = &a.spec;
    let start = Instant::now();
    let time_setups = |setups: &mut Vec<f64>| {
        setups.extend((0..SETUP_REPS).map(|_| pass::setup_only(spec, a.seed)));
    };
    let mut setups: Vec<f64> = Vec::new();
    time_setups(&mut setups);
    let sim = pass::simulate(spec, a.seed)?;
    let sim_s = start.elapsed().as_secs_f64();

    // Timed passes until the next one would overrun the budget. Traced
    // runs alternate plain and traced passes so the tracing overhead
    // compares passes made under the same conditions.
    let mut plain: Vec<HostPass> = Vec::new();
    let mut traced: Vec<(HostPass, Spans)> = Vec::new();
    let passes_start = Instant::now();
    loop {
        if a.trace && plain.len() > traced.len() {
            let mut spans = Spans::new();
            let p = pass::host_pass(spec, a.seed, Some(&mut spans))?;
            traced.push((p, spans));
        } else {
            plain.push(pass::host_pass(spec, a.seed, None)?);
            time_setups(&mut setups);
        }
        let done = plain.len() + traced.len();
        let per_pass = passes_start.elapsed().as_secs_f64() / done as f64;
        let enough = plain.len() >= MIN_PASSES && (!a.trace || !traced.is_empty());
        if enough && start.elapsed().as_secs_f64() + per_pass > a.seconds {
            break;
        }
    }
    pass::check_against_public_drivers(spec, a.seed, &plain[0])?;

    // Determinism: every pass, plain or traced, reproduces the first
    // byte for byte; and this run agrees with earlier runs of the same
    // build on every simulated number both measured.
    let first = &plain[0];
    let all = || plain.iter().chain(traced.iter().map(|(p, _)| p));
    if all().any(|p| p.fingerprint != first.fingerprint || p.layer != first.layer) {
        return Err(format!("{}: simulated results differ between passes", spec.name));
    }
    if traced.iter().any(|(t, _)| t.traced_sim != traced[0].0.traced_sim) {
        return Err(format!("{}: traced simulated metrics differ between passes", spec.name));
    }
    let mut sim_values: Vec<(String, f64)> =
        sim.e2e.iter().map(|&(n, v)| (n.to_string(), v)).collect();
    sim_values.extend(sim.layer.iter().cloned());
    sim_values.extend(first.layer.iter().cloned());
    sim_values.push((
        "fingerprint".into(),
        f64::from_bits(record::fnv1a(format!("{}{}", sim.fingerprint, first.fingerprint).as_bytes())),
    ));
    if let Some((t, _)) = traced.first() {
        sim_values.extend(t.traced_sim.iter().cloned());
    }
    record::check_and_record(Path::new(OUT_DIR), spec.name, a.seed, &sim_values)?;

    let plain_host = lower_quartile(plain.iter().map(|p| p.clocks.host_s).collect());
    setups.extend(plain.iter().map(|p| p.clocks.setup_s));
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if !a.trace {
        let sims: BTreeMap<&str, f64> = sim.e2e.iter().copied().collect();
        for (name, unit) in END_TO_END {
            let v = match name {
                "setup_s" => median(setups.clone()),
                "peak_rss_mb" => peak_rss_mb()?,
                _ => sims[name],
            };
            metrics.push((name.to_string(), v, unit));
        }
    } else {
        let mut vals: BTreeMap<String, f64> = sim_values.into_iter().collect();
        vals.insert("host_s".into(), plain_host);
        let totals: Vec<_> = traced.iter().map(|(_, s)| s.totals()).collect();
        let span_median = |name: &str, self_time: bool| {
            median(
                totals
                    .iter()
                    .map(|t| t.get(name).map_or(0.0, |&(all, own, _)| if self_time { own } else { all }))
                    .collect(),
            )
        };
        vals.insert("serve.self_host_s".into(), span_median("serve.run", true));
        for (metric, span) in [
            ("engine.dispatch_host_s", "engine.dispatch"),
            ("engine.advance_host_s", "engine.advance"),
            ("workloads.build_host_s", "workloads.build"),
            ("workloads.submit_host_s", "workloads.submit"),
            ("core.run_host_s", "core.run"),
        ] {
            vals.insert(metric.into(), span_median(span, false));
        }
        vals.insert(
            "par.barrier_idle_frac".into(),
            median(traced.iter().filter_map(|(p, _)| p.barrier_idle_frac).collect()),
        );
        let traced_host = lower_quartile(traced.iter().map(|(p, _)| p.clocks.host_s).collect());
        vals.insert("trace.overhead_s".into(), traced_host - plain_host);
        for (name, unit) in per_layer() {
            let v = *vals.get(&name).ok_or(format!("per-layer metric {name} not measured"))?;
            metrics.push((name, v, unit));
        }
        let (_, spans) = traced.last().expect("a traced pass");
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
        let path = format!("{OUT_DIR}/{}-seed{}.trace.json", spec.name, a.seed);
        std::fs::write(&path, spans.chrome_json()).map_err(|e| format!("{path}: {e}"))?;
        println!("chrome trace of one traced pass: {path} ({} spans)", spans.spans().len());
    }

    println!(
        "{} seed {}: simulated in {sim_s:.1} s, then {} plain + {} traced passes; \
         plain pass host_s {:?}; {:.1} s in all",
        spec.name,
        a.seed,
        plain.len(),
        traced.len(),
        plain.iter().map(|p| (p.clocks.host_s * 1e3).round() / 1e3).collect::<Vec<_>>(),
        start.elapsed().as_secs_f64()
    );
    let mut json = Vec::new();
    for (name, v, unit) in &metrics {
        if !v.is_finite() {
            return Err(format!("{name} is not finite: {v}"));
        }
        println!("  {name:<36} {v:>16.4} {unit}");
        json.push(format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"));
    }
    Ok(format!(
        "{{\"correct\":true,\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        sim.nominal_fresh,
        sim.nominal_failed,
        json.join(",")
    ))
}

fn main() {
    match run() {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
