//! Byte-identity gate: every fixed-seed golden and every "variant must
//! equal reference" contract of the repo, in one table of named checks.
//!
//! | check      | golden file             | also asserts |
//! |------------|-------------------------|--------------|
//! | `threads`  | —                       | 2 sim threads ≡ serial fast-forward report: YCSB and SmallBank preloaded, YCSB streamed |
//! | `workload` | `workload_goldens.json` | SmallBank strict ≡ fast-forward ≡ epoch-parallel ≡ rerun; chaos crash recovery and NoC drops |
//! | `serve`    | `serve_golden.json`     | Silo serving matrix ≡ its rerun; rows are valid JSON |
//! | `serve_hw` | `serve_hw_golden.json`  | hardware serving matrix ≡ its rerun; rows are valid JSON; ledgers conserved; the TPC-C row retries aborts, not sheds |
//! | `batch`    | `batch_golden.json`     | `batch_width` invisible with `BatchMode::Off`; batched smoke with MLP and stage rows |
//! | `stats`    | —                       | report and trace ≡ rerun; trace sink bit-inert; schema keys; JSON file round-trip |
//!
//! Golden files live in `crates/bench/golden/`, resolved from the bench
//! crate's manifest directory, so the gate runs from any working
//! directory. `--capture` rewrites every golden file from the current
//! code; only do that for an intended change of simulated numbers.
//! Every mismatch, golden or variant, goes through one diff printer that
//! names the check, the first differing line and the first differing byte
//! with context. All checks run; the process exits 1 if any failed.
//!
//! Usage: `goldencheck [--capture]`

use std::path::{Path, PathBuf};

use bionicdb::{BatchMode, BionicConfig, ExecMode, MachineReport};
use bionicdb_bench::batchbench::{sweep, to_json};
use bionicdb_bench::json::{render_machine_row, validate, JsonOut};
use bionicdb_bench::serve::hw::{hw_servers, probe_hw_variant, simulate_hw_variant};
use bionicdb_bench::serve::sim::{probe_service_ns, simulate};
use bionicdb_bench::serve::{ArrivalProcess, RetryMode, ServeConfig, ShedPolicy};
use bionicdb_bench::*;
use bionicdb_fpga::ChromeTraceSink;
use bionicdb_workloads::abi::YcsbWorkload;
use bionicdb_workloads::smallbank::{SmallBankBionic, SmallBankWorkload};
use bionicdb_workloads::ycsb::{YcsbBionic, YcsbKind};
use bionicdb_workloads::{ServeKind, ServeMix, SmallBankSpec, YcsbSpec};

/// A check's result: the document its golden pins (empty when it has
/// none), or why it failed.
type Outcome = Result<String, String>;

/// One named byte-identity check.
struct Check {
    name: &'static str,
    /// The golden file the returned document must match byte for byte.
    golden: Option<&'static str>,
    /// Runs the check's own comparisons and assertions.
    run: fn() -> Outcome,
}

const fn check(name: &'static str, golden: Option<&'static str>, run: fn() -> Outcome) -> Check {
    Check { name, golden, run }
}

/// Every check, in run order.
const CHECKS: &[Check] = &[
    check("threads", None, threads),
    check("workload", Some("workload_goldens.json"), workload),
    check("serve", Some("serve_golden.json"), || {
        serving_matrix(serve_rows)
    }),
    check("serve_hw", Some("serve_hw_golden.json"), || {
        serving_matrix(serve_hw_rows)
    }),
    check("batch", Some("batch_golden.json"), batch),
    check("stats", None, stats),
];

/// Where the golden file `file` lives, independent of the working
/// directory.
fn golden_path(file: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(file)
}

/// Up to 40 bytes either side of `at`, within the line holding it.
fn context(s: &str, at: usize) -> &str {
    let line_lo = s[..at].rfind('\n').map_or(0, |i| i + 1);
    let line_hi = s[at..].find('\n').map_or(s.len(), |i| at + i);
    let (mut lo, mut hi) = (at.saturating_sub(40).max(line_lo), (at + 40).min(line_hi));
    while !s.is_char_boundary(lo) {
        lo -= 1;
    }
    while !s.is_char_boundary(hi) {
        hi += 1;
    }
    &s[lo..hi]
}

/// The one diff printer: `None` when `got` equals `want`, else the first
/// differing line and byte with context from both sides, plus any
/// row-count drift. When one document is a prefix of the other the
/// difference is at the end of the shorter one.
fn diff(what: &str, want: &str, got: &str) -> Option<String> {
    if want == got {
        return None;
    }
    let first = want.bytes().zip(got.bytes()).position(|(a, b)| a != b);
    let mut at = first.unwrap_or(want.len().min(got.len()));
    // Report whole characters: back up to the start of a multi-byte one.
    while !want.is_char_boundary(at) {
        at -= 1;
    }
    let line_start = want[..at].rfind('\n').map_or(0, |i| i + 1);
    let mut out = format!(
        "{what} differs at line {}, byte {at} (column {})\n  want: …{}…\n  got:  …{}…",
        want[..at].matches('\n').count() + 1,
        at - line_start,
        context(want, at),
        context(got, at)
    );
    let (want_rows, got_rows) = (want.lines().count(), got.lines().count());
    if want_rows != got_rows {
        out += &format!("\n  row count drifted: want {want_rows} rows, got {got_rows}");
    }
    Some(out)
}

/// Fail with [`diff`]'s report unless `got` equals `want`.
fn same(what: &str, want: &str, got: &str) -> Result<(), String> {
    diff(what, want, got).map_or(Ok(()), Err)
}

/// Fail with `msg` unless `ok`.
fn ensure(ok: bool, msg: &str) -> Result<(), String> {
    ok.then_some(()).ok_or_else(|| msg.to_string())
}

/// Fail unless `s` is one well-formed JSON value.
fn valid_json(what: &str, s: &str) -> Result<(), String> {
    validate(s).map_err(|e| format!("{what} is not valid JSON: {e}"))
}

/// Rows as one newline-terminated document.
fn doc(rows: &[String]) -> String {
    rows.join("\n") + "\n"
}

// ---------------------------------------------------------------------------
// workload: driver rows vs pre-refactor goldens, plus the SmallBank smoke
// ---------------------------------------------------------------------------

/// A fixed wave of every legacy runner shape (YCSB all kinds, the three KV
/// bulk loops, TPC-C all mixes), one rendered row per measurement, then
/// the SmallBank smoke: one fixed-seed wave must render byte-identical
/// rows strict, fast-forward, epoch-parallel at 2 lanes and on a rerun,
/// and the chaos crash-recovery and NoC-drop scenarios must hold on the
/// SmallBank conserving mix. The exact call sequence (machines shared
/// between waves, wave sizes, seeds inside the runners) is part of the
/// golden contract — do not reorder.
fn workload() -> Outcome {
    let mut rows = Vec::new();

    // One YCSB machine, four transaction kinds in sequence.
    let mut y = build_ycsb(4, ExecMode::Interleaved);
    for (label, kind, wave) in [
        ("ycsb_read_local", YcsbKind::ReadLocal, 40),
        ("ycsb_read_homed", YcsbKind::ReadHomed, 40),
        ("ycsb_update_local", YcsbKind::UpdateLocal, 24),
        ("ycsb_scan", YcsbKind::Scan, 12),
    ] {
        let t = bionic_ycsb_tput(&mut y, kind, wave);
        rows.push(render_machine_row(label, Some(t), &y.machine));
    }

    // One hash-KV machine: bulk insert, search, then random inserts.
    let mut y = build_ycsb(4, ExecMode::Interleaved);
    let t = bionic_kv_tput(&mut y, true, 12);
    rows.push(render_machine_row("kv_hash_insert", Some(t), &y.machine));
    let t = bionic_kv_tput(&mut y, false, 12);
    rows.push(render_machine_row("kv_hash_search", Some(t), &y.machine));
    let t = bionic_kv_random_insert_tput(&mut y, 12);
    rows.push(render_machine_row("kv_random_insert", Some(t), &y.machine));

    // One skiplist machine: bulk insert then point query.
    let mut y = build_ycsb(4, ExecMode::Interleaved);
    let t = bionic_kv_skip_tput(&mut y, true, 12);
    rows.push(render_machine_row("kv_skip_insert", Some(t), &y.machine));
    let t = bionic_kv_skip_tput(&mut y, false, 12);
    rows.push(render_machine_row("kv_skip_search", Some(t), &y.machine));

    // One TPC-C machine, all three mixes in sequence.
    let mut sys = build_tpcc(4, ExecMode::Interleaved);
    for (label, mix, wave) in [
        ("tpcc_mixed", TpccMix::Mixed, 24),
        ("tpcc_neworder", TpccMix::NewOrderOnly, 12),
        ("tpcc_payment", TpccMix::PaymentOnly, 12),
    ] {
        let t = bionic_tpcc_tput(&mut sys, mix, wave);
        rows.push(render_machine_row(label, Some(t), &sys.machine));
    }

    let sb = |fast_forward: bool, threads: usize| -> String {
        let mut sb = build_smallbank(4, ExecMode::Interleaved);
        sb.machine.set_fast_forward(fast_forward);
        sb.machine.set_sim_threads(threads);
        let t = bionic_smallbank_tput(&mut sb, 16);
        render_machine_row("smallbank_mixed", Some(t), &sb.machine)
    };
    let strict = sb(false, 1);
    same("smallbank fast-forward vs strict", &strict, &sb(true, 1))?;
    same("smallbank epoch-parallel vs strict", &strict, &sb(true, 2))?;
    same("smallbank strict rerun", &strict, &sb(false, 1))?;
    chaos::run_crash(chaos::ChaosWorkload::SmallBank, 500, true, 0x5BC4);
    chaos::run_noc_drop(chaos::ChaosWorkload::SmallBank, &[1, 4], 0x5BC4);
    Ok(doc(&rows))
}

// ---------------------------------------------------------------------------
// serve, serve_hw: serving matrices vs goldens, run twice
// ---------------------------------------------------------------------------

/// The Silo serving matrix, one JSON row per run: every serving workload
/// under the controlled config at 1.5x capacity (the queue works,
/// deadlines fire, retries happen), then SmallBank at each policy corner.
/// The scenario list, seeds and sizes are part of the golden contract —
/// do not reorder.
fn serve_rows() -> Vec<String> {
    let mut rows = Vec::new();
    let servers = 2;
    let requests = 300;

    for kind in ServeKind::ALL {
        let svc = probe_service_ns(&ServeMix::build(kind, 1), kind.seed(), 200);
        let arrivals = ArrivalProcess::Poisson {
            rate_per_sec: 1.5 * servers as f64 * 1e9 / svc,
        };
        let deadline = (svc * 25.0) as u64;
        let cfg = ServeConfig::controlled(arrivals, requests, deadline, servers, kind.seed());
        let sum = simulate(&ServeMix::build(kind, 1), &cfg);
        rows.push(sum.render_json(&format!("controlled/{}", kind.name())));
    }

    // SmallBank corners: the baseline's unbounded FIFO, fail-fast,
    // LIFO-slack under an MMPP burst, and a no-retry deadline-drop run.
    let kind = ServeKind::SmallBank;
    let svc = probe_service_ns(&ServeMix::build(kind, 1), kind.seed(), 200);
    let cap = servers as f64 * 1e9 / svc;
    let (deadline, seed) = ((svc * 25.0) as u64, kind.seed());
    let poisson = |load: f64| ArrivalProcess::Poisson {
        rate_per_sec: load * cap,
    };
    let controlled =
        |arrivals| ServeConfig::controlled(arrivals, requests, deadline, servers, seed);
    let mut run = |label: &str, cfg: &ServeConfig| {
        rows.push(simulate(&ServeMix::build(kind, 1), cfg).render_json(label));
    };

    let base = ServeConfig::baseline(poisson(1.5), requests, deadline, servers, seed);
    run("baseline/smallbank", &base);
    let mut ff = controlled(poisson(2.0));
    ff.policy = ShedPolicy::FailFast;
    run("fail_fast/smallbank", &ff);
    let mut ls = controlled(ArrivalProcess::Mmpp {
        base_rate: 0.5 * cap,
        burst_rate: 3.0 * cap,
        mean_base_ns: (svc * 200.0) as u64,
        mean_burst_ns: (svc * 100.0) as u64,
    });
    ls.policy = ShedPolicy::LifoSlack;
    run("lifo_slack_mmpp/smallbank", &ls);
    let mut nr = controlled(poisson(2.0));
    nr.retry = RetryMode::None;
    run("no_retry/smallbank", &nr);

    rows
}

/// The hardware serving matrix: the full serving stack against the
/// cycle-accurate machine. Small on purpose — each request simulates real
/// hardware cycles. At 1.5x probed capacity it covers a commit-dominated
/// kind (SmallBank at depth-2 interleaving, whose retries all follow
/// sheds: every executed body commits), the deep-interleave YCSB-C, and
/// front-end batches of 4 feeding `BatchMode::CrossTxn` index waves. A
/// TPC-C row at 0.5x covers the abort path: nothing is shed there, so
/// each of its retries follows a timestamp-ordering abort.
fn serve_hw_rows() -> Vec<String> {
    let workers = 2;
    let mut rows = Vec::new();
    for (kind, load, requests, width) in [
        (ServeKind::SmallBank, 1.5, 150, None),
        (ServeKind::YcsbC, 1.5, 150, None),
        (ServeKind::YcsbC, 1.5, 150, Some(4)),
        (ServeKind::TpccMixed, 0.5, 400, None),
    ] {
        let probe = probe_hw_variant(kind, workers, 48, false);
        let deadline = (probe.mean_latency_ns * 8.0) as u64;
        let arrivals = ArrivalProcess::Poisson {
            rate_per_sec: load * probe.capacity_per_sec,
        };
        let servers = hw_servers(kind, workers);
        let mut cfg = ServeConfig::controlled(arrivals, requests, deadline, servers, kind.seed());
        let mut label = format!("hw/controlled/{}", kind.name());
        if let Some(width) = width {
            cfg = cfg.with_batch(width, (deadline / 8).max(1));
            label = format!("hw/batched/{}", kind.name());
        }
        let sum = simulate_hw_variant(kind, workers, width, false, &cfg);
        sum.assert_conserved();
        if kind == ServeKind::TpccMixed {
            assert!(
                sum.retries >= 3 && sum.rejected == 0 && sum.evicted == 0,
                "the TPC-C row must retry aborts, not sheds: {sum:?}"
            );
        }
        rows.push(sum.render_json(&label));
    }
    rows
}

/// A serving matrix must render the same document twice (virtual time,
/// fixed seeds, deterministic addresses — and for the hardware engine the
/// injection-equivalence contract of `Machine::step_until` — make this
/// exact on any host), and every row must be well-formed JSON.
fn serving_matrix(rows: fn() -> Vec<String>) -> Outcome {
    let first = rows();
    let out = doc(&first);
    same("rerun", &out, &doc(&rows()))?;
    for row in &first {
        valid_json("serve row", row)?;
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// batch: mode-off inertness, batched smoke, quick-sweep golden
// ---------------------------------------------------------------------------

/// Run a small fixed YCSB wave; return committed txns and the report JSON.
fn batch_report(batch_mode: BatchMode, batch_width: usize) -> (u64, String) {
    let cfg = BionicConfig {
        workers: 2,
        mode: ExecMode::Interleaved,
        dram_bytes: 256 << 20,
        block_arena_bytes: 8 << 20,
        partition_bytes: 32 << 20,
        batch_mode,
        batch_width,
        ..BionicConfig::default()
    };
    let spec = YcsbSpec {
        records_per_partition: 2_048,
        payload_len: 64,
        ..YcsbSpec::default()
    };
    let mut y = YcsbBionic::build(cfg, spec, 60);
    let t = bionic_ycsb_tput(&mut y, YcsbKind::ReadHomed, 40);
    (t.committed, MachineReport::collect(&y.machine).to_json())
}

/// With `batch_mode: Off` any `batch_width` must be invisible byte for
/// byte (the other goldens rely on it); with batching on the same
/// workload must complete end to end and surface the MLP histogram and
/// engine stage rows (its cycles legitimately differ, so nothing else is
/// compared). The document is the coproc-level quick sweep.
fn batch() -> Outcome {
    let (c_stock, stock) = batch_report(BatchMode::Off, 8);
    let (_, wide) = batch_report(BatchMode::Off, 32);
    ensure(c_stock > 0, "the check workload commits work")?;
    same("Off report at width 32 vs 8", &stock, &wide)?;
    ensure(!stock.contains("\"mlp\""), "Off report carries no MLP")?;

    let (c_batched, batched) = batch_report(BatchMode::CrossTxn, 8);
    ensure(c_batched > 0, "batched workload commits work")?;
    ensure(batched.contains("\"mlp\""), "batched report carries MLP")?;
    ensure(
        batched.contains("\"batch.hash\"") && batched.contains("\"batch.skip\""),
        "batched report carries the engine stage rows",
    )?;
    Ok(to_json(&sweep(true), true))
}

// ---------------------------------------------------------------------------
// threads: the epoch-parallel lane engine vs the serial loop, byte for byte
// ---------------------------------------------------------------------------

/// A fixed-seed 4-worker multisite YCSB-C machine on `sim_threads`.
fn threads_ycsb_machine(sim_threads: usize) -> YcsbBionic {
    let cfg = BionicConfig {
        mode: ExecMode::Interleaved,
        ..BionicConfig::small(4)
    };
    let spec = YcsbSpec {
        records_per_partition: 1_024,
        payload_len: 64,
        remote_fraction: 0.5,
        ..YcsbSpec::default()
    };
    let mut y = YcsbBionic::build(cfg, spec, 8);
    y.machine.set_sim_threads(sim_threads);
    y
}

/// One fixed-seed multisite YCSB-C run; returns the full report JSON.
fn threads_ycsb(sim_threads: usize) -> String {
    let mut y = threads_ycsb_machine(sim_threads);
    let kind = YcsbKind::ReadHomed;
    drive(&mut YcsbWorkload { sys: &mut y, kind }, 24);
    y.machine.report().to_json()
}

/// The same machine fed by streaming arrivals: one transaction every 97
/// cycles, round-robin over the workers, each entering at the cycle
/// `step_until` landed on (`submit_txn` enters through `Machine::submit`),
/// then a drain to quiescence and an idle step. Returns the full report JSON.
fn threads_ycsb_streamed(sim_threads: usize) -> String {
    let mut y = threads_ycsb_machine(sim_threads);
    let mut rng = YcsbBionic::rng(7);
    let size = y.block_size(YcsbKind::ReadHomed);
    for k in 0..48u64 {
        y.machine.step_until(k * 97);
        let worker = k as usize % 4;
        let blk = y.machine.alloc_block(worker, size);
        y.submit_txn(worker, blk, YcsbKind::ReadHomed, &mut rng);
    }
    y.machine.run_to_quiescence();
    let idle_until = y.machine.now() + 1_000;
    y.machine.step_until(idle_until);
    y.machine.report().to_json()
}

/// One fixed-seed SmallBank run; returns the full report JSON.
fn threads_smallbank(sim_threads: usize) -> String {
    let cfg = BionicConfig {
        mode: ExecMode::Interleaved,
        max_batch: 2,
        ..BionicConfig::small(4)
    };
    let spec = SmallBankSpec {
        accounts_per_partition: 256,
        ..SmallBankSpec::tiny()
    };
    let mut sb = SmallBankBionic::build(cfg, spec);
    sb.machine.set_sim_threads(sim_threads);
    drive(&mut SmallBankWorkload { sys: &mut sb }, 24);
    sb.machine.report().to_json()
}

/// Splitting a machine into lanes on threads changes nothing observable:
/// for every run, 2 sim threads must produce the serial fast-forward
/// report byte for byte.
fn threads() -> Outcome {
    type Run = fn(usize) -> String;
    for (name, run) in [
        ("ycsb", threads_ycsb as Run),
        ("ycsb streamed", threads_ycsb_streamed),
        ("smallbank", threads_smallbank),
    ] {
        let what = format!("{name} 2-thread report vs serial");
        let reference = run(1);
        ensure(
            !reference.contains("\"committed\":0,"),
            "the runs commit work",
        )?;
        same(&what, &reference, &run(2))?;
    }
    Ok(String::new())
}

// ---------------------------------------------------------------------------
// stats: determinism, trace inertness, schema, JSON file round-trip
// ---------------------------------------------------------------------------

/// Where the stats check round-trips its results document: the workspace
/// `target/` directory.
fn stats_json_path() -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2);
    let root = root.expect("bench crate sits in crates/bench");
    root.join("target/goldencheck_stats.json")
}

/// One fixed-seed YCSB run; returns the rendered report row and, when a
/// sink is installed, the Chrome trace export.
fn stats_run(traced: bool) -> (String, Option<String>) {
    let mut y = build_ycsb(2, ExecMode::Interleaved);
    if traced {
        y.machine.set_trace_sink(Box::new(ChromeTraceSink::new()));
    }
    let t = bionic_ycsb_tput(&mut y, YcsbKind::ReadLocal, 40);
    let row = render_machine_row("ycsb_smoke", Some(t), &y.machine);
    (row, y.machine.trace_json())
}

/// The observability layer end to end: two traced runs give identical
/// report and trace JSON; an untraced run gives the same report (the sink
/// only buffers host-side events); the results document and the trace
/// export are valid JSON carrying the keys downstream tooling reads; and
/// the document survives a write to disk and a read back.
fn stats() -> Outcome {
    let (row_a, trace_a) = stats_run(true);
    let (row_b, trace_b) = stats_run(true);
    same("traced report rerun", &row_a, &row_b)?;
    let no_export = "trace sink produced no export";
    let (trace_a, trace_b) = (trace_a.ok_or(no_export)?, trace_b.ok_or(no_export)?);
    same("trace rerun", &trace_a, &trace_b)?;
    let (row_plain, trace_plain) = stats_run(false);
    ensure(trace_plain.is_none(), "NullSink produced a trace export")?;
    same("untraced report vs traced", &row_a, &row_plain)?;

    let path = stats_json_path();
    let mut json = JsonOut::to_path("goldencheck", &path.to_string_lossy());
    json.push_raw(row_a);
    let doc = json.render();
    valid_json("results document", &doc)?;
    valid_json("trace export", &trace_a)?;
    let keys = "bin rows label per_sec report p50 p95 p99 abort_reasons queue_wait txn_commit \
                links ports stages";
    for key in keys.split(' ') {
        let missing = format!("results document is missing required key {key:?}");
        ensure(doc.contains(&format!("{key:?}")), &missing)?;
    }
    ensure(trace_a.contains("\"traceEvents\""), "trace has traceEvents")?;

    let dir = path.parent().expect("file path has a parent");
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    json.write();
    let readback = std::fs::read_to_string(&path).map_err(|e| format!("read back: {e}"))?;
    same("written results file vs rendered document", &doc, &readback)?;
    valid_json("written results file", &readback)?;
    Ok(String::new())
}

// ---------------------------------------------------------------------------

/// Run one check and settle its golden: compare, or rewrite on capture.
fn run_check(check: &Check, capture: bool) -> Result<(), String> {
    let got = (check.run)()?;
    let Some(file) = check.golden else {
        return Ok(());
    };
    let path = golden_path(file);
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    if capture {
        return std::fs::write(&path, &got).map_err(io);
    }
    let want = std::fs::read_to_string(&path).map_err(io)?;
    same(&format!("golden {file}"), &want, &got)
}

fn main() {
    let args = BenchArgs::from_env(&ArgSpec {
        bin: "goldencheck",
        flags: &["--capture"],
        options: &[],
    });
    let capture = args.flag("--capture");

    let mut failed = Vec::new();
    for check in CHECKS {
        match run_check(check, capture) {
            Ok(()) => println!("goldencheck: {}: OK", check.name),
            Err(msg) => {
                eprintln!("goldencheck: FAIL {}: {msg}", check.name);
                failed.push(check.name);
            }
        }
    }
    if !failed.is_empty() {
        eprintln!("goldencheck: failed: {}", failed.join(", "));
        std::process::exit(1);
    }
    println!("goldencheck: all {} checks passed", CHECKS.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(want: &str, got: &str) -> String {
        diff("golden", want, got).expect("documents differ")
    }

    #[test]
    fn equal_documents_have_no_diff() {
        assert_eq!(diff("golden", "a\nbc\n", "a\nbc\n"), None);
    }

    #[test]
    fn one_byte_change_mid_line_reports_line_and_byte() {
        let r = report("first\nsecond row\nthird\n", "first\nsecoNd row\nthird\n");
        assert_eq!(r, "golden differs at line 2, byte 10 (column 4)\n  want: …second row…\n  got:  …secoNd row…");
    }

    #[test]
    fn missing_trailing_row_reports_row_count_drift() {
        let r = report("r1\nr2\nr3\n", "r1\nr2\n");
        assert_eq!(r, "golden differs at line 3, byte 6 (column 0)\n  want: …r3…\n  got:  ……\n  row count drifted: want 3 rows, got 2");
    }

    #[test]
    fn extra_trailing_row_reports_row_count_drift() {
        let r = report("r1\nr2\n", "r1\nr2\nr3\n");
        assert_eq!(r, "golden differs at line 3, byte 6 (column 0)\n  want: ……\n  got:  …r3…\n  row count drifted: want 2 rows, got 3");
    }

    #[test]
    fn context_stays_within_the_line() {
        let line = "b".repeat(60) + "x" + &"c".repeat(60);
        assert_eq!(context(&format!("aaaa\n{line}\n"), 65), &line[20..100]);
        assert_eq!(context("ab\n", 3), "");
    }

    /// Golden paths come from the manifest directory, so they resolve
    /// from any working directory. (Changing the process's working
    /// directory is safe here: no other test in this binary reads a
    /// relative path.)
    #[test]
    fn golden_files_resolve_from_any_cwd() {
        std::env::set_current_dir(std::env::temp_dir()).expect("chdir to temp dir");
        let goldens: Vec<&str> = CHECKS.iter().filter_map(|c| c.golden).collect();
        assert_eq!(goldens.len(), 4);
        for file in goldens {
            assert!(golden_path(file).is_file(), "golden {file} not found");
        }
    }
}
