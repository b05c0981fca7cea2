//! Append-only benchmark history and the regression gate built on it.
//!
//! Every `simperf` run appends one JSONL line per tracked metric to
//! `results/bench_history.jsonl` (path overridable). The `benchdiff` bin
//! reads the file back, groups entries by bench key, takes the *oldest*
//! entry per key as the recorded baseline (the first run bootstraps it)
//! and fails when the newest entry regresses by more than the tolerance
//! in cycles per second. The format is a rigid single-line JSON object —
//! written and parsed here, no serde — so the file stays greppable,
//! appendable from concurrent runs (one `write` per line), and diffable
//! in review.

use std::io::Write as _;
use std::path::Path;

/// Where history lines land by default, relative to the repo root.
pub const DEFAULT_PATH: &str = "results/bench_history.jsonl";

/// Default allowed regression: 10% below baseline fails.
pub const DEFAULT_TOLERANCE: f64 = 0.10;

/// One recorded benchmark result.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// Stable bench key, e.g. `simperf-fast` or `parsim-matrix`.
    pub bench: String,
    /// The tracked metric: simulated cycles per wall-clock second.
    pub cycles_per_sec: f64,
    /// Wall-clock timestamp (Unix seconds) of the run.
    pub unix_secs: u64,
    /// Optional tail-latency metric, nanoseconds (serve benches). Gated
    /// upward: a *higher* p99 than baseline is the regression.
    pub p99_ns: Option<f64>,
    /// Optional work-done metric: simulated cycles the run spent on
    /// committed work, for cross-run sanity (recorded, not gated).
    pub committed_cycles: Option<u64>,
    /// Optional memory-level-parallelism metric: peak outstanding DRAM
    /// reads on the busiest port (batchsweep rows; recorded, not gated).
    pub mlp_peak: Option<u64>,
    /// CPUs available to the process that ran the bench (see
    /// [`host_cpus`]); absent on rows recorded before it was kept.
    pub host_cpus: Option<u64>,
    /// The host that ran the bench (see [`host_key`]); absent on rows
    /// recorded before it was kept.
    pub host: Option<String>,
}

impl Entry {
    /// An entry for a run on this host: the required fields plus the
    /// host's CPU count and key.
    pub fn basic(bench: &str, cycles_per_sec: f64, unix_secs: u64) -> Entry {
        Entry {
            bench: bench.to_string(),
            cycles_per_sec,
            unix_secs,
            p99_ns: None,
            committed_cycles: None,
            mlp_peak: None,
            host_cpus: Some(host_cpus()),
            host: Some(host_key()),
        }
    }

    /// Render the rigid single-line JSON form `parse_line` reads back.
    /// Optional fields are appended only when present, keeping old lines
    /// and new parsers (and vice versa) compatible.
    pub fn render(&self) -> String {
        debug_assert!(
            !self.bench.contains('"'),
            "bench keys must not contain quotes"
        );
        let mut s = format!(
            "{{\"bench\":\"{}\",\"cycles_per_sec\":{:.3},\"unix_secs\":{}",
            self.bench, self.cycles_per_sec, self.unix_secs
        );
        if let Some(p99) = self.p99_ns {
            s.push_str(&format!(",\"p99_ns\":{p99:.1}"));
        }
        if let Some(cc) = self.committed_cycles {
            s.push_str(&format!(",\"committed_cycles\":{cc}"));
        }
        if let Some(mlp) = self.mlp_peak {
            s.push_str(&format!(",\"mlp_peak\":{mlp}"));
        }
        if let Some(host) = &self.host {
            debug_assert_eq!(host, &sanitize_host(host), "host keys are sanitized");
            s.push_str(&format!(",\"host\":\"{host}\""));
        }
        if let Some(cpus) = self.host_cpus {
            s.push_str(&format!(",\"host_cpus\":{cpus}"));
        }
        s.push('}');
        s
    }
}

/// CPUs this process may run on (`available_parallelism`, 1 if unknown).
pub fn host_cpus() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

/// This host's key: the CPU model from `/proc/cpuinfo` (`unknown` where
/// there is none), `/`, and [`host_cpus`], sanitized by `sanitize_host`.
pub fn host_key() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            (k.trim() == "model name").then(|| v.trim())
        })
        .unwrap_or("unknown");
    sanitize_host(&format!("{model}/{}", host_cpus()))
}

/// Replace every character outside `[A-Za-z0-9 ()@._/-]` with `_`, so a
/// host key holds no quote, comma or brace for [`parse_line`]'s substring
/// scan to trip on.
fn sanitize_host(raw: &str) -> String {
    raw.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || " ()@._/-".contains(c) {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Wall clock now, Unix seconds (0 if the clock is before the epoch).
pub fn now_unix() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Append one entry to the history file, creating parent directories and
/// the file itself as needed. One write per line keeps concurrent
/// appenders from interleaving mid-record.
pub fn append(path: &Path, entry: &Entry) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    f.write_all(format!("{}\n", entry.render()).as_bytes())
}

/// Parse one history line; `None` for blanks or lines that do not carry
/// all three fields (forward compatibility: unknown lines are skipped,
/// not fatal).
///
/// A line only counts when it is *complete* — it must end with the `}`
/// that [`Entry::render`] always emits last. The field scan below is
/// substring-based, so without this check a line torn mid-append (power
/// loss under `append`'s single write) could still yield every key and
/// parse into an entry with a silently truncated final number.
pub fn parse_line(line: &str) -> Option<Entry> {
    fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
        let start = line.find(key)? + key.len();
        let rest = &line[start..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim())
    }
    let line = line.trim();
    if line.is_empty() || !line.ends_with('}') {
        return None;
    }
    let bench = field(line, "\"bench\":\"")?;
    let bench = &bench[..bench.rfind('"')?];
    let cycles_per_sec: f64 = field(line, "\"cycles_per_sec\":")?.parse().ok()?;
    let unix_secs: u64 = field(line, "\"unix_secs\":")?.parse().ok()?;
    let p99_ns = field(line, "\"p99_ns\":").and_then(|v| v.parse().ok());
    let committed_cycles = field(line, "\"committed_cycles\":").and_then(|v| v.parse().ok());
    let mlp_peak = field(line, "\"mlp_peak\":").and_then(|v| v.parse().ok());
    let host_cpus = field(line, "\"host_cpus\":").and_then(|v| v.parse().ok());
    let host = field(line, "\"host\":\"").and_then(|v| Some(v[..v.rfind('"')?].to_string()));
    Some(Entry {
        bench: bench.to_string(),
        cycles_per_sec,
        unix_secs,
        p99_ns,
        committed_cycles,
        mlp_peak,
        host_cpus,
        host,
    })
}

/// Parse a whole history file's text, skipping unparseable lines.
pub fn parse(text: &str) -> Vec<Entry> {
    text.lines().filter_map(parse_line).collect()
}

/// A parsed history file: the salvageable entries plus the torn trailing
/// line, if any.
#[derive(Debug, Clone, PartialEq)]
pub struct Parsed {
    /// Every complete, recognizable entry, in file order.
    pub entries: Vec<Entry>,
    /// The incomplete trailing line, when the file ends mid-append — a
    /// crash or power loss cut `append`'s single `line\n` write short.
    /// `None` when the file ends cleanly.
    pub torn_tail: Option<String>,
}

/// Parse a history file that may end in a torn append: all complete
/// entries are salvaged and the torn trailing line (a final line with no
/// terminating newline, cut before its closing `}`) is reported so
/// callers can warn instead of silently reading a shortened history.
/// Complete lines that merely fail to parse stay silently skipped, as in
/// [`parse`] (forward compatibility) — only the tail can be torn,
/// because every append is one atomic `line\n` write.
pub fn parse_salvage(text: &str) -> Parsed {
    let tail = if text.ends_with('\n') {
        None
    } else {
        text.lines().last()
    };
    Parsed {
        entries: parse(text),
        torn_tail: tail
            .filter(|l| {
                // Judged trimmed, reported verbatim: a host key has spaces
                // a cut can end on.
                let l = l.trim();
                !l.is_empty() && !l.ends_with('}')
            })
            .map(str::to_string),
    }
}

/// The comparison `benchdiff` prints for one bench key.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// The bench key this verdict covers.
    pub bench: String,
    /// The recorded baseline: the oldest entry's metric.
    pub baseline: f64,
    /// The newest entry's metric.
    pub latest: f64,
    /// `latest / baseline` (1.0 when the baseline is zero).
    pub ratio: f64,
    /// True when `latest < baseline * (1 - tolerance)`.
    pub regressed: bool,
    /// Baseline p99 (oldest entry for the key carrying one), nanoseconds.
    pub baseline_p99: Option<f64>,
    /// Latest p99 (newest entry for the key carrying one), nanoseconds.
    pub latest_p99: Option<f64>,
    /// True when `latest_p99 > baseline_p99 * (1 + tolerance)` — tail
    /// latency regresses *upward*.
    pub p99_regressed: bool,
}

/// Compare the newest entry per bench key against its recorded baseline
/// (the oldest entry for that key — the first run bootstraps the
/// baseline, so a fresh history always passes). Entries are taken in file
/// order, which `append` keeps chronological.
pub fn check(entries: &[Entry], tolerance: f64) -> Vec<Verdict> {
    let mut keys: Vec<&str> = Vec::new();
    for e in entries {
        if !keys.contains(&e.bench.as_str()) {
            keys.push(&e.bench);
        }
    }
    keys.iter()
        .map(|&key| {
            let mut of_key = entries.iter().filter(|e| e.bench == key);
            let baseline = of_key.next().expect("key came from entries").cycles_per_sec;
            let latest = entries
                .iter()
                .rev()
                .find(|e| e.bench == key)
                .expect("key came from entries")
                .cycles_per_sec;
            let ratio = if baseline == 0.0 { 1.0 } else { latest / baseline };
            // p99 gate: oldest vs newest entry *carrying* a p99 for the
            // key, so pre-schema lines neither gate nor get gated.
            let baseline_p99 = entries
                .iter()
                .filter(|e| e.bench == key)
                .find_map(|e| e.p99_ns);
            let latest_p99 = entries
                .iter()
                .rev()
                .filter(|e| e.bench == key)
                .find_map(|e| e.p99_ns);
            let p99_regressed = match (baseline_p99, latest_p99) {
                (Some(b), Some(l)) => b > 0.0 && l > b * (1.0 + tolerance),
                _ => false,
            };
            Verdict {
                bench: key.to_string(),
                baseline,
                latest,
                ratio,
                regressed: latest < baseline * (1.0 - tolerance),
                baseline_p99,
                latest_p99,
                p99_regressed,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(bench: &str, cps: f64, t: u64) -> Entry {
        Entry::basic(bench, cps, t)
    }

    #[test]
    fn render_parse_roundtrip() {
        let e = entry("parsim-matrix", 123456.789, 1_754_000_000);
        let parsed = parse_line(&e.render()).expect("parses");
        assert_eq!(parsed.bench, "parsim-matrix");
        assert!((parsed.cycles_per_sec - 123456.789).abs() < 1e-3);
        assert_eq!(parsed.unix_secs, 1_754_000_000);
        assert_eq!(parsed.host, Some(host_key()));
        // A CPU model with a comma and a quote still round-trips, as its
        // sanitized key, without disturbing the fields around it.
        let mut e = e;
        e.host = Some(sanitize_host("Intel(R) Xeon(R) \"Gold\" 6148, 2.40GHz/2"));
        assert_eq!(
            e.host.as_deref(),
            Some("Intel(R) Xeon(R) _Gold_ 6148_ 2.40GHz/2")
        );
        let parsed = parse_line(&e.render()).expect("parses");
        assert_eq!(parsed, e);
    }

    #[test]
    fn junk_lines_are_skipped_not_fatal() {
        let text = "\n// not json\n{\"bench\":\"a\",\"cycles_per_sec\":10.000,\"unix_secs\":1}\n{\"other\":1}\n";
        let entries = parse(text);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].bench, "a");
    }

    #[test]
    fn fresh_baseline_passes() {
        // A single entry per key is its own baseline: never a regression.
        let entries = vec![entry("a", 100.0, 1), entry("b", 5.0, 2)];
        let verdicts = check(&entries, DEFAULT_TOLERANCE);
        assert_eq!(verdicts.len(), 2);
        assert!(verdicts.iter().all(|v| !v.regressed));
        assert!(verdicts.iter().all(|v| (v.ratio - 1.0).abs() < 1e-9));
    }

    #[test]
    fn injected_regression_fails() {
        // Synthetic regression: the latest run is 50% below baseline.
        let entries = vec![
            entry("parsim-matrix", 100.0, 1),
            entry("parsim-matrix", 98.0, 2),
            entry("parsim-matrix", 50.0, 3),
        ];
        let verdicts = check(&entries, DEFAULT_TOLERANCE);
        assert_eq!(verdicts.len(), 1);
        assert!(verdicts[0].regressed, "50% drop must regress: {verdicts:?}");
        assert_eq!(verdicts[0].baseline, 100.0);
        assert_eq!(verdicts[0].latest, 50.0);
    }

    #[test]
    fn within_tolerance_passes_and_keys_are_independent() {
        let entries = vec![
            entry("a", 100.0, 1),
            entry("b", 100.0, 2),
            entry("a", 95.0, 3),  // -5%: inside 10% tolerance
            entry("b", 80.0, 4),  // -20%: regression
        ];
        let verdicts = check(&entries, DEFAULT_TOLERANCE);
        let a = verdicts.iter().find(|v| v.bench == "a").unwrap();
        let b = verdicts.iter().find(|v| v.bench == "b").unwrap();
        assert!(!a.regressed, "{a:?}");
        assert!(b.regressed, "{b:?}");
    }

    #[test]
    fn optional_fields_roundtrip_and_old_lines_still_parse() {
        let mut e = entry("serve-smallbank", 42.0, 7);
        e.p99_ns = Some(1234.5);
        e.committed_cycles = Some(999_888);
        e.mlp_peak = Some(31);
        e.host_cpus = Some(2);
        let parsed = parse_line(&e.render()).expect("parses");
        assert_eq!(parsed.p99_ns, Some(1234.5));
        assert_eq!(parsed.committed_cycles, Some(999_888));
        assert_eq!(parsed.mlp_peak, Some(31));
        assert_eq!(parsed.host_cpus, Some(2));
        // Pre-schema line: optional fields absent, still parses.
        let old = "{\"bench\":\"a\",\"cycles_per_sec\":10.000,\"unix_secs\":1}";
        let parsed = parse_line(old).expect("old format parses");
        assert_eq!(parsed.p99_ns, None);
        assert_eq!(parsed.committed_cycles, None);
        assert_eq!(parsed.host_cpus, None);
        assert_eq!(parsed.host, None);
    }

    #[test]
    fn new_entries_record_the_host() {
        let e = entry("simperf-fast", 1.0, 1);
        assert_eq!(e.host_cpus, Some(host_cpus()));
        assert_eq!(e.host, Some(host_key()));
        assert!(host_key().ends_with(&format!("/{}", host_cpus())));
        assert!(e.render().ends_with(&format!(",\"host_cpus\":{}}}", host_cpus())));
    }

    #[test]
    fn p99_gate_fires_upward_only() {
        let with_p99 = |b: &str, cps: f64, t: u64, p99: f64| {
            let mut e = entry(b, cps, t);
            e.p99_ns = Some(p99);
            e
        };
        // Throughput steady; p99 doubles → p99 regression, not cps.
        let entries = vec![
            with_p99("s", 100.0, 1, 1000.0),
            with_p99("s", 100.0, 2, 2000.0),
        ];
        let v = &check(&entries, DEFAULT_TOLERANCE)[0];
        assert!(!v.regressed);
        assert!(v.p99_regressed, "{v:?}");
        // p99 *improves*: no regression.
        let entries = vec![
            with_p99("s", 100.0, 1, 2000.0),
            with_p99("s", 100.0, 2, 900.0),
        ];
        assert!(!check(&entries, DEFAULT_TOLERANCE)[0].p99_regressed);
        // Keys without p99 never p99-regress.
        let entries = vec![entry("s", 100.0, 1), entry("s", 100.0, 2)];
        assert!(!check(&entries, DEFAULT_TOLERANCE)[0].p99_regressed);
    }

    #[test]
    fn serve_hw_rows_gate_like_any_other_key() {
        // The hardware-engine serving rows (`serve-hw-*`, appended by
        // full `saturate --engine hw` runs) ride the same generic gates:
        // a >10% goodput drop or a >10% p99 rise against the key's own
        // baseline fails `benchdiff`, independently of the model-engine
        // `serve-*` rows.
        let with_p99 = |b: &str, cps: f64, t: u64, p99: f64| {
            let mut e = entry(b, cps, t);
            e.p99_ns = Some(p99);
            e
        };
        let entries = vec![
            with_p99("serve-smallbank", 100.0, 1, 1000.0),
            with_p99("serve-hw-smallbank", 4000.0, 1, 800.0),
            with_p99("serve-smallbank", 99.0, 2, 1010.0),
            // hw goodput holds but its p99 rises 25%: only the hw key's
            // tail gate fires.
            with_p99("serve-hw-smallbank", 4010.0, 2, 1000.0),
        ];
        let verdicts = check(&entries, DEFAULT_TOLERANCE);
        let sim = verdicts.iter().find(|v| v.bench == "serve-smallbank").unwrap();
        let hw = verdicts
            .iter()
            .find(|v| v.bench == "serve-hw-smallbank")
            .unwrap();
        assert!(!sim.regressed && !sim.p99_regressed, "{sim:?}");
        assert!(!hw.regressed, "goodput held: {hw:?}");
        assert!(hw.p99_regressed, "25% tail rise must gate: {hw:?}");
        // And a goodput collapse on the hw key alone gates too.
        let entries = vec![
            with_p99("serve-hw-ycsb_c", 5000.0, 1, 700.0),
            with_p99("serve-hw-ycsb_c", 3000.0, 2, 700.0),
        ];
        assert!(check(&entries, DEFAULT_TOLERANCE)[0].regressed);
    }

    #[test]
    fn truncating_the_tail_at_every_byte_offset_salvages_the_prefix() {
        // Two full-schema rows; the second gets torn at every possible
        // byte offset. At no offset may the torn tail mis-parse into an
        // entry (the substring field scan would otherwise accept a line
        // cut mid-number and report a truncated metric), and the intact
        // first row must always survive.
        let mut e1 = entry("parsim-matrix", 123456.789, 1_754_000_000);
        e1.p99_ns = Some(1234.5);
        e1.committed_cycles = Some(111_222);
        let mut e2 = entry("serve-smallbank", 98765.432, 1_754_000_100);
        e2.p99_ns = Some(6789.1);
        e2.committed_cycles = Some(999_888);
        let full = format!("{}\n{}\n", e1.render(), e2.render());
        let keep = e1.render().len() + 1;
        let last = e2.render();

        for cut in 0..last.len() {
            let text = &full[..keep + cut];
            let p = parse_salvage(text);
            assert_eq!(
                p.entries.len(),
                1,
                "cut at byte {cut} of {:?} must not mis-parse: {:?}",
                &last[..cut],
                p.entries
            );
            assert_eq!(p.entries[0], e1, "first row survives a cut at {cut}");
            if cut == 0 {
                // Clean EOF right after the first row: nothing torn.
                assert_eq!(p.torn_tail, None);
            } else {
                assert_eq!(
                    p.torn_tail.as_deref(),
                    Some(&last[..cut]),
                    "the torn tail is reported verbatim (cut at {cut})"
                );
            }
        }

        // Untruncated file: both rows, no warning.
        let p = parse_salvage(&full);
        assert_eq!(p.entries, vec![e1, e2]);
        assert_eq!(p.torn_tail, None);
        // A complete-but-unknown trailing line is forward-compatible junk,
        // not a torn tail — silently skipped, exactly as `parse` does.
        let p = parse_salvage("{\"bench\":\"a\",\"cycles_per_sec\":10.000,\"unix_secs\":1}\n{\"other\":1}");
        assert_eq!(p.entries.len(), 1);
        assert_eq!(p.torn_tail, None);
    }

    #[test]
    fn append_creates_dirs_and_appends() {
        let dir = std::env::temp_dir().join(format!(
            "bionicdb-history-test-{}-{}",
            std::process::id(),
            now_unix()
        ));
        let path = dir.join("nested").join("h.jsonl");
        append(&path, &entry("x", 1.0, 1)).expect("first append");
        append(&path, &entry("x", 2.0, 2)).expect("second append");
        let text = std::fs::read_to_string(&path).expect("readable");
        let entries = parse(&text);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[1].cycles_per_sec, 2.0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
