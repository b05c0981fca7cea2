//! Machine-readable results for the benchmark binaries.
//!
//! Every bin accepts `--json <path>`: alongside its human-readable tables
//! it then writes one JSON document with a row per measurement, including
//! throughput, the latency-percentile summary (p50/p95/p99 from the
//! machine's observability histograms), and the abort-reason breakdown.
//! The serializer is hand-rolled (offline build, no serde) and emits keys
//! in a fixed order, so two identical fixed-seed runs produce
//! byte-identical dumps — `goldencheck`'s `stats` check compares a rerun
//! byte for byte to test cycle determinism.

use crate::Tput;
use bionicdb::Machine;

/// Collects result rows and writes them to the `--json` path on
/// [`JsonOut::write`]. When the flag is absent every method is a cheap
/// no-op, so bins call it unconditionally.
#[derive(Debug)]
pub struct JsonOut {
    bin: String,
    path: Option<String>,
    rows: Vec<String>,
}

impl JsonOut {
    /// Parse `--json <path>` from the process arguments (shared bench-bin
    /// vocabulary, see [`crate::BenchArgs`]).
    pub fn from_env(bin: &str) -> JsonOut {
        JsonOut {
            bin: bin.to_string(),
            path: crate::BenchArgs::raw_env()
                .json_path()
                .map(str::to_string),
            rows: Vec::new(),
        }
    }

    /// Collect rows for a fixed output `path` instead of `--json`.
    pub fn to_path(bin: &str, path: &str) -> JsonOut {
        JsonOut {
            bin: bin.to_string(),
            path: Some(path.to_string()),
            rows: Vec::new(),
        }
    }

    /// True when a `--json` path was given (rows are being collected).
    pub fn active(&self) -> bool {
        self.path.is_some()
    }

    /// Add a measurement row backed by a machine: throughput plus the full
    /// [`bionicdb::MachineReport`] (latency percentiles, abort reasons,
    /// stage/NoC/DRAM counters).
    pub fn machine_row(&mut self, label: &str, tput: Option<Tput>, m: &Machine) {
        if !self.active() {
            return;
        }
        let row = render_machine_row(label, tput, m);
        self.rows.push(row);
    }

    /// Add a pre-rendered row (see [`render_machine_row`] — the sweep bins
    /// render rows inside `par_map` closures, where the machine dies with
    /// the closure, and push them here afterwards).
    pub fn push_raw(&mut self, row: String) {
        if self.active() {
            self.rows.push(row);
        }
    }

    /// Add a plain scalar row (model-time baselines, resource estimates —
    /// anything without a simulated machine behind it).
    pub fn value_row(&mut self, label: &str, value: f64) {
        if !self.active() {
            return;
        }
        self.rows.push(format!(
            "{{\"label\":\"{}\",\"kind\":\"value\",\"value\":{:.6}}}",
            bionicdb_fpga::obs::json_escape(label),
            value
        ));
    }

    /// Serialize the collected rows into the full document.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\"bin\":\"");
        out.push_str(&bionicdb_fpga::obs::json_escape(&self.bin));
        out.push_str("\",\"rows\":[");
        for (i, r) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(r);
        }
        out.push_str("]}");
        out.push('\n');
        out
    }

    /// Serialize the collected rows and write them to the `--json` path.
    /// Call once, at the end of `main`; a no-op without the flag.
    pub fn write(self) {
        let Some(path) = self.path.clone() else {
            return;
        };
        let out = self.render();
        if let Err(e) = std::fs::write(&path, &out) {
            eprintln!("error: cannot write --json {path}: {e}");
            std::process::exit(1);
        }
        println!("\nwrote {path}");
    }
}

/// Validate that `s` is one syntactically well-formed JSON value (the
/// whole string, no trailing garbage beyond whitespace). A tiny
/// recursive-descent checker — the offline build has no serde, and
/// `goldencheck` (its `stats` check and the serving matrices) only needs
/// to prove the hand-rolled writers emit parseable documents.
pub fn validate(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut i = skip_ws(b, 0);
    i = value(b, i)?;
    i = skip_ws(b, i);
    if i != b.len() {
        return Err(format!("trailing bytes at offset {i}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], mut i: usize) -> usize {
    while i < b.len() && matches!(b[i], b' ' | b'\t' | b'\n' | b'\r') {
        i += 1;
    }
    i
}

fn value(b: &[u8], i: usize) -> Result<usize, String> {
    let i = skip_ws(b, i);
    match b.get(i) {
        Some(b'{') => object(b, i),
        Some(b'[') => array(b, i),
        Some(b'"') => string(b, i),
        Some(b't') => literal(b, i, b"true"),
        Some(b'f') => literal(b, i, b"false"),
        Some(b'n') => literal(b, i, b"null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, i),
        Some(c) => Err(format!("unexpected byte {:?} at offset {i}", *c as char)),
        None => Err("unexpected end of input".into()),
    }
}

fn object(b: &[u8], mut i: usize) -> Result<usize, String> {
    i = skip_ws(b, i + 1);
    if b.get(i) == Some(&b'}') {
        return Ok(i + 1);
    }
    loop {
        i = string(b, skip_ws(b, i))?;
        i = skip_ws(b, i);
        if b.get(i) != Some(&b':') {
            return Err(format!("expected ':' at offset {i}"));
        }
        i = value(b, i + 1)?;
        i = skip_ws(b, i);
        match b.get(i) {
            Some(b',') => i += 1,
            Some(b'}') => return Ok(i + 1),
            _ => return Err(format!("expected ',' or '}}' at offset {i}")),
        }
    }
}

fn array(b: &[u8], mut i: usize) -> Result<usize, String> {
    i = skip_ws(b, i + 1);
    if b.get(i) == Some(&b']') {
        return Ok(i + 1);
    }
    loop {
        i = value(b, i)?;
        i = skip_ws(b, i);
        match b.get(i) {
            Some(b',') => i += 1,
            Some(b']') => return Ok(i + 1),
            _ => return Err(format!("expected ',' or ']' at offset {i}")),
        }
    }
}

fn string(b: &[u8], i: usize) -> Result<usize, String> {
    if b.get(i) != Some(&b'"') {
        return Err(format!("expected string at offset {i}"));
    }
    let mut i = i + 1;
    while let Some(&c) = b.get(i) {
        match c {
            b'"' => return Ok(i + 1),
            b'\\' => i += 2,
            _ => i += 1,
        }
    }
    Err("unterminated string".into())
}

fn literal(b: &[u8], i: usize, lit: &[u8]) -> Result<usize, String> {
    if b.len() >= i + lit.len() && &b[i..i + lit.len()] == lit {
        Ok(i + lit.len())
    } else {
        Err(format!("bad literal at offset {i}"))
    }
}

fn number(b: &[u8], mut i: usize) -> Result<usize, String> {
    let start = i;
    if b.get(i) == Some(&b'-') {
        i += 1;
    }
    let digits = |b: &[u8], mut i: usize| {
        let s = i;
        while i < b.len() && b[i].is_ascii_digit() {
            i += 1;
        }
        (i, i > s)
    };
    let (j, ok) = digits(b, i);
    if !ok {
        return Err(format!("bad number at offset {start}"));
    }
    i = j;
    if b.get(i) == Some(&b'.') {
        let (j, ok) = digits(b, i + 1);
        if !ok {
            return Err(format!("bad fraction at offset {i}"));
        }
        i = j;
    }
    if matches!(b.get(i), Some(b'e') | Some(b'E')) {
        i += 1;
        if matches!(b.get(i), Some(b'+') | Some(b'-')) {
            i += 1;
        }
        let (j, ok) = digits(b, i);
        if !ok {
            return Err(format!("bad exponent at offset {i}"));
        }
        i = j;
    }
    Ok(i)
}

/// Render one machine-backed measurement row as a JSON object string.
pub fn render_machine_row(label: &str, tput: Option<Tput>, m: &Machine) -> String {
    use std::fmt::Write as _;
    let mut row = String::new();
    let _ = write!(
        row,
        "{{\"label\":\"{}\",\"kind\":\"machine\"",
        bionicdb_fpga::obs::json_escape(label)
    );
    if let Some(t) = tput {
        let _ = write!(
            row,
            ",\"per_sec\":{:.3},\"committed\":{},\"aborted\":{}",
            t.per_sec, t.committed, t.aborted
        );
    }
    row.push_str(",\"report\":");
    row.push_str(&m.report().to_json());
    row.push('}');
    row
}

#[cfg(test)]
mod tests {
    use super::validate;

    #[test]
    fn validator_accepts_well_formed_documents() {
        for ok in [
            "{}",
            "[]",
            "null",
            "-12.5e-3",
            r#"{"a":[1,2,{"b":"c\"d"}],"e":true,"f":null}"#,
            "  { \"x\" : [ 1 , 2 ] }  ",
        ] {
            assert!(validate(ok).is_ok(), "{ok} should validate");
        }
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        for bad in [
            "{", "}", "{\"a\":}", "[1,]", "{\"a\" 1}", "tru", "1.2.3", "{} extra",
            "\"unterminated",
        ] {
            assert!(validate(bad).is_err(), "{bad} should be rejected");
        }
    }
}
