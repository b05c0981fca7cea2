//! Host-side observability primitives: latency histograms, transaction
//! lifecycle events, and trace sinks.
//!
//! The paper's evaluation leans on latency and utilization evidence (Table
//! 3's 6-cycle message pair, §5's per-stage occupancy, the utilization-driven
//! power model), so the reproduction needs to *see* where cycles go. This
//! module supplies the shared building blocks:
//!
//! * [`LatencyHistogram`] — a log2-bucketed histogram of cycle counts with
//!   exact count/sum/min/max and interpolated percentiles. Merging per-worker
//!   histograms is exact (bucket-wise addition), so per-worker collection and
//!   whole-machine reporting agree.
//! * [`TxnEvent`] — the lifecycle timestamps of one finished transaction
//!   (submit → logic start/end → commit start → finish), recorded by the
//!   softcore when a context retires.
//! * [`AbortReasons`] — per-cause abort counters keyed by the DB error the
//!   transaction last observed.
//! * [`TraceSink`] — a consumer of [`TxnEvent`]s. The default [`NullSink`]
//!   is *bit-inert*: every counter and histogram above is host-side
//!   bookkeeping collected unconditionally, and the only thing a real sink
//!   adds is event buffering — no simulated cycle, DRAM byte, or commit
//!   decision depends on which sink is installed (the equivalence tests in
//!   the umbrella crate prove this).
//!
//! Everything here is deliberately simulation-passive: recording into a
//! histogram or a sink never touches `Dram`, FIFOs, or any timing state.

use crate::timing::Cycle;

/// Number of log2 buckets. Bucket 0 holds exact zeros; bucket `b >= 1`
/// covers `[2^(b-1), 2^b - 1]`; the last bucket is unbounded above.
const BUCKETS: usize = 64;

/// A log2-bucketed latency histogram over `u64` cycle counts.
///
/// Recording is O(1); percentiles interpolate linearly inside the winning
/// bucket and are clamped to the exact observed `[min, max]` range, so
/// single-value histograms report that value exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

/// Bucket index for a value: 0 for 0, else `64 - leading_zeros`, capped.
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros() as usize).min(BUCKETS - 1)
    }
}

/// Inclusive value range covered by bucket `b`.
fn bucket_range(b: usize) -> (u64, u64) {
    if b == 0 {
        (0, 0)
    } else if b >= BUCKETS - 1 {
        (1u64 << (b - 1), u64::MAX)
    } else {
        (1u64 << (b - 1), (1u64 << b) - 1)
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation of `v` cycles.
    pub fn record(&mut self, v: Cycle) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Fold `other` into `self`. Merging is exact: the merged histogram is
    /// identical to one that recorded both observation streams directly.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `p`-th percentile (`p` in 0..=100), linearly interpolated inside
    /// the winning log2 bucket and clamped to the observed `[min, max]`.
    /// Returns 0.0 for an empty histogram.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (p / 100.0).clamp(0.0, 1.0) * self.count as f64;
        let mut seen = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (seen + c) as f64 >= rank {
                let (lo, hi) = bucket_range(b);
                let frac = ((rank - seen as f64) / c as f64).clamp(0.0, 1.0);
                let v = lo as f64 + frac * (hi - lo) as f64;
                return v.clamp(self.min as f64, self.max as f64);
            }
            seen += c;
        }
        self.max as f64
    }

    /// Median shortcut.
    pub fn p50(&self) -> f64 {
        self.percentile(50.0)
    }

    /// 95th percentile shortcut.
    pub fn p95(&self) -> f64 {
        self.percentile(95.0)
    }

    /// 99th percentile shortcut.
    pub fn p99(&self) -> f64 {
        self.percentile(99.0)
    }

    /// Append this histogram's summary as JSON object members (no braces)
    /// into `out`: `"count":..,"min":..,"max":..,"mean":..,"p50":..` etc.
    pub fn write_json_fields(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(
            out,
            "\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{:.3},\"p50\":{:.1},\"p95\":{:.1},\"p99\":{:.1}",
            self.count,
            self.sum,
            self.min(),
            self.max,
            self.mean(),
            self.p50(),
            self.p95(),
            self.p99()
        );
    }
}

/// Per-cause abort counters, keyed by the DB error status the aborting
/// transaction last collected through a `RET` (none → `other`: a voluntary
/// abort or a CPU exception such as divide-by-zero).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AbortReasons {
    /// Aborts after observing `NotFound`.
    pub not_found: u64,
    /// Aborts after observing a timestamp-CC conflict.
    pub cc_conflict: u64,
    /// Aborts after observing a dirty (uncommitted) tuple.
    pub dirty: u64,
    /// Aborts after observing a malformed-request rejection.
    pub bad_request: u64,
    /// Aborts after a synthesized interconnect timeout.
    pub timeout: u64,
    /// Aborts with no recorded DB error (voluntary abort, CPU exception).
    pub other: u64,
}

impl AbortReasons {
    /// Fold `other` into `self`.
    pub fn merge(&mut self, o: &AbortReasons) {
        self.not_found += o.not_found;
        self.cc_conflict += o.cc_conflict;
        self.dirty += o.dirty;
        self.bad_request += o.bad_request;
        self.timeout += o.timeout;
        self.other += o.other;
    }

    /// Total aborts across every cause.
    pub fn total(&self) -> u64 {
        self.not_found
            + self.cc_conflict
            + self.dirty
            + self.bad_request
            + self.timeout
            + self.other
    }

    /// Append the counters as JSON object members (no braces) into `out`.
    pub fn write_json_fields(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(
            out,
            "\"not_found\":{},\"cc_conflict\":{},\"dirty\":{},\"bad_request\":{},\"timeout\":{},\"other\":{}",
            self.not_found, self.cc_conflict, self.dirty, self.bad_request, self.timeout, self.other
        );
    }
}

/// The lifecycle timestamps of one finished transaction, recorded by the
/// softcore when the context retires in the commit phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnEvent {
    /// Worker/partition that executed the transaction.
    pub worker: u16,
    /// DRAM address of the transaction block (stable client handle).
    pub block_addr: u64,
    /// Cycle the host submitted the block to the input queue.
    pub submitted_at: Cycle,
    /// Cycle the transaction logic started executing (ingest).
    pub logic_start: Cycle,
    /// Cycle the logic phase ended (YIELD / exception).
    pub logic_end: Cycle,
    /// Cycle the commit/abort handler started.
    pub commit_start: Cycle,
    /// Cycle the context retired (COMMIT/ABORT executed).
    pub finished_at: Cycle,
    /// Whether the transaction committed.
    pub committed: bool,
}

/// A consumer of transaction lifecycle events.
///
/// Implementations must be simulation-passive: a sink only ever observes
/// copies of host-side data. The machine guarantees (and the equivalence
/// tests assert) that swapping sinks never changes cycle counts, the DRAM
/// image, or any statistic.
pub trait TraceSink {
    /// Whether this sink wants events at all. When `false` (the default),
    /// the softcores skip event buffering entirely.
    fn enabled(&self) -> bool {
        false
    }

    /// Consume one finished-transaction event.
    fn txn(&mut self, _ev: &TxnEvent) {}

    /// Export everything collected so far as a JSON document, if this sink
    /// produces one.
    fn export_json(&self) -> Option<String> {
        None
    }
}

/// The default no-op sink: provably bit-inert (it is never even called).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {}

/// A sink that buffers every event and exports Chrome trace-event JSON
/// (loadable in `chrome://tracing` and Perfetto). Each transaction emits
/// complete ("X") slices for its queue, logic, commit-wait and commit
/// phases, with `tid` = worker and timestamps in cycles (the viewer's "us"
/// unit reads as cycles).
#[derive(Debug, Default, Clone)]
pub struct ChromeTraceSink {
    events: Vec<TxnEvent>,
}

impl ChromeTraceSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Events collected so far.
    pub fn events(&self) -> &[TxnEvent] {
        &self.events
    }
}

impl TraceSink for ChromeTraceSink {
    fn enabled(&self) -> bool {
        true
    }

    fn txn(&mut self, ev: &TxnEvent) {
        self.events.push(*ev);
    }

    fn export_json(&self) -> Option<String> {
        use std::fmt::Write as _;
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        for ev in &self.events {
            let outcome = if ev.committed { "commit" } else { "abort" };
            let phases = [
                ("queue", ev.submitted_at, ev.logic_start),
                ("logic", ev.logic_start, ev.logic_end),
                ("commit-wait", ev.logic_end, ev.commit_start),
                (outcome, ev.commit_start, ev.finished_at),
            ];
            for (name, start, end) in phases {
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"block\":{}}}}}",
                    name,
                    ev.worker,
                    start,
                    end.saturating_sub(start),
                    ev.block_addr
                );
            }
        }
        out.push_str("],\"displayTimeUnit\":\"ns\"}");
        Some(out)
    }
}

/// Escape a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        // Exact zeros land in bucket 0; powers of two open a new bucket.
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(7), 2 + 1);
        assert_eq!(bucket_of(8), 4);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        for b in 0..BUCKETS {
            let (lo, hi) = bucket_range(b);
            assert_eq!(bucket_of(lo), b, "low edge of bucket {b}");
            assert_eq!(bucket_of(hi), b, "high edge of bucket {b}");
        }
    }

    #[test]
    fn single_value_percentiles_are_exact() {
        let mut h = LatencyHistogram::new();
        h.record(37);
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), 37);
        assert_eq!(h.max(), 37);
        assert!((h.mean() - 37.0).abs() < 1e-12);
        // Clamping to [min, max] makes every percentile exact here.
        assert_eq!(h.p50(), 37.0);
        assert_eq!(h.p99(), 37.0);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(99.0), 0.0);
    }

    #[test]
    fn percentile_interpolation_is_monotone_and_bounded() {
        let mut h = LatencyHistogram::new();
        for v in [1u64, 2, 3, 5, 8, 13, 100, 1000, 5000] {
            h.record(v);
        }
        let mut prev = 0.0;
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 100.0] {
            let v = h.percentile(p);
            assert!(v >= prev, "percentiles monotone (p={p}: {v} < {prev})");
            assert!((1.0..=5000.0).contains(&v), "bounded by observed range");
            prev = v;
        }
        // p100 is the max exactly; p0 at most the min's bucket top.
        assert_eq!(h.percentile(100.0), 5000.0);
    }

    #[test]
    fn merge_is_associative_and_exact() {
        let samples: Vec<u64> = (0..300).map(|i| (i * i * 7 + 3) % 10_000).collect();
        let mut whole = LatencyHistogram::new();
        let mut parts = [LatencyHistogram::new(); 3];
        for (i, &v) in samples.iter().enumerate() {
            whole.record(v);
            parts[i % 3].record(v);
        }
        // (a + b) + c == a + (b + c) == whole.
        let mut left = parts[0];
        left.merge(&parts[1]);
        left.merge(&parts[2]);
        let mut right = parts[2];
        right.merge(&parts[1]);
        right.merge(&parts[0]);
        assert_eq!(left, right, "merge order irrelevant");
        assert_eq!(left, whole, "merged parts equal the whole-run histogram");
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut h = LatencyHistogram::new();
        h.record(5);
        h.record(500);
        let before = h;
        h.merge(&LatencyHistogram::new());
        assert_eq!(h, before);
        let mut e = LatencyHistogram::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn abort_reasons_total_and_merge() {
        let mut a = AbortReasons {
            cc_conflict: 3,
            dirty: 1,
            ..AbortReasons::default()
        };
        let b = AbortReasons {
            timeout: 2,
            other: 4,
            ..AbortReasons::default()
        };
        a.merge(&b);
        assert_eq!(a.total(), 10);
        assert_eq!(a.cc_conflict, 3);
        assert_eq!(a.timeout, 2);
    }

    #[test]
    fn chrome_sink_exports_valid_slices() {
        let mut sink = ChromeTraceSink::new();
        assert!(sink.enabled());
        sink.txn(&TxnEvent {
            worker: 1,
            block_addr: 0x1000,
            submitted_at: 0,
            logic_start: 10,
            logic_end: 30,
            commit_start: 40,
            finished_at: 55,
            committed: true,
        });
        let json = sink.export_json().expect("chrome sink exports");
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"logic\""));
        assert!(json.contains("\"name\":\"commit\""));
        assert!(json.contains("\"tid\":1"));
        // Balanced braces: a crude well-formedness check.
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close);
    }

    #[test]
    fn null_sink_is_disabled() {
        assert!(!NullSink.enabled());
        assert!(NullSink.export_json().is_none());
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Splitting an observation stream across per-worker histograms and
        /// merging them back equals recording the whole run in one.
        #[test]
        fn merged_shards_equal_whole(
            values in proptest::collection::vec(0u64..1_000_000, 0..400),
            shards in 1usize..8,
        ) {
            let mut whole = LatencyHistogram::new();
            let mut parts = vec![LatencyHistogram::new(); shards];
            for (i, &v) in values.iter().enumerate() {
                whole.record(v);
                parts[i % shards].record(v);
            }
            let mut merged = LatencyHistogram::new();
            for p in &parts {
                merged.merge(p);
            }
            prop_assert_eq!(merged, whole);
        }

        /// Percentiles stay within the observed value range.
        #[test]
        fn percentiles_within_range(
            values in proptest::collection::vec(0u64..1_000_000, 1..200),
            p in 0u64..=100,
        ) {
            let mut h = LatencyHistogram::new();
            for &v in &values { h.record(v); }
            let lo = *values.iter().min().unwrap() as f64;
            let hi = *values.iter().max().unwrap() as f64;
            let got = h.percentile(p as f64);
            prop_assert!(got >= lo && got <= hi, "{got} outside [{lo}, {hi}]");
        }
    }
}
