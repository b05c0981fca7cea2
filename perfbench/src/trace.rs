//! In-memory host-time spans around the benchmark's calls into each layer,
//! written out as Chrome-trace JSON at exit.
//!
//! Spans nest: a span opened while another is open becomes its child, so
//! a layer's *self* time is its span's duration minus its children's.
//! Recording costs two clock reads per span and nothing when no
//! [`Spans`] is installed (the untraced runs).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `engine.dispatch`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Identifying detail, already JSON: a ticket id, a rate, a count.
    pub args: String,
}

/// The span recorder.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Spans::close`] in LIFO order.
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            dur_ns: 0,
            parent: self.open.last().copied(),
            args: String::new(),
        });
        self.open.push(id);
        id
    }

    /// Close span `id` (the innermost open one), attaching `args`.
    pub fn close(&mut self, id: usize, args: String) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let end = self.now_ns();
        let s = &mut self.spans[id];
        s.dur_ns = end - s.start_ns;
        s.args = args;
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: `(total seconds, self seconds, count)`, where self
    /// time excludes the time covered by direct children.
    pub fn totals(&self) -> BTreeMap<&'static str, (f64, f64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (f64, f64, u64)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += s.dur_ns as f64 / 1e9;
            e.1 += s.dur_ns.saturating_sub(c) as f64 / 1e9;
            e.2 += 1;
        }
        out
    }

    /// Chrome trace-event JSON (complete `X` events, microsecond
    /// timestamps), the shape `ChromeTraceSink` emits; loadable in
    /// `chrome://tracing` and Perfetto.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{}{}{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.parent.map_or(-1, |p| p as i64),
                if s.args.is_empty() { "" } else { "," },
                s.args,
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ns\"}");
        out
    }
}

/// Run `f` inside a span named `name` when `spans` is present; with no
/// recorder, run it bare.
pub fn span<R>(spans: &mut Option<&mut Spans>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match spans {
        Some(s) => {
            let id = s.open(name);
            let r = f();
            s.close(id, String::new());
            r
        }
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_json_is_balanced() {
        let mut s = Spans::new();
        let outer = s.open("outer");
        for i in 0..3 {
            let c = s.open("child");
            std::thread::sleep(std::time::Duration::from_millis(2));
            s.close(c, format!("\"ticket\":{i}"));
        }
        s.close(outer, String::new());
        let t = s.totals();
        let (outer_total, outer_self, n) = t["outer"];
        let (child_total, child_self, m) = t["child"];
        assert_eq!((n, m), (1, 3));
        assert_eq!(child_total, child_self, "leaves are all self time");
        assert!(child_total >= 0.006);
        assert!((outer_self - (outer_total - child_total)).abs() < 1e-9);
        assert_eq!(s.spans()[1].parent, Some(0));
        let j = s.chrome_json();
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert!(j.contains("\"ticket\":2"));
    }

    #[test]
    #[should_panic(expected = "innermost")]
    fn spans_must_nest() {
        let mut s = Spans::new();
        let a = s.open("a");
        let _b = s.open("b");
        s.close(a, String::new());
    }
}
