//! A transparent recording wrapper around any [`ServeEngine`].
//!
//! The front end calls the engine exactly as before; the wrapper only
//! watches. From the dispatches and completions it sees, it keeps the
//! per-request records the exact percentiles need (sojourn of every
//! in-deadline commit, admission wait, service time) and, when a span
//! recorder is installed, a host-time span around every `dispatch` and
//! `advance` call keyed by ticket id.

use bionicdb_bench::serve::{Completion, Dispatch, ServeEngine, Ticket};

use crate::trace::Spans;

/// Records one serving run's per-request outcomes.
pub struct Timed<'s, E> {
    inner: E,
    spans: Option<&'s mut Spans>,
    /// Sojourns (arrival → commit, ns) of in-deadline commits.
    pub good_sojourn_ns: Vec<u64>,
    /// Admission waits (dispatch − arrival, ns) of first attempts.
    pub admit_wait_ns: Vec<u64>,
    /// Service times (dispatch → completion, ns) of every execution.
    pub service_ns: Vec<u64>,
    /// `advance` calls made by the front end.
    pub advance_calls: u64,
}

impl<'s, E: ServeEngine> Timed<'s, E> {
    /// Wrap `inner`; with `spans`, also record host-time spans.
    pub fn new(inner: E, spans: Option<&'s mut Spans>) -> Self {
        Timed {
            inner,
            spans,
            good_sojourn_ns: Vec::new(),
            admit_wait_ns: Vec::new(),
            service_ns: Vec::new(),
            advance_calls: 0,
        }
    }

    /// In-deadline commits seen, which must equal the front end's
    /// `ServeSummary::good`.
    pub fn good(&self) -> u64 {
        self.good_sojourn_ns.len() as u64
    }

    /// Account one finished execution the same way the front end settles
    /// it: a commit counts as good only when it lands by its deadline.
    fn record(&mut self, tk: &Ticket, done_ns: u64, committed: bool, svc_ns: u64) {
        self.service_ns.push(svc_ns);
        if committed && done_ns <= tk.deadline_ns {
            self.good_sojourn_ns.push(done_ns - tk.born_ns);
        }
    }
}

impl<E: ServeEngine> ServeEngine for Timed<'_, E> {
    fn servers(&self) -> usize {
        self.inner.servers()
    }

    fn dispatch(&mut self, tk: &Ticket, now_ns: u64) -> Dispatch {
        if tk.attempt == 0 {
            self.admit_wait_ns.push(now_ns - tk.born_ns);
        }
        let d = match self.spans.as_deref_mut() {
            Some(s) => {
                let id = s.open("engine.dispatch");
                let d = self.inner.dispatch(tk, now_ns);
                s.close(id, format!("\"ticket\":{},\"attempt\":{}", tk.id, tk.attempt));
                d
            }
            None => self.inner.dispatch(tk, now_ns),
        };
        if let Dispatch::Done {
            done_ns,
            committed,
            svc_ns,
        } = d
        {
            self.record(tk, done_ns, committed, svc_ns);
        }
        d
    }

    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }

    fn advance(&mut self, to_ns: u64) -> Vec<Completion> {
        self.advance_calls += 1;
        let done = match self.spans.as_deref_mut() {
            Some(s) => {
                let id = s.open("engine.advance");
                let done = self.inner.advance(to_ns);
                let ids: Vec<String> = done.iter().map(|c| c.ticket.id.to_string()).collect();
                s.close(id, format!("\"tickets\":[{}]", ids.join(",")));
                done
            }
            None => self.inner.advance(to_ns),
        };
        for c in &done {
            self.record(&c.ticket, c.done_ns, c.committed, c.svc_ns);
        }
        done
    }
}
