//! Live serving for the Silo baseline: open-loop traffic, admission
//! control, deadlines, and graceful degradation.
//!
//! Every other measurement in this repo is closed-loop: the driver issues
//! the next transaction when the previous one finishes, so the system can
//! never be *offered* more than it can serve. Real OLTP front-ends are
//! open-loop — clients arrive on their own clock — and the interesting
//! regime is overload: what happens to *goodput* (transactions committed
//! within their deadline) when the offered load passes saturation. With no
//! control, an unbounded queue absorbs the excess, sojourn times grow
//! without bound, and every admitted request eventually misses its
//! deadline: throughput stays at capacity while goodput collapses toward
//! zero. Admission control (a bounded queue plus a shedding policy),
//! server-side deadline enforcement (doomed transactions abort at the
//! commit point instead of occupying a worker), and budgeted client retry
//! keep queueing delay bounded, so goodput plateaus at capacity instead.
//!
//! ## Layout
//!
//! * [`arrival`] — the open-loop arrival processes (Poisson, 2-state
//!   MMPP), with typed validation errors for degenerate parameters;
//! * [`queue`] — the bounded admission queue and shedding policies, a
//!   pure data structure shared by every engine;
//! * [`engine`] — the engine-agnostic front end: the [`ServeEngine`]
//!   trait (admit → dispatch → completion events in virtual time), the
//!   generic serving loop, and the [`BatchPolicy`] cross-transaction
//!   batching dispatcher;
//! * [`sim`] — the Silo virtual-time engine: service times come from the
//!   calibrated Xeon core model, events run on a discrete-event heap,
//!   summaries are byte-stable (the `goldencheck` serve golden);
//! * [`hw`] — the BionicDB hardware engine: dispatches submit
//!   transactions into the cycle-accurate [`bionicdb::Machine`] mid-run
//!   (`submit` between `step_until` calls, DESIGN.md §17) and completions
//!   surface at exact simulated-commit times.
//!
//! Both engines run in virtual time through [`engine::serve_with`], which
//! enforces deadlines at the commit point for each of them: a completion
//! past its deadline is a timeout, and its service time is still spent.
//!
//! The Silo transaction mixes come from [`bionicdb_workloads::ServeMix`]
//! — the same five systems the closed-loop figures drive; the hardware
//! engine maps each [`bionicdb_workloads::ServeKind`] onto the matching
//! BionicDB workload through the `Workload` ABI.

pub mod arrival;
pub mod engine;
pub mod hw;
pub mod queue;
pub mod sim;

pub use arrival::{ArrivalGen, ArrivalProcess, ServeConfigError};
pub use engine::{BatchPolicy, Completion, Dispatch, ServeEngine};
pub use queue::{AdmissionQueue, Shed, ShedPolicy, Ticket};

use bionicdb_fpga::obs::LatencyHistogram;

/// Client-side retry behaviour when a request is rejected, evicted or
/// aborted (timed-out requests are never retried — the client's deadline
/// has passed either way).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RetryMode {
    /// Never retry.
    None,
    /// The storm-prone baseline: re-enqueue immediately, no backoff, no
    /// budget, up to `max_attempts` total attempts.
    Immediate {
        /// Total attempts per request (1 = no retries).
        max_attempts: u32,
    },
    /// Exponential backoff plus a global retry budget (token bucket).
    Budgeted(RetryPolicy),
}

/// Budgeted retry: exponential backoff capped at `max_backoff_ns`, and a
/// token bucket that earns `budget_ratio` tokens per *fresh* request —
/// so retries can never exceed that fraction of offered load, which is
/// what prevents retry storms from amplifying an overload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per request (1 = no retries).
    pub max_attempts: u32,
    /// First retry waits this long.
    pub base_backoff_ns: u64,
    /// Backoff ceiling.
    pub max_backoff_ns: u64,
    /// Retry tokens earned per fresh request (e.g. 0.1 = at most 10%
    /// extra load from retries).
    pub budget_ratio: f64,
    /// Token bucket depth (burst of retries allowed after a quiet spell).
    pub burst: f64,
}

impl RetryPolicy {
    /// Backoff before attempt `attempt` (the first retry is attempt 1).
    pub fn backoff_ns(&self, attempt: u32) -> u64 {
        let shift = attempt.saturating_sub(1).min(20);
        self.base_backoff_ns
            .saturating_mul(1u64 << shift)
            .min(self.max_backoff_ns)
    }
}

/// The retry token bucket. Earns tokens on fresh arrivals, spends one per
/// retry; an empty bucket means the retry is dropped on the floor.
#[derive(Debug, Clone, Copy)]
pub struct RetryBucket {
    tokens: f64,
    ratio: f64,
    burst: f64,
}

impl RetryBucket {
    /// A bucket starting full.
    pub fn new(policy: &RetryPolicy) -> RetryBucket {
        RetryBucket {
            tokens: policy.burst,
            ratio: policy.budget_ratio,
            burst: policy.burst,
        }
    }

    /// A fresh request arrived: earn `budget_ratio` tokens.
    pub fn on_fresh(&mut self) {
        self.tokens = (self.tokens + self.ratio).min(self.burst);
    }

    /// Spend one token for a retry; `false` = budget exhausted.
    pub fn try_take(&mut self) -> bool {
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// One serving run's parameters.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Logical servers (worker lanes draining the queue).
    pub servers: usize,
    /// Shedding policy.
    pub policy: ShedPolicy,
    /// Queue bound (ignored under [`ShedPolicy::None`]).
    pub queue_capacity: usize,
    /// Relative deadline per request, nanoseconds.
    pub deadline_ns: u64,
    /// Server-side enforcement: skip expired requests at dispatch and
    /// abort doomed transactions at the commit point. Off = the server
    /// happily burns workers on work nobody is waiting for.
    pub enforce_deadline: bool,
    /// Client retry behaviour.
    pub retry: RetryMode,
    /// Arrival process.
    pub arrivals: ArrivalProcess,
    /// Fresh requests to offer.
    pub requests: usize,
    /// RNG seed (arrival gaps and transaction parameter draws use
    /// decorrelated streams derived from it).
    pub seed: u64,
    /// Cross-transaction batching at the dispatcher: admitted requests
    /// stage into groups before entering the engine (see
    /// [`engine::BatchPolicy`]). `None` — every stock configuration —
    /// dispatches one at a time, byte-identical to the pre-batching
    /// front end.
    pub batch: Option<BatchPolicy>,
}

impl ServeConfig {
    /// The no-control baseline: unbounded FIFO, no enforcement, naive
    /// immediate retry.
    pub fn baseline(
        arrivals: ArrivalProcess,
        requests: usize,
        deadline_ns: u64,
        servers: usize,
        seed: u64,
    ) -> ServeConfig {
        ServeConfig {
            servers,
            policy: ShedPolicy::None,
            queue_capacity: usize::MAX,
            deadline_ns,
            enforce_deadline: false,
            retry: RetryMode::Immediate { max_attempts: 10 },
            arrivals,
            requests,
            seed,
            batch: None,
        }
    }

    /// The controlled server: bounded queue with deadline-aware drops,
    /// commit-point enforcement, budgeted backoff retry.
    pub fn controlled(
        arrivals: ArrivalProcess,
        requests: usize,
        deadline_ns: u64,
        servers: usize,
        seed: u64,
    ) -> ServeConfig {
        ServeConfig {
            servers,
            policy: ShedPolicy::DeadlineDrop,
            queue_capacity: 4 * servers.max(1),
            deadline_ns,
            enforce_deadline: true,
            retry: RetryMode::Budgeted(RetryPolicy {
                max_attempts: 4,
                base_backoff_ns: deadline_ns / 8,
                max_backoff_ns: deadline_ns / 2,
                budget_ratio: 0.1,
                burst: 8.0,
            }),
            arrivals,
            requests,
            seed,
            batch: None,
        }
    }

    /// Enable cross-transaction batched admission (builder style): stage
    /// admitted requests into groups of `width`, flushing a non-full
    /// group once its oldest member has waited `age_flush_ns`.
    pub fn with_batch(mut self, width: usize, age_flush_ns: u64) -> ServeConfig {
        self.batch = Some(BatchPolicy {
            width,
            age_flush_ns,
        });
        self
    }

    /// Reject degenerate parameters with a typed error: zero servers,
    /// invalid arrival rates (zero/negative/NaN/infinite), zero MMPP dwell
    /// times, a zero-capacity queue under a bounded shedding policy (which
    /// would shed every request on arrival and measure nothing), and a
    /// zero-wide batch policy. The engines call this before running.
    pub fn validate(&self) -> Result<(), ServeConfigError> {
        if self.servers == 0 {
            return Err(ServeConfigError::ZeroServers);
        }
        self.arrivals.validate()?;
        if self.policy != ShedPolicy::None && self.queue_capacity == 0 {
            return Err(ServeConfigError::ZeroQueueCapacity);
        }
        if self.batch.is_some_and(|b| b.width == 0) {
            return Err(ServeConfigError::ZeroBatchWidth);
        }
        Ok(())
    }
}

/// Terminal outcome counts plus queue/latency detail for one serving run.
/// Every fresh request ends in exactly one of the five terminal buckets:
/// `good + late + timed_out + shed + aborted == fresh`.
#[derive(Debug, Clone)]
pub struct ServeSummary {
    /// Fresh requests offered.
    pub fresh: u64,
    /// Retry attempts enqueued (not counted in `fresh`).
    pub retries: u64,
    /// Transaction bodies actually executed (any outcome).
    pub executed: u64,
    /// Committed within deadline — the goodput numerator.
    pub good: u64,
    /// Committed after the deadline (possible only without enforcement:
    /// the server did the work, the client had stopped waiting).
    pub late: u64,
    /// Missed the deadline: expired in queue, skipped at dispatch, or
    /// cancelled at the commit point.
    pub timed_out: u64,
    /// Shed (rejected or evicted) with no retry left.
    pub shed: u64,
    /// OCC-aborted with no retry left.
    pub aborted: u64,
    /// Admission rejections (event count; retries may follow).
    pub rejected: u64,
    /// Expired entries purged from the queue.
    pub dropped_expired: u64,
    /// Entries evicted by later arrivals.
    pub evicted: u64,
    /// Deepest queue depth observed.
    pub queue_high_water: u64,
    /// Virtual time from first arrival to last terminal event.
    pub horizon_ns: u64,
    /// Total server-busy nanoseconds (all executions).
    pub busy_ns: u64,
    /// Server-busy nanoseconds spent on `good` requests — the useful
    /// fraction of the machine.
    pub good_busy_ns: u64,
    /// Sojourn time (birth → commit) of `good` requests, nanoseconds.
    pub sojourn: LatencyHistogram,
}

impl ServeSummary {
    /// An all-zero summary.
    pub fn new() -> ServeSummary {
        ServeSummary {
            fresh: 0,
            retries: 0,
            executed: 0,
            good: 0,
            late: 0,
            timed_out: 0,
            shed: 0,
            aborted: 0,
            rejected: 0,
            dropped_expired: 0,
            evicted: 0,
            queue_high_water: 0,
            horizon_ns: 0,
            busy_ns: 0,
            good_busy_ns: 0,
            sojourn: LatencyHistogram::new(),
        }
    }

    /// Goodput: committed-in-deadline requests per second of run horizon.
    pub fn goodput_per_sec(&self) -> f64 {
        if self.horizon_ns == 0 {
            0.0
        } else {
            self.good as f64 / (self.horizon_ns as f64 / 1e9)
        }
    }

    /// Fraction of fresh requests shed (rejected/evicted, no retry left).
    pub fn shed_rate(&self) -> f64 {
        if self.fresh == 0 {
            0.0
        } else {
            self.shed as f64 / self.fresh as f64
        }
    }

    /// Fraction of fresh requests that missed their deadline (late +
    /// timed out).
    pub fn timeout_rate(&self) -> f64 {
        if self.fresh == 0 {
            0.0
        } else {
            (self.late + self.timed_out) as f64 / self.fresh as f64
        }
    }

    /// Terminal-outcome conservation: every fresh request ended exactly
    /// once. Panics (with the ledger) when violated — the engines call
    /// this before returning.
    pub fn assert_conserved(&self) {
        let total = self.good + self.late + self.timed_out + self.shed + self.aborted;
        assert_eq!(
            total, self.fresh,
            "terminal outcomes must partition fresh requests: {self:?}"
        );
    }

    /// Render as a deterministic single-object JSON string (fixed field
    /// order, fixed float formats) — the byte-stable form `goldencheck`
    /// pins to a golden.
    pub fn render_json(&self, label: &str) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"label\":\"{label}\",\"fresh\":{},\"retries\":{},\"executed\":{},\
             \"good\":{},\"late\":{},\"timed_out\":{},\"shed\":{},\"aborted\":{},\
             \"rejected\":{},\"dropped_expired\":{},\"evicted\":{},\"queue_high_water\":{},\
             \"horizon_ns\":{},\"busy_ns\":{},\"good_busy_ns\":{},\
             \"goodput_per_sec\":{:.3},\"shed_rate\":{:.4},\"timeout_rate\":{:.4},\"sojourn\":{{",
            self.fresh,
            self.retries,
            self.executed,
            self.good,
            self.late,
            self.timed_out,
            self.shed,
            self.aborted,
            self.rejected,
            self.dropped_expired,
            self.evicted,
            self.queue_high_water,
            self.horizon_ns,
            self.busy_ns,
            self.good_busy_ns,
            self.goodput_per_sec(),
            self.shed_rate(),
            self.timeout_rate(),
        );
        self.sojourn.write_json_fields(&mut s);
        s.push_str("}}");
        s
    }
}

impl Default for ServeSummary {
    fn default() -> Self {
        ServeSummary::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_backoff_doubles_and_caps() {
        let p = RetryPolicy {
            max_attempts: 8,
            base_backoff_ns: 100,
            max_backoff_ns: 1_000,
            budget_ratio: 0.1,
            burst: 8.0,
        };
        assert_eq!(p.backoff_ns(1), 100);
        assert_eq!(p.backoff_ns(2), 200);
        assert_eq!(p.backoff_ns(3), 400);
        assert_eq!(p.backoff_ns(5), 1_000, "capped");
        assert_eq!(p.backoff_ns(40), 1_000, "shift clamped, still capped");
    }

    #[test]
    fn retry_budget_exhausts_at_ratio() {
        let p = RetryPolicy {
            max_attempts: 8,
            base_backoff_ns: 1,
            max_backoff_ns: 1,
            budget_ratio: 0.1,
            burst: 5.0,
        };
        let mut b = RetryBucket::new(&p);
        // Drain the initial burst.
        let mut burst = 0;
        while b.try_take() {
            burst += 1;
        }
        assert_eq!(burst, 5);
        // 100 fresh requests earn 10 tokens: no more than 10 retries.
        let mut granted = 0;
        for _ in 0..100 {
            b.on_fresh();
            if b.try_take() {
                granted += 1;
            }
        }
        assert!(granted <= 10, "budget 0.1 × 100 fresh, got {granted}");
        assert!(granted >= 9, "earned tokens are spendable, got {granted}");
    }

    #[test]
    fn summary_json_is_deterministic_and_conserved() {
        let mut s = ServeSummary::new();
        s.fresh = 10;
        s.good = 6;
        s.late = 1;
        s.timed_out = 1;
        s.shed = 1;
        s.aborted = 1;
        s.horizon_ns = 1_000_000;
        s.sojourn.record(500);
        s.assert_conserved();
        assert_eq!(s.render_json("x"), s.render_json("x"));
        assert!(s.render_json("x").starts_with("{\"label\":\"x\",\"fresh\":10,"));
    }

    #[test]
    fn config_validate_rejects_degenerate_setups() {
        let good = ServeConfig::controlled(
            ArrivalProcess::Poisson { rate_per_sec: 1e5 },
            10,
            1_000_000,
            2,
            1,
        );
        assert!(good.validate().is_ok());

        let mut bad_rate = good;
        bad_rate.arrivals = ArrivalProcess::Poisson {
            rate_per_sec: f64::NAN,
        };
        assert!(matches!(
            bad_rate.validate().unwrap_err(),
            ServeConfigError::InvalidRate("rate_per_sec", _)
        ));

        let mut zero_cap = good;
        zero_cap.queue_capacity = 0;
        assert_eq!(
            zero_cap.validate().unwrap_err(),
            ServeConfigError::ZeroQueueCapacity
        );

        // An *unbounded* queue never consults its capacity: zero is fine.
        let mut unbounded = good;
        unbounded.policy = ShedPolicy::None;
        unbounded.queue_capacity = 0;
        assert!(unbounded.validate().is_ok());

        let mut no_servers = good;
        no_servers.servers = 0;
        assert_eq!(
            no_servers.validate().unwrap_err(),
            ServeConfigError::ZeroServers
        );

        assert_eq!(
            good.with_batch(0, 1_000).validate().unwrap_err(),
            ServeConfigError::ZeroBatchWidth
        );
        assert!(good.with_batch(1, 1_000).validate().is_ok());
    }

    #[test]
    fn with_batch_sets_policy_and_stock_configs_have_none() {
        let cfg = ServeConfig::baseline(
            ArrivalProcess::Poisson { rate_per_sec: 1e5 },
            10,
            1_000_000,
            2,
            1,
        );
        assert_eq!(cfg.batch, None, "stock configs stay unbatched");
        let batched = cfg.with_batch(8, 50_000);
        assert_eq!(
            batched.batch,
            Some(BatchPolicy {
                width: 8,
                age_flush_ns: 50_000
            })
        );
    }

    #[test]
    #[should_panic(expected = "terminal outcomes")]
    fn unbalanced_ledger_panics() {
        let mut s = ServeSummary::new();
        s.fresh = 3;
        s.good = 1;
        s.assert_conserved();
    }
}
