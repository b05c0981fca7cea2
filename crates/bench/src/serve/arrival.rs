//! Open-loop arrival processes.
//!
//! Closed-loop drivers (the figure bins) issue the next transaction the
//! moment the previous one finishes, so the offered load self-throttles
//! to the service rate and overload is unobservable. Serving runs are
//! **open-loop**: arrivals come from a clock that does not care whether
//! the system keeps up. Two processes cover the evaluation:
//!
//! * [`ArrivalProcess::Poisson`] — memoryless arrivals at a fixed mean
//!   rate (exponential gaps by inverse CDF);
//! * [`ArrivalProcess::Mmpp`] — a 2-state Markov-modulated Poisson
//!   process: a *base* phase and a *burst* phase, each Poisson at its own
//!   rate, with exponentially distributed phase dwell times. This is the
//!   standard minimal model of bursty traffic; the burst phase is what
//!   defeats admission policies tuned to the mean.
//!
//! All times are integer nanoseconds so virtual-time runs are exactly
//! reproducible; gaps are clamped to at least 1 ns.

use rand::rngs::SmallRng;
use rand::Rng;

/// Which open-loop arrival process drives a serving run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals at `rate_per_sec`.
    Poisson {
        /// Mean arrival rate, requests per second.
        rate_per_sec: f64,
    },
    /// Two-state MMPP: Poisson at `base_rate` (resp. `burst_rate`) while
    /// in the base (resp. burst) phase; phases dwell for exponentially
    /// distributed times with the given means.
    Mmpp {
        /// Arrival rate in the base phase, requests per second.
        base_rate: f64,
        /// Arrival rate in the burst phase, requests per second.
        burst_rate: f64,
        /// Mean dwell time in the base phase, nanoseconds.
        mean_base_ns: u64,
        /// Mean dwell time in the burst phase, nanoseconds.
        mean_burst_ns: u64,
    },
}

/// Why a serving configuration was rejected. Degenerate parameters (zero
/// or NaN rates, a zero-capacity admission queue, no servers, a zero-wide
/// dispatch batch) used to slip through and produce nonsense sweeps —
/// infinite gaps, instant shedding of all traffic — that looked like
/// measurements; constructors and
/// [`ServeConfig::validate`](super::ServeConfig::validate) now refuse
/// them up front with a typed error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServeConfigError {
    /// An arrival rate was zero, negative, NaN, or infinite. Carries the
    /// parameter name and the offending value.
    InvalidRate(&'static str, f64),
    /// An MMPP phase dwell time was zero (the chain would flip phases
    /// every nanosecond walked, emitting nothing).
    ZeroDwell(&'static str),
    /// A bounded shedding policy with a zero-capacity queue: every
    /// request is shed on arrival and the sweep measures nothing.
    ZeroQueueCapacity,
    /// No servers: nothing could ever execute, and a capacity derived
    /// from the server count is zero.
    ZeroServers,
    /// A batched-admission policy with width 0: no staged group could
    /// ever fill.
    ZeroBatchWidth,
}

impl std::fmt::Display for ServeConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeConfigError::InvalidRate(name, v) => {
                write!(f, "{name} must be positive and finite, got {v}")
            }
            ServeConfigError::ZeroDwell(name) => {
                write!(f, "{name} must be nonzero (MMPP phases need dwell time)")
            }
            ServeConfigError::ZeroQueueCapacity => {
                write!(f, "bounded admission queue needs capacity >= 1")
            }
            ServeConfigError::ZeroServers => write!(f, "serving needs at least 1 server"),
            ServeConfigError::ZeroBatchWidth => write!(f, "batched admission needs width >= 1"),
        }
    }
}

impl std::error::Error for ServeConfigError {}

/// `true` for a usable per-second rate: positive and finite.
fn rate_ok(r: f64) -> bool {
    r.is_finite() && r > 0.0
}

impl ArrivalProcess {
    /// A validated Poisson process, rejecting zero/negative/NaN/infinite
    /// rates with a typed error.
    pub fn poisson(rate_per_sec: f64) -> Result<ArrivalProcess, ServeConfigError> {
        if !rate_ok(rate_per_sec) {
            return Err(ServeConfigError::InvalidRate("rate_per_sec", rate_per_sec));
        }
        Ok(ArrivalProcess::Poisson { rate_per_sec })
    }

    /// A validated 2-state MMPP, rejecting degenerate rates and zero
    /// phase dwell times with a typed error.
    pub fn mmpp(
        base_rate: f64,
        burst_rate: f64,
        mean_base_ns: u64,
        mean_burst_ns: u64,
    ) -> Result<ArrivalProcess, ServeConfigError> {
        if !rate_ok(base_rate) {
            return Err(ServeConfigError::InvalidRate("base_rate", base_rate));
        }
        if !rate_ok(burst_rate) {
            return Err(ServeConfigError::InvalidRate("burst_rate", burst_rate));
        }
        if mean_base_ns == 0 {
            return Err(ServeConfigError::ZeroDwell("mean_base_ns"));
        }
        if mean_burst_ns == 0 {
            return Err(ServeConfigError::ZeroDwell("mean_burst_ns"));
        }
        Ok(ArrivalProcess::Mmpp {
            base_rate,
            burst_rate,
            mean_base_ns,
            mean_burst_ns,
        })
    }

    /// Check the process's parameters (the named constructors call this;
    /// [`super::ServeConfig::validate`] re-checks literals built directly).
    pub fn validate(&self) -> Result<(), ServeConfigError> {
        match *self {
            ArrivalProcess::Poisson { rate_per_sec } => {
                ArrivalProcess::poisson(rate_per_sec).map(|_| ())
            }
            ArrivalProcess::Mmpp {
                base_rate,
                burst_rate,
                mean_base_ns,
                mean_burst_ns,
            } => ArrivalProcess::mmpp(base_rate, burst_rate, mean_base_ns, mean_burst_ns)
                .map(|_| ()),
        }
    }

    /// The long-run mean rate (requests per second) — what a load
    /// multiplier scales against.
    pub fn mean_rate(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate_per_sec } => rate_per_sec,
            ArrivalProcess::Mmpp {
                base_rate,
                burst_rate,
                mean_base_ns,
                mean_burst_ns,
            } => {
                let b = mean_base_ns as f64;
                let u = mean_burst_ns as f64;
                (base_rate * b + burst_rate * u) / (b + u)
            }
        }
    }
}

/// Sample an exponential gap with the given mean, in nanoseconds
/// (inverse CDF; clamped to ≥ 1 ns so virtual time always advances).
fn exp_ns(rng: &mut SmallRng, mean_ns: f64) -> u64 {
    let u: f64 = rng.gen();
    // 1 - u ∈ (0, 1]: ln is finite.
    let gap = -(1.0 - u).ln() * mean_ns;
    (gap as u64).max(1)
}

/// Stateful gap generator for one serving run.
#[derive(Debug, Clone)]
pub struct ArrivalGen {
    process: ArrivalProcess,
    /// MMPP only: currently in the burst phase?
    burst: bool,
    /// MMPP only: nanoseconds of dwell left in the current phase.
    dwell_ns: u64,
}

impl ArrivalGen {
    /// Start a generator (MMPP begins in the base phase).
    pub fn new(process: ArrivalProcess) -> ArrivalGen {
        ArrivalGen {
            process,
            burst: false,
            dwell_ns: 0,
        }
    }

    /// Nanoseconds until the next arrival. Consumes `rng` a deterministic
    /// number of times per call given the process parameters.
    pub fn next_gap_ns(&mut self, rng: &mut SmallRng) -> u64 {
        match self.process {
            ArrivalProcess::Poisson { rate_per_sec } => {
                exp_ns(rng, 1e9 / rate_per_sec)
            }
            ArrivalProcess::Mmpp {
                base_rate,
                burst_rate,
                mean_base_ns,
                mean_burst_ns,
            } => {
                // Walk phase dwell time until the next arrival lands
                // inside the current phase; phase switches consume dwell
                // but emit nothing.
                let mut total = 0u64;
                loop {
                    if self.dwell_ns == 0 {
                        self.dwell_ns = exp_ns(
                            rng,
                            if self.burst {
                                mean_burst_ns as f64
                            } else {
                                mean_base_ns as f64
                            },
                        );
                    }
                    let rate = if self.burst { burst_rate } else { base_rate };
                    let gap = exp_ns(rng, 1e9 / rate);
                    if gap <= self.dwell_ns {
                        self.dwell_ns -= gap;
                        return total + gap;
                    }
                    total += self.dwell_ns;
                    self.dwell_ns = 0;
                    self.burst = !self.burst;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn poisson_mean_gap_matches_rate() {
        let mut g = ArrivalGen::new(ArrivalProcess::Poisson {
            rate_per_sec: 1e6, // mean gap 1000 ns
        });
        let mut rng = SmallRng::seed_from_u64(7);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| g.next_gap_ns(&mut rng)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 1000.0).abs() < 50.0, "mean gap {mean} ns");
    }

    #[test]
    fn mmpp_long_run_rate_between_phase_rates() {
        let p = ArrivalProcess::Mmpp {
            base_rate: 1e5,
            burst_rate: 1e6,
            mean_base_ns: 1_000_000,
            mean_burst_ns: 250_000,
        };
        let mut g = ArrivalGen::new(p);
        let mut rng = SmallRng::seed_from_u64(11);
        let n = 50_000;
        let total: u64 = (0..n).map(|_| g.next_gap_ns(&mut rng)).sum();
        let rate = n as f64 / (total as f64 / 1e9);
        assert!(rate > 1e5 && rate < 1e6, "long-run rate {rate}/s");
        // ...and near the analytic mixture mean.
        let want = p.mean_rate();
        assert!(
            (rate - want).abs() / want < 0.15,
            "rate {rate}/s vs analytic {want}/s"
        );
    }

    #[test]
    fn poisson_constructor_rejects_degenerate_rates() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = ArrivalProcess::poisson(bad).unwrap_err();
            assert!(
                matches!(err, ServeConfigError::InvalidRate("rate_per_sec", _)),
                "{bad}: {err}"
            );
        }
        assert!(ArrivalProcess::poisson(1.0).is_ok());
    }

    #[test]
    fn mmpp_constructor_rejects_each_degenerate_parameter() {
        let ok = (1e5, 1e6, 1_000_000u64, 250_000u64);
        assert!(ArrivalProcess::mmpp(ok.0, ok.1, ok.2, ok.3).is_ok());
        assert_eq!(
            ArrivalProcess::mmpp(0.0, ok.1, ok.2, ok.3).unwrap_err(),
            ServeConfigError::InvalidRate("base_rate", 0.0)
        );
        assert!(matches!(
            ArrivalProcess::mmpp(ok.0, f64::NAN, ok.2, ok.3).unwrap_err(),
            ServeConfigError::InvalidRate("burst_rate", _)
        ));
        assert_eq!(
            ArrivalProcess::mmpp(ok.0, ok.1, 0, ok.3).unwrap_err(),
            ServeConfigError::ZeroDwell("mean_base_ns")
        );
        assert_eq!(
            ArrivalProcess::mmpp(ok.0, ok.1, ok.2, 0).unwrap_err(),
            ServeConfigError::ZeroDwell("mean_burst_ns")
        );
    }

    #[test]
    fn validate_catches_literals_built_directly() {
        let bad = ArrivalProcess::Poisson {
            rate_per_sec: f64::NAN,
        };
        assert!(bad.validate().is_err());
        let good = ArrivalProcess::Mmpp {
            base_rate: 1e5,
            burst_rate: 1e6,
            mean_base_ns: 1,
            mean_burst_ns: 1,
        };
        assert!(good.validate().is_ok());
    }

    #[test]
    fn fixed_seed_gap_stream_is_reproducible() {
        for p in [
            ArrivalProcess::Poisson { rate_per_sec: 5e5 },
            ArrivalProcess::Mmpp {
                base_rate: 2e5,
                burst_rate: 2e6,
                mean_base_ns: 500_000,
                mean_burst_ns: 100_000,
            },
        ] {
            let run = |seed| {
                let mut g = ArrivalGen::new(p);
                let mut rng = SmallRng::seed_from_u64(seed);
                (0..1000).map(|_| g.next_gap_ns(&mut rng)).collect::<Vec<_>>()
            };
            assert_eq!(run(3), run(3));
            assert_ne!(run(3), run(4));
        }
    }
}
