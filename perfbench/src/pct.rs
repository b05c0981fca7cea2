//! Exact percentiles that score failures as misses, and the deterministic
//! capacity search built on them.
//!
//! A serving run offers `n` requests. Each one either committed within
//! its deadline, with a measured sojourn, or failed: shed, timed out,
//! aborted or late. A failure has no sojourn to sort, so it ranks above
//! every measured value, as if it had taken forever. A percentile whose
//! rank lands on a failure therefore misses any latency limit.

/// The fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: u64 = 10;

/// Sojourn outcomes of one run: sorted values of the requests that
/// succeeded plus a count of the requests that failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tail {
    ok: Vec<u64>,
    failed: u64,
}

/// The nearest-rank rule: the 1-based rank of the `p`-th percentile among
/// `n` samples is `ceil(p / 100 * n)`, clamped to `1..=n`.
pub fn rank(p: f64, n: u64) -> u64 {
    assert!(n > 0, "a percentile needs at least one sample");
    // Rounding the product to 1e-9 first keeps exact ranks (p99 of 1000
    // is rank 990, not 991 from 990.0000000000001) exact.
    let r = ((p / 100.0 * n as f64) * 1e9).round() / 1e9;
    (r.ceil() as u64).clamp(1, n)
}

impl Tail {
    /// Collect `ok` sojourns (any order) and `failed` failures.
    pub fn new(mut ok: Vec<u64>, failed: u64) -> Tail {
        ok.sort_unstable();
        Tail { ok, failed }
    }

    /// Pool the samples of several runs.
    pub fn pool(tails: Vec<Tail>) -> Tail {
        let failed = tails.iter().map(|t| t.failed).sum();
        Tail::new(tails.into_iter().flat_map(|t| t.ok).collect(), failed)
    }

    /// Samples: successes plus failures.
    pub fn n(&self) -> u64 {
        self.ok.len() as u64 + self.failed
    }

    /// Failed requests.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// The exact `p`-th percentile by [`rank`], or `None` when the rank
    /// lands on a failure (a miss of any limit).
    pub fn percentile(&self, p: f64) -> Option<u64> {
        let r = rank(p, self.n());
        self.ok.get(r as usize - 1).copied()
    }

    /// Samples ranked strictly above the `p`-th percentile.
    pub fn beyond(&self, p: f64) -> u64 {
        self.n() - rank(p, self.n())
    }

    /// The `p`-th percentile, but only when at least [`MIN_BEYOND`]
    /// samples lie beyond it; otherwise the sample is too small to state
    /// that percentile at all.
    pub fn reportable(&self, p: f64) -> Result<Option<u64>, String> {
        if self.beyond(p) < MIN_BEYOND {
            return Err(format!(
                "p{p} of {} samples has only {} beyond it (need {MIN_BEYOND})",
                self.n(),
                self.beyond(p)
            ));
        }
        Ok(self.percentile(p))
    }

    /// Requests that missed `limit`: failures plus successes slower than
    /// it.
    pub fn misses(&self, limit: u64) -> u64 {
        self.failed + (self.ok.len() - self.ok.partition_point(|&v| v <= limit)) as u64
    }

    /// Whether the `p`-th percentile stays within `limit`.
    pub fn meets(&self, p: f64, limit: u64) -> bool {
        self.percentile(p).is_some_and(|v| v <= limit)
    }
}

/// The misses a run of `n` requests may have while its `p`-th percentile
/// still meets a limit: every request ranked at or below the percentile
/// must be within it, so `n - rank` may miss.
pub fn allowed_misses(p: f64, n: u64) -> u64 {
    n - rank(p, n)
}

/// Why a capacity search could not produce a number.
#[derive(Debug, Clone, PartialEq)]
pub enum SearchError {
    /// The fixed floor rate already misses the limit.
    FloorFails { rate: f64, misses: u64 },
    /// The fixed ceiling rate still meets the limit: capacity would sit
    /// pinned at the top of the range.
    CeilingPasses { rate: f64, misses: u64 },
}

/// A finished capacity search.
#[derive(Debug, Clone, PartialEq)]
pub struct Capacity {
    /// The interpolated highest rate meeting the limit.
    pub rate: f64,
    /// Highest probed rate that met the limit.
    pub pass_rate: f64,
    /// Lowest probed rate that missed it.
    pub fail_rate: f64,
    /// Every probe in order: `(rate, misses)`.
    pub probes: Vec<(f64, u64)>,
}

/// Find the highest offered rate whose run meets the limit, between a
/// fixed `floor` (which must pass) and a fixed `ceiling` (which must
/// fail). `misses(rate)` runs one serving run and counts the requests
/// that missed the limit; a run passes with at most `allowed` misses.
///
/// After the guards, `steps` bisection probes narrow the bracket, and
/// the result interpolates linearly between the bracket's ends to the
/// point where misses cross `allowed + 0.5`, so it lies strictly inside
/// the final bracket and moves continuously with the curve instead of
/// snapping to the bisection grid.
pub fn search_capacity(
    floor: f64,
    ceiling: f64,
    steps: u32,
    allowed: u64,
    mut misses: impl FnMut(f64) -> u64,
) -> Result<Capacity, SearchError> {
    assert!(0.0 < floor && floor < ceiling, "search range must be increasing");
    let mut probes = Vec::new();
    let mut probe = |rate: f64, probes: &mut Vec<(f64, u64)>| {
        let m = misses(rate);
        probes.push((rate, m));
        m
    };
    let m_lo = probe(floor, &mut probes);
    if m_lo > allowed {
        return Err(SearchError::FloorFails { rate: floor, misses: m_lo });
    }
    let m_hi = probe(ceiling, &mut probes);
    if m_hi <= allowed {
        return Err(SearchError::CeilingPasses { rate: ceiling, misses: m_hi });
    }
    let (mut lo, mut hi, mut m_lo, mut m_hi) = (floor, ceiling, m_lo, m_hi);
    for _ in 0..steps {
        let mid = 0.5 * (lo + hi);
        let m = probe(mid, &mut probes);
        if m <= allowed {
            (lo, m_lo) = (mid, m);
        } else {
            (hi, m_hi) = (mid, m);
        }
    }
    let t = (allowed as f64 + 0.5 - m_lo as f64) / (m_hi as f64 - m_lo as f64);
    Ok(Capacity {
        rate: lo + t * (hi - lo),
        pass_rate: lo,
        fail_rate: hi,
        probes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_rule_is_nearest_rank() {
        assert_eq!(rank(50.0, 100), 50);
        assert_eq!(rank(99.0, 100), 99);
        assert_eq!(rank(99.0, 1000), 990, "exact products must not round up");
        assert_eq!(rank(99.0, 1001), 991, "fractional ranks round up");
        assert_eq!(rank(50.0, 1), 1);
        assert_eq!(rank(0.0, 7), 1, "clamped to the first sample");
        assert_eq!(rank(100.0, 7), 7);

        let t = Tail::new((1..=100).rev().collect(), 0);
        assert_eq!(t.percentile(50.0), Some(50), "sorted on construction");
        assert_eq!(t.percentile(99.0), Some(99));
        assert_eq!(t.percentile(100.0), Some(100));
    }

    #[test]
    fn two_percent_failures_make_p99_miss_any_limit() {
        let t = Tail::new(vec![1; 980], 20);
        assert_eq!(t.n(), 1000);
        assert_eq!(t.percentile(99.0), None, "rank 990 lands on a failure");
        assert!(!t.meets(99.0, u64::MAX), "no limit is loose enough");
        assert_eq!(t.percentile(50.0), Some(1), "the median still measures");
        assert_eq!(t.misses(u64::MAX), 20);

        // At exactly the allowance, the percentile is a real value.
        let t = Tail::new(vec![5; 990], 10);
        assert_eq!(t.percentile(99.0), Some(5));
        assert_eq!(t.misses(5), allowed_misses(99.0, 1000));
        assert!(t.meets(99.0, 5) && !t.meets(99.0, 4));
    }

    #[test]
    fn p99_is_reported_only_with_ten_samples_beyond() {
        let small = Tail::new((0..999).collect(), 0);
        assert_eq!(small.beyond(99.0), 9);
        let err = small.reportable(99.0).unwrap_err();
        assert!(err.contains("999 samples"), "{err}");

        let enough = Tail::new((0..1000).collect(), 0);
        assert_eq!(enough.beyond(99.0), 10);
        assert_eq!(enough.reportable(99.0), Ok(Some(989)));
        assert_eq!(enough.reportable(50.0), Ok(Some(499)));
    }

    /// Misses of a synthetic curve: none up to 700/s, then one more for
    /// every 2/s past it.
    fn curve(rate: f64) -> u64 {
        ((rate - 700.0) / 2.0).max(0.0).floor() as u64
    }

    #[test]
    fn capacity_search_finds_the_crossing_and_guards_its_range() {
        let cap = search_capacity(500.0, 1000.0, 10, 10, curve).unwrap();
        // Misses cross 10.5 at 721/s.
        assert!((cap.rate - 721.0).abs() < 2.0, "{cap:?}");
        assert!(cap.pass_rate <= cap.rate && cap.rate < cap.fail_rate);
        assert_eq!(cap.probes.len(), 12, "floor, ceiling and ten steps");
        assert!(curve(cap.pass_rate) <= 10 && curve(cap.fail_rate) > 10);

        assert_eq!(
            search_capacity(800.0, 1000.0, 4, 10, curve),
            Err(SearchError::FloorFails { rate: 800.0, misses: 50 })
        );
        assert_eq!(
            search_capacity(100.0, 710.0, 4, 10, curve),
            Err(SearchError::CeilingPasses { rate: 710.0, misses: 5 })
        );
    }

    /// 1000 sojourns of an M/M/1-like server of capacity 1000/s at
    /// `rate`: the `i`-th is `100 * i / n / (1 - rate / 1000)`, so the
    /// exact p99 is `99 / (1 - rate / 1000)` and crosses a limit of 330
    /// at 700/s. Past 950/s the server also sheds 3 %.
    fn synthetic_run(rate: f64) -> Tail {
        let n = 1000u64;
        let shed = if rate > 950.0 { 30 } else { 0 };
        let ok = (1..=n - shed)
            .map(|i| (100.0 * i as f64 / n as f64 / (1.0 - rate.min(999.0) / 1000.0)) as u64)
            .collect();
        Tail::new(ok, shed)
    }

    #[test]
    fn capacity_search_on_a_synthetic_p99_curve() {
        let limit = 330;
        let allowed = allowed_misses(99.0, 1000);
        let cap =
            search_capacity(200.0, 990.0, 8, allowed, |r| synthetic_run(r).misses(limit)).unwrap();
        assert!((cap.rate - 700.0).abs() < 5.0, "{cap:?}");
        assert!(synthetic_run(cap.pass_rate).meets(99.0, limit));
        assert!(!synthetic_run(cap.fail_rate).meets(99.0, limit));
        // A ceiling in the shedding regime fails even with no limit on
        // latency at all: shed requests are misses.
        assert!(!synthetic_run(990.0).meets(99.0, u64::MAX));
        // The guard: a range whose ceiling still meets the limit is
        // refused rather than reported as its top.
        assert!(matches!(
            search_capacity(200.0, 650.0, 8, allowed, |r| synthetic_run(r).misses(limit)),
            Err(SearchError::CeilingPasses { .. })
        ));
    }

    #[test]
    fn capacity_moves_continuously_with_the_curve() {
        let a = search_capacity(500.0, 1000.0, 8, 10, curve).unwrap().rate;
        let b = search_capacity(500.0, 1000.0, 8, 10, |r| curve(r - 3.0)).unwrap().rate;
        assert!((b - a - 3.0).abs() < 2.0, "shifted curve shifts capacity: {a} -> {b}");
    }
}
