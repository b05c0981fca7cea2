//! Simulation statistics shared by the higher-level crates.

use crate::timing::Cycle;

/// Cycle-accurate utilization counter for a pipeline stage or functional
/// unit: tracks how many of the elapsed cycles the unit did useful work,
/// stalled on memory, or stalled on back-pressure.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StageStats {
    /// Cycles in which the unit completed useful work.
    pub busy: Cycle,
    /// Cycles stalled waiting for a memory response or lock.
    pub stalled: Cycle,
    /// Cycles with nothing to do (empty input, no in-flight op). Kept
    /// separate from `stalled` so utilization reflects genuine contention:
    /// the fast-forward scheduler skips exactly these cycles, and folding
    /// them into `stalled` would make strict and fast-forward runs disagree
    /// on what "stalled" means.
    pub idle: Cycle,
    /// Items processed (stage-specific meaning).
    pub items: u64,
}

impl StageStats {
    /// Record one busy cycle and `items` processed items.
    pub fn work(&mut self, items: u64) {
        self.busy += 1;
        self.items += items;
    }

    /// Record one stalled cycle.
    pub fn stall(&mut self) {
        self.stalled += 1;
    }

    /// Record one idle cycle (no input, no in-flight op).
    pub fn idle(&mut self) {
        self.idle += 1;
    }

    /// Record one cycle of a stage that holds a multi-probe *wave* under
    /// the unified accounting rule (DESIGN.md §16): a cycle in which the
    /// wave made progress (issued reads, resolved responses, launched or
    /// retired a batch) is `busy`; a cycle holding work that could not
    /// progress (all reads outstanding, a lock blocking the wave) is
    /// `stalled`; a cycle with nothing held is `idle`. `retired` counts
    /// probes completed this cycle. The legacy per-probe pipelines keep
    /// their historical counters bit-for-bit (goldens depend on them) but
    /// route their fast-forward accounting through [`Self::wave_skip`] so
    /// both code paths share one definition of each bucket.
    pub fn wave_tick(&mut self, state: WaveState, retired: u64) {
        self.items += retired;
        match state {
            WaveState::Progressing => self.busy += 1,
            WaveState::Waiting => self.stalled += 1,
            WaveState::Empty => self.idle += 1,
        }
    }

    /// Bulk form of [`Self::wave_tick`] for fast-forwarded spans: account
    /// `k` cycles spent in one unchanging wave state (no items retire
    /// during a skipped span by construction — retiring work is an event).
    pub fn wave_skip(&mut self, state: WaveState, k: Cycle) {
        match state {
            WaveState::Progressing => self.busy += k,
            WaveState::Waiting => self.stalled += k,
            WaveState::Empty => self.idle += k,
        }
    }

    /// Fraction of observed cycles that were busy.
    pub fn utilization(&self) -> f64 {
        let total = self.busy + self.stalled + self.idle;
        if total == 0 {
            0.0
        } else {
            self.busy as f64 / total as f64
        }
    }
}

/// What a wave-holding stage did during one cycle (or one fast-forwarded
/// span); see [`StageStats::wave_tick`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaveState {
    /// Nothing held: no pending probes, no active wave.
    Empty,
    /// Work held but no forward progress (memory or lock wait).
    Waiting,
    /// The wave progressed: reads issued/resolved, probes launched/retired.
    Progressing,
}

/// A simple throughput accumulator: operations completed over a cycle span.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Throughput {
    /// Operations (or transactions) completed.
    pub ops: u64,
    /// Simulated cycles elapsed.
    pub cycles: Cycle,
}

impl Throughput {
    /// Operations per second at the given clock frequency.
    pub fn per_sec(&self, clock_hz: u64) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.ops as f64 * clock_hz as f64 / self.cycles as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_ratio() {
        let mut s = StageStats::default();
        s.work(1);
        s.work(1);
        s.stall();
        assert!((s.utilization() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.items, 2);
    }

    #[test]
    fn idle_counts_against_utilization_but_not_stalls() {
        let mut s = StageStats::default();
        s.work(1);
        s.idle();
        s.idle();
        s.idle();
        assert_eq!(s.stalled, 0);
        assert_eq!(s.idle, 3);
        assert!((s.utilization() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn wave_accounting_maps_states_to_buckets() {
        let mut s = StageStats::default();
        s.wave_tick(WaveState::Progressing, 3);
        s.wave_tick(WaveState::Waiting, 0);
        s.wave_tick(WaveState::Empty, 0);
        s.wave_skip(WaveState::Empty, 5);
        assert_eq!((s.busy, s.stalled, s.idle, s.items), (1, 1, 6, 3));
    }

    #[test]
    fn throughput_per_sec() {
        let t = Throughput {
            ops: 250,
            cycles: 125_000_000,
        };
        assert!((t.per_sec(125_000_000) - 250.0).abs() < 1e-9);
    }

    #[test]
    fn empty_counters_are_zero() {
        assert_eq!(StageStats::default().utilization(), 0.0);
        assert_eq!(Throughput::default().per_sec(125_000_000), 0.0);
    }
}
