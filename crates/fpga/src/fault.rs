//! Deterministic fault injection.
//!
//! Real hardware fails in ways a clean simulation never shows: the machine
//! dies mid-batch, the tail of a log write is torn, a bit flips on the
//! durable medium, the interconnect drops or delays a packet, a DRAM read
//! takes an ECC-correction detour. A [`FaultPlan`] is a *seeded schedule* of
//! such faults, fixed before the run starts. Components consult the plan on
//! their existing tick paths, so:
//!
//! * a [`FaultPlan::none`] run is bit-for-bit identical to a run without any
//!   fault machinery (the equivalence suite in `tests/fast_forward.rs`
//!   proves it), and
//! * a faulted run is *perfectly reproducible*: the same plan on the same
//!   workload injects the same faults at the same cycles — something real
//!   hardware can never offer. This is what makes crash-consistency testing
//!   tractable: every chaos failure replays exactly.
//!
//! The plan is split by fault domain. NoC and DRAM faults are indexed by
//! *event ordinal* (the nth accepted send, the nth read) rather than by
//! cycle, so a schedule always lands on a real event regardless of timing.
//! Durable-medium faults ([`TornWrite`], [`CorruptByte`]) are applied to the
//! serialized log/checkpoint bytes when the crash snapshot is taken.

/// Flip bits of one byte of a serialized durable image.
///
/// `offset` is reduced modulo the image length, so seeded plans need not
/// know the image size in advance. An `xor` of zero is a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptByte {
    /// Byte position (taken modulo the image length).
    pub offset: u64,
    /// Bit pattern XORed into the byte.
    pub xor: u8,
}

impl CorruptByte {
    /// Apply a list of corruptions to an image in place.
    pub fn apply_all(list: &[CorruptByte], bytes: &mut [u8]) {
        if bytes.is_empty() {
            return;
        }
        for c in list {
            let i = (c.offset % bytes.len() as u64) as usize;
            bytes[i] ^= c.xor;
        }
    }
}

/// A torn log write: the crash interrupted the append of record `record`,
/// leaving only its first `valid_bytes` bytes on the durable medium (and
/// nothing after it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TornWrite {
    /// Index of the record whose append was interrupted.
    pub record: u64,
    /// Bytes of that record's serialization that reached the medium.
    pub valid_bytes: u64,
}

/// Delay the nth accepted NoC send by extra cycles (a transient link stall).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NocDelay {
    /// Ordinal of the accepted send (0-based, counted across all links).
    pub nth_send: u64,
    /// Extra in-flight cycles added on top of the topology latency.
    pub extra_cycles: u64,
}

/// NoC fault schedule: drops and delays indexed by accepted-send ordinal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NocFaults {
    /// Ordinals of accepted sends that vanish in flight.
    pub drops: Vec<u64>,
    /// Sends that arrive late.
    pub delays: Vec<NocDelay>,
}

impl NocFaults {
    /// True when no NoC fault is scheduled.
    pub fn is_empty(&self) -> bool {
        self.drops.is_empty() && self.delays.is_empty()
    }

    /// Should the `n`th accepted send be dropped?
    pub fn drop_for(&self, n: u64) -> bool {
        self.drops.contains(&n)
    }

    /// Extra latency for the `n`th accepted send, if scheduled.
    pub fn delay_for(&self, n: u64) -> Option<u64> {
        self.delays
            .iter()
            .find(|d| d.nth_send == n)
            .map(|d| d.extra_cycles)
    }
}

/// A transient DRAM fault: the nth read is detected and corrected (ECC
/// scrub + controller retry), surfacing as extra response latency. The
/// functional bytes are unaffected — an *uncorrectable* fault is modelled
/// as a crash plus durable-medium corruption instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramTransient {
    /// Ordinal of the accepted read request (0-based).
    pub nth_read: u64,
    /// Extra cycles before the response is delivered.
    pub extra_cycles: u64,
}

/// DRAM fault schedule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DramFaults {
    /// Scheduled transient (corrected) faults.
    pub transients: Vec<DramTransient>,
}

impl DramFaults {
    /// True when no DRAM fault is scheduled.
    pub fn is_empty(&self) -> bool {
        self.transients.is_empty()
    }

    /// Extra latency for the `n`th accepted read, if scheduled.
    pub fn extra_latency_for(&self, n: u64) -> Option<u64> {
        self.transients
            .iter()
            .find(|t| t.nth_read == n)
            .map(|t| t.extra_cycles)
    }
}

/// A deterministic, pre-committed schedule of faults for one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Hard-stop the whole machine at this cycle (power loss).
    pub crash_at: Option<u64>,
    /// The crash interrupted the append of a log record.
    pub torn_log: Option<TornWrite>,
    /// Bit flips on the durable log image.
    pub corrupt_log: Vec<CorruptByte>,
    /// Bit flips on the durable checkpoint image.
    pub corrupt_checkpoint: Vec<CorruptByte>,
    /// Interconnect faults.
    pub noc: NocFaults,
    /// Memory faults.
    pub dram: DramFaults,
}

impl FaultPlan {
    /// The empty plan: injects nothing, perturbs nothing.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// True when the plan schedules no fault at all.
    pub fn is_none(&self) -> bool {
        self.crash_at.is_none()
            && self.torn_log.is_none()
            && self.corrupt_log.is_empty()
            && self.corrupt_checkpoint.is_empty()
            && self.noc.is_empty()
            && self.dram.is_empty()
    }

    /// Schedule a crash (power loss) at `cycle`.
    pub fn crash_at(mut self, cycle: u64) -> Self {
        self.crash_at = Some(cycle);
        self
    }

    /// Tear the append of log record `record` after `valid_bytes` bytes.
    pub fn torn_log_write(mut self, record: u64, valid_bytes: u64) -> Self {
        self.torn_log = Some(TornWrite {
            record,
            valid_bytes,
        });
        self
    }

    /// Flip bits of one byte of the durable log image.
    pub fn corrupt_log_byte(mut self, offset: u64, xor: u8) -> Self {
        self.corrupt_log.push(CorruptByte { offset, xor });
        self
    }

    /// Flip bits of one byte of the durable checkpoint image.
    pub fn corrupt_checkpoint_byte(mut self, offset: u64, xor: u8) -> Self {
        self.corrupt_checkpoint.push(CorruptByte { offset, xor });
        self
    }

    /// Drop the `n`th accepted NoC send.
    pub fn drop_nth_send(mut self, n: u64) -> Self {
        self.noc.drops.push(n);
        self
    }

    /// Delay the `n`th accepted NoC send by `extra_cycles`.
    pub fn delay_nth_send(mut self, n: u64, extra_cycles: u64) -> Self {
        self.noc.delays.push(NocDelay {
            nth_send: n,
            extra_cycles,
        });
        self
    }

    /// Add a transient (corrected) DRAM fault on the `n`th read.
    pub fn dram_transient(mut self, nth_read: u64, extra_cycles: u64) -> Self {
        self.dram.transients.push(DramTransient {
            nth_read,
            extra_cycles,
        });
        self
    }

    /// Generate a randomized plan from a seed and a fault budget. The same
    /// `(seed, budget)` pair always produces the same plan.
    pub fn seeded(seed: u64, budget: &FaultBudget) -> FaultPlan {
        let mut rng = SplitMix(seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut plan = FaultPlan::none();
        if let Some((lo, hi)) = budget.crash_window {
            plan.crash_at = Some(lo + rng.below(hi.saturating_sub(lo).max(1)));
        }
        for _ in 0..budget.noc_drops {
            plan.noc
                .drops
                .push(rng.below(budget.noc_send_window.max(1)));
        }
        for _ in 0..budget.noc_delays {
            plan.noc.delays.push(NocDelay {
                nth_send: rng.below(budget.noc_send_window.max(1)),
                extra_cycles: 1 + rng.below(budget.max_delay_cycles.max(1)),
            });
        }
        for _ in 0..budget.dram_transients {
            plan.dram.transients.push(DramTransient {
                nth_read: rng.below(budget.dram_read_window.max(1)),
                extra_cycles: 1 + rng.below(budget.max_delay_cycles.max(1)),
            });
        }
        for _ in 0..budget.log_corruptions {
            plan.corrupt_log.push(CorruptByte {
                offset: rng.next(),
                xor: 1u8 << (rng.below(8) as u32),
            });
        }
        plan
    }
}

/// How many faults of each kind [`FaultPlan::seeded`] may schedule, and the
/// event windows it draws ordinals from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultBudget {
    /// Crash cycle range `[lo, hi)`, if a crash is wanted.
    pub crash_window: Option<(u64, u64)>,
    /// Number of NoC drops to schedule.
    pub noc_drops: u32,
    /// Number of NoC delays to schedule.
    pub noc_delays: u32,
    /// Send ordinals are drawn from `[0, noc_send_window)`.
    pub noc_send_window: u64,
    /// Number of transient DRAM faults to schedule.
    pub dram_transients: u32,
    /// Read ordinals are drawn from `[0, dram_read_window)`.
    pub dram_read_window: u64,
    /// Delays are drawn from `[1, max_delay_cycles]`.
    pub max_delay_cycles: u64,
    /// Number of random single-byte log corruptions.
    pub log_corruptions: u32,
}

impl Default for FaultBudget {
    fn default() -> Self {
        FaultBudget {
            crash_window: None,
            noc_drops: 0,
            noc_delays: 0,
            noc_send_window: 64,
            dram_transients: 0,
            dram_read_window: 1024,
            max_delay_cycles: 64,
            log_corruptions: 0,
        }
    }
}

/// Splitmix64: a tiny self-contained generator so the plan needs no
/// external RNG dependency. Only used to expand seeds into schedules.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_is_none() {
        assert!(FaultPlan::none().is_none());
        assert!(!FaultPlan::none().crash_at(5).is_none());
        assert!(!FaultPlan::none().drop_nth_send(0).is_none());
    }

    #[test]
    fn corruptions_wrap_and_apply() {
        let mut img = vec![0u8; 4];
        CorruptByte::apply_all(
            &[
                CorruptByte {
                    offset: 1,
                    xor: 0xff,
                },
                CorruptByte {
                    offset: 6,
                    xor: 0x01,
                },
                CorruptByte {
                    offset: 0,
                    xor: 0x00,
                },
            ],
            &mut img,
        );
        assert_eq!(img, vec![0, 0xff, 1, 0]);
        // Empty images are a no-op, not a division by zero.
        CorruptByte::apply_all(&[CorruptByte { offset: 3, xor: 1 }], &mut []);
    }

    #[test]
    fn schedules_match_by_ordinal() {
        let plan = FaultPlan::none()
            .drop_nth_send(3)
            .delay_nth_send(5, 40)
            .dram_transient(7, 100);
        assert!(plan.noc.drop_for(3));
        assert!(!plan.noc.drop_for(4));
        assert_eq!(plan.noc.delay_for(5), Some(40));
        assert_eq!(plan.noc.delay_for(3), None);
        assert_eq!(plan.dram.extra_latency_for(7), Some(100));
        assert_eq!(plan.dram.extra_latency_for(8), None);
    }

    #[test]
    fn seeded_plans_are_reproducible() {
        let budget = FaultBudget {
            crash_window: Some((100, 10_000)),
            noc_drops: 3,
            noc_delays: 2,
            dram_transients: 2,
            ..FaultBudget::default()
        };
        let a = FaultPlan::seeded(42, &budget);
        let b = FaultPlan::seeded(42, &budget);
        let c = FaultPlan::seeded(43, &budget);
        assert_eq!(a, b, "same seed, same plan");
        assert_ne!(a, c, "different seed, different plan");
        assert_eq!(a.noc.drops.len(), 3);
        assert!(a.crash_at.unwrap() >= 100 && a.crash_at.unwrap() < 10_000);
    }
}
