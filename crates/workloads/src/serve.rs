//! Serving-side workload glue: the five Silo systems behind one handle.
//!
//! The serving subsystem (`bionicdb_bench::serve`) drives live traffic —
//! open-loop arrivals, admission control, deadlines — against the Silo
//! baseline. It needs exactly one thing from the workload layer: "run one
//! transaction of workload X". Deadlines are the serving loop's business,
//! not the transaction's: the engine judges each completion against its
//! request's deadline at the commit point. This module packages the five benchmark mixes behind [`ServeMix`] so the
//! serving engines stay workload-agnostic, mirroring how [`StdWorkload`]
//! packages the BionicDB side for the cross-cutting harnesses.
//!
//! Mix selection is positional (`i` = the request's birth index), exactly
//! like [`SiloWorkload::run`]: a retried request re-runs the *same*
//! transaction kind it was born as, so retries do not skew the mix.

use bionicdb_cpu_model::Tracer;
use rand::rngs::SmallRng;

use crate::smallbank::{SmallBankSilo, SmallBankSpec};
use crate::spec::{TpccSpec, YcsbSpec};
use crate::tpcc::{TpccMix, TpccSilo};
use crate::ycsb::YcsbSilo;

#[allow(unused_imports)] // rustdoc links
use crate::abi::{SiloWorkload, StdWorkload};

/// The five serving mixes: one per benchmark family/variant the bench
/// suite reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeKind {
    /// YCSB-C: 16 independent point reads (read-only, never aborts).
    YcsbC,
    /// Scan-only YCSB-E over the Masstree-like index (range 50).
    YcsbScan,
    /// TPC-C NewOrder + Payment, 50:50 (write-heavy, multi-table).
    TpccMixed,
    /// TPC-C Payment only (short RMW transactions).
    TpccPayment,
    /// SmallBank standard six-op rotation (short, hot-account RMWs).
    SmallBank,
}

impl ServeKind {
    /// All five mixes, in report order.
    pub const ALL: [ServeKind; 5] = [
        ServeKind::YcsbC,
        ServeKind::YcsbScan,
        ServeKind::TpccMixed,
        ServeKind::TpccPayment,
        ServeKind::SmallBank,
    ];

    /// Stable label (JSON keys, report rows).
    pub fn name(self) -> &'static str {
        match self {
            ServeKind::YcsbC => "ycsb_c",
            ServeKind::YcsbScan => "ycsb_scan",
            ServeKind::TpccMixed => "tpcc_mixed",
            ServeKind::TpccPayment => "tpcc_payment",
            ServeKind::SmallBank => "smallbank",
        }
    }

    /// Parse a label back (CLI `--workload`).
    pub fn parse(s: &str) -> Option<ServeKind> {
        ServeKind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Fixed per-mix RNG seed, distinct from the closed-loop bench seeds
    /// so serving runs and model waves never share streams.
    pub fn seed(self) -> u64 {
        match self {
            ServeKind::YcsbC => 0x5E51,
            ServeKind::YcsbScan => 0x5E52,
            ServeKind::TpccMixed => 0x5E53,
            ServeKind::TpccPayment => 0x5E54,
            ServeKind::SmallBank => 0x5E55,
        }
    }
}

/// One loaded Silo system behind a mix-agnostic `run_once`.
pub enum ServeMix {
    /// YCSB database (hash + masstree + skiplist indexes).
    Ycsb {
        /// The loaded system.
        sys: YcsbSilo,
        /// Whether `run_once` scans (YCSB-E) or point-reads (YCSB-C).
        scan: bool,
    },
    /// TPC-C database under a mix.
    Tpcc {
        /// The loaded system.
        sys: TpccSilo,
        /// Which transaction mix to run.
        mix: TpccMix,
    },
    /// SmallBank database (standard rotation).
    SmallBank(SmallBankSilo),
}

impl ServeMix {
    /// Build and load the Silo system for `kind` at serving scale.
    ///
    /// `scale` multiplies the tiny test-scale data size; 1 is enough for
    /// CI (structures still beat the modelled L1/L2), larger values
    /// approach bench scale.
    pub fn build(kind: ServeKind, scale: u64) -> ServeMix {
        match kind {
            ServeKind::YcsbC | ServeKind::YcsbScan => {
                let mut spec = YcsbSpec::tiny();
                spec.records_per_partition *= scale;
                ServeMix::Ycsb {
                    sys: YcsbSilo::build(spec, 2),
                    scan: kind == ServeKind::YcsbScan,
                }
            }
            ServeKind::TpccMixed | ServeKind::TpccPayment => {
                let spec = TpccSpec::tiny();
                let mix = if kind == ServeKind::TpccMixed {
                    TpccMix::Mixed
                } else {
                    TpccMix::PaymentOnly
                };
                ServeMix::Tpcc {
                    sys: TpccSilo::build(spec, 2 * scale),
                    mix,
                }
            }
            ServeKind::SmallBank => {
                let mut spec = SmallBankSpec::tiny();
                spec.accounts_per_partition *= scale;
                ServeMix::SmallBank(SmallBankSilo::build(spec, 2))
            }
        }
    }

    /// Which kind this mix was built as.
    pub fn kind(&self) -> ServeKind {
        match self {
            ServeMix::Ycsb { scan: false, .. } => ServeKind::YcsbC,
            ServeMix::Ycsb { scan: true, .. } => ServeKind::YcsbScan,
            ServeMix::Tpcc {
                mix: TpccMix::PaymentOnly,
                ..
            } => ServeKind::TpccPayment,
            ServeMix::Tpcc { .. } => ServeKind::TpccMixed,
            ServeMix::SmallBank(_) => ServeKind::SmallBank,
        }
    }

    /// Run one transaction of the mix. `i` is the request's birth index
    /// (mix selection — stable across retries); returns `false` on abort.
    ///
    /// Generic over the tracer so the virtual-time engine passes the
    /// calibrated `CoreModel` and tests pass `NullTracer`, exactly like
    /// the closed-loop bench split.
    pub fn run_once<T: Tracer>(&self, tr: &mut T, rng: &mut SmallRng, i: usize) -> bool {
        match self {
            ServeMix::Ycsb { sys, scan: false } => sys.run_read_txn(tr, rng),
            ServeMix::Ycsb { sys, scan: true } => sys.run_scan_txn(tr, rng, sys.masstree),
            ServeMix::Tpcc { sys, mix } => {
                if mix.neworder_at(i) {
                    sys.run_neworder(tr, rng)
                } else {
                    sys.run_payment(tr, rng)
                }
            }
            ServeMix::SmallBank(sb) => sb.run_txn(tr, rng, i),
        }
    }

    /// Advance the Silo epoch (the serving engine plays the epoch thread,
    /// like `silo::runner`).
    pub fn advance_epoch(&self) {
        self.db().advance_epoch();
    }

    fn db(&self) -> &bionicdb_silo::SiloDb {
        match self {
            ServeMix::Ycsb { sys, .. } => &sys.db,
            ServeMix::Tpcc { sys, .. } => &sys.db,
            ServeMix::SmallBank(sb) => &sb.db,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bionicdb_cpu_model::NullTracer;
    use rand::SeedableRng;

    #[test]
    fn every_kind_builds_and_runs() {
        for kind in ServeKind::ALL {
            let mix = ServeMix::build(kind, 1);
            assert_eq!(mix.kind(), kind);
            let mut rng = SmallRng::seed_from_u64(kind.seed());
            let mut ok = 0;
            for i in 0..30 {
                if mix.run_once(&mut NullTracer, &mut rng, i) {
                    ok += 1;
                }
            }
            assert!(ok > 0, "{} committed nothing", kind.name());
        }
    }

    #[test]
    fn names_round_trip() {
        for kind in ServeKind::ALL {
            assert_eq!(ServeKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(ServeKind::parse("nope"), None);
    }
}
