//! Resource-utilization and power models (paper Table 4 and §5.8).
//!
//! The paper reports per-module flip-flop / LUT / BRAM counts from the
//! Xilinx toolchain and an XPE power estimate of ≈11.5 W for the whole
//! design, against a 380 W aggregate TDP for the four-chip Xeon baseline.
//! Both are *static vendor-tool outputs*, so the reproduction is a
//! parameterized model seeded with the paper's numbers:
//!
//! * [`utilization`] regenerates Table 4 for any worker count and
//!   pipeline configuration (the paper's own counts fall out at 4 workers
//!   with the default configuration);
//! * [`PowerModel`] splits the 11.5 W into static leakage plus dynamic
//!   power proportional to the active resources and clock, supporting the
//!   what-if scaling the paper's §5.8/§7 discuss (more workers, more
//!   scanners, datacenter-grade chips).

#![warn(missing_docs)]

use bionicdb_fpga::FpgaConfig;

/// Flip-flop / LUT / BRAM counts.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Resources {
    /// Flip-flops.
    pub ff: u64,
    /// Look-up tables.
    pub lut: u64,
    /// Block RAMs.
    pub bram: u64,
}

impl Resources {
    /// Component-wise addition.
    pub fn plus(self, o: Resources) -> Resources {
        Resources {
            ff: self.ff + o.ff,
            lut: self.lut + o.lut,
            bram: self.bram + o.bram,
        }
    }

    /// Component-wise scaling.
    pub fn times(self, k: u64) -> Resources {
        Resources {
            ff: self.ff * k,
            lut: self.lut * k,
            bram: self.bram * k,
        }
    }
}

/// Total programmable resources of the Virtex-5 LX330 (paper Table 4).
pub const VIRTEX5_LX330: Resources = Resources {
    ff: 207_360,
    lut: 207_360,
    bram: 288,
};

/// Fixed HC-2 infrastructure (host interface, crossbar memory
/// interconnect, the unused vendor processor) — paper Table 4 notes almost
/// half the chip goes to it.
pub const HC2_MODULES: Resources = Resources {
    ff: 98_507,
    lut: 76_639,
    bram: 103,
};

/// Memory arbiters (shared).
pub const MEMORY_ARBITERS: Resources = Resources {
    ff: 1_192,
    lut: 5_800,
    bram: 0,
};

/// Catalogue (shared BRAM store).
pub const CATALOGUE: Resources = Resources {
    ff: 1_484,
    lut: 1_964,
    bram: 8,
};

/// On-chip communication channels (crossbar; shared).
pub const COMMUNICATION: Resources = Resources {
    ff: 2_482,
    lut: 3_191,
    bram: 8,
};

// Per-worker units. The paper's Table 4 rows aggregate four workers:
// hash 12 932 FF / 14 504 LUT / 24 BRAM etc., so one worker uses a quarter.

/// One worker's hash pipeline (each Traverse stage beyond the first adds
/// roughly the cost of another Compare/Traverse datapath).
pub fn hash_pipeline(traverse_stages: usize) -> Resources {
    let base = Resources {
        ff: 12_932 / 4,
        lut: 14_504 / 4,
        bram: 6,
    };
    let extra = Resources {
        ff: 350,
        lut: 420,
        bram: 1,
    }
    .times(traverse_stages.saturating_sub(1) as u64);
    base.plus(extra)
}

/// One worker's skiplist pipeline: the paper's 8-stage + 1-scanner build
/// uses 27 300/4 FF and 35 968/4 LUT; stages and scanners scale it.
pub fn skiplist_pipeline(stages: usize, scanners: usize) -> Resources {
    let per_stage = Resources {
        ff: 27_300 / 4 / 9,
        lut: 35_968 / 4 / 9,
        bram: 1,
    };
    per_stage.times((stages + scanners) as u64)
}

/// One softcore (with its register files on BRAM).
pub const SOFTCORE: Resources = Resources {
    ff: 7_080 / 4,
    lut: 8_796 / 4,
    bram: 3,
};

/// One row of the utilization report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UtilizationRow {
    /// Module name.
    pub module: String,
    /// Aggregate resources for the configured instance count.
    pub res: Resources,
}

/// Regenerate paper Table 4 for `workers` workers under `cfg`.
pub fn utilization(workers: usize, cfg: &FpgaConfig) -> Vec<UtilizationRow> {
    let w = workers as u64;
    vec![
        UtilizationRow {
            module: "Hash".into(),
            res: hash_pipeline(cfg.hash_traverse_stages).times(w),
        },
        UtilizationRow {
            module: "Skiplist".into(),
            res: skiplist_pipeline(cfg.skiplist_stages, cfg.skiplist_scanners).times(w),
        },
        UtilizationRow {
            module: "Softcore".into(),
            res: SOFTCORE.times(w),
        },
        UtilizationRow {
            module: "Catalogue".into(),
            res: CATALOGUE,
        },
        UtilizationRow {
            module: "Communication".into(),
            res: COMMUNICATION,
        },
        UtilizationRow {
            module: "Memory arbiters".into(),
            res: MEMORY_ARBITERS,
        },
        UtilizationRow {
            module: "HC-2 modules".into(),
            res: HC2_MODULES,
        },
    ]
}

/// Sum of a utilization report.
pub fn total(rows: &[UtilizationRow]) -> Resources {
    rows.iter()
        .fold(Resources::default(), |acc, r| acc.plus(r.res))
}

/// Utilization fractions against the LX330.
pub fn utilization_fraction(rows: &[UtilizationRow]) -> (f64, f64, f64) {
    let t = total(rows);
    (
        t.ff as f64 / VIRTEX5_LX330.ff as f64,
        t.lut as f64 / VIRTEX5_LX330.lut as f64,
        t.bram as f64 / VIRTEX5_LX330.bram as f64,
    )
}

/// TDP of one Intel Xeon E7-4807 chip (paper §5.8).
pub const XEON_E7_4807_TDP_W: f64 = 95.0;
/// The paper's Silo baseline uses four chips.
pub const XEON_CHIPS: usize = 4;

/// An XPE-like power model: static leakage plus dynamic power proportional
/// to active resources and clock frequency.
///
/// Calibrated so that the paper's configuration (4 workers, 125 MHz,
/// ≈70% utilization) lands at ≈11.5 W.
#[derive(Debug, Clone)]
pub struct PowerModel {
    /// Device + board static power, watts.
    pub static_w: f64,
    /// Dynamic watts per LUT·GHz.
    pub w_per_lut_ghz: f64,
    /// Dynamic watts per FF·GHz.
    pub w_per_ff_ghz: f64,
    /// Dynamic watts per BRAM·GHz.
    pub w_per_bram_ghz: f64,
    /// Memory-subsystem (DDR2 DIMMs + controllers) power, watts.
    pub memory_w: f64,
}

impl Default for PowerModel {
    fn default() -> Self {
        PowerModel {
            static_w: 2.4,
            w_per_lut_ghz: 2.2e-4,
            w_per_ff_ghz: 1.0e-4,
            w_per_bram_ghz: 2.0e-2,
            memory_w: 2.7,
        }
    }
}

impl PowerModel {
    /// Estimated watts for a design using `rows` at `clock_hz`.
    pub fn estimate(&self, rows: &[UtilizationRow], clock_hz: u64) -> f64 {
        let t = total(rows);
        let ghz = clock_hz as f64 / 1e9;
        self.static_w
            + self.memory_w
            + ghz
                * (t.lut as f64 * self.w_per_lut_ghz
                    + t.ff as f64 * self.w_per_ff_ghz
                    + t.bram as f64 * self.w_per_bram_ghz)
    }

    /// Power-saving ratio vs. the paper's 4-chip Xeon TDP.
    pub fn xeon_ratio(&self, watts: f64) -> f64 {
        (XEON_E7_4807_TDP_W * XEON_CHIPS as f64) / watts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_rows() -> Vec<UtilizationRow> {
        utilization(4, &FpgaConfig::default())
    }

    #[test]
    fn four_worker_totals_match_paper_table4() {
        let rows = paper_rows();
        // BionicDB's own logic (excluding HC-2): ~70k LUTs, ~53k FFs.
        let own: Resources = rows
            .iter()
            .filter(|r| r.module != "HC-2 modules")
            .fold(Resources::default(), |a, r| a.plus(r.res));
        assert!((65_000..78_000).contains(&own.lut), "own LUTs {}", own.lut);
        assert!((48_000..58_000).contains(&own.ff), "own FFs {}", own.ff);
        // Whole design ≈70% of the chip.
        let (ff, lut, bram) = utilization_fraction(&rows);
        assert!((0.65..0.80).contains(&ff), "FF fraction {ff}");
        assert!((0.65..0.80).contains(&lut), "LUT fraction {lut}");
        assert!((0.55..0.80).contains(&bram), "BRAM fraction {bram}");
    }

    #[test]
    fn skiplist_dominates_worker_resources() {
        // Paper §5.8: skiplist ≈50% of BionicDB resources, hash ≈20%.
        let rows = paper_rows();
        let get = |m: &str| rows.iter().find(|r| r.module == m).unwrap().res.lut as f64;
        let own: f64 = rows
            .iter()
            .filter(|r| r.module != "HC-2 modules")
            .map(|r| r.res.lut as f64)
            .sum();
        assert!((0.40..0.60).contains(&(get("Skiplist") / own)));
        assert!((0.12..0.30).contains(&(get("Hash") / own)));
    }

    #[test]
    fn power_estimate_matches_paper() {
        let rows = paper_rows();
        let w = PowerModel::default().estimate(&rows, 125_000_000);
        assert!((10.0..13.0).contains(&w), "estimate {w} W vs paper 11.5 W");
        // Order-of-magnitude saving vs 380 W Xeon TDP.
        let ratio = PowerModel::default().xeon_ratio(w);
        assert!(ratio > 10.0, "power ratio {ratio}");
    }

    #[test]
    fn more_workers_use_more_resources_and_power() {
        let cfg = FpgaConfig::default();
        let small = PowerModel::default().estimate(&utilization(4, &cfg), cfg.clock_hz);
        let big = PowerModel::default().estimate(&utilization(16, &cfg), cfg.clock_hz);
        assert!(big > small);
        let t4 = total(&utilization(4, &cfg));
        let t16 = total(&utilization(16, &cfg));
        assert!(t16.lut > t4.lut && t16.ff > t4.ff);
    }

    #[test]
    fn extra_scanners_cost_resources() {
        let cfg = FpgaConfig::default();
        let one = skiplist_pipeline(cfg.skiplist_stages, 1);
        let five = skiplist_pipeline(cfg.skiplist_stages, 5);
        assert!(five.lut > one.lut);
    }
}
