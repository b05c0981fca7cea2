//! The cross-run half of the determinism self-check.
//!
//! Each run of a workload and seed records its simulated metrics in a
//! file keyed by a hash of the benchmark executable, and compares them
//! with whatever an earlier run of the same executable recorded: the
//! untraced and traced runs of one build must agree on every simulated
//! number they both measure. A rebuilt program starts a fresh record.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// FNV-1a, 64-bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

fn record_path(dir: &Path, workload: &str, seed: u64) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("{}: {e}", exe.display()))?;
    Ok(dir.join(format!("sim-{:016x}-{workload}-seed{seed}.txt", fnv1a(&bytes))))
}

/// Compare `values` with the record of earlier runs, then add them to it.
/// Values are compared bit for bit; a name only one run measured passes.
pub fn check_and_record(
    dir: &Path,
    workload: &str,
    seed: u64,
    values: &[(String, f64)],
) -> Result<(), String> {
    let path = record_path(dir, workload, seed)?;
    let mut known: BTreeMap<String, u64> = BTreeMap::new();
    if let Ok(text) = std::fs::read_to_string(&path) {
        for line in text.lines() {
            let (name, bits) = line.split_once(' ').ok_or(format!("{}: bad line {line}", path.display()))?;
            let bits = u64::from_str_radix(bits, 16).map_err(|e| format!("{}: {e}", path.display()))?;
            known.insert(name.to_string(), bits);
        }
    }
    for (name, v) in values {
        match known.insert(name.clone(), v.to_bits()) {
            Some(old) if old != v.to_bits() => {
                return Err(format!(
                    "{workload} seed {seed}: simulated {name} = {v} differs from an earlier run's {}",
                    f64::from_bits(old)
                ))
            }
            _ => {}
        }
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let text: String = known.iter().map(|(n, b)| format!("{n} {b:016x}\n")).collect();
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_merge_and_mismatches_fail() {
        let dir = std::env::temp_dir().join(format!("perfbench-record-{}", std::process::id()));
        let a = vec![("x".to_string(), 1.5), ("y".to_string(), 2.0)];
        check_and_record(&dir, "w", 7, &a).unwrap();
        check_and_record(&dir, "w", 7, &a).unwrap();
        // A run that measures more adds to the record.
        check_and_record(&dir, "w", 7, &[("z".to_string(), 3.0)]).unwrap();
        let err = check_and_record(&dir, "w", 7, &[("z".to_string(), 3.25)]).unwrap_err();
        assert!(err.contains("simulated z"), "{err}");
        // Another seed is another record.
        check_and_record(&dir, "w", 8, &[("z".to_string(), 3.25)]).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
