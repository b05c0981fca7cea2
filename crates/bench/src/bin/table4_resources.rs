//! Table 4 + §5.8 — resource utilization and power (paper §5.8).

use bionicdb_bench::json::JsonOut;
use bionicdb_bench::print_table;
use bionicdb_fpga::FpgaConfig;
use bionicdb_power::{
    total, utilization, utilization_fraction, PowerModel, VIRTEX5_LX330, XEON_CHIPS,
    XEON_E7_4807_TDP_W,
};

fn main() {
    let _ =
        bionicdb_bench::BenchArgs::from_env(&bionicdb_bench::ArgSpec::shared("table4_resources"));
    let cfg = FpgaConfig::default();
    let workers = 4;
    let rows_data = utilization(workers, &cfg);
    let mut rows: Vec<Vec<String>> = rows_data
        .iter()
        .map(|r| {
            vec![
                r.module.clone(),
                r.res.ff.to_string(),
                r.res.lut.to_string(),
                r.res.bram.to_string(),
            ]
        })
        .collect();
    let t = total(&rows_data);
    rows.push(vec![
        "Total used".into(),
        t.ff.to_string(),
        t.lut.to_string(),
        t.bram.to_string(),
    ]);
    rows.push(vec![
        "Virtex5 LX330".into(),
        VIRTEX5_LX330.ff.to_string(),
        VIRTEX5_LX330.lut.to_string(),
        VIRTEX5_LX330.bram.to_string(),
    ]);
    let (ff, lut, bram) = utilization_fraction(&rows_data);
    rows.push(vec![
        "Utilization".into(),
        format!("{:.0}%", ff * 100.0),
        format!("{:.0}%", lut * 100.0),
        format!("{:.0}%", bram * 100.0),
    ]);
    print_table(
        &format!("Table 4: resource utilization ({workers} workers)"),
        &["Module", "Flip-flops", "LUTs", "BRAMs"],
        &rows,
    );

    let model = PowerModel::default();
    let watts = model.estimate(&rows_data, cfg.clock_hz);
    println!("\nPower estimate (XPE-like model): {watts:.1} W (paper: ~11.5 W)");
    println!(
        "Xeon E7-4807 baseline: {} chips x {:.0} W TDP = {:.0} W",
        XEON_CHIPS,
        XEON_E7_4807_TDP_W,
        XEON_CHIPS as f64 * XEON_E7_4807_TDP_W
    );
    println!("Power saving: {:.1}x", model.xeon_ratio(watts));

    // What-if scaling the paper's §7 sketches: a datacenter-grade chip.
    let rows16 = utilization(16, &cfg);
    let w16 = model.estimate(&rows16, cfg.clock_hz);
    println!(
        "\nWhat-if 16 workers (datacenter-grade chip): {w16:.1} W, saving {:.1}x",
        model.xeon_ratio(w16)
    );

    let mut json = JsonOut::from_env("table4_resources");
    json.value_row("total_ff", t.ff as f64);
    json.value_row("total_lut", t.lut as f64);
    json.value_row("total_bram", t.bram as f64);
    json.value_row("utilization_ff", ff);
    json.value_row("utilization_lut", lut);
    json.value_row("utilization_bram", bram);
    json.value_row("power_watts", watts);
    json.value_row("power_saving_x", model.xeon_ratio(watts));
    json.value_row("power_watts_16w", w16);
    json.write();
}
