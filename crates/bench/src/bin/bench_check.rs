//! The benchmark regression gate: compares a fresh `BENCH_results.json`
//! against the committed `BENCH_baseline.json`, prints every current
//! record, and exits non-zero when a gate fails.
//!
//! ```sh
//! cargo run --release -p kratt-bench --bin bench_check -- \
//!     BENCH_baseline.json BENCH_results.json
//! ```
//!
//! The gate policy is the table `kratt_bench::emit::SECTIONS`. Knobs:
//! `KRATT_BENCH_TOLERANCE` (relative tolerance, default 0.25),
//! `KRATT_MIN_PACKED_SPEEDUP` (absolute floor of the simulation kernels,
//! default 8) and `KRATT_BENCH_STRICT=1` (attack telemetry growth fails the
//! gate instead of being reported as drift).

use kratt_bench::emit::{compare, BenchResults, SECTIONS};
use std::process::ExitCode;

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn load(path: &str) -> Result<BenchResults, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    BenchResults::from_json(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [baseline_path, current_path] = args.as_slice() else {
        eprintln!("usage: bench_check <BENCH_baseline.json> <BENCH_results.json>");
        return ExitCode::from(2);
    };
    let (baseline, current) = match (load(baseline_path), load(current_path)) {
        (Ok(baseline), Ok(current)) => (baseline, current),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    let tolerance = env_f64("KRATT_BENCH_TOLERANCE", 0.25);
    let min_speedup = env_f64("KRATT_MIN_PACKED_SPEEDUP", 8.0);
    let strict = std::env::var("KRATT_BENCH_STRICT").is_ok_and(|v| v == "1");

    println!(
        "bench_check: {} kernels, {} attack rows ({}% tolerance, {:.0}x floor{})",
        baseline.section("kernels").len(),
        baseline.section("attacks").len(),
        tolerance * 100.0,
        min_speedup,
        if strict { ", strict" } else { "" }
    );
    for (section, records) in SECTIONS.iter().zip(&current.sections) {
        for record in records {
            println!("  {:<9} {}", section.name, record.to_json());
        }
    }

    let regressions = compare(&baseline, &current, tolerance, min_speedup, strict);
    let mut fatal = false;
    for regression in &regressions {
        let severity = if regression.fatal { "FAIL" } else { "warn" };
        println!("{severity}: {}: {}", regression.subject, regression.detail);
        fatal |= regression.fatal;
    }
    if fatal {
        ExitCode::FAILURE
    } else {
        println!("bench_check: no tracked kernel regressed");
        ExitCode::SUCCESS
    }
}
