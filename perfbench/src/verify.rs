//! The campaign's equivalence kernel with its fraig statistics exposed,
//! for the traced run: `kratt_attacks::equivalent_to` returns a bare
//! verdict, and the per-layer fraig counters need the statistics of its
//! SAT proof. The benchmark checks that the traced verdicts match the
//! untraced ones for every cell.

use kratt_netlist::sim::{exhaustively_equivalent, Simulator};
use kratt_netlist::Circuit;
use kratt_synth::{check_equivalence_with_stats, EquivalenceResult};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Work counters of one fraig equivalence proof (all 0 when the check
/// ended before the SAT stage).
#[derive(Debug, Clone, Copy, Default)]
pub struct FraigCounts {
    /// SAT calls of the sweep and the output miters.
    pub sat_calls: u64,
    /// Proved node merges.
    pub merges: u64,
    /// AIG nodes of the miter.
    pub aig_nodes: u64,
}

/// Interfaces up to this width are compared exhaustively.
const EXHAUSTIVE_INPUT_LIMIT: usize = 20;

/// Random 64-lane sweeps of the refutation prefilter.
const SAMPLED_SWEEPS: usize = 64;

/// Wall-clock ceiling of the SAT equivalence proof.
const SAT_VERIFY_LIMIT: Duration = Duration::from_secs(60);

/// The campaign's equivalence kernel (`kratt_attacks::equivalent_to`) with
/// the fraig statistics of its SAT proof exposed: exhaustive on narrow
/// interfaces, otherwise a seeded random-sweep prefilter and then the
/// fraig pipeline. `Err` is an inconclusive check; `counts` receives the
/// fraig statistics when the SAT stage ran.
pub fn equivalent_with_stats(
    original: &Circuit,
    candidate: &Circuit,
    counts: &mut FraigCounts,
) -> Result<bool, String> {
    if original.num_inputs() != candidate.num_inputs()
        || original.num_outputs() != candidate.num_outputs()
    {
        return Err("interface widths differ between compared circuits".into());
    }
    if original.num_inputs() <= EXHAUSTIVE_INPUT_LIMIT {
        return exhaustively_equivalent(original, candidate).map_err(|e| e.to_string());
    }
    let sim_a = Simulator::new(original).map_err(|e| e.to_string())?;
    let sim_b = Simulator::new(candidate).map_err(|e| e.to_string())?;
    let width = original.num_inputs();
    let mut rng = StdRng::seed_from_u64(0x000C_A411);
    for sweep in 0..SAMPLED_SWEEPS {
        let words: Vec<u64> = match sweep {
            0 => vec![0u64; width],
            1 => vec![!0u64; width],
            _ => (0..width).map(|_| rng.gen::<u64>()).collect(),
        };
        let a = sim_a.run_words(&words).map_err(|e| e.to_string())?;
        let b = sim_b.run_words(&words).map_err(|e| e.to_string())?;
        if a != b {
            return Ok(false);
        }
    }
    let (result, stats) =
        check_equivalence_with_stats(original, candidate, None, Some(SAT_VERIFY_LIMIT))
            .map_err(|e| format!("SAT equivalence check failed: {e}"))?;
    *counts = FraigCounts {
        sat_calls: stats.sat_calls as u64,
        merges: stats.proved_merges as u64,
        aig_nodes: stats.aig_nodes as u64,
    };
    match result {
        EquivalenceResult::Equivalent => Ok(true),
        EquivalenceResult::NotEquivalent(_) => Ok(false),
        EquivalenceResult::Unknown => {
            Err("SAT equivalence check exhausted its budget without a verdict".into())
        }
    }
}
