//! Steps 6–7 of the flow: structural analysis and oracle-guided exhaustive
//! search (the OG path for DFLTs).
//!
//! The functionality-stripped circuit embedded in the locked subcircuit
//! contains implicants built from the protected primary inputs (the paper's
//! Fig. 5(c)/(d)). The structural analysis therefore:
//!
//! 1. collects the logic cones of the locked subcircuit whose support is
//!    protected primary inputs only, in one topological pass that computes
//!    every net's protected-input support and cone size at once
//!    ([`subset_support`]);
//! 2. SAT-solves each cone to 0 and to 1, recording the (partially
//!    specified) protected-input patterns of the satisfying assignments,
//!    read through each cone's precomputed support row;
//! 3. augments them with single-bit patterns, orders everything by the
//!    number of unspecified bits, and
//! 4. expands the unspecified bits, querying the oracle for each candidate
//!    pattern while the locked netlist is driven with the key tied to the
//!    candidate: when both produce the same outputs, the candidate is the
//!    protected pattern — i.e. (through the PPI↔key association) the secret
//!    key.

use crate::{KrattError, RemovalArtifacts};
use kratt_attacks::{KeyGuess, Oracle};
use kratt_netlist::analysis::subset_support;
use kratt_netlist::sim::Simulator;
use kratt_netlist::{Circuit, NetId};
use kratt_sat::{cancel_requested, CancelFlag, Encoder, Lit, SatResult, Solver};
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

/// Budget and heuristics of the structural-analysis search.
#[derive(Debug, Clone)]
pub struct StructuralAnalysisConfig {
    /// Cap on the number of candidate logic cones analysed.
    pub max_cones: usize,
    /// Patterns with more unspecified bits than this are not expanded
    /// exhaustively (their single completions are skipped); keeps the search
    /// bounded on wide keys.
    pub max_expansion_bits: u32,
    /// Overall cap on oracle queries.
    pub max_oracle_queries: u64,
    /// Wall-clock budget for the search.
    pub time_limit: Option<Duration>,
    /// Absolute deadline shared with the rest of the attack; the effective
    /// limit is the earlier of `time_limit` (relative to the start of the
    /// search) and this instant.
    pub deadline: Option<Instant>,
    /// Cooperative cancellation flag shared with the attack: checked in the
    /// pattern-expansion loops wherever the deadline is, and handed to the
    /// cone-probing SAT solver.
    pub cancel: Option<CancelFlag>,
}

impl Default for StructuralAnalysisConfig {
    fn default() -> Self {
        StructuralAnalysisConfig {
            max_cones: 1024,
            max_expansion_bits: 16,
            max_oracle_queries: 2_000_000,
            time_limit: Some(Duration::from_secs(120)),
            deadline: None,
            cancel: None,
        }
    }
}

impl StructuralAnalysisConfig {
    /// The effective absolute deadline of a search starting now.
    fn effective_deadline(&self) -> Option<Instant> {
        let per_call = self.time_limit.map(|limit| Instant::now() + limit);
        match (per_call, self.deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

/// Outcome of the structural analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StructuralOutcome {
    /// The protected pattern (and hence the key) was found.
    Key {
        /// The recovered key bits by key-input name.
        guess: KeyGuess,
        /// The protected-input pattern, by protected-input name.
        protected_pattern: Vec<(String, bool)>,
    },
    /// The budget ran out before a matching pattern was found.
    OutOfTime,
}

/// A partially specified protected-input pattern (`None` = unspecified).
type PartialPattern = Vec<Option<bool>>;

/// A candidate logic cone: its root net and its support as
/// `(protected-input index, subcircuit net)` pairs, ascending by index.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Cone {
    net: NetId,
    support: Vec<(usize, NetId)>,
}

/// The protected primary inputs that are inputs of the subcircuit, in
/// association order, by name and by subcircuit net: the index every
/// pattern of both searches is laid out in.
fn protected_inputs(
    artifacts: &RemovalArtifacts,
    subcircuit: &Circuit,
) -> (Vec<String>, Vec<NetId>) {
    artifacts
        .protected_inputs()
        .into_iter()
        .filter_map(|name| {
            let net = subcircuit
                .find_net(&name)
                .filter(|&n| subcircuit.is_input(n))?;
            Some((name, net))
        })
        .unzip()
}

/// The primary-input position of every named net of `circuit` (`None` for
/// names that are not its primary inputs).
fn input_positions(circuit: &Circuit, names: &[String]) -> Vec<Option<usize>> {
    names
        .iter()
        .map(|name| {
            circuit
                .find_net(name)
                .and_then(|net| circuit.input_position(net))
        })
        .collect()
}

/// Runs the structural analysis and exhaustive search.
///
/// # Errors
///
/// Propagates netlist/simulation/oracle errors, including a combinational
/// cycle in the subcircuit.
pub fn structural_analysis(
    artifacts: &RemovalArtifacts,
    subcircuit: &Circuit,
    locked: &Circuit,
    oracle: &Oracle,
    config: &StructuralAnalysisConfig,
) -> Result<StructuralOutcome, KrattError> {
    let deadline = config.effective_deadline();
    let (ppi_names, ppi_nets) = protected_inputs(artifacts, subcircuit);
    if ppi_names.is_empty() {
        return Ok(StructuralOutcome::OutOfTime);
    }

    // --- Steps 1–3: promising (partially specified) PPI patterns. ---------
    let patterns = promising_patterns(subcircuit, &ppi_nets, config, deadline)?;

    // --- Step 4: expand and test against the oracle. ----------------------
    let locked_sim = Simulator::new(locked)?;
    let layout = LockedLayout::new(artifacts, &ppi_names, locked, oracle)?;
    let hit = expand_patterns(&patterns, config, deadline, |candidate| {
        candidate_matches(&layout, candidate, &locked_sim, oracle)
    })?;
    Ok(match hit {
        Some(candidate) => StructuralOutcome::Key {
            guess: pattern_to_key_guess(artifacts, &ppi_names, &candidate),
            protected_pattern: ppi_names.iter().cloned().zip(candidate).collect(),
        },
        None => StructuralOutcome::OutOfTime,
    })
}

/// Step 4's enumeration, shared by both searches: every completion of the
/// unspecified bits of every pattern, in pattern order, skipping patterns
/// wider than `max_expansion_bits` and candidates already tried. Each
/// visited candidate counts as one oracle query. Returns the first
/// candidate `visit` accepts, or `None` once the patterns or the budget
/// run out.
fn expand_patterns(
    patterns: &[PartialPattern],
    config: &StructuralAnalysisConfig,
    deadline: Option<Instant>,
    mut visit: impl FnMut(&[bool]) -> Result<bool, KrattError>,
) -> Result<Option<Vec<bool>>, KrattError> {
    let mut tried: HashSet<Vec<bool>> = HashSet::new();
    let mut queries = 0u64;
    for pattern in patterns {
        let unspecified: Vec<usize> = (0..pattern.len())
            .filter(|&i| pattern[i].is_none())
            .collect();
        if unspecified.len() as u32 > config.max_expansion_bits {
            continue;
        }
        for completion in 0u64..(1u64 << unspecified.len()) {
            if let Some(deadline) = deadline {
                if Instant::now() >= deadline {
                    return Ok(None);
                }
            }
            if cancel_requested(&config.cancel) {
                return Ok(None);
            }
            if queries >= config.max_oracle_queries {
                return Ok(None);
            }
            let mut candidate: Vec<bool> = pattern.iter().map(|b| b.unwrap_or(false)).collect();
            for (bit, &position) in unspecified.iter().enumerate() {
                candidate[position] = completion >> bit & 1 != 0;
            }
            if !tried.insert(candidate.clone()) {
                continue;
            }
            queries += 1;
            if visit(&candidate)? {
                return Ok(Some(candidate));
            }
        }
    }
    Ok(None)
}

/// Steps 1–3 of the structural analysis: collect PPI-only logic cones,
/// SAT-solve each cone to 0 and 1 to obtain two partially specified patterns
/// per cone, augment them with single-bit patterns and order everything by
/// the number of unspecified bits (most specific first).
fn promising_patterns(
    subcircuit: &Circuit,
    ppi_nets: &[NetId],
    config: &StructuralAnalysisConfig,
    deadline: Option<Instant>,
) -> Result<Vec<PartialPattern>, KrattError> {
    let cones = ppi_only_cones(subcircuit, ppi_nets, config.max_cones)?;
    Ok(probe_cones(
        subcircuit,
        ppi_nets.len(),
        &cones,
        config,
        deadline,
    ))
}

/// Steps 2–3: two promising patterns per cone (its output SAT-solved to 0
/// and to 1, the model read on the cone's support), then the single-bit
/// patterns, ordered by specificity.
fn probe_cones(
    subcircuit: &Circuit,
    num_ppis: usize,
    cones: &[Cone],
    config: &StructuralAnalysisConfig,
    deadline: Option<Instant>,
) -> Vec<PartialPattern> {
    let mut patterns: Vec<PartialPattern> = Vec::new();
    {
        let mut solver = Solver::with_config(kratt_sat::SolverConfig {
            deadline,
            cancel: config.cancel.clone(),
            ..Default::default()
        });
        let encoder = Encoder::new();
        let encoding = encoder.encode(&mut solver, subcircuit, &HashMap::new());
        for cone in cones {
            for target in [false, true] {
                let assumption = Lit::with_polarity(encoding.var_of(cone.net), target);
                if let SatResult::Sat(model) = solver.solve_with_assumptions(&[assumption]) {
                    let mut pattern: PartialPattern = vec![None; num_ppis];
                    for &(index, net) in &cone.support {
                        pattern[index] = Some(model.value(encoding.var_of(net)));
                    }
                    patterns.push(pattern);
                }
            }
        }
    }

    // --- Step 3: augment with single-bit patterns and order by specificity.
    for index in 0..num_ppis {
        for value in [false, true] {
            let mut pattern: PartialPattern = vec![None; num_ppis];
            pattern[index] = Some(value);
            patterns.push(pattern);
        }
    }
    patterns.sort_by_key(|p| p.iter().filter(|b| b.is_none()).count());
    patterns.dedup();
    patterns
}

/// The paper's §V flow for locking schemes whose restore unit lives in
/// read-proof hardware (SFLL-Flex, row-activated LUTs): the key itself cannot
/// be recovered, but the *protected patterns* can — every candidate pattern
/// on which the functionality-stripped circuit (the unit-stripped circuit
/// with the critical signal and the dangling key inputs tied to 0) disagrees
/// with the oracle is a stripped pattern. The returned patterns are what
/// [`reconstruct_original_from_patterns`](crate::reconstruct::reconstruct_original_from_patterns)
/// needs to rebuild the original circuit.
///
/// Candidate generation and the budget knobs are shared with
/// [`structural_analysis`]; unlike it, this search does not stop at the first
/// hit — it keeps going until the candidate list or the budget is exhausted
/// and returns *all* protected patterns it found.
///
/// # Errors
///
/// Propagates netlist/simulation/oracle errors, including a combinational
/// cycle in the subcircuit.
pub fn recover_protected_patterns(
    artifacts: &RemovalArtifacts,
    subcircuit: &Circuit,
    oracle: &Oracle,
    config: &StructuralAnalysisConfig,
) -> Result<Vec<Vec<(String, bool)>>, KrattError> {
    let deadline = config.effective_deadline();
    let (ppi_names, ppi_nets) = protected_inputs(artifacts, subcircuit);
    if ppi_names.is_empty() {
        return Ok(Vec::new());
    }
    let patterns = promising_patterns(subcircuit, &ppi_nets, config, deadline)?;

    // Build the functionality-stripped circuit: USC with cs1 and the dangling
    // key inputs tied to 0.
    let usc = &artifacts.unit_stripped;
    let cs1 = usc.find_net(&artifacts.critical_signal).ok_or_else(|| {
        KrattError::Netlist(kratt_netlist::NetlistError::UnknownNet(
            artifacts.critical_signal.clone(),
        ))
    })?;
    let mut ties: Vec<(NetId, bool)> = vec![(cs1, false)];
    ties.extend(usc.key_inputs().into_iter().map(|k| (k, false)));
    let fsc = kratt_netlist::transform::set_inputs_constant(usc, &ties)?;
    let fsc_sim = Simulator::new(&fsc)?;
    let fsc_positions = input_positions(&fsc, &ppi_names);
    let oracle_positions = oracle.input_positions(&ppi_names)?;

    let mut found: Vec<Vec<(String, bool)>> = Vec::new();
    expand_patterns(&patterns, config, deadline, |candidate| {
        // Oracle and FSC on the same input assignment (PPIs = candidate,
        // everything else 0).
        let oracle_out = query_protected(oracle, &oracle_positions, candidate)?;
        let mut fsc_pattern = vec![false; fsc.num_inputs()];
        for (&position, &value) in fsc_positions.iter().zip(candidate) {
            if let Some(position) = position {
                fsc_pattern[position] = value;
            }
        }
        if fsc_sim.run(&fsc_pattern)? != oracle_out {
            found.push(
                ppi_names
                    .iter()
                    .cloned()
                    .zip(candidate.iter().copied())
                    .collect(),
            );
        }
        Ok(false)
    })?;
    Ok(found)
}

/// Collects (up to `max_cones`) nets of the subcircuit whose fan-in support
/// consists of protected primary inputs only — the paper's "logic cones of
/// the locked subcircuit whose inputs are the protected primary inputs".
/// Cones whose consumers also depend on non-protected signals come first
/// (they are the frontier of the embedded FSC implicants); ties are broken
/// towards wide support (more specified pattern bits) and then towards small
/// cones — the hard-wired implicants of the FSC are shallow comparator-like
/// structures, so "wide support carried by few gates" is exactly their
/// signature and puts them ahead of ordinary host logic.
///
/// Supports and cone sizes of all nets come from one topological
/// [`subset_support`] pass; only the selected cones' support rows outlive it.
fn ppi_only_cones(
    subcircuit: &Circuit,
    ppi_nets: &[NetId],
    max_cones: usize,
) -> Result<Vec<Cone>, KrattError> {
    let sets = subset_support(subcircuit, ppi_nets)?;
    // Constant-only gates are inside the PPIs with an empty support; they
    // are no cones.
    let ppi_only = |net: NetId| sets.is_inside(net) && sets.support_len(net) > 0;
    // A net is on the frontier when nothing consumes it or some consumer
    // is not PPI-only.
    let mut consumed = vec![false; subcircuit.num_nets()];
    let mut frontier = vec![false; subcircuit.num_nets()];
    for (_, gate) in subcircuit.gates() {
        let outside = !ppi_only(gate.output);
        for &input in &gate.inputs {
            consumed[input.index()] = true;
            frontier[input.index()] |= outside;
        }
    }
    let mut cones: Vec<NetId> = subcircuit
        .gates()
        .map(|(_, gate)| gate.output)
        .filter(|&net| ppi_only(net))
        .collect();
    cones.sort_by_key(|&net| {
        (
            std::cmp::Reverse(usize::from(!consumed[net.index()] || frontier[net.index()])),
            std::cmp::Reverse(sets.support_len(net)),
            sets.cone_size(net),
            net,
        )
    });
    // A multiply-driven net is listed once.
    cones.dedup();
    cones.truncate(max_cones);
    Ok(cones
        .into_iter()
        .map(|net| Cone {
            net,
            support: sets
                .support_positions(net)
                .map(|index| (index, ppi_nets[index]))
                .collect(),
        })
        .collect())
}

/// Input positions of the OG search, resolved once per search: where each
/// protected input sits in the oracle's and the locked netlist's input
/// pattern, and which locked key inputs it drives through the association.
struct LockedLayout {
    /// Oracle input position of every protected input.
    oracle: Vec<usize>,
    /// Locked-netlist input position of every protected input.
    locked_ppis: Vec<Option<usize>>,
    /// `(protected-input index, locked key position)`, in association order.
    locked_keys: Vec<(usize, usize)>,
    locked_inputs: usize,
}

impl LockedLayout {
    fn new(
        artifacts: &RemovalArtifacts,
        ppi_names: &[String],
        locked: &Circuit,
        oracle: &Oracle,
    ) -> Result<Self, KrattError> {
        let mut locked_keys = Vec::new();
        for (ppi, keys) in &artifacts.associations {
            let Some(ppi_index) = ppi_names.iter().position(|n| n == ppi) else {
                continue;
            };
            for position in input_positions(locked, keys).into_iter().flatten() {
                locked_keys.push((ppi_index, position));
            }
        }
        Ok(LockedLayout {
            oracle: oracle.input_positions(ppi_names)?,
            locked_ppis: input_positions(locked, ppi_names),
            locked_keys,
            locked_inputs: locked.num_inputs(),
        })
    }
}

/// One oracle query: the protected inputs (at their resolved `positions`)
/// set to `candidate`, every other primary input 0.
fn query_protected(
    oracle: &Oracle,
    positions: &[usize],
    candidate: &[bool],
) -> Result<Vec<bool>, KrattError> {
    let mut pattern = vec![false; oracle.num_inputs()];
    for (&position, &value) in positions.iter().zip(candidate) {
        pattern[position] = value;
    }
    Ok(oracle.query(&pattern)?)
}

/// Tests one fully specified protected-input candidate: the oracle (original
/// IC) and the locked netlist with the key tied to the candidate must agree
/// on the outputs when all other primary inputs are 0.
fn candidate_matches(
    layout: &LockedLayout,
    candidate: &[bool],
    locked_sim: &Simulator<'_>,
    oracle: &Oracle,
) -> Result<bool, KrattError> {
    let oracle_out = query_protected(oracle, &layout.oracle, candidate)?;

    // Locked netlist: same primary inputs, key inputs tied through the
    // PPI ↔ key association.
    let mut pattern = vec![false; layout.locked_inputs];
    for (&position, &value) in layout.locked_ppis.iter().zip(candidate) {
        if let Some(position) = position {
            pattern[position] = value;
        }
    }
    for &(ppi_index, position) in &layout.locked_keys {
        pattern[position] = candidate[ppi_index];
    }
    let locked_out = locked_sim.run(&pattern)?;

    // Compare only the outputs the oracle also has (same names/order since
    // locking preserves the output list).
    Ok(locked_out == oracle_out)
}

/// Maps a protected-input pattern to a key guess through the association.
fn pattern_to_key_guess(
    artifacts: &RemovalArtifacts,
    ppi_names: &[String],
    candidate: &[bool],
) -> KeyGuess {
    let mut guess = KeyGuess::new();
    for (ppi, keys) in &artifacts.associations {
        if let Some(position) = ppi_names.iter().position(|n| n == ppi) {
            for key in keys {
                guess.set(key.clone(), candidate[position]);
            }
        }
    }
    guess
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extraction::extract_locked_subcircuit;
    use crate::removal::remove_locking_unit;
    use kratt_attacks::score_guess;
    use kratt_benchmarks::arith::ripple_carry_adder;
    use kratt_benchmarks::small::majority;
    use kratt_benchmarks::IscasCircuit;
    use kratt_locking::{Cac, LockingTechnique, SecretKey, SfllHd, TtLock};
    use kratt_netlist::analysis::{fanin_cone_gates, fanout_map, support};
    use kratt_netlist::{GateType, NetlistError};
    use kratt_synth::{resynthesize, Effort, ResynthesisOptions};
    use std::collections::BTreeMap;

    fn run_structural(
        locked: &kratt_locking::LockedCircuit,
        original: &Circuit,
    ) -> StructuralOutcome {
        let artifacts = remove_locking_unit(&locked.circuit).unwrap();
        let subcircuit = extract_locked_subcircuit(&artifacts).unwrap();
        let oracle = Oracle::new(original.clone()).unwrap();
        structural_analysis(
            &artifacts,
            &subcircuit,
            &locked.circuit,
            &oracle,
            &StructuralAnalysisConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn ttlock_secret_is_recovered_on_the_running_example() {
        let original = majority();
        let secret = SecretKey::from_u64(0b010, 3);
        let locked = TtLock::new(3).lock(&original, &secret).unwrap();
        match run_structural(&locked, &original) {
            StructuralOutcome::Key {
                guess,
                protected_pattern,
            } => {
                assert_eq!(score_guess(&locked, &guess), (3, 3));
                assert_eq!(protected_pattern.len(), 3);
            }
            other => panic!("expected the key, got {other:?}"),
        }
    }

    #[test]
    fn cac_secret_is_recovered() {
        let original = ripple_carry_adder(4).unwrap();
        let secret = SecretKey::from_u64(0b10110, 5);
        let locked = Cac::new(5).lock(&original, &secret).unwrap();
        match run_structural(&locked, &original) {
            StructuralOutcome::Key { guess, .. } => {
                assert_eq!(score_guess(&locked, &guess), (5, 5));
            }
            other => panic!("expected the key, got {other:?}"),
        }
    }

    #[test]
    fn sfll_hd0_secret_is_recovered() {
        // SFLL-HD with distance 0 protects a single pattern like TTLock but
        // builds its restore unit from a popcount comparator, so it exercises
        // a structurally different cone in the analysis. (Distance > 0
        // restore units are not key-equality comparators and are out of
        // KRATT's scope, per the paper's §V discussion.)
        let original = ripple_carry_adder(4).unwrap();
        let secret = SecretKey::from_u64(0b0111, 4);
        let locked = SfllHd::new(4, 0).lock(&original, &secret).unwrap();
        match run_structural(&locked, &original) {
            StructuralOutcome::Key { guess, .. } => {
                let key_names = locked.circuit.key_input_names();
                let key = guess.to_secret_key(&key_names);
                let unlocked = locked.apply_key(&key).unwrap();
                assert!(kratt_netlist::sim::exhaustively_equivalent(&original, &unlocked).unwrap());
            }
            other => panic!("expected a key, got {other:?}"),
        }
    }

    /// The quadratic per-gate scan that [`ppi_only_cones`] replaced, kept
    /// as the reference: one [`support`] and one [`fanin_cone_gates`] walk
    /// per gate over name-keyed sets, then each selected cone's support
    /// re-derived by name, as step 2 used to do for every SAT model.
    fn reference_cones(subcircuit: &Circuit, ppi_names: &[String], max_cones: usize) -> Vec<Cone> {
        let ppi_index: BTreeMap<&str, usize> = ppi_names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.as_str(), i))
            .collect();
        let fanout = fanout_map(subcircuit);
        let mut ppi_only: HashSet<NetId> = HashSet::new();
        let mut support_size: HashMap<NetId, usize> = HashMap::new();
        let mut cone_size: HashMap<NetId, usize> = HashMap::new();
        for (_, gate) in subcircuit.gates() {
            let sup = support(subcircuit, &[gate.output]);
            let all_ppi = !sup.is_empty()
                && sup
                    .iter()
                    .all(|&n| ppi_index.contains_key(subcircuit.net_name(n)));
            if all_ppi {
                ppi_only.insert(gate.output);
                support_size.insert(gate.output, sup.len());
                cone_size.insert(
                    gate.output,
                    fanin_cone_gates(subcircuit, &[gate.output]).len(),
                );
            }
        }
        let is_frontier = |net: NetId| -> bool {
            match fanout.get(&net) {
                None => true,
                Some(list) => list
                    .iter()
                    .any(|&gid| !ppi_only.contains(&subcircuit.gate(gid).output)),
            }
        };
        let mut cones: Vec<NetId> = ppi_only.iter().copied().collect();
        cones.sort_by_key(|&net| {
            (
                std::cmp::Reverse(usize::from(is_frontier(net))),
                std::cmp::Reverse(support_size.get(&net).copied().unwrap_or(0)),
                cone_size.get(&net).copied().unwrap_or(usize::MAX),
                net,
            )
        });
        cones.truncate(max_cones);
        cones
            .into_iter()
            .map(|net| {
                let cone_support: HashSet<String> = support(subcircuit, &[net])
                    .into_iter()
                    .map(|n| subcircuit.net_name(n).to_string())
                    .collect();
                let mut support: Vec<(usize, NetId)> = ppi_index
                    .iter()
                    .filter(|(name, _)| cone_support.contains(**name))
                    .map(|(name, &index)| (index, subcircuit.find_net(name).expect("ppi exists")))
                    .collect();
                support.sort_unstable();
                Cone { net, support }
            })
            .collect()
    }

    /// A random subcircuit with constant-only gates and floating fan-ins,
    /// and a random subset of its inputs as the protected inputs.
    fn random_subcircuit(seed: u64) -> (Circuit, Vec<String>) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut c = Circuit::new(format!("rand{seed}"));
        let n_inputs = rng.gen_range(1..10usize);
        let inputs: Vec<NetId> = (0..n_inputs)
            .map(|i| c.add_input(format!("i{i}")).unwrap())
            .collect();
        let mut nets = inputs.clone();
        for f in 0..rng.gen_range(0..3usize) {
            nets.push(c.raw_add_undriven_net(format!("float{f}")).unwrap());
        }
        for g in 0..rng.gen_range(1..60usize) {
            let ty = GateType::ALL[rng.gen_range(0..GateType::ALL.len())];
            let arity = match ty {
                GateType::Const0 | GateType::Const1 => 0,
                GateType::Not | GateType::Buf => 1,
                _ => rng.gen_range(1..5usize),
            };
            let ins: Vec<NetId> = (0..arity)
                .map(|_| nets[rng.gen_range(0..nets.len())])
                .collect();
            let out = c.add_gate(ty, format!("g{g}"), &ins).unwrap();
            nets.push(out);
            if rng.gen_bool(0.2) {
                c.mark_output(out);
            }
        }
        let mut ppis: Vec<String> = inputs
            .iter()
            .filter(|_| rng.gen_bool(0.6))
            .map(|&n| c.net_name(n).to_string())
            .collect();
        // Association order is not input order.
        for i in (1..ppis.len()).rev() {
            ppis.swap(i, rng.gen_range(0..i + 1));
        }
        (c, ppis)
    }

    proptest::proptest! {
        /// The one-pass cone collection returns exactly the reference's
        /// ordered cone list and support rows.
        #[test]
        fn prop_cones_match_the_quadratic_reference(seed in 0u64..300) {
            let (c, ppi_names) = random_subcircuit(seed);
            let ppi_nets: Vec<NetId> = ppi_names.iter().map(|n| c.find_net(n).unwrap()).collect();
            for max_cones in [1, 8, 1024] {
                let fast = ppi_only_cones(&c, &ppi_nets, max_cones).unwrap();
                proptest::prop_assert_eq!(fast, reference_cones(&c, &ppi_names, max_cones));
            }
        }
    }

    #[test]
    fn cone_collection_reports_a_cycle_as_a_netlist_error() {
        let mut c = Circuit::new("cyclic");
        let a = c.add_input("a").unwrap();
        let x = c.add_gate(GateType::And, "x", &[a, a]).unwrap();
        let y = c.add_gate(GateType::Buf, "y", &[x]).unwrap();
        c.mark_output(y);
        let x_gate = c.driver(x).unwrap();
        c.raw_set_gate_input(x_gate, 1, y);
        assert!(matches!(
            ppi_only_cones(&c, &[a], 8),
            Err(KrattError::Netlist(NetlistError::CombinationalCycle(_)))
        ));
    }

    /// Locks the c6288 host (scale 0.05, k=16) with a fixed secret and
    /// resynthesises it with a fixed seed, as the benchmark cells do.
    fn c6288_k16(
        technique: &dyn LockingTechnique,
        seed: u64,
    ) -> (Circuit, kratt_locking::LockedCircuit) {
        let host = IscasCircuit::C6288.generate_scaled(0.05);
        let secret = SecretKey::from_u64(0xb5a3, 16);
        let mut locked = technique.lock(&host, &secret).unwrap();
        let options = ResynthesisOptions::with_seed(seed).effort(Effort::Medium);
        locked.circuit = resynthesize(&locked.circuit, &options).unwrap();
        (host, locked)
    }

    /// Structural analysis on a resynthesised c6288 k=16 instance: the
    /// promising patterns equal the reference path's, the key is exact and
    /// the oracle query count is the one the search made before the
    /// one-pass cone collection, on the same inputs.
    fn assert_c6288_search_is_pinned(
        technique: &dyn LockingTechnique,
        seed: u64,
        pinned_queries: u64,
    ) {
        let (host, locked) = c6288_k16(technique, seed);
        let artifacts = remove_locking_unit(&locked.circuit).unwrap();
        let subcircuit = extract_locked_subcircuit(&artifacts).unwrap();
        let config = StructuralAnalysisConfig::default();
        let (ppi_names, ppi_nets) = protected_inputs(&artifacts, &subcircuit);
        let patterns = promising_patterns(&subcircuit, &ppi_nets, &config, None).unwrap();
        let reference = probe_cones(
            &subcircuit,
            ppi_names.len(),
            &reference_cones(&subcircuit, &ppi_names, config.max_cones),
            &config,
            None,
        );
        assert_eq!(patterns, reference);

        let oracle = Oracle::new(host).unwrap();
        match structural_analysis(&artifacts, &subcircuit, &locked.circuit, &oracle, &config)
            .unwrap()
        {
            StructuralOutcome::Key { guess, .. } => {
                assert_eq!(score_guess(&locked, &guess), (16, 16));
            }
            other => panic!("expected the key, got {other:?}"),
        }
        assert_eq!(oracle.queries(), pinned_queries);
    }

    #[test]
    fn c6288_cac_search_is_pinned_to_the_reference() {
        assert_c6288_search_is_pinned(&Cac::new(16), 0x6288_0001, 2);
    }

    #[test]
    fn c6288_ttlock_search_is_pinned_to_the_reference() {
        assert_c6288_search_is_pinned(&TtLock::new(16), 0x6288_0002, 2);
    }

    #[test]
    fn exhausted_budget_reports_out_of_time() {
        let original = ripple_carry_adder(4).unwrap();
        let secret = SecretKey::from_u64(0b1100, 4);
        let locked = TtLock::new(4).lock(&original, &secret).unwrap();
        let artifacts = remove_locking_unit(&locked.circuit).unwrap();
        let subcircuit = extract_locked_subcircuit(&artifacts).unwrap();
        let oracle = Oracle::new(original).unwrap();
        let config = StructuralAnalysisConfig {
            max_oracle_queries: 0,
            ..Default::default()
        };
        assert_eq!(
            structural_analysis(&artifacts, &subcircuit, &locked.circuit, &oracle, &config)
                .unwrap(),
            StructuralOutcome::OutOfTime
        );
    }
}
