//! Structural analysis of circuits: topological ordering, cones, levels and
//! summary statistics.

use crate::circuit::{Circuit, GateId, NetId};
use crate::NetlistError;
use std::collections::{HashMap, HashSet, VecDeque};

/// Computes a topological order of the gates (inputs of a gate are driven
/// either by primary inputs or by earlier gates in the order).
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] if the circuit contains a
/// cycle; the error carries the full cycle path in signal-flow order.
pub fn topological_order(circuit: &Circuit) -> Result<Vec<GateId>, NetlistError> {
    let n = circuit.num_gates();
    // Number of gate-driven inputs each gate is still waiting for.
    let mut pending = vec![0usize; n];
    // Map from driving gate to the gates it feeds.
    let mut consumers: Vec<Vec<GateId>> = vec![Vec::new(); n];
    for (gid, gate) in circuit.gates() {
        for &input in &gate.inputs {
            if let Some(driver) = circuit.driver(input) {
                pending[gid.index()] += 1;
                consumers[driver.index()].push(gid);
            }
        }
    }
    let mut ready: VecDeque<GateId> = circuit
        .gates()
        .filter(|(gid, _)| pending[gid.index()] == 0)
        .map(|(gid, _)| gid)
        .collect();
    let mut order = Vec::with_capacity(n);
    while let Some(gid) = ready.pop_front() {
        order.push(gid);
        for &next in &consumers[gid.index()] {
            pending[next.index()] -= 1;
            if pending[next.index()] == 0 {
                ready.push_back(next);
            }
        }
    }
    if order.len() != n {
        return Err(NetlistError::CombinationalCycle(extract_cycle(
            circuit, &pending,
        )));
    }
    Ok(order)
}

/// Walks the still-pending gates of a failed Kahn run to recover an actual
/// cycle. Every stuck gate (pending > 0) has at least one input driven by
/// another stuck gate, so following such inputs from any stuck gate must
/// revisit a gate; the revisited segment is a cycle. The path is returned as
/// net names in signal-flow order (each net drives the next, the last feeds
/// the first).
fn extract_cycle(circuit: &Circuit, pending: &[usize]) -> Vec<String> {
    let Some(start) = circuit
        .gates()
        .map(|(gid, _)| gid)
        .find(|gid| pending[gid.index()] > 0)
    else {
        return Vec::new();
    };
    let mut position: HashMap<GateId, usize> = HashMap::new();
    let mut path: Vec<GateId> = Vec::new();
    let mut current = start;
    loop {
        if let Some(&first) = position.get(&current) {
            // `path[first..]` walks the cycle backwards (towards fanins);
            // reverse it so the reported path follows signal flow.
            let mut cycle: Vec<String> = path[first..]
                .iter()
                .map(|&gid| circuit.net_name(circuit.gate(gid).output).to_string())
                .collect();
            cycle.reverse();
            return cycle;
        }
        position.insert(current, path.len());
        path.push(current);
        let next = circuit
            .gate(current)
            .inputs
            .iter()
            .find_map(|&input| circuit.driver(input).filter(|d| pending[d.index()] > 0));
        match next {
            Some(gid) => current = gid,
            // Unreachable for a genuinely stuck gate; bail out defensively.
            None => return circuit.net_names(&[circuit.gate(current).output]),
        }
    }
}

/// The logic level (longest distance, in gates, from any primary input) of
/// every net, indexed by [`NetId::index`]. Primary inputs have level 0.
///
/// # Errors
///
/// Returns an error if the circuit is cyclic.
pub fn logic_levels(circuit: &Circuit) -> Result<Vec<usize>, NetlistError> {
    let order = topological_order(circuit)?;
    let mut level = vec![0usize; circuit.num_nets()];
    for gid in order {
        let gate = circuit.gate(gid);
        let max_in = gate
            .inputs
            .iter()
            .map(|&n| level[n.index()])
            .max()
            .unwrap_or(0);
        level[gate.output.index()] = max_in + 1;
    }
    Ok(level)
}

/// The depth of the circuit: the maximum logic level over the primary
/// outputs (0 for a circuit whose outputs are directly tied to inputs).
///
/// # Errors
///
/// Returns an error if the circuit is cyclic.
pub fn depth(circuit: &Circuit) -> Result<usize, NetlistError> {
    let levels = logic_levels(circuit)?;
    Ok(circuit
        .outputs()
        .iter()
        .map(|&o| levels[o.index()])
        .max()
        .unwrap_or(0))
}

/// The transitive fan-in cone of `roots`: every gate whose output can reach
/// one of the root nets going backwards through gate inputs.
pub fn fanin_cone_gates(circuit: &Circuit, roots: &[NetId]) -> HashSet<GateId> {
    let mut cone = HashSet::new();
    let mut stack: Vec<NetId> = roots.to_vec();
    let mut seen_nets: HashSet<NetId> = roots.iter().copied().collect();
    while let Some(net) = stack.pop() {
        if let Some(gid) = circuit.driver(net) {
            if cone.insert(gid) {
                for &input in &circuit.gate(gid).inputs {
                    if seen_nets.insert(input) {
                        stack.push(input);
                    }
                }
            }
        }
    }
    cone
}

/// The *support* of `roots`: the primary inputs that the fan-in cone of the
/// root nets depends on, in primary-input order.
pub fn support(circuit: &Circuit, roots: &[NetId]) -> Vec<NetId> {
    let cone = fanin_cone_gates(circuit, roots);
    let mut nets: HashSet<NetId> = roots.iter().copied().collect();
    for gid in &cone {
        for &input in &circuit.gate(*gid).inputs {
            nets.insert(input);
        }
    }
    circuit
        .inputs()
        .iter()
        .copied()
        .filter(|n| nets.contains(n))
        .collect()
}

/// The support of every net restricted to a chosen subset of the primary
/// inputs, plus the exact fan-in cone size of every net whose support lies
/// inside the subset — what [`support`] and [`fanin_cone_gates`] would
/// report per net, computed for all nets in one topological pass instead of
/// one walk per net.
#[derive(Debug, Clone)]
pub struct SubsetSupport {
    /// `u64` words per support row.
    words: usize,
    /// One support row per net (indexed by [`NetId::index`]): bit `i` is
    /// set when `subset[i]` is in the net's support.
    rows: Vec<u64>,
    /// Per net: the number of gates in its fan-in cone when its support
    /// lies inside the subset, `None` when it reaches any other input.
    cone_gates: Vec<Option<u32>>,
}

/// Columns of the cone-gate bitsets handled per sweep of
/// [`subset_support`]: bounds the sweep's scratch rows at 512 bytes per gate.
const CONE_BLOCK_BITS: usize = 4096;

impl SubsetSupport {
    /// Whether the support of `net` lies inside the subset (it may be
    /// empty, e.g. for a constant gate or a floating net).
    pub fn is_inside(&self, net: NetId) -> bool {
        self.cone_gates[net.index()].is_some()
    }

    /// Size of the support of `net` within the subset.
    pub fn support_len(&self, net: NetId) -> usize {
        self.row(net).iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Subset positions of the support of `net`, ascending.
    pub fn support_positions(&self, net: NetId) -> impl Iterator<Item = usize> + '_ {
        self.row(net).iter().enumerate().flat_map(|(w, &word)| {
            (0..64)
                .filter(move |bit| word >> bit & 1 != 0)
                .map(move |bit| w * 64 + bit)
        })
    }

    /// The number of gates in the fan-in cone of `net` (as
    /// [`fanin_cone_gates`] counts them), for nets inside the subset.
    pub fn cone_size(&self, net: NetId) -> Option<usize> {
        self.cone_gates[net.index()].map(|n| n as usize)
    }

    fn row(&self, net: NetId) -> &[u64] {
        &self.rows[net.index() * self.words..(net.index() + 1) * self.words]
    }
}

/// Computes the [`SubsetSupport`] of every net of `circuit` for the given
/// distinct primary inputs (`subset[i]` is support bit `i`; entries that
/// are not primary inputs never appear in a support, as in [`support`]).
///
/// Support rows are propagated in topological order. The cone-gate bitsets
/// are only built over the gates whose support lies inside the subset (a
/// cone of such a net contains no other gate), in column blocks of
/// [`CONE_BLOCK_BITS`], so the pass is linear in the circuit for the
/// support and `O(inside² / 64)` for the cone sizes with bounded scratch.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] if the circuit is cyclic.
pub fn subset_support(circuit: &Circuit, subset: &[NetId]) -> Result<SubsetSupport, NetlistError> {
    let order = topological_order(circuit)?;
    let words = subset.len().div_ceil(64);
    let mut rows = vec![0u64; circuit.num_nets() * words];
    // Floating nets have an empty support and so start inside; primary
    // inputs start outside unless they belong to the subset.
    let mut inside = vec![true; circuit.num_nets()];
    for &input in circuit.inputs() {
        inside[input.index()] = false;
    }
    for (i, &net) in subset.iter().enumerate() {
        if circuit.is_input(net) {
            inside[net.index()] = true;
            rows[net.index() * words + i / 64] |= 1 << (i % 64);
        }
    }
    // Gates driving an inside net, in topological order: the rows of the
    // cone-gate bitsets.
    let mut inside_gates: Vec<GateId> = Vec::new();
    let mut inside_index = vec![u32::MAX; circuit.num_gates()];
    for gid in order {
        let gate = circuit.gate(gid);
        let out = gate.output.index();
        if circuit.driver(gate.output) != Some(gid) {
            continue;
        }
        let mut all_inside = true;
        for &input in &gate.inputs {
            all_inside &= inside[input.index()];
            for w in 0..words {
                let word = rows[input.index() * words + w];
                rows[out * words + w] |= word;
            }
        }
        inside[out] = all_inside;
        if all_inside {
            inside_index[gid.index()] = inside_gates.len() as u32;
            inside_gates.push(gid);
        }
    }

    let m = inside_gates.len();
    let mut cone = vec![0u32; m];
    for lo in (0..m).step_by(CONE_BLOCK_BITS) {
        let hi = (lo + CONE_BLOCK_BITS).min(m);
        let width = (hi - lo).div_ceil(64);
        // Rows of gates `lo..m` restricted to columns `lo..hi`; gates
        // before `lo` have no bit in this block.
        let mut bits = vec![0u64; (m - lo) * width];
        for i in lo..m {
            let (done, rest) = bits.split_at_mut((i - lo) * width);
            let row = &mut rest[..width];
            for &input in &circuit.gate(inside_gates[i]).inputs {
                let Some(driver) = circuit.driver(input) else {
                    continue;
                };
                let j = inside_index[driver.index()] as usize;
                if j >= lo {
                    let fanin = &done[(j - lo) * width..(j - lo + 1) * width];
                    for (word, &other) in row.iter_mut().zip(fanin) {
                        *word |= other;
                    }
                }
            }
            if i < hi {
                row[(i - lo) / 64] |= 1 << ((i - lo) % 64);
            }
            cone[i] += row.iter().map(|w| w.count_ones()).sum::<u32>();
        }
    }

    let mut cone_gates: Vec<Option<u32>> = inside.iter().map(|&i| i.then_some(0)).collect();
    for (i, gid) in inside_gates.into_iter().enumerate() {
        cone_gates[circuit.gate(gid).output.index()] = Some(cone[i]);
    }
    Ok(SubsetSupport {
        words,
        rows,
        cone_gates,
    })
}

/// A map from every net to the gates that consume it.
pub fn fanout_map(circuit: &Circuit) -> HashMap<NetId, Vec<GateId>> {
    let mut map: HashMap<NetId, Vec<GateId>> = HashMap::new();
    for (gid, gate) in circuit.gates() {
        for &input in &gate.inputs {
            map.entry(input).or_default().push(gid);
        }
    }
    map
}

/// The gates reachable going *forwards* from `start` (the transitive fan-out
/// cone of a net).
pub fn fanout_cone_gates(circuit: &Circuit, start: NetId) -> HashSet<GateId> {
    fanout_cone_gates_in(circuit, &fanout_map(circuit), start)
}

/// [`fanout_cone_gates`] over an already computed [`fanout_map`], so callers
/// traversing from many start nets (e.g. once per key input) build the map
/// once instead of once per traversal.
pub fn fanout_cone_gates_in(
    circuit: &Circuit,
    fanout: &HashMap<NetId, Vec<GateId>>,
    start: NetId,
) -> HashSet<GateId> {
    let mut cone = HashSet::new();
    let mut stack = vec![start];
    let mut seen_nets: HashSet<NetId> = HashSet::new();
    seen_nets.insert(start);
    while let Some(net) = stack.pop() {
        if let Some(consumers) = fanout.get(&net) {
            for &gid in consumers {
                if cone.insert(gid) {
                    let out = circuit.gate(gid).output;
                    if seen_nets.insert(out) {
                        stack.push(out);
                    }
                }
            }
        }
    }
    cone
}

/// The primary outputs reachable from `start` going forwards, in output
/// order. `start` itself counts if it is listed as an output.
pub fn outputs_reached_from(circuit: &Circuit, start: NetId) -> Vec<NetId> {
    let cone = fanout_cone_gates(circuit, start);
    let reached: HashSet<NetId> = cone
        .iter()
        .map(|&g| circuit.gate(g).output)
        .chain(std::iter::once(start))
        .collect();
    let mut result = Vec::new();
    for &o in circuit.outputs() {
        if reached.contains(&o) && !result.contains(&o) {
            result.push(o);
        }
    }
    result
}

/// Summary statistics of a circuit, used both for reporting (Table I) and as
/// the feature vector of the SCOPE-style constant-propagation analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CircuitStats {
    /// Number of primary inputs (key inputs included).
    pub inputs: usize,
    /// Number of key inputs.
    pub key_inputs: usize,
    /// Number of primary outputs.
    pub outputs: usize,
    /// Number of gates.
    pub gates: usize,
    /// Total number of gate input pins (literal count, area proxy).
    pub literals: usize,
    /// Longest input-to-output path length in gates (delay proxy).
    pub depth: usize,
}

/// Computes [`CircuitStats`] for a circuit.
///
/// # Errors
///
/// Returns an error if the circuit is cyclic (depth cannot be computed).
pub fn stats(circuit: &Circuit) -> Result<CircuitStats, NetlistError> {
    Ok(CircuitStats {
        inputs: circuit.num_inputs(),
        key_inputs: circuit.key_inputs().len(),
        outputs: circuit.num_outputs(),
        gates: circuit.num_gates(),
        literals: circuit.num_literals(),
        depth: depth(circuit)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GateType;

    /// Two-level circuit: o1 = (a AND b) OR c, o2 = NOT(a AND b).
    fn sample() -> Circuit {
        let mut c = Circuit::new("sample");
        let a = c.add_input("a").unwrap();
        let b = c.add_input("b").unwrap();
        let cc = c.add_input("c").unwrap();
        let ab = c.add_gate(GateType::And, "ab", &[a, b]).unwrap();
        let o1 = c.add_gate(GateType::Or, "o1", &[ab, cc]).unwrap();
        let o2 = c.add_gate(GateType::Not, "o2", &[ab]).unwrap();
        c.mark_output(o1);
        c.mark_output(o2);
        c
    }

    #[test]
    fn topological_order_respects_dependencies() {
        let c = sample();
        let order = topological_order(&c).unwrap();
        assert_eq!(order.len(), 3);
        let pos: HashMap<GateId, usize> = order.iter().enumerate().map(|(i, &g)| (g, i)).collect();
        for (gid, gate) in c.gates() {
            for &input in &gate.inputs {
                if let Some(driver) = c.driver(input) {
                    assert!(pos[&driver] < pos[&gid]);
                }
            }
        }
    }

    #[test]
    fn levels_and_depth() {
        let c = sample();
        let levels = logic_levels(&c).unwrap();
        let ab = c.find_net("ab").unwrap();
        let o1 = c.find_net("o1").unwrap();
        assert_eq!(levels[ab.index()], 1);
        assert_eq!(levels[o1.index()], 2);
        assert_eq!(depth(&c).unwrap(), 2);
    }

    #[test]
    fn fanin_cone_and_support() {
        let c = sample();
        let o2 = c.find_net("o2").unwrap();
        let cone = fanin_cone_gates(&c, &[o2]);
        assert_eq!(cone.len(), 2); // NOT and AND
        let sup = support(&c, &[o2]);
        let names: Vec<&str> = sup.iter().map(|&n| c.net_name(n)).collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn fanout_cone_and_reached_outputs() {
        let c = sample();
        let a = c.find_net("a").unwrap();
        let cc = c.find_net("c").unwrap();
        let from_a = fanout_cone_gates(&c, a);
        assert_eq!(from_a.len(), 3); // AND, OR, NOT
        let from_c = fanout_cone_gates(&c, cc);
        assert_eq!(from_c.len(), 1); // OR only
        let outs = outputs_reached_from(&c, cc);
        assert_eq!(outs.len(), 1);
        assert_eq!(c.net_name(outs[0]), "o1");
        let outs_a = outputs_reached_from(&c, a);
        assert_eq!(outs_a.len(), 2);
    }

    #[test]
    fn cycle_detection_reports_the_full_path() {
        // Build a three-gate cycle x -> y -> z -> x through the raw rewire
        // fixture hook (the construction API itself cannot create cycles).
        let mut c = Circuit::new("cyclic");
        let a = c.add_input("a").unwrap();
        let x = c.add_gate(GateType::And, "x", &[a, a]).unwrap();
        let y = c.add_gate(GateType::Buf, "y", &[x]).unwrap();
        let z = c.add_gate(GateType::Buf, "z", &[y]).unwrap();
        c.mark_output(z);
        assert!(topological_order(&c).is_ok());
        let x_gate = c.driver(x).unwrap();
        c.raw_set_gate_input(x_gate, 1, z);
        match topological_order(&c) {
            Err(NetlistError::CombinationalCycle(path)) => {
                // All three nets appear, in signal-flow order (cyclic
                // rotation of x -> y -> z).
                assert_eq!(path.len(), 3, "full path, not one net: {path:?}");
                let start = path.iter().position(|n| n == "x").unwrap();
                let rotated: Vec<&str> = (0..3).map(|i| path[(start + i) % 3].as_str()).collect();
                assert_eq!(rotated, vec!["x", "y", "z"]);
            }
            other => panic!("expected a cycle error, got {other:?}"),
        }
        // A gate feeding itself is the minimal cycle.
        let mut c = Circuit::new("self");
        let a = c.add_input("a").unwrap();
        let s = c.add_gate(GateType::And, "s", &[a, a]).unwrap();
        c.mark_output(s);
        let s_gate = c.driver(s).unwrap();
        c.raw_set_gate_input(s_gate, 0, s);
        match topological_order(&c) {
            Err(NetlistError::CombinationalCycle(path)) => {
                assert_eq!(path, vec!["s".to_string()]);
            }
            other => panic!("expected a cycle error, got {other:?}"),
        }
    }

    /// A random circuit with constant-only gates and floating (undriven)
    /// fan-ins, plus a random subset of its primary inputs.
    fn random_circuit_with_subset(seed: u64) -> (Circuit, Vec<NetId>) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut c = Circuit::new(format!("rand{seed}"));
        let n_inputs = rng.gen_range(1..8usize);
        let inputs: Vec<NetId> = (0..n_inputs)
            .map(|i| c.add_input(format!("i{i}")).unwrap())
            .collect();
        let mut nets = inputs.clone();
        for f in 0..rng.gen_range(0..3usize) {
            nets.push(c.raw_add_undriven_net(format!("float{f}")).unwrap());
        }
        for g in 0..rng.gen_range(1..40usize) {
            let ty = GateType::ALL[rng.gen_range(0..GateType::ALL.len())];
            let arity = match ty {
                GateType::Const0 | GateType::Const1 => 0,
                GateType::Not | GateType::Buf => 1,
                _ => rng.gen_range(1..5usize),
            };
            let ins: Vec<NetId> = (0..arity)
                .map(|_| nets[rng.gen_range(0..nets.len())])
                .collect();
            nets.push(c.add_gate(ty, format!("g{g}"), &ins).unwrap());
        }
        let subset = inputs.into_iter().filter(|_| rng.gen_bool(0.6)).collect();
        (c, subset)
    }

    proptest::proptest! {
        /// Every net's subset support and cone size equal the per-net
        /// [`support`] and [`fanin_cone_gates`] walks.
        #[test]
        fn prop_subset_support_matches_per_net_walks(seed in 0u64..300) {
            let (c, subset) = random_circuit_with_subset(seed);
            let sets = subset_support(&c, &subset).unwrap();
            for net in c.nets() {
                let sup = support(&c, &[net]);
                let inside = sup.iter().all(|n| subset.contains(n));
                proptest::prop_assert_eq!(sets.is_inside(net), inside);
                let positions: Vec<usize> = (0..subset.len())
                    .filter(|&i| sup.contains(&subset[i]))
                    .collect();
                proptest::prop_assert_eq!(sets.support_positions(net).collect::<Vec<_>>(), positions.clone());
                proptest::prop_assert_eq!(sets.support_len(net), positions.len());
                let cone = inside.then(|| fanin_cone_gates(&c, &[net]).len());
                proptest::prop_assert_eq!(sets.cone_size(net), cone);
            }
        }
    }

    #[test]
    fn subset_support_cone_sizes_span_several_column_blocks() {
        // A chain longer than one cone block: gate `i` has `i + 1` gates in
        // its cone, and a gate fed by a non-subset input is outside.
        let mut c = Circuit::new("chain");
        let a = c.add_input("a").unwrap();
        let b = c.add_input("b").unwrap();
        let mut prev = a;
        let mut chain = Vec::new();
        for i in 0..CONE_BLOCK_BITS + 300 {
            prev = c
                .add_gate(GateType::And, format!("g{i}"), &[prev, a])
                .unwrap();
            chain.push(prev);
        }
        let mixed = c.add_gate(GateType::Or, "mixed", &[prev, b]).unwrap();
        let sets = subset_support(&c, &[a]).unwrap();
        for (i, &net) in chain.iter().enumerate() {
            assert_eq!(sets.cone_size(net), Some(i + 1));
            assert_eq!(sets.support_len(net), 1);
        }
        assert!(!sets.is_inside(mixed));
        assert_eq!(sets.cone_size(mixed), None);
        assert_eq!(sets.support_len(mixed), 1);
    }

    #[test]
    fn subset_support_reports_a_cycle_as_a_typed_error() {
        let mut c = Circuit::new("cyclic");
        let a = c.add_input("a").unwrap();
        let x = c.add_gate(GateType::And, "x", &[a, a]).unwrap();
        let y = c.add_gate(GateType::Buf, "y", &[x]).unwrap();
        c.mark_output(y);
        let x_gate = c.driver(x).unwrap();
        c.raw_set_gate_input(x_gate, 1, y);
        assert!(matches!(
            subset_support(&c, &[a]),
            Err(NetlistError::CombinationalCycle(_))
        ));
    }

    #[test]
    fn stats_cover_interface_and_structure() {
        let c = sample();
        let s = stats(&c).unwrap();
        assert_eq!(s.inputs, 3);
        assert_eq!(s.outputs, 2);
        assert_eq!(s.gates, 3);
        assert_eq!(s.literals, 5);
        assert_eq!(s.depth, 2);
        assert_eq!(s.key_inputs, 0);
    }
}
