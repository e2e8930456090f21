//! The three workloads: which hosts, which scheme specs, which verdict
//! each scheme must reach, and how the workload seed reaches every
//! generated input. The library only ever sees the circuits and specs
//! built here.

use kratt_attacks::{AttackError, Budget, CampaignHost, PrepareHook};
use kratt_benchmarks::{table1_circuits, ItcCircuit, Table1Row};
use kratt_locking::{LockedCircuit, SchemeSpec};
use kratt_synth::{resynthesize, Effort, ResynthesisOptions};
use std::sync::Arc;
use std::time::Duration;

/// Gate-count scale of the Table-I hosts (c6288 is always the full 16x16
/// multiplier).
pub const HOST_SCALE: f64 = 0.05;

/// Gate-count scale of the b14_C host the SAT workload locks with RLL.
/// At 0.25 one RLL cell takes 11 to 30 s depending on the seed, which no
/// run of this length can average out; at 0.1 a cell takes about 0.9 s
/// and [`RLL_CELLS`] of them keep the conflict-heavy share of the workload.
pub const B14_RLL_SCALE: f64 = 0.1;

/// Independently seeded RLL instances on the b14_C host.
pub const RLL_CELLS: usize = 4;

/// Input draws a `--trace 0` run scores: independently seeded instances
/// of the workload's cell set. How long a cell takes depends on its planted
/// key and resynthesised shape, so a figure over one draw moves with the
/// seed; over several it moves much less. The run times further draws
/// while time remains, but solve rate and key accuracy are over these, so
/// they do not depend on how many fit.
pub const DRAWS: usize = 4;

/// `ol-qbf` hosts without a CAS-Lock cell. On these the QBF step of CAS-Lock
/// ends on the BDD fast path for some planted keys (0.04–1.5 s) and takes
/// 70–404 CEGAR iterations (2–4.2 s) for others, so with them the CAS-Lock
/// cells cost 4.7 to 11.5 s of worker time across seeds and `wall_s`
/// spread 31% over ten seeds. Two independently seeded instances per host
/// still spread 9.3 to 14.5 s and made `cell_p90_s` land on however many
/// cells took CEGAR. On the other hosts the path does not depend on the
/// key: c6288 and b14_C always take the BDD, b15_C always takes CEGAR.
pub const CASLOCK_KEY_DEPENDENT: [&str; 3] = ["c2670", "c5315", "b20_C"];

/// The per-cell attack budget: far above every measured cell.
pub fn cell_budget() -> Budget {
    Budget {
        time_limit: Some(Duration::from_secs(60)),
        max_iterations: 10_000,
        ..Budget::default()
    }
}

/// Which attack a workload runs and under which threat model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// OG KRATT through `Campaign::run_observed`, one worker.
    OgKratt,
    /// OL KRATT through `Harness::run_matrix_scheduled`, prebuilt corpus.
    OlKratt,
    /// The SAT attack through `Campaign::run_observed`, one worker.
    OgSat,
}

/// A workload by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// The `--workload` name.
    pub name: &'static str,
    /// Attack and the entry point that runs it.
    pub kind: Kind,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "og-structural",
        kind: Kind::OgKratt,
    },
    Workload {
        name: "ol-qbf",
        kind: Kind::OlKratt,
    },
    Workload {
        name: "og-sat-cegar",
        kind: Kind::OgSat,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The registry name of the attack every cell runs.
    pub fn attack(self) -> &'static str {
        match self.kind {
            Kind::OgKratt | Kind::OlKratt => "kratt",
            Kind::OgSat => "sat",
        }
    }

    /// Worker threads: 1 on the closed-loop OG workloads, `min(2, nproc)`
    /// on `ol-qbf`.
    pub fn workers(self, nproc: usize) -> usize {
        match self.kind {
            Kind::OlKratt => nproc.clamp(1, 2),
            Kind::OgKratt | Kind::OgSat => 1,
        }
    }
}

/// The verdict a cell of a scheme must reach. A cell below it is a
/// self-check failure, so a lost solve does not hide behind a ratio bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// The attack breaks the scheme: the claimed key must verify.
    Verified,
    /// The attack gives a partial guess (scored by CDK); a verified key is
    /// an improvement.
    Guess,
    /// The known defect: OG KRATT claims an exact key on SFLL-HD and the
    /// verifier refutes it on most seeds. Any verdict is accepted.
    KnownDefect,
}

/// The verdict `kind` must reach on a cell locked with `scheme`.
pub fn expect(kind: Kind, scheme: &str) -> Expect {
    match (kind, scheme) {
        (Kind::OgSat, _) => Expect::Verified,
        (Kind::OgKratt, "sfll-hd") => Expect::KnownDefect,
        (Kind::OgKratt, _) => Expect::Verified,
        (Kind::OlKratt, "sarlock" | "antisat" | "caslock" | "genantisat") => Expect::Verified,
        (Kind::OlKratt, _) => Expect::Guess,
    }
}

/// One (host, spec) case of a workload.
#[derive(Debug, Clone)]
pub struct CaseSpec {
    /// Index into the generated host list.
    pub host: usize,
    /// The spec with its key width and seed resolved.
    pub spec: SchemeSpec,
}

/// One campaign of an OG workload: hosts (indices) crossed with specs.
#[derive(Debug, Clone)]
pub struct Group {
    /// Indices into the host list.
    pub hosts: Vec<usize>,
    /// Seeded specs; width-less ones take each host's default width.
    pub specs: Vec<SchemeSpec>,
}

/// The generated inputs of one workload under one seed.
pub struct Inputs {
    /// The seed every spec and resynthesis seed derives from.
    pub seed: u64,
    /// Host circuits (a host appears once per default key width).
    pub hosts: Vec<CampaignHost>,
    /// The campaigns of an OG workload, run one after another.
    pub groups: Vec<Group>,
    /// Every case, in job order (group by group, host-major).
    pub cases: Vec<CaseSpec>,
}

/// SplitMix64 finaliser: the one mixing step every derived seed uses.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seed of input draw `draw` of a run on `seed`. Draw 0 is the seed
/// itself, so a traced run (one draw) sees the first draw's inputs.
pub fn draw_seed(seed: u64, draw: usize) -> u64 {
    seed.wrapping_add((draw as u64) << 32)
}

/// A spec with a `seed=` derived from the workload seed and a label.
fn seeded(seed: u64, label: &str, text: &str) -> SchemeSpec {
    let hash = label.bytes().fold(0xcbf2_9ce4_8422_2325u64, |acc, byte| {
        (acc ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    });
    let spec: SchemeSpec = text.parse().expect("workload specs are valid");
    // Never 0: `seed=0` is the scheme grammar's "no seed" default.
    spec.with_param("seed", (mix(seed ^ hash) & 0xffff_ffff) | 1)
}

/// The Table-I host by name at [`HOST_SCALE`], under a label and a
/// default key width.
fn host(rows: &[Table1Row], name: &str, label: &str, width: usize) -> CampaignHost {
    let row = rows
        .iter()
        .find(|row| row.name == name)
        .expect("Table-I host exists");
    CampaignHost::new(label, row.circuit.clone(), width)
}

/// Generates the hosts and specs of a workload (the host-generation part
/// of set-up).
pub fn generate(workload: Workload, seed: u64) -> Inputs {
    let rows = table1_circuits(HOST_SCALE);
    let specs = |texts: &[&str]| -> Vec<SchemeSpec> {
        texts.iter().map(|text| seeded(seed, text, text)).collect()
    };
    match workload.kind {
        Kind::OgKratt => og_inputs(
            seed,
            vec![
                host(&rows, "c2670", "c2670", 32),
                host(&rows, "c5315", "c5315", 32),
                host(&rows, "c6288", "c6288-k16", 16),
            ],
            vec![Group {
                hosts: vec![0, 1, 2],
                specs: specs(&["cac", "ttlock", "sfll-hd"]),
            }],
        ),
        Kind::OgSat => {
            let b14 = ItcCircuit::B14C.generate_scaled(B14_RLL_SCALE);
            let b14_width = rows
                .iter()
                .find(|row| row.name == "b14_C")
                .expect("b14_C is a Table-I host")
                .key_bits;
            og_inputs(
                seed,
                vec![
                    host(&rows, "c2670", "c2670", 64),
                    host(&rows, "b20_C", "b20_C", 128),
                    CampaignHost::new(format!("b14_C@{B14_RLL_SCALE}"), b14, b14_width),
                ],
                vec![
                    Group {
                        hosts: vec![0, 1],
                        specs: specs(&["sarlock:k=10", "antisat:k=12"]),
                    },
                    Group {
                        hosts: vec![2],
                        specs: (0..RLL_CELLS)
                            .map(|i| seeded(seed, &format!("rll#{i}"), "rll"))
                            .collect(),
                    },
                ],
            )
        }
        Kind::OlKratt => {
            // Scheme-major, costliest first: the scheduler deals jobs in
            // order, so the CEGAR-bound CAS-Lock cells (up to 4 s) start at
            // once and the millisecond cells fill the tail.
            let schemes = [
                "caslock",
                "sfll-hd",
                "sarlock",
                "antisat",
                "genantisat",
                "cac",
                "ttlock",
            ];
            // Table-I widths on the ISCAS hosts, k=64 on the ITC hosts.
            let hosts: Vec<CampaignHost> = rows
                .iter()
                .map(|row| {
                    let width = if row.name.starts_with('b') {
                        64
                    } else {
                        row.key_bits
                    };
                    CampaignHost::new(row.name, row.circuit.clone(), width)
                })
                .collect();
            let mut cases = Vec::new();
            for text in schemes {
                for (index, host) in hosts.iter().enumerate() {
                    if text == "caslock" && CASLOCK_KEY_DEPENDENT.contains(&host.name.as_str()) {
                        continue;
                    }
                    let spec = seeded(seed, &format!("{}/{text}", host.name), text)
                        .or_key_bits(host.default_key_bits);
                    cases.push(CaseSpec { host: index, spec });
                }
            }
            Inputs {
                seed,
                hosts,
                groups: Vec::new(),
                cases,
            }
        }
    }
}

/// An OG workload's inputs: the cases are each campaign's job order
/// (host-major, then spec), campaign after campaign.
fn og_inputs(seed: u64, hosts: Vec<CampaignHost>, groups: Vec<Group>) -> Inputs {
    let cases = groups
        .iter()
        .flat_map(|group| {
            group.hosts.iter().flat_map(|&index| {
                group.specs.iter().map(move |spec| CaseSpec {
                    host: index,
                    spec: spec.clone(),
                })
            })
        })
        .map(|mut case| {
            case.spec = case.spec.or_key_bits(hosts[case.host].default_key_bits);
            case
        })
        .collect();
    Inputs {
        seed,
        hosts,
        groups,
        cases,
    }
}

/// The `table3`-style resynthesis prepare hook, seeded from the planted
/// secret and the workload seed, so every instance takes a distinct,
/// reproducible netlist shape.
pub fn resynthesis(seed: u64) -> (String, PrepareHook) {
    let hook: PrepareHook =
        Arc::new(move |locked: LockedCircuit| resynthesize_locked(locked, seed));
    (format!("perfbench-resynth-{seed}"), hook)
}

/// Resynthesises one locked instance (medium effort, as `table3` does).
pub fn resynthesize_locked(
    mut locked: LockedCircuit,
    seed: u64,
) -> Result<LockedCircuit, AttackError> {
    let secret_hash = locked
        .secret
        .bits()
        .iter()
        .fold(0x5eedu64, |acc, &bit| acc << 1 ^ acc >> 61 ^ u64::from(bit));
    let options =
        ResynthesisOptions::with_seed(mix(secret_hash ^ mix(seed))).effort(Effort::Medium);
    locked.circuit = resynthesize(&locked.circuit, &options)
        .map_err(|e| AttackError::Other(format!("resynthesis failed: {e}")))?;
    Ok(locked)
}
