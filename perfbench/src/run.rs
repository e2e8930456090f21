//! Rounds: one round runs every cell of a workload once, through the
//! same entry point a user calls, and scores every verdict against the
//! planted secret.
//!
//! * [`Driver::Campaign`] rounds (the OG workloads) go through
//!   `Campaign::run_observed`.
//! * [`Driver::Harness`] rounds go through `Harness::run_matrix_scheduled`
//!   with the registry's attack: over a corpus locked and resynthesised
//!   during set-up on `ol-qbf`, and with lock, resynthesis and lint as
//!   separately timed calls inside each job on the OG workloads (the
//!   campaign runs them all inside one call). Traced harness rounds record
//!   one span per layer and cell.

use crate::trace::{self, timed};
use crate::verify::{equivalent_with_stats, FraigCounts};
use crate::workloads::{cell_budget, resynthesis, resynthesize_locked, Inputs, Workload};
use kratt_attacks::{
    campaign::equivalent_to, key_input_names, score_guess, AttackOutcome, AttackRun, Campaign,
    CorpusCache, Deadline, FnCaseSource, Harness, MatrixCase, MatrixRow, ScheduleOptions, Verdict,
};
use kratt_lint::lint_locked;
use kratt_locking::{scheme_registry, LockedCircuit};
use kratt_netlist::Circuit;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// One scored cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// `host/spec`.
    pub name: String,
    /// Outcome kind (`exact-key`, `partial-guess`, `out-of-budget`), or
    /// `-` when the cell errored.
    pub outcome: String,
    /// The verification verdict.
    pub verdict: Verdict,
    /// The claimed exact key, width-preserving hex.
    pub key: Option<String>,
    /// Correctly deciphered key bits (verified keys count in full).
    pub cdk: usize,
    /// Key width of the instance.
    pub key_bits: usize,
    /// Attack iterations: DIPs for the SAT attack, QBF CEGAR iterations
    /// for KRATT.
    pub iterations: usize,
    /// Oracle queries: the DIP loop's for the SAT attack, structural
    /// analysis's for OG KRATT.
    pub oracle_queries: u64,
    /// The error, when the cell did not produce a run.
    pub error: Option<String>,
    /// Worker index.
    pub worker: usize,
    /// Harness telemetry: time from the matrix start to the job's pickup.
    pub queue_wait: Duration,
    /// When the verdict committed.
    pub commit: Instant,
}

impl Cell {
    /// A refuted, unverified or errored cell. Out-of-budget cells are
    /// unsolved, not failed.
    pub fn failed(&self) -> bool {
        matches!(
            self.verdict,
            Verdict::Refuted | Verdict::Unverified | Verdict::Error
        )
    }

    /// The deterministic part of the cell the self-checks compare.
    pub fn signature(&self) -> (String, String, Verdict, Option<String>, usize, usize, u64) {
        (
            self.name.clone(),
            self.outcome.clone(),
            self.verdict,
            self.key.clone(),
            self.cdk,
            self.iterations,
            self.oracle_queries,
        )
    }
}

/// One round of a workload.
pub struct Round {
    /// Cells in job order.
    pub cells: Vec<Cell>,
    /// When the first job could start.
    pub start: Instant,
    /// The last verdict.
    pub end: Instant,
    /// Scheduler steals.
    pub steals: usize,
    /// Worker threads.
    pub workers: usize,
    /// The locked instances the round attacked (harness rounds only).
    pub locked: Vec<Option<LockedCircuit>>,
}

impl Round {
    /// From the first job start to the last verdict.
    pub fn wall_secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// An instance of the OL corpus, locked and resynthesised before timing.
pub struct Prepared {
    /// The locked instance with its planted secret.
    pub locked: LockedCircuit,
    /// The case handed to the harness (oracle-less).
    pub case: MatrixCase,
}

/// Case display name.
fn case_name(inputs: &Inputs, index: usize) -> String {
    let case = &inputs.cases[index];
    format!("{}/{}", inputs.hosts[case.host].name, case.spec)
}

/// Locks, resynthesises and lints one case: the corpus step, one span per
/// call.
fn lock_case(inputs: &Inputs, index: usize) -> Result<LockedCircuit, kratt_attacks::AttackError> {
    let case = &inputs.cases[index];
    let host = &inputs.hosts[case.host];
    let locked = timed(index, "locking.lock", || {
        scheme_registry().lock(&case.spec, &host.circuit)
    })?;
    let locked = timed(index, "synth.resynth", || {
        resynthesize_locked(locked, inputs.seed)
    })?;
    timed(index, "lint.lint", || {
        lint_locked(&host.circuit, &locked.circuit)
    });
    Ok(locked)
}

/// Builds the OL corpus (part of `ol-qbf` set-up).
pub fn build_corpus(inputs: &Inputs) -> Result<Vec<Prepared>, kratt_attacks::AttackError> {
    (0..inputs.cases.len())
        .map(|index| {
            let locked = lock_case(inputs, index)?;
            let case = MatrixCase {
                name: case_name(inputs, index),
                locked: Arc::new(locked.circuit.clone()),
                oracle: None,
            };
            Ok(Prepared { locked, case })
        })
        .collect()
}

/// How a round drives its cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// `Campaign::run_observed`, one campaign per group (OG workloads).
    Campaign,
    /// `Harness::run_matrix_scheduled`; `traced` records layer spans.
    Harness {
        /// Whether the round records spans.
        traced: bool,
    },
}

/// Runs one round.
///
/// # Errors
///
/// Returns a message when the campaign cannot be built or run.
pub fn round(
    workload: Workload,
    inputs: &Inputs,
    corpus: &[Prepared],
    workers: usize,
    driver: Driver,
) -> Result<Round, String> {
    match driver {
        Driver::Campaign => campaign_round(workload, inputs),
        Driver::Harness { traced } => {
            trace::set_enabled(traced);
            let round = harness_round(workload, inputs, corpus, workers, traced);
            trace::set_enabled(false);
            Ok(round)
        }
    }
}

/// An OG campaign round: each group is one `Campaign::run_observed` call
/// on one worker, with a fresh corpus cache so every cell locks.
fn campaign_round(workload: Workload, inputs: &Inputs) -> Result<Round, String> {
    let attacks = kratt::attack_registry();
    let schemes = scheme_registry();
    let commits: Mutex<Vec<(String, Instant)>> = Mutex::new(Vec::new());
    let mut cells = Vec::with_capacity(inputs.cases.len());
    let start = Instant::now();
    for group in &inputs.groups {
        let (tag, hook) = resynthesis(inputs.seed);
        let campaign = Campaign::builder()
            .specs(group.specs.iter().cloned())
            .hosts(group.hosts.iter().map(|&index| inputs.hosts[index].clone()))
            .attacks([workload.attack()])
            .budget(cell_budget())
            .workers(1)
            .prepare(tag, hook)
            .build()
            .map_err(|e| format!("campaign: {e}"))?;
        let report = campaign
            .run_observed(&attacks, &schemes, &CorpusCache::new(), &|cell| {
                let name = format!("{}/{}", cell.host, cell.scheme);
                commits
                    .lock()
                    .expect("commit log")
                    .push((name, Instant::now()));
            })
            .map_err(|e| format!("campaign: {e}"))?;
        for cell in report.cells {
            let index = cells.len();
            let name = case_name(inputs, index);
            if name != format!("{}/{}", cell.host, cell.scheme) {
                return Err(format!(
                    "campaign cell {index} is {}/{}, expected {name}",
                    cell.host, cell.scheme
                ));
            }
            let commit = commits
                .lock()
                .expect("commit log")
                .iter()
                .find(|(committed, _)| *committed == name)
                .map(|(_, at)| *at)
                .ok_or_else(|| format!("cell {name} never committed"))?;
            cells.push(Cell {
                name,
                outcome: cell.outcome.unwrap_or("-").to_string(),
                verdict: cell.verdict,
                key: cell.key,
                cdk: cell.cdk,
                key_bits: inputs.cases[index].spec.key_bits().unwrap_or(0),
                iterations: cell.iterations,
                oracle_queries: cell.oracle_queries,
                error: cell.error,
                worker: cell.telemetry.worker,
                queue_wait: cell.telemetry.queue_wait,
                commit,
            });
        }
    }
    let end = cells.iter().map(|c| c.commit).max().unwrap_or(start);
    Ok(Round {
        cells,
        start,
        end,
        steals: 0,
        workers: 1,
        locked: Vec::new(),
    })
}

/// A harness round with the registry's attack: over the prebuilt corpus
/// on `ol-qbf`, and locking each case inside its job on the OG workloads.
fn harness_round(
    workload: Workload,
    inputs: &Inputs,
    corpus: &[Prepared],
    workers: usize,
    traced: bool,
) -> Round {
    let attack = kratt::attack_registry()
        .build(workload.attack())
        .expect("the workload's attack is registered");
    let attacks = [attack];
    let total = inputs.cases.len();
    // Instances locked inside their jobs (OG workloads).
    let locked: Vec<OnceLock<LockedCircuit>> = (0..total).map(|_| OnceLock::new()).collect();
    let names: Vec<String> = (0..total).map(|i| case_name(inputs, i)).collect();
    let source = FnCaseSource::new(names.clone(), |index| {
        if let Some(prepared) = corpus.get(index) {
            return Ok(prepared.case.clone());
        }
        let instance = lock_case(inputs, index)?;
        let case = MatrixCase::oracle_guided_shared(
            names[index].clone(),
            Arc::new(instance.circuit.clone()),
            Arc::clone(&inputs.hosts[inputs.cases[index].host].circuit),
        );
        let _ = locked[index].set(instance);
        Ok(case)
    });
    let scored: Mutex<Vec<Option<Cell>>> = Mutex::new(vec![None; total]);
    let on_row = |job: usize, row: &MatrixRow| {
        let case = &inputs.cases[job];
        let cell = score(
            job,
            names[job].clone(),
            row,
            corpus.get(job).map(|p| &p.locked).or(locked[job].get()),
            &inputs.hosts[case.host].circuit,
            case.spec.key_bits().unwrap_or(0),
            traced,
        );
        scored.lock().expect("cell slots")[job] = Some(cell);
    };
    let options = ScheduleOptions {
        deadline: Deadline::started(None),
        include: None,
        on_row: Some(&on_row),
        halt_after: None,
    };
    let start = Instant::now();
    let report = Harness::with_workers(workers).run_matrix_scheduled(
        &attacks,
        &source,
        &cell_budget(),
        &options,
    );
    let cells: Vec<Cell> = scored
        .into_inner()
        .expect("cell slots")
        .into_iter()
        .map(|cell| cell.expect("every job commits: no deadline, no halt"))
        .collect();
    let end = cells.iter().map(|c| c.commit).max().unwrap_or(start);
    Round {
        cells,
        start,
        end,
        steals: report.stats.steals,
        workers: report.stats.workers,
        locked: locked.into_iter().map(OnceLock::into_inner).collect(),
    }
}

/// Scores a matrix row against the planted secret and verifies every exact
/// claim against the host, the way the campaign does.
fn score(
    index: usize,
    name: String,
    row: &MatrixRow,
    locked: Option<&LockedCircuit>,
    host: &Circuit,
    key_bits: usize,
    traced: bool,
) -> Cell {
    let mut cell = Cell {
        name,
        outcome: "-".to_string(),
        verdict: Verdict::Error,
        key: None,
        cdk: 0,
        key_bits,
        iterations: 0,
        oracle_queries: 0,
        error: None,
        worker: row.telemetry.worker,
        queue_wait: row.telemetry.queue_wait,
        commit: Instant::now(),
    };
    let run = match &row.result {
        Ok(run) => run,
        Err(error) => {
            cell.error = Some(error.to_string());
            return cell;
        }
    };
    let locked = locked.expect("a job only runs once its case is locked");
    if traced {
        record_attack(index, run);
    }
    cell.outcome = run.outcome.kind().to_string();
    cell.iterations = run.iterations;
    cell.oracle_queries = run.oracle_queries;
    let guess = run.outcome.as_guess(&key_input_names(&locked.circuit));
    let (cdk, dk) = score_guess(locked, &guess);
    cell.cdk = cdk;
    let mut fraig = FraigCounts::default();
    let mut check = |candidate: &Circuit| {
        if traced {
            equivalent_with_stats(host, candidate, &mut fraig)
        } else {
            equivalent_to(host, candidate).map_err(|e| e.to_string())
        }
    };
    let start = Instant::now();
    cell.verdict = match &run.outcome {
        AttackOutcome::ExactKey(key) => {
            cell.key = Some(key.to_hex());
            match locked.apply_key(key) {
                Ok(unlocked) => verdict_of(check(&unlocked), &mut cell.error),
                Err(e) => {
                    cell.error = Some(format!("claimed key is unusable: {e}"));
                    Verdict::Refuted
                }
            }
        }
        AttackOutcome::RecoveredCircuit(recovered) => verdict_of(check(recovered), &mut cell.error),
        AttackOutcome::PartialGuess(_) | AttackOutcome::OutOfBudget => Verdict::NotClaimed,
    };
    if cell.verdict != Verdict::NotClaimed {
        trace::record(
            index,
            "synth.verify",
            start.elapsed().as_secs_f64(),
            &[
                ("fraig_sat_calls", fraig.sat_calls),
                ("fraig_merges", fraig.merges),
                ("fraig_aig_nodes", fraig.aig_nodes),
            ],
        );
    }
    if cell.verdict == Verdict::Verified {
        cell.cdk = dk;
    }
    cell.commit = Instant::now();
    cell
}

/// Records the attack's share of a traced cell from the run's own report:
/// the SAT attack as one span with its DIP and query counts; KRATT's steps
/// (`AttackRun::steps`, timed by the library) as one span each, with the
/// rest of its runtime as the attack's self time. A step name not mapped
/// here stays in that self time.
fn record_attack(index: usize, run: &AttackRun) {
    let runtime = run.runtime.as_secs_f64();
    if run.attack != "kratt" {
        trace::record(
            index,
            "attacks.sat_attack",
            runtime,
            &[
                ("dips", run.iterations as u64),
                ("queries", run.oracle_queries),
            ],
        );
        return;
    }
    let classified = run
        .steps
        .iter()
        .any(|s| s.name.starts_with("classification"));
    let decided = !classified && matches!(run.outcome, AttackOutcome::ExactKey(_));
    let mut rest = runtime;
    for step in &run.steps {
        let (name, counts): (&'static str, Vec<(&'static str, u64)>) = match step.name.as_str() {
            "logic-removal" => ("core.removal", Vec::new()),
            "qbf" => (
                "core.qbf",
                vec![
                    ("cegar_iters", run.iterations as u64),
                    ("decided", u64::from(decided)),
                ],
            ),
            "classification" | "classification+extraction" => ("core.classify", Vec::new()),
            "structural-analysis" => ("core.structural", vec![("queries", run.oracle_queries)]),
            "circuit-modification+scope" => ("core.ol_scope", Vec::new()),
            _ => continue,
        };
        let secs = step.duration.as_secs_f64();
        rest -= secs;
        trace::record(index, name, secs, &counts);
    }
    trace::record(index, "attacks.kratt", rest.max(0.0), &[]);
}

/// Maps an equivalence result onto a verdict.
fn verdict_of(result: Result<bool, String>, error: &mut Option<String>) -> Verdict {
    match result {
        Ok(true) => Verdict::Verified,
        Ok(false) => Verdict::Refuted,
        Err(e) => {
            *error = Some(format!("verification inconclusive: {e}"));
            Verdict::Unverified
        }
    }
}
