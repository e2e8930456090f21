//! End-to-end attack benchmark of the KRATT suite.
//!
//! ```text
//! kratt-perfbench --workload <og-structural|ol-qbf|og-sat-cegar>
//!                 --seed <n|default|heldout> --seconds <s> --trace <0|1>
//! ```
//!
//! One process, one workload. Inputs come in draws: independently seeded
//! instances of the workload's cell set, derived from `--seed` (draw 0
//! from the seed itself). With `--trace 0`, round 0 runs draw 0 and round
//! 1 runs it again, compared cell by cell; every later round runs a new
//! draw. The first [`DRAWS`] draws are required and are what solve rate and
//! key accuracy score; after them rounds go on while the next fits in
//! `--seconds`. Timings are taken over each draw's first round, every draw
//! weighing the same: a repeat mostly runs faster than a first run on the
//! same instances, and a user's campaign attacks each instance once. With
//! `--trace 1` the run holds draw 0 only: one such round is followed by an
//! untraced harness round (the baseline of `trace.overhead_s`), then by
//! traced harness rounds, and the per-layer metrics are printed.
//!
//! Set-up (host generation, plus the locked and resynthesised corpus on
//! `ol-qbf`) runs before the first round and is repeated after every round
//! (see [`SETUP_SLICE_SECS`]), building the next draw when it is new, so
//! its samples spread over the whole run; `setup_s` is their median. The
//! last stdout line is the result object; the lines before it are one
//! record per cell of each draw's first round (and of the first traced
//! round) and a report line with the run's configuration, every end-to-end
//! figure and the failing cells.
//!
//! Refuses to run when any `KRATT_*` environment variable is set: library
//! crates read several of them deep inside, and each would silently change
//! the program being measured.

mod run;
mod trace;
mod verify;
mod workloads;

use kratt_attacks::{measure_dip_encoding, DipEngineKind, Oracle, Verdict};
use kratt_netlist::Aig;
use run::{build_corpus, Driver, Prepared, Round};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use trace::{total_count, total_secs, Span};
use workloads::{draw_seed, expect, generate, Expect, Inputs, Kind, Workload, DRAWS, WORKLOADS};

/// The seed the benchmark is tuned on.
const DEFAULT_SEED: u64 = 1;

/// The held-out seed: a claim tuned on other seeds is checked on it.
const HELDOUT_SEED: u64 = 0x5eed_0ff5;

/// After every round, set-up repeats until this much time has passed (at
/// least once).
const SETUP_SLICE_SECS: f64 = 0.25;

/// What a round of the run is for.
#[derive(Clone, Copy)]
enum Phase {
    /// Through the workload's own driver, untraced: the timed rounds.
    Reference,
    /// Through the harness, untraced: the baseline of `trace.overhead_s`.
    Baseline,
    /// Through the harness, traced: the per-layer metrics.
    Traced,
}

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(&value).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{value}` (one of {})", names.join(", "))
                })?)
            }
            "--seed" => {
                seed = match value.as_str() {
                    "default" => DEFAULT_SEED,
                    "heldout" => HELDOUT_SEED,
                    n => n.parse().map_err(|_| format!("bad --seed `{n}`"))?,
                }
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds `{value}`"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got `{other}`")),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(name, _)| name.into_string().ok())
        .filter(|name| name.starts_with("KRATT_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!(
            "refusing to run: {} set; the library reads KRATT_* variables internally, \
             so the measured program would not be the default one",
            knobs.join(", ")
        );
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("kratt-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("kratt-perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Median of a non-empty sample (mean of the middle pair when even).
fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolation quantile of a sample; 0 for an empty one.
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let position = q * (sorted.len() - 1) as f64;
    let low = position.floor() as usize;
    let high = position.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (position - low as f64)
}

/// Resets the peak resident set size to the current one (Linux
/// `clear_refs` 5), so the next [`peak_rss_mb`] is the peak of what ran in
/// between. Without it the peak is the process's.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// CPU time the hypervisor gave to other guests while this machine wanted
/// to run (the `steal` column of `/proc/stat`), in seconds; 0 where the
/// kernel does not report it. A round's share of it is CPU time the round
/// waited for that no change to the program can win back.
fn steal_secs() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            stat.lines()
                .find(|line| line.starts_with("cpu "))
                .and_then(|line| line.split_whitespace().nth(8))
                .and_then(|ticks| ticks.parse::<f64>().ok())
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Time to verdict of every cell of a round (indexed like its cells): the
/// gap between consecutive commits on one worker, the first from the
/// round start.
fn cell_secs(round: &Round) -> Vec<f64> {
    let mut order: Vec<usize> = (0..round.cells.len()).collect();
    order.sort_by_key(|&i| round.cells[i].commit);
    let mut last: BTreeMap<usize, Instant> = BTreeMap::new();
    let mut secs = vec![0.0; round.cells.len()];
    for i in order {
        let cell = &round.cells[i];
        let start = last.insert(cell.worker, cell.commit).unwrap_or(round.start);
        secs[i] = (cell.commit - start).as_secs_f64();
    }
    secs
}

/// Compares two rounds cell by cell; returns the first difference.
fn compare(what: &str, a: &Round, b: &Round) -> Result<(), String> {
    if a.cells.len() != b.cells.len() {
        return Err(format!(
            "{what}: {} vs {} cells",
            a.cells.len(),
            b.cells.len()
        ));
    }
    for (x, y) in a.cells.iter().zip(&b.cells) {
        if x.signature() != y.signature() {
            return Err(format!(
                "{what}: cell {} differs: {:?} vs {:?}",
                x.name,
                x.signature(),
                y.signature()
            ));
        }
    }
    Ok(())
}

/// JSON string literal.
fn json_str(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A `{"name": {"value": v, "unit": u}, ...}` object.
fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(
                "{}:{{\"value\":{value},\"unit\":{}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// One stdout record per cell, with its deterministic work counts.
fn print_cells(mode: &str, draw: usize, workload: Workload, round: &Round, spans: Option<&[Span]>) {
    let secs = cell_secs(round);
    let iterations = match workload.kind {
        Kind::OgSat => "dips",
        Kind::OgKratt | Kind::OlKratt => "cegar_iters",
    };
    for (i, cell) in round.cells.iter().enumerate() {
        let mut line = format!(
            "{{\"type\":\"cell\",\"mode\":{},\"draw\":{draw},\"cell\":{},\"secs\":{:.6},\"outcome\":{},\"verdict\":{},\"cdk\":{},\"key_bits\":{},\"{iterations}\":{},\"oracle_queries\":{}",
            json_str(mode),
            json_str(&cell.name),
            secs[i],
            json_str(&cell.outcome),
            json_str(&cell.verdict.to_string()),
            cell.cdk,
            cell.key_bits,
            cell.iterations,
            cell.oracle_queries,
        );
        if let Some(key) = &cell.key {
            let _ = write!(line, ",\"key\":{}", json_str(key));
        }
        if let Some(spans) = spans {
            let fraig: u64 = spans
                .iter()
                .filter(|s| s.cell == i)
                .map(|s| s.count("fraig_sat_calls"))
                .sum();
            let _ = write!(line, ",\"fraig_sat_calls\":{fraig}");
        }
        if let Some(error) = &cell.error {
            let _ = write!(line, ",\"error\":{}", json_str(error));
        }
        line.push('}');
        println!("{line}");
    }
}

/// One input draw: the generated inputs and, on `ol-qbf`, their corpus.
struct Draw {
    inputs: Inputs,
    corpus: Vec<Prepared>,
}

/// Set-up of one draw: host generation, plus the corpus on `ol-qbf`.
fn setup(workload: Workload, seed: u64) -> Result<Draw, String> {
    let inputs = generate(workload, seed);
    let corpus = match workload.kind {
        Kind::OlKratt => build_corpus(&inputs).map_err(|e| format!("corpus: {e}"))?,
        Kind::OgKratt | Kind::OgSat => Vec::new(),
    };
    Ok(Draw { inputs, corpus })
}

/// Repeats the set-up of the draw on `seed` for [`SETUP_SLICE_SECS`] (at
/// least once), appending each repetition's time. Keeps the first
/// repetition when `keep` is true.
fn setup_slice(
    workload: Workload,
    seed: u64,
    keep: bool,
    samples: &mut Vec<f64>,
) -> Result<Option<Draw>, String> {
    let slice = Instant::now();
    let mut kept = None;
    loop {
        let start = Instant::now();
        let draw = setup(workload, seed)?;
        samples.push(start.elapsed().as_secs_f64());
        if keep && kept.is_none() {
            kept = Some(draw);
        }
        if slice.elapsed().as_secs_f64() >= SETUP_SLICE_SECS {
            return Ok(kept);
        }
    }
}

/// The self-check problems of a reference round's cells: a cell of a
/// scheme the attack breaks that did not verify, or a failing cell other
/// than the known defect.
fn verdict_problems(workload: Workload, inputs: &Inputs, round: &Round) -> Vec<String> {
    let mut problems = Vec::new();
    for (cell, case) in round.cells.iter().zip(&inputs.cases) {
        let expected = expect(workload.kind, case.spec.technique());
        if expected == Expect::Verified && cell.verdict != Verdict::Verified {
            problems.push(format!(
                "cell {}: expected a verified key, got {} / {} {}",
                cell.name,
                cell.outcome,
                cell.verdict,
                cell.error.as_deref().unwrap_or("")
            ));
        } else if cell.failed() && expected != Expect::KnownDefect {
            problems.push(format!(
                "cell {} failed: {} {}",
                cell.name,
                cell.verdict,
                cell.error.as_deref().unwrap_or("")
            ));
        }
    }
    problems
}

fn bench(args: &Args) -> Result<(), String> {
    let workload = args.workload;
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let workers = workload.workers(nproc);

    // Set-up of draw 0; the traced run keeps the spans of this one.
    trace::set_enabled(args.trace);
    let start = Instant::now();
    let mut draws = vec![setup(workload, args.seed)?];
    let mut setup_secs = vec![start.elapsed().as_secs_f64()];
    trace::set_enabled(false);
    let setup_spans = trace::drain();

    // Rounds. Reference rounds go through the workload's own driver: round
    // 0 and its repeat on draw 0, then one round per new draw. `baseline`
    // is the untraced harness round after the warm-up that the traced
    // rounds are compared with for `trace.overhead_s`, so the overhead
    // compares one warm driver with itself.
    let reference = match workload.kind {
        Kind::OlKratt => Driver::Harness { traced: false },
        Kind::OgKratt | Kind::OgSat => Driver::Campaign,
    };
    let draw_of = |round: usize| {
        if args.trace {
            0
        } else {
            round.saturating_sub(1)
        }
    };
    let min_reference = if args.trace { 1 } else { DRAWS + 1 };
    let mut untraced: Vec<Round> = Vec::new();
    let mut baseline: Option<Round> = None;
    let mut traced: Vec<(Round, Vec<Span>)> = Vec::new();
    let mut round_rss: Vec<f64> = Vec::new();
    let mut round_steal: Vec<f64> = Vec::new();
    let budget_start = Instant::now();
    let mut last = 0.0;
    loop {
        let (phase, required) = if untraced.len() < min_reference {
            (Phase::Reference, true)
        } else if args.trace && baseline.is_none() {
            (Phase::Baseline, true)
        } else if args.trace {
            (Phase::Traced, traced.is_empty())
        } else {
            (Phase::Reference, false)
        };
        if !required && budget_start.elapsed().as_secs_f64() + last > args.seconds {
            break;
        }
        let driver = match phase {
            Phase::Reference => reference,
            Phase::Baseline => Driver::Harness { traced: false },
            Phase::Traced => Driver::Harness { traced: true },
        };
        let iteration = Instant::now();
        let Draw { inputs, corpus } = &draws[draw_of(untraced.len())];
        reset_peak_rss();
        let steal = steal_secs();
        let round = run::round(workload, inputs, corpus, workers, driver)?;
        match phase {
            Phase::Reference => {
                round_rss.push(peak_rss_mb());
                round_steal.push(steal_secs() - steal);
                untraced.push(round);
            }
            Phase::Baseline => baseline = Some(round),
            Phase::Traced => traced.push((round, trace::drain())),
        }
        let next = draw_of(untraced.len());
        let seed = draw_seed(args.seed, next);
        if let Some(built) = setup_slice(workload, seed, next == draws.len(), &mut setup_secs)? {
            draws.push(built);
        }
        last = iteration.elapsed().as_secs_f64();
    }

    // Each draw's first round; `untraced[1]` is the repeat of draw 0.
    let firsts: Vec<&Round> = (0..untraced.len())
        .filter(|&round| round != 1)
        .map(|round| &untraced[round])
        .collect();
    let scored_draws = if args.trace { 1 } else { DRAWS };

    // Self-checks: every verdict meets its scheme's expectation; the
    // repeat, the baseline and the traced rounds reproduce draw 0's counts,
    // verdicts, keys and CDK.
    let mut problems = Vec::new();
    for (draw, round) in draws.iter().zip(&firsts) {
        problems.extend(verdict_problems(workload, &draw.inputs, round));
    }
    let repeats = untraced.get(1).into_iter().chain(&baseline);
    for round in repeats.chain(traced.iter().map(|(round, _)| round)) {
        if let Err(e) = compare("repeat of draw 0", firsts[0], round) {
            problems.push(e);
        }
    }

    // Scores, over the first `scored_draws` draws.
    let scored: Vec<&run::Cell> = firsts[..scored_draws]
        .iter()
        .flat_map(|round| &round.cells)
        .collect();
    let failing: Vec<&run::Cell> = scored.iter().copied().filter(|c| c.failed()).collect();
    let solved = scored
        .iter()
        .filter(|c| c.verdict == Verdict::Verified)
        .count();
    let key_bits: usize = scored.iter().map(|c| c.key_bits).sum();
    let cdk: usize = scored.iter().map(|c| c.cdk).sum();
    let queries: u64 = scored.iter().map(|c| c.oracle_queries).sum();
    let fail_frac = failing.len() as f64 / scored.len() as f64;

    // Timings, over the first round of every draw that ran.
    let walls: Vec<f64> = untraced.iter().map(Round::wall_secs).collect();
    let draw_walls: Vec<f64> = firsts.iter().map(|round| round.wall_secs()).collect();
    let wall = draw_walls.iter().sum::<f64>() / draw_walls.len() as f64;
    let cell_times: Vec<f64> = firsts.iter().flat_map(|round| cell_secs(round)).collect();
    let end_to_end = [
        ("wall_s", wall, "s"),
        ("cell_p50_s", quantile(&cell_times, 0.5), "s"),
        ("cell_p90_s", quantile(&cell_times, 0.9), "s"),
        ("solved_frac", solved as f64 / scored.len() as f64, "ratio"),
        ("key_acc", cdk as f64 / key_bits.max(1) as f64, "ratio"),
        ("ok_frac", 1.0 - fail_frac, "ratio"),
        ("setup_s", median(&setup_secs), "s"),
        ("peak_rss_mb", median(&round_rss), "MiB"),
    ];

    for (draw, round) in firsts.iter().enumerate() {
        print_cells("untraced", draw, workload, round, None);
    }
    let mut layers: Vec<(&str, f64, &str)> = Vec::new();
    if let Some((round, spans)) = traced.first() {
        print_cells("traced", 0, workload, round, Some(spans));
        let baseline_wall = baseline.as_ref().map_or(0.0, Round::wall_secs);
        let per_round: Vec<Vec<(&str, f64, &str)>> = traced
            .iter()
            .map(|(round, spans)| {
                layer_metrics(
                    workload,
                    &draws[0].inputs,
                    &draws[0].corpus,
                    round,
                    spans,
                    &setup_spans,
                    baseline_wall,
                )
            })
            .collect();
        for (i, (name, _, unit)) in per_round[0].iter().enumerate() {
            let values: Vec<f64> = per_round.iter().map(|m| m[i].1).collect();
            layers.push((name, median(&values), unit));
        }
    }

    let failing_names: Vec<String> = failing
        .iter()
        .map(|c| format!("{}:{}", json_str(&c.name), json_str(&c.verdict.to_string())))
        .collect();
    let join = |values: &mut dyn Iterator<Item = String>| values.collect::<Vec<_>>().join(",");
    let mut report_metrics = end_to_end.to_vec();
    report_metrics.push(("fail_frac", fail_frac, "ratio"));
    report_metrics.push(("oracle_queries", queries as f64, "count"));
    println!(
        "{{\"type\":\"report\",\"workload\":{},\"seed\":{},\"nproc\":{nproc},\"workers\":{workers},\"draws\":{},\"rounds\":{},\"baseline_rounds\":{},\"traced_rounds\":{},\"cells_per_round\":{},\"scored_cells\":{},\"round_draws\":[{}],\"round_walls\":[{}],\"round_steal_s\":[{}],\"baseline_wall\":{},\"traced_walls\":[{}],\"setup_samples\":{},\"setup_quartiles\":[{},{},{}],\"metrics\":{},\"failing_cells\":{{{}}},\"problems\":[{}]}}",
        json_str(workload.name),
        args.seed,
        firsts.len(),
        untraced.len(),
        usize::from(baseline.is_some()),
        traced.len(),
        firsts[0].cells.len(),
        scored.len(),
        join(&mut (0..untraced.len()).map(|round| draw_of(round).to_string())),
        join(&mut walls.iter().map(f64::to_string)),
        join(&mut round_steal.iter().map(|s| format!("{s:.2}"))),
        baseline.as_ref().map_or(0.0, Round::wall_secs),
        join(&mut traced.iter().map(|(round, _)| round.wall_secs().to_string())),
        setup_secs.len(),
        quantile(&setup_secs, 0.25),
        quantile(&setup_secs, 0.5),
        quantile(&setup_secs, 0.75),
        metrics_json(&report_metrics),
        failing_names.join(","),
        join(&mut problems.iter().map(|p| json_str(p))),
    );
    for problem in &problems {
        eprintln!("self-check: {problem}");
    }
    let rounds: Vec<&Round> = untraced
        .iter()
        .chain(&baseline)
        .chain(traced.iter().map(|(round, _)| round))
        .collect();
    let failed = rounds
        .iter()
        .flat_map(|round| &round.cells)
        .filter(|c| matches!(c.verdict, Verdict::Error | Verdict::Unverified))
        .count();
    let attempted: usize = rounds.iter().map(|round| round.cells.len()).sum();
    let metrics = if args.trace {
        layers
    } else {
        end_to_end.to_vec()
    };
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        problems.is_empty(),
        metrics_json(&metrics)
    );
    Ok(())
}

/// The per-layer metrics of one traced round.
fn layer_metrics(
    workload: Workload,
    inputs: &Inputs,
    corpus: &[Prepared],
    round: &Round,
    spans: &[Span],
    setup_spans: &[Span],
    baseline_wall: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let secs = |name: &str| total_secs(spans, name);
    let sum = |name: &str, counter: &str| total_count(spans, name, counter) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    // Lock, resynthesis and lint run inside OG cells, and in set-up on
    // `ol-qbf`.
    let corpus_secs = |name: &str| match workload.kind {
        Kind::OlKratt => total_secs(setup_spans, name),
        Kind::OgKratt | Kind::OgSat => secs(name),
    };
    let mut and_nodes = 0.0;
    let mut cnf_vars = 0.0;
    let mut cnf_clauses = 0.0;
    for (index, case) in inputs.cases.iter().enumerate() {
        let prepared = corpus.get(index).map(|p| &p.locked);
        let Some(locked) = prepared.or(round.locked.get(index).and_then(Option::as_ref)) else {
            continue;
        };
        and_nodes += Aig::from_circuit(&locked.circuit).map_or(0, |aig| aig.num_ands()) as f64;
        if workload.kind == Kind::OgSat {
            let host = inputs.hosts[case.host].circuit.as_ref().clone();
            let encoding = Oracle::new(host).ok().and_then(|oracle| {
                measure_dip_encoding(&locked.circuit, &oracle, DipEngineKind::Aig).ok()
            });
            if let Some(encoding) = encoding {
                cnf_vars += encoding.vars as f64;
                cnf_clauses += encoding.clauses as f64;
            }
        }
    }
    let dips = sum("attacks.sat_attack", "dips");
    let qbf_calls = spans.iter().filter(|s| s.name == "core.qbf").count() as f64;
    let cell_total: f64 = cell_secs(round).iter().sum();
    let covered: f64 = spans.iter().map(|s| s.secs).sum();
    let queue_wait = median(
        &round
            .cells
            .iter()
            .map(|c| c.queue_wait.as_secs_f64())
            .collect::<Vec<_>>(),
    );
    let failed = round.cells.iter().filter(|c| c.failed()).count() as f64;
    vec![
        ("core.structural_s", secs("core.structural"), "s"),
        (
            "core.structural_queries",
            sum("core.structural", "queries"),
            "count",
        ),
        ("core.qbf_s", secs("core.qbf"), "s"),
        (
            "core.qbf_cegar_iters",
            sum("core.qbf", "cegar_iters"),
            "count",
        ),
        (
            "core.qbf_decided_frac",
            ratio(sum("core.qbf", "decided"), qbf_calls),
            "ratio",
        ),
        ("core.removal_s", secs("core.removal"), "s"),
        ("core.classify_s", secs("core.classify"), "s"),
        ("core.ol_scope_s", secs("core.ol_scope"), "s"),
        ("attacks.sat_attack_s", secs("attacks.sat_attack"), "s"),
        ("attacks.dips", dips, "count"),
        (
            "attacks.queries_per_dip",
            ratio(sum("attacks.sat_attack", "queries"), dips),
            "ratio",
        ),
        ("sat.dip_cnf_vars", cnf_vars, "count"),
        ("sat.dip_cnf_clauses", cnf_clauses, "count"),
        ("synth.verify_s", secs("synth.verify"), "s"),
        (
            "synth.fraig_sat_calls",
            sum("synth.verify", "fraig_sat_calls"),
            "count",
        ),
        (
            "synth.fraig_merges",
            sum("synth.verify", "fraig_merges"),
            "count",
        ),
        (
            "synth.fraig_aig_nodes",
            sum("synth.verify", "fraig_aig_nodes"),
            "count",
        ),
        ("locking.lock_s", corpus_secs("locking.lock"), "s"),
        ("synth.resynth_s", corpus_secs("synth.resynth"), "s"),
        ("synth.resynth_and_nodes", and_nodes, "count"),
        ("lint.lint_s", corpus_secs("lint.lint"), "s"),
        ("attacks.queue_wait_s", queue_wait, "s"),
        ("attacks.steals", round.steals as f64, "count"),
        (
            "attacks.worker_busy_frac",
            ratio(cell_total, round.workers as f64 * round.wall_secs()),
            "ratio",
        ),
        (
            "attacks.oracle_queries",
            round.cells.iter().map(|c| c.oracle_queries as f64).sum(),
            "count",
        ),
        (
            "campaign.fail_frac",
            ratio(failed, round.cells.len() as f64),
            "ratio",
        ),
        ("trace.coverage", ratio(covered, cell_total), "ratio"),
        ("trace.overhead_s", round.wall_secs() - baseline_wall, "s"),
    ]
}
