//! End-to-end runs of the two replay workloads (`paper_suite`,
//! `sparse_writes`), tracing off.
//!
//! Set-up (repeated [`SETUP_REPS`] times, median reported): generate the
//! run's traces, encode them to `.jpt`, and replay Always-on once untimed
//! so the first-touch allocation of the 128 GB geometry does not land on
//! the first timed run. The timed loop then replays every method of the
//! workload from `.jpt`, pass after pass on one thread, until the time
//! budget is spent.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use jpmd_core::{methods, JointConfig, JointPolicy, MethodSpec};
use jpmd_sim::{
    run_simulation_source, NullController, PeriodController, PeriodObservation, RunReport,
    SimConfig, SpinDownPolicy,
};
use jpmd_store::TraceReader;
use jpmd_trace::{SourceError, Trace, TraceSource};

use crate::stats::{median, peak_rss_mb, reset_peak_rss, thread_cpu_s};
use crate::{trace_seed, Outcome, Workload, TRACES_PER_RUN};

/// How often set-up is repeated in one run; its median is `setup_s`.
pub const SETUP_REPS: usize = 5;

/// Fewest timed passes over the method list, whatever the time budget.
const MIN_PASSES: usize = 2;

/// Most timed passes; far beyond what any budget allows.
const MAX_PASSES: usize = 1000;

/// One replayed method of a workload.
pub struct ReplayMethod {
    pub label: String,
    kind: Kind,
}

enum Kind {
    /// One of `methods::paper_suite`, run through `run_method_source`.
    Suite(MethodSpec),
    /// A method wired through `run_simulation_source` with the
    /// workload's own simulation config (dirty-page sync included).
    Sim {
        sim: SimConfig,
        spindown: SpinDownPolicy,
        joint: Option<JointConfig>,
    },
}

impl ReplayMethod {
    pub fn is_joint(&self) -> bool {
        self.label == "Joint"
    }

    pub fn is_always_on(&self) -> bool {
        self.label == "Always-on"
    }

    /// Replays `source` under this method.
    pub fn run(&self, source: &mut dyn TraceSource) -> Result<RunReport, SourceError> {
        let t = Workload::timing();
        match &self.kind {
            Kind::Suite(spec) => methods::run_method_source(
                spec,
                &Workload::scale(),
                source,
                t.warmup_secs,
                t.duration_secs,
                t.period_secs,
            ),
            Kind::Sim {
                sim,
                spindown,
                joint,
            } => {
                let mut controller: Box<dyn PeriodController> = match joint {
                    Some(cfg) => Box::new(JointPolicy::new(*cfg)),
                    None => Box::new(NullController),
                };
                run_simulation_source(
                    sim,
                    spindown.clone(),
                    &mut *controller,
                    source,
                    t.duration_secs,
                    &self.label,
                )
            }
        }
    }
}

/// The simulation config the workload's Joint method runs under, and its
/// policy configuration.
pub fn joint_config(w: &Workload) -> (SimConfig, JointConfig) {
    let scale = Workload::scale();
    let t = Workload::timing();
    let spec = methods::joint(&scale);
    let mut sim = methods::sim_config_for(&spec, &scale);
    sim.warmup_secs = t.warmup_secs;
    sim.period_secs = t.period_secs;
    sim.sync_interval_secs = w.sync_secs;
    let mut joint = spec.joint.expect("the joint method carries its config");
    joint.period_secs = t.period_secs;
    (sim, joint)
}

/// The methods a replay workload runs, in order: the 16 of the paper's
/// Fig. 7 for `paper_suite`; Joint then Always-on with dirty-page sync
/// for `sparse_writes`.
pub fn replay_methods(w: &Workload) -> Vec<ReplayMethod> {
    if w.sync_secs.is_infinite() {
        return methods::paper_suite(&Workload::scale(), &jpmd_bench::experiments::FM_SIZES_GB)
            .into_iter()
            .map(|spec| ReplayMethod {
                label: spec.label.clone(),
                kind: Kind::Suite(spec),
            })
            .collect();
    }
    let (sim, joint) = joint_config(w);
    vec![
        ReplayMethod {
            label: "Joint".into(),
            kind: Kind::Sim {
                sim,
                spindown: SpinDownPolicy::controlled(f64::INFINITY),
                joint: Some(joint),
            },
        },
        ReplayMethod {
            label: "Always-on".into(),
            kind: Kind::Sim {
                sim,
                spindown: SpinDownPolicy::AlwaysOn,
                joint: None,
            },
        },
    ]
}

/// One generated trace of a run, kept as its `.jpt` and its counts.
struct Encoded {
    jpt: PathBuf,
    records: u64,
    pages: u64,
}

/// What set-up leaves for the timed loop.
struct Prepared {
    setup_times: Vec<f64>,
    traces: Vec<Encoded>,
    /// Findings of the set-up checks, reported after the loop.
    checks: Vec<(bool, String)>,
    /// Trace 0 under Joint (in memory) and Always-on (streamed).
    joint: RunReport,
    always_on: RunReport,
}

/// Set-up, repeated [`SETUP_REPS`] times: generate the run's
/// [`TRACES_PER_RUN`] traces, encode each to `.jpt`, and replay trace 0
/// under Always-on once, untimed. Then the set-up checks on trace 0.
fn setup(w: &Workload, seed: u64, work: &Path) -> Result<Prepared, String> {
    let methods = replay_methods(w);
    let find = |f: fn(&ReplayMethod) -> bool| methods.iter().find(|m| f(m)).expect("method");
    let (joint_m, warm_m) = (
        find(ReplayMethod::is_joint),
        find(ReplayMethod::is_always_on),
    );
    let mut setup_times = Vec::new();
    let mut warm_reports: Vec<RunReport> = Vec::new();
    let mut first_trace: Option<Trace> = None;
    let mut traces = Vec::new();
    let mut deterministic = true;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        traces.clear();
        for i in 0..TRACES_PER_RUN {
            let t = w.build_trace(trace_seed(seed, i))?;
            let jpt = work.join(format!("trace-{i}.jpt"));
            jpmd_store::write_trace(&jpt, &t).map_err(|e| format!("encode: {e}"))?;
            traces.push(Encoded {
                jpt,
                records: t.records().len() as u64,
                pages: t.total_pages_requested(),
            });
            if i == 0 {
                match &first_trace {
                    Some(prev) => deterministic &= prev.records() == t.records(),
                    None => first_trace = Some(t),
                }
            }
        }
        let mut reader = TraceReader::open(&traces[0].jpt).map_err(|e| format!("open: {e}"))?;
        let warm = warm_m
            .run(&mut reader)
            .map_err(|e| format!("warm-up pass: {e}"))?;
        setup_times.push(start.elapsed().as_secs_f64());
        warm_reports.push(warm);
    }
    let trace = first_trace.expect("at least one set-up repetition");
    let joint = joint_m
        .run(&mut trace.source())
        .map_err(|e| e.to_string())?;
    let mut reader = TraceReader::open(&traces[0].jpt).map_err(|e| format!("open: {e}"))?;
    let streamed = joint_m.run(&mut reader).map_err(|e| e.to_string())?;
    let mut decoded = true;
    for t in &traces {
        decoded &= decode_counts(&t.jpt)? == (t.records, t.pages);
    }
    let always_on = warm_reports.pop().expect("at least one warm-up pass");
    let checks = vec![
        (
            deterministic,
            "trace generation is deterministic for one seed".to_string(),
        ),
        (
            decoded,
            format!(
                "decode returns the generated records and pages of all {TRACES_PER_RUN} traces"
            ),
        ),
        (
            streamed == joint,
            "streamed .jpt Joint replay is bit-identical to the in-memory replay".to_string(),
        ),
        (
            warm_reports.iter().all(|r| *r == always_on),
            "Always-on reports are identical across the set-up repeats".to_string(),
        ),
    ];
    Ok(Prepared {
        setup_times,
        traces,
        checks,
        joint,
        always_on,
    })
}

/// Whether every energy figure of a report is finite and the total is
/// positive.
pub fn energy_ok(r: &RunReport) -> bool {
    let e = &r.energy;
    let parts = [e.total_j(), e.mem.total_j(), e.disk.total_j()];
    parts.iter().all(|v| v.is_finite() && *v >= 0.0) && e.total_j() > 0.0
}

/// Simulated outcomes of the Joint run against Always-on on one trace,
/// over the measured periods (those starting after `warmup_secs`).
pub fn sim_metrics(
    out: &mut Outcome,
    joint: &RunReport,
    always_on: &RunReport,
    jc: &JointConfig,
    warmup_secs: f64,
) {
    let measured = |r: &RunReport| -> Vec<PeriodObservation> {
        r.periods
            .iter()
            .map(|row| row.observation.clone())
            .filter(|o| o.start >= warmup_secs)
            .collect()
    };
    let (j, ao) = (measured(joint), measured(always_on));
    let energy = |rows: &[PeriodObservation]| rows.iter().map(|o| o.energy_total_j).sum::<f64>();
    let sum = |f: fn(&PeriodObservation) -> f64| j.iter().map(f).sum::<f64>();
    let violating = j
        .iter()
        .filter(|o| o.utilization() > jc.util_limit || o.delayed_ratio() > jc.delay_ratio_limit)
        .count();
    out.metric("energy_pct", 100.0 * energy(&j) / energy(&ao), "%", j.len());
    out.metric("mean_latency_ms", joint.mean_latency_secs * 1e3, "ms", 1);
    out.metric(
        "delayed_ratio",
        sum(|o| o.delayed_page_accesses as f64) / sum(|o| o.cache_accesses as f64),
        "ratio",
        j.len(),
    );
    out.metric(
        "disk_util",
        sum(|o| o.disk_busy_secs) / sum(|o| o.end - o.start),
        "ratio",
        j.len(),
    );
    out.metric("periods_violating", violating as f64, "count", j.len());
}

/// Counts records and pages by decoding the `.jpt` end to end.
pub fn decode_counts(jpt: &Path) -> Result<(u64, u64), String> {
    let mut reader = TraceReader::open(jpt).map_err(|e| format!("open: {e}"))?;
    let (mut records, mut pages) = (0u64, 0u64);
    while let Some(next) = reader.next_record() {
        let r = next.map_err(|e| format!("decode: {e}"))?;
        records += 1;
        pages += r.pages;
    }
    Ok((records, pages))
}

/// One step of the run, executed in order on a single worker thread.
#[derive(Clone, Copy)]
enum Step {
    Setup,
    Replay { pass: usize, method: usize },
}

/// One timed method run: its trace, seconds and report.
struct Timed {
    trace: usize,
    /// Wall-clock seconds.
    secs: f64,
    /// Seconds the replaying thread spent on a CPU.
    cpu_secs: f64,
    report: RunReport,
}

pub fn run(w: &Workload, seed: u64, seconds: f64, work: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let methods = replay_methods(w);
    let n = methods.len();

    // Set-up, then one step per (pass, method), all on one worker thread
    // of `run_queue`: a panicking method run is caught and counted on its
    // own, and every allocation comes from one thread, which keeps the
    // peak RSS a property of the workload rather than of how the
    // allocator spread it over threads. Method `m` of pass `p` replays
    // trace `(p + m) % TRACES_PER_RUN`. Passes stop once the budget is
    // spent (never before MIN_PASSES).
    let steps: Vec<Step> = std::iter::once(Step::Setup)
        .chain(
            (0..MAX_PASSES)
                .flat_map(|pass| (0..n).map(move |method| Step::Replay { pass, method })),
        )
        .collect();
    let prepared: Mutex<Option<Prepared>> = Mutex::new(None);
    let timed: Mutex<Vec<Vec<Timed>>> = Mutex::new((0..n).map(|_| Vec::new()).collect());
    let stop_at = AtomicUsize::new(MAX_PASSES);
    let budget = Duration::from_secs_f64(seconds);
    let start = Mutex::new(Instant::now());
    let results = jpmd_bench::run_queue(&steps, 1, |&step| -> Result<bool, String> {
        let (pass, i) = match step {
            Step::Setup => {
                *prepared.lock().expect("set-up lock") = Some(setup(w, seed, work)?);
                if !reset_peak_rss() {
                    eprintln!("peak RSS covers set-up too: its reset is unavailable");
                }
                *start.lock().expect("clock lock") = Instant::now();
                return Ok(false);
            }
            Step::Replay { pass, method } => (pass, method),
        };
        let elapsed = start.lock().expect("clock lock").elapsed();
        if i == 0 && pass >= MIN_PASSES && elapsed >= budget {
            stop_at.fetch_min(pass, Ordering::Relaxed);
        }
        let trace = (pass + i) % TRACES_PER_RUN;
        let jpt = match prepared.lock().expect("set-up lock").as_ref() {
            Some(p) if pass < stop_at.load(Ordering::Relaxed) => p.traces[trace].jpt.clone(),
            _ => return Ok(false),
        };
        let cpu0 = thread_cpu_s()?;
        let t0 = Instant::now();
        let mut reader = TraceReader::open(&jpt).map_err(|e| e.to_string())?;
        let report = methods[i].run(&mut reader).map_err(|e| e.to_string())?;
        let secs = t0.elapsed().as_secs_f64();
        let cpu_secs = thread_cpu_s()? - cpu0;
        timed.lock().expect("timed lock")[i].push(Timed {
            trace,
            secs,
            cpu_secs,
            report,
        });
        Ok(true)
    });
    for (step, result) in steps.iter().zip(results) {
        match (step, result.and_then(|r| r)) {
            (_, Ok(ran)) => out.attempted += u64::from(ran),
            (Step::Setup, Err(e)) => return Err(format!("set-up failed: {e}")),
            (Step::Replay { method, .. }, Err(e)) => {
                eprintln!("{} failed: {e}", methods[*method].label);
                out.attempted += 1;
                out.failed += 1;
            }
        }
    }
    let prepared = prepared
        .into_inner()
        .expect("set-up lock")
        .expect("set-up ran first");
    let passes = stop_at.into_inner();
    let timed = timed.into_inner().expect("timed lock");
    for (ok, what) in &prepared.checks {
        out.check(*ok, what.clone());
    }

    // Reports of one trace must agree on the page lookups across methods
    // and, for one method, on everything across repeats.
    let mut by_trace: Vec<Option<u64>> = vec![None; TRACES_PER_RUN];
    let mut firsts: Vec<Vec<Option<&RunReport>>> = vec![vec![None; TRACES_PER_RUN]; n];
    let (mut same_accesses, mut repeat_ok, mut energies) = (true, true, true);
    for (m, runs) in timed.iter().enumerate() {
        for t in runs {
            let accesses = t.report.cache_accesses;
            same_accesses &= *by_trace[t.trace].get_or_insert(accesses) == accesses;
            match firsts[m][t.trace] {
                Some(f) => repeat_ok &= *f == t.report,
                None => firsts[m][t.trace] = Some(&t.report),
            }
            energies &= energy_ok(&t.report);
        }
    }
    out.check(
        repeat_ok,
        "simulated results are identical across repeats of a method on one trace",
    );
    out.check(
        same_accesses,
        format!("cache_accesses equal across all {n} methods on each trace"),
    );
    out.check(
        energies && energy_ok(&prepared.joint) && energy_ok(&prepared.always_on),
        "every energy is finite and > 0",
    );
    if timed.iter().any(Vec::is_empty) {
        return Ok(out);
    }

    // Seconds per page (per record) of one pass: the sum over methods of
    // each method's median.
    let per = |time: fn(&Timed) -> f64, unit: fn(&Encoded) -> u64| -> f64 {
        timed
            .iter()
            .map(|runs| {
                let v: Vec<f64> = runs
                    .iter()
                    .map(|t| time(t) / unit(&prepared.traces[t.trace]) as f64)
                    .collect();
                median(&v)
            })
            .sum()
    };
    let runs = n as f64;
    out.metric(
        "setup_s",
        median(&prepared.setup_times),
        "s",
        prepared.setup_times.len(),
    );
    out.metric(
        "pages_per_cpu_s",
        runs / per(|t| t.cpu_secs, |e| e.pages),
        "1/s",
        passes,
    );
    out.metric(
        "pages_per_s",
        runs / per(|t| t.secs, |e| e.pages),
        "1/s",
        passes,
    );
    out.metric(
        "replay_rps",
        runs / per(|t| t.secs, |e| e.records),
        "1/s",
        passes,
    );
    out.metric("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MiB", 1);
    let (_, jc) = joint_config(w);
    sim_metrics(
        &mut out,
        &prepared.joint,
        &prepared.always_on,
        &jc,
        Workload::timing().warmup_secs,
    );
    out.metric(
        "error_rate",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
        out.attempted as usize,
    );
    println!(
        "passes {passes} over {TRACES_PER_RUN} traces; per-method median s: {}",
        methods
            .iter()
            .zip(&timed)
            .map(|(m, runs)| {
                let v: Vec<f64> = runs.iter().map(|t| t.secs).collect();
                format!("{} {:.3}", m.label, median(&v))
            })
            .collect::<Vec<_>>()
            .join(", ")
    );
    Ok(out)
}
