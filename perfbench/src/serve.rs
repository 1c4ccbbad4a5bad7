//! The `serve_ingest` workload: an in-process `jpmd-serve` daemon on
//! loopback with one worker, fed by one `ServeClient` tenant in a closed
//! loop, with a `QUERY <tenant> status` on the same connection every
//! [`QUERY_EVERY`] records, after which the client waits (polling `PING`)
//! until the daemon's backlog is at most [`MAX_BACKLOG`] records.
//!
//! Set-up (repeated, median reported) is generation of the run's traces,
//! daemon start, the tenant's first `ATTACH`, and one untimed warm-up
//! ingest of trace 0. Timed rounds then feed the traces round-robin into
//! the same tenant, each round shifted by one trace span so the stream
//! stays in time order, each timed from its first `FEED` until the
//! daemon's queue drains.

use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use jpmd_core::{methods, PolicyStepper};
use jpmd_obs::Telemetry;
use jpmd_serve::{build_stepper, ClientOpts, Daemon, ServeClient, ServeConfig};
use jpmd_trace::Trace;

use crate::e2e::{energy_ok, sim_metrics, SETUP_REPS};
use crate::stats::{median, peak_rss_mb, process_cpu_s, reset_peak_rss, tail};
use crate::{trace_seed, Outcome, Workload, TRACES_PER_RUN};

/// Records fed between two control queries.
pub const QUERY_EVERY: usize = 1024;

/// Daemon backlog, records, above which the client waits before feeding
/// more: the loop stays closed, so the client does not compete with the
/// worker for a core while records pile up.
const MAX_BACKLOG: u64 = 2 * QUERY_EVERY as u64;

/// Fewest timed ingest rounds, whatever the time budget: two per trace.
const MIN_ROUNDS: usize = 2 * TRACES_PER_RUN;

/// The daemon configuration: the paper's geometry and period, one worker,
/// telemetry WALs on, and the default open-ended stream horizon.
pub fn config(dir: &Path) -> ServeConfig {
    let mut cfg = ServeConfig::new(dir);
    cfg.scale = Workload::scale();
    cfg.period_secs = Workload::timing().period_secs;
    cfg.workers = 1;
    cfg
}

/// The daemon-wide counters of one `STATS` reply.
#[derive(Debug, Clone, Copy, Default)]
struct DaemonCounts {
    queued: u64,
    records: u64,
    duplicates: u64,
}

fn word_after(reply: &str, key: &str) -> Option<u64> {
    let mut words = reply.split_ascii_whitespace();
    while let Some(w) = words.next() {
        if w == key {
            return words.next()?.parse().ok();
        }
    }
    None
}

fn stats(client: &mut ServeClient) -> Result<DaemonCounts, String> {
    let reply = client.ask("STATS").map_err(|e| e.to_string())?;
    let get = |k| word_after(&reply, k).ok_or_else(|| format!("STATS reply lacks {k}: {reply}"));
    Ok(DaemonCounts {
        queued: get("queued")?,
        records: get("records")?,
        duplicates: get("duplicates")?,
    })
}

/// What one ingest round measured.
pub struct Round {
    /// First `FEED` until the daemon's queue drained, s.
    pub ingest_s: f64,
    /// CPU seconds of the whole process (client and daemon) over the
    /// same span.
    pub cpu_s: f64,
    /// Last record handed to the client until the queue drained, s.
    pub drain_s: f64,
    /// Round-trip times of the status queries, ms.
    pub query_ms: Vec<f64>,
    /// Largest tenant backlog the status queries saw.
    pub queue_max: u64,
    pub sent: u64,
    pub applied: u64,
    pub duplicates: u64,
    /// Queries answered with `ERR` or not at all.
    pub query_errors: u64,
    pub gave_up: u64,
}

/// Opens a client for `tenant` and makes its first `ATTACH` (the
/// client's `OPEN`).
pub fn attach(daemon: &Daemon, tenant: &str, trace: &Trace) -> Result<ServeClient, String> {
    let mut client = ServeClient::tcp(
        daemon.addr().to_string(),
        tenant,
        trace.total_pages(),
        ClientOpts::default(),
    );
    client.sync().map_err(|e| format!("attach {tenant}: {e}"))?;
    Ok(client)
}

/// Feeds the whole trace through `client`, every record `offset` seconds
/// later than generated, and waits for the daemon to apply it.
pub fn ingest(
    client: &mut ServeClient,
    tenant: &str,
    trace: &Trace,
    offset: f64,
) -> Result<Round, String> {
    let before = stats(client)?;
    let query = format!("QUERY {tenant} status");
    let mut query_ms = Vec::new();
    let (mut queue_max, mut query_errors) = (0u64, 0u64);
    let cpu0 = process_cpu_s()?;
    let start = Instant::now();
    for (i, record) in trace.records().iter().enumerate() {
        let mut record = *record;
        record.time += offset;
        client.feed(record).map_err(|e| format!("feed: {e}"))?;
        if (i + 1) % QUERY_EVERY == 0 {
            let t0 = Instant::now();
            match client.ask(&query) {
                Ok(reply) if reply.starts_with("OK") => {
                    query_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    queue_max = queue_max.max(word_after(&reply, "queued").unwrap_or(0));
                }
                _ => query_errors += 1,
            }
            // Closed loop: hold the next records until the daemon's
            // backlog is back under the limit.
            loop {
                let reply = client.ask("PING").map_err(|e| format!("ping: {e}"))?;
                match word_after(&reply, "queued") {
                    Some(queued) if queued > MAX_BACKLOG => {
                        std::thread::sleep(Duration::from_micros(100))
                    }
                    Some(_) => break,
                    None => return Err(format!("PING reply lacks queued: {reply}")),
                }
            }
        }
    }
    let fed = Instant::now();
    client.sync().map_err(|e| format!("sync: {e}"))?;
    let after = loop {
        let s = stats(client)?;
        if s.queued == 0 {
            break s;
        }
        std::thread::sleep(Duration::from_micros(200));
    };
    let end = Instant::now();
    Ok(Round {
        ingest_s: (end - start).as_secs_f64(),
        cpu_s: process_cpu_s()? - cpu0,
        drain_s: (end - fed).as_secs_f64(),
        query_ms,
        queue_max,
        sent: trace.records().len() as u64,
        applied: after.records - before.records,
        duplicates: after.duplicates - before.duplicates,
        query_errors,
        gave_up: client.stats().gave_up,
    })
}

/// Closes (seals) the tenant; returns the size of its telemetry WAL in
/// bytes.
pub fn close(client: &mut ServeClient, tenant: &str, dir: &Path) -> Result<u64, String> {
    client.close().map_err(|e| format!("close {tenant}: {e}"))?;
    let wal = dir.join(format!("{tenant}.jsonl"));
    Ok(std::fs::metadata(&wal).map(|m| m.len()).unwrap_or(0))
}

/// Stops a daemon and waits for it.
pub fn stop(daemon: Daemon) -> Result<(), String> {
    daemon.request_shutdown();
    daemon.join().map_err(|e| format!("daemon shutdown: {e}"))
}

/// A daemon with one attached tenant.
pub struct Served {
    pub daemon: Daemon,
    pub client: ServeClient,
    pub dir: std::path::PathBuf,
}

/// The tenant every run feeds.
const TENANT: &str = "bench";

/// Set-up repeated [`SETUP_REPS`] times: generate the run's traces, start
/// the daemon, attach, ingest trace 0 once untimed. Returns the last
/// repetition's daemon, still running, with the traces and the set-up
/// times.
pub fn setup(
    w: &Workload,
    seed: u64,
    work: &Path,
) -> Result<(Vec<Trace>, Served, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut last: Option<(Vec<Trace>, Served)> = None;
    for rep in 0..SETUP_REPS {
        let start = Instant::now();
        let traces = (0..TRACES_PER_RUN)
            .map(|i| w.build_trace(trace_seed(seed, i)))
            .collect::<Result<Vec<_>, _>>()?;
        let dir = work.join(format!("serve-{rep}"));
        let daemon = Daemon::start(config(&dir)).map_err(|e| format!("daemon start: {e}"))?;
        let mut client = attach(&daemon, TENANT, &traces[0])?;
        ingest(&mut client, TENANT, &traces[0], 0.0)?;
        times.push(start.elapsed().as_secs_f64());
        let served = Served {
            daemon,
            client,
            dir,
        };
        if let Some((_, old)) = last.replace((traces, served)) {
            drop(old.client);
            stop(old.daemon)?;
        }
    }
    let (traces, served) = last.expect("at least one set-up repetition");
    Ok((traces, served, times))
}

/// Checks one round's accounting and counts its operations: one per FEED
/// record and one per QUERY.
pub fn account(out: &mut Outcome, round: &Round) {
    let queries = (round.sent as usize / QUERY_EVERY) as u64;
    let missing = round.sent.saturating_sub(round.applied + round.duplicates);
    out.attempted += round.sent + queries;
    out.failed += round.query_errors + missing + round.gave_up;
}

pub fn run(w: &Workload, seed: u64, seconds: f64, work: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (traces, mut served, setup_times) = setup(w, seed, work)?;
    let trace = &traces[0];
    let span = Workload::timing().duration_secs;
    // The tenant has seen the trace exactly once (the warm-up ingest).
    let daemon_energy = served
        .client
        .ask(&format!("QUERY {TENANT} energy"))
        .map_err(|e| e.to_string())?;
    if !reset_peak_rss() {
        eprintln!("peak RSS covers set-up too: its reset is unavailable");
    }

    // Round `r` feeds trace `r % TRACES_PER_RUN`, so every trace's rounds
    // spread over the whole run and a slow spell of the host does not land
    // on a few traces only.
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut timed: Vec<Vec<&Round>> = vec![Vec::new(); TRACES_PER_RUN];
    while rounds.len() < MIN_ROUNDS || start.elapsed() < budget {
        let k = rounds.len() % TRACES_PER_RUN;
        let offset = span * (rounds.len() + 1) as f64;
        let round = ingest(&mut served.client, TENANT, &traces[k], offset)?;
        account(&mut out, &round);
        rounds.push(round);
    }
    for (r, round) in rounds.iter().enumerate() {
        timed[r % TRACES_PER_RUN].push(round);
    }
    let wal_bytes = close(&mut served.client, TENANT, &served.dir)?;
    drop(served.client);
    stop(served.daemon)?;

    let exact = rounds
        .iter()
        .all(|r| r.applied + r.duplicates == r.sent && r.gave_up == 0);
    out.check(
        exact,
        "every round: records sent == STATS applied + duplicates, gave_up == 0",
    );

    // The daemon's policy stack replayed in process on the same records:
    // its energy must match the daemon's answer bit for bit, and it gives
    // the run's simulated outcomes next to an Always-on stepper.
    let t = Workload::timing();
    let mut cfg = config(work);
    cfg.duration_secs = t.duration_secs;
    let mut joint = build_stepper(
        &cfg,
        "reference",
        trace.total_pages(),
        &Telemetry::disabled(),
        Arc::new(AtomicBool::new(false)),
        None,
    )
    .map_err(|e| e.to_string())?;
    let mut always_on = PolicyStepper::for_method(
        &methods::always_on(&cfg.scale),
        &cfg.scale,
        trace.total_pages(),
        0.0,
        t.duration_secs,
        t.period_secs,
        &Telemetry::disabled(),
        None,
    )
    .map_err(|e| e.to_string())?;
    for r in trace.records() {
        joint.feed(*r);
        always_on.feed(*r);
    }
    let expected = format!("OK energy_j {}", joint.energy_so_far_j());
    out.check(
        daemon_energy == expected,
        format!("daemon energy equals the in-process stepper ({daemon_energy} vs {expected})"),
    );
    let joint = joint.finish();
    let always_on = always_on.finish();
    out.check(
        energy_ok(&joint) && energy_ok(&always_on),
        "every energy is finite and > 0",
    );

    // Host seconds to ingest all traces once: the sum over traces of
    // each trace's median timed round.
    let per = |time: fn(&Round) -> f64| -> f64 {
        timed
            .iter()
            .map(|t| median(&t.iter().map(|r| time(r)).collect::<Vec<_>>()))
            .sum()
    };
    let (secs, cpu_secs) = (per(|r| r.ingest_s), per(|r| r.cpu_s));
    let samples = rounds.len();
    let pages: u64 = traces.iter().map(Trace::total_pages_requested).sum();
    let records: usize = traces.iter().map(|t| t.records().len()).sum();
    let query_ms: Vec<f64> = rounds.iter().flat_map(|r| r.query_ms.clone()).collect();
    out.metric("setup_s", median(&setup_times), "s", setup_times.len());
    out.metric("pages_per_cpu_s", pages as f64 / cpu_secs, "1/s", samples);
    out.metric("pages_per_s", pages as f64 / secs, "1/s", samples);
    out.metric("ingest_rps", records as f64 / secs, "1/s", samples);
    if !query_ms.is_empty() {
        out.metric("query_ms", median(&query_ms), "ms", query_ms.len());
        if let Some((p, v)) = tail(&query_ms) {
            println!("query_ms tail p{p} {v:.4} ms of {} samples", query_ms.len());
        }
    }
    out.metric("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MiB", 1);
    sim_metrics(
        &mut out,
        &joint,
        &always_on,
        &crate::e2e::joint_config(w).1,
        t.warmup_secs,
    );
    out.metric(
        "error_rate",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
        out.attempted as usize,
    );
    println!(
        "rounds {} over {TRACES_PER_RUN} traces; WAL {wal_bytes} bytes; timed s per trace: {}",
        rounds.len(),
        timed
            .iter()
            .map(|t| t
                .iter()
                .map(|r| format!("{:.3}", r.ingest_s))
                .collect::<Vec<_>>()
                .join(" "))
            .collect::<Vec<_>>()
            .join(" | ")
    );
    Ok(out)
}
