//! The traced run (`--trace 1`): replays the workload's own input through
//! one layer's public calls at a time and times each call from outside,
//! keeping the spans in memory until the end.
//!
//! Every probe runs at least [`MIN_REPS`] times and reports the median;
//! counts (`mem.hit_ratio`, `disk.requests`, ...) are exact for a seed.

use std::path::Path;
use std::time::{Duration, Instant};

use jpmd_core::JointPolicy;
use jpmd_mem::{AccessLog, DiskCache, IdlePolicy, MemoryManager, StackProfiler};
use jpmd_sim::{
    ControlAction, EnergyMeter, Engine, FlushDaemon, HwState, LatencyTracker, PeriodAccounting,
    PeriodController, PeriodObservation, SimEvent, SimObserver, SpinDownPolicy, WarmupWindow,
};
use jpmd_trace::{AccessKind, Trace};

use crate::e2e::{decode_counts, joint_config, replay_methods, ReplayMethod};
use crate::stats::{median, quantile, tail, Spans};
use crate::{out_dir, serve, Outcome, Workload};

/// Fewest repetitions of any timed probe.
const MIN_REPS: usize = 3;

/// Records in the fixed JSON slice the parser probe decodes (the vendored
/// parser is quadratic, so the slice size is pinned, not scaled).
const JSON_RECORDS: usize = 500;

/// Repeats `f` at least [`MIN_REPS`] times and until `budget` is spent,
/// each call inside a span named `name`; returns every call's seconds
/// and its last result.
fn repeat<R>(
    spans: &mut Spans,
    name: &str,
    budget: Duration,
    mut f: impl FnMut() -> R,
) -> (Vec<f64>, R) {
    let start = Instant::now();
    let mut secs = Vec::new();
    loop {
        let t0 = Instant::now();
        let r = spans.span(name, |_| f());
        secs.push(t0.elapsed().as_secs_f64());
        if secs.len() >= MIN_REPS && start.elapsed() >= budget {
            return (secs, r);
        }
    }
}

/// One page access of the trace, in replay order.
#[derive(Clone, Copy)]
struct Access {
    time: f64,
    page: u64,
    write: bool,
    /// Last page of its record: write-backs are taken once per record, as
    /// the engine does.
    last_of_record: bool,
}

fn page_stream(trace: &Trace, duration: f64) -> Vec<Access> {
    let mut out = Vec::new();
    for r in trace.records().iter().filter(|r| r.time < duration) {
        let range = r.page_range();
        let last = range.end.saturating_sub(1);
        for page in range {
            out.push(Access {
                time: r.time,
                page,
                write: r.kind == AccessKind::Write,
                last_of_record: page == last,
            });
        }
    }
    out
}

/// `JointPolicy` with each period decision timed from outside.
struct TimedJoint {
    inner: JointPolicy,
    decides: Vec<(Instant, Instant)>,
    candidates: Vec<usize>,
    log_entries: Vec<usize>,
}

impl PeriodController for TimedJoint {
    fn on_period_end(&mut self, observation: &PeriodObservation, log: &AccessLog) -> ControlAction {
        let start = Instant::now();
        let action = self.inner.on_period_end(observation, log);
        self.decides.push((start, Instant::now()));
        self.candidates.push(self.inner.last_evaluations().len());
        self.log_entries.push(log.len());
        action
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Records the run's disk requests for the disk-layer probe.
#[derive(Default)]
struct DiskLog {
    requests: Vec<(f64, u64, u64, bool)>,
}

impl SimObserver for DiskLog {
    fn on_event(&mut self, event: &SimEvent, _hw: &mut HwState) {
        if let SimEvent::DiskRequest {
            time,
            first_page,
            pages,
            user,
            ..
        } = *event
        {
            self.requests.push((time, first_page, pages, user));
        }
    }
}

/// What one instrumented Joint run produced.
struct JointRun {
    secs: f64,
    controller: TimedJoint,
    disk: DiskLog,
    energy_j: f64,
    enabled_banks: Vec<f64>,
    events: u64,
    records: u64,
}

/// The Joint method wired by hand with the standard observer stack (in
/// its registration order) plus a passive disk-request recorder, so the
/// controller and the disk stream are visible from outside.
fn joint_run(w: &Workload, trace: &Trace) -> JointRun {
    let (sim, jc) = joint_config(w);
    let t = Workload::timing();
    let mut controller = TimedJoint {
        inner: JointPolicy::new(jc),
        decides: Vec::new(),
        candidates: Vec::new(),
        log_entries: Vec::new(),
    };
    let mut hw = HwState::new(
        &sim,
        SpinDownPolicy::controlled(f64::INFINITY),
        trace.total_pages().max(1),
    );
    let start = Instant::now();
    let mut warmup = WarmupWindow::new(sim.warmup_secs);
    let mut periods = PeriodAccounting::new(
        &mut controller,
        sim.period_secs,
        sim.aggregation_window_secs,
        sim.long_latency_secs,
    );
    let mut flush = FlushDaemon::new(sim.sync_interval_secs);
    let mut latency = LatencyTracker::new(sim.warmup_secs, sim.long_latency_secs);
    let mut energy = EnergyMeter::new();
    let mut disk = DiskLog::default();
    let stats = {
        let mut observers: Vec<&mut dyn SimObserver> = vec![
            &mut warmup,
            &mut periods,
            &mut flush,
            &mut latency,
            &mut energy,
            &mut disk,
        ];
        Engine::new().run(trace, t.duration_secs, &mut hw, &mut observers)
    };
    let secs = start.elapsed().as_secs_f64();
    let enabled_banks = periods
        .rows()
        .iter()
        .filter(|r| r.observation.start >= sim.warmup_secs)
        .map(|r| f64::from(r.observation.enabled_banks))
        .collect();
    drop(periods);
    let energy_j = energy
        .finalize(&hw, t.duration_secs - sim.warmup_secs)
        .energy
        .total_j();
    JointRun {
        secs,
        controller,
        disk,
        energy_j,
        enabled_banks,
        events: stats.events_processed,
        records: stats.records_pulled,
    }
}

pub fn run(w: &Workload, seed: u64, seconds: f64, work: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut spans = Spans::new(format!("{}-seed{seed}", w.name));
    let scale = Workload::scale();
    let t = Workload::timing();
    let slice = Duration::from_secs_f64(seconds / 12.0);
    let jpt = work.join("trace.jpt");

    // trace + store: generation, encode, decode, JSON parse.
    let (gen_s, trace) = repeat(&mut spans, "trace.gen", Duration::ZERO, || {
        w.build_trace(seed)
    });
    let trace = trace?;
    let (encode_s, encoded) = repeat(&mut spans, "store.encode", Duration::ZERO, || {
        jpmd_store::write_trace(&jpt, &trace)
    });
    encoded.map_err(|e| format!("encode: {e}"))?;
    out.metric("trace.gen_s", median(&gen_s), "s", gen_s.len());
    out.metric("store.encode_s", median(&encode_s), "s", encode_s.len());
    let records = trace.records().len() as f64;
    let (decode_s, counts) = repeat(&mut spans, "store.decode", slice, || decode_counts(&jpt));
    let counts = counts?;
    out.check(
        counts == (trace.records().len() as u64, trace.total_pages_requested()),
        "decode returns the generated record and page counts",
    );
    out.metric(
        "store.decode_ns_per_record",
        median(&decode_s) * 1e9 / records,
        "ns",
        decode_s.len(),
    );
    let json_slice = Trace::new(
        trace.records()[..JSON_RECORDS.min(trace.records().len())].to_vec(),
        trace.page_bytes(),
        trace.total_pages(),
    );
    let mut json = Vec::new();
    json_slice
        .to_writer(&mut json)
        .map_err(|e| format!("json encode: {e}"))?;
    let (json_s, parsed) = repeat(&mut spans, "trace.json_parse", slice, || {
        Trace::from_reader(json.as_slice())
    });
    out.check(
        parsed.is_ok_and(|p| p == json_slice),
        "JSON round trip of the fixed slice",
    );
    out.metric(
        "trace.json_parse_us_per_record",
        median(&json_s) * 1e6 / json_slice.records().len() as f64,
        "us",
        json_s.len(),
    );

    // The untimed warm-up pass, then the untraced Joint reference.
    let methods = replay_methods(w);
    let pick = |f: fn(&ReplayMethod) -> bool| methods.iter().find(|m| f(m)).expect("method");
    let (joint_m, ao_m) = (
        pick(ReplayMethod::is_joint),
        pick(ReplayMethod::is_always_on),
    );
    ao_m.run(&mut trace.source()).map_err(|e| e.to_string())?;
    // sim + core + disk recording: the untraced Joint replay alternating
    // with the instrumented one, so drift lands on both sides.
    let mut untraced_s = Vec::new();
    let mut reference = None;
    let mut joint_runs = Vec::new();
    let joint_start = Instant::now();
    while joint_runs.len() < MIN_REPS || joint_start.elapsed() < 3 * slice {
        let t0 = Instant::now();
        let report = spans.span("sim.joint_untraced", |_| joint_m.run(&mut trace.source()));
        untraced_s.push(t0.elapsed().as_secs_f64());
        reference = Some(report.map_err(|e| e.to_string())?);
        let run = spans.span("sim.joint_traced", |s| {
            let run = joint_run(w, &trace);
            for &(a, b) in &run.controller.decides {
                s.record("core.decide", a, b);
            }
            run
        });
        joint_runs.push(run);
    }
    let reference = reference.expect("at least one untraced Joint replay");
    out.check(
        joint_runs
            .iter()
            .all(|r| r.energy_j == reference.energy.total_j()),
        "instrumented Joint run matches the untraced replay's energy",
    );
    let decide_ms: Vec<f64> = joint_runs
        .iter()
        .flat_map(|r| r.controller.decides.iter())
        .map(|(a, b)| (*b - *a).as_secs_f64() * 1e3)
        .collect();
    let decide_total: f64 = decide_ms.iter().sum::<f64>() / 1e3;
    let joint_total: f64 = joint_runs.iter().map(|r| r.secs).sum();
    let first = &joint_runs[0];
    let mean = |v: &[usize]| v.iter().sum::<usize>() as f64 / v.len().max(1) as f64;
    out.metric(
        "core.decide_ms_p50",
        median(&decide_ms),
        "ms",
        decide_ms.len(),
    );
    match tail(&decide_ms) {
        Some((p, v)) => {
            println!("core.decide_ms_tail is p{p} of {} samples", decide_ms.len());
            out.metric("core.decide_ms_tail", v, "ms", decide_ms.len());
        }
        None => out.check(false, "at least 11 decide samples for a tail"),
    }
    out.metric(
        "core.decide_samples",
        decide_ms.len() as f64,
        "count",
        decide_ms.len(),
    );
    out.metric(
        "core.decide_share",
        decide_total / joint_total,
        "ratio",
        joint_runs.len(),
    );
    out.metric(
        "core.candidates_per_decide",
        mean(&first.controller.candidates),
        "count",
        first.controller.candidates.len(),
    );
    out.metric(
        "core.log_entries_per_decide",
        mean(&first.controller.log_entries),
        "count",
        first.controller.log_entries.len(),
    );
    out.metric(
        "sim.events_per_record",
        first.events as f64 / first.records as f64,
        "count",
        1,
    );
    let traced_s: Vec<f64> = joint_runs.iter().map(|r| r.secs).collect();
    let overhead = 100.0 * (median(&traced_s) / median(&untraced_s) - 1.0);
    println!(
        "tracing overhead: Joint replay {:.0} records/s untraced vs {:.0} traced ({overhead:+.2}%)",
        records / median(&untraced_s),
        records / median(&traced_s)
    );
    out.metric("bench.span_overhead_pct", overhead, "%", traced_s.len());

    // mem: profiler, cache, manager.
    let stream = page_stream(&trace, t.duration_secs);
    let n_pages = stream.len() as f64;
    let (prof_s, distinct) = repeat(&mut spans, "mem.profiler", slice, || {
        let mut profiler = StackProfiler::new();
        let mut log = AccessLog::new();
        let mut next_period = t.period_secs;
        for a in &stream {
            if a.time >= next_period {
                log.clear();
                next_period += t.period_secs;
            }
            let d = profiler.observe(a.page);
            log.record(a.time, a.page, d);
        }
        std::hint::black_box(log.len());
        profiler.distinct_pages()
    });
    out.metric(
        "mem.profiler_ns_per_page",
        median(&prof_s) * 1e9 / n_pages,
        "ns",
        prof_s.len(),
    );
    out.metric("mem.distinct_pages", distinct as f64, "count", 1);

    // The cache probe runs at Joint's median memory size, so evictions
    // and write-backs happen as they do under the policy.
    let banks = median(&first.enabled_banks).round().max(1.0) as u32;
    let sync = w.sync_secs;
    let (cache_s, (hits, writebacks)) = repeat(&mut spans, "mem.cache", slice, || {
        let mut cache = DiskCache::new(scale.total_banks(), scale.bank_pages());
        cache.resize(banks.min(scale.total_banks()));
        let (mut hits, mut writebacks) = (0u64, 0u64);
        let mut next_sync = sync;
        for a in &stream {
            if a.time >= next_sync {
                writebacks += cache.drain_dirty().len() as u64;
                next_sync += sync;
            }
            let access = cache.access(a.page);
            if a.write {
                cache.mark_dirty(access.frame);
            }
            hits += u64::from(access.hit);
            writebacks += u64::from(access.writeback.is_some());
        }
        (hits, writebacks)
    });
    out.metric(
        "mem.cache_ns_per_page",
        median(&cache_s) * 1e9 / n_pages,
        "ns",
        cache_s.len(),
    );
    out.metric("mem.hit_ratio", hits as f64 / n_pages, "ratio", 1);
    out.metric("mem.writebacks", writebacks as f64, "count", 1);
    println!(
        "mem.cache probe at {banks} of {} banks",
        scale.total_banks()
    );

    let policies = [
        IdlePolicy::Nap,
        IdlePolicy::DisableAfter(scale.disable_timeout_s()),
    ];
    let (access_s, _) = repeat(&mut spans, "mem.access", slice, || {
        for policy in policies {
            let mut mem = MemoryManager::new(scale.mem_config(policy, scale.total_banks()));
            let mut next_period = t.period_secs;
            for a in &stream {
                if a.time >= next_period {
                    mem.take_log();
                    next_period += t.period_secs;
                }
                mem.access_rw(a.page, a.time, a.write);
                if a.last_of_record {
                    std::hint::black_box(mem.take_writebacks());
                }
            }
        }
    });
    out.metric(
        "mem.access_ns_per_page",
        median(&access_s) * 1e9 / (n_pages * policies.len() as f64),
        "ns",
        access_s.len(),
    );

    // disk: the recorded request stream through the hardware seam.
    let (sim, _) = joint_config(w);
    let requests = &first.disk.requests;
    let mut disk_s = Vec::new();
    let mut last_hw = None;
    let disk_start = Instant::now();
    while disk_s.len() < MIN_REPS || disk_start.elapsed() < slice {
        let mut hw = HwState::new(
            &sim,
            SpinDownPolicy::two_competitive(&scale.disk_power),
            trace.total_pages().max(1),
        );
        let t0 = Instant::now();
        spans.span("disk.submit", |_| {
            let mut i = 0;
            while i < requests.len() {
                let (at, first_page, pages, user) = requests[i];
                if user {
                    hw.submit_request(at, first_page, pages);
                    i += 1;
                    continue;
                }
                let mut batch = Vec::new();
                while i < requests.len() && !requests[i].3 && requests[i].0 == at {
                    batch.extend(requests[i].1..requests[i].1 + requests[i].2);
                    i += 1;
                }
                hw.submit_writes(batch, at);
            }
            hw.settle(t.duration_secs);
        });
        disk_s.push(t0.elapsed().as_secs_f64());
        last_hw = Some(hw);
    }
    let hw = last_hw.expect("at least one disk replay");
    let submitted = hw.disk.requests().max(1) as f64;
    out.metric(
        "disk.submit_ns_per_request",
        median(&disk_s) * 1e9 / submitted,
        "ns",
        disk_s.len(),
    );
    out.metric("disk.requests", hw.disk.requests() as f64, "count", 1);
    out.metric("disk.spin_downs", hw.disk.spin_downs() as f64, "count", 1);
    out.metric("disk.busy_s", hw.disk.busy_secs(), "s", 1);

    // sim: the bare engine, then the full Always-on stack.
    let mut engine_s = Vec::new();
    let mut engine_pages = 0u64;
    let engine_start = Instant::now();
    while engine_s.len() < MIN_REPS || engine_start.elapsed() < slice {
        let mut hw = HwState::new(&sim, SpinDownPolicy::AlwaysOn, trace.total_pages().max(1));
        let t0 = Instant::now();
        let stats = spans.span("sim.engine", |_| {
            let mut observers: [&mut dyn SimObserver; 0] = [];
            Engine::new().run(&trace, t.duration_secs, &mut hw, &mut observers)
        });
        engine_s.push(t0.elapsed().as_secs_f64());
        engine_pages = stats.counts.accesses;
    }
    let (ao_s, ao) = repeat(&mut spans, "sim.always_on", slice, || {
        ao_m.run(&mut trace.source())
    });
    let ao = ao.map_err(|e| e.to_string())?;
    let per_page = |s: &[f64]| median(s) * 1e9 / engine_pages.max(1) as f64;
    out.metric(
        "sim.engine_ns_per_page",
        per_page(&engine_s),
        "ns",
        engine_s.len(),
    );
    out.metric(
        "sim.observers_ns_per_page",
        per_page(&ao_s) - per_page(&engine_s),
        "ns",
        ao_s.len(),
    );
    out.check(
        ao.engine.counts.accesses == engine_pages,
        "bare engine and Always-on replay the same pages",
    );

    // serve: wire parsing, then the daemon on this workload's records.
    let lines: Vec<String> = trace
        .records()
        .iter()
        .enumerate()
        .map(|(i, r)| jpmd_serve::proto::format_feed_seq("t", i as u64 + 1, r))
        .collect();
    let (parse_s, parsed_ok) = repeat(&mut spans, "serve.parse", slice, || {
        lines
            .iter()
            .filter(|l| jpmd_serve::parse_request(l).is_ok())
            .count()
    });
    out.check(parsed_ok == lines.len(), "every FEED line parses");
    out.metric(
        "serve.parse_ns_per_line",
        median(&parse_s) * 1e9 / lines.len() as f64,
        "ns",
        parse_s.len(),
    );
    let dir = work.join("serve-traced");
    let daemon =
        jpmd_serve::Daemon::start(serve::config(&dir)).map_err(|e| format!("daemon start: {e}"))?;
    let mut client = serve::attach(&daemon, "traced", &trace)?;
    let round = spans.span("serve.ingest", |_| {
        serve::ingest(&mut client, "traced", &trace, 0.0)
    })?;
    serve::account(&mut out, &round);
    let wal_bytes = serve::close(&mut client, "traced", &dir)?;
    drop(client);
    serve::stop(daemon)?;
    out.check(
        round.applied + round.duplicates == round.sent && round.gave_up == 0,
        "records sent == STATS applied + duplicates, gave_up == 0",
    );
    out.metric("serve.drain_s", round.drain_s, "s", 1);
    out.metric(
        "serve.queue_max",
        round.queue_max as f64,
        "count",
        round.query_ms.len(),
    );
    if round.query_ms.is_empty() {
        out.check(false, "the ingest made at least one status query");
    } else {
        out.metric(
            "serve.query_ms_p50",
            median(&round.query_ms),
            "ms",
            round.query_ms.len(),
        );
        let (p, v) = tail(&round.query_ms).unwrap_or((100, quantile(&round.query_ms, 1.0)));
        println!(
            "serve.query_ms_tail is p{p} of {} samples",
            round.query_ms.len()
        );
        out.metric("serve.query_ms_tail", v, "ms", round.query_ms.len());
    }
    out.metric(
        "obs.wal_bytes_per_record",
        wal_bytes as f64 / records,
        "B",
        1,
    );
    out.metric("serve.duplicates", round.duplicates as f64, "count", 1);

    // Operations of the replay probes: every method run made.
    out.attempted += (untraced_s.len() + joint_runs.len() + ao_s.len()) as u64;

    let path = out_dir().join(format!("spans-{}-seed{seed}.jsonl", w.name));
    spans
        .write_jsonl(&path)
        .map_err(|e| format!("writing spans: {e}"))?;
    println!("spans written to {}", path.display());
    println!(
        "{:<24} {:>6} {:>10} {:>10}",
        "span", "calls", "total_s", "self_s"
    );
    for (name, calls, total, own) in spans.summary() {
        println!("{name:<24} {calls:>6} {total:>10.4} {own:>10.4}");
    }
    Ok(out)
}
