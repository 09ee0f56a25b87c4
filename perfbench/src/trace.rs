//! The traced run: the per-layer metrics and the span file.
//!
//! It measures untraced passes for half the window (the base of the ratios
//! and the reference for the checks), then:
//!
//! 1. a *recorded* pass — the same pass with an in-memory telemetry
//!    recorder attached, which turns technique, bound-level, steal, race and
//!    corpus events into spans (its wall time over the untraced median is
//!    the tracing overhead);
//! 2. a *replica* pass — every unit re-driven with the scheduler and
//!    runtime probes of [`crate::probe`], checked against its untraced unit;
//! 3. the workload's reference pass or direct calls: the uncached pass
//!    (`bounded`), the one-worker pass and digest comparison (`steal`), or
//!    timed corpus load/decode/encode/replay calls (campaigns).
//!
//! Metrics of a layer the workload bypasses read 0.

use crate::golden;
use crate::measure::median;
use crate::probe::{lock, replica, Probe, SpanLog, SpanRecorder, StealCounts};
use crate::run::{measure, metric, Measured, Metric, Report};
use crate::workload::{
    bounded_limits, pass, study_config, PassOptions, PassRun, Plan, Workload, BOUNDED, RACE_RUNS,
    SYSTEMATIC,
};
use sct_core::corpus::{cache_from_bytes, cache_to_bytes, corpus_key, replay_prefix, Corpus};
use sct_core::telemetry::Telemetry;
use sct_core::{ExploreLimits, ScheduleCache};
use sct_race::{race_detection_phase, RacePhaseConfig};
use sct_runtime::ExecConfig;
use std::hint::black_box;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Totals of the replica pass.
#[derive(Default)]
struct ReplicaTotals {
    probe: Probe,
    units: u64,
    schedules: u64,
    executions: u64,
    hits: u64,
    bytes: u64,
    levels: u64,
    ir_ns: u64,
    race_ns: u64,
    race_executions: u64,
    races: u64,
    mismatches: Vec<String>,
}

/// Totals of the timed corpus calls.
#[derive(Default)]
struct CorpusTotals {
    bytes: u64,
    load_ns: u64,
    decode_ns: u64,
    encode_ns: u64,
    replay_ns: u64,
    records: u64,
    replay_failures: u64,
    problems: Vec<String>,
}

/// A traced run; spans go to `dir/<workload>.spans.jsonl`.
pub fn traced(plan: &Plan, work: &Path, seconds: f64, dir: &Path) -> Result<Report, String> {
    let m = measure(plan, work, seconds / 2.0)?;
    let (mut failed, mut problems) = golden::check(plan, &m.passes);
    let mut attempted = m.units();
    let untraced_wall = median(&m.walls());
    let log = Arc::new(Mutex::new(SpanLog::default()));

    // 1. The recorded pass.
    let (recorded, steal) = recorded_pass(plan, work, &m, &log)?;
    attempted += recorded.units.len() as u64;
    let expected = golden::rows(&m.passes[0]);
    for (row, want) in golden::rows(&recorded).iter().zip(&expected) {
        if row != want {
            failed += 1;
            problems.push(format!("recorded pass differs: {row}"));
        }
    }

    // 2. The replica pass.
    let r = replica_pass(plan, &m, &log)?;
    attempted += r.units;
    failed += r.mismatches.len() as u64;
    problems.extend(r.mismatches.iter().cloned());

    // 3. References and direct calls.
    let mut cache_overhead = 0.0;
    let mut steal_overhead = 0.0;
    let mut digest_mismatches = 0;
    let mut corpus = CorpusTotals::default();
    match plan.workload {
        Workload::Bounded => {
            let opts = PassOptions {
                cache: false,
                ..PassOptions::measured(plan, work)
            };
            let uncached = pass(plan, &m.inputs, &opts)?;
            cache_overhead = ratio(untraced_wall, secs(uncached.wall_nanos));
        }
        Workload::Steal => {
            let opts = PassOptions {
                steal_workers: 1,
                digests: true,
                ..PassOptions::measured(plan, work)
            };
            let serial = pass(plan, &m.inputs, &opts)?;
            steal_overhead = ratio(untraced_wall, secs(serial.wall_nanos));
            digest_mismatches = stolen_vs_serial(&recorded, &serial);
            failed += digest_mismatches;
            if digest_mismatches > 0 {
                problems.push(format!(
                    "{digest_mismatches} stolen units differ from serial"
                ));
            }
        }
        Workload::CampaignCold | Workload::CampaignResume => {
            let dir = match &m.inputs.corpus_dir {
                Some(resumed) => resumed.clone(),
                None => PassOptions::measured(plan, work).corpus_dir,
            };
            corpus = corpus_calls(&m, &dir, &log)?;
            failed += corpus.replay_failures;
            problems.extend(corpus.problems.iter().cloned());
        }
        Workload::Study => {}
    }

    let spans = dir.join(format!("{}.spans.jsonl", plan.workload.name()));
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&spans, lock(&log).to_jsonl()))
        .map_err(|e| format!("cannot write {}: {e}", spans.display()))?;

    let metrics = layer_metrics(&LayerInputs {
        workload: plan.workload,
        m: &m,
        recorded: &recorded,
        steal,
        r: &r,
        corpus: &corpus,
        cache_overhead,
        steal_overhead,
        digest_mismatches,
        untraced_wall,
    });
    Ok(Report {
        workload: plan.workload,
        seed: plan.seed,
        traced: true,
        notes: vec![
            format!(
                "{} untraced passes, 1 recorded pass, 1 replica pass of {} units",
                m.passes.len(),
                r.units
            ),
            format!(
                "{} of {} replica units reproduce their untraced schedules and executions",
                r.units - r.mismatches.len() as u64,
                r.units
            ),
            format!("spans: {}", spans.display()),
        ],
        metrics,
        attempted,
        failed,
        problems,
    })
}

/// The measured pass with the span recorder attached (and, in `steal`,
/// the DFS digest streams collected).
fn recorded_pass(
    plan: &Plan,
    work: &Path,
    m: &Measured,
    log: &Arc<Mutex<SpanLog>>,
) -> Result<(PassRun, StealCounts), String> {
    let span = lock(log).open(0, "bench", "", "recorded");
    let recorder = Arc::new(SpanRecorder::new(Arc::clone(log), span));
    let opts = PassOptions {
        telemetry: Telemetry::new(vec![Box::new(Arc::clone(&recorder))]),
        digests: plan.workload == Workload::Steal,
        ..PassOptions::measured(plan, work)
    };
    let recorded = pass(plan, &m.inputs, &opts)?;
    lock(log).close(span, recorded.units.len() as u64);
    Ok((recorded, recorder.steal_counts()))
}

/// Units whose stolen run differs from the serial one: digest streams for
/// DFS, statistics for IPB/IDB.
fn stolen_vs_serial(stolen: &PassRun, serial: &PassRun) -> u64 {
    let stats = stolen
        .units
        .iter()
        .zip(&serial.units)
        .filter(|(a, b)| a.stats != b.stats)
        .count();
    let digests = stolen
        .digests
        .iter()
        .zip(&serial.digests)
        .filter(|(a, b)| a != b)
        .count();
    (stats + digests) as u64
}

/// Re-drive every unit with probes attached and compare it with pass 1.
fn replica_pass(
    plan: &Plan,
    m: &Measured,
    log: &Arc<Mutex<SpanLog>>,
) -> Result<ReplicaTotals, String> {
    let pass_span = lock(log).open(0, "bench", "", "replica");
    let mut t = ReplicaTotals::default();
    let reference = &m.passes[0].units;
    let serial = ExploreLimits::with_schedule_limit(plan.limit);
    for (spec, _) in &m.inputs.programs {
        let start = lock(log).now();
        let built = Instant::now();
        let program = spec.program();
        let ns = built.elapsed().as_nanos() as u64;
        t.ir_ns += ns;
        lock(log).push(pass_span, "ir", spec.name, "", start, start + ns, 1);

        let mut config = m.inputs.config.clone();
        let mut techniques = SYSTEMATIC.to_vec();
        let mut limits = serial.clone();
        let mut trie: Option<ScheduleCache> = None;
        match plan.workload {
            Workload::Study => {
                let race = RacePhaseConfig {
                    runs: RACE_RUNS,
                    seed: plan.seed,
                    ..RacePhaseConfig::default()
                };
                let start = lock(log).now();
                let report = race_detection_phase(&program, &race);
                t.race_ns += report.nanos;
                t.race_executions += report.executions as u64;
                t.races += report.races.len() as u64;
                lock(log).push(
                    pass_span,
                    "race",
                    spec.name,
                    "",
                    start,
                    start + report.nanos,
                    report.executions as u64,
                );
                config = ExecConfig::with_racy_locations(report.racy_locations());
                techniques =
                    sct_harness::pipeline::study_techniques(&study_config(plan, &Telemetry::off()));
            }
            Workload::Bounded => {
                limits = bounded_limits(plan, true, &Telemetry::off());
                techniques = BOUNDED.map(|(t, _)| t).to_vec();
                trie = Some(ScheduleCache::new(limits.cache_max_bytes));
            }
            Workload::Steal => {}
            Workload::CampaignCold => trie = Some(ScheduleCache::default()),
            Workload::CampaignResume => {
                let dir = m.inputs.corpus_dir.as_ref().expect("resume corpus");
                let key = corpus_key(spec.name, &config);
                trie = Corpus::open(dir)
                    .and_then(|c| c.load_cache(spec.name, key))
                    .map_err(|e| e.to_string())?;
            }
        }
        for technique in techniques {
            let start_trie = trie.clone();
            let start = lock(log).now();
            let rep = replica(&program, &config, technique, &limits, start_trie);
            let end = lock(log).now();
            let p = &rep.probe;
            let want = reference.get(t.units as usize);
            let got = (rep.stats.schedules, rep.stats.executions);
            match want {
                Some(u) if u.benchmark == spec.name && u.technique == technique.label() => {
                    if got != (u.stats.schedules, u.stats.executions) {
                        t.mismatches.push(format!(
                            "replica {}/{}: (schedules, executions) {got:?}, untraced {:?}",
                            spec.name,
                            technique.label(),
                            (u.stats.schedules, u.stats.executions)
                        ));
                    }
                }
                _ => t.mismatches.push(format!(
                    "replica {}/{} has no untraced unit at position {}",
                    spec.name,
                    technique.label(),
                    t.units
                )),
            }
            let mut l = lock(log);
            let label = technique.label();
            let unit = l.push(
                pass_span,
                "explore",
                spec.name,
                label,
                start,
                end,
                rep.stats.schedules,
            );
            l.push(
                unit,
                "runtime",
                spec.name,
                label,
                start,
                start + p.runtime_ns(),
                p.executions,
            );
            l.push(
                unit,
                "sched",
                spec.name,
                label,
                start,
                start + p.sched_ns(),
                p.choose_calls,
            );
            if trie.is_some() {
                let cached = p.served_ns + p.executed_ns;
                l.push(
                    unit,
                    "cache",
                    spec.name,
                    label,
                    start,
                    start + cached,
                    p.served,
                );
            }
            drop(l);
            t.probe.add(p);
            t.units += 1;
            t.schedules += rep.stats.schedules;
            t.executions += rep.stats.executions;
            t.hits += rep.stats.cache_hits;
            t.bytes += rep.stats.cache_bytes;
            t.levels += rep.levels;
        }
    }
    lock(log).close(pass_span, t.units);
    Ok(t)
}

/// Timed direct calls into the corpus layer over the artifacts in `dir`:
/// load, decode, re-encode (which must reproduce the file byte for byte)
/// and the replay of every recorded bug prefix.
fn corpus_calls(
    m: &Measured,
    dir: &Path,
    log: &Arc<Mutex<SpanLog>>,
) -> Result<CorpusTotals, String> {
    let corpus = Corpus::open(dir).map_err(|e| e.to_string())?;
    let parent = lock(log).open(0, "bench", "", "corpus calls");
    let mut t = CorpusTotals::default();
    let timed = |ns: &mut u64, started: Instant| *ns += started.elapsed().as_nanos() as u64;
    for (spec, program) in &m.inputs.programs {
        let start = lock(log).now();
        let before = t.load_ns + t.decode_ns + t.encode_ns + t.replay_ns;
        let key = corpus_key(spec.name, &m.inputs.config);
        let path = corpus.cache_path(spec.name);
        let started = Instant::now();
        let loaded = corpus
            .load_cache(spec.name, key)
            .map_err(|e| e.to_string())?;
        timed(&mut t.load_ns, started);
        black_box(loaded);
        let data = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        t.bytes += data.len() as u64;
        let started = Instant::now();
        let decoded = cache_from_bytes(&data, key, &path).map_err(|e| e.to_string())?;
        timed(&mut t.decode_ns, started);
        let started = Instant::now();
        let encoded = cache_to_bytes(&decoded, key);
        timed(&mut t.encode_ns, started);
        if encoded != data {
            t.problems.push(format!(
                "{}: re-encoded trie differs from the file",
                spec.name
            ));
        }
        let bugs = corpus
            .load_bugs(spec.name)
            .map_err(|e| e.to_string())?
            .ok_or_else(|| format!("no bug corpus for {}", spec.name))?;
        for record in &bugs.records {
            let started = Instant::now();
            let outcome = replay_prefix(program, &bugs.config, &record.prefix);
            timed(&mut t.replay_ns, started);
            t.records += 1;
            if outcome.bug.as_ref() != Some(&record.bug) {
                t.replay_failures += 1;
                t.problems.push(format!(
                    "{}: prefix did not replay {}",
                    spec.name, record.bug
                ));
            }
        }
        let busy = t.load_ns + t.decode_ns + t.encode_ns + t.replay_ns - before;
        let calls = 3 + bugs.records.len() as u64;
        lock(log).push(parent, "corpus", spec.name, "", start, start + busy, calls);
    }
    lock(log).close(parent, m.inputs.programs.len() as u64);
    Ok(t)
}

struct LayerInputs<'a> {
    workload: Workload,
    m: &'a Measured,
    recorded: &'a PassRun,
    steal: StealCounts,
    r: &'a ReplicaTotals,
    corpus: &'a CorpusTotals,
    cache_overhead: f64,
    steal_overhead: f64,
    digest_mismatches: u64,
    untraced_wall: f64,
}

fn layer_metrics(x: &LayerInputs<'_>) -> Vec<Metric> {
    let (r, p, c) = (x.r, &x.r.probe, x.corpus);
    let replica = "replica pass";
    let busy = secs(p.runtime_ns());
    let visits = (r.executions + r.hits) as f64;
    let hits = x
        .recorded
        .units
        .iter()
        .map(|u| u.stats.cache_hits)
        .sum::<u64>() as f64;
    let runs = x
        .recorded
        .units
        .iter()
        .map(|u| u.stats.executions)
        .sum::<u64>() as f64;
    let untraced =
        |f: &dyn Fn(&PassRun) -> f64| median(&x.m.passes.iter().map(f).collect::<Vec<_>>());
    let render = untraced(&|p| secs(p.layers.render));
    let overhead = untraced(&|p| {
        let units: u64 = p.units.iter().map(|u| u.nanos).sum();
        secs(p.wall_nanos) - secs(p.layers.race) - secs(units) - secs(p.layers.render)
    });
    let study = x.workload == Workload::Study;
    let campaign = matches!(
        x.workload,
        Workload::CampaignCold | Workload::CampaignResume
    );
    let save = secs(x.recorded.layers.save);
    vec![
        metric("runtime.busy_s", busy, replica),
        metric("runtime.steps", p.steps as f64, replica),
        metric(
            "runtime.steps_per_execution",
            ratio(p.steps as f64, p.executions as f64),
            replica,
        ),
        metric("runtime.steps_per_s", ratio(p.steps as f64, busy), replica),
        metric("sched.choose_calls", p.choose_calls as f64, replica),
        metric(
            "sched.choice_ratio",
            ratio(p.choice_calls as f64, p.choose_calls as f64),
            replica,
        ),
        metric("sched.choose_s", secs(p.choose_ns), replica),
        metric("sched.begin_s", secs(p.begin_ns), replica),
        metric("sched.end_s", secs(p.end_ns), replica),
        metric("explore.schedules", r.schedules as f64, replica),
        metric("explore.executions", r.executions as f64, replica),
        metric("explore.visits", visits, "executions + cache hits"),
        metric(
            "explore.new_ratio",
            ratio(r.schedules as f64, visits),
            "schedules / visits",
        ),
        metric("explore.levels", r.levels as f64, replica),
        metric("cache.hits", r.hits as f64, replica),
        metric(
            "cache.hit_ratio",
            ratio(r.hits as f64, visits),
            "hits / visits",
        ),
        metric("cache.bytes", r.bytes as f64, "summed final trie estimates"),
        metric("cache.served_s", secs(p.served_ns), replica),
        metric("cache.executed_s", secs(p.executed_ns), replica),
        metric(
            "cache.overhead_ratio",
            x.cache_overhead,
            "cached / uncached pass wall",
        ),
        metric("steal.donations", x.steal.donations as f64, "recorded pass"),
        metric("steal.thefts", x.steal.thefts as f64, "recorded pass"),
        metric(
            "steal.idle_waits",
            x.steal.idle_waits as f64,
            "recorded pass",
        ),
        metric(
            "steal.overhead_ratio",
            x.steal_overhead,
            "stolen / one-worker pass wall",
        ),
        metric(
            "steal.digest_mismatches",
            x.digest_mismatches as f64,
            "stolen vs serial units",
        ),
        metric("corpus.bytes", c.bytes as f64, "trie files"),
        metric("corpus.encode_s", secs(c.encode_ns), "cache_to_bytes"),
        metric(
            "corpus.write_s",
            (save - secs(c.encode_ns)).max(0.0),
            "save - encode",
        ),
        metric(
            "corpus.save_s",
            save,
            "save_cache + save_bugs, recorded pass",
        ),
        metric(
            "corpus.harvest_s",
            secs(x.recorded.layers.harvest),
            "recorded pass",
        ),
        metric("corpus.load_s", secs(c.load_ns), "Corpus::load_cache"),
        metric("corpus.decode_s", secs(c.decode_ns), "cache_from_bytes"),
        metric(
            "corpus.served_ratio",
            if campaign {
                ratio(hits, hits + runs)
            } else {
                0.0
            },
            "hits / visits, recorded pass",
        ),
        metric("corpus.bug_records", c.records as f64, "bug corpus"),
        metric("corpus.replay_s", secs(c.replay_ns), "replay_prefix"),
        metric(
            "corpus.replay_failures",
            c.replay_failures as f64,
            "bug corpus",
        ),
        metric("race.phase_s", secs(r.race_ns), replica),
        metric("race.executions", r.race_executions as f64, replica),
        metric("race.races", r.races as f64, replica),
        metric("harness.render_s", render, "untraced median"),
        metric(
            "harness.overhead_s",
            if study { overhead } else { 0.0 },
            "pass - race - units - render, untraced median",
        ),
        metric("ir.build_s", secs(r.ir_ns), replica),
        metric(
            "bench.trace_overhead_ratio",
            ratio(secs(x.recorded.wall_nanos), x.untraced_wall),
            "recorded / untraced median pass wall",
        ),
    ]
}
