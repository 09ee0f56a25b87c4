//! Cross-crate integration tests: the full pipeline (race detection →
//! systematic / randomised exploration) on selected SCTBench benchmarks, and
//! the headline comparative results of the paper on the subset that is cheap
//! enough to run in a unit-test budget.

mod oracle;

use oracle::{assert_same_rows, differential_worker_counts, Case, Same, Search};
use sct::bench::{all_benchmarks, benchmark_by_name, Suite};
use sct::harness::{fig2a, fig2b, run_study, table2, HarnessConfig};
use sct::prelude::*;
use sct::race::{race_detection_phase, RacePhaseConfig};
use std::sync::Arc;

fn limits(n: u64) -> ExploreLimits {
    ExploreLimits::with_schedule_limit(n)
}

#[test]
fn every_benchmark_has_a_bug_reachable_by_some_technique_or_is_documented_as_hard() {
    // The two benchmarks whose bugs are documented as needing very deep
    // interleavings (safestack: ≥5 preemptions; twostage_100 and reorder_20
    // need the full 10,000-schedule budget) are excluded from this smoke test.
    let hard = [
        "misc.safestack",
        "CS.twostage_100_bad",
        "CS.reorder_5_bad",
        "CS.reorder_10_bad",
        "CS.reorder_20_bad",
        "radbench.bug2",
        "chess.SWSQ",
        "chess.IWSQWS",
        "parsec.ferret",
        "radbench.bug5",
    ];
    for spec in all_benchmarks() {
        if hard.contains(&spec.name) {
            continue;
        }
        let program = spec.program();
        let config = ExecConfig::all_visible();
        let idb = iterative_bounding(&program, &config, BoundKind::Delay, &limits(2_000));
        let rand = explore::run_technique(
            &program,
            &config,
            Technique::Random { seed: 11 },
            &limits(2_000),
        );
        assert!(
            idb.found_bug() || rand.found_bug(),
            "{}: neither IDB nor Rand found the bug within 2,000 schedules",
            spec.name
        );
    }
}

#[test]
fn delay_bounding_dominates_preemption_bounding_on_the_cs_suite_subset() {
    // Figure 2a's key relationship: every bug IPB finds, IDB finds too.
    let subset: Vec<_> = all_benchmarks()
        .into_iter()
        .filter(|b| b.suite == Suite::Cs)
        .filter(|b| b.paper.threads <= 6)
        .collect();
    assert!(subset.len() >= 10);
    for spec in subset {
        let program = spec.program();
        let config = ExecConfig::all_visible();
        let lim = limits(1_000);
        let ipb = iterative_bounding(&program, &config, BoundKind::Preemption, &lim);
        let idb = iterative_bounding(&program, &config, BoundKind::Delay, &lim);
        if ipb.found_bug() {
            assert!(
                idb.found_bug(),
                "{}: IPB found the bug but IDB did not",
                spec.name
            );
        }
    }
}

#[test]
fn every_counted_schedule_costs_at_least_as_many_delays_as_preemptions() {
    // §2: a preemption skips the previous thread while it is still enabled,
    // and skipping an enabled thread is a delay, so no schedule's delay cost
    // is below its preemption cost. Checked on every counted digest of DFS
    // and DB(2), on every registry program; DB(2)'s schedules must also
    // cost at most 2 delays, which ties the digests' costs to the pricing
    // the search bounds (`delays_for`).
    for spec in all_benchmarks() {
        for (search, bound) in [
            (Search::Bounded(BoundKind::None, u32::MAX), u32::MAX),
            (Search::Bounded(BoundKind::Delay, 2), 2),
        ] {
            let case = Case::new(spec.name, search);
            for (i, d) in case.side("serial", limits(40)).digests.iter().enumerate() {
                assert!(
                    d.delays >= d.preemptions && d.delays <= bound,
                    "{case}: digest #{i} costs {} delays and {} preemptions",
                    d.delays,
                    d.preemptions
                );
            }
        }
    }
}

#[test]
fn race_detection_phase_feeds_systematic_exploration() {
    // stack_bad's bug is only schedulable when the racy accesses are visible
    // operations: with SyncOnly visibility the popper's unsynchronised loads
    // are invisible and the assertion can still fail, but the *schedule
    // granularity* differs. This test checks the full §5 pipeline: race
    // detection finds the racy loads, promoting them yields a bug.
    let spec = benchmark_by_name("CS.stack_bad").unwrap();
    let program = spec.program();
    let report = race_detection_phase(&program, &RacePhaseConfig::default());
    assert!(!report.is_race_free(), "stack_bad must exhibit data races");
    let config = ExecConfig::with_racy_locations(report.racy_locations());
    let stats = iterative_bounding(&program, &config, BoundKind::Delay, &limits(2_000));
    assert!(stats.found_bug());
}

#[test]
fn figure1_schedule_counts_follow_example_2() {
    // Example 2 of the paper: at bound 1, delay bounding explores strictly
    // fewer terminal schedules than preemption bounding, and both find the
    // Figure 1 bug; at bound 0 neither finds it.
    let mut p = ProgramBuilder::new("figure1");
    let x = p.global("x", 0);
    let y = p.global("y", 0);
    let z = p.global("z", 0);
    let t1 = p.thread("t1", |b| {
        b.store(x, 1);
        b.store(y, 1);
    });
    let t2 = p.thread("t2", |b| {
        b.store(z, 1);
    });
    let t3 = p.thread("t3", |b| {
        let rx = b.local("rx");
        let ry = b.local("ry");
        b.load(x, rx);
        b.load(y, ry);
        b.assert_cond(eq(rx, ry), "x == y");
    });
    p.main(|b| {
        b.spawn(t1);
        b.spawn(t2);
        b.spawn(t3);
    });
    let program = p.build().unwrap();
    let config = ExecConfig::all_visible();

    let pb0 = explore::bounded_dfs(&program, &config, BoundKind::Preemption, 0, &limits(10_000));
    let db0 = explore::bounded_dfs(&program, &config, BoundKind::Delay, 0, &limits(10_000));
    assert!(!pb0.found_bug() && !db0.found_bug());
    assert_eq!(db0.schedules, 1, "delay bound 0 is a single schedule");

    let pb1 = explore::bounded_dfs(&program, &config, BoundKind::Preemption, 1, &limits(10_000));
    let db1 = explore::bounded_dfs(&program, &config, BoundKind::Delay, 1, &limits(10_000));
    assert!(pb1.found_bug() && db1.found_bug());
    assert!(
        db1.schedules < pb1.schedules,
        "DB(1) = {} should explore fewer schedules than PB(1) = {}",
        db1.schedules,
        pb1.schedules
    );
}

#[test]
fn study_pipeline_reproduces_the_headline_shape_on_a_cheap_subset() {
    // A miniature version of the whole study over three suites. The shape we
    // check: (1) IDB finds at least as many bugs as IPB and DFS; (2) Rand
    // finds at least as many as IDB minus one (the paper: they are within one
    // benchmark of each other); (3) Table 2 counts are internally consistent.
    let config = HarnessConfig {
        schedule_limit: 400,
        race_runs: 5,
        seed: 5,
        use_race_phase: true,
        static_phase: false,
        include_pct: false,
        workers: 2,
        por: false,
        cache: false,
        steal_workers: 1,
        corpus_dir: None,
        resume: false,
        ..Default::default()
    };
    let mut results = run_study(&config, Some("splash2")).unwrap();
    let more = run_study(&config, Some("CS.din_phil")).unwrap();
    let cs = run_study(&config, Some("CS.reorder_3")).unwrap();
    results.benchmarks.extend(more.benchmarks);
    results.benchmarks.extend(cs.benchmarks);
    assert_eq!(results.benchmarks.len(), 3 + 6 + 1);

    let a = fig2a(&results);
    assert!(a.total_b() >= a.total_a(), "IDB must dominate IPB");
    assert!(a.total_b() >= a.total_c(), "IDB must dominate DFS");
    let b = fig2b(&results);
    assert!(b.total_b() + 1 >= b.total_a(), "Rand within one of IDB");

    let t2 = table2(&results);
    assert!(t2.contains("Bug found with DB = 0"));
}

// ---------------------------------------------------------------------------
// Sleep-set partial-order reduction: the differential-testing harness.
// ---------------------------------------------------------------------------

/// Unbounded DFS over `program`, optionally with sleep sets, within a cap on
/// started executions. Returns `None` when the space is intractable (cap hit
/// or divergence); otherwise the set of distinct bugs (Debug-formatted), the
/// set of terminal-state fingerprints of *non-buggy* executions, and the
/// number of explored (counted) schedules.
///
/// Buggy executions stop mid-trace at the failing operation, so two
/// equivalent interleavings can halt at different intermediate states; their
/// fingerprints are therefore not comparable across the reduction, while the
/// bugs themselves and all non-buggy terminal states must match exactly.
fn dfs_exploration_sets(
    program: &sct::ir::Program,
    por: bool,
    cap: u64,
) -> Option<(
    std::collections::BTreeSet<String>,
    std::collections::BTreeSet<u64>,
    u64,
)> {
    use sct::runtime::{Execution, NoopObserver};
    let config = ExecConfig::all_visible();
    let mut sched = BoundedDfs::unbounded().with_sleep_sets(por);
    let mut exec = Execution::new_shared(program, &config);
    let mut bugs = std::collections::BTreeSet::new();
    let mut fingerprints = std::collections::BTreeSet::new();
    let mut counted = 0u64;
    let mut started = 0u64;
    while sched.begin_execution() {
        started += 1;
        if started > cap {
            return None;
        }
        exec.reset();
        let outcome = exec.run(&mut |p| sched.choose(p), &mut NoopObserver);
        sched.end_execution(&outcome);
        if outcome.diverged {
            return None;
        }
        if sched.current_execution_redundant() {
            continue;
        }
        counted += 1;
        match &outcome.bug {
            Some(bug) => {
                bugs.insert(format!("{bug:?}"));
            }
            None => {
                fingerprints.insert(outcome.fingerprint);
            }
        }
    }
    assert!(sched.is_complete());
    Some((bugs, fingerprints, counted))
}

/// The SCTBench benchmarks whose full (unbounded, all-accesses-visible) DFS
/// space is small enough to exhaust in a unit-test budget. Kept explicit so
/// the differential suite stays fast; benchmarks that outgrow the cap are
/// skipped with the tractability counters below keeping the suite honest.
const TRACTABLE_DFS_BENCHMARKS: &[&str] = &[
    "CB.stringbuffer-jdk1.4",
    "CS.account_bad",
    "CS.arithmetic_prog_bad",
    "CS.bluetooth_driver_bad",
    "CS.carter01_bad",
    "CS.deadlock01_bad",
    "CS.din_phil2_sat",
    "CS.din_phil3_sat",
    "CS.din_phil4_sat",
    "CS.lazy01_bad",
    "CS.phase01_bad",
    "CS.reorder_3_bad",
    "CS.reorder_4_bad",
    "CS.sync01_bad",
    "CS.sync02_bad",
    "CS.twostage_bad",
    "inspect.qsort_mt",
    "misc.ctrace-test",
    "parsec.streamcluster3",
    "radbench.bug2",
    "radbench.bug3",
    "radbench.bug4",
    "radbench.bug6",
    "splash2.barnes",
    "splash2.lu",
];

#[test]
fn differential_sleep_set_dfs_matches_plain_dfs_on_every_tractable_benchmark() {
    // The oracle that proves the reduction safe: on every benchmark whose
    // schedule space plain DFS can exhaust, DFS with sleep sets must find
    // exactly the same set of bugs and exactly the same set of non-buggy
    // terminal states, while exploring no more — and on several benchmarks
    // strictly fewer — schedules.
    let cap = 16_000u64;
    let mut tractable = 0usize;
    let mut strictly_reduced = Vec::new();
    for name in TRACTABLE_DFS_BENCHMARKS {
        let spec = benchmark_by_name(name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
        let program = spec.program();
        let Some((plain_bugs, plain_fps, plain_n)) = dfs_exploration_sets(&program, false, cap)
        else {
            continue; // outgrew the cap; tractability floor below catches rot
        };
        let (por_bugs, por_fps, por_n) = dfs_exploration_sets(&program, true, cap)
            .expect("reduced search larger than the plain one");
        tractable += 1;
        assert_eq!(plain_bugs, por_bugs, "{name}: bug sets differ");
        assert_eq!(
            plain_fps, por_fps,
            "{name}: non-buggy terminal-state fingerprints differ"
        );
        assert!(
            por_n <= plain_n,
            "{name}: reduction explored more schedules ({por_n} vs {plain_n})"
        );
        if por_n < plain_n {
            strictly_reduced.push(*name);
        }
    }
    assert!(
        tractable >= 15,
        "only {tractable} benchmarks stayed tractable; the suite lost coverage"
    );
    assert!(
        strictly_reduced.len() >= 3,
        "sleep sets reduced only {strictly_reduced:?}; expected at least 3 benchmarks"
    );
}

// ---------------------------------------------------------------------------
// Schedule caching: the differential-testing harness.
// ---------------------------------------------------------------------------

/// The SCTBench benchmarks over which the cached-vs-uncached differential
/// suite runs iterative bounding. A mix of single-level rows (bug at bound
/// 0, where the cache has nothing to serve) and rows that climb several
/// bound levels (where the covered interior dominates); all fast enough for
/// a unit-test budget at a 1,000-schedule limit.
const CACHE_DIFFERENTIAL_BENCHMARKS: &[&str] = &[
    "CS.account_bad",
    "CS.arithmetic_prog_bad",
    "CS.bluetooth_driver_bad",
    "CS.carter01_bad",
    "CS.din_phil2_sat",
    "CS.din_phil3_sat",
    "CS.lazy01_bad",
    "CS.reorder_3_bad",
    "CS.reorder_4_bad",
    "CS.sync01_bad",
    "CS.sync02_bad",
    "CS.twostage_bad",
    "misc.ctrace-test",
    "splash2.lu",
];

#[test]
fn differential_cached_iterative_bounding_matches_uncached_on_sctbench() {
    // The oracle for the tentpole: on every suite benchmark, cached IPB/IDB
    // must report the exact statistics of the uncached driver — bug, bound
    // of first bug, schedule counts, budget/completeness flags — while
    // performing fewer real executions wherever the search climbs past one
    // bound level, and strictly fewer on at least three benchmarks per kind.
    for technique in [
        Technique::IterativePreemptionBounding,
        Technique::IterativeDelayBounding,
    ] {
        let mut strictly_reduced = Vec::new();
        for name in CACHE_DIFFERENTIAL_BENCHMARKS {
            let case = Case::new(name, Search::Technique(technique));
            let uncached = case.side("uncached", limits(1_000));
            let cached = case.side("cached", limits(1_000).with_cache(true));
            case.assert_same(Same::ButCacheCounters, &uncached, &cached);
            let (uncached, cached) = (uncached.stats, cached.stats);
            assert_eq!(
                cached.executions + cached.cache_hits,
                uncached.executions,
                "{case}: skipped executions must equal cache hits"
            );
            if cached.executions < uncached.executions {
                strictly_reduced.push(*name);
            }
        }
        assert!(
            strictly_reduced.len() >= 3,
            "{}: caching reduced executions only on {strictly_reduced:?}; expected ≥ 3",
            technique.label()
        );
    }
}

/// Iterative bounding driven directly through the cache API, collecting the
/// set of distinct bugs, the set of non-buggy terminal fingerprints of
/// *counted* schedules, the number of real program executions and the bound
/// of the first bug. Returns `None` when the run outgrows `cap` executions
/// or diverges (intractable for a unit-test budget).
#[allow(clippy::type_complexity)]
fn bounding_exploration_sets(
    program: &sct::ir::Program,
    kind: BoundKind,
    cached: bool,
    max_bound: u32,
    cap: u64,
) -> Option<(
    std::collections::BTreeSet<String>,
    std::collections::BTreeSet<u64>,
    u64,
    Option<u32>,
)> {
    use sct::core::cache::{run_begun_schedule, CacheHandle, ScheduleCache, ScheduleRun};
    use sct::runtime::Execution;
    let config = ExecConfig::all_visible();
    let mut exec = Execution::new_shared(program, &config);
    let mut cache = cached.then(ScheduleCache::default);
    let mut bugs = std::collections::BTreeSet::new();
    let mut fingerprints = std::collections::BTreeSet::new();
    let mut executions = 0u64;
    let mut bound_of_first_bug = None;
    for bound in 0..=max_bound {
        let mut scheduler = BoundedDfs::new(kind.policy(), bound);
        while scheduler.begin_execution() {
            let handle = match cache.as_mut() {
                Some(c) => CacheHandle::Local(c),
                None => CacheHandle::Off,
            };
            let (run, _) = run_begun_schedule(&mut exec, &mut scheduler, handle, false);
            if matches!(run, ScheduleRun::Executed(_)) {
                executions += 1;
                if executions > cap {
                    return None;
                }
            }
            if scheduler.current_execution_redundant() {
                continue;
            }
            if run.cost(kind) != bound && bound != 0 {
                continue;
            }
            let digest = run.digest();
            if digest.diverged {
                return None;
            }
            match &digest.bug {
                Some(b) => {
                    bugs.insert(format!("{b:?}"));
                }
                None => {
                    fingerprints.insert(digest.fingerprint);
                }
            }
        }
        if !bugs.is_empty() {
            // Same rule as the driver: complete the bound of the first bug,
            // then stop.
            if bound_of_first_bug.is_none() {
                bound_of_first_bug = Some(bound);
            }
            break;
        }
        if scheduler.is_complete() && !scheduler.was_pruned() {
            break;
        }
    }
    Some((bugs, fingerprints, executions, bound_of_first_bug))
}

#[test]
fn differential_cached_bounding_preserves_bugs_and_terminal_fingerprints() {
    // Below the statistics: the cached search must see the *same worlds* —
    // identical bug sets and identical non-buggy terminal-state fingerprints
    // at every counted schedule — whether a schedule was executed or served
    // from the memo.
    let cap = 60_000u64;
    let mut compared = 0usize;
    let mut strictly_reduced = Vec::new();
    for name in [
        "CS.din_phil2_sat",
        "CS.lazy01_bad",
        "CS.reorder_3_bad",
        "CS.sync01_bad",
        "CS.twostage_bad",
        "misc.ctrace-test",
    ] {
        let spec = benchmark_by_name(name).unwrap();
        let program = spec.program();
        for kind in [BoundKind::Preemption, BoundKind::Delay] {
            let Some((bugs, fps, execs, first)) =
                bounding_exploration_sets(&program, kind, false, 8, cap)
            else {
                continue;
            };
            let (cbugs, cfps, cexecs, cfirst) =
                bounding_exploration_sets(&program, kind, true, 8, cap)
                    .expect("cached run larger than uncached");
            compared += 1;
            assert_eq!(bugs, cbugs, "{name}: {kind:?} bug sets differ");
            assert_eq!(fps, cfps, "{name}: {kind:?} fingerprints differ");
            assert_eq!(first, cfirst, "{name}: {kind:?} bound of first bug differs");
            assert!(cexecs <= execs, "{name}: {kind:?} cache added executions");
            if cexecs < execs {
                strictly_reduced.push((name, kind));
            }
        }
    }
    assert!(compared >= 6, "only {compared} runs stayed tractable");
    assert!(
        strictly_reduced.len() >= 3,
        "cache reduced only {strictly_reduced:?}"
    );
}

#[test]
fn cache_harness_pipeline_reports_identical_rows_with_fewer_executions() {
    // End-to-end through the harness: `--schedule-cache` must change no
    // verdict and no study row — only the execution/cache counters.
    let base = HarnessConfig {
        schedule_limit: 1_000,
        race_runs: 5,
        seed: 7,
        use_race_phase: false,
        static_phase: false,
        include_pct: false,
        workers: 2,
        por: false,
        cache: false,
        steal_workers: 1,
        corpus_dir: None,
        resume: false,
        ..Default::default()
    };
    let cache_cfg = HarnessConfig {
        cache: true,
        ..base.clone()
    };
    for name in ["CS.reorder_4_bad", "CS.twostage_bad"] {
        let spec = benchmark_by_name(name).unwrap();
        let plain = sct::harness::pipeline::run_benchmark(&spec, &base).unwrap();
        let cached = sct::harness::pipeline::run_benchmark(&spec, &cache_cfg).unwrap();
        for label in ["IPB", "IDB", "DFS", "Rand", "MapleAlg"] {
            let p = plain.technique(label).unwrap();
            let c = cached.technique(label).unwrap();
            // Techniques without a covered interior are untouched.
            let same = match label {
                "DFS" | "Rand" => Same::Everything,
                _ => Same::ButCacheCounters,
            };
            assert_same_rows(
                &format!("{name} {label}"),
                same,
                ("plain", p),
                ("cached", c),
            );
        }
        for label in ["IPB", "IDB"] {
            let p = plain.technique(label).unwrap();
            let c = cached.technique(label).unwrap();
            assert!(
                c.cache_hits > 0 && c.executions < p.executions,
                "{name}: {label} cache saved nothing ({} vs {} executions)",
                c.executions,
                p.executions
            );
        }
    }
}

#[test]
fn por_harness_pipeline_finds_the_same_bugs_with_fewer_systematic_schedules() {
    // End-to-end through the harness: `--por` must not change which
    // techniques find the bug, and the systematic techniques must explore no
    // more schedules than without the reduction.
    let base = HarnessConfig {
        schedule_limit: 2_000,
        race_runs: 5,
        seed: 7,
        use_race_phase: false,
        static_phase: false,
        include_pct: false,
        workers: 2,
        por: false,
        cache: false,
        steal_workers: 1,
        corpus_dir: None,
        resume: false,
        ..Default::default()
    };
    let por_cfg = HarnessConfig {
        por: true,
        ..base.clone()
    };
    for name in ["CS.reorder_3_bad", "misc.ctrace-test"] {
        let spec = benchmark_by_name(name).unwrap();
        let plain = sct::harness::pipeline::run_benchmark(&spec, &base).unwrap();
        let por = sct::harness::pipeline::run_benchmark(&spec, &por_cfg).unwrap();
        for label in ["IPB", "IDB", "DFS", "Rand", "MapleAlg"] {
            assert_eq!(
                plain.found_by(label),
                por.found_by(label),
                "{name}: {label} changed its verdict under POR"
            );
        }
        let plain_dfs = plain.technique("DFS").unwrap();
        let por_dfs = por.technique("DFS").unwrap();
        assert!(
            por_dfs.schedules <= plain_dfs.schedules,
            "{name}: POR DFS explored more ({} vs {})",
            por_dfs.schedules,
            plain_dfs.schedules
        );
        assert!(
            por_dfs.slept > 0,
            "{name}: the reduction never put a thread to sleep"
        );
        // Randomised techniques are untouched by the toggle.
        assert_eq!(plain.technique("Rand"), por.technique("Rand"), "{name}");
    }
}

// ---------------------------------------------------------------------------
// Work-stealing frontier: the differential-testing harness.
// ---------------------------------------------------------------------------

#[test]
fn stolen_frontier_techniques_are_bit_identical_to_the_serial_driver() {
    // The oracle for the work-stealing frontier: splitting a systematic
    // technique's own search across stealing threads must change *nothing*
    // observable — the full `ExplorationStats` (schedules, executions, sleep
    // counters, cache counters, bounds, first-bug bookkeeping, budget flags)
    // stays bit-identical to the serial run at every worker count, under
    // every flag combination. Where the combination is unsound to steal
    // (POR with a pruning bound), the driver must fall back to serial, so
    // equality still holds by construction.
    for name in ["CS.din_phil2_sat", "CS.reorder_3_bad", "CS.twostage_bad"] {
        for technique in [
            Technique::Dfs,
            Technique::IterativePreemptionBounding,
            Technique::IterativeDelayBounding,
        ] {
            let case = Case::new(name, Search::Technique(technique));
            for (schedule_limit, por, cache) in [
                (7u64, false, false),
                (2_000, false, false),
                (2_000, true, false),
                (2_000, false, true),
                (2_000, true, true),
            ] {
                let base = limits(schedule_limit).with_por(por).with_cache(cache);
                let serial = case.side("serial", base.clone());
                for workers in differential_worker_counts() {
                    let stolen = case.side("stolen", base.clone().with_steal_workers(workers));
                    case.assert_same(Same::Everything, &serial, &stolen);
                }
            }
        }
    }
}

#[test]
fn stolen_levels_with_cache_and_por_match_the_serial_levels_under_truncation() {
    // Iterative bounding with the schedule cache and sleep sets in every
    // combination, at a limit that cuts a bound level mid-way and at one that
    // does not: the stolen levels must reproduce the serial statistics —
    // sleep counters, executions and the cache counters included (the fold
    // is the private trie's only writer, so the trie's own counters are
    // exact) — at every differential worker count.
    // POR levels under a pruning bound stay serial, so there equality holds
    // by construction.
    for name in ["CS.din_phil2_sat", "CS.reorder_3_bad", "CS.twostage_bad"] {
        for technique in [
            Technique::IterativePreemptionBounding,
            Technique::IterativeDelayBounding,
        ] {
            let case = Case::new(name, Search::Technique(technique));
            for (schedule_limit, por, cache) in [
                (7u64, true, false),
                (7, false, true),
                (7, true, true),
                (2_000, true, true),
            ] {
                let base = limits(schedule_limit).with_por(por).with_cache(cache);
                let serial = case.side("serial", base.clone());
                for workers in differential_worker_counts() {
                    let stolen = case.side("stolen", base.clone().with_steal_workers(workers));
                    case.assert_same(Same::Everything, &serial, &stolen);
                }
            }
        }
    }
}

#[test]
fn stolen_frontier_preserves_bug_sets_and_terminal_fingerprints() {
    // Below the statistics: the stolen search folds per-subtree results back
    // in exact serial DFS order, so the *stream* of terminal digests — every
    // counted schedule's bug or terminal-state fingerprint, in visit order —
    // must be identical to the serial stream, not merely equal as a set.
    let mut buggy_streams = 0usize;
    for name in ["CS.din_phil2_sat", "CS.reorder_3_bad", "CS.twostage_bad"] {
        for (kind, bound) in [
            (BoundKind::None, u32::MAX),
            (BoundKind::Preemption, 1),
            (BoundKind::Preemption, 2),
            (BoundKind::Delay, 1),
        ] {
            let case = Case::new(name, Search::Bounded(kind, bound));
            for por in [false, true] {
                let serial = case.side("serial", limits(2_000).with_por(por));
                for workers in differential_worker_counts() {
                    let stolen =
                        case.side("stolen", serial.limits.clone().with_steal_workers(workers));
                    case.assert_same(Same::Everything, &serial, &stolen);
                }
                // The derived observables the study reports — the set of
                // distinct bugs and of non-buggy terminal states — follow
                // from stream equality; track that the suite actually
                // exercises buggy streams rather than vacuous empty ones.
                if serial.digests.iter().any(|d| d.bug.is_some()) {
                    buggy_streams += 1;
                }
                assert_eq!(serial.stats.schedules, serial.digests.len() as u64);
            }
        }
    }
    assert!(
        buggy_streams >= 4,
        "only {buggy_streams} configurations produced a bug; the suite went vacuous"
    );
}

#[test]
fn the_oracle_prints_a_replayable_first_divergence() {
    // Sleep sets drop redundant schedules from the DFS digest stream, so the
    // oracle must reject the pair and report the first visit where the
    // streams part — an index, both digests, and a `replay_prefix` line that
    // re-runs the `por off` side's schedule at that index.
    let case = Case::new(
        "CS.reorder_3_bad",
        Search::Bounded(BoundKind::None, u32::MAX),
    );
    let plain = case.side("por off", limits(2_000));
    let reduced = case.side("por on", limits(2_000).with_por(true));
    let index = (0..)
        .find(|&i| plain.digests.get(i) != reduced.digests.get(i))
        .unwrap();
    let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        case.assert_same(Same::Everything, &plain, &reduced)
    }))
    .expect_err("the digest streams differ, so the oracle must fail");
    let report = panic.downcast_ref::<String>().expect("a formatted report");
    assert!(
        report.contains(&format!("first divergent visit: #{index}\n")),
        "{report}"
    );
    for side in [&plain, &reduced] {
        let digest = format!("{:?}", side.digests[index]);
        assert!(report.contains(&digest), "{report}");
    }
    let line = report
        .lines()
        .find(|line| line.contains("replay_prefix("))
        .unwrap_or_else(|| panic!("no replay line in {report}"));
    let path: Vec<ThreadId> = line
        .split_once("&[")
        .and_then(|(_, rest)| rest.strip_suffix("])"))
        .expect("a decision list")
        .split(", ")
        .map(|t| {
            let id = t
                .strip_prefix("ThreadId(")
                .and_then(|t| t.strip_suffix(')'));
            ThreadId(id.and_then(|id| id.parse().ok()).expect("a ThreadId"))
        })
        .collect();
    let outcome = corpus::replay_prefix(&case.program, &case.config, &path);
    assert_eq!(outcome.bug, plain.digests[index].bug);
    assert_eq!(outcome.fingerprint, plain.digests[index].fingerprint);
}

// ---------------------------------------------------------------------------
// Persistent schedule corpus ("campaign mode"): the resume differential.
// ---------------------------------------------------------------------------

/// A scratch corpus directory unique to this test process and test name.
fn scratch_corpus_dir(test: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sct-corpus-it-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// An empty campaign trie.
fn empty_trie() -> Arc<SharedCache> {
    Arc::new(SharedCache::of(ScheduleCache::default()))
}

/// `trie` serialized exactly as `Corpus::save_cache` writes it.
fn saved(trie: &SharedCache, key: u64) -> Vec<u8> {
    trie.with_live(|cache| corpus::cache_to_bytes(cache, key))
}

/// A campaign trie loaded from `bytes`, as a resumed study loads it.
fn loaded(bytes: &[u8], key: u64) -> Arc<SharedCache> {
    let cache = corpus::cache_from_bytes(bytes, key, std::path::Path::new("<mem>"))
        .expect("a saved trie must load back");
    Arc::new(SharedCache::of(cache))
}

#[test]
fn corpus_resume_is_bit_identical_to_the_cold_run_with_strictly_fewer_executions() {
    // The tentpole oracle: a run resumed from a saved trie must report the
    // exact statistics of the cold campaign run — which itself must match
    // the corpus-less driver — while every execution the resume skips
    // reappears as a cache hit. Because these spaces are fully covered by
    // the cold run, the resume must execute *nothing*; and since it learns
    // nothing new, re-saving the trie must reproduce the artifact
    // byte-for-byte. Holds for DFS/IPB/IDB × por × budget truncation at
    // every steal-worker count.
    for name in ["CS.din_phil2_sat", "CS.reorder_3_bad", "CS.twostage_bad"] {
        for technique in [
            Technique::Dfs,
            Technique::IterativePreemptionBounding,
            Technique::IterativeDelayBounding,
        ] {
            let case = Case::new(name, Search::Technique(technique));
            let key = corpus::corpus_key(name, &case.config);
            for (schedule_limit, por) in [(7u64, false), (2_000, false), (2_000, true)] {
                let base = limits(schedule_limit).with_por(por);
                let plain = case.side("corpus-less", base.clone());
                for workers in differential_worker_counts() {
                    let lim = base.clone().with_steal_workers(workers);
                    let trie = empty_trie();
                    let cold = case.side("cold", lim.clone().with_shared_cache(Some(trie.clone())));
                    case.assert_same(Same::ButCacheCounters, &plain, &cold);
                    let saved_trie = saved(&trie, key);
                    let resumed_trie = loaded(&saved_trie, key);
                    let resumed =
                        case.side("resumed", lim.with_shared_cache(Some(resumed_trie.clone())));
                    case.assert_same(Same::ButCacheCounters, &cold, &resumed);
                    let (cold, resumed) = (cold.stats, resumed.stats);
                    let ctx =
                        format!("{case} at limit {schedule_limit}, por={por}, {workers} workers");
                    assert_eq!(
                        resumed.executions + resumed.cache_hits,
                        cold.executions + cold.cache_hits,
                        "{ctx}: skipped executions must reappear as cache hits"
                    );
                    assert!(cold.executions > 0, "{ctx}: the cold run executed nothing");
                    assert_eq!(
                        resumed.executions, 0,
                        "{ctx}: the saved trie covers this run, yet the resume re-executed"
                    );
                    // The artifact is a fixed point of resume: only the fold
                    // inserts, in serial visit order, so even a truncated
                    // stolen run stores exactly the serial run's trie.
                    assert_eq!(
                        saved_trie,
                        saved(&resumed_trie, key),
                        "{ctx}: re-saving after a covered resume changed the artifact"
                    );
                }
            }
        }
    }
}

#[test]
fn corpus_answers_the_exhausted_at_limit_probe_without_executing() {
    // Satellite bugfix pin: when the budget runs out exactly as the space
    // does, a one-shot probe decides between `complete` and
    // `hit_schedule_limit`. On a resumed run the loaded trie can answer
    // every schedule — including the POR drain the probe may trigger — so
    // the resume must reach the same verdict as the cold run with zero
    // executions, both at the exact budget and one schedule under it.
    for name in ["CS.din_phil2_sat", "CS.reorder_3_bad", "CS.twostage_bad"] {
        let case = Case::new(name, Search::Technique(Technique::Dfs));
        let key = corpus::corpus_key(name, &case.config);
        for por in [false, true] {
            let exhaustive = case.side("exhaustive", limits(500_000).with_por(por)).stats;
            assert!(exhaustive.complete, "{name}: pick a tractable benchmark");
            let n = exhaustive.schedules;
            for budget in [n, n - 1] {
                let base = limits(budget).with_por(por);
                let trie = empty_trie();
                let cold = case.side("cold", base.clone().with_shared_cache(Some(trie.clone())));
                let resumed = base.with_shared_cache(Some(loaded(&saved(&trie, key), key)));
                let resumed = case.side("resumed", resumed);
                case.assert_same(Same::ButCacheCounters, &cold, &resumed);
                let ctx = format!("{name}: por={por}, budget {budget} of {n}");
                assert_eq!(
                    cold.stats.complete,
                    budget == n,
                    "{ctx}: the exact budget must be complete, one under it truncated"
                );
                assert_eq!(cold.stats.hit_schedule_limit, budget != n, "{ctx}");
                assert_eq!(
                    resumed.stats.executions, 0,
                    "{ctx}: the probe/drain re-executed despite a covering corpus"
                );
            }
        }
    }
}

#[test]
fn engine_epoch_pins_the_terminal_digest_stream() {
    // A saved trie stores terminal digests, and its key (`corpus_key`)
    // carries the engine epoch rather than the engine's behaviour. This pins
    // the digest stream of a fixed DFS on three benchmarks, so a change to
    // the interpreter's semantics cannot keep serving tries recorded before
    // it without someone deciding that they still hold.
    const PINNED: u64 = 0x9067_9228_66e4_2292;
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for name in ["CS.account_bad", "CS.reorder_3_bad", "CS.din_phil2_sat"] {
        let case = Case::new(name, Search::Bounded(BoundKind::None, u32::MAX));
        for digest in case.side("serial", limits(500)).digests {
            for byte in format!("{name} {digest:?}\n").bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    assert_eq!(
        hash, PINNED,
        "the terminal-digest stream of a fixed DFS changed, so tries saved by the \
         previous engine no longer describe this one: bump ENGINE_EPOCH in \
         crates/core/src/corpus.rs, then set PINNED here to {hash:#x}"
    );
}

#[test]
fn registry_programs_are_pinned() {
    // Racy-location sets, trie paths and corpus keys all name instructions by
    // their index in a template body, so the programs the builder emits are
    // pinned byte for byte: a builder refactor must leave every one alone.
    const PINNED: u64 = 0xc586_74c5_7652_3e02;
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for spec in all_benchmarks() {
        for byte in format!("{:?}", spec.program()).bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    assert_eq!(
        hash, PINNED,
        "a builder change moved an instruction of some registry program; every \
         Loc, racy-location set and trie path moves with it, so bump ENGINE_EPOCH \
         in crates/core/src/corpus.rs together with this pin: set PINNED to {hash:#x}"
    );
}

#[test]
fn corpus_resume_preserves_the_terminal_digest_stream() {
    // Below the statistics: a run resumed from the saved trie must serve the
    // *same schedules in the same order*, so the stream of terminal digests
    // of counted schedules is identical to both the cold campaign stream and
    // the corpus-less stream, serial and stolen. The full trie covers the
    // run, so its resume executes nothing.
    for name in ["CS.reorder_3_bad", "CS.twostage_bad"] {
        for (kind, bound) in [
            (BoundKind::None, u32::MAX),
            (BoundKind::Preemption, 2),
            (BoundKind::Delay, 1),
        ] {
            let case = Case::new(name, Search::Bounded(kind, bound));
            let key = corpus::corpus_key(name, &case.config);
            for por in [false, true] {
                let reference = case.side("corpus-less", limits(2_000).with_por(por));
                for workers in differential_worker_counts() {
                    let lim = reference.limits.clone().with_steal_workers(workers);
                    let trie = empty_trie();
                    let cold = case.side("cold", lim.clone().with_shared_cache(Some(trie.clone())));
                    case.assert_same(Same::ButCacheCounters, &reference, &cold);
                    let full = Some(loaded(&saved(&trie, key), key));
                    let resumed = case.side("resumed", lim.with_shared_cache(full));
                    case.assert_same(Same::ButCacheCounters, &cold, &resumed);
                    assert_eq!(resumed.stats.executions, 0, "{case}: resume re-executed");
                }
            }
        }
    }
}

#[test]
fn a_mid_run_checkpoint_resumes_to_the_cold_run_bit_for_bit() {
    // Crash-safety oracle for the periodic autosave: a checkpoint is exactly
    // the trie of a run truncated at the checkpoint's schedule count, so a
    // study SIGKILLed right after one and resumed at the full budget must
    // reproduce the cold run's terminal digest stream and statistics while
    // executing strictly less — at every steal-worker count.
    for name in ["CS.reorder_3_bad", "CS.twostage_bad"] {
        for (kind, bound) in [(BoundKind::None, u32::MAX), (BoundKind::Delay, 1)] {
            let case = Case::new(name, Search::Bounded(kind, bound));
            let key = corpus::corpus_key(name, &case.config);
            for workers in differential_worker_counts() {
                let full = limits(2_000).with_steal_workers(workers);
                let cold = case.side("cold", full.clone().with_shared_cache(Some(empty_trie())));
                // "Kill at the checkpoint": the trie after 40 schedules,
                // serialized exactly as the campaign autosave writes it.
                let partial = empty_trie();
                let checkpoint = limits(40).with_steal_workers(workers);
                case.side(
                    "checkpoint",
                    checkpoint.with_shared_cache(Some(partial.clone())),
                );
                let partial = Some(loaded(&saved(&partial, key), key));
                let resumed = case.side("checkpoint resumed", full.with_shared_cache(partial));
                case.assert_same(Same::ButCacheCounters, &cold, &resumed);
                assert!(
                    resumed.stats.executions < cold.stats.executions,
                    "{case}: the checkpoint saved nothing ({} vs {} executions)",
                    resumed.stats.executions,
                    cold.stats.executions
                );
            }
        }
    }
}

#[test]
fn harness_campaign_mode_persists_resumes_and_replays() {
    // End-to-end through the harness: `--corpus-dir` must write a trie and a
    // minimized bug corpus per benchmark, `--resume` must reproduce every
    // study row bit-for-bit (modulo the cache counters) while the systematic
    // techniques execute strictly less, every recorded bug prefix must
    // reproduce its bug in exactly one execution, and resuming under a
    // different exploration configuration must be a hard error rather than a
    // silent cold start.
    let dir = scratch_corpus_dir("harness");
    let base = HarnessConfig {
        schedule_limit: 400,
        race_runs: 3,
        seed: 7,
        use_race_phase: false,
        static_phase: false,
        include_pct: false,
        workers: 2,
        por: false,
        cache: false,
        steal_workers: 1,
        corpus_dir: Some(dir.clone()),
        resume: false,
        ..Default::default()
    };
    for name in ["CS.reorder_3_bad", "CS.twostage_bad"] {
        let spec = benchmark_by_name(name).unwrap();
        let cold = sct::harness::pipeline::run_benchmark(&spec, &base).unwrap();

        // Both artifacts exist, and every recorded bug prefix replays to its
        // recorded bug in exactly one execution.
        let corpus_dir = Corpus::open(&dir).unwrap();
        assert!(
            corpus_dir.cache_path(name).exists(),
            "{name}: no trie saved"
        );
        let bugs = corpus_dir
            .load_bugs(name)
            .unwrap()
            .unwrap_or_else(|| panic!("{name}: no bug corpus saved"));
        assert!(!bugs.records.is_empty(), "{name}: bug corpus is empty");
        let program = spec.program();
        for record in &bugs.records {
            let outcome = corpus::replay_prefix(&program, &bugs.config, &record.prefix);
            assert_eq!(
                outcome.bug.as_ref(),
                Some(&record.bug),
                "{name}: a minimized prefix of {} decisions failed to replay its bug",
                record.prefix.len()
            );
        }

        // Resume: identical rows, strictly cheaper systematic techniques.
        let resumed = sct::harness::pipeline::run_benchmark(
            &spec,
            &HarnessConfig {
                resume: true,
                ..base.clone()
            },
        )
        .unwrap();
        for label in ["IPB", "IDB", "DFS", "Rand", "MapleAlg"] {
            let c = cold.technique(label).unwrap();
            let r = resumed.technique(label).unwrap();
            // Techniques outside the trie are untouched by the corpus.
            let same = match label {
                "Rand" => Same::Everything,
                _ => Same::ButCacheCounters,
            };
            assert_same_rows(
                &format!("{name} {label}"),
                same,
                ("cold", c),
                ("resumed", r),
            );
        }
        for label in ["IPB", "IDB", "DFS"] {
            let c = cold.technique(label).unwrap();
            let r = resumed.technique(label).unwrap();
            assert_eq!(
                r.executions + r.cache_hits,
                c.executions + c.cache_hits,
                "{name}: {label} lost executions instead of converting them to hits"
            );
            assert!(
                r.executions < c.executions,
                "{name}: {label} resume saved nothing ({} vs {} executions)",
                r.executions,
                c.executions
            );
        }

        // A different execution configuration fingerprints differently:
        // resuming against it must refuse, not silently start cold.
        let mismatched = sct::harness::pipeline::run_benchmark(
            &spec,
            &HarnessConfig {
                use_race_phase: true,
                static_phase: false,
                resume: true,
                ..base.clone()
            },
        );
        assert!(
            matches!(mismatched, Err(CorpusError::KeyMismatch { .. })),
            "{name}: resuming under a different config must fail with KeyMismatch, got {mismatched:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The campaign study of `CS.reorder_3_bad` behind every campaign-artifact
/// test: truncated at 400 schedules, saving into `dir`.
fn campaign_config(dir: &std::path::Path, workers: usize, steal_workers: usize) -> HarnessConfig {
    HarnessConfig {
        schedule_limit: 400,
        race_runs: 3,
        seed: 7,
        use_race_phase: false,
        workers,
        steal_workers,
        corpus_dir: Some(dir.to_path_buf()),
        checkpoint_every: None,
        ..Default::default()
    }
}

#[test]
fn campaign_artifacts_are_byte_identical_at_any_worker_count() {
    // Only the fold inserts into the arena, in serial visit order, and a
    // benchmark's campaign searches run one at a time: the saved trie and
    // bug corpus are a function of the study, not of its threads — even
    // where stealing workers run past a truncating schedule limit.
    let name = "CS.reorder_3_bad";
    let spec = benchmark_by_name(name).unwrap();
    let artifacts = |workers: usize, steal_workers: usize| {
        let dir = scratch_corpus_dir(&format!("workers-{workers}-{steal_workers}"));
        let config = campaign_config(&dir, workers, steal_workers);
        sct::harness::pipeline::run_benchmark(&spec, &config).unwrap();
        let corpus = Corpus::open(&dir).unwrap();
        let read = |path: std::path::PathBuf| std::fs::read(path).unwrap();
        let saved = (read(corpus.cache_path(name)), read(corpus.bugs_path(name)));
        let _ = std::fs::remove_dir_all(&dir);
        saved
    };
    let (serial_trie, serial_bugs) = artifacts(1, 1);
    let (stolen_trie, stolen_bugs) = artifacts(2, 2);
    assert!(
        serial_trie == stolen_trie,
        "{name}: the saved trie depends on the worker counts"
    );
    assert!(
        serial_bugs == stolen_bugs,
        "{name}: the bug corpus depends on the worker counts"
    );
}

#[test]
fn a_stale_bug_corpus_fails_the_resume_before_anything_is_served() {
    // A bug record that no longer reproduces means the program or engine
    // changed under the corpus: `--resume` must refuse with `Stale` instead
    // of serving the old trie's rows.
    let name = "CS.reorder_3_bad";
    let spec = benchmark_by_name(name).unwrap();
    let dir = scratch_corpus_dir("stale");
    let config = campaign_config(&dir, 1, 1);
    sct::harness::pipeline::run_benchmark(&spec, &config).unwrap();
    let corpus = Corpus::open(&dir).unwrap();
    let mut bugs = corpus
        .load_bugs(name)
        .unwrap()
        .expect("the cold run saved its bugs");
    assert!(
        !bugs.records.is_empty(),
        "{name}: the cold run must record a bug"
    );
    bugs.records[0].bug = Bug::Deadlock {
        blocked: Vec::new(),
    };
    corpus.save_bugs(&bugs).unwrap();
    let resumed = sct::harness::pipeline::run_benchmark(
        &spec,
        &HarnessConfig {
            resume: true,
            ..config
        },
    );
    let _ = std::fs::remove_dir_all(&dir);
    match resumed {
        Err(error @ CorpusError::Stale { .. }) => {
            assert!(error.to_string().contains("rerun cold"), "{error}")
        }
        other => panic!("{name}: a doctored bug corpus must fail with Stale, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Fault tolerance: wall-clock deadlines and crash-safe checkpoints.
// ---------------------------------------------------------------------------

#[test]
fn time_budgets_are_invisible_until_they_fire() {
    // The deadline check sits at schedule boundaries, so a budget generous
    // enough never to fire must leave every statistic bit-identical to the
    // unbudgeted run (`ExplorationStats` equality already ignores the
    // wall-clock fields), at every steal-worker count. A zero budget is the
    // other extreme: the driver must stop before schedule 1, report the
    // empty partial counts, and claim neither completion nor a
    // schedule-limit stop — `deadline_exceeded` alone explains the row.
    let generous = Some(std::time::Duration::from_secs(3_600));
    let zero = Some(std::time::Duration::ZERO);
    let techniques = [
        Technique::Dfs,
        Technique::IterativePreemptionBounding,
        Technique::IterativeDelayBounding,
        Technique::Random { seed: 11 },
        Technique::Pct { depth: 3, seed: 11 },
        Technique::MapleLike {
            profiling_runs: 3,
            seed: 11,
        },
    ];
    for name in ["CS.reorder_3_bad", "CS.twostage_bad"] {
        for technique in techniques {
            let case = Case::new(name, Search::Technique(technique));
            for workers in differential_worker_counts() {
                let base = limits(300).with_steal_workers(workers);
                let plain = case.side("unbudgeted", base.clone());
                let budgeted =
                    case.side("generous budget", base.clone().with_time_budget(generous));
                let ctx = format!("{case} with {workers} steal workers");
                assert!(
                    !budgeted.stats.deadline_exceeded,
                    "{ctx}: a one-hour budget fired"
                );
                case.assert_same(Same::Everything, &plain, &budgeted);

                let starved = case.side("zero budget", base.with_time_budget(zero)).stats;
                assert!(starved.deadline_exceeded, "{ctx}: a zero budget must fire");
                assert_eq!(
                    starved.schedules, 0,
                    "{ctx}: the run must stop before schedule 1"
                );
                assert!(
                    !starved.complete && !starved.hit_schedule_limit && !starved.bound_exhausted,
                    "{ctx}: a deadline stop must not masquerade as any other stop"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Static analysis: the soundness oracle against the dynamic phases.
// ---------------------------------------------------------------------------

#[test]
fn static_race_candidates_are_a_sound_superset_of_the_dynamic_detector() {
    // The analyzer's claim is soundness, not precision: on every benchmark,
    // every race the dynamic FastTrack phase reports must appear among the
    // static candidates, and every dynamically promoted location must be a
    // statically promoted one. (The reverse — static candidates the dynamic
    // runs never witness — is expected imprecision, e.g. join-blind MHP.)
    use sct::analysis::analyze;
    let mut with_dynamic_races = 0usize;
    for spec in all_benchmarks() {
        let program = spec.program();
        let report = race_detection_phase(&program, &RacePhaseConfig::default());
        let analysis = analyze(&program);
        let pairs = analysis.candidate_pairs();
        let locations = analysis.candidate_locations();
        for race in &report.races {
            let key = if race.first <= race.second {
                (race.first, race.second)
            } else {
                (race.second, race.first)
            };
            assert!(
                pairs.contains(&key),
                "{}: dynamic race {} <-> {} is missing from the static candidates",
                spec.name,
                race.first,
                race.second
            );
        }
        for loc in report.racy_locations() {
            assert!(
                locations.contains(&loc),
                "{}: dynamically racy location {loc} was not statically promoted",
                spec.name
            );
        }
        if !report.races.is_empty() {
            with_dynamic_races += 1;
        }
    }
    // Keep the oracle honest: the dynamic phase must actually exercise it.
    assert!(
        with_dynamic_races >= 10,
        "only {with_dynamic_races} benchmarks showed dynamic races; the differential is vacuous"
    );
}

#[test]
fn static_analysis_flags_every_deadlock_benchmark() {
    use sct::analysis::analyze;
    use sct::bench::BugKind;

    // (1) Registry ground truth: every benchmark whose documented bug is a
    // deadlock (lock-order inversion or lost wakeup) must be flagged.
    let mut deadlock_specs = 0usize;
    for spec in all_benchmarks() {
        if spec.bug_kind == BugKind::Deadlock {
            deadlock_specs += 1;
            let program = spec.program();
            assert!(
                analyze(&program).flags_deadlock(),
                "{}: deadlock benchmark escaped the static analysis",
                spec.name
            );
        }
    }
    assert!(
        deadlock_specs >= 8,
        "only {deadlock_specs} deadlock benchmarks in the registry; expected dining philosophers alone to provide 6"
    );

    // (2) Exploration ground truth: on every tractable benchmark whose
    // exhaustive DFS actually reaches a deadlock, the analyzer flags it.
    for name in TRACTABLE_DFS_BENCHMARKS {
        let spec = benchmark_by_name(name).unwrap();
        let program = spec.program();
        let Some((bugs, _, _)) = dfs_exploration_sets(&program, true, 16_000) else {
            continue;
        };
        if bugs.iter().any(|b| b.contains("Deadlock")) {
            assert!(
                analyze(&program).flags_deadlock(),
                "{name}: DFS reached a deadlock the analyzer did not flag"
            );
        }
    }

    // (3) Shape: the classic inversions are flagged through a lock-order
    // cycle specifically, and a racy-but-deadlock-free benchmark is clean.
    for name in ["CS.deadlock01_bad", "CS.din_phil2_sat"] {
        let program = benchmark_by_name(name).unwrap().program();
        assert!(
            !analyze(&program).lock_cycles.is_empty(),
            "{name}: expected a lock-order cycle"
        );
    }
    let program = benchmark_by_name("CS.account_bad").unwrap().program();
    assert!(!analyze(&program).flags_deadlock());
}

#[test]
fn static_phase_pipeline_finds_the_same_bugs_as_the_dynamic_race_phase() {
    // `--static-phase` replaces the ten uncontrolled race runs with the
    // analyzer's candidates. Because those candidates are a superset of the
    // dynamically racy locations, the promoted-visibility exploration must
    // find the same bugs on benchmarks with known bugs.
    let base = HarnessConfig {
        schedule_limit: 2_000,
        race_runs: 5,
        seed: 7,
        use_race_phase: true,
        static_phase: false,
        include_pct: false,
        workers: 2,
        por: false,
        cache: false,
        steal_workers: 1,
        corpus_dir: None,
        resume: false,
        ..Default::default()
    };
    let static_cfg = HarnessConfig {
        static_phase: true,
        ..base.clone()
    };
    for name in ["CS.stack_bad", "CS.reorder_3_bad", "CS.lazy01_bad"] {
        let spec = benchmark_by_name(name).unwrap();
        let dynamic = sct::harness::pipeline::run_benchmark(&spec, &base).unwrap();
        let fast = sct::harness::pipeline::run_benchmark(&spec, &static_cfg).unwrap();
        let found = |r: &sct::harness::BenchmarkResult| -> std::collections::BTreeSet<String> {
            r.techniques
                .iter()
                .filter(|t| t.found_bug())
                .map(|t| t.technique.clone())
                .collect()
        };
        let dynamic_found = found(&dynamic);
        let static_found = found(&fast);
        assert!(
            !dynamic_found.is_empty(),
            "{name}: the dynamic-phase run found no bug at all"
        );
        assert_eq!(
            dynamic_found, static_found,
            "{name}: bug sets differ between the race phases"
        );
        assert_eq!(
            fast.races, 0,
            "{name}: static phase must skip the race runs"
        );
        assert_eq!(
            fast.racy_locations, fast.static_locations,
            "{name}: static mode promotes exactly the candidate locations"
        );
    }
}

#[test]
fn pretty_rendering_of_account_bad_is_stable() {
    // A golden test over a representative benchmark: every construct it uses
    // (globals, mutexes, lock/unlock, loads/stores, locals arithmetic, spawn
    // with handles, join, assert) renders exactly like this. A diff here
    // means the IR text format changed — update deliberately.
    let program = benchmark_by_name("CS.account_bad").unwrap().program();
    let expected = "\
program CS.account_bad
  global balance x1 = [0]
  mutex m x1
  thread deposit [1 locals]
      0: lock m
      1: l0 = load balance
      2: unlock m
      3: l0 = (l0 + 100)
      4: lock m
      5: store balance = l0
      6: unlock m
      7: halt
  thread withdraw [1 locals]
      0: lock m
      1: l0 = load balance
      2: unlock m
      3: l0 = (l0 - 40)
      4: lock m
      5: store balance = l0
      6: unlock m
      7: halt
  thread check [1 locals]
      0: lock m
      1: l0 = load balance
      2: unlock m
      3: assert ((l0 == 0) || ((l0 == 100) || ((l0 == -40) || (l0 == 60)))) \"balance is consistent\"
      4: halt
  thread main (main) [4 locals]
      0: l0 = spawn deposit
      1: l1 = spawn withdraw
      2: l2 = spawn check
      3: join l0
      4: join l1
      5: join l2
      6: l3 = load balance
      7: assert (l3 == 60) \"final balance == 60\"
      8: halt
";
    assert_eq!(sct::ir::pretty::program_to_string(&program), expected);
}

// ---------------------------------------------------------------------------
// Exploration telemetry: tracing is observation-only.
// ---------------------------------------------------------------------------

#[test]
fn telemetry_tracing_changes_no_stats_or_digest_stream() {
    // The tentpole invariant of the telemetry layer: events are observations,
    // never inputs. Turning tracing on — with a recorder that sees every
    // emission, progress throttle removed — must leave both the full
    // `ExplorationStats` (timing is excluded from its equality) and the
    // serial-order terminal-digest stream bit-identical to the untraced run,
    // at every steal-worker count.
    use sct::core::telemetry::CountingRecorder;

    for name in ["CS.reorder_3_bad", "CS.twostage_bad"] {
        for (kind, bound) in [(BoundKind::None, u32::MAX), (BoundKind::Delay, 1)] {
            let case = Case::new(name, Search::Bounded(kind, bound));
            for workers in differential_worker_counts() {
                let off = limits(1_000).with_steal_workers(workers);
                let recorder = Arc::new(CountingRecorder::default());
                let telemetry = Telemetry::with_progress_interval(
                    vec![Box::new(Arc::clone(&recorder))],
                    std::time::Duration::ZERO,
                );
                let untraced = case.side("untraced", off.clone());
                let traced = case.side("traced", off.with_telemetry(telemetry));
                case.assert_same(Same::Everything, &untraced, &traced);
                assert!(
                    recorder.total() > 0,
                    "{case}: tracing at {workers} workers recorded nothing — the oracle is vacuous"
                );
            }
        }
    }
}

#[test]
fn every_producer_emits_the_same_bound_cache_and_bug_events() {
    // One fold emits the search events whichever producer runs a search. A
    // campaign-mode DFS and IDB over a tiny shared trie each report exactly
    // one cache_degraded, and the sequence of bound_level, cache_degraded
    // and bug_found events is identical on one thread and stolen across two.
    use sct::core::telemetry::BufferRecorder;

    let spec = benchmark_by_name("CS.reorder_3_bad").unwrap();
    let program = spec.program();
    let config = ExecConfig::all_visible();
    let search_events = |workers: usize, technique: Technique| {
        let recorder = Arc::new(BufferRecorder::default());
        let limits = limits(500)
            .with_steal_workers(workers)
            .with_shared_cache(Some(Arc::new(SharedCache::new(2_000))))
            .with_telemetry(Telemetry::new(vec![Box::new(Arc::clone(&recorder))]));
        explore::run_technique(&program, &config, technique, &limits);
        recorder
            .lines()
            .into_iter()
            .filter(|line| {
                ["bound_level", "cache_degraded", "bug_found"]
                    .iter()
                    .any(|kind| line.contains(&format!("\"type\":\"{kind}\"")))
            })
            .collect::<Vec<_>>()
    };
    for technique in [Technique::Dfs, Technique::IterativeDelayBounding] {
        let serial = search_events(1, technique);
        let degraded = serial
            .iter()
            .filter(|line| line.contains("\"type\":\"cache_degraded\""))
            .count();
        assert_eq!(degraded, 1, "{}: {serial:?}", technique.label());
        assert!(
            serial
                .iter()
                .any(|line| line.contains("\"type\":\"bug_found\"")),
            "{}: the oracle needs a bug",
            technique.label()
        );
        assert_eq!(
            serial,
            search_events(2, technique),
            "{}: events differ between the serial and the stolen search",
            technique.label()
        );
    }
}

#[test]
fn telemetry_off_is_the_default_and_records_nothing() {
    // The no-op path: default limits carry the off handle, an empty recorder
    // list collapses to it, and a run with the off handle equals a run with
    // no telemetry configured at all (the same code path, by construction —
    // emit closures are never even built, as the unit suite shows by panicking
    // inside them).
    assert!(!ExploreLimits::default().telemetry.is_on());
    assert!(!Telemetry::new(Vec::new()).is_on());

    let case = Case::new(
        "CS.reorder_3_bad",
        Search::Technique(Technique::IterativeDelayBounding),
    );
    let implicit = case.side("implicit off", limits(500));
    let explicit = case.side("explicit off", limits(500).with_telemetry(Telemetry::off()));
    case.assert_same(Same::Everything, &implicit, &explicit);
}

#[test]
fn study_trace_is_schema_valid_and_covers_the_event_families() {
    // End-to-end over the harness: a small cached, stealing study must emit a
    // trace in which every line validates against the event schema and every
    // event family of the tentpole appears — study/benchmark/technique
    // lifecycle, race phase, bound levels, steal activity, cache state and
    // bug discovery.
    use sct::core::telemetry::{validate_trace_line, BufferRecorder};

    let recorder = Arc::new(BufferRecorder::default());
    let config = HarnessConfig {
        schedule_limit: 300,
        race_runs: 3,
        cache: true,
        steal_workers: 2,
        workers: 2,
        telemetry: Telemetry::with_progress_interval(
            vec![Box::new(Arc::clone(&recorder))],
            std::time::Duration::ZERO,
        ),
        ..Default::default()
    };
    let results = run_study(&config, Some("CS.reorder")).unwrap();
    assert!(
        results.benchmarks.len() >= 3,
        "the CS.reorder filter should select several benchmarks"
    );

    let lines = recorder.lines();
    assert!(!lines.is_empty());
    let mut kinds = std::collections::BTreeSet::new();
    for line in &lines {
        validate_trace_line(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        let kind_field = line
            .split("\"type\":\"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .unwrap()
            .to_string();
        kinds.insert(kind_field);
    }
    for required in [
        "study_start",
        "study_finish",
        "benchmark_start",
        "benchmark_finish",
        "race_phase",
        "technique_start",
        "technique_finish",
        "bound_level",
        "progress",
        "cache_summary",
        "bug_found",
    ] {
        assert!(kinds.contains(required), "no {required} event in {kinds:?}");
    }
    // Steal activity: idle transitions always happen when two workers share
    // a frontier; donations/thefts depend on tree shape, so any of the three
    // proves the family is wired.
    assert!(
        ["worker_idle", "steal_donate", "steal_theft"]
            .iter()
            .any(|k| kinds.contains(*k)),
        "no steal-family event in {kinds:?}"
    );
}
