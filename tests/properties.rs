//! Property-based tests over the core invariants of the schedule-bounding
//! machinery, driven by randomly generated small concurrent programs.
//!
//! The generators are hand-rolled on the workspace's deterministic `rand`
//! shim rather than proptest (unavailable offline): every test enumerates a
//! fixed number of cases from per-case seeds, so failures are reproducible
//! by seed and the suite's cost is bounded.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sct::prelude::*;
use sct::runtime::{Execution, SchedulingPoint};
use sct_runtime::NoopObserver;

const CASES: u64 = 48;

/// A tiny vocabulary of thread-body actions from which random programs are
/// generated. Every action terminates, so generated programs always have a
/// finite schedule space.
#[derive(Debug, Clone)]
enum Action {
    StoreVar(usize, i64),
    LoadVar(usize),
    LockUnlock(usize),
    FetchAdd(usize, i64),
    Yield,
}

#[derive(Debug, Clone)]
struct RandomProgram {
    vars: usize,
    mutexes: usize,
    threads: Vec<Vec<Action>>,
}

fn gen_action(rng: &mut SmallRng, vars: usize, mutexes: usize) -> Action {
    match rng.gen_range(0..5usize) {
        0 => Action::StoreVar(rng.gen_range(0..vars), rng.gen_range(-3i64..4)),
        1 => Action::LoadVar(rng.gen_range(0..vars)),
        2 => Action::LockUnlock(rng.gen_range(0..mutexes)),
        3 => Action::FetchAdd(rng.gen_range(0..vars), rng.gen_range(1i64..3)),
        _ => Action::Yield,
    }
}

/// Generate a small random program shape: 2-3 vars, 1-2 mutexes, 1-3 threads
/// of 1-3 actions each (the same envelope the proptest strategies used).
fn gen_program(case: u64) -> RandomProgram {
    let mut rng = SmallRng::seed_from_u64(0x9e3779b9_u64.wrapping_mul(case + 1));
    let vars = rng.gen_range(2..4usize);
    let mutexes = rng.gen_range(1..3usize);
    let n_threads = rng.gen_range(1..4usize);
    let threads = (0..n_threads)
        .map(|_| {
            let len = rng.gen_range(1..4usize);
            (0..len)
                .map(|_| gen_action(&mut rng, vars, mutexes))
                .collect()
        })
        .collect();
    RandomProgram {
        vars,
        mutexes,
        threads,
    }
}

fn build(rp: &RandomProgram) -> sct::ir::Program {
    let mut p = ProgramBuilder::new("random-program");
    let vars: Vec<_> = (0..rp.vars).map(|i| p.global(format!("v{i}"), 0)).collect();
    let mutexes: Vec<_> = (0..rp.mutexes).map(|i| p.mutex(format!("m{i}"))).collect();
    let mut templates = Vec::new();
    for (ti, actions) in rp.threads.iter().enumerate() {
        let actions = actions.clone();
        let vars = vars.clone();
        let mutexes = mutexes.clone();
        let t = p.thread(format!("t{ti}"), move |b| {
            let scratch = b.local("scratch");
            for a in &actions {
                match a {
                    Action::StoreVar(v, c) => b.store(vars[*v], *c),
                    Action::LoadVar(v) => b.load(vars[*v], scratch),
                    Action::LockUnlock(m) => {
                        b.lock(mutexes[*m]);
                        b.unlock(mutexes[*m]);
                    }
                    Action::FetchAdd(v, c) => b.fetch_add(vars[*v], *c),
                    Action::Yield => b.yield_(),
                }
            }
        });
        templates.push(t);
    }
    p.main(move |b| {
        for &t in &templates {
            b.spawn(t);
        }
    });
    p.build().expect("random program builds")
}

/// For every executed schedule, the delay count dominates the preemption
/// count (the set of schedules with ≤ c delays is a subset of those with
/// ≤ c preemptions, §2 of the paper).
#[test]
fn delay_count_dominates_preemption_count() {
    for case in 0..CASES {
        let rp = gen_program(case);
        let program = build(&rp);
        let config = ExecConfig::all_visible();
        let seed = case * 7 + 1;
        let stats = explore::run_technique(
            &program,
            &config,
            Technique::Random { seed },
            &ExploreLimits::with_schedule_limit(5),
        );
        assert!(stats.schedules >= 1, "case {case}: no schedules explored");
        // Re-run one random execution directly to inspect the outcome.
        let mut rng_seed = seed;
        let outcome = sct::runtime::run_once(&program, &config, |point| {
            // xorshift-style cheap deterministic choice
            rng_seed = rng_seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let idx = (rng_seed >> 33) as usize % point.enabled.len();
            point.enabled[idx]
        });
        assert!(
            outcome.delay_count() >= outcome.preemption_count(),
            "case {case}: DC {} < PC {} ({rp:?})",
            outcome.delay_count(),
            outcome.preemption_count()
        );
        assert!(
            outcome.context_switches() >= outcome.preemption_count(),
            "case {case}: switches < preemptions"
        );
    }
}

/// Replaying a recorded schedule reproduces the identical final state.
#[test]
fn replay_is_deterministic() {
    for case in 0..CASES {
        let rp = gen_program(case);
        let program = build(&rp);
        let config = ExecConfig::all_visible();
        let mut rng_seed = case * 13 + 5;
        let first = sct::runtime::run_once(&program, &config, |point| {
            rng_seed = rng_seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let idx = (rng_seed >> 33) as usize % point.enabled.len();
            point.enabled[idx]
        });
        let schedule = first.schedule();
        let mut cursor = 0usize;
        let replay = sct::runtime::run_once(&program, &config, |point| {
            let choice = schedule
                .get(cursor)
                .copied()
                .unwrap_or_else(|| point.round_robin_choice());
            cursor += 1;
            if point.is_enabled(choice) {
                choice
            } else {
                point.round_robin_choice()
            }
        });
        assert_eq!(first.fingerprint, replay.fingerprint, "case {case}: {rp:?}");
        assert_eq!(first.schedule(), replay.schedule(), "case {case}");
        assert_eq!(first.is_buggy(), replay.is_buggy(), "case {case}");
    }
}

/// Bounded DFS never explores the same terminal schedule twice, and the
/// number of schedules within a bound grows monotonically with the bound.
#[test]
fn bounded_search_is_nonredundant_and_monotone() {
    for case in 0..CASES {
        let rp = gen_program(case);
        let program = build(&rp);
        let config = ExecConfig::all_visible();
        let limits = ExploreLimits::with_schedule_limit(3_000);

        let mut seen = std::collections::HashSet::new();
        let mut scheduler = BoundedDfs::new(BoundKind::Delay.policy(), 2);
        let mut duplicates = 0;
        let mut exec = Execution::new_shared(&program, &config);
        while seen.len() < 3_000 && scheduler.begin_execution() {
            exec.reset();
            let outcome = exec.run(&mut |p| scheduler.choose(p), &mut NoopObserver);
            scheduler.end_execution(&outcome);
            let key: Vec<usize> = outcome.schedule().iter().map(|t| t.index()).collect();
            if !seen.insert(key) {
                duplicates += 1;
            }
        }
        assert_eq!(
            duplicates, 0,
            "case {case}: bounded DFS revisited a terminal schedule"
        );

        let mut previous = 0;
        for bound in 0..3u32 {
            let stats = explore::bounded_dfs(&program, &config, BoundKind::Delay, bound, &limits);
            assert!(
                stats.schedules >= previous,
                "case {case}: schedules at bound {} ({}) < previous bound ({})",
                bound,
                stats.schedules,
                previous
            );
            previous = stats.schedules;
        }
    }
}

/// The round-robin (deterministic scheduler) execution has zero delays
/// and zero preemptions, and it is exactly the first schedule every
/// systematic technique explores.
#[test]
fn round_robin_schedule_costs_nothing() {
    for case in 0..CASES {
        let rp = gen_program(case);
        let program = build(&rp);
        let config = ExecConfig::all_visible();
        let outcome = sct::runtime::run_once(&program, &config, |p| p.round_robin_choice());
        assert_eq!(outcome.delay_count(), 0, "case {case}: {rp:?}");
        assert_eq!(outcome.preemption_count(), 0, "case {case}");

        let db0 = explore::bounded_dfs(
            &program,
            &config,
            BoundKind::Delay,
            0,
            &ExploreLimits::with_schedule_limit(100),
        );
        assert_eq!(
            db0.schedules, 1,
            "case {case}: delay bound 0 admits exactly the deterministic schedule"
        );
    }
}

/// Generated programs are data-race-free exactly when every shared
/// variable is only touched through atomics or under a single mutex; at
/// minimum, the detector must never report a race for programs whose
/// threads touch disjoint variables.
#[test]
fn race_detector_ignores_disjoint_accesses() {
    for n_threads in 1usize..4 {
        let mut p = ProgramBuilder::new("disjoint");
        let vars: Vec<_> = (0..n_threads)
            .map(|i| p.global(format!("v{i}"), 0))
            .collect();
        let mut templates = Vec::new();
        for (i, &v) in vars.iter().enumerate() {
            templates.push(p.thread(format!("t{i}"), move |b| {
                let r = b.local("r");
                b.store(v, 1);
                b.load(v, r);
            }));
        }
        p.main(move |b| {
            for &t in &templates {
                b.spawn(t);
            }
        });
        let program = p.build().unwrap();
        let report = sct::race::race_detection_phase(
            &program,
            &sct::race::RacePhaseConfig {
                runs: 3,
                seed: 9,
                ..Default::default()
            },
        );
        assert!(report.is_race_free(), "{n_threads} threads: {report:?}");
    }
}

/// The point `Execution::run` refills in place at every step equals the one
/// the public `scheduling_point(&enabled_threads())` wrapper builds from a
/// second execution stepped by hand to the same state, and a reused,
/// `reset` execution reproduces a fresh one exactly: for every SCTBench
/// program, under both visibility modes, over seeded random schedules.
#[test]
fn reused_point_buffer_matches_a_fresh_point_at_every_step() {
    const SCHEDULES: u64 = 20;
    for spec in sct::bench::all_benchmarks() {
        let program = spec.program();
        for config in [ExecConfig::all_visible(), ExecConfig::sync_only()] {
            let mut reused = Execution::new_shared(&program, &config);
            let mut mirror = Execution::new_shared(&program, &config);
            for schedule in 0..SCHEDULES {
                let context = format!("{} {:?} schedule {schedule}", spec.name, config.visibility);
                reused.reset();
                mirror.reset();
                mirror.start(&mut NoopObserver);
                let mut rng = SmallRng::seed_from_u64(spec.id as u64 * SCHEDULES + schedule);
                let mut choices = Vec::new();
                let outcome = reused.run(
                    &mut |point: &SchedulingPoint| {
                        let fresh = mirror.scheduling_point(&mirror.enabled_threads());
                        assert_eq!(*point, fresh, "{context}: step {}", choices.len());
                        let choice = point.enabled[rng.gen_range(0..point.enabled.len())];
                        mirror.step(choice, &mut NoopObserver);
                        choices.push(choice);
                        choice
                    },
                    &mut NoopObserver,
                );
                assert_eq!(outcome.fingerprint, mirror.fingerprint(), "{context}");

                let mut replay = choices.iter().copied();
                let fresh = Execution::new_shared(&program, &config)
                    .run(&mut |_| replay.next().unwrap(), &mut NoopObserver);
                assert_eq!(outcome.steps, fresh.steps, "{context}");
                assert_eq!(outcome.fingerprint, fresh.fingerprint, "{context}");
                assert_eq!(outcome.bug, fresh.bug, "{context}");
            }
        }
    }
}
