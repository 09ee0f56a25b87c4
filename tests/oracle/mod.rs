//! The differential oracle. Every way of running one search — serial,
//! stolen, cached, resumed, traced, budgeted — must report the same
//! statistics and, for a single bounded DFS, the same stream of terminal
//! digests. A mismatch panics with `Failing case: <benchmark> <search> <a>
//! vs <b> @ <settings>`, the statistics fields that differ and, when the
//! digest streams part, the first divergent visit with a `replay_prefix`
//! line that re-runs it.

use std::fmt::{self, Write as _};
use std::panic::{self, AssertUnwindSafe};

use sct::bench::benchmark_by_name;
use sct::core::cache::run_begun_schedule;
use sct::ir::Program;
use sct::prelude::*;
use sct::runtime::Execution;

/// The worker counts every differential runs at: serial, a small count, an
/// oversubscribed count, plus any extra count CI injects through
/// `SCT_TEST_WORKERS`.
pub fn differential_worker_counts() -> Vec<usize> {
    let mut counts = vec![1usize, 2, 8];
    if let Some(extra) = std::env::var("SCT_TEST_WORKERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        counts.push(extra.max(1));
    }
    counts
}

/// What a differential runs: a whole technique (statistics only), or one
/// bounded DFS (statistics and digest stream).
#[derive(Clone, Copy)]
pub enum Search {
    Technique(Technique),
    Bounded(BoundKind, u32),
}

impl fmt::Display for Search {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Search::Technique(technique) => f.write_str(technique.label()),
            Search::Bounded(BoundKind::None, _) => f.write_str("DFS"),
            Search::Bounded(BoundKind::Preemption, bound) => write!(f, "PB({bound})"),
            Search::Bounded(BoundKind::Delay, bound) => write!(f, "DB({bound})"),
        }
    }
}

/// Which statistics two sides must agree on.
#[derive(Clone, Copy)]
pub enum Same {
    /// Every field `ExplorationStats` equality compares.
    Everything,
    /// Everything but `executions`, `cache_hits` and `cache_bytes`: the only
    /// fields a schedule trie may change.
    ButCacheCounters,
}

impl Same {
    /// `stats` with the fields this comparison ignores cleared: the ones
    /// `ExplorationStats` equality skips (wall-clock time and environmental
    /// stops), and the trie's counters under `ButCacheCounters`.
    fn project(self, stats: &ExplorationStats) -> ExplorationStats {
        let mut stats = stats.clone();
        (stats.explore_nanos, stats.race_nanos) = (0, 0);
        (stats.deadline_exceeded, stats.engine_panic) = (false, false);
        if let Same::ButCacheCounters = self {
            stats.executions = 0;
            stats.cache_hits = 0;
            stats.cache_bytes = 0;
        }
        stats
    }
}

/// One search of one benchmark, with every shared access visible.
pub struct Case {
    bench: &'static str,
    pub program: Program,
    pub config: ExecConfig,
    search: Search,
}

/// What one side of a differential ran under and produced.
pub struct Side {
    pub label: &'static str,
    pub limits: ExploreLimits,
    pub stats: ExplorationStats,
    /// The counted schedules' terminal digests in visit order (empty for a
    /// technique).
    pub digests: Vec<TerminalDigest>,
}

impl fmt::Display for Case {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.bench, self.search)
    }
}

impl Case {
    pub fn new(bench: &'static str, search: Search) -> Case {
        let spec = benchmark_by_name(bench).unwrap_or_else(|| panic!("unknown benchmark {bench}"));
        Case {
            bench,
            program: spec.program(),
            config: ExecConfig::all_visible(),
            search,
        }
    }

    /// Run the search under `limits`, naming the case if the engine panics.
    pub fn side(&self, label: &'static str, limits: ExploreLimits) -> Side {
        let ran = panic::catch_unwind(AssertUnwindSafe(|| match self.search {
            Search::Technique(technique) => (
                explore::run_technique(&self.program, &self.config, technique, &limits),
                Vec::new(),
            ),
            Search::Bounded(kind, bound) => {
                explore_bounded_stealing_digests(&self.program, &self.config, kind, bound, &limits)
            }
        }));
        let (stats, digests) = ran.unwrap_or_else(|panic| {
            eprintln!("Failing case: {self} {label} @ {}", settings(&limits));
            panic::resume_unwind(panic)
        });
        Side {
            label,
            limits,
            stats,
            digests,
        }
    }

    /// Panic with a replayable report unless `a` and `b` agree under `same`
    /// and produced the same digest stream.
    pub fn assert_same(&self, same: Same, a: &Side, b: &Side) {
        let mut report = stats_diff(same, (a.label, &a.stats), (b.label, &b.stats));
        let streams = a.digests.len().max(b.digests.len());
        if let Some(index) = (0..streams).find(|&i| a.digests.get(i) != b.digests.get(i)) {
            report += &self.divergence(index, a, b);
        }
        if !report.is_empty() {
            panic!(
                "Failing case: {self} {} vs {} @ {}\n{report}",
                a.label,
                b.label,
                settings(&b.limits)
            );
        }
    }

    /// The first divergent visit: both digests, and the decision path a
    /// serial walk takes to it, checked against the digest it should replay.
    fn divergence(&self, index: usize, a: &Side, b: &Side) -> String {
        let digest = |side: &Side| match side.digests.get(index) {
            Some(digest) => format!("{digest:?}"),
            None => format!("<stream ended after {} visits>", side.digests.len()),
        };
        let mut out = format!(
            "first divergent visit: #{index}\n  {}: {}\n  {}: {}\n",
            a.label,
            digest(a),
            b.label,
            digest(b)
        );
        let side = if index < a.digests.len() { a } else { b };
        let Some((walked, path)) = self.walk_to(index, side.limits.por) else {
            let _ = writeln!(
                out,
                "a serial walk counts fewer than {} schedules",
                index + 1
            );
            return out;
        };
        let verdict = match [a, b]
            .iter()
            .find(|s| s.digests.get(index) == Some(&walked))
        {
            Some(side) => format!("reproduces {}'s digest", side.label),
            None => format!("reproduces neither side: {walked:?}"),
        };
        let path: Vec<String> = path.iter().map(|t| format!("{t:?}")).collect();
        let _ = write!(
            out,
            "decision path of visit #{index} ({verdict}):\n  \
             let program = sct::bench::benchmark_by_name({:?}).unwrap().program();\n  \
             let config = ExecConfig::all_visible();\n  \
             sct::core::corpus::replay_prefix(&program, &config, &[{}])\n",
            self.bench,
            path.join(", ")
        );
        out
    }

    /// Digest and decision path of counted visit `index` of a serial,
    /// uncached walk of this bounded search.
    fn walk_to(&self, index: usize, por: bool) -> Option<(TerminalDigest, Vec<ThreadId>)> {
        let Search::Bounded(kind, bound) = self.search else {
            unreachable!("only bounded searches have digest streams")
        };
        let mut dfs = BoundedDfs::new(kind.policy(), bound).with_sleep_sets(por);
        let mut exec = Execution::new_shared(&self.program, &self.config);
        let mut counted = 0;
        while dfs.begin_execution() {
            let (run, trace) = run_begun_schedule(&mut exec, &mut dfs, CacheHandle::Off, true);
            if dfs.current_execution_redundant() {
                continue;
            }
            if counted == index {
                return Some((run.digest(), trace.expect("a trace was asked for").schedule));
            }
            counted += 1;
        }
        None
    }
}

/// Panic with a report of the differing fields unless two harness rows agree
/// under `same`.
pub fn assert_same_rows(
    case: &str,
    same: Same,
    a: (&str, &ExplorationStats),
    b: (&str, &ExplorationStats),
) {
    let report = stats_diff(same, a, b);
    if !report.is_empty() {
        panic!("Failing case: {case} {} vs {}\n{report}", a.0, b.0);
    }
}

fn settings(limits: &ExploreLimits) -> String {
    format!(
        "workers={}, limit={}, por={}, cache={}",
        limits.steal_workers, limits.schedule_limit, limits.por, limits.cache
    )
}

/// One line per compared field that differs under `same`; empty when the
/// statistics agree.
fn stats_diff(same: Same, a: (&str, &ExplorationStats), b: (&str, &ExplorationStats)) -> String {
    let (sa, sb) = (same.project(a.1), same.project(b.1));
    if sa == sb {
        return String::new();
    }
    let mut out = String::from("differing statistics:\n");
    for ((field, va), (_, vb)) in fields(&sa).iter().zip(fields(&sb)) {
        if *va != vb {
            let _ = writeln!(out, "  {field}: {} = {va}, {} = {vb}", a.0, b.0);
        }
    }
    out
}

/// `(field, value)` for every field of the pretty `Debug` rendering, with
/// multi-line values joined onto one line.
fn fields(stats: &ExplorationStats) -> Vec<(String, String)> {
    let mut fields: Vec<(String, String)> = Vec::new();
    for line in format!("{stats:#?}").lines() {
        let Some(rest) = line.strip_prefix("    ") else {
            continue; // the `ExplorationStats {` and `}` lines
        };
        match rest.split_once(": ") {
            Some((field, value)) if field.chars().all(|c| c.is_ascii_lowercase() || c == '_') => {
                fields.push((field.to_string(), value.trim_end_matches(',').to_string()));
            }
            _ => {
                let (_, value) = fields.last_mut().expect("a field opens the value");
                let rest = rest.trim();
                if !value.ends_with('(') && !rest.starts_with(')') {
                    value.push(' ');
                }
                value.push_str(rest.trim_end_matches(','));
            }
        }
    }
    fields
}
