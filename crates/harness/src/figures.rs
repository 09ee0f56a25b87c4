//! Figure data: the Venn-style bug-finding overlaps of Figure 2 and the
//! scatter series of Figures 3 and 4. The harness emits them as text (for the
//! console) and CSV (for external plotting).

use crate::pipeline::StudyResults;
use sct_core::ExplorationStats;
use std::fmt::Write as _;

/// Counts for a three-set Venn diagram over benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VennCounts {
    /// Found only by the first technique.
    pub only_a: usize,
    /// Found only by the second technique.
    pub only_b: usize,
    /// Found only by the third technique.
    pub only_c: usize,
    /// Found by the first and second but not the third.
    pub ab: usize,
    /// Found by the first and third but not the second.
    pub ac: usize,
    /// Found by the second and third but not the first.
    pub bc: usize,
    /// Found by all three techniques.
    pub abc: usize,
    /// Found by none of the three.
    pub none: usize,
}

impl VennCounts {
    /// Total number of benchmarks whose bug was found by at least one of the
    /// three techniques.
    pub fn found_by_any(&self) -> usize {
        self.only_a + self.only_b + self.only_c + self.ab + self.ac + self.bc + self.abc
    }

    /// Number found by the first technique.
    pub fn total_a(&self) -> usize {
        self.only_a + self.ab + self.ac + self.abc
    }

    /// Number found by the second technique.
    pub fn total_b(&self) -> usize {
        self.only_b + self.ab + self.bc + self.abc
    }

    /// Number found by the third technique.
    pub fn total_c(&self) -> usize {
        self.only_c + self.ac + self.bc + self.abc
    }
}

fn venn(results: &StudyResults, a: &str, b: &str, c: &str) -> VennCounts {
    let mut counts = VennCounts::default();
    for bench in &results.benchmarks {
        let fa = bench.found_by(a);
        let fb = bench.found_by(b);
        let fc = bench.found_by(c);
        match (fa, fb, fc) {
            (true, false, false) => counts.only_a += 1,
            (false, true, false) => counts.only_b += 1,
            (false, false, true) => counts.only_c += 1,
            (true, true, false) => counts.ab += 1,
            (true, false, true) => counts.ac += 1,
            (false, true, true) => counts.bc += 1,
            (true, true, true) => counts.abc += 1,
            (false, false, false) => counts.none += 1,
        }
    }
    counts
}

/// Figure 2a: bug-finding overlap of the systematic techniques
/// (IPB vs IDB vs DFS).
pub fn fig2a(results: &StudyResults) -> VennCounts {
    venn(results, "IPB", "IDB", "DFS")
}

/// Figure 2b: bug-finding overlap of delay bounding against the
/// non-systematic techniques (IDB vs Rand vs MapleAlg).
pub fn fig2b(results: &StudyResults) -> VennCounts {
    venn(results, "IDB", "Rand", "MapleAlg")
}

/// Render a Venn-count structure as indented text.
pub fn venn_to_string(title: &str, names: [&str; 3], v: &VennCounts) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(out, "  only {:<9}: {}", names[0], v.only_a);
    let _ = writeln!(out, "  only {:<9}: {}", names[1], v.only_b);
    let _ = writeln!(out, "  only {:<9}: {}", names[2], v.only_c);
    let _ = writeln!(out, "  {} ∩ {} only : {}", names[0], names[1], v.ab);
    let _ = writeln!(out, "  {} ∩ {} only : {}", names[0], names[2], v.ac);
    let _ = writeln!(out, "  {} ∩ {} only : {}", names[1], names[2], v.bc);
    let _ = writeln!(out, "  all three      : {}", v.abc);
    let _ = writeln!(out, "  none           : {}", v.none);
    let _ = writeln!(
        out,
        "  totals         : {} = {}, {} = {}, {} = {}",
        names[0],
        v.total_a(),
        names[1],
        v.total_b(),
        names[2],
        v.total_c()
    );
    out
}

/// Figure 3 data: for every benchmark where at least one of IPB/IDB found the
/// bug, the number of schedules to the first bug (the "cross") and the total
/// number of schedules explored up to the bound that found the bug (the
/// "square"), for both techniques. Missing bugs are plotted at the schedule
/// limit, as in the paper. Returned as CSV.
pub fn scatter_fig3(results: &StudyResults) -> String {
    ipb_idb_scatter(results, "first_bug", |s| s.schedules_to_first_bug)
}

/// Figure 4 data: the worst-case number of schedules that might have to be
/// explored to find the bug within the bound (total non-buggy schedules), for
/// IPB and IDB, plus the same "square" totals as Figure 3. Returned as CSV.
pub fn scatter_fig4(results: &StudyResults) -> String {
    ipb_idb_scatter(
        results,
        "worst_case",
        ExplorationStats::worst_case_schedules_to_bug,
    )
}

/// One CSV row per benchmark where IPB or IDB found the bug: `metric` of
/// each technique (the schedule limit when it has none) and each one's
/// schedules explored, capped at the limit.
fn ipb_idb_scatter(
    results: &StudyResults,
    name: &str,
    metric: impl Fn(&ExplorationStats) -> Option<u64>,
) -> String {
    let limit = results.schedule_limit;
    let mut out = format!("id,benchmark,ipb_{name},idb_{name},ipb_total,idb_total\n");
    for b in &results.benchmarks {
        let ipb = b.technique("IPB");
        let idb = b.technique("IDB");
        if !(ipb.is_some_and(|s| s.found_bug()) || idb.is_some_and(|s| s.found_bug())) {
            continue;
        }
        let value = |s: Option<&ExplorationStats>| s.and_then(&metric).unwrap_or(limit);
        let total = |s: Option<&ExplorationStats>| s.map_or(limit, |s| s.schedules.min(limit));
        let _ = writeln!(
            out,
            "{},{},{},{},{},{}",
            b.id,
            b.name,
            value(ipb),
            value(idb),
            total(ipb),
            total(idb)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{run_study, HarnessConfig};

    fn results() -> StudyResults {
        let config = HarnessConfig {
            schedule_limit: 150,
            race_runs: 3,
            seed: 2,
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
        run_study(&config, Some("splash2")).unwrap()
    }

    #[test]
    fn venn_counts_partition_the_benchmarks() {
        let r = results();
        let v = fig2a(&r);
        assert_eq!(
            v.found_by_any() + v.none,
            r.benchmarks.len(),
            "Venn cells must partition the benchmark set"
        );
        let v2 = fig2b(&r);
        assert_eq!(v2.found_by_any() + v2.none, r.benchmarks.len());
        let text = venn_to_string("fig2a", ["IPB", "IDB", "DFS"], &v);
        assert!(text.contains("all three"));
    }

    #[test]
    fn idb_dominates_ipb_in_fig2a() {
        // Delay bounding explores a subset of preemption bounding's schedules
        // but iterative DB finds everything iterative PB finds on these
        // benchmarks (the paper's headline result); at minimum IDB's total
        // must not be smaller than IPB's on the splash2 subset.
        let v = fig2a(&results());
        assert!(v.total_b() >= v.total_a());
    }

    #[test]
    fn scatter_series_cover_exactly_the_found_benchmarks() {
        let r = results();
        let fig3 = scatter_fig3(&r);
        let fig4 = scatter_fig4(&r);
        // splash2 bugs are found by both bounding techniques.
        assert_eq!(fig3.lines().count(), 1 + 3);
        assert_eq!(fig4.lines().count(), 1 + 3);
        assert!(fig3.contains("splash2.fft"));
        assert!(fig4.contains("splash2.lu"));
    }
}
