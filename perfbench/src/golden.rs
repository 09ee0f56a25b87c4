//! Correctness of a run's outputs: every pass must repeat pass 1, and pass 1
//! must match the golden file recorded for the workload.
//!
//! A golden row holds only the paper-visible results of a unit (the Table 3
//! columns). Mechanism counters — executions, cache hits and bytes, sleep-set
//! counts — are left out, so a cache or reduction change that keeps the
//! results is not a failure.

use crate::workload::{PassRun, Plan, UnitRun, Workload, DEFAULT_SEED};
use std::collections::BTreeMap;
use std::path::PathBuf;

pub const HEADER: &str = "benchmark\ttechnique\tschedules\tnew_schedules\tbuggy_schedules\t\
schedules_to_first_bug\tbug_kind\tfinal_bound\tbound_of_first_bug\tstop";

fn opt<T: ToString>(v: Option<T>) -> String {
    v.map_or_else(|| "-".to_string(), |v| v.to_string())
}

/// The golden row of one unit.
pub fn row(unit: &UnitRun) -> String {
    let s = &unit.stats;
    let stop = if s.complete {
        "complete"
    } else if s.hit_schedule_limit {
        "hit-limit"
    } else if s.bound_exhausted {
        "bound-exhausted"
    } else {
        "stopped"
    };
    [
        unit.benchmark.clone(),
        unit.technique.to_string(),
        s.schedules.to_string(),
        s.new_schedules_at_final_bound.to_string(),
        s.buggy_schedules.to_string(),
        opt(s.schedules_to_first_bug),
        opt(s.first_bug.as_ref().map(|b| b.kind())),
        opt(s.final_bound),
        opt(s.bound_of_first_bug),
        stop.to_string(),
    ]
    .join("\t")
}

/// Why a unit failed regardless of its results: an engine panic, a
/// deadline, or (when resuming) executing a program the corpus covers.
pub fn unit_fault(workload: Workload, unit: &UnitRun) -> Option<String> {
    let s = &unit.stats;
    let what = if s.engine_panic {
        "engine panic".to_string()
    } else if s.deadline_exceeded {
        "deadline exceeded".to_string()
    } else if workload == Workload::CampaignResume && s.executions > 0 {
        format!("{} executions after resume (expected 0)", s.executions)
    } else {
        return None;
    };
    Some(format!("{}/{}: {what}", unit.benchmark, unit.technique))
}

/// Where a workload's golden file lives.
pub fn path(workload: Workload) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(format!("{}.tsv", workload.name()))
}

/// Whether pass 1 of a run is checked against the golden file: the files
/// hold the workload's default limit, at the default seed where the seed
/// matters.
pub fn applies(plan: &Plan) -> bool {
    plan.limit == Plan::new(plan.workload, plan.seed).limit
        && (!plan.workload.seeded() || plan.seed == DEFAULT_SEED)
}

/// The golden rows of a pass, one per unit in run order.
pub fn rows(pass: &PassRun) -> Vec<String> {
    pass.units.iter().map(row).collect()
}

/// Check a run's passes. Returns the number of failed unit runs (counted
/// once per unit and pass) and a description of each problem. Golden rows
/// are matched by benchmark and technique, so a filtered run checks its
/// slice.
pub fn check(plan: &Plan, passes: &[PassRun]) -> (u64, Vec<String>) {
    let workload = plan.workload;
    let mut failed = 0;
    let mut problems = Vec::new();
    let Some(first) = passes.first() else {
        return (0, vec!["no pass ran".to_string()]);
    };
    let first_rows = rows(first);
    for (p, pass) in passes.iter().enumerate() {
        for (i, unit) in pass.units.iter().enumerate() {
            let fault = unit_fault(workload, unit);
            let differs = p > 0 && first_rows.get(i) != Some(&row(unit));
            if differs {
                problems.push(format!("pass {} differs from pass 1: {}", p + 1, row(unit)));
            }
            if let Some(f) = &fault {
                problems.push(format!("pass {}: {f}", p + 1));
            }
            failed += u64::from(fault.is_some() || differs);
        }
        if pass.units.len() != first.units.len() {
            problems.push(format!("pass {} ran a different number of units", p + 1));
        }
    }
    if applies(plan) {
        match std::fs::read_to_string(path(workload)) {
            Ok(text) => {
                let key = |r: &str| r.split('\t').take(2).collect::<Vec<_>>().join("\t");
                let expected: BTreeMap<String, &str> =
                    text.lines().skip(1).map(|r| (key(r), r)).collect();
                for actual in &first_rows {
                    let want = expected.get(&key(actual)).copied();
                    if want != Some(actual.as_str()) {
                        failed += 1;
                        problems.push(format!(
                            "golden mismatch: expected {:?}, got {actual:?}",
                            want.unwrap_or("<no row>")
                        ));
                    }
                }
                if plan.filter.is_none() && expected.len() != first_rows.len() {
                    problems.push(format!(
                        "golden file has {} rows, the run {}",
                        expected.len(),
                        first_rows.len()
                    ));
                }
            }
            Err(e) => problems.push(format!(
                "cannot read {} ({e}); record it with --bless",
                path(workload).display()
            )),
        }
    }
    (failed, problems)
}

/// Write pass 1 of a run as the workload's golden file.
pub fn bless(workload: Workload, pass: &PassRun) -> Result<PathBuf, String> {
    let file = path(workload);
    let mut text = String::from(HEADER);
    for r in rows(pass) {
        text.push('\n');
        text.push_str(&r);
    }
    text.push('\n');
    std::fs::create_dir_all(file.parent().expect("golden dir"))
        .and_then(|()| std::fs::write(&file, text))
        .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
    Ok(file)
}
