//! `sct-benchmark compare BASE.json NEW.json`: the medians and quartiles of
//! two sets of runs (the `--json` files of two commits), one row per
//! workload and metric, with a verdict from the bounds in `BENCHMARK.json`.

use crate::json::{self, Json};
use crate::measure::{median, quartiles};
use crate::spec::{declared, MetricDecl};
use std::collections::BTreeMap;
use std::path::Path;

/// The outcome of comparing one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    WithinBound,
    Regressed,
    /// The base runs spread wider than the bound, so a change that small
    /// cannot be told from noise.
    Unresolved,
    /// A per-layer metric: it has no bound.
    NoBound,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::NoBound => "-",
        }
    }
}

/// Judge `new` runs against `base` runs of one metric. A regression is a
/// median worse by more than the bound; an improvement is a median better
/// by more than the base runs' quartile spread, with the new run winning at
/// least nine of ten pairs taken in run order. When the base spread exceeds
/// the bound the result is unresolved, unless every new run beats every
/// base run.
pub fn verdict(decl: &MetricDecl, base: &[f64], new: &[f64]) -> Verdict {
    let Some(bound) = decl.bound else {
        return Verdict::NoBound;
    };
    let better = decl.better;
    let (mb, mn) = (median(base), median(new));
    let (q1, q3) = quartiles(base);
    let spread = if mb == 0.0 {
        q3 - q1
    } else {
        (q3 - q1) / mb.abs()
    };
    let worse = better.worse_share(mb, mn);
    if spread > bound {
        let dominates = new
            .iter()
            .all(|&n| base.iter().all(|&b| better.worse_share(b, n) < 0.0));
        return if dominates {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    if worse > bound {
        return Verdict::Regressed;
    }
    let pairs = base.len().min(new.len());
    let wins = base
        .iter()
        .zip(new)
        .filter(|(&b, &n)| better.worse_share(b, n) < 0.0)
        .count();
    if worse < 0.0 && -worse > spread && wins * 10 >= pairs * 9 {
        Verdict::Improved
    } else {
        Verdict::WithinBound
    }
}

/// Values per (workload, metric) across the records of a `--json` file.
fn load(path: &Path) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("{}:{}: {what}", path.display(), i + 1);
        let record = json::parse(line).map_err(|e| bad(&e))?;
        let workload = record
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("no workload"))?;
        let metrics = record
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or_else(|| bad("no metrics"))?;
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| bad(&format!("{name} has no value")))?;
            values
                .entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(values)
}

fn summary(values: &[f64]) -> String {
    let (q1, q3) = quartiles(values);
    format!(
        "{:.6} [{:.6}, {:.6}] n={}",
        median(values),
        q1,
        q3,
        values.len()
    )
}

/// Compare two `--json` files. Returns the table and whether any metric
/// regressed.
pub fn compare(base: &Path, new: &Path) -> Result<(String, bool), String> {
    let (base, new) = (load(base)?, load(new)?);
    let mut out = String::from(
        "workload\tmetric\tunit\tbase median [q1, q3]\tnew median [q1, q3]\tchange\tverdict\n",
    );
    let mut regressed = false;
    for ((workload, name), b) in &base {
        let Some(n) = new.get(&(workload.clone(), name.clone())) else {
            continue;
        };
        let Some(decl) = declared().metric(name) else {
            continue;
        };
        let v = verdict(decl, b, n);
        regressed |= v == Verdict::Regressed;
        let (mb, mn) = (median(b), median(n));
        let change = if mb == 0.0 {
            "-".to_string()
        } else {
            format!("{:+.1}%", (mn - mb) / mb.abs() * 100.0)
        };
        out += &format!(
            "{workload}\t{name}\t{}\t{}\t{}\t{change}\t{}\n",
            decl.unit,
            summary(b),
            summary(n),
            v.label()
        );
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Better;

    fn decl(better: Better, bound: Option<f64>) -> MetricDecl {
        MetricDecl {
            name: "m".to_string(),
            unit: "s".to_string(),
            better,
            bound,
        }
    }

    const BASE: [f64; 10] = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00];

    fn scaled(k: f64) -> Vec<f64> {
        BASE.iter().map(|v| v * k).collect()
    }

    #[test]
    fn bound_comparison_gives_each_verdict() {
        let lower = decl(Better::Lower, Some(0.1));
        assert_eq!(verdict(&lower, &BASE, &scaled(1.05)), Verdict::WithinBound);
        assert_eq!(verdict(&lower, &BASE, &scaled(1.15)), Verdict::Regressed);
        assert_eq!(verdict(&lower, &BASE, &scaled(0.8)), Verdict::Improved);
        assert_eq!(verdict(&lower, &BASE, &BASE), Verdict::WithinBound);
        // A gain smaller than the base spread is not an improvement.
        let noisy: Vec<f64> = (0..10).map(|i| 1.0 + 0.01 * i as f64).collect();
        assert_eq!(verdict(&lower, &noisy, &scaled(1.0)), Verdict::WithinBound);
    }

    #[test]
    fn direction_follows_the_declaration() {
        let higher = decl(Better::Higher, Some(0.1));
        assert_eq!(verdict(&higher, &BASE, &scaled(0.85)), Verdict::Regressed);
        assert_eq!(verdict(&higher, &BASE, &scaled(1.3)), Verdict::Improved);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_unless_dominated() {
        let lower = decl(Better::Lower, Some(0.05));
        let wide = [1.0, 1.2, 0.8, 1.1, 0.9, 1.0, 1.25, 0.85, 1.0, 1.05];
        assert_eq!(verdict(&lower, &wide, &scaled(1.0)), Verdict::Unresolved);
        assert_eq!(verdict(&lower, &wide, &scaled(0.5)), Verdict::Improved);
        assert_eq!(
            verdict(&decl(Better::Lower, None), &wide, &BASE),
            Verdict::NoBound
        );
    }
}
