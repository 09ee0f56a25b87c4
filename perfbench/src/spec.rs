//! The benchmark's declared workloads and metrics, read from the
//! `BENCHMARK.json` at the repository root. The file is compiled in, so the
//! names, units, directions and bounds this program prints and compares
//! cannot drift from the declaration.

use crate::json::{self, Json};
use std::sync::OnceLock;

/// The declaration file, as committed next to the benchmark.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// How much worse `new` reads than `base`, as a share of `base`
    /// (negative when `new` is better). A zero base compares absolutely.
    pub fn worse_share(self, base: f64, new: f64) -> f64 {
        let worse_by = match self {
            Better::Lower => new - base,
            Better::Higher => base - new,
        };
        if base == 0.0 {
            worse_by
        } else {
            worse_by / base.abs()
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDecl {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// The regression bound (a share of the base median); end-to-end
    /// metrics only.
    pub bound: Option<f64>,
}

/// Everything `BENCHMARK.json` declares that this program uses.
#[derive(Debug, Clone)]
pub struct Declared {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDecl>,
    pub per_layer: Vec<MetricDecl>,
}

impl Declared {
    /// The end-to-end or per-layer declaration of `name`.
    pub fn metric(&self, name: &str) -> Option<&MetricDecl> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

/// The compiled-in declaration.
pub fn declared() -> &'static Declared {
    static DECLARED: OnceLock<Declared> = OnceLock::new();
    DECLARED.get_or_init(|| parse_declared(BENCHMARK_JSON).expect("BENCHMARK.json is well-formed"))
}

/// Whether `name` is a legal workload or metric name: 1 to 64 characters
/// from `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn metrics(doc: &Json, key: &str, bounded: bool) -> Result<Vec<MetricDecl>, String> {
    let list = doc
        .get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("`{key}` must be a list"))?;
    list.iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("{key} entry needs a string `{f}`"))
            };
            let name = field("name")?;
            if !valid_name(name) {
                return Err(format!("invalid metric name {name:?}"));
            }
            let better = match field("better")? {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                other => return Err(format!("{name}: `better` is {other:?}")),
            };
            let bound = match (bounded, m.get("bound").and_then(Json::as_f64)) {
                (true, Some(b)) if b > 0.0 && b <= 0.25 => Some(b),
                (true, _) => return Err(format!("{name}: `bound` must be in (0, 0.25]")),
                (false, _) => None,
            };
            Ok(MetricDecl {
                name: name.to_string(),
                unit: field("unit")?.to_string(),
                better,
                bound,
            })
        })
        .collect()
}

/// Parse a `BENCHMARK.json` document.
pub fn parse_declared(text: &str) -> Result<Declared, String> {
    let doc = json::parse(text)?;
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_array)
        .ok_or("`workloads` must be a list")?
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| "workload needs a `name`".to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    let run_seconds = doc
        .get("run_seconds")
        .and_then(Json::as_f64)
        .filter(|s| s.fract() == 0.0 && (1.0..=60.0).contains(s))
        .ok_or("`run_seconds` must be a whole number from 1 to 60")? as u64;
    Ok(Declared {
        run_seconds,
        workloads,
        end_to_end: metrics(&doc, "end_to_end", true)?,
        per_layer: metrics(&doc, "per_layer", false)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_follow_the_pattern() {
        for ok in ["wall_s", "unit_ms_p90", "cache.hit_ratio", "a-b", "9lives"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".hidden",
            "_x",
            "has space",
            "slash/x",
            "ü",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn the_committed_declaration_is_well_formed_and_unique() {
        let d = declared();
        let mut names: Vec<&str> = d
            .workloads
            .iter()
            .map(String::as_str)
            .chain(
                d.end_to_end
                    .iter()
                    .chain(&d.per_layer)
                    .map(|m| m.name.as_str()),
            )
            .collect();
        assert!(names.iter().all(|n| valid_name(n)));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "every name is used once");
        let setup = d.metric("setup_s").expect("setup_s is declared");
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
        let widest = d
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s has the largest bound");
    }

    #[test]
    fn bounds_outside_the_contract_are_refused() {
        let doc = |bound: &str| {
            format!(
                r#"{{"run_seconds": 5, "workloads": [{{"name": "w"}}],
                   "end_to_end": [{{"name": "m", "unit": "s", "better": "lower", "bound": {bound}}}],
                   "per_layer": []}}"#
            )
        };
        assert!(parse_declared(&doc("0.1")).is_ok());
        assert!(parse_declared(&doc("0.3")).is_err());
        assert!(parse_declared(&doc("0")).is_err());
    }
}
