//! One run of one workload: repeated set-up, timed passes, output checks,
//! and the report with its end-to-end metrics.

use crate::golden;
use crate::json;
use crate::measure::{
    highest_supported_percentile, median, peak_rss_mb, percentile, samples_beyond,
};
use crate::spec::declared;
use crate::workload::{pass, setup, Inputs, PassOptions, PassRun, Plan, Workload};
use std::path::Path;
use std::time::Instant;

/// Set-up repeats at least this often, and until this much time is spent
/// (at most [`MAX_SETUPS`] times), so its median is steady.
const MIN_SETUPS: usize = 3;
const SETUP_SECONDS: f64 = 0.25;
const MAX_SETUPS: usize = 2_000;

/// Passes per run, at least; more while the window has room for another.
const MIN_PASSES: usize = 2;

/// The percentile `unit_ms_p90` reports.
const TAIL: u32 = 90;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    /// Sample count and other context, printed beside the value.
    pub note: String,
}

/// A metric declared in `BENCHMARK.json`, with its declared unit.
pub fn metric(name: &str, value: f64, note: impl Into<String>) -> Metric {
    let decl = declared()
        .metric(name)
        .unwrap_or_else(|| panic!("{name} is not declared in BENCHMARK.json"));
    Metric {
        name: name.to_string(),
        value: if value.is_finite() { value } else { 0.0 },
        unit: decl.unit.clone(),
        note: note.into(),
    }
}

/// What one run prints.
#[derive(Debug, Clone)]
pub struct Report {
    pub workload: Workload,
    pub seed: u64,
    pub traced: bool,
    pub notes: Vec<String>,
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

/// Problems printed per report; the rest are counted.
const SHOWN_PROBLEMS: usize = 20;

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    fn metrics_json(&self) -> String {
        let fields: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    sct_core::telemetry::json_string(&m.name),
                    json::number(m.value),
                    sct_core::telemetry::json_string(&m.unit)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// The fields of the result object.
    fn result_fields(&self) -> String {
        format!(
            "\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}",
            self.correct(),
            self.attempted,
            self.failed,
            self.metrics_json()
        )
    }

    /// The result object: the last line a run prints.
    pub fn result_line(&self) -> String {
        format!("{{{}}}", self.result_fields())
    }

    /// The result object labelled with its workload, seed and mode: one
    /// line of a `--json` file, the input of `compare`.
    pub fn record_line(&self) -> String {
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, {}}}",
            self.workload.name(),
            self.seed,
            self.traced,
            self.result_fields()
        )
    }

    /// Human-readable lines, then one `metric NAME VALUE UNIT` line per
    /// metric, then the result object.
    pub fn render(&self) -> String {
        let mut out = format!(
            "workload {} seed {} ({})\n",
            self.workload.name(),
            self.seed,
            if self.traced { "traced" } else { "untraced" }
        );
        for n in &self.notes {
            out += &format!("  {n}\n");
        }
        for p in self.problems.iter().take(SHOWN_PROBLEMS) {
            out += &format!("  PROBLEM {p}\n");
        }
        if self.problems.len() > SHOWN_PROBLEMS {
            out += &format!(
                "  ... {} more problems\n",
                self.problems.len() - SHOWN_PROBLEMS
            );
        }
        for m in &self.metrics {
            out += &format!("metric {} {} {}  # {}\n", m.name, m.value, m.unit, m.note);
        }
        out += &self.result_line();
        out.push('\n');
        out
    }
}

/// Set-up timings, the inputs of the last set-up, and the untraced passes.
pub struct Measured {
    pub setups: Vec<f64>,
    pub inputs: Inputs,
    pub passes: Vec<PassRun>,
}

impl Measured {
    pub fn walls(&self) -> Vec<f64> {
        self.passes
            .iter()
            .map(|p| p.wall_nanos as f64 / 1e9)
            .collect()
    }

    pub fn units(&self) -> u64 {
        self.passes.iter().map(|p| p.units.len() as u64).sum()
    }
}

/// Set up repeatedly, then run untraced passes until another would not fit
/// in `window` seconds.
pub fn measure(plan: &Plan, work: &Path, window: f64) -> Result<Measured, String> {
    let mut setups = Vec::new();
    let mut inputs = None;
    while setups.len() < MIN_SETUPS
        || (setups.iter().sum::<f64>() < SETUP_SECONDS && setups.len() < MAX_SETUPS)
    {
        drop(inputs.take());
        let started = Instant::now();
        inputs = Some(setup(plan, work)?);
        setups.push(started.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("set-up ran");
    let opts = PassOptions::measured(plan, work);
    let started = Instant::now();
    let mut passes: Vec<PassRun> = Vec::new();
    loop {
        passes.push(pass(plan, &inputs, &opts)?);
        let walls: Vec<f64> = passes.iter().map(|p| p.wall_nanos as f64 / 1e9).collect();
        if passes.len() >= MIN_PASSES && started.elapsed().as_secs_f64() + median(&walls) > window {
            break;
        }
    }
    Ok(Measured {
        setups,
        inputs,
        passes,
    })
}

/// Each unit's fastest time across the passes, in milliseconds.
///
/// Identical passes on a shared host slow down by up to half in bursts
/// lasting seconds. A unit's fastest repetition filters those bursts out;
/// the median pass does not.
fn unit_fastest(passes: &[PassRun]) -> Vec<f64> {
    let n = passes.iter().map(|p| p.units.len()).min().unwrap_or(0);
    (0..n)
        .map(|i| {
            let fastest = passes
                .iter()
                .map(|p| p.units[i].nanos)
                .min()
                .expect("a pass ran");
            fastest as f64 / 1e6
        })
        .collect()
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(m: &Measured) -> Result<Vec<Metric>, String> {
    let units = unit_fastest(&m.passes);
    let n = units.len();
    // The part of a pass outside its units: race phase and rendering in
    // `study`, harvesting and saving in the campaigns.
    let between = m
        .passes
        .iter()
        .map(|p| {
            p.wall_nanos
                .saturating_sub(p.units.iter().map(|u| u.nanos).sum())
        })
        .min()
        .expect("a pass ran");
    let wall = units.iter().sum::<f64>() / 1e3 + between as f64 / 1e9;
    let fastest = format!("fastest of {} passes per unit", m.passes.len());
    let tail_note = format!(
        "over {n} units, {} beyond it; highest percentile with 10 beyond: {}",
        samples_beyond(n, TAIL),
        highest_supported_percentile(n).map_or("none".to_string(), |q| format!("p{q}"))
    );
    let bugs = m.passes[0]
        .units
        .iter()
        .filter(|u| u.stats.found_bug())
        .count();
    Ok(vec![
        metric(
            "setup_s",
            median(&m.setups),
            format!("median of {} set-ups", m.setups.len()),
        ),
        metric(
            "wall_s",
            wall,
            format!("{fastest}, plus the fastest remainder"),
        ),
        metric(
            "schedules_per_s",
            m.passes[0].schedules() as f64 / wall,
            "per wall_s",
        ),
        metric(
            "unit_ms_p50",
            percentile(&units, 50),
            format!("over {n} units, {fastest}"),
        ),
        metric("unit_ms_p90", percentile(&units, TAIL), tail_note),
        metric(
            "peak_rss_mb",
            peak_rss_mb()?,
            "VmHWM of the workload process",
        ),
        metric(
            "bugs_found",
            bugs as f64,
            format!("units of {n} that found a bug"),
        ),
    ])
}

/// An untraced run: the end-to-end metrics. With `bless`, pass 1 becomes
/// the workload's golden file before the check.
pub fn untraced(plan: &Plan, work: &Path, seconds: f64, bless: bool) -> Result<Report, String> {
    let m = measure(plan, work, seconds)?;
    let mut notes = vec![format!(
        "{} set-ups, {} passes of {} units (limit {}, {} steal workers)",
        m.setups.len(),
        m.passes.len(),
        m.passes[0].units.len(),
        plan.limit,
        plan.steal_workers,
    )];
    let walls: Vec<String> = m.walls().iter().map(|w| format!("{w:.3}")).collect();
    notes.push(format!("pass walls (s): {}", walls.join(" ")));
    if bless {
        notes.push(format!(
            "blessed {}",
            golden::bless(plan.workload, &m.passes[0])?.display()
        ));
    }
    notes.push(match golden::applies(plan) {
        true => "checked against the golden file and pass 1".to_string(),
        false => "checked against pass 1 (no golden file at this seed or limit)".to_string(),
    });
    let (failed, problems) = golden::check(plan, &m.passes);
    Ok(Report {
        workload: plan.workload,
        seed: plan.seed,
        traced: false,
        notes,
        metrics: end_to_end(&m)?,
        attempted: m.units(),
        failed,
        problems,
    })
}
