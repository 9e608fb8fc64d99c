//! `--selfcheck`: do two sets of runs of the same code agree within the
//! bounds `BENCHMARK.json` sets? `--smoke`: does every mode still run?

use std::collections::HashMap;
use std::path::Path;
use std::process::Command;

use tell_common::{Error, Result};

use crate::run::{self, Options};
use crate::workloads::Workload;

/// The scalar after `"name":` in `text`. `BENCHMARK.json` is this
/// benchmark's own file, so the reader knows its shape and needs no parser.
fn field(text: &str, name: &str) -> Option<String> {
    let value = text.split(&format!("\"{name}\"")).nth(1)?.split(':').nth(1)?;
    Some(value.split([',', '}']).next()?.trim().trim_matches('"').to_string())
}

/// `(name, bound)` of every `end_to_end` entry: objects whose `"name"`
/// precedes their `"bound"`, inside the `"end_to_end"` array.
fn read_bounds(text: &str) -> Vec<(String, f64)> {
    let Some(list) = text.split("\"end_to_end\"").nth(1).and_then(|t| t.split(']').next()) else {
        return Vec::new();
    };
    list.split('{')
        .filter_map(|object| Some((field(object, "name")?, field(object, "bound")?.parse().ok()?)))
        .collect()
}

/// One untraced run as the harness makes it, in a process of its own: a
/// run's memory and set-up time must not depend on the runs before it.
/// Returns the `name value unit` lines it printed, by name; `None` when it
/// exited non-zero (its check failed).
fn run_in_child(
    workload: Workload,
    seed: u64,
    seconds: f64,
) -> Result<Option<HashMap<String, f64>>> {
    let spawned = std::env::current_exe().and_then(|exe| {
        let args = ["--workload", workload.name(), "--trace", "0"];
        let numbers = ["--seed", &seed.to_string(), "--seconds", &seconds.to_string()];
        Command::new(exe).args(args).args(numbers).output()
    });
    let output = spawned.map_err(|e| Error::invalid(format!("could not run a child: {e}")))?;
    if !output.status.success() {
        return Ok(None);
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    Ok(Some(stdout.lines().filter_map(metric_line).collect()))
}

/// `name value unit` to `(name, value)`; `None` for any other line.
fn metric_line(line: &str) -> Option<(String, f64)> {
    let mut words = line.split_whitespace();
    let (name, value, _unit) = (words.next()?, words.next()?, words.next()?);
    words.next().is_none().then_some(())?;
    Some((name.to_string(), value.parse().ok()?))
}

/// Every workload once untraced and once traced, briefly: does each mode
/// still run, pass its check and report finite numbers?
pub fn smoke() -> Result<bool> {
    let mut ok = true;
    for workload in Workload::ALL {
        for traced in [false, true] {
            let opts = Options { workload, seed: 1, seconds: 2.0, traced, trace_out: None };
            let report = run::run(&opts)?;
            let sane = report.correct && report.metrics.iter().all(|m| m.value.is_finite());
            let verdict = if sane { "ok" } else { "FAILED" };
            println!("smoke {} traced={traced}: {verdict}", workload.name());
            ok &= sane;
        }
    }
    Ok(ok)
}

/// Every workload twice on one seed and once on another; fails when a
/// same-seed pair disagrees by more than the metric's bound in
/// `bounds_file` (the repository's `BENCHMARK.json`).
pub fn run(bounds_file: &Path) -> Result<bool> {
    let text = std::fs::read_to_string(bounds_file)
        .map_err(|e| Error::invalid(format!("{}: {e}", bounds_file.display())))?;
    let bounds = read_bounds(&text);
    let seconds = field(&text, "run_seconds").and_then(|s| s.parse::<f64>().ok());
    let (Some(seconds), false) = (seconds, bounds.is_empty()) else {
        return Err(Error::invalid(format!(
            "no run_seconds or end_to_end bounds in {}",
            bounds_file.display()
        )));
    };
    let mut ok = true;
    for workload in Workload::ALL {
        let [first, second, other] = [1, 1, 2].map(|seed| run_in_child(workload, seed, seconds));
        let (Some(first), Some(second), Some(other)) = (first?, second?, other?) else {
            println!("{:<18} a run failed its check", workload.name());
            ok = false;
            continue;
        };
        for (name, bound) in &bounds {
            let value = |run: &HashMap<String, f64>| run.get(name).copied().unwrap_or(f64::NAN);
            let (a, b, c) = (value(&first), value(&second), value(&other));
            let same_seed = (a - b).abs() / a.min(b);
            let other_seed = (c - (a + b) / 2.0).abs() / ((a + b) / 2.0);
            let outside = same_seed.is_nan() || same_seed > *bound;
            let verdict = if outside { "OUTSIDE BOUND" } else { "" };
            println!(
                "{:<18} {name:<20} {a:>12.2} {b:>12.2} spread {same_seed:>6.3} (bound {bound}) \
                 seed 2: {c:>12.2} off by {other_seed:>6.3} {verdict}",
                workload.name()
            );
            ok &= !outside;
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_are_read_from_the_end_to_end_list_only() {
        let text = r#"{
          "run_seconds": 12,
          "workloads": [{"name": "w", "why": "bound: 9"}],
          "end_to_end": [
            {"name": "commits_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.2}
          ],
          "per_layer": [{"name": "core.self_us", "unit": "us", "better": "lower"}]
        }"#;
        assert_eq!(
            read_bounds(text),
            vec![("commits_per_s".to_string(), 0.25), ("setup_s".to_string(), 0.2)]
        );
        assert_eq!(field(text, "run_seconds").as_deref(), Some("12"));
        assert!(read_bounds("{}").is_empty());
    }

    #[test]
    fn only_metric_lines_are_read_from_a_run() {
        assert_eq!(metric_line("setup_s 5.25 s"), Some(("setup_s".to_string(), 5.25)));
        assert_eq!(metric_line("input_digest 0x16362bff1e4a27a1 hash"), None);
        assert_eq!(
            metric_line(r#"{"correct": true, "attempted": 9, "failed": 0, "metrics": {}}"#),
            None
        );
        assert_eq!(metric_line(""), None);
    }
}
