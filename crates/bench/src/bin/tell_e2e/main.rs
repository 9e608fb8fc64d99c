//! `tell_e2e` — full Tell transactions over loopback TCP: four workloads,
//! six gated end-to-end metrics and a per-layer budget traced through the
//! public trait seams. See `README.md` beside this file.

mod cluster;
mod floors;
mod gen;
mod run;
mod selfcheck;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use run::{Metric, Options, Report};
use workloads::Workload;

const USAGE: &str =
    "usage: tell_e2e --workload <point_rw|batch_read|neworder_durable|hot_serializable> \
     [--seed <u64>] [--seconds <n>] [--trace [0|1]] [--trace-out <file>]\n\
       tell_e2e --floors | --selfcheck | --smoke";

enum Mode {
    Workload(Options),
    Floors,
    SelfCheck,
    Smoke,
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut traced = false;
    let mut trace_out = None;
    let mut mode = None;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            // `--trace` alone turns tracing on; the harness passes 0 or 1.
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") | Some("1") => traced = it.next().is_some_and(|v| v == "1"),
                _ => traced = true,
            },
            "--trace-out" => trace_out = Some(PathBuf::from(value("a file")?)),
            "--floors" => mode = Some(Mode::Floors),
            "--selfcheck" => mode = Some(Mode::SelfCheck),
            "--smoke" => mode = Some(Mode::Smoke),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    match (mode, workload) {
        (Some(mode), None) => Ok(mode),
        (None, Some(workload)) => {
            Ok(Mode::Workload(Options { workload, seed, seconds, traced, trace_out }))
        }
        _ => Err("give exactly one of --workload, --floors, --selfcheck, --smoke".into()),
    }
}

/// `{:?}` prints the shortest digits that round-trip, which is valid JSON
/// for finite values.
fn json_number(v: f64) -> String {
    format!("{v:?}")
}

fn print_metric_lines(metrics: &[Metric]) {
    for m in metrics {
        println!("{} {} {}", m.name, json_number(m.value), m.unit);
    }
}

/// The result line the harness reads: last line of standard output.
fn print_result(report: &Report) {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = match parse_args(&args) {
        Ok(mode) => mode,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match mode {
        Mode::Workload(opts) => run::run(&opts).map(|report| {
            println!("input_digest {:#018x} hash", report.input_digest);
            print_metric_lines(&report.notes);
            print_metric_lines(&report.metrics);
            print_result(&report);
            report.correct && report.attempted > 0
        }),
        Mode::Floors => floors::run().map(|metrics| {
            print_metric_lines(&metrics);
            true
        }),
        // Run from the repository root, like the harness.
        Mode::SelfCheck => selfcheck::run(Path::new("BENCHMARK.json")),
        Mode::Smoke => selfcheck::smoke(),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("tell_e2e: check failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("tell_e2e: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Mode, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn harness_command_line_parses() {
        let mode =
            parse(&["--workload", "batch_read", "--seed", "9", "--seconds", "4", "--trace", "1"]);
        let Ok(Mode::Workload(o)) = mode else { panic!("expected a workload run") };
        assert_eq!((o.workload, o.seed, o.seconds, o.traced), (Workload::BatchRead, 9, 4.0, true));
        let Ok(Mode::Workload(o)) = parse(&["--trace", "0", "--workload", "point_rw"]) else {
            panic!("expected a workload run")
        };
        assert!(!o.traced);
        // Bare `--trace` (the issue's spelling) still means on.
        let Ok(Mode::Workload(o)) = parse(&["--workload", "point_rw", "--trace"]) else {
            panic!("expected a workload run")
        };
        assert!(o.traced);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "point_rw", "--floors"]).is_err());
        assert!(parse(&["--workload", "point_rw", "--seconds", "0"]).is_err());
        assert!(parse(&["--workload"]).is_err());
    }

    #[test]
    fn json_numbers_keep_their_digits() {
        assert_eq!(json_number(1.25), "1.25");
        assert_eq!(json_number(1432.0), "1432.0");
    }
}
