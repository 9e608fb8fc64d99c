//! Deterministic fault-schedule simulation runner.
//!
//! Expands `--seed` into a fault plan, drives the full PN/SN/CM stack
//! through it turn-by-turn (see `crates/sim`), and checks the observed
//! history against the oracle for the configured isolation level
//! (`--isolation rc|nmsi|si|serializable`, default si). The verdict line
//! on stdout is bit-identical for identical flags — timings and artifact
//! paths go to stderr.
//!
//! ```text
//! cargo run --release --example tell_sim -- --seed 42 --faults all
//! tell_sim: seed=42 faults=all isolation=si events=23 seconds=0.5 txns=6908 commits=6141 aborts=767 verdict=ok
//! cargo run --release --example tell_sim -- --seed 42 --isolation serializable
//! ```
//!
//! On a violation the runner re-executes binary-searched prefixes of the
//! plan to find the *smallest failing prefix*, dumps the observed history
//! (JSON) and a Perfetto-loadable trace of the final run, prints the exact
//! command line that replays the failure, and exits 1.

use tell_common::IsolationLevel;
use tell_obs::export::{chrome_trace_json, fold_self_time, validate_json, SourcedSpan, SpanClock};
use tell_sim::{shrink_plan, FaultMix, SimConfig, SimOutcome};

struct Args {
    config: SimConfig,
    bench_json: Option<String>,
    flame: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { config: SimConfig::default(), bench_json: None, flame: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => {
                args.config.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.config.virtual_secs =
                    value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--faults" => {
                let v = value("--faults")?;
                args.config.mix = FaultMix::parse(&v)
                    .ok_or_else(|| format!("--faults: unknown mix {v:?} (none|sn|cm|all)"))?
            }
            "--workers" => {
                args.config.workers =
                    value("--workers")?.parse().map_err(|e| format!("--workers: {e}"))?
            }
            "--keys" => {
                args.config.keys = value("--keys")?.parse().map_err(|e| format!("--keys: {e}"))?
            }
            "--isolation" => {
                args.config.isolation =
                    value("--isolation")?.parse::<IsolationLevel>().map_err(|e| e.to_string())?
            }
            "--zipf" => {
                args.config.zipf_theta =
                    value("--zipf")?.parse().map_err(|e| format!("--zipf: {e}"))?
            }
            "--durable" => args.config.durable = true,
            "--flame" => args.flame = true,
            "--bench-json" => args.bench_json = Some(value("--bench-json")?),
            "--help" | "-h" => {
                println!(
                    "tell_sim: seeded fault-schedule simulation with per-level history oracles\n\n\
                     options:\n  \
                     --seed N         master seed (default 1); same seed = same run\n  \
                     --seconds F      virtual horizon in seconds (default 0.5)\n  \
                     --faults MIX     none | sn | cm | all (default none)\n  \
                     --workers N      concurrent transaction workers (default 4)\n  \
                     --keys N         keyspace size (default 32; small = contended)\n  \
                     --isolation L    rc | nmsi | si | serializable (default si); every\n  \
                                      transaction runs at L and the history is checked\n  \
                                      against L's oracle\n  \
                     --zipf F         Zipfian skew theta for key choice (default 0.8;\n  \
                                      0 = uniform, higher = hotter hot keys)\n  \
                     --durable        log-structured persistence tier per SN (relaxes the\n  \
                                      SN death budget; revivals may restart from log)\n  \
                     --flame          fold the tick-sampled transactions' spans on the\n  \
                                      virtual clock (bit-identical across replays); folded\n  \
                                      stacks on stdout after the verdict line\n  \
                     --bench-json F   write a throughput snapshot to file F\n\n\
                     exit status: 0 = history satisfies the level's oracle, 1 = violation\n\
                     (artifacts are dumped and the minimal failing prefix is reported)"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
    }
    Ok(args)
}

fn verdict_line(cfg: &SimConfig, outcome: &SimOutcome) -> String {
    format!(
        "tell_sim: seed={} faults={}{} isolation={} events={} seconds={} txns={} commits={} \
         aborts={} verdict={}",
        cfg.seed,
        cfg.mix.name(),
        if cfg.durable { "+durable" } else { "" },
        cfg.isolation,
        outcome.stats.events_fired,
        cfg.virtual_secs,
        outcome.stats.txns,
        outcome.stats.commits,
        outcome.stats.aborts,
        if outcome.ok() { "ok".to_string() } else { format!("VIOLATION({:?})", outcome.violation) },
    )
}

fn dump_failure(cfg: &SimConfig, outcome: &SimOutcome) {
    let history_path = format!("tell_sim_history_seed{}.json", cfg.seed);
    if let Err(e) = std::fs::write(&history_path, outcome.history.to_json()) {
        eprintln!("tell_sim: could not write {history_path}: {e}");
    } else {
        eprintln!("tell_sim: history dumped to {history_path}");
    }
    // The final (shrunk) run's spans are still in this process's ring.
    let spans: Vec<SourcedSpan> = tell_obs::span::global_ring()
        .drain()
        .into_iter()
        .map(|span| SourcedSpan { node: "sim".to_string(), span })
        .collect();
    if !spans.is_empty() {
        let trace_path = format!("tell_sim_trace_seed{}.json", cfg.seed);
        let json = chrome_trace_json(&spans);
        match validate_json(&json) {
            Ok(()) => {
                if let Err(e) = std::fs::write(&trace_path, json) {
                    eprintln!("tell_sim: could not write {trace_path}: {e}");
                } else {
                    eprintln!(
                        "tell_sim: {} spans dumped to {trace_path} (open in ui.perfetto.dev)",
                        spans.len()
                    );
                }
            }
            Err(e) => eprintln!("tell_sim: trace JSON failed validation: {e}"),
        }
    }
    eprintln!(
        "tell_sim: minimal failing prefix ({} of the plan's events):\n{}",
        outcome.plan.events.len(),
        outcome.plan.describe()
    );
    eprintln!(
        "tell_sim: replay with: cargo run --release --example tell_sim -- \
         --seed {} --seconds {} --faults {} --workers {} --keys {} --isolation {}{}",
        cfg.seed,
        cfg.virtual_secs,
        cfg.mix.name(),
        cfg.workers,
        cfg.keys,
        cfg.isolation,
        if cfg.durable { " --durable" } else { "" },
    );
}

fn write_bench_json(path: &str, cfg: &SimConfig, outcome: &SimOutcome, wall_secs: f64) {
    let virtual_secs = outcome.stats.virtual_end_us / 1e6;
    let json = format!(
        "{{\n  \"bench\": \"sim_throughput\",\n  \"seed\": {},\n  \"faults\": \"{}\",\n  \
         \"isolation\": \"{}\",\n  \
         \"workers\": {},\n  \"keys\": {},\n  \"txns\": {},\n  \"commits\": {},\n  \
         \"aborts\": {},\n  \"events_fired\": {},\n  \"virtual_secs\": {:.3},\n  \
         \"wall_secs\": {:.3},\n  \"commits_per_virtual_sec\": {:.1},\n  \
         \"commits_per_wall_sec\": {:.1},\n  \"verdict\": \"{}\"\n}}\n",
        cfg.seed,
        cfg.mix.name(),
        cfg.isolation,
        cfg.workers,
        cfg.keys,
        outcome.stats.txns,
        outcome.stats.commits,
        outcome.stats.aborts,
        outcome.stats.events_fired,
        virtual_secs,
        wall_secs,
        outcome.stats.commits as f64 / virtual_secs.max(1e-9),
        outcome.stats.commits as f64 / wall_secs.max(1e-9),
        if outcome.ok() { "ok" } else { "violation" },
    );
    match std::fs::write(path, json) {
        Ok(()) => eprintln!("tell_sim: bench snapshot written to {path}"),
        Err(e) => eprintln!("tell_sim: could not write {path}: {e}"),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("tell_sim: {msg}");
            std::process::exit(2);
        }
    };
    let started = std::time::Instant::now();
    let outcome = tell_sim::run(&args.config);
    let wall_secs = started.elapsed().as_secs_f64();
    eprintln!(
        "tell_sim: {} virtual ms in {:.2}s wall, lav={} scrapes={}",
        (outcome.stats.virtual_end_us / 1e3).round(),
        wall_secs,
        outcome.stats.final_lav,
        outcome.stats.scrapes,
    );
    if let Some(path) = &args.bench_json {
        write_bench_json(path, &args.config, &outcome, wall_secs);
    }
    if outcome.ok() {
        println!("{}", verdict_line(&args.config, &outcome));
        if args.flame {
            // Folded stacks after the verdict line: deterministic for the
            // seed, pipeable straight into inferno/flamegraph.pl. The run's
            // spans are the only ones in this process's ring.
            let spans = tell_obs::span::global_ring().drain();
            print!("{}", fold_self_time(&spans, SpanClock::Virtual).to_folded());
        }
        return;
    }
    eprintln!("tell_sim: violation found, shrinking the fault plan...");
    let minimal = shrink_plan(&args.config, &outcome.plan);
    println!("{}", verdict_line(&args.config, &minimal));
    dump_failure(&args.config, &minimal);
    std::process::exit(1);
}
