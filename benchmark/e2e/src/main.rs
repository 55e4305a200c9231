//! End-to-end benchmark driver for `tricount`.
//!
//! Links no crate of the repo: it spawns the `tricount` binary and
//! speaks the serve line protocol, so its numbers survive any change
//! of the crates' APIs. `benchmark/run.sh` builds everything and
//! starts this program from the repo root; see `benchmark/README.md`.

mod graph;
mod proc;
mod report;
mod script;
mod serve;
mod stats;
mod traced;
mod workload;

use std::path::PathBuf;

use report::Outcome;
use workload::{Ctx, Kind, Workload, WORKLOADS};

const USAGE: &str = "usage: benchmark/run.sh [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1 | --traced]
  workloads: rmat-local er-wide rmat-socket serve-read serve-write (default: all)
  --seed     inputs are a function of the seed (default 1)
  --seconds  measuring time per workload (default 10)
  --trace 1  per-layer pass (probes + program counters) instead of the end-to-end pass";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args { workloads: WORKLOADS.to_vec(), seed: 1, seconds: 10.0, traced: false };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if name != "all" {
                    let w = WORKLOADS.iter().find(|w| w.name == name.as_str());
                    args.workloads = vec![*w.ok_or_else(|| format!("unknown workload {name:?}"))?];
                }
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed takes a whole number")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--traced" => args.traced = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn env_path(name: &str) -> Result<PathBuf, String> {
    let p = PathBuf::from(
        std::env::var_os(name)
            .ok_or_else(|| format!("{name} is not set; start me with benchmark/run.sh"))?,
    );
    if p.is_file() {
        Ok(p)
    } else {
        Err(format!("{name}={} is not a file", p.display()))
    }
}

/// Runs one workload: set-up, then the end-to-end pass or the traced
/// pass. `Err` is a harness or set-up problem (no result is printed);
/// failed operations are reported in the outcome.
fn run(w: &Workload, args: &Args, all_cpus: u64) -> Result<Outcome, String> {
    let dir = PathBuf::from(format!(
        "benchmark/data/{}-seed{}-trace{}",
        w.name,
        args.seed,
        u8::from(args.traced)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut ctx = Ctx::new(
        env_path("TRICOUNT_BIN")?,
        env_path("TC_PROBE_BIN")?,
        dir.clone(),
        args.seed,
        args.seconds,
        all_cpus,
    );
    let metrics = if args.traced {
        let setup = workload::setup_once(&mut ctx, w)?;
        traced::measure(&mut ctx, w, &setup)
    } else {
        let (setup, setup_s) = workload::setup_timed(&mut ctx, w)?;
        match w.kind {
            Kind::Count | Kind::Socket => workload::measure_count(&mut ctx, w, &setup, setup_s),
            Kind::ServeRead | Kind::ServeWrite => {
                workload::measure_serve(&mut ctx, w, &setup, setup_s)
            }
        }
    };
    // A serve workload left this thread on the clients' CPU.
    proc::pin_current_thread(all_cpus);
    // The graph and sockets go; stderr of failures lives on in the artefact.
    let _ = std::fs::remove_dir_all(&dir);
    Ok(Outcome {
        workload: w.name,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        attempted: ctx.attempted,
        failed: ctx.failed,
        metrics: metrics.unwrap_or_default(),
        failures: ctx.failures,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    if !PathBuf::from("BENCHMARK.json").is_file() {
        eprintln!(
            "error: no BENCHMARK.json in the working directory; start me with benchmark/run.sh"
        );
        std::process::exit(2);
    }
    let env = report::environment();
    let all_cpus = proc::allowed_cpus();
    let mut all_correct = true;
    for w in &args.workloads {
        let outcome = run(w, &args, all_cpus).unwrap_or_else(|e| {
            eprintln!("error: {}: {e}", w.name);
            std::process::exit(1);
        });
        if let Err(e) = report::write_artefact(&PathBuf::from("benchmark/out"), &outcome, &env) {
            eprintln!("warning: cannot write the run artefact: {e}");
        }
        print!("{}", report::table(&outcome));
        // A workload whose operations all failed has no metrics to
        // report: that is a failed run, not a result.
        if outcome.metrics.is_empty() {
            eprintln!(
                "error: {}: nothing could be measured ({} of {} operations failed)",
                w.name, outcome.failed, outcome.attempted
            );
            std::process::exit(1);
        }
        println!("{}", report::result_line(&outcome));
        all_correct &= outcome.correct();
    }
    if !all_correct {
        eprintln!("error: some operations failed or answered wrongly; see benchmark/out/");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The contract file at the repo root and this harness must name
    /// the same workloads and metrics, with the same units.
    #[test]
    fn benchmark_json_agrees_with_the_harness() {
        let contract = include_str!("../../../BENCHMARK.json");
        for w in &WORKLOADS {
            assert!(
                contract.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name)),
                "{}",
                w.name
            );
        }
        assert_eq!(contract.matches("\"why\": ").count(), WORKLOADS.len());
        for (name, unit) in traced::PER_LAYER {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": ");
            assert!(contract.contains(&entry), "{entry}");
        }
        for (name, unit) in workload::END_TO_END {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": ");
            assert!(contract.contains(&entry), "{entry}");
        }
        let listed = contract.matches("\"better\": ").count();
        assert_eq!(listed, traced::PER_LAYER.len() + workload::END_TO_END.len());
    }

    #[test]
    fn arguments_follow_the_contract() {
        let argv = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload er-wide --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            (a.workloads.len(), a.workloads[0].name, a.seed, a.seconds, a.traced),
            (1, "er-wide", 7, 3.0, true)
        );
        let a = parse_args(&[]).unwrap();
        assert_eq!((a.workloads.len(), a.seed, a.seconds, a.traced), (5, 1, 10.0, false));
        assert!(parse_args(&argv("--traced")).unwrap().traced);
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--seconds 61",
            "--trace 2",
            "--seed",
            "--fast",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
