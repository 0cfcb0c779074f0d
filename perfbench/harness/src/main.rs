//! `perfbench` — the end-to-end benchmark of paccport.
//!
//! ```text
//! perfbench --reproduce PATH --workload paper|check|serve
//!           --seed N --seconds N --trace 0|1
//! ```
//!
//! With `--trace 0` it times the products as users run them, with
//! tracing off, and prints the end-to-end metrics; with `--trace 1` it
//! calls each layer's public functions in-process under the
//! benchmark's own spans and prints the per-layer metrics. Either way
//! the last stdout line is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
//! `perfbench/DESIGN.md` records why the workloads and metrics are
//! what they are. `perfbench/run.py` builds everything and calls this.

mod pins;
mod proc;
mod schedule;
mod stats;
mod traced;
mod workloads;

use std::path::PathBuf;
use std::time::Duration;

/// What every workload is given.
pub struct Ctx {
    pub reproduce: PathBuf,
    pub seed: u64,
    pub seconds: Duration,
    /// Where the traced run writes its spans.
    pub out_dir: PathBuf,
}

/// Operations attempted and failed, with the reason of each failure
/// on stderr.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one operation; `Err` marks it failed.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            eprintln!("perfbench: failed operation: {why}");
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

fn die(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut reproduce = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let val = it
            .next()
            .unwrap_or_else(|| die(&format!("{a} requires a value")));
        match a.as_str() {
            "--reproduce" => reproduce = Some(PathBuf::from(val)),
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = val.parse::<u64>().ok(),
            "--seconds" => seconds = val.parse::<u64>().ok().filter(|&s| s > 0),
            "--trace" => trace = matches!(val.as_str(), "0" | "1").then(|| val == "1"),
            _ => die(&format!("unknown argument `{a}`")),
        }
    }
    let reproduce = reproduce.unwrap_or_else(|| die("--reproduce PATH is required"));
    let ctx = Ctx {
        out_dir: reproduce
            .parent()
            .map(|d| d.join("perfbench-spans"))
            .unwrap_or_else(|| die("--reproduce has no parent directory")),
        reproduce,
        seed: seed.unwrap_or_else(|| die("--seed requires an unsigned integer")),
        seconds: Duration::from_secs(
            seconds.unwrap_or_else(|| die("--seconds requires a positive integer")),
        ),
    };
    let workload = workload.unwrap_or_else(|| die("--workload paper|check|serve is required"));
    if !matches!(workload.as_str(), "paper" | "check" | "serve") {
        die(&format!(
            "unknown workload `{workload}`; try paper|check|serve"
        ));
    }
    let trace = trace.unwrap_or_else(|| die("--trace 0|1 is required"));
    let (tally, metrics) = if trace {
        traced::run(&ctx, &workload)
    } else {
        match workload.as_str() {
            "paper" => workloads::paper(&ctx),
            "check" => workloads::check(&ctx),
            _ => workloads::serve(&ctx),
        }
    };
    if tally.attempted == 0 {
        die("no operation was attempted");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
}
