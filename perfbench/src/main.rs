//! `strsum-perfbench`: the end-to-end and per-layer benchmark of strsum.
//!
//! ```text
//! strsum-perfbench --workload <synth_cold|serve_warm|serve_mixed> --seed <n>
//!                  --seconds <s> --trace <0|1> [--reduced]
//! strsum-perfbench draw --seed <n>            # the loops each workload draws
//! strsum-perfbench survey [ids]              # reference costs
//! strsum-perfbench survey reverify <ids>      # re-verification costs
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics untraced
//! (`--trace 0`), the per-layer metrics traced (`--trace 1`). See
//! README.md for what each workload and metric measures.

mod catalog;
mod cold;
mod layers;
mod oracle;
mod serve;
mod survey;
mod util;

use layers::Layers;

/// Every size a workload depends on, in one place: the full benchmark
/// and the reduced one its tests run.
pub struct Plan {
    /// `synth_cold`: set-up repetitions per run (`setup_s` is their
    /// median).
    pub cold_setups: usize,
    /// `serve_warm`: set-up repetitions per run (each fills a store).
    pub warm_setups: usize,
    /// `synth_cold`: eligible classes cost at most this many seconds.
    pub cold_cap_secs: f64,
    /// `synth_cold`: cost strata, one loop drawn from each per round.
    pub cold_strata: usize,
    /// `serve_warm`: cheapest gadget classes stored at set-up.
    pub warm_classes: usize,
    /// `serve_warm`: requests per pooled loop per round.
    pub warm_per_loop: usize,
    /// `serve_mixed`: cheapest gadget classes in the stream.
    pub mixed_classes: usize,
    /// `serve_mixed`: requests per round for each stateful loop...
    pub mixed_per_stateful: usize,
    /// ...except acc_04, whose closed form costs ~0.4 s to re-verify:
    /// eight requests put its hits at ~1.5% of the repeat arrivals, so
    /// the 99th percentile falls among them.
    pub mixed_per_acc04: usize,
    /// ...and for each loop of each gadget class.
    pub mixed_per_gadget: usize,
}

impl Plan {
    pub const FULL: Plan = Plan {
        cold_setups: 5,
        warm_setups: 3,
        cold_cap_secs: 4.6,
        cold_strata: 4,
        warm_classes: 3,
        warm_per_loop: 40,
        mixed_classes: 4,
        mixed_per_stateful: 24,
        mixed_per_acc04: 8,
        mixed_per_gadget: 14,
    };

    /// A few seconds per workload, for the benchmark's own tests.
    pub const REDUCED: Plan = Plan {
        cold_setups: 1,
        warm_setups: 1,
        cold_cap_secs: 0.6,
        cold_strata: 1,
        warm_classes: 1,
        warm_per_loop: 2,
        mixed_classes: 1,
        mixed_per_stateful: 2,
        mixed_per_acc04: 1,
        mixed_per_gadget: 1,
    };
}

/// Operations a run attempted and how many failed, with the first
/// failure's reason.
#[derive(Default)]
pub struct Ops {
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
}

impl Ops {
    /// Counts one operation; `Err` says why it failed.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            self.first_failure.get_or_insert(why);
        }
    }

    /// The first failure, if any.
    pub fn first_failure(&self) -> Option<&str> {
        self.first_failure.as_deref()
    }
}

/// What a run prints.
pub struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, &'static str, f64)>,
    /// Lines printed before the JSON (standard output).
    lines: Vec<String>,
    /// Remarks for standard error.
    notes: Vec<String>,
}

impl Report {
    pub fn new(ops: &Ops, correct: bool) -> Report {
        let summary = match &ops.first_failure {
            Some(why) => format!(
                "{} of {} operations failed; first: {why}",
                ops.failed, ops.attempted
            ),
            None => format!("{} operations, none failed", ops.attempted),
        };
        Report {
            correct,
            attempted: ops.attempted,
            failed: ops.failed,
            metrics: Vec::new(),
            lines: Vec::new(),
            notes: vec![summary],
        }
    }

    pub fn line(&mut self, line: String) {
        self.lines.push(line);
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// The end-to-end metrics; a missing sample set is an error of the
    /// run, reported as `correct: false`.
    pub fn end_to_end(
        &mut self,
        setup_s: Option<f64>,
        throughput: Option<f64>,
        p50_ms: Option<f64>,
        p99_ms: Option<f64>,
        cold_p50_ms: Option<f64>,
    ) {
        let values = [
            ("setup_s", "s", setup_s),
            ("throughput_per_s", "1/s", throughput),
            ("latency_p50_ms", "ms", p50_ms),
            ("latency_p99_ms", "ms", p99_ms),
            ("cold_latency_p50_ms", "ms", cold_p50_ms),
        ];
        for (name, unit, value) in values {
            match value {
                Some(v) => self.metrics.push((name, unit, v)),
                None => {
                    self.correct = false;
                    self.notes.push(format!("no samples for {name}"));
                    self.metrics.push((name, unit, 0.0));
                }
            }
        }
    }

    pub fn per_layer(&mut self, layers: &Layers) {
        self.metrics = layers.metrics();
    }

    fn print(&self) {
        for note in &self.notes {
            eprintln!("perfbench: {note}");
        }
        for line in &self.lines {
            println!("{line}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

const USAGE: &str = "usage: strsum-perfbench --workload <synth_cold|serve_warm|serve_mixed> \
--seed <n> --seconds <s> --trace <0|1> [--reduced]
       strsum-perfbench draw --seed <n>
       strsum-perfbench survey [reverify] [loop ids]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    reduced: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30.0,
        trace: false,
        reduced: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = value()?.clone(),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--reduced" => parsed.reduced = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if parsed.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(parsed)
}

fn run(args: &Args) -> Result<Report, String> {
    let plan = if args.reduced {
        &Plan::REDUCED
    } else {
        &Plan::FULL
    };
    match args.workload.as_str() {
        "synth_cold" => cold::synth_cold(args.seed, args.seconds, args.trace, plan),
        "serve_warm" => serve::serve_warm(args.seed, args.seconds, args.trace, plan),
        "serve_mixed" => serve::serve_mixed(args.seed, args.seconds, args.trace, plan),
        other => Err(format!("unknown workload {other}")),
    }
}

/// `draw --seed n`: prints the loop ids each workload draws for a seed.
fn draw(args: &[String]) -> Result<(), String> {
    let seed = match args {
        [flag, n] if flag == "--seed" => n.parse::<u64>().map_err(|e| format!("--seed: {e}"))?,
        _ => return Err(USAGE.to_string()),
    };
    let plan = &Plan::FULL;
    let rng = util::Rng::new(seed);
    let cat = catalog::Catalog::build()?;
    let ids = |ixs: &[usize]| -> String {
        ixs.iter()
            .map(|&i| cat.loops[i].id.as_str())
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "synth_cold: {}",
        ids(&catalog::draw_cold(&cat, &mut rng.fork("cold"), plan))
    );
    let (reps, pool) = catalog::draw_warm(&cat, &mut rng.fork("warm"), plan);
    println!("serve_warm fill: {}", ids(&reps));
    println!("serve_warm pool: {}", ids(&pool));
    let mut stream = catalog::draw_mixed(&cat, &mut rng.fork("mixed"), plan);
    let requests = stream.len();
    stream.sort_unstable();
    stream.dedup();
    println!("serve_mixed ({requests} requests): {}", ids(&stream));
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("survey") => match args.get(1).map(String::as_str) {
            Some("reverify") => survey::reverify(&args[2..]),
            _ => survey::run(&args[1..]),
        },
        Some("draw") => draw(&args[1..]),
        _ => match parse(&args) {
            Ok(a) => run(&a).map(|report| report.print()),
            Err(e) => {
                eprintln!("error: {e}\n{USAGE}");
                std::process::exit(2);
            }
        },
    };
    if let Err(e) = outcome {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
