//! `streambench`: the repository's one end-to-end benchmark. Four workloads
//! (paced append, saturated append, tail read, cold catch-up) against a real
//! cluster over loopback TCP, four end-to-end metrics, and a per-layer table
//! from a traced run. README.md has the method and the first numbers.

mod event;
mod layers;
mod probes;
mod stats;
mod trace;
mod verify;
mod workloads;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

use layers::{Line, END_TO_END, PER_LAYER};
use workloads::{Clock, Spec, WORKLOADS};

/// Where the result and trace files go, relative to the working directory.
const OUT_DIR: &str = "target/streambench";
const DEFAULT_SECONDS: u64 = 10;

struct Args {
    workloads: Vec<&'static Spec>,
    seed: u64,
    seconds: u64,
    /// `None`: the untraced run, then the traced one.
    traced: Option<bool>,
    list: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: WORKLOADS.iter().collect(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: None,
        list: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let spec = WORKLOADS.iter().find(|w| w.name == name);
                args.workloads = vec![spec.ok_or(format!("unknown workload {name}"))?];
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds takes 1 to 60".into());
                }
            }
            "--trace" => {
                args.traced = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--list" => args.list = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn list() {
    for w in &WORKLOADS {
        println!("workload {} :: {}", w.name, w.why);
        println!("  latency_* = {}", w.latency_is);
        println!("  throughput_mb_s = {}", w.throughput_is);
    }
    for m in &END_TO_END {
        println!("end_to_end {} {} better={}", m.name, m.unit, m.better);
    }
    for m in &PER_LAYER {
        println!("per_layer {} {} better={}", m.name, m.unit, m.better);
    }
}

struct Outcome {
    workload: &'static str,
    traced: bool,
    lines: Vec<Line>,
    attempted: u64,
    failed: u64,
    correct: bool,
}

fn run_one(spec: &'static Spec, args: &Args, traced: bool) -> Result<Outcome, String> {
    let clock = Clock::start();
    let mut out = workloads::run(spec, args.seed, args.seconds, traced, clock)?;
    let lines = if traced {
        let probed = probes::run_all(clock, args.seed, layers::probe_sizes(spec, &out))?;
        out.spans.extend(probed.spans.iter().copied());
        let lines = layers::per_layer(spec, &out, &probed)?;
        write_trace(spec, args, &out, &lines)?;
        lines
    } else {
        layers::end_to_end(spec, &out)
    };
    for e in &out.errors {
        eprintln!("{}: {e}", spec.name);
    }
    let failed = out.verdict.failed();
    if failed > 0 {
        eprintln!("{}: read-back check failed: {:?}", spec.name, out.verdict);
    }
    Ok(Outcome {
        workload: spec.name,
        traced,
        lines,
        attempted: out.attempted.max(1),
        failed,
        correct: failed == 0 && out.errors.is_empty(),
    })
}

fn write_trace(
    spec: &Spec,
    args: &Args,
    out: &workloads::RunOutput,
    lines: &[Line],
) -> Result<(), String> {
    let mut per_layer = String::from("{");
    for (i, l) in lines.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(per_layer, "{sep}\"{}\":{}", l.def.name, l.reported.value);
    }
    per_layer.push('}');
    let extra = [
        ("seed".to_string(), args.seed.to_string()),
        ("seconds".to_string(), args.seconds.to_string()),
        ("per_layer".to_string(), per_layer),
    ];
    let path = Path::new(OUT_DIR).join(format!("{}.trace.json", spec.name));
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, trace::to_json(spec.name, &out.spans, &extra)))
        .map_err(|e| format!("write {}: {e}", path.display()))
}

fn metrics_json(lines: &[Line]) -> String {
    let mut s = String::from("{");
    for (i, l) in lines.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            l.def.name, l.reported.value, l.def.unit
        );
    }
    s.push('}');
    s
}

fn result_json(o: &Outcome) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics_json(&o.lines)
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("streambench: {e}");
            eprintln!("usage: streambench [--workload NAME] [--seed N] [--seconds 1..60] [--trace 0|1] [--list]");
            return ExitCode::from(2);
        }
    };
    if args.list {
        list();
        return ExitCode::SUCCESS;
    }
    let modes: &[bool] = match args.traced {
        Some(true) => &[true],
        Some(false) => &[false],
        None => &[false, true],
    };
    let mut outcomes = Vec::new();
    for &traced in modes {
        for spec in &args.workloads {
            match run_one(spec, &args, traced) {
                Ok(o) => outcomes.push(o),
                Err(e) => {
                    eprintln!("streambench: {}: {e}", spec.name);
                    return ExitCode::FAILURE;
                }
            }
        }
    }

    // One line per metric and then the run's result object, all of it
    // mirrored to the results file.
    let mut mirror = String::from("[");
    for (i, o) in outcomes.iter().enumerate() {
        for l in &o.lines {
            println!(
                "{} {} {} {} n={} spread={:.4}",
                o.workload,
                l.def.name,
                l.reported.value,
                l.def.unit,
                l.reported.samples,
                l.reported.spread
            );
        }
        println!("{}", result_json(o));
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            mirror,
            "{sep}\n{{\"workload\": \"{}\", \"traced\": {}, \"seed\": {}, \"seconds\": {}, \"result\": {}}}",
            o.workload,
            o.traced,
            args.seed,
            args.seconds,
            result_json(o)
        );
    }
    mirror.push_str("\n]\n");
    let results = Path::new(OUT_DIR).join("results.json");
    if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&results, mirror))
    {
        eprintln!("streambench: write {}: {e}", results.display());
        return ExitCode::FAILURE;
    }
    if outcomes.iter().all(|o| o.correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
