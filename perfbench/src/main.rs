//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Runs one workload, prints every metric with its unit and sample
//! count, writes the full result (host fingerprint, raw samples, median
//! and quartiles) and, when traced, the spans as JSON lines under
//! `perfbench/out/`, and prints as its last line one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! Exits 1 when any correctness check failed, 2 on a usage error.

use std::fmt::Write as _;
use std::process::ExitCode;

use perfbench::host::{Fingerprint, THREADS_ENV};
use perfbench::{run, stats, Metric, Plan, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut traced) = (1u64, 10u64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("expected an unsigned integer"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("expected an unsigned integer"))?
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, traced })
}

/// A JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("String write"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number (every value reaching here is finite).
fn json_num(v: f64) -> String {
    format!("{v}")
}

fn json_list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|&v| json_num(v)).collect();
    format!("[{}]", items.join(","))
}

/// The full result record: fingerprint, verdicts, and per metric its
/// value, unit, sample count, median, quartiles and raw samples.
fn result_json(args: &Args, host: &Fingerprint, out: &perfbench::Outcome) -> String {
    let mut metrics = Vec::new();
    for m in &out.metrics {
        let (q1, q3) = stats::quartiles(&m.samples);
        metrics.push(format!(
            "{}:{{\"value\":{},\"unit\":{},\"samples\":{},\"median\":{},\"q1\":{},\"q3\":{},\"raw\":{}}}",
            json_str(m.name),
            json_num(m.value),
            json_str(m.unit()),
            m.samples.len(),
            json_num(stats::median(&m.samples)),
            json_num(q1),
            json_num(q3),
            json_list(&m.samples)
        ));
    }
    let failures: Vec<String> = out.checks.messages.iter().map(|s| json_str(s)).collect();
    format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"host\":{{\"available_parallelism\":{},\"rustc\":{},\"cpu_model\":{},\"hsched_threads\":{}}},\"correct\":{},\"attempted\":{},\"failed\":{},\"error_rate\":{},\"failures\":[{}],\"metrics\":{{{}}}}}\n",
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.traced),
        host.available_parallelism,
        json_str(&host.rustc),
        json_str(&host.cpu_model),
        host.hsched_threads.as_deref().map_or("null".to_string(), json_str),
        out.checks.failed == 0,
        out.checks.attempted,
        out.checks.failed,
        json_num(out.checks.error_rate()),
        failures.join(","),
        metrics.join(",")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <online-churn|offline-batch> --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    // One thread: the solver layers stay serial unless this opts them in.
    let threads = std::env::var(THREADS_ENV).ok();
    std::env::remove_var(THREADS_ENV);
    let host = Fingerprint::of_host(threads);

    let mut out = run(args.workload, &Plan::full(args.seconds as f64), args.seed, args.traced);
    if let Some(m) = out.metrics.iter().find(|m| !m.value.is_finite()) {
        let msg = format!("{} was not measured", m.name);
        out.checks.op(Err(msg));
    }
    for m in out.metrics.iter_mut().filter(|m| !m.value.is_finite()) {
        *m = Metric::scalar(m.name, 0.0);
    }

    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.traced)
    );
    println!(
        "host: available_parallelism={} rustc=\"{}\" cpu=\"{}\" {THREADS_ENV}={}",
        host.available_parallelism,
        host.rustc,
        host.cpu_model,
        host.hsched_threads.as_deref().unwrap_or("unset")
    );
    for m in &out.metrics {
        println!("  {:<34} {:>14.4} {:<6} n={}", m.name, m.value, m.unit(), m.samples.len());
    }
    println!(
        "checks: attempted={} failed={} error_rate={}",
        out.checks.attempted,
        out.checks.failed,
        out.checks.error_rate()
    );
    for msg in &out.checks.messages {
        println!("  FAILED: {msg}");
    }

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let stem = format!("{}-seed{}-trace{}", args.workload.name(), args.seed, u8::from(args.traced));
    let mut written = std::fs::create_dir_all(&dir).and_then(|()| {
        std::fs::write(dir.join(format!("{stem}.json")), result_json(&args, &host, &out))
    });
    if let (Ok(()), Some(tr)) = (&written, &out.tracer) {
        written = std::fs::write(dir.join(format!("{stem}.spans.jsonl")), tr.to_jsonl());
    }
    match written {
        Ok(()) => println!("results: {}", dir.join(&stem).display()),
        Err(e) => out.checks.op(Err(format!("writing results to {}: {e}", dir.display()))),
    }

    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit())
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.checks.failed == 0,
        out.checks.attempted,
        out.checks.failed,
        metrics.join(",")
    );
    if out.checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
