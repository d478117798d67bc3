//! The repository benchmark: runs one seeded workload against the query
//! engine and prints one JSON result line (see `perfbench/README.md`).
//!
//! ```text
//! perfbench --workload serve_hot|matvec_cold --seed N
//!           --seconds S --trace 0|1 [--out DIR] [--rustc V] [--rev R]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` measures half
//! the window untraced and half traced, then reports the per-layer
//! metrics and writes the spans to `DIR/trace-<workload>-seed<N>.json`.
//! Every run writes its full record to `DIR/<workload>-seed<N>-trace<T>.json`.
//! A failed output check prints `"correct": false` and exits with code 1.

mod bem;
mod check;
mod inputs;
mod layers;
mod matvec_cold;
mod report;
mod serve_hot;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use report::{json_string, Outcome};
use trace::Tracer;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    out: PathBuf,
    rustc: String,
    rev: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from("perfbench/out"),
        rustc: "unknown".into(),
        rev: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: not {what}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err(bad("a positive number"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => args.out = PathBuf::from(value),
            "--rustc" => args.rustc = value,
            "--rev" => args.rev = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Cache size from sysfs (`index2` = L2, `index3` = L3), as written there.
fn cache_size(index: u32) -> String {
    std::fs::read_to_string(format!(
        "/sys/devices/system/cpu/cpu0/cache/index{index}/size"
    ))
    .map_or_else(|_| "unknown".into(), |s| s.trim().to_string())
}

/// The machine and build this result was measured on; results whose
/// fingerprints differ are not compared silently (see `compare.py`).
fn fingerprint(args: &Args) -> Vec<(&'static str, String)> {
    vec![
        ("nproc", rayon::current_num_threads().to_string()),
        ("simd", mbt_multipole::simd::level().as_str().to_string()),
        ("rustc", args.rustc.clone()),
        ("rev", args.rev.clone()),
        ("l2", cache_size(2)),
        ("l3", cache_size(3)),
    ]
}

fn record_json(args: &Args, outcome: &Outcome, wall_s: f64) -> String {
    let mut s = String::from("{\n  \"fingerprint\": {");
    for (i, (k, v)) in fingerprint(args).iter().enumerate() {
        let _ = write!(
            s,
            "{}\"{k}\": {}",
            if i == 0 { "" } else { ", " },
            json_string(v)
        );
    }
    let _ = write!(
        s,
        "}},\n  \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"wall_s\": {},\n",
        json_string(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        wall_s
    );
    s.push_str("  \"errors\": [");
    for (i, e) in outcome.errors.iter().enumerate() {
        let _ = write!(s, "{}{}", if i == 0 { "" } else { ", " }, json_string(e));
    }
    s.push_str("],\n  \"details\": {");
    for (i, (k, v)) in outcome.details.iter().enumerate() {
        let _ = write!(
            s,
            "{}{}: {}",
            if i == 0 { "" } else { ", " },
            json_string(k),
            json_string(v)
        );
    }
    let _ = write!(s, "}},\n  \"result\": {}\n}}\n", outcome.result_line());
    s
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let tracer = Tracer::new();
    let t0 = std::time::Instant::now();
    let run = match args.workload.as_str() {
        "serve_hot" => serve_hot::run(&args, &tracer),
        "matvec_cold" => matvec_cold::run(&args, &tracer),
        other => Err(format!("unknown workload {other:?}")),
    };
    let outcome = match run {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    let wall_s = t0.elapsed().as_secs_f64();

    let stem = format!("{}-seed{}", args.workload, args.seed);
    let written = std::fs::create_dir_all(&args.out).and_then(|()| {
        if args.trace {
            tracer.write_chrome_json(&args.out.join(format!("trace-{stem}.json")))?;
        }
        let record = record_json(&args, &outcome, wall_s);
        std::fs::write(
            args.out
                .join(format!("{stem}-trace{}.json", u8::from(args.trace))),
            record,
        )
    });
    if let Err(e) = written {
        eprintln!(
            "perfbench: cannot write results under {}: {e}",
            args.out.display()
        );
        return ExitCode::from(1);
    }
    for e in &outcome.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    if args.trace {
        eprintln!("perfbench: {} benchmark spans recorded", tracer.recorded());
    }
    println!("{}", outcome.result_line());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
