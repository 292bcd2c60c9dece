//! Command line of the benchmark:
//!
//! ```text
//! faqs-perfbench --workload <serve-zipf-rw|triangle-churn|dist-star-tcp|all>
//!                --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Prints provenance, every metric by name with unit and sample count,
//! every answer check, and as its last line one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. `all` runs each
//! workload in its own child process (so `peak_rss_mb` stays per
//! workload) and prints them one after the other.

use faqs_perfbench::report::json_line;
use faqs_perfbench::{nproc, run, Opts, WORKLOADS};
use std::process::{exit, Command};

const USAGE: &str =
    "usage: faqs-perfbench --workload <serve-zipf-rw|triangle-churn|dist-star-tcp|all> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn fail(msg: &str) -> ! {
    eprintln!("faqs-perfbench: {msg}");
    exit(2)
}

struct Args {
    workload: String,
    opts: Opts,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u32>().map_err(bad)?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        opts: Opts {
            seed: seed.ok_or("--seed is required")?,
            seconds: f64::from(seconds),
            trace: trace.ok_or("--trace is required")?,
            smoke: false,
        },
    })
}

/// First line of `cmd`'s standard output, or `unknown`.
fn first_line_of(cmd: &mut Command) -> String {
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

fn provenance(a: &Args) -> String {
    let rustc = first_line_of(Command::new("rustc").arg("-V"));
    // Never look for a repository above the working directory: outside
    // a git checkout the commit is `unknown`.
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.display().to_string()))
        .unwrap_or_default();
    let commit = first_line_of(
        Command::new("git")
            .args(["rev-parse", "HEAD"])
            .env("GIT_CEILING_DIRECTORIES", ceiling),
    );
    format!(
        "provenance workload={} seed={} seconds={} trace={} nproc={} rustc=\"{rustc}\" commit={commit}",
        a.workload,
        a.opts.seed,
        a.opts.seconds,
        u8::from(a.opts.trace),
        nproc(),
    )
}

/// `--workload all`: each workload in a child process of this binary.
fn run_all(a: &Args, args: &[String]) {
    let exe = std::env::current_exe().unwrap_or_else(|e| fail(&format!("own executable: {e}")));
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics: Vec<(String, String, f64)> = Vec::new();
    for w in WORKLOADS {
        let mut child_args = args.to_vec();
        let at = child_args
            .iter()
            .position(|x| x == "--workload")
            .expect("parsed")
            + 1;
        child_args[at] = w.to_string();
        let out = Command::new(&exe)
            .args(&child_args)
            .output()
            .unwrap_or_else(|e| fail(&format!("running {w}: {e}")));
        let stdout = String::from_utf8_lossy(&out.stdout);
        if !out.status.success() {
            fail(&format!("{w} exited with {}", out.status));
        }
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or_default();
        for l in &lines {
            println!("[{w}] {l}");
            let mut f = l.split_whitespace();
            if let (Some("metric"), Some(name), Some(value), Some(unit)) =
                (f.next(), f.next(), f.next(), f.next())
            {
                metrics.push((
                    format!("{w}.{name}"),
                    unit.to_owned(),
                    value.parse().unwrap_or(f64::NAN),
                ));
            }
        }
        let field = |key: &str| {
            last.split(&format!("\"{key}\": "))
                .nth(1)
                .and_then(|s| s.split([',', '}']).next())
                .unwrap_or_default()
                .to_owned()
        };
        correct &= field("correct") == "true";
        attempted += field("attempted").parse::<u64>().unwrap_or(0);
        failed += field("failed").parse::<u64>().unwrap_or(0);
    }
    println!("{}", provenance(a));
    let values: Vec<(&str, &str, f64)> = metrics
        .iter()
        .map(|(n, u, v)| (n.as_str(), u.as_str(), *v))
        .collect();
    println!("{}", json_line(correct, attempted, failed, &values));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let a = parse(&args).unwrap_or_else(|e| fail(&format!("{e}\n{USAGE}")));
    // The library reads its FAQS_* escape hatches from the environment;
    // an inherited one would silently change what is measured.
    let hatches: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("FAQS_"))
        .collect();
    if !hatches.is_empty() {
        fail(&format!(
            "refusing to measure with {} set: unset every FAQS_* variable",
            hatches.join(", ")
        ));
    }
    if a.workload == "all" {
        run_all(&a, &args);
        return;
    }
    let report = run(&a.workload, &a.opts).expect("workload name was validated");
    for line in report.lines() {
        println!("{line}");
    }
    println!("{}", provenance(&a));
    println!("{}", report.json(a.opts.trace));
}
