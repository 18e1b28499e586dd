//! `sysbench`: one end-to-end benchmark of the Figure 4 path — client
//! statement → native trigger → `syb_sendmsg` → LED → action procedure back
//! in the server → response — with per-layer attribution. See `README.md`.

mod bench;
mod json;
mod recovery;
mod report;
mod rng;
mod run;
mod stack;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use json::Json;
use workload::{Scale, Workload};

const USAGE: &str = "usage:
  sysbench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, result line last
  sysbench run   --seed <n> --out <file.json> [--seconds <s>] [--smoke]
  sysbench trace --seed <n> --out <file.json> --trace-out <spans.jsonl> [--seconds <s>] [--smoke]
  sysbench compare <a.json> <b.json> [--repeat <more runs of a>...]";

/// Run length `run` and `trace` use unless told otherwise; the driver
/// command always passes `BENCHMARK.json`'s `run_seconds`.
const DEFAULT_SECONDS: u64 = 10;

#[derive(Default)]
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Vec<String>)>,
}

impl Args {
    /// `--flag v1 v2` collects values up to the next flag; words before the
    /// first flag are positional.
    fn parse(argv: impl Iterator<Item = String>) -> Args {
        let mut args = Args::default();
        for word in argv {
            match (word.strip_prefix("--"), args.flags.last_mut()) {
                (Some(flag), _) => args.flags.push((flag.to_string(), Vec::new())),
                (None, Some((_, values))) => values.push(word),
                (None, None) => args.positional.push(word),
            }
        }
        args
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == flag)
    }

    fn values(&self, flag: &str) -> &[String] {
        self.flags
            .iter()
            .find(|(f, _)| f == flag)
            .map_or(&[], |(_, v)| v)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.values(flag).first().map(String::as_str)
    }

    fn number(&self, flag: &str) -> Result<Option<u64>, String> {
        self.value(flag)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{flag}: `{v}` is not a whole number"))
            })
            .transpose()
    }

    fn required(&self, flag: &str) -> Result<&str, String> {
        self.value(flag)
            .ok_or_else(|| format!("--{flag} is required\n{USAGE}"))
    }
}

fn main() -> ExitCode {
    let args = Args::parse(std::env::args().skip(1));
    let result = match args.positional.first().map(String::as_str) {
        None if args.has("workload") => one_workload(&args),
        Some("run") => all_workloads(&args, false),
        Some("trace") => all_workloads(&args, true),
        Some("compare") => compare(&args),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("sysbench: {message}");
            ExitCode::from(2)
        }
    }
}

/// The driver command: prints the workload's detail document, then the
/// contract's result line last.
fn one_workload(args: &Args) -> Result<bool, String> {
    let name = args.required("workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed = args.number("seed")?.ok_or("--seed is required")?;
    let seconds = args.number("seconds")?.ok_or("--seconds is required")?;
    let traced = match args.required("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace: `{other}` is neither 0 nor 1")),
    };
    let (scale, guard_s) = if args.has("smoke") {
        (Scale::smoke(), 60)
    } else {
        // Three times the calibrated window, then the run is abandoned and
        // its unsent operations count as failed.
        (Scale::full(workload, seconds), 3 * seconds)
    };
    let spans_out = args.value("trace-out").map(PathBuf::from);
    let outcome = run::run_workload(
        workload,
        seed,
        &scale,
        guard_s,
        traced,
        spans_out.as_deref(),
    )?;
    println!("{}", outcome.detail.render());
    println!("{}", outcome.contract_line());
    Ok(outcome.correct)
}

fn tool_version(program: &str, args: &[&str]) -> Json {
    let output = Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success());
    let text = output.and_then(|o| String::from_utf8(o.stdout).ok());
    text.map_or(Json::Null, |t| Json::str(t.trim()))
}

/// `run` / `trace`: each workload in its own child process of this binary
/// (fresh allocator, per-workload `VmHWM`), collected into one document.
fn all_workloads(args: &Args, traced: bool) -> Result<bool, String> {
    let seed = args.number("seed")?.ok_or("--seed is required")?;
    let seconds = args.number("seconds")?.unwrap_or(DEFAULT_SECONDS);
    let out = args.required("out")?;
    let spans_out = args.value("trace-out");
    if let Some(path) = spans_out {
        // Children append their spans, one workload after the other.
        std::fs::write(path, "").map_err(|e| format!("{path}: {e}"))?;
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut workloads = Vec::new();
    let mut correct = true;
    for workload in Workload::ALL {
        let mut child = Command::new(&exe);
        child.args(["--workload", workload.name(), "--seed", &seed.to_string()]);
        child.args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ]);
        if args.has("smoke") {
            child.arg("--smoke");
        }
        if let Some(path) = spans_out {
            child.args(["--trace-out", path]);
        }
        eprintln!("sysbench: {} ...", workload.name());
        let output = child
            .output()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let detail = stdout
            .lines()
            .find(|l| l.starts_with("{\"workload\""))
            .ok_or_else(|| {
                let stderr = String::from_utf8_lossy(&output.stderr);
                format!(
                    "{}: no result ({}): {stderr}",
                    workload.name(),
                    output.status
                )
            })
            .and_then(Json::parse)?;
        correct &= output.status.success();
        workloads.push((workload.name(), detail));
    }
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let document = Json::obj([
        ("schema", Json::str("sysbench/1")),
        ("mode", Json::str(if traced { "trace" } else { "run" })),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds as f64)),
        ("host", Json::obj([("cpus", Json::Num(cpus as f64))])),
        ("git_rev", tool_version("git", &["rev-parse", "HEAD"])),
        ("rustc", tool_version("rustc", &["--version"])),
        ("clients", Json::Num(workload::CLIENTS as f64)),
        (
            "load",
            Json::str("closed loop: each client sends its next EXEC after the previous reply"),
        ),
        ("flush_policy", Json::str(stack::FLUSH_POLICY)),
        ("workloads", Json::obj(workloads)),
    ]);
    std::fs::write(out, document.render_pretty()).map_err(|e| format!("{out}: {e}"))?;
    print!("{}", document.render_pretty());
    Ok(correct)
}

fn compare(args: &Args) -> Result<bool, String> {
    let read = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let [_, base, new] = args.positional.as_slice() else {
        return Err(USAGE.to_string());
    };
    let repeats: Vec<Json> = args
        .values("repeat")
        .iter()
        .map(read)
        .collect::<Result<_, _>>()?;
    report::compare(&read(base)?, &repeats, &read(new)?)
}
