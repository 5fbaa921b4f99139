//! Host-speed benchmark of the HyperTRIO simulator.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! benchmark [--seed N] [--seconds S] [--out DIR]
//! benchmark --compare A.jsonl B.jsonl
//! benchmark --validate FILE.jsonl
//! ```
//!
//! With `--workload`, one run: `--trace 0` times reps of the workload for
//! `--seconds` and reports the end-to-end metrics; `--trace 1` makes the
//! traced pass and reports the per-layer metrics. The run prints every
//! metric by name and unit, then, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. With `--out DIR` it also
//! appends a record to `DIR/results.jsonl` and, when traced, writes the
//! replay's spans to `DIR/spans-<workload>.json`.
//!
//! Without `--workload`, every workload runs in both modes, each run in a
//! child process of its own so that peak RSS is per run.
//!
//! `--compare` judges file B against file A under the bounds in
//! `BENCHMARK.json` (read from the working directory) and exits non-zero
//! on any worse end-to-end metric, `model.*` mismatch or failed run.
//! `--validate` schema-checks a results file.
//!
//! See `README.md` beside this package for the workloads, the layer map,
//! and how to read the spans.

mod calibrate;
mod measure;
mod metrics;
mod replay;
mod results;
mod stats;
mod workloads;

use std::io::Write as _;
use std::process::{Command, ExitCode};
use std::time::Duration;

use results::RunId;
use workloads::{Size, Workload};

/// `--seconds` when none is given (`BENCHMARK.json`'s `run_seconds`).
const DEFAULT_SECONDS: u64 = 20;

/// What the command line asks for.
enum Mode {
    Run(RunId, Option<String>),
    All {
        seed: u64,
        seconds: u64,
        out: Option<String>,
    },
    Compare(String, String),
    Validate(String),
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut out) = (0, DEFAULT_SECONDS, None, None);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs a value"))
        };
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{arg} needs a whole number, got '{v}'"))
        };
        match arg.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::from_name(&v).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload '{v}' (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = number(value()?)?,
            "--seconds" => seconds = number(value()?)?.max(1),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got '{other}'")),
                })
            }
            "--out" => out = Some(value()?),
            "--compare" => return Ok(Mode::Compare(value()?, value()?)),
            "--validate" => return Ok(Mode::Validate(value()?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(match workload {
        Some(workload) => Mode::Run(
            RunId {
                workload,
                seed,
                seconds,
                trace: trace.unwrap_or(false),
            },
            out,
        ),
        None if trace.is_some() => return Err("--trace needs --workload".into()),
        None => Mode::All { seed, seconds, out },
    })
}

/// One run: measure, print every metric, record, and end with the result
/// line.
fn run(id: RunId, out: Option<String>) -> Result<(), String> {
    let spec = id.workload.spec(id.seed, Size::Full);
    let budget = Duration::from_secs(id.seconds);
    let result = if id.trace {
        measure::traced(&spec, budget)
    } else {
        measure::end_to_end(&spec, budget)
    };
    let name = id.workload.name();
    for m in &result.metrics {
        let s = stats::Summary::of(&m.samples);
        println!(
            "{name:<14} {:<30} {:>16.6} {:<10} n={:<3} p25={:.6} median={:.6} p75={:.6} min={:.6} max={:.6}",
            m.metric.name, m.value, m.metric.unit, s.n, s.p25, s.median, s.p75, s.min, s.max
        );
    }
    println!(
        "{name:<14} host times above are at reference-host speed; this host ran {:.3}x slower",
        result.slowdown
    );
    if id.trace && id.workload == Workload::Ht1024 {
        println!("{name:<14} paper Fig 12c: the PB serves ~45% of requests at 1024 tenants");
    }
    for f in &result.failures {
        eprintln!("{name}: FAILED {f}");
    }
    if let Some(dir) = out {
        std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
        let path = format!("{dir}/results.jsonl");
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| format!("cannot open {path}: {e}"))?;
        writeln!(file, "{}", results::record(&id, &result))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        if id.trace {
            let path = format!("{dir}/spans-{name}.json");
            std::fs::write(&path, replay::chrome_trace(name, &result.spans))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
        }
    }
    println!("{}", results::result_line(&result));
    Ok(())
}

/// Every workload in both modes, one child process per run.
fn run_all(seed: u64, seconds: u64, out: Option<String>) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut failed = Vec::new();
    for w in Workload::ALL {
        for trace in ["0", "1"] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name(), "--trace", trace]).args([
                "--seed",
                &seed.to_string(),
                "--seconds",
                &seconds.to_string(),
            ]);
            if let Some(dir) = &out {
                cmd.args(["--out", dir]);
            }
            let output = cmd
                .output()
                .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            eprint!("{}", String::from_utf8_lossy(&output.stderr));
            let correct = stdout
                .lines()
                .last()
                .and_then(|l| bench::json::parse(l).ok())
                .and_then(|doc| doc.get("correct").and_then(bench::json::Json::as_bool));
            if !output.status.success() || correct != Some(true) {
                failed.push(format!("{} --trace {trace}", w.name()));
            }
        }
    }
    if failed.is_empty() {
        println!("all {} runs correct", 2 * Workload::ALL.len());
        Ok(())
    } else {
        Err(format!("failed runs: {}", failed.join(", ")))
    }
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&args).and_then(|mode| match mode {
        Mode::Run(id, out) => run(id, out),
        Mode::All { seed, seconds, out } => run_all(seed, seconds, out),
        Mode::Validate(path) => {
            let n = results::parse_file(&read(&path)?).map_err(|e| format!("{path}: {e}"))?;
            println!(
                "{path}: {} record(s), schema {} OK",
                n.len(),
                results::SCHEMA
            );
            Ok(())
        }
        Mode::Compare(a, b) => {
            let bounds = results::parse_bounds(&read("BENCHMARK.json")?)
                .map_err(|e| format!("BENCHMARK.json: {e}"))?;
            let ra = results::parse_file(&read(&a)?).map_err(|e| format!("{a}: {e}"))?;
            let rb = results::parse_file(&read(&b)?).map_err(|e| format!("{b}: {e}"))?;
            let (text, ok) = results::compare(&bounds, &ra, &rb);
            print!("{text}");
            if ok {
                Ok(())
            } else {
                Err(format!("{b} is worse than {a}"))
            }
        }
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bench::json::{self, Json};

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_run_command_line() {
        let Ok(Mode::Run(id, None)) =
            parse_args(&args("--workload ht-100k --seed 3 --seconds 7 --trace 1"))
        else {
            panic!("not a run");
        };
        assert_eq!(
            (id.workload, id.seed, id.seconds, id.trace),
            (Workload::Ht100k, 3, 7, true)
        );
        assert!(matches!(parse_args(&[]), Ok(Mode::All { seed: 0, .. })));
        for bad in [
            "--workload nope",
            "--workload ht-1024 --trace 2",
            "--seed x",
            "--trace 1",
            "--out",
            "--bogus",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "accepted {bad}");
        }
    }

    /// `BENCHMARK.json` at the repository root must describe exactly what
    /// this program reports.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let list = |key: &str| doc.get(key).and_then(Json::as_arr).unwrap().to_vec();
        let field = |e: &Json, k: &str| e.get(k).and_then(Json::as_str).unwrap().to_string();
        let names: Vec<String> = list("workloads").iter().map(|w| field(w, "name")).collect();
        let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, expected);
        for (key, table) in [
            ("end_to_end", &metrics::END_TO_END[..]),
            ("per_layer", &metrics::PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String, String)> = list(key)
                .iter()
                .map(|e| (field(e, "name"), field(e, "unit"), field(e, "better")))
                .collect();
            let ours: Vec<(String, String, String)> = table
                .iter()
                .map(|m| (m.name.into(), m.unit.into(), m.better.as_str().into()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
        let run_seconds = doc.get("run_seconds").and_then(Json::as_num).unwrap();
        assert_eq!(run_seconds, DEFAULT_SECONDS as f64);
        assert!(results::parse_bounds(&std::fs::read_to_string(path).unwrap()).is_ok());
    }
}
