//! `perfbench` — the scheduler's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <judge_replay|backlog_replay|wire_open_loop>
//!           --seed N --seconds S --trace <0|1> [--sock-dir DIR]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics untraced; `--trace 1`
//! runs the per-layer spans instead. Either way the last line of
//! standard output is the JSON result. `run.py` builds and runs this.

mod bench;
mod host;
mod layers;
mod replay;
mod report;
mod stats;
mod wire;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use workload::Workload;

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed for every generated input.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Per-layer run instead of the end-to-end one.
    pub traced: bool,
    /// Directory for the wire server's socket.
    pub sock_dir: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut sock_dir = PathBuf::from(".");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds `{value}`"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got `{value}`")),
                });
            }
            "--sock-dir" => sock_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        traced: traced.ok_or("missing --trace")?,
        sock_dir,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace <0|1> [--sock-dir DIR]",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    match bench::run(&args) {
        Ok(report) => {
            println!("{}", report.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_documented_command_line() {
        let a = parse_args(&argv(
            "--workload judge_replay --seed 3 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::JudgeReplay);
        assert_eq!((a.seed, a.seconds, a.traced), (3, 10.0, true));
        assert!(parse_args(&argv("--workload judge_replay --seed 3 --seconds 10")).is_err());
        assert!(parse_args(&argv("--workload x --seed 3 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&argv(
            "--workload judge_replay --seed 3 --seconds 0 --trace 0"
        ))
        .is_err());
    }
}
