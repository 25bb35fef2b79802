//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload corpus_batch|serve_cold --seed N
//!           --seconds S --trace 0|1 --server-bin PATH --work-dir DIR
//! ```
//!
//! Untraced runs (`--trace 0`) report the end-to-end metrics; traced runs
//! (`--trace 1`) replay every layer under a span recorder and report the
//! per-layer metrics. The last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. `perfbench/run.py`
//! builds this binary and `vliw-served` and forwards its arguments; see
//! `perfbench/NOTES.md` for the workloads and what each metric predicts.

mod cold;
mod corpus;
mod loadgen;
mod server;
mod trace;
mod util;

use std::path::PathBuf;

/// Everything a workload run hands back to `main`.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks and workload validity checks that did not hold, one
    /// line each; any entry makes the run `correct: false`.
    pub problems: Vec<String>,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Record an output mismatch: counted as a failed operation and
    /// reported on stderr (the first few only).
    pub fn mismatch(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(what);
        }
    }

    /// Record a workload validity violation (not an operation failure).
    pub fn invalid(&mut self, what: String) {
        self.problems.push(what);
    }

    fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.problems.is_empty() && self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let value = if value.is_finite() { *value } else { 0.0 };
            s.push_str(&format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        s.push_str("}}");
        s
    }
}

/// Run-wide settings parsed from the command line.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub server_bin: PathBuf,
    pub work_dir: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload corpus_batch|serve_cold --seed N \
         --seconds S --trace 0|1 --server-bin PATH --work-dir DIR\n\
         \x20      perfbench --setup-probe"
    );
    std::process::exit(2);
}

fn parse_opts(args: &[String]) -> Opts {
    let mut opts = Opts {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        server_bin: PathBuf::new(),
        work_dir: PathBuf::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--workload" => opts.workload = value(),
            "--seed" => opts.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => opts.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => opts.trace = value() == "1",
            "--server-bin" => opts.server_bin = value().into(),
            "--work-dir" => opts.work_dir = value().into(),
            _ => usage(),
        }
    }
    if opts.seconds <= 0.0 {
        usage();
    }
    opts
}

/// Remove the servers' cache directories under `work_dir` (span files are
/// kept): before a run, in case an earlier one was killed, and after it.
fn clear_cache_dirs(work_dir: &std::path::Path) {
    if let Ok(entries) = std::fs::read_dir(work_dir) {
        for e in entries.flatten() {
            if e.path().is_dir() {
                let _ = std::fs::remove_dir_all(e.path());
            }
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--setup-probe") {
        corpus::setup_probe();
        return;
    }
    let opts = parse_opts(&args);
    clear_cache_dirs(&opts.work_dir);
    let result = match opts.workload.as_str() {
        "corpus_batch" => corpus::run(&opts),
        "serve_cold" => cold::run(&opts),
        _ => usage(),
    };
    clear_cache_dirs(&opts.work_dir);
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for p in &report.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    println!("{}", report.to_json());
}
