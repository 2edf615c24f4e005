//! The Rust half of `perfbench`: the runs that must call into the
//! library rather than a shipped binary. `perfbench/run.py` times the
//! shipped `table2` binary itself and calls this harness for
//!
//! - `trace-grid`: a grid workload driven through the public seams with
//!   a recording `Telemetry`, printing per-layer numbers;
//! - `reference-grid`: the scale-10 Table II from the sequential
//!   reference harness, used to count differing outcomes on a mismatch;
//! - `serve`: the `serve_open` open loop against a fresh `EvalService`;
//! - `serve-ref`: the batch reference hash of every `serve_open` session.
//!
//! Every subcommand writes one JSON document to `--out`.

mod grid;
mod openloop;
mod serve;

use std::collections::BTreeMap;
use std::path::PathBuf;

use serde_json::Value;

/// Parsed `--flag value` pairs (plus bare `--trace`).
struct Args {
    values: BTreeMap<String, String>,
    trace: bool,
}

impl Args {
    fn parse(mut raw: impl Iterator<Item = String>) -> Args {
        let mut values = BTreeMap::new();
        let mut trace = false;
        while let Some(flag) = raw.next() {
            if flag == "--trace" {
                trace = true;
                continue;
            }
            let Some(name) = flag.strip_prefix("--") else {
                usage(&format!("unexpected argument `{flag}`"));
            };
            let value = raw
                .next()
                .unwrap_or_else(|| usage(&format!("{flag} takes a value")));
            values.insert(name.to_string(), value);
        }
        Args { values, trace }
    }

    fn str(&self, name: &str) -> &str {
        self.values
            .get(name)
            .map(String::as_str)
            .unwrap_or_else(|| usage(&format!("missing --{name}")))
    }

    fn path(&self, name: &str) -> PathBuf {
        PathBuf::from(self.str(name))
    }

    fn num<T: std::str::FromStr>(&self, name: &str) -> T {
        self.str(name)
            .parse()
            .unwrap_or_else(|_| usage(&format!("--{name} takes a number")))
    }
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "perfbench-harness: {msg}\n\
         usage: perfbench-harness trace-grid --workload W --seed S [--store DIR] --report-json F --out F\n\
         \x20      perfbench-harness reference-grid --out F\n\
         \x20      perfbench-harness serve --seed S --seconds T --out F [--trace]\n\
         \x20      perfbench-harness serve-ref --seed S --seconds T --out F"
    );
    std::process::exit(2);
}

fn main() {
    let mut raw = std::env::args().skip(1);
    let command = raw.next().unwrap_or_else(|| usage("missing subcommand"));
    let args = Args::parse(raw);
    let result = match command.as_str() {
        "trace-grid" => grid::trace_grid(
            args.str("workload"),
            args.num("seed"),
            args.values.get("store").map(PathBuf::from).as_deref(),
            &args.path("report-json"),
        ),
        "reference-grid" => Ok(grid::reference_grid()),
        "serve" => serve::run(args.num("seed"), args.num("seconds"), args.trace),
        "serve-ref" => Ok(serve::reference(args.num("seed"), args.num("seconds"))),
        other => usage(&format!("unknown subcommand `{other}`")),
    };
    let doc = result.unwrap_or_else(|e| {
        eprintln!("perfbench-harness {command}: {e}");
        std::process::exit(1);
    });
    let out = args.path("out");
    if let Err(e) = std::fs::write(&out, doc) {
        eprintln!("failed to write {}: {e}", out.display());
        std::process::exit(1);
    }
}

/// A JSON object from `(key, value)` pairs, in order.
fn obj<K: Into<String>>(fields: Vec<(K, Value)>) -> Value {
    Value::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

fn num(x: f64) -> Value {
    Value::F64(x)
}

fn to_json(value: &Value) -> String {
    serde_json::to_string(value).expect("a value tree serializes")
}

/// FNV-1a 64 over `bytes`, the hash the frozen report golden uses.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// User + system CPU seconds of this whole process so far, from
/// `/proc/self/stat` (fields 14 and 15, in USER_HZ = 100 ticks).
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs is readable");
    // the command name (field 2) may hold spaces; fields after it are plain
    let after_comm = &stat[stat.rfind(')').expect("stat has a comm field") + 2..];
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    ticks as f64 / 100.0
}

/// This process's high-water resident set, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is readable");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
