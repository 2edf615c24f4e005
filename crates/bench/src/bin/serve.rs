//! Resident evaluation server: one [`EvalService`] driven by JSON
//! commands on stdin, one JSON response per line on stdout.
//!
//! ```text
//! serve [--workers W] [--runners R] [--queue N] [--quota N]
//!       [--shard-batch N] [--step-delay-ms MS] [--store DIR] [--events]
//! ```
//!
//! Commands (one JSON object per line):
//!
//! | command | fields | effect |
//! |---|---|---|
//! | `submit` | `tenant`, `models` (names), `scale?`, `no_choice?` | queue a session |
//! | `cancel` | `session` | cancel (batch-boundary for running) |
//! | `resume` | `session` | re-queue a cancelled session |
//! | `wait` | `session`, `timeout_ms?` | block until terminal |
//! | `status` | `session` | snapshot |
//! | `report` | `session` | canonical report JSON of a done session, handed out once |
//! | `stats` | — | service counters |
//! | `shutdown` | — | graceful stop, then exit |
//!
//! Responses are `{"ok": ...}` or `{"err": ...}`; admission sheds are
//! `{"shed": <structured reason>}` — distinct from errors because a
//! shed is the service working as designed. Sessions are numbered
//! from 1; read a session's `status` before its `report`, since a
//! second `report` answers `unknown session`. With `--events`, progress
//! events stream to stderr as JSON lines. EOF on stdin is a graceful
//! shutdown.

use std::io::BufRead;
use std::sync::Arc;
use std::time::Duration;

use chipvqa_core::DatasetSpec;
use chipvqa_eval::harness::EvalOptions;
use chipvqa_models::ModelZoo;
use chipvqa_serve::{EvalService, ServiceConfig, SessionId, SessionRequest};
use serde_json::Value;

fn main() {
    let mut config = ServiceConfig::default();
    let mut events = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |what: &str| -> String {
            args.next()
                .unwrap_or_else(|| panic!("{what} takes a value"))
        };
        match arg.as_str() {
            "--workers" => config.workers = parse_pos(&take("--workers"), "--workers"),
            "--runners" => config.runners = parse_pos(&take("--runners"), "--runners"),
            "--queue" => {
                config.admission.queue_capacity = parse_pos(&take("--queue"), "--queue");
            }
            "--quota" => {
                config.admission.tenant_running_quota = parse_pos(&take("--quota"), "--quota");
            }
            "--shard-batch" => {
                config.shard_batch = parse_pos(&take("--shard-batch"), "--shard-batch");
            }
            "--step-delay-ms" => {
                config.step_delay = Duration::from_millis(
                    take("--step-delay-ms")
                        .parse()
                        .expect("--step-delay-ms takes milliseconds"),
                );
            }
            "--store" => config.store_dir = Some(take("--store").into()),
            "--events" => events = true,
            other => {
                eprintln!(
                    "unknown argument `{other}` (usage: serve [--workers W] [--runners R] \
                     [--queue N] [--quota N] [--shard-batch N] [--step-delay-ms MS] \
                     [--store DIR] [--events])"
                );
                std::process::exit(2);
            }
        }
    }

    let mut service = EvalService::start(config).unwrap_or_else(|e| {
        eprintln!("failed to start service: {e}");
        std::process::exit(1);
    });
    let zoo = Arc::new(ModelZoo::all());

    let event_pump = events.then(|| {
        let rx = service.subscribe();
        std::thread::spawn(move || {
            while let Ok(event) = rx.recv() {
                eprintln!(
                    "{}",
                    serde_json::to_string(&event).expect("event serializes")
                );
            }
        })
    });

    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let response = match serde_json::from_str::<Value>(&line) {
            Ok(cmd) => handle(&service, &zoo, &cmd),
            Err(e) => err(format!("bad command json: {e}")),
        };
        println!("{}", serde_json::to_string(&response).expect("serializes"));
        if matches!(response.get("ok"), Some(Value::Str(s)) if s == "shutdown") {
            break;
        }
    }

    if let Err(e) = service.shutdown() {
        eprintln!("store flush on shutdown failed: {e}");
        std::process::exit(1);
    }
    drop(service);
    if let Some(pump) = event_pump {
        let _ = pump.join();
    }
}

fn parse_pos(v: &str, flag: &str) -> usize {
    v.parse()
        .ok()
        .filter(|&n: &usize| n >= 1)
        .unwrap_or_else(|| panic!("{flag} takes a positive integer"))
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn ok(v: Value) -> Value {
    obj(vec![("ok", v)])
}

fn err(msg: impl std::fmt::Display) -> Value {
    obj(vec![("err", Value::Str(msg.to_string()))])
}

fn session_arg(cmd: &Value) -> Result<SessionId, Value> {
    match cmd.get("session") {
        Some(Value::U64(n)) => Ok(SessionId(*n)),
        Some(Value::I64(n)) if *n >= 0 => Ok(SessionId(*n as u64)),
        _ => Err(err("command needs a numeric `session` field")),
    }
}

fn handle(service: &EvalService, zoo: &[chipvqa_models::ModelProfile], cmd: &Value) -> Value {
    let Some(Value::Str(name)) = cmd.get("cmd") else {
        return err("command object needs a string `cmd` field");
    };
    match name.as_str() {
        "submit" => {
            let tenant = match cmd.get("tenant") {
                Some(Value::Str(t)) => t.clone(),
                None => String::new(),
                Some(other) => {
                    return err(format!("`tenant` must be a string, got {}", other.kind()))
                }
            };
            let models = match cmd.get("models").and_then(Value::as_arr) {
                Some(names) => {
                    let mut models = Vec::with_capacity(names.len());
                    for n in names {
                        let Value::Str(n) = n else {
                            return err("`models` must be an array of model names");
                        };
                        match zoo.iter().find(|p| &p.name == n) {
                            Some(p) => models.push(p.clone()),
                            None => return err(format!("unknown model `{n}`")),
                        }
                    }
                    models
                }
                None => return err("submit needs a `models` array of zoo model names"),
            };
            let scale = match cmd.get("scale") {
                Some(Value::U64(n)) if *n >= 1 => *n as usize,
                Some(Value::I64(n)) if *n >= 1 => *n as usize,
                None => 1,
                Some(_) => return err("`scale` must be a positive integer"),
            };
            let mut spec = DatasetSpec::scaled(scale);
            if matches!(cmd.get("no_choice"), Some(Value::Bool(true))) {
                spec = spec.with_mc_sa_ratio(0.0);
            }
            let request = SessionRequest {
                tenant,
                models,
                spec,
                options: EvalOptions::default(),
                fault_plan: None,
                stream_shard_len: None,
            };
            match service.submit(request) {
                Ok(id) => ok(obj(vec![("session", Value::U64(id.0))])),
                Err(reason) => obj(vec![("shed", serde_json::to_value(&reason))]),
            }
        }
        "cancel" => match session_arg(cmd) {
            Ok(id) => match service.cancel(id) {
                Ok(()) => ok(Value::Str("cancelling".to_string())),
                Err(e) => err(e),
            },
            Err(resp) => resp,
        },
        "resume" => match session_arg(cmd) {
            Ok(id) => match service.resume(id) {
                Ok(()) => ok(Value::Str("queued".to_string())),
                Err(e) => err(e),
            },
            Err(resp) => resp,
        },
        "wait" => match session_arg(cmd) {
            Ok(id) => {
                let timeout_ms = match cmd.get("timeout_ms") {
                    Some(Value::U64(n)) => *n,
                    Some(Value::I64(n)) if *n >= 0 => *n as u64,
                    None => 600_000,
                    Some(_) => return err("`timeout_ms` must be a non-negative integer"),
                };
                match service.wait(id, Duration::from_millis(timeout_ms)) {
                    Ok(state) => ok(Value::Str(state.label().to_string())),
                    Err(e) => err(e),
                }
            }
            Err(resp) => resp,
        },
        "status" => match session_arg(cmd) {
            Ok(id) => match service.snapshot(id) {
                Ok(snap) => ok(serde_json::to_value(&snap)),
                Err(e) => err(e),
            },
            Err(resp) => resp,
        },
        "report" => match session_arg(cmd) {
            Ok(id) => match service.report(id) {
                Ok(report) => ok(serde_json::to_value(&report)),
                Err(e) => err(e),
            },
            Err(resp) => resp,
        },
        "stats" => ok(serde_json::to_value(&service.stats())),
        "shutdown" => ok(Value::Str("shutdown".to_string())),
        other => err(format!("unknown command `{other}`")),
    }
}
