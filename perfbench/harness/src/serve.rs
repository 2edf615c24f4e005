//! The `serve_open` workload: a seeded open loop of sessions against a
//! fresh `EvalService`, and the batch reference of every session.
//!
//! The schedule and the request mix are a pure function of (seed,
//! seconds), so `serve` and `serve-ref` rebuild the same plan in
//! separate processes: the reference work never warms the timed
//! process's generator memo or inflates its resident set.

use std::collections::HashMap;
use std::sync::mpsc::Receiver;
use std::time::{Duration, Instant};

use chipvqa_core::gen::memo;
use chipvqa_core::{DatasetSpec, BASE_SIZE};
use chipvqa_eval::harness::{evaluate, EvalOptions, EvalReport};
use chipvqa_models::{ModelProfile, ModelZoo, VlmPipeline};
use chipvqa_serve::{
    EvalService, ProgressEvent, ServiceConfig, SessionId, SessionReport, SessionRequest,
    SessionState,
};
use chipvqa_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde_json::Value;

use crate::openloop::{self, Offer, Outcome, Target};
use crate::{cpu_seconds, fnv1a64, num, obj, peak_rss_mb, to_json};

/// Offered sessions per second.
const RATE: f64 = 25.0;
/// Tenants the sessions are spread over.
const TENANTS: usize = 4;
/// Share of sessions on the streamed intake path.
const STREAMED_SHARE: f64 = 0.25;
/// Re-seeded collections in the mix.
const RESEEDS: usize = 4;
/// Session runners x executor workers: two, one per CPU of the
/// two-CPU machines this benchmark is sized for.
const RUNNERS: usize = 2;
const WORKERS: usize = 1;
/// How long accepted sessions may take to end after the last offer.
const DRAIN: Duration = Duration::from_secs(60);
/// Service start-ups timed for `setup_s` (the last one is kept).
const SETUPS: usize = 5;

/// One planned session.
struct Planned {
    due: Duration,
    collection: &'static str,
    request: SessionRequest,
}

/// The seeded schedule and request mix: Poisson arrivals at `RATE` per
/// second for `seconds`; 1-3 distinct zoo models per session; the paper
/// collection, its no-choice variant, scale 2, or one of four re-seeded
/// collections; a quarter streamed; four tenants.
fn plan(seed: u64, seconds: f64) -> Vec<Planned> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e7e_0be4_c4a1_1a5d);
    let zoo = ModelZoo::all();
    let reseeds: Vec<u64> = (0..RESEEDS)
        .map(|_| rng.gen_range(1..1_000_000u64))
        .collect();
    let mut at = 0.0f64;
    let mut planned = Vec::new();
    loop {
        at += -(1.0 - rng.gen::<f64>()).ln() / RATE;
        if at >= seconds {
            return planned;
        }
        let k = rng.gen_range(1..=3usize);
        let mut picks: Vec<usize> = (0..zoo.len()).collect();
        picks.shuffle(&mut rng);
        let models: Vec<ModelProfile> = picks[..k].iter().map(|&i| zoo[i].clone()).collect();
        let u = rng.gen::<f64>();
        let (collection, spec) = if u < 0.30 {
            ("paper", DatasetSpec::default())
        } else if u < 0.50 {
            ("no_choice", DatasetSpec::default().with_mc_sa_ratio(0.0))
        } else if u < 0.65 {
            ("scale2", DatasetSpec::scaled(2))
        } else {
            let s = reseeds[rng.gen_range(0..RESEEDS)];
            ("reseeded", DatasetSpec::default().with_seed(s))
        };
        let streamed = rng.gen_bool(STREAMED_SHARE);
        let mut request = SessionRequest {
            tenant: format!("tenant-{}", rng.gen_range(0..TENANTS)),
            models,
            spec,
            options: EvalOptions::default(),
            fault_plan: None,
            stream_shard_len: None,
        };
        if streamed {
            request = request.with_streaming(BASE_SIZE);
        }
        planned.push(Planned {
            due: Duration::from_secs_f64(at),
            collection,
            request,
        });
    }
}

/// `EvalService` as an open-loop target, optionally wrapping each call
/// into the service in a span of the benchmark's own.
struct ServiceTarget<'a> {
    service: &'a EvalService,
    events: Receiver<ProgressEvent>,
    tele: &'a Telemetry,
}

impl Target for ServiceTarget<'_> {
    type Request = SessionRequest;

    fn submit(&mut self, request: SessionRequest) -> Result<u64, &'static str> {
        let _span = self.tele.span("bench.submit");
        self.service
            .submit(request)
            .map(|id| id.0)
            .map_err(|reason| reason.label())
    }

    fn next_terminal(&mut self, timeout: Duration) -> Option<(u64, SessionState)> {
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.checked_duration_since(Instant::now())?;
            match self.events.recv_timeout(left) {
                Ok(ProgressEvent::State { session, state }) if state.is_terminal() => {
                    return Some((session.0, state))
                }
                Ok(_) => {}
                Err(_) => return None,
            }
        }
    }
}

/// Runs the open loop and returns every session's record plus the
/// service-side counters.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<String, String> {
    let planned = plan(seed, seconds);
    let config = ServiceConfig {
        workers: WORKERS,
        runners: RUNNERS,
        ..ServiceConfig::default()
    };
    let tele = if trace {
        Telemetry::recording()
    } else {
        Telemetry::disabled()
    };

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut service = None;
    for _ in 0..SETUPS {
        if let Some(mut previous) = service.take() {
            EvalService::shutdown(&mut previous).map_err(|e| format!("shutdown: {e}"))?;
        }
        let started = Instant::now();
        service = Some(EvalService::start(config.clone()).map_err(|e| format!("start: {e}"))?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut service = service.expect("at least one start-up");

    let memo_before = (memo::hits(), memo::misses());
    let mut target = ServiceTarget {
        service: &service,
        events: service.subscribe(),
        tele: &tele,
    };
    let (collections, offers): (Vec<&str>, Vec<Offer<SessionRequest>>) = planned
        .into_iter()
        .map(|p| {
            (
                p.collection,
                Offer {
                    due: p.due,
                    request: p.request,
                },
            )
        })
        .unzip();
    let shapes: Vec<(usize, usize, bool)> = offers
        .iter()
        .map(|o| {
            (
                o.request.models.len(),
                o.request.spec.total(),
                o.request.stream_shard_len.is_some(),
            )
        })
        .collect();
    let cpu_before = cpu_seconds();
    let (records, elapsed) = openloop::run(&mut target, offers, DRAIN);
    let cpu_s = cpu_seconds() - cpu_before;
    let memo_hits = memo::hits() - memo_before.0;
    let memo_misses = memo::misses() - memo_before.1;

    // checker work (hashing reports) starts only after the timed loop
    let mut sessions = Vec::with_capacity(records.len());
    for (i, record) in records.iter().enumerate() {
        let (models, questions, streamed) = shapes[i];
        let mut fields = vec![
            ("due_ms", num(record.due.as_secs_f64() * 1e3)),
            ("late_ms", num(record.late.as_secs_f64() * 1e3)),
            ("collection", Value::Str(collections[i].to_string())),
            ("streamed", Value::Bool(streamed)),
            ("evals", num((models * questions) as f64)),
        ];
        let outcome = match record.outcome {
            Outcome::Shed(reason) => format!("shed:{reason}"),
            Outcome::Lost => "lost".to_string(),
            Outcome::Ended { state, .. } => state.label().to_string(),
        };
        fields.push(("outcome", Value::Str(outcome)));
        if let (Some(id), Some(latency)) = (record.id, record.latency()) {
            let id = SessionId(id);
            let snap = service.snapshot(id).map_err(|e| e.to_string())?;
            let queue_wait = snap.queue_wait_ns.unwrap_or(0);
            let total = snap.total_ns.unwrap_or(0);
            fields.push(("latency_ms", num(latency.as_secs_f64() * 1e3)));
            fields.push(("queue_wait_ms", num(queue_wait as f64 / 1e6)));
            fields.push(("run_ms", num(total.saturating_sub(queue_wait) as f64 / 1e6)));
            if snap.state == SessionState::Done {
                let report = {
                    let _span = tele.span("bench.report");
                    service.report(id).map_err(|e| e.to_string())?
                };
                let hash = fnv1a64(report.canonical_json().as_bytes());
                fields.push(("hash", Value::Str(format!("0x{hash:016x}"))));
            }
        }
        sessions.push(obj(fields));
    }
    let cache = service.cache_stats();
    drop(target);
    service.shutdown().map_err(|e| format!("shutdown: {e}"))?;

    let spans = tele
        .snapshot()
        .spans
        .iter()
        .map(|(path, s)| {
            (
                path.clone(),
                obj(vec![
                    ("count", num(s.count as f64)),
                    ("total_s", num(s.total_ns as f64 / 1e9)),
                ]),
            )
        })
        .collect();
    Ok(to_json(&obj(vec![
        (
            "setup_s",
            Value::Arr(setup_s.into_iter().map(num).collect()),
        ),
        ("elapsed_s", num(elapsed.as_secs_f64())),
        ("cpu_s", num(cpu_s)),
        ("peak_rss_mb", num(peak_rss_mb())),
        ("cache_hit_ratio", num(cache.hit_rate())),
        (
            "memo_hit_ratio",
            num(crate::grid::ratio(memo_hits, memo_hits + memo_misses)),
        ),
        ("spans", Value::Obj(spans)),
        ("sessions", Value::Arr(sessions)),
    ])))
}

/// The batch reference hash of every planned session: each model
/// evaluated by the sequential harness over the materialised spec,
/// wrapped as a `SessionReport` — the body of
/// `chipvqa_bench::batch_reference_report`, with each (collection,
/// model) report computed once and shared by the sessions that repeat
/// it. The first session is cross-checked against
/// `batch_reference_report` itself.
pub fn reference(seed: u64, seconds: f64) -> String {
    let planned = plan(seed, seconds);
    let mut benches = HashMap::new();
    let mut reports: HashMap<(u64, String), EvalReport> = HashMap::new();
    let mut hashes = Vec::with_capacity(planned.len());
    for p in &planned {
        let spec = &p.request.spec;
        let fp = spec.fingerprint();
        let bench = benches.entry(fp).or_insert_with(|| spec.build());
        let per_model = p
            .request
            .models
            .iter()
            .map(|m| {
                reports
                    .entry((fp, m.name.clone()))
                    .or_insert_with(|| {
                        evaluate(&VlmPipeline::new(m.clone()), bench, p.request.options)
                    })
                    .clone()
            })
            .collect();
        let json = SessionReport::new(per_model).canonical_json();
        if hashes.is_empty() {
            let direct =
                chipvqa_bench::batch_reference_report(&p.request.models, spec, p.request.options);
            assert_eq!(
                direct.canonical_json(),
                json,
                "shared per-model references must equal batch_reference_report"
            );
        }
        hashes.push(Value::Str(format!("0x{:016x}", fnv1a64(json.as_bytes()))));
    }
    to_json(&obj(vec![("hashes", Value::Arr(hashes))]))
}
