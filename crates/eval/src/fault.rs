//! Deterministic fault injection for chaos-testing the harness.
//!
//! A production-scale evaluation run sees transient infrastructure
//! failures — inference deadlines blown, responses truncated or garbled
//! in transport, rate-limit bursts, transient 5xx-style errors, crashed
//! workers. [`FaultPlan`] describes a reproducible storm of such faults:
//! every draw is a pure function of `(plan seed, model fingerprint,
//! question id, call site, pass@k attempt, recovery attempt)`, so the
//! *same* faults hit the *same* calls no matter how many workers the
//! [`ParallelExecutor`](crate::executor::ParallelExecutor) runs, in
//! which order shards are stolen, or whether the run was resumed from a
//! checkpoint. That key choice is what lets the chaos suite assert
//! byte-identical reports across 1/2/8 workers under any plan.
//!
//! [`FaultInjector`] turns a plan into decisions at the two supervised
//! call sites (model inference and the judge's verdict on each answer);
//! the recovery machinery lives in [`supervisor`](crate::supervisor).

use serde::{Deserialize, Serialize};

/// Marker appended to a response that was cut off in transport.
pub const TRUNCATION_MARKER: &str = "…[truncated]";

/// Replacement character sprinkled through a garbled response.
pub const GARBLE_CHAR: char = '\u{FFFD}';

/// Whether `text` carries fault-corruption markers. The
/// [`AnswerCache`](crate::cache::AnswerCache) uses this to assert its
/// only-clean-answers invariant.
pub fn is_corrupted_text(text: &str) -> bool {
    text.contains(TRUNCATION_MARKER) || text.contains(GARBLE_CHAR)
}

/// The kinds of infrastructure fault the injector can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The call exceeded its deadline and was cancelled.
    Timeout,
    /// The response arrived cut off mid-answer.
    Truncated,
    /// The response arrived with bytes mangled in transport.
    Garbled,
    /// The provider shed load; the call was rejected. Rate-limit draws
    /// arrive in bursts: one draw also poisons the next one or two
    /// recovery attempts of the same call.
    RateLimited,
    /// A transient error (connection reset, 5xx) — retryable.
    Transient,
    /// The worker thread evaluating the question crashes.
    WorkerPanic,
}

impl FaultKind {
    /// Stable short label (used in failure-accounting tables).
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Timeout => "timeout",
            FaultKind::Truncated => "truncated",
            FaultKind::Garbled => "garbled",
            FaultKind::RateLimited => "rate-limited",
            FaultKind::Transient => "transient",
            FaultKind::WorkerPanic => "worker-panic",
        }
    }
}

/// Which supervised call a fault applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CallSite {
    /// `VlmPipeline::infer` / `infer_with` — the model answering.
    Inference,
    /// `Judge::is_correct` — the (possibly remote LLM) judge scoring one
    /// answer.
    Judge,
}

impl CallSite {
    /// Stable short label (used in telemetry events).
    pub fn label(self) -> &'static str {
        match self {
            CallSite::Inference => "inference",
            CallSite::Judge => "judge",
        }
    }
}

/// A seeded, reproducible storm of infrastructure faults.
///
/// Rates are independent per-call probabilities in `[0, 1]`; their sum
/// must not exceed 1 (one call suffers at most one fault per recovery
/// attempt). The all-zero plan ([`FaultPlan::none`]) injects nothing and
/// is guaranteed to reproduce a fault-free run byte-for-byte.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed mixed into every draw.
    pub seed: u64,
    /// Probability a call blows its deadline.
    pub timeout_rate: f64,
    /// Probability a response arrives truncated.
    pub truncate_rate: f64,
    /// Probability a response arrives garbled.
    pub garble_rate: f64,
    /// Probability a call is rate-limited (bursty; see
    /// [`FaultKind::RateLimited`]).
    pub rate_limit_rate: f64,
    /// Probability of a transient retryable error.
    pub transient_rate: f64,
    /// Probability the worker evaluating the question panics.
    pub panic_rate: f64,
    /// Model fingerprints whose every inference call fails with a
    /// transient error — a persistently down backend, the scenario the
    /// circuit breaker exists for.
    pub broken_models: Vec<u64>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The all-zero plan: no faults, byte-identical to unsupervised runs.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            timeout_rate: 0.0,
            truncate_rate: 0.0,
            garble_rate: 0.0,
            rate_limit_rate: 0.0,
            transient_rate: 0.0,
            panic_rate: 0.0,
            broken_models: Vec::new(),
        }
    }

    /// A uniform plan: every fault kind at the same `rate`.
    pub fn uniform(seed: u64, rate: f64) -> Self {
        FaultPlan {
            seed,
            timeout_rate: rate,
            truncate_rate: rate,
            garble_rate: rate,
            rate_limit_rate: rate,
            transient_rate: rate,
            panic_rate: rate,
            broken_models: Vec::new(),
        }
    }

    /// Marks a model fingerprint as persistently failing.
    pub fn with_broken_model(mut self, fingerprint: u64) -> Self {
        self.broken_models.push(fingerprint);
        self
    }

    /// Whether this plan can ever inject a fault.
    pub fn is_zero(&self) -> bool {
        self.total_rate() == 0.0 && self.broken_models.is_empty()
    }

    fn total_rate(&self) -> f64 {
        self.timeout_rate
            + self.truncate_rate
            + self.garble_rate
            + self.rate_limit_rate
            + self.transient_rate
            + self.panic_rate
    }

    /// Panics unless every rate is a probability and the per-call fault
    /// mass does not exceed 1.
    pub fn validate(&self) {
        for (name, r) in [
            ("timeout_rate", self.timeout_rate),
            ("truncate_rate", self.truncate_rate),
            ("garble_rate", self.garble_rate),
            ("rate_limit_rate", self.rate_limit_rate),
            ("transient_rate", self.transient_rate),
            ("panic_rate", self.panic_rate),
        ] {
            assert!((0.0..=1.0).contains(&r), "{name} out of [0, 1]: {r}");
        }
        assert!(
            self.total_rate() <= 1.0 + 1e-12,
            "fault rates sum to {} > 1",
            self.total_rate()
        );
    }
}

/// Call-site coordinates of one streamed question: which breaker
/// *window* its global index falls in, and the slot within that window.
///
/// Streamed supervised execution partitions the question sequence into
/// fixed windows of [`StreamCoord::WINDOW`] questions. Breaker state is
/// a pure function of the window's own prefix (it resets at every
/// window boundary), so the coordinates — not the arrival order —
/// fully locate a decision. Telemetry events on the streamed breaker
/// path are tagged with these coordinates, and the differential chaos
/// wall relies on them being identical however the spec was generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamCoord {
    /// Breaker window index (`global_index / WINDOW`).
    pub window: usize,
    /// Slot within the window (`global_index % WINDOW`).
    pub slot: usize,
}

impl StreamCoord {
    /// Questions per breaker window. Matches the executor's shard size
    /// so the default streamed shard grid and the breaker windows
    /// coincide, but the breaker math never assumes they do.
    pub const WINDOW: usize = 16;

    /// The coordinates of the question at `global_index`.
    pub fn of(global_index: usize) -> StreamCoord {
        StreamCoord {
            window: global_index / StreamCoord::WINDOW,
            slot: global_index % StreamCoord::WINDOW,
        }
    }

    /// The global question index these coordinates name.
    pub fn global_index(&self) -> usize {
        self.window * StreamCoord::WINDOW + self.slot
    }
}

/// Everything identifying one supervised call attempt — the draw key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallKey<'a> {
    /// Behavioural fingerprint of the model under evaluation.
    pub fingerprint: u64,
    /// Question id.
    pub question_id: &'a str,
    /// Which call is being made.
    pub site: CallSite,
    /// The pass@k attempt index of an inference call; 0 for every judge
    /// call.
    pub attempt: u64,
    /// The supervisor's recovery attempt (0 = first try).
    pub recovery: u64,
}

/// Payload of an injected worker crash. Distinct from ordinary panic
/// payloads so [`install_quiet_panic_hook`] can silence *only* injected
/// crashes while real bugs still print.
#[derive(Debug, Clone)]
pub struct InjectedPanic {
    /// Fingerprint of the model whose evaluation crashed.
    pub fingerprint: u64,
    /// The question being evaluated.
    pub question_id: String,
}

/// Installs (once per process) a panic hook that swallows the default
/// "thread panicked" stderr noise for [`InjectedPanic`] payloads and
/// delegates everything else to the previous hook. Chaos tests and
/// benches call this so thousands of injected crashes do not flood the
/// log; real panics keep their diagnostics.
pub fn install_quiet_panic_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedPanic>().is_none() {
                previous(info);
            }
        }));
    });
}

/// Draws faults from a [`FaultPlan`]. Stateless: every decision is a
/// pure function of the plan and the [`CallKey`], which is what makes
/// injected chaos reproducible across worker counts and resumes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultInjector {
    plan: FaultPlan,
}

impl FaultInjector {
    /// An injector for `plan` (validated).
    pub fn new(plan: FaultPlan) -> Self {
        plan.validate();
        FaultInjector { plan }
    }

    /// The plan being injected.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The fault (if any) injected into one call attempt.
    pub fn draw(&self, key: CallKey<'_>) -> Option<FaultKind> {
        if key.site == CallSite::Inference && self.plan.broken_models.contains(&key.fingerprint) {
            return Some(FaultKind::Transient);
        }
        if self.plan.total_rate() == 0.0 {
            return None;
        }
        // Rate-limit bursts: a RateLimited draw at recovery r also
        // rejects recovery attempts r+1 .. r+burst (burst in {1, 2}),
        // modelling a provider that stays saturated briefly.
        for earlier in key.recovery.saturating_sub(2)..key.recovery {
            let at = CallKey {
                recovery: earlier,
                ..key
            };
            if self.base_draw(at) == Some(FaultKind::RateLimited)
                && earlier + self.burst_len(at) >= key.recovery
            {
                return Some(FaultKind::RateLimited);
            }
        }
        self.base_draw(key)
    }

    /// Corrupts a clean response text according to the fault kind.
    /// Only [`FaultKind::Truncated`] and [`FaultKind::Garbled`] leave
    /// degraded evidence; other faults destroy the response entirely.
    pub fn corrupt(&self, kind: FaultKind, clean: &str, key: CallKey<'_>) -> Option<String> {
        match kind {
            FaultKind::Truncated => {
                let chars: Vec<char> = clean.chars().collect();
                let keep = chars.len() / 2;
                let mut s: String = chars[..keep].iter().collect();
                s.push_str(TRUNCATION_MARKER);
                Some(s)
            }
            FaultKind::Garbled => {
                let stride = 1 + (self.mix(key) % 3) as usize;
                Some(
                    clean
                        .chars()
                        .enumerate()
                        .map(|(i, c)| {
                            if i % (stride + 1) == stride {
                                GARBLE_CHAR
                            } else {
                                c
                            }
                        })
                        .collect(),
                )
            }
            _ => None,
        }
    }

    fn base_draw(&self, key: CallKey<'_>) -> Option<FaultKind> {
        let u = self.mix(key) as f64 / (u64::MAX as f64 + 1.0);
        let mut edge = 0.0;
        for (rate, kind) in [
            (self.plan.timeout_rate, FaultKind::Timeout),
            (self.plan.truncate_rate, FaultKind::Truncated),
            (self.plan.garble_rate, FaultKind::Garbled),
            (self.plan.rate_limit_rate, FaultKind::RateLimited),
            (self.plan.transient_rate, FaultKind::Transient),
            (self.plan.panic_rate, FaultKind::WorkerPanic),
        ] {
            edge += rate;
            if u < edge {
                return Some(kind);
            }
        }
        None
    }

    /// How many extra recovery attempts a rate-limit burst covers (1-2).
    fn burst_len(&self, key: CallKey<'_>) -> u64 {
        1 + (self.mix(key).rotate_left(17) % 2)
    }

    /// FNV-1a over the full call key (the repo's standard seeded-hash
    /// idiom, see `VlmPipeline::rng_for`).
    fn mix(&self, key: CallKey<'_>) -> u64 {
        let mut h = self.plan.seed ^ 0xcbf2_9ce4_8422_2325u64;
        let site = match key.site {
            CallSite::Inference => 0x1fu8,
            CallSite::Judge => 0x2eu8,
        };
        for b in key
            .fingerprint
            .to_le_bytes()
            .into_iter()
            .chain(key.question_id.bytes())
            .chain([site])
            .chain(key.attempt.to_le_bytes())
            .chain(key.recovery.to_le_bytes())
        {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        // final avalanche so low-entropy keys (attempt 0 vs 1) decorrelate
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(recovery: u64) -> CallKey<'static> {
        CallKey {
            fingerprint: 0xabcd,
            question_id: "digital-007",
            site: CallSite::Inference,
            attempt: 0,
            recovery,
        }
    }

    #[test]
    fn zero_plan_never_faults() {
        let inj = FaultInjector::new(FaultPlan::none());
        for r in 0..64 {
            assert_eq!(inj.draw(key(r)), None);
        }
    }

    #[test]
    fn draws_are_deterministic_and_key_sensitive() {
        let inj = FaultInjector::new(FaultPlan::uniform(42, 0.08));
        let a = inj.draw(key(0));
        assert_eq!(a, inj.draw(key(0)), "same key, same draw");

        // across many keys the draw must vary (different questions /
        // attempts see independent faults)
        let mut kinds = std::collections::BTreeSet::new();
        for q in 0..200u32 {
            let id = format!("digital-{q:03}");
            let k = CallKey {
                fingerprint: 7,
                question_id: &id,
                site: CallSite::Inference,
                attempt: 0,
                recovery: 0,
            };
            kinds.insert(inj.draw(k).map(FaultKind::label));
        }
        assert!(kinds.len() >= 4, "variety across questions: {kinds:?}");
    }

    #[test]
    fn seed_changes_the_storm() {
        let a = FaultInjector::new(FaultPlan::uniform(1, 0.1));
        let b = FaultInjector::new(FaultPlan::uniform(2, 0.1));
        let differs = (0..100u64).any(|r| a.draw(key(r)) != b.draw(key(r)));
        assert!(differs);
    }

    #[test]
    fn empirical_rates_are_roughly_calibrated() {
        let inj = FaultInjector::new(FaultPlan::uniform(9, 0.05)); // 30% total
        let mut faulted = 0usize;
        let n = 2000u32;
        for q in 0..n {
            let id = format!("q-{q}");
            let k = CallKey {
                fingerprint: 3,
                question_id: &id,
                site: CallSite::Judge,
                attempt: 0,
                recovery: 0,
            };
            if inj.draw(k).is_some() {
                faulted += 1;
            }
        }
        let rate = faulted as f64 / n as f64;
        assert!((rate - 0.30).abs() < 0.04, "observed fault rate {rate}");
    }

    #[test]
    fn broken_model_always_faults_inference_only() {
        let inj = FaultInjector::new(FaultPlan::none().with_broken_model(0xdead));
        let k = CallKey {
            fingerprint: 0xdead,
            ..key(0)
        };
        assert_eq!(inj.draw(k), Some(FaultKind::Transient));
        let judge = CallKey {
            site: CallSite::Judge,
            ..k
        };
        assert_eq!(inj.draw(judge), None, "judge calls unaffected");
        assert_eq!(inj.draw(key(0)), None, "other models unaffected");
    }

    #[test]
    fn rate_limit_bursts_extend_forward() {
        // find a key whose base draw is RateLimited, then check the next
        // recovery attempt is also rejected (burst >= 1)
        let inj = FaultInjector::new(FaultPlan {
            rate_limit_rate: 0.5,
            ..FaultPlan::uniform(77, 0.0)
        });
        let mut checked = 0;
        for r in 0..200u64 {
            if inj.base_draw(key(r)) == Some(FaultKind::RateLimited) {
                assert_eq!(
                    inj.draw(key(r + 1)),
                    Some(FaultKind::RateLimited),
                    "burst covers at least the following attempt"
                );
                checked += 1;
            }
        }
        assert!(checked > 10, "enough bursts exercised");
    }

    #[test]
    fn corruption_is_detectable() {
        let inj = FaultInjector::new(FaultPlan::uniform(5, 0.1));
        let clean = "The answer is (d) Q = S'Q + SR'";
        let truncated = inj
            .corrupt(FaultKind::Truncated, clean, key(0))
            .expect("leaves evidence");
        assert!(is_corrupted_text(&truncated));
        assert!(truncated.len() < clean.len() + TRUNCATION_MARKER.len() + 1);
        let garbled = inj
            .corrupt(FaultKind::Garbled, clean, key(0))
            .expect("leaves evidence");
        assert!(is_corrupted_text(&garbled));
        assert_eq!(garbled.chars().count(), clean.chars().count());
        assert!(!is_corrupted_text(clean));
        assert_eq!(inj.corrupt(FaultKind::Timeout, clean, key(0)), None);
    }

    #[test]
    fn plan_validation_rejects_bad_rates() {
        let r = std::panic::catch_unwind(|| FaultPlan::uniform(0, 0.3).validate());
        assert!(r.is_err(), "6 x 0.3 = 1.8 > 1 must be rejected");
        let r = std::panic::catch_unwind(|| {
            FaultPlan {
                timeout_rate: -0.1,
                ..FaultPlan::none()
            }
            .validate()
        });
        assert!(r.is_err());
    }

    #[test]
    fn stream_coords_roundtrip_the_global_index() {
        for global in [0usize, 1, 15, 16, 17, 141, 142, 1419, 14_200] {
            let c = StreamCoord::of(global);
            assert_eq!(c.global_index(), global);
            assert!(c.slot < StreamCoord::WINDOW);
            assert_eq!(c.window, global / StreamCoord::WINDOW);
        }
        // window boundaries are exactly multiples of WINDOW
        assert_eq!(StreamCoord::of(0), StreamCoord { window: 0, slot: 0 });
        assert_eq!(
            StreamCoord::of(StreamCoord::WINDOW),
            StreamCoord { window: 1, slot: 0 }
        );
    }

    #[test]
    fn plan_serde_roundtrip() {
        let plan = FaultPlan::uniform(123, 0.04).with_broken_model(99);
        let json = serde_json::to_string(&plan).expect("serializes");
        let back: FaultPlan = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(back, plan);
    }
}
