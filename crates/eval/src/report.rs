//! Table rendering: regenerates the paper's Table II layout from
//! evaluation reports.
//!
//! Degraded-report semantics: when any row carries terminal
//! infrastructure failures (a chaos run, a flaky backend), the table
//! grows an explicit `DEGRADED RUN` footer with per-model and
//! per-category answered/failed/breaker-skipped accounting. A clean run
//! renders byte-identically to the pre-supervision layout.

use std::fmt;
use std::io::{self, Write};

use chipvqa_core::question::Category;
use serde::{Deserialize, Serialize};

use crate::harness::EvalReport;

/// One model's standard + challenge results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelRow {
    /// Results on the standard (with-choice) collection.
    pub standard: EvalReport,
    /// Results on the challenge (no-choice) collection.
    pub challenge: EvalReport,
}

/// The full Table II.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Table2 {
    /// One row per model, paper order.
    pub rows: Vec<ModelRow>,
}

impl Table2 {
    /// The table of a grid's reports in row order: every model over the
    /// with-choice column, then every model over the no-choice one.
    pub fn from_columns(mut reports: Vec<EvalReport>) -> Table2 {
        let challenge = reports.split_off(reports.len() / 2);
        let rows = reports
            .into_iter()
            .zip(challenge)
            .map(|(standard, challenge)| ModelRow {
                standard,
                challenge,
            })
            .collect();
        Table2 { rows }
    }

    /// Finds a model's row by name.
    pub fn model(&self, name: &str) -> Option<&ModelRow> {
        self.rows.iter().find(|r| r.standard.model == name)
    }

    /// Mean standard pass rate of the open-source models (all rows except
    /// the given proprietary one) — used for the "GPT-4o leads by ~20%"
    /// claim.
    pub fn open_source_mean(&self, excluding: &str) -> f64 {
        let rows: Vec<&ModelRow> = self
            .rows
            .iter()
            .filter(|r| r.standard.model != excluding)
            .collect();
        if rows.is_empty() {
            return 0.0;
        }
        rows.iter().map(|r| r.standard.overall()).sum::<f64>() / rows.len() as f64
    }

    /// Writes the table as `table2 --report-json` does: JSON with each
    /// report's run-metadata `cache_stats` nulled, so two runs with
    /// identical results (one warm, one cold; one fleet, one
    /// single-process) produce byte-identical files. The bytes equal
    /// `serde_json::to_string` of the nulled table, but nothing is cloned
    /// and no document is built: each report is written here with
    /// `cache_stats` as `null`, each outcome by its derived
    /// [`Serialize::write_json`] into one reused buffer, which goes to
    /// `out` whenever it holds 64 KiB.
    pub fn write_report_json(&self, mut out: impl Write) -> io::Result<()> {
        let mut json = String::with_capacity(2 * REPORT_CHUNK);
        json.push_str("{\"rows\":[");
        for (i, row) in self.rows.iter().enumerate() {
            json.push_str(if i == 0 { "{" } else { ",{" });
            json.push_str("\"standard\":");
            write_nulled_report(&row.standard, &mut json, &mut out)?;
            json.push_str(",\"challenge\":");
            write_nulled_report(&row.challenge, &mut json, &mut out)?;
            json.push('}');
        }
        json.push_str("]}");
        out.write_all(json.as_bytes())?;
        out.flush()
    }

    /// Whether any row (standard or challenge) carries terminal
    /// infrastructure failures.
    pub fn is_degraded(&self) -> bool {
        self.rows
            .iter()
            .any(|r| r.standard.is_degraded() || r.challenge.is_degraded())
    }

    /// Emits the table's DEGRADED RUN footer as structured telemetry:
    /// one `run.degraded` event per degraded (model, set) report,
    /// carrying the same answered/failed/skipped/coverage accounting the
    /// rendered footer shows, plus a `run.degraded` counter. Returns how
    /// many events were emitted (0 for a clean table). Row order matches
    /// the footer: model order, standard before challenge.
    pub fn emit_degraded_events(&self, tele: &chipvqa_telemetry::Telemetry) -> usize {
        if !tele.enabled() {
            return 0;
        }
        let mut emitted = 0;
        for row in &self.rows {
            for (set, report) in [("std", &row.standard), ("chal", &row.challenge)] {
                if !report.is_degraded() {
                    continue;
                }
                tele.counter("run.degraded", 1);
                tele.event(
                    "run.degraded",
                    vec![
                        chipvqa_telemetry::kv("model", &report.model),
                        chipvqa_telemetry::kv("set", set),
                        chipvqa_telemetry::kv("answered", report.answered()),
                        chipvqa_telemetry::kv("failed", report.failed()),
                        chipvqa_telemetry::kv("skipped", report.breaker_skipped()),
                        chipvqa_telemetry::kv("coverage", format!("{:.4}", report.coverage())),
                    ],
                );
                emitted += 1;
            }
        }
        emitted
    }
}

/// How much report JSON [`Table2::write_report_json`] buffers before a
/// write.
const REPORT_CHUNK: usize = 64 * 1024;

/// Appends `report` as its derived writer would with `cache_stats`
/// `None`, handing full chunks of `json` to `out` between outcomes.
fn write_nulled_report(
    report: &EvalReport,
    json: &mut String,
    out: &mut impl Write,
) -> io::Result<()> {
    json.push_str("{\"model\":");
    report.model.write_json(json);
    json.push_str(",\"outcomes\":[");
    for (i, outcome) in report.outcomes.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        outcome.write_json(json);
        if json.len() >= REPORT_CHUNK {
            out.write_all(json.as_bytes())?;
            json.clear();
        }
    }
    json.push_str("],\"cache_stats\":null}");
    Ok(())
}

impl fmt::Display for Table2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "TABLE II  Zero-Shot Evaluation on ChipVQA (reproduced)")?;
        write!(f, "{:<16}", "Model")?;
        for _ in 0..2 {
            for cat in Category::ALL {
                write!(f, " {:>7.7}", cat.label())?;
            }
            write!(f, " {:>7}", "all")?;
        }
        writeln!(f)?;
        writeln!(
            f,
            "{:<16} {:^47} {:^47}",
            "", "--- w/ Multi-Choice ---", "--- w/o Multi-Choice ---"
        )?;
        for row in &self.rows {
            write!(f, "{:<16}", row.standard.model)?;
            for report in [&row.standard, &row.challenge] {
                let (cats, all) = report.row();
                for c in cats {
                    write!(f, " {c:>7.2}")?;
                }
                write!(f, " {all:>7.2}")?;
            }
            writeln!(f)?;
        }
        if self.is_degraded() {
            writeln!(f)?;
            writeln!(
                f,
                "DEGRADED RUN — pass rates above undercount models with failures."
            )?;
            writeln!(
                f,
                "{:<16} {:>4} {:>9} {:>7} {:>7} {:>9}  failures by category",
                "Model", "set", "answered", "failed", "skipped", "coverage"
            )?;
            for row in &self.rows {
                for (set, report) in [("std", &row.standard), ("chal", &row.challenge)] {
                    if !report.is_degraded() {
                        continue;
                    }
                    let acct = report.category_accounting();
                    let by_cat: Vec<String> = Category::ALL
                        .iter()
                        .filter_map(|c| {
                            let &(_, failed, skipped) = acct.get(c)?;
                            if failed + skipped == 0 {
                                return None;
                            }
                            Some(format!("{}:{}+{}", c.label(), failed, skipped))
                        })
                        .collect();
                    writeln!(
                        f,
                        "{:<16} {:>4} {:>9} {:>7} {:>7} {:>8.1}%  {}",
                        report.model,
                        set,
                        report.answered(),
                        report.failed(),
                        report.breaker_skipped(),
                        report.coverage() * 100.0,
                        by_cat.join(" ")
                    )?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{evaluate, EvalOptions};
    use chipvqa_core::ChipVqa;
    use chipvqa_models::{ModelZoo, VlmPipeline};

    fn tiny_table() -> Table2 {
        let bench = ChipVqa::standard();
        let challenge = bench.challenge();
        let rows = [ModelZoo::gpt4o(), ModelZoo::llava_7b()]
            .into_iter()
            .map(|p| {
                let pipe = VlmPipeline::new(p);
                ModelRow {
                    standard: evaluate(&pipe, &bench, EvalOptions::default()),
                    challenge: evaluate(&pipe, &challenge, EvalOptions::default()),
                }
            })
            .collect();
        Table2 { rows }
    }

    #[test]
    fn renders_both_halves() {
        let t = tiny_table();
        let s = t.to_string();
        assert!(s.contains("w/ Multi-Choice"));
        assert!(s.contains("w/o Multi-Choice"));
        assert!(s.contains("GPT4o"));
    }

    #[test]
    fn clean_table_has_no_degraded_footer() {
        let t = tiny_table();
        assert!(!t.is_degraded());
        assert!(!t.to_string().contains("DEGRADED RUN"));
    }

    #[test]
    fn degraded_table_renders_the_accounting_footer() {
        use crate::executor::ParallelExecutor;
        use crate::fault::FaultPlan;
        use crate::supervisor::Supervisor;

        let bench = ChipVqa::standard();
        let challenge = bench.challenge();
        let pipe = VlmPipeline::new(ModelZoo::fuyu_8b());
        let broken = FaultPlan::none().with_broken_model(pipe.fingerprint());
        let exec = ParallelExecutor::new(2).with_supervisor(Supervisor::new(broken));
        let row = ModelRow {
            standard: exec.evaluate(&pipe, &bench, EvalOptions::default()),
            challenge: exec.evaluate(&pipe, &challenge, EvalOptions::default()),
        };
        let t = Table2 { rows: vec![row] };
        assert!(t.is_degraded());
        let s = t.to_string();
        assert!(s.contains("DEGRADED RUN"));
        assert!(s.contains("failures by category"));
        // both splits of the dead model appear in the footer
        assert!(s.contains(" std "));
        assert!(s.contains(" chal "));
        // transient failures + breaker sheds show up as cat:failed+skipped
        assert!(s.contains('+'), "per-category failed+skipped tokens: {s}");
    }

    #[test]
    fn degraded_footer_doubles_as_structured_events() {
        use crate::executor::ParallelExecutor;
        use crate::fault::FaultPlan;
        use crate::supervisor::Supervisor;
        use chipvqa_telemetry::{MemorySink, MockClock, Telemetry};
        use std::sync::Arc;

        let bench = ChipVqa::standard();
        let challenge = bench.challenge();
        let pipe = VlmPipeline::new(ModelZoo::fuyu_8b());
        let broken = FaultPlan::none().with_broken_model(pipe.fingerprint());
        let exec = ParallelExecutor::new(2).with_supervisor(Supervisor::new(broken));
        let row = ModelRow {
            standard: exec.evaluate(&pipe, &bench, EvalOptions::default()),
            challenge: exec.evaluate(&pipe, &challenge, EvalOptions::default()),
        };
        let t = Table2 { rows: vec![row] };

        let sink = Arc::new(MemorySink::new());
        let tele = Telemetry::builder()
            .clock(MockClock::new(1))
            .sink(Arc::clone(&sink))
            .build();
        let emitted = t.emit_degraded_events(&tele);
        assert_eq!(emitted, 2, "std and chal splits are both degraded");
        let events = sink.named("run.degraded");
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("set"), Some("std"));
        assert_eq!(events[1].get("set"), Some("chal"));
        let report = &t.rows[0].standard;
        assert_eq!(
            events[0].get("answered"),
            Some(report.answered().to_string().as_str())
        );
        assert_eq!(tele.snapshot().counters["run.degraded"], 2);

        // a clean table emits nothing
        let clean = tiny_table();
        assert_eq!(clean.emit_degraded_events(&tele), 0);
        // and a disabled handle is a no-op even on a degraded table
        assert_eq!(t.emit_degraded_events(&Telemetry::disabled()), 0);
    }

    #[test]
    fn model_lookup_and_means() {
        let t = tiny_table();
        assert!(t.model("GPT4o").is_some());
        assert!(t.model("nonexistent").is_none());
        let mean = t.open_source_mean("GPT4o");
        assert!(mean > 0.0 && mean < 1.0);
    }
}
