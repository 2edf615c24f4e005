//! Regenerates Table III: agent system vs plain GPT-4o, with and without
//! answer choices.

use chipvqa_agent::AgentSystem;
use chipvqa_core::question::Category;
use chipvqa_core::ChipVqa;
use chipvqa_eval::harness::{evaluate, EvalOptions};
use chipvqa_eval::{Judge, RuleJudge};
use chipvqa_models::{ModelZoo, VlmPipeline};

fn agent_report(agent: &AgentSystem, bench: &ChipVqa) -> (f64, Vec<(Category, f64)>) {
    let judge = RuleJudge::new();
    let mut per_cat: Vec<(Category, f64)> = Vec::new();
    let mut total_pass = 0usize;
    for cat in Category::ALL {
        let qs: Vec<_> = bench.category(cat).collect();
        let pass = qs
            .iter()
            .filter(|q| judge.is_correct(q, &agent.answer(q, 0).text))
            .count();
        total_pass += pass;
        per_cat.push((cat, pass as f64 / qs.len().max(1) as f64));
    }
    (total_pass as f64 / bench.len() as f64, per_cat)
}

fn main() {
    let bench = ChipVqa::standard();
    let challenge = bench.challenge();
    let gpt = VlmPipeline::new(ModelZoo::gpt4o());
    let agent = AgentSystem::paper_setup();

    println!("TABLE III  Evaluation of Agent System on ChipVQA (reproduced)");
    println!(
        "{:<14} {:<8} {:>8}   (paper)",
        "Collection", "Model", "Pass@1"
    );
    for (label, collection, paper_gpt, paper_agent) in [
        ("With Choice", &bench, 0.44, 0.49),
        ("No Choice", &challenge, 0.20, 0.21),
    ] {
        let report = evaluate(&gpt, collection, EvalOptions::default());
        let base = report.overall();
        let (agent_all, per_cat) = agent_report(&agent, collection);
        println!("{label:<14} {:<8} {base:>8.2}   ({paper_gpt:.2})", "GPT4o");
        println!(
            "{label:<14} {:<8} {agent_all:>8.2}   ({paper_agent:.2})",
            "Agent"
        );
        // the paper notes a regression specifically on Manufacture
        if label == "No Choice" {
            let base_manuf = report.category_rate(Category::Manufacture);
            let agent_manuf = per_cat
                .iter()
                .find(|(c, _)| *c == Category::Manufacture)
                .map(|&(_, r)| r)
                .unwrap_or(0.0);
            println!(
                "  manufacture detail: GPT4o {base_manuf:.2} vs Agent {agent_manuf:.2} \
                 (paper observes an agent regression here)"
            );
        }
    }
}
