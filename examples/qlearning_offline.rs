//! Q-learning needs offline training; Megh does not.
//!
//! §2.2 of the paper dismisses tabular Q-learning because it "has to go
//! through computationally expensive training periods" before it can be
//! used online. This example makes that concrete: the same Q-learning
//! agent is evaluated cold (untrained) and after offline episodes on the
//! training workload, next to Megh which learns as-it-goes on its very
//! first pass.
//!
//! Run with: `cargo run --release --example qlearning_offline`

use megh::baselines::QLearningScheduler;
use megh::core::{MeghAgent, MeghConfig};
use megh::sim::{DataCenterConfig, InitialPlacement, Simulation};
use megh::trace::PlanetLabConfig;

fn main() {
    let (hosts, vms) = (30, 40);
    let mut config = DataCenterConfig::paper_planetlab(hosts, vms);
    config.initial_placement = InitialPlacement::DemandPacked;

    // Train and evaluate on different weeks of the same workload family
    // (the honest protocol: no peeking at the evaluation trace).
    let train_trace = PlanetLabConfig::new(vms, 1).generate(2);
    let eval_trace = PlanetLabConfig::new(vms, 2).generate(2);
    let train_sim = Simulation::new(config.clone(), train_trace).expect("consistent setup");
    let eval_sim = Simulation::new(config, eval_trace).expect("consistent setup");

    // Cold Q-learning: acts on an empty table.
    let cold = eval_sim.run(QLearningScheduler::new(17)).report();

    // Trained Q-learning: 10 offline episodes first.
    let mut trained_agent = QLearningScheduler::new(17);
    trained_agent.train(&train_sim, 10);
    let trained = eval_sim.run(trained_agent).report();

    // Megh: no training phase at all.
    let megh = eval_sim
        .run(MeghAgent::new(MeghConfig::paper_defaults(vms, hosts)))
        .report();

    println!("{:<22} {:>10} {:>12}", "agent", "total USD", "#migrations");
    println!(
        "{:<22} {:>10.2} {:>12}",
        "Q-learning (cold)", cold.total_cost_usd, cold.total_migrations
    );
    println!(
        "{:<22} {:>10.2} {:>12}",
        "Q-learning (trained)", trained.total_cost_usd, trained.total_migrations
    );
    println!(
        "{:<22} {:>10.2} {:>12}",
        "Megh (no training)", megh.total_cost_usd, megh.total_migrations
    );
}
