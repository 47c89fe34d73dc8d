//! Golden rows for the exploration paths: each row runs the production
//! entry point, `run_pipeline_stored`, with an explicit configuration and
//! pins the record fingerprint (`records_fingerprint`, which hashes the
//! record *list* in order), the record count, the class count and the
//! ruleset count.
//!
//! The rows cover every path the pipeline can route to: the pool path
//! with lint on (exhaustive), MCTS at one thread (the paper's UCT
//! search, also swept over budgets 50–400 with the tree size pinned) and
//! at four threads (PUCT batches under virtual loss), and both MCTS
//! widths again under light fault injection (the resilient evaluator
//! with in-tree quarantine). A refactor of the exploration layer must
//! leave every row unchanged.

use cuda_mpi_design_rules::halo::HaloScenario;
use cuda_mpi_design_rules::mcts::MctsConfig;
use cuda_mpi_design_rules::pipeline::{
    records_fingerprint, run_pipeline_stored, PipelineConfig, Strategy,
};
use cuda_mpi_design_rules::sim::{BenchConfig, Platform, Workload};
use cuda_mpi_design_rules::spmv::SpmvScenario;
use cuda_mpi_design_rules::trace::Tracer;
use dr_fault::FaultConfig;

const SEED: u64 = 213;

/// Removes the environment knobs the pipeline consults, so CI jobs that
/// set `DR_FAULTS=light` or `DR_THREADS=4` cannot move the rows.
fn isolate_env() {
    for k in [
        "DR_FAULTS",
        "DR_THREADS",
        "DR_LINT_PRUNE",
        "DR_LINT_SPACE_CAP",
    ] {
        std::env::remove_var(k);
    }
}

/// `(fingerprint, records, classes, rulesets)` of one pipeline run.
fn row<W: Workload + Sync>(
    space: &cuda_mpi_design_rules::dag::DecisionSpace,
    workload: &W,
    platform: &Platform,
    strategy: Strategy,
    cfg: &PipelineConfig,
) -> (String, usize, usize, usize) {
    isolate_env();
    let run = run_pipeline_stored(
        space,
        workload,
        platform,
        strategy,
        cfg,
        &Tracer::disabled(),
        None,
        None,
    )
    .unwrap();
    (
        format!("{:016x}", records_fingerprint(&run.result.records)),
        run.result.records.len(),
        run.result.labeling.num_classes,
        run.result.rulesets.len(),
    )
}

fn mcts(iterations: usize) -> Strategy {
    Strategy::Mcts {
        iterations,
        config: MctsConfig {
            seed: SEED,
            ..MctsConfig::default()
        },
    }
}

fn config(threads: usize) -> PipelineConfig {
    PipelineConfig {
        bench: BenchConfig::quick(),
        threads,
        ..PipelineConfig::default()
    }
}

#[test]
fn spmv_exhaustive_with_lint() {
    let sc = SpmvScenario::paper(SEED);
    let cfg = PipelineConfig {
        lint: true,
        ..config(1)
    };
    let got = row(
        &sc.space,
        &sc.workload,
        &sc.platform,
        Strategy::Exhaustive,
        &cfg,
    );
    assert_eq!(got, ("d188b6670aeeb76e".to_string(), 1600, 3, 18));
}

#[test]
fn halo_mcts_serial_tree() {
    let sc = HaloScenario::cube2(SEED);
    let got = row(&sc.space, &sc.workload, &sc.platform, mcts(150), &config(1));
    assert_eq!(got, ("154877d588e92f66".to_string(), 150, 2, 14));
}

#[test]
fn halo_mcts_shared_arena() {
    let sc = HaloScenario::cube2(SEED);
    let got = row(&sc.space, &sc.workload, &sc.platform, mcts(150), &config(4));
    assert_eq!(got, ("060070f54ad19a1d".to_string(), 150, 2, 5));
}

#[test]
fn spmv_mcts_light_faults_serial_tree() {
    let sc = SpmvScenario::paper(SEED);
    let cfg = PipelineConfig {
        faults: FaultConfig::light().with_seed(SEED),
        ..config(1)
    };
    let got = row(&sc.space, &sc.workload, &sc.platform, mcts(120), &cfg);
    assert_eq!(got, ("f6b3e2cf02532eee".to_string(), 120, 2, 4));
}

#[test]
fn spmv_mcts_light_faults_shared_arena() {
    let sc = SpmvScenario::paper(SEED);
    let cfg = PipelineConfig {
        faults: FaultConfig::light().with_seed(SEED),
        ..config(4)
    };
    let got = row(&sc.space, &sc.workload, &sc.platform, mcts(120), &cfg);
    assert_eq!(got, ("ade081a04174b4d8".to_string(), 117, 2, 7));
}

/// `(budget, fingerprint, records, report.search.tree_nodes)` of
/// one-thread MCTS pipeline runs over a budget sweep. The tree size pins
/// the search's shape, not just the record list it produced.
fn budget_sweep<W: Workload + Sync>(
    space: &cuda_mpi_design_rules::dag::DecisionSpace,
    workload: &W,
    platform: &Platform,
) -> Vec<(usize, String, usize, usize)> {
    isolate_env();
    [50, 100, 200, 400]
        .into_iter()
        .map(|budget| {
            let run = run_pipeline_stored(
                space,
                workload,
                platform,
                mcts(budget),
                &config(1),
                &Tracer::disabled(),
                None,
                None,
            )
            .unwrap();
            (
                budget,
                format!("{:016x}", records_fingerprint(&run.result.records)),
                run.result.records.len(),
                run.report.search.tree_nodes,
            )
        })
        .collect()
}

#[test]
fn halo_mcts_budget_sweep_one_thread() {
    let sc = HaloScenario::cube2(SEED);
    let got = budget_sweep(&sc.space, &sc.workload, &sc.platform);
    assert_eq!(
        got,
        vec![
            (50, "3e531cf771138616".to_string(), 50, 1252),
            (100, "693f3e031415fe78".to_string(), 100, 2459),
            (200, "8f623844756da23e".to_string(), 200, 4847),
            (400, "302ef71d28aded81".to_string(), 400, 9546),
        ]
    );
}

#[test]
fn spmv_mcts_budget_sweep_one_thread() {
    let sc = SpmvScenario::paper(SEED);
    let got = budget_sweep(&sc.space, &sc.workload, &sc.platform);
    assert_eq!(
        got,
        vec![
            (50, "174f86c863f513ca".to_string(), 50, 280),
            (100, "13c6b2d4113c5f24".to_string(), 100, 468),
            (200, "bc744f1425d4fdeb".to_string(), 200, 711),
            (400, "97348831398e8e10".to_string(), 400, 1231),
        ]
    );
}
