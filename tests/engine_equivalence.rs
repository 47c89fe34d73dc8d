//! The MCTS engine at batch width 1 is the paper's sequential search.
//! Each case below is pinned to a digest of what a separate serial
//! implementation of that search produced — record list (traversal and
//! time bits, in order), telemetry rows, tree statistics, snapshot and
//! node count — on halo `cube2` and paper SpMV (seed 213, quick
//! protocol), clean and with a failing evaluator plus a prune hook. The
//! engine matched that implementation field for field before it was
//! removed; the digests keep holding the engine to it.

use cuda_mpi_design_rules::dag::{DecisionSpace, Prefix, Traversal};
use cuda_mpi_design_rules::halo::HaloScenario;
use cuda_mpi_design_rules::mcts::{
    Evaluator, Mcts, MctsConfig, PruneHook, SimEvaluator, TreeStats,
};
use cuda_mpi_design_rules::sim::{BenchConfig, BenchResult, Platform, SimError, Workload};
use cuda_mpi_design_rules::spmv::SpmvScenario;
use std::sync::Arc;

const SEED: u64 = 213;

/// Everything a search run leaves behind. The fields are read only
/// through the `Debug` text the digest hashes.
#[derive(Debug)]
#[allow(dead_code)]
struct Outcome {
    records: Vec<(u64, u64)>,
    telemetry: String,
    stats: TreeStats,
    /// `Debug` text of `snapshot(5, 50)` (node means may be NaN, which
    /// `PartialEq` would reject).
    snapshot: String,
    nodes: usize,
    iterations: u64,
    failures: usize,
    pruned: u64,
}

impl Outcome {
    /// FNV-1a over the outcome's `Debug` text.
    fn digest(&self) -> String {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in format!("{self:?}").bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        format!("{h:016x}")
    }
}

/// One search configuration: clean, or with every fifth traversal (by
/// canonical hash) failing under quarantine and a prune hook retiring a
/// seventh of the depth-3+ prefixes.
#[derive(Clone, Copy)]
enum Case {
    Clean,
    FailingPruned,
}

fn prune_hook() -> PruneHook {
    Arc::new(|prefix: &Prefix| {
        let hash = Traversal {
            steps: prefix.steps().to_vec(),
        }
        .canonical_hash();
        prefix.len() >= 3 && hash.is_multiple_of(7)
    })
}

fn evaluator<'a, W: Workload>(
    space: &'a DecisionSpace,
    workload: &'a W,
    platform: &'a Platform,
    case: Case,
) -> impl Evaluator + 'a {
    let mut inner = SimEvaluator::new(space, workload, platform, BenchConfig::quick());
    move |t: &Traversal, seed: u64| -> Result<BenchResult, SimError> {
        if matches!(case, Case::FailingPruned) && t.canonical_hash().is_multiple_of(5) {
            return Err(SimError::Panicked {
                detail: "injected failure".into(),
            });
        }
        inner.evaluate(t, seed)
    }
}

fn config(case: Case, budget: usize) -> MctsConfig {
    MctsConfig {
        seed: SEED,
        max_failures: match case {
            Case::Clean => 0,
            Case::FailingPruned => budget,
        },
        ..MctsConfig::default()
    }
}

/// Runs `budget` iterations at batch width 1, evaluating inline.
fn outcome<W: Workload>(
    space: &DecisionSpace,
    workload: &W,
    platform: &Platform,
    case: Case,
    budget: usize,
) -> Outcome {
    let mut eval = evaluator(space, workload, platform, case);
    let mut mcts = Mcts::new(space, config(case, budget));
    if matches!(case, Case::FailingPruned) {
        mcts.set_prune(prune_hook());
    }
    mcts.run(budget, 1, |batch| eval.evaluate_batch(batch))
        .unwrap();
    let snapshot = mcts.snapshot(5, 50);
    Outcome {
        records: mcts
            .records()
            .iter()
            .map(|r| (r.traversal.canonical_hash(), r.result.time().to_bits()))
            .collect(),
        telemetry: mcts.telemetry().to_csv(),
        stats: snapshot.stats,
        iterations: snapshot.iterations,
        snapshot: format!("{snapshot:?}"),
        nodes: mcts.tree_size(),
        failures: mcts.failures(),
        pruned: mcts.pruned(),
    }
}

fn check<W: Workload>(
    space: &DecisionSpace,
    workload: &W,
    platform: &Platform,
    case: Case,
    pins: &[(usize, &str)],
) {
    let mut digests = Vec::new();
    for &(budget, _) in pins {
        let got = outcome(space, workload, platform, case, budget);
        if matches!(case, Case::FailingPruned) {
            assert!(got.failures > 0, "budget {budget}: failures must bite");
            assert!(got.pruned > 0, "budget {budget}: the hook must prune");
        }
        digests.push((budget, got.digest()));
    }
    let pinned: Vec<(usize, String)> = pins.iter().map(|&(b, d)| (b, d.to_string())).collect();
    assert_eq!(digests, pinned);
}

#[test]
fn halo_width_one_search_is_the_serial_search() {
    let sc = HaloScenario::cube2(SEED);
    check(
        &sc.space,
        &sc.workload,
        &sc.platform,
        Case::Clean,
        &[
            (50, "cb7c3215af0007f1"),
            (100, "0578279bce5132e7"),
            (200, "b60d56287371c594"),
            (400, "b05d8b71e53f6160"),
            (2000, "40068da72f5da161"),
        ],
    );
}

#[test]
fn spmv_width_one_search_is_the_serial_search() {
    let sc = SpmvScenario::paper(SEED);
    check(
        &sc.space,
        &sc.workload,
        &sc.platform,
        Case::Clean,
        &[
            (50, "66cc2ce29ae98d82"),
            (100, "1b168fb64594d5e1"),
            (200, "057c9f66514cd515"),
            (400, "6146f536bf990995"),
            (2000, "fcded3a70fdb3dea"),
        ],
    );
}

#[test]
fn halo_width_one_search_is_the_serial_search_under_failures_and_pruning() {
    let sc = HaloScenario::cube2(SEED);
    check(
        &sc.space,
        &sc.workload,
        &sc.platform,
        Case::FailingPruned,
        &[
            (100, "46a5b1449e096159"),
            (400, "c6f6c3784e3a9bfb"),
            (3000, "967c593b94a4ad73"),
        ],
    );
}

#[test]
fn spmv_width_one_search_is_the_serial_search_under_failures_and_pruning() {
    let sc = SpmvScenario::paper(SEED);
    check(
        &sc.space,
        &sc.workload,
        &sc.platform,
        Case::FailingPruned,
        &[
            (100, "365d92f27f00c863"),
            (400, "6b319a9d48417931"),
            (3000, "5ae30a8f8c8450dc"),
        ],
    );
}
