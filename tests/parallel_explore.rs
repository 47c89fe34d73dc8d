//! Determinism regression for the exploration engine: for every strategy
//! and thread count, `explore_parallel` must produce the same
//! `(traversal, time)` set as the serial reference `explore` — on a
//! *noisy* platform, where any seed drift (per-index seeds,
//! worker-dependent seeds) would surface as differing measurement bits.
//! At one thread the engine must return the serial reference's record
//! *list*, in order.

use cuda_mpi_design_rules::dag::{CostKey, DagBuilder, DecisionSpace, OpSpec, Traversal};
use cuda_mpi_design_rules::mcts::{Evaluator, MctsConfig, SimEvaluator};
use cuda_mpi_design_rules::pipeline::{
    explore, explore_parallel, records_fingerprint, ExploreOutput, Strategy,
};
use cuda_mpi_design_rules::sim::{BenchConfig, BenchResult, Platform, SimError, TableWorkload};
use cuda_mpi_design_rules::trace::Tracer;
use std::collections::HashSet;
use std::rc::Rc;

/// A small space (12 traversals) whose every traversal any reasonable
/// budget covers, on a platform with measurement noise left ON.
fn setup() -> (DecisionSpace, TableWorkload, Platform) {
    let mut b = DagBuilder::new();
    let a = b.add("a", OpSpec::GpuKernel(CostKey::new("a")));
    let g = b.add("b", OpSpec::GpuKernel(CostKey::new("b")));
    let c = b.add("c", OpSpec::CpuWork(CostKey::new("c")));
    b.edge(a, c);
    b.edge(g, c);
    let space = DecisionSpace::new(b.build().unwrap(), 2).unwrap();
    let mut w = TableWorkload::new(1);
    w.cost_all("a", 3e-4)
        .cost_all("b", 2e-4)
        .cost_all("c", 1e-5);
    (space, w, Platform::perlmutter_like())
}

/// The engine, unobserved and without quarantine.
fn engine<E, F>(
    space: &DecisionSpace,
    make_eval: F,
    strategy: Strategy,
    threads: usize,
) -> ExploreOutput
where
    E: Evaluator + Send,
    F: Fn() -> E + Sync,
{
    explore_parallel(
        space,
        make_eval,
        strategy,
        threads,
        &Tracer::disabled(),
        None,
        None,
        None,
        false,
    )
    .unwrap()
}

type RecordSet = HashSet<(Traversal, u64)>;

fn serial_set(strategy: Strategy) -> RecordSet {
    let (space, w, platform) = setup();
    let eval = SimEvaluator::new(&space, &w, &platform, BenchConfig::quick());
    explore(&space, eval, strategy)
        .unwrap()
        .into_iter()
        .map(|r| (r.traversal, r.result.time().to_bits()))
        .collect()
}

fn parallel_set(strategy: Strategy, threads: usize) -> (RecordSet, u64) {
    let (space, w, platform) = setup();
    let out = engine(
        &space,
        || SimEvaluator::new(&space, &w, &platform, BenchConfig::quick()),
        strategy,
        threads,
    );
    let sim_runs = out.sim.as_ref().map(|s| s.runs).unwrap_or(0);
    let set = out
        .records
        .into_iter()
        .map(|r| (r.traversal, r.result.time().to_bits()))
        .collect();
    (set, sim_runs)
}

fn assert_thread_count_invariant(strategy: Strategy) {
    let serial = serial_set(strategy);
    assert!(!serial.is_empty());
    let (_, serial_runs) = parallel_set(strategy, 1);
    for threads in [1usize, 2, 4] {
        let (par, runs) = parallel_set(strategy, threads);
        assert_eq!(
            par,
            serial,
            "{} with {threads} threads diverged from the serial record set",
            strategy.name()
        );
        // Each unique traversal is simulated exactly once per run, so
        // the merged u64 sim counters are thread-count-invariant too.
        assert_eq!(runs, serial_runs, "{} sim runs drifted", strategy.name());
    }
}

#[test]
fn exhaustive_is_thread_count_invariant() {
    assert_thread_count_invariant(Strategy::Exhaustive);
}

#[test]
fn random_is_thread_count_invariant() {
    assert_thread_count_invariant(Strategy::Random {
        iterations: 60,
        seed: 5,
    });
}

#[test]
fn mcts_at_exhaustion_is_thread_count_invariant() {
    // 300 iterations vastly exceed the 12-traversal space: every worker
    // tree exhausts, so the merged set equals the serial search's.
    assert_thread_count_invariant(Strategy::Mcts {
        iterations: 300,
        config: MctsConfig {
            seed: 17,
            ..Default::default()
        },
    });
}

#[test]
fn shared_tree_fingerprints_match_serial_bit_for_bit_at_exhaustion() {
    // The run ledger's record fingerprint hashes the record *list* in
    // order, so this is stricter than set equality: the shared-tree
    // engine must hand back the identical sequence of (traversal, time)
    // bits at two and at four workers once the space exhausts.
    let strategy = Strategy::Mcts {
        iterations: 300,
        config: MctsConfig {
            seed: 17,
            ..Default::default()
        },
    };
    let (space, w, platform) = setup();
    let shared = |threads: usize| {
        engine(
            &space,
            || SimEvaluator::new(&space, &w, &platform, BenchConfig::quick()),
            strategy,
            threads,
        )
    };
    let two = shared(2);
    assert_eq!(
        two.records.len(),
        12,
        "budget must exhaust the 12-traversal space"
    );
    let four = shared(4);
    assert_eq!(four.records.len(), two.records.len());
    assert_eq!(
        records_fingerprint(&four.records),
        records_fingerprint(&two.records),
        "shared-tree record fingerprint drifted between 2 and 4 workers"
    );
    // And the batched search agrees with the serial reference's record
    // set.
    let set: RecordSet = four
        .records
        .into_iter()
        .map(|r| (r.traversal, r.result.time().to_bits()))
        .collect();
    assert_eq!(set, serial_set(strategy));
}

#[test]
fn parallel_runs_are_repeatable() {
    // Same (seed, threads) twice → identical everything on the batched
    // MCTS path.
    let strategy = Strategy::Mcts {
        iterations: 300,
        config: MctsConfig {
            seed: 23,
            ..Default::default()
        },
    };
    let (a, _) = parallel_set(strategy, 4);
    let (b, _) = parallel_set(strategy, 4);
    assert_eq!(a, b);
}

#[test]
fn serial_reference_matches_the_engine_record_list_at_one_thread() {
    // Not just the set: the record *list*, in order, as the ledger's
    // fingerprint hashes it. MCTS runs at a partial budget, where the
    // tree's discovery order is what is being compared.
    let (space, w, platform) = setup();
    for strategy in [
        Strategy::Exhaustive,
        Strategy::Random {
            iterations: 20,
            seed: 5,
        },
        Strategy::Mcts {
            iterations: 7,
            config: MctsConfig {
                seed: 17,
                ..Default::default()
            },
        },
    ] {
        let eval = SimEvaluator::new(&space, &w, &platform, BenchConfig::quick());
        let serial = explore(&space, eval, strategy).unwrap();
        let out = engine(
            &space,
            || SimEvaluator::new(&space, &w, &platform, BenchConfig::quick()),
            strategy,
            1,
        );
        assert!(!serial.is_empty());
        assert_eq!(out.records.len(), serial.len(), "{}", strategy.name());
        assert_eq!(
            records_fingerprint(&out.records),
            records_fingerprint(&serial),
            "{} record list drifted between explore and the engine",
            strategy.name()
        );
    }
}

#[test]
fn serial_reference_accepts_an_evaluator_that_is_not_send() {
    // `explore` has no `Send` bound: an evaluator holding an `Rc` (or a
    // `&RefCell`) runs through it and measures what the engine measures.
    let (space, w, platform) = setup();
    let calls = Rc::new(std::cell::Cell::new(0usize));
    let mut inner = SimEvaluator::new(&space, &w, &platform, BenchConfig::quick());
    let counted = Rc::clone(&calls);
    let eval = move |t: &Traversal, seed: u64| -> Result<BenchResult, SimError> {
        counted.set(counted.get() + 1);
        inner.evaluate(t, seed)
    };
    let records = explore(&space, eval, Strategy::Exhaustive).unwrap();
    assert_eq!(calls.get(), 12);
    let out = engine(
        &space,
        || SimEvaluator::new(&space, &w, &platform, BenchConfig::quick()),
        Strategy::Exhaustive,
        1,
    );
    assert_eq!(
        records_fingerprint(&records),
        records_fingerprint(&out.records)
    );
}

#[test]
fn mcts_quarantine_count_is_thread_count_invariant() {
    // A fault-free run whose evaluator fails every traversal with
    // `canonical_hash % 3 == 0`: the tree quarantines them (up to
    // `max_failures`) on the serial and on the shared engine alike, and
    // both report the same count.
    let (space, w, platform) = setup();
    let strategy = Strategy::Mcts {
        iterations: 300,
        config: MctsConfig {
            seed: 17,
            max_failures: 12,
            ..Default::default()
        },
    };
    let run = |threads: usize| {
        engine(
            &space,
            || {
                let mut inner = SimEvaluator::new(&space, &w, &platform, BenchConfig::quick());
                move |t: &Traversal, seed: u64| -> Result<BenchResult, SimError> {
                    if t.canonical_hash().is_multiple_of(3) {
                        Err(SimError::Panicked {
                            detail: "injected failure".into(),
                        })
                    } else {
                        inner.evaluate(t, seed)
                    }
                }
            },
            strategy,
            threads,
        )
    };
    let serial = run(1);
    let shared = run(4);
    assert_eq!(serial.records.len(), 10);
    assert_eq!(serial.quarantined, 2);
    assert_eq!(shared.records.len(), serial.records.len());
    assert_eq!(shared.quarantined, serial.quarantined);
}
