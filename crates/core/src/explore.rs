//! Exploration strategies: how the `(sequence, time)` sample set is
//! collected before rule mining.
//!
//! There are two entry points. [`explore`] is the serial reference: one
//! evaluator, no threads, no observers. [`explore_parallel`] is the
//! engine the pipeline runs: `threads` evaluators, optional tracing,
//! events and static pruning, and an optional quarantine mode for chaos
//! runs. At one thread the engine returns the serial reference's record
//! list exactly. Above one thread the *record set* — which traversals
//! were measured, and what each measurement returned — is a pure
//! function of the strategy and its seed. The enabling invariant is that
//! each evaluation is seeded by [`dr_dag::eval_seed`], a function of the
//! traversal being measured rather than of when, where, or by which
//! worker it is discovered.

use dr_dag::{eval_seed, DecisionSpace, Traversal};
use dr_mcts::{
    Evaluator, ExploredRecord, Mcts, MctsConfig, PruneHook, SearchTelemetry, TelemetryRow,
    TreeStats,
};
use dr_obs::events::EventSink;
use dr_par::{
    panic_text, par_map_stream_isolated, par_map_stream_observed, CacheStats, ItemOutcome,
    PoolObserver,
};
use dr_sim::{BenchResult, SimError, SimStats};
use dr_trace::{Lane, SpanId, Tracer};
use std::collections::HashMap;

/// Master seed of the exhaustive strategy's evaluation seeds (the
/// strategy has no user-facing seed of its own). Shared with the shard
/// runner so a shard's measurements are bit-identical to the unsharded
/// run's.
pub(crate) const EXHAUSTIVE_MASTER_SEED: u64 = 0xE0E0_0000;

/// MCTS iteration-span sampling rate: record one `mcts-iter` span every
/// N iterations (`DR_TRACE_MCTS_RATE`, default 16, minimum 1). Sampling
/// keeps traces of long searches bounded without losing the shape of the
/// search.
fn mcts_trace_every() -> usize {
    std::env::var("DR_TRACE_MCTS_RATE")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .unwrap_or(16)
        .max(1)
}

/// Event-stream sampling rate: emit one sampled `mcts-iter` / `eval`
/// event every N occurrences (`DR_EVENTS_RATE`, default 16, minimum 1).
/// Sampling bounds the event stream's overhead on long runs the same
/// way `DR_TRACE_MCTS_RATE` bounds the trace.
pub fn events_rate() -> usize {
    std::env::var("DR_EVENTS_RATE")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .unwrap_or(16)
        .max(1)
}

/// Forwards pool worker lifecycle callbacks to the event stream as
/// `worker-start` / `worker-end` events.
struct SinkPoolObserver {
    sink: EventSink,
}

impl PoolObserver for SinkPoolObserver {
    fn worker_start(&self, worker: usize) {
        self.sink.emit("worker-start", &[("worker", worker.into())]);
    }

    fn worker_end(&self, worker: usize, items: usize) {
        self.sink.emit(
            "worker-end",
            &[("worker", worker.into()), ("items", items.into())],
        );
    }
}

/// A sampled iteration-span lane for a search, opened with a zero-length
/// `mcts-dispatch` marker span carrying the causal edge from the
/// pipeline's explore span (`None` when tracing is off).
fn mcts_lane(tracer: &Tracer, name: &str, dispatch: Option<SpanId>) -> Option<Lane> {
    if !tracer.is_enabled() {
        return None;
    }
    let mut lane = tracer.lane(name);
    if let Some(d) = dispatch {
        lane.enter("mcts-dispatch");
        lane.follows_from(d);
        lane.exit();
    }
    Some(lane)
}

/// How to collect the sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Strategy {
    /// Benchmark every traversal of the space (feasible only for small
    /// DAGs; this is the paper's canonical 2036-implementation dataset).
    Exhaustive,
    /// Monte-Carlo tree search with the given iteration budget
    /// (paper Section III-C).
    Mcts {
        /// Number of search iterations (rollouts).
        iterations: usize,
        /// Search hyperparameters.
        config: MctsConfig,
    },
    /// Uniform random sampling with the given rollout budget (the
    /// baseline the paper's future work calls for).
    Random {
        /// Number of rollouts.
        iterations: usize,
        /// Sampling seed.
        seed: u64,
    },
}

impl Strategy {
    /// The strategy's short name, used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Exhaustive => "exhaustive",
            Strategy::Mcts { .. } => "mcts",
            Strategy::Random { .. } => "random",
        }
    }
}

/// The MCTS engine selection. There is one engine, [`dr_mcts::Mcts`];
/// the thread count sets its batch width, and the width picks the
/// selection rule (the paper's UCT at one thread, PUCT with virtual loss
/// above), so `Auto` is the only choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearchBackend {
    /// Batch width equal to the thread count.
    #[default]
    Auto,
}

/// Collects explored records under a strategy with one evaluator on the
/// calling thread: the serial reference that
/// [`explore_parallel`] reproduces record for record at one thread.
pub fn explore<E: Evaluator>(
    space: &DecisionSpace,
    mut eval: E,
    strategy: Strategy,
) -> Result<Vec<ExploredRecord>, SimError> {
    match strategy {
        Strategy::Exhaustive => space
            .enumerate()
            .map(|t| {
                let result = eval.evaluate(&t, eval_seed(EXHAUSTIVE_MASTER_SEED, &t))?;
                Ok(ExploredRecord {
                    traversal: t,
                    result,
                })
            })
            .collect(),
        Strategy::Mcts { iterations, config } => {
            let mut mcts = Mcts::new(space, config);
            mcts.run(iterations, 1, |batch| eval.evaluate_batch(batch))?;
            Ok(mcts.into_records())
        }
        Strategy::Random { iterations, seed } => {
            dr_mcts::random_search(space, eval, iterations, seed)
        }
    }
}

/// Everything one exploration run produced.
#[derive(Debug, Clone)]
pub struct ExploreOutput {
    /// Distinct explored implementations with their measurements.
    pub records: Vec<ExploredRecord>,
    /// One row per search iteration, numbered 1.. in the order the
    /// engine committed them.
    pub telemetry: SearchTelemetry,
    /// Simulator statistics merged across workers (`None` when the
    /// evaluators do not run the simulator). The `u64` counters equal
    /// the serial run's exactly; floating-point aggregates may differ
    /// in the last bits because summation order differs.
    pub sim: Option<SimStats>,
    /// MCTS repeat/distinct counters: `hits` counts rollouts that
    /// regenerated an already-measured traversal, `misses` the distinct
    /// traversals measured (all zero for strategies that never re-visit
    /// a traversal).
    pub cache: CacheStats,
    /// Number of worker threads actually used.
    pub threads: usize,
    /// Traversals the quarantining worker pool (exhaustive and random
    /// strategies) dropped, with the error that killed their final
    /// attempt. MCTS quarantines inside the tree and reports counts
    /// only, via [`ExploreOutput::quarantined`].
    pub failures: Vec<(Traversal, SimError)>,
    /// Total traversals dropped instead of measured (≥ `failures.len()`;
    /// the difference is MCTS-internal quarantines).
    pub quarantined: u64,
    /// Subtrees retired by a static-prune hook before any rollout
    /// entered them (zero without a hook or for non-MCTS strategies).
    pub pruned: u64,
    /// Final search-tree statistics (`None` for non-MCTS strategies).
    pub tree: Option<TreeStats>,
    /// Whether the run provably covered the whole space: always `true`
    /// for `Exhaustive`, `true` for MCTS iff the tree exhausted, always
    /// `false` for `Random`.
    pub exhausted: bool,
}

/// The exploration engine: evaluates with `threads` workers, each
/// owning an evaluator built by `make_eval`.
///
/// * `Exhaustive` streams the lazy enumeration through a chunked worker
///   pool and restores canonical order afterwards, so the record *list*
///   matches [`explore`] bit for bit at every thread count.
/// * `Random` generates the rollout sequence serially (each iteration's
///   rollout is a pure function of `(seed, iteration)`), deduplicates,
///   and fans out only the expensive evaluations; the record list again
///   matches [`explore`] at every thread count.
/// * `Mcts` runs the one search engine with a batch width equal to the
///   thread count. At one thread it is the paper's sequential UCT search
///   and the record list equals [`explore`]'s. Above one, the selection
///   rule is PUCT with virtual loss, so under a partial budget different
///   thread counts may surface different subsets; once the budget
///   exhausts the space, the record set is thread-count-invariant.
///
/// Observation never perturbs the record set: `tracer` records worker
/// and chunk spans on the pool paths and sampled per-iteration spans on
/// the MCTS paths, each lane linked back to the `dispatch` span (usually
/// the pipeline's explore span) via a `follows_from` edge; `events`
/// receives sampled `mcts-iter` events and `worker-start`/`worker-end`
/// lifecycle events. `prune` retires provably-doomed MCTS subtrees
/// before any rollout enters them (see [`dr_mcts::PruneHook`]).
///
/// `quarantine` selects the pool for the exhaustive and random
/// strategies: with it, every evaluation is panic-isolated and a failing
/// traversal lands in [`ExploreOutput::failures`] instead of aborting
/// the exploration (the isolated pool emits no worker spans or events of
/// its own; wrap the evaluator stack to observe it). MCTS quarantines in
/// the tree whenever [`MctsConfig::max_failures`] allows, with or without
/// the flag, and counts drops in [`ExploreOutput::quarantined`].
#[allow(clippy::too_many_arguments)]
pub fn explore_parallel<E, F>(
    space: &DecisionSpace,
    make_eval: F,
    strategy: Strategy,
    threads: usize,
    tracer: &Tracer,
    dispatch: Option<SpanId>,
    events: Option<&EventSink>,
    prune: Option<PruneHook>,
    quarantine: bool,
) -> Result<ExploreOutput, SimError>
where
    E: Evaluator + Send,
    F: Fn() -> E + Sync,
{
    let threads = threads.max(1);
    let events = events.filter(|s| s.is_enabled());
    let pool = Pool {
        make_eval: &make_eval,
        threads,
        tracer,
        dispatch,
        events,
        quarantine,
    };
    match strategy {
        Strategy::Exhaustive => {
            let (outcomes, sim) = pool.measure(space.enumerate(), EXHAUSTIVE_MASTER_SEED)?;
            let (records, failures, _) = split_outcomes(outcomes);
            let telemetry = exhaustive_telemetry(&records);
            Ok(pool_output(
                records, telemetry, sim, threads, failures, true,
            ))
        }
        Strategy::Random { iterations, seed } => random_parallel(space, &pool, iterations, seed),
        Strategy::Mcts { iterations, config } => mcts_parallel(
            space, &make_eval, iterations, config, threads, tracer, dispatch, events, prune,
        ),
    }
}

/// One traversal and what measuring it returned.
type Outcome = (Traversal, Result<BenchResult, SimError>);

/// Quarantined traversals with the error that killed their final attempt.
type Failures = Vec<(Traversal, SimError)>;

/// The worker pool of the exhaustive and random strategies.
struct Pool<'a, F> {
    make_eval: &'a F,
    threads: usize,
    tracer: &'a Tracer,
    dispatch: Option<SpanId>,
    events: Option<&'a EventSink>,
    quarantine: bool,
}

impl<E, F> Pool<'_, F>
where
    E: Evaluator + Send,
    F: Fn() -> E + Sync,
{
    /// Measures every item at `eval_seed(master, t)` and returns the
    /// outcomes in input order plus the workers' merged simulator
    /// statistics. Without quarantine the first failure aborts the run;
    /// with it, every evaluation is panic-isolated and a failing item
    /// keeps its error.
    fn measure(
        &self,
        items: impl Iterator<Item = Traversal> + Send,
        master: u64,
    ) -> Result<(Vec<Outcome>, Option<SimStats>), SimError> {
        let make_eval = self.make_eval;
        if self.quarantine {
            let items: Vec<Traversal> = items.collect();
            let out = par_map_stream_isolated(
                items.iter(),
                self.threads,
                |_worker| make_eval(),
                |eval, _i, t: &Traversal| eval.evaluate(t, eval_seed(master, t)),
            );
            let outcomes = items
                .into_iter()
                .zip(out.items)
                .map(|(t, item)| {
                    let result = match item {
                        ItemOutcome::Ok(result) => Ok(result),
                        ItemOutcome::Failed(e) => Err(e),
                        ItemOutcome::Panicked(detail) => Err(SimError::Panicked { detail }),
                    };
                    (t, result)
                })
                .collect();
            return Ok((outcomes, merge_worker_stats(&out.states)));
        }
        let observer = self.events.map(|s| SinkPoolObserver { sink: s.clone() });
        let (outcomes, states) = par_map_stream_observed(
            items,
            self.threads,
            self.tracer,
            self.dispatch,
            observer.as_ref().map(|o| o as &dyn PoolObserver),
            |_worker| make_eval(),
            |eval, _i, t: Traversal| {
                let result = eval.evaluate(&t, eval_seed(master, &t))?;
                Ok((t, Ok(result)))
            },
        )?;
        Ok((outcomes, merge_worker_stats(&states)))
    }
}

/// Splits pool outcomes (in input order) into records and quarantined
/// failures. `kept[i]` is item `i`'s record index (`None` if it failed).
fn split_outcomes(outcomes: Vec<Outcome>) -> (Vec<ExploredRecord>, Failures, Vec<Option<usize>>) {
    let mut records = Vec::with_capacity(outcomes.len());
    let mut failures = Vec::new();
    let mut kept = Vec::with_capacity(outcomes.len());
    for (traversal, result) in outcomes {
        match result {
            Ok(result) => {
                kept.push(Some(records.len()));
                records.push(ExploredRecord { traversal, result });
            }
            Err(e) => {
                kept.push(None);
                failures.push((traversal, e));
            }
        }
    }
    (records, failures, kept)
}

/// The output of a pool strategy (no tree, no pruning, no cache).
fn pool_output(
    records: Vec<ExploredRecord>,
    telemetry: SearchTelemetry,
    sim: Option<SimStats>,
    threads: usize,
    failures: Failures,
    exhausted: bool,
) -> ExploreOutput {
    ExploreOutput {
        records,
        telemetry,
        sim,
        cache: CacheStats::default(),
        threads,
        quarantined: failures.len() as u64,
        failures,
        pruned: 0,
        tree: None,
        exhausted,
    }
}

/// The exhaustive strategy's telemetry: one row per record, in
/// canonical enumeration order.
fn exhaustive_telemetry(records: &[ExploredRecord]) -> SearchTelemetry {
    let mut telemetry = SearchTelemetry::new();
    let mut best = f64::INFINITY;
    let mut worst = f64::NEG_INFINITY;
    for (i, r) in records.iter().enumerate() {
        best = best.min(r.result.time());
        worst = worst.max(r.result.time());
        telemetry.push(TelemetryRow {
            iteration: i as u64 + 1,
            unique_traversals: i + 1,
            best_time: best,
            worst_time: worst,
            tree_nodes: 0,
            max_depth: 0,
            rollout_len: r.traversal.steps.len(),
        });
    }
    telemetry
}

/// Merges the simulator statistics of per-worker evaluators in worker
/// order.
fn merge_worker_stats<E: Evaluator>(states: &[E]) -> Option<SimStats> {
    let mut total: Option<SimStats> = None;
    for e in states {
        if let Some(s) = e.sim_stats() {
            total.get_or_insert_with(SimStats::default).merge(s);
        }
    }
    total
}

fn random_parallel<E, F>(
    space: &DecisionSpace,
    pool: &Pool<'_, F>,
    iterations: usize,
    seed: u64,
) -> Result<ExploreOutput, SimError>
where
    E: Evaluator + Send,
    F: Fn() -> E + Sync,
{
    // Rollout generation is cheap and strictly deterministic, so it runs
    // serially; only the evaluations (the expensive part) fan out. Each
    // rollout is a pure function of (seed, iteration), so this produces
    // the very sequence the serial backend would.
    let mut uniques: Vec<Traversal> = Vec::new();
    let mut by_hash: HashMap<u64, Vec<usize>> = HashMap::new();
    // For iteration i: Some(u) iff it first discovered unique index u.
    let mut first_discovery: Vec<Option<usize>> = Vec::with_capacity(iterations);
    let mut rollout_lens: Vec<usize> = Vec::with_capacity(iterations);
    for iter in 0..iterations {
        let t = dr_mcts::random_rollout(space, seed, iter as u64);
        rollout_lens.push(t.steps.len());
        let hash = t.canonical_hash();
        let existing = by_hash
            .get(&hash)
            .into_iter()
            .flatten()
            .copied()
            .find(|&u| uniques[u] == t);
        match existing {
            Some(_) => first_discovery.push(None),
            None => {
                let u = uniques.len();
                by_hash.entry(hash).or_default().push(u);
                uniques.push(t);
                first_discovery.push(Some(u));
            }
        }
    }
    let (outcomes, sim) = pool.measure(uniques.into_iter(), seed)?;
    let (records, failures, kept) = split_outcomes(outcomes);
    let mut telemetry = SearchTelemetry::new();
    let mut best = f64::INFINITY;
    let mut worst = f64::NEG_INFINITY;
    let mut count = 0usize;
    for iter in 0..iterations {
        if let Some(r) = first_discovery[iter].and_then(|u| kept[u]) {
            count = r + 1;
            let time = records[r].result.time();
            best = best.min(time);
            worst = worst.max(time);
        }
        telemetry.push(TelemetryRow {
            iteration: iter as u64 + 1,
            unique_traversals: count,
            best_time: best,
            worst_time: worst,
            tree_nodes: 0,
            max_depth: 0,
            rollout_len: rollout_lens[iter],
        });
    }
    Ok(pool_output(
        records,
        telemetry,
        sim,
        pool.threads,
        failures,
        false,
    ))
}

/// MCTS with `threads` evaluators: one tree on the coordinating thread,
/// batches of up to `threads` traversals, and a fixed pool of persistent
/// evaluators. Entry `i` of a batch always runs on evaluator slot `i`, so
/// per-evaluator memo state evolves deterministically; a batch of one is
/// measured on the coordinating thread, every larger batch on scoped
/// threads.
///
/// Determinism: assembly runs entirely on the coordinator (the worker
/// threads never touch the tree), and every evaluation result is a pure
/// function of its traversal, so the whole run — records, telemetry,
/// tree — is a pure function of `(strategy, config, threads)`.
#[allow(clippy::too_many_arguments)]
fn mcts_parallel<E, F>(
    space: &DecisionSpace,
    make_eval: &F,
    iterations: usize,
    config: MctsConfig,
    threads: usize,
    tracer: &Tracer,
    dispatch: Option<SpanId>,
    events: Option<&EventSink>,
    prune: Option<PruneHook>,
) -> Result<ExploreOutput, SimError>
where
    E: Evaluator + Send,
    F: Fn() -> E + Sync,
{
    let mut evals: Vec<E> = (0..threads).map(|_| make_eval()).collect();
    let mut items = vec![0usize; threads];
    if let Some(sink) = events {
        for worker in 0..threads {
            sink.emit("worker-start", &[("worker", worker.into())]);
        }
    }
    let mut mcts = Mcts::new(space, config);
    if let Some(hook) = prune {
        mcts.set_prune(hook);
    }
    if let Some(lane) = mcts_lane(tracer, "mcts-shared", dispatch) {
        mcts.set_trace(lane, mcts_trace_every());
    }
    if let Some(sink) = events {
        mcts.set_events(sink.clone(), events_rate());
    }

    mcts.run(iterations, threads, |batch| {
        for n in items.iter_mut().take(batch.len()) {
            *n += 1;
        }
        if let [pe] = batch {
            return vec![contained_eval(&mut evals[0], &pe.traversal, pe.eval_seed)];
        }
        std::thread::scope(|s| {
            let handles: Vec<_> = batch
                .iter()
                .zip(evals.iter_mut())
                .map(|(pe, eval)| {
                    s.spawn(move || contained_eval(eval, &pe.traversal, pe.eval_seed))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("MCTS evaluation thread panicked"))
                .collect()
        })
    })?;

    if let Some(sink) = events {
        for (worker, &n) in items.iter().enumerate() {
            sink.emit(
                "worker-end",
                &[("worker", worker.into()), ("items", n.into())],
            );
        }
    }

    let sim = merge_worker_stats(&evals);
    let cache = CacheStats {
        hits: mcts.repeats(),
        misses: mcts.records().len() as u64,
    };
    let quarantined = mcts.failures() as u64;
    let pruned = mcts.pruned();
    let tree = mcts.stats();
    let exhausted = mcts.is_exhausted();
    let (records, telemetry) = mcts.into_parts();
    Ok(ExploreOutput {
        records,
        telemetry,
        sim,
        cache,
        threads,
        failures: Vec::new(),
        quarantined,
        pruned,
        tree: Some(tree),
        exhausted,
    })
}

/// Runs one evaluation with panic containment: a poisoned evaluation
/// surfaces as a structured error the search can quarantine instead of
/// tearing down the batch.
fn contained_eval<E: Evaluator>(
    eval: &mut E,
    t: &Traversal,
    seed: u64,
) -> Result<BenchResult, SimError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| eval.evaluate(t, seed)))
        .unwrap_or_else(|payload| {
            Err(SimError::Panicked {
                detail: panic_text(payload),
            })
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_dag::{CostKey, DagBuilder, OpSpec};
    use dr_mcts::SimEvaluator;
    use dr_sim::{BenchConfig, Platform, TableWorkload};

    fn setup() -> (DecisionSpace, TableWorkload, Platform) {
        let mut b = DagBuilder::new();
        let a = b.add("a", OpSpec::GpuKernel(CostKey::new("a")));
        let g = b.add("b", OpSpec::GpuKernel(CostKey::new("b")));
        let c = b.add("c", OpSpec::CpuWork(CostKey::new("c")));
        b.edge(a, c);
        b.edge(g, c);
        let space = DecisionSpace::new(b.build().unwrap(), 2).unwrap();
        let mut w = TableWorkload::new(1);
        w.cost_all("a", 1e-4)
            .cost_all("b", 2e-4)
            .cost_all("c", 1e-5);
        (space, w, Platform::perlmutter_like().noiseless())
    }

    #[test]
    fn exhaustive_covers_the_whole_space() {
        let (space, w, platform) = setup();
        let eval = SimEvaluator::new(&space, &w, &platform, BenchConfig::quick());
        let records = explore(&space, eval, Strategy::Exhaustive).unwrap();
        assert_eq!(records.len() as u128, space.count_traversals());
    }

    #[test]
    fn mcts_strategy_respects_budget() {
        let (space, w, platform) = setup();
        let eval = SimEvaluator::new(&space, &w, &platform, BenchConfig::quick());
        let records = explore(
            &space,
            eval,
            Strategy::Mcts {
                iterations: 5,
                config: MctsConfig::default(),
            },
        )
        .unwrap();
        assert!(!records.is_empty() && records.len() <= 5);
    }

    #[test]
    fn random_strategy_returns_unique_records() {
        let (space, w, platform) = setup();
        let eval = SimEvaluator::new(&space, &w, &platform, BenchConfig::quick());
        let records = explore(
            &space,
            eval,
            Strategy::Random {
                iterations: 30,
                seed: 1,
            },
        )
        .unwrap();
        let set: std::collections::HashSet<_> = records.iter().map(|r| &r.traversal).collect();
        assert_eq!(set.len(), records.len());
    }

    /// Runs the engine unobserved with evaluators built by `make_eval`.
    fn run_engine<E, F>(
        space: &DecisionSpace,
        make_eval: F,
        strategy: Strategy,
        threads: usize,
        quarantine: bool,
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
            quarantine,
        )
        .unwrap()
    }

    /// Runs the engine over the shared setup with a fresh SimEvaluator
    /// per worker.
    fn run_parallel(strategy: Strategy, threads: usize) -> ExploreOutput {
        let (space, w, platform) = setup();
        run_engine(
            &space,
            || SimEvaluator::new(&space, &w, &platform, BenchConfig::quick()),
            strategy,
            threads,
            false,
        )
    }

    fn record_set(records: &[ExploredRecord]) -> std::collections::HashSet<(Traversal, u64)> {
        records
            .iter()
            .map(|r| (r.traversal.clone(), r.result.time().to_bits()))
            .collect()
    }

    #[test]
    fn parallel_exhaustive_matches_serial_bit_for_bit() {
        let serial = run_parallel(Strategy::Exhaustive, 1);
        for threads in [2, 3, 8] {
            let par = run_parallel(Strategy::Exhaustive, threads);
            assert_eq!(par.threads, threads);
            assert_eq!(par.records.len(), serial.records.len());
            // Same records in the same (canonical) order, same times.
            for (a, b) in par.records.iter().zip(&serial.records) {
                assert_eq!(a.traversal, b.traversal);
                assert_eq!(a.result, b.result);
            }
            assert_eq!(par.telemetry.to_csv(), serial.telemetry.to_csv());
            let (ps, ss) = (par.sim.unwrap(), serial.sim.clone().unwrap());
            assert_eq!(ps.runs, ss.runs);
            assert_eq!(ps.instructions, ss.instructions);
        }
    }

    #[test]
    fn parallel_random_matches_serial_bit_for_bit() {
        let strategy = Strategy::Random {
            iterations: 40,
            seed: 9,
        };
        let serial = run_parallel(strategy, 1);
        for threads in [2, 4] {
            let par = run_parallel(strategy, threads);
            for (a, b) in par.records.iter().zip(&serial.records) {
                assert_eq!(a.traversal, b.traversal);
                assert_eq!(a.result, b.result);
            }
            assert_eq!(par.records.len(), serial.records.len());
            assert_eq!(par.telemetry.to_csv(), serial.telemetry.to_csv());
        }
    }

    #[test]
    fn shared_tree_mcts_is_thread_count_invariant_at_exhaustion() {
        // Above one thread records come back in canonical order, so at
        // exhaustion not just the record set but the record *list* must
        // be identical across thread counts, and must equal the
        // one-thread record set.
        let strategy = Strategy::Mcts {
            iterations: 200,
            config: MctsConfig::default(),
        };
        let serial = run_parallel(strategy, 1);
        assert!(serial.exhausted, "budget must exhaust the test space");
        let serial_set = record_set(&serial.records);
        let shared2 = run_parallel(strategy, 2);
        assert!(shared2.exhausted);
        assert_eq!(record_set(&shared2.records), serial_set);
        for threads in [3, 4] {
            let par = run_parallel(strategy, threads);
            assert!(par.exhausted, "threads={threads}");
            assert_eq!(par.records.len(), shared2.records.len());
            for (a, b) in par.records.iter().zip(&shared2.records) {
                assert_eq!(a.traversal, b.traversal, "threads={threads}");
                assert_eq!(a.result, b.result, "threads={threads}");
            }
            // Cache counters mirror the tree's repeat accounting.
            assert_eq!(par.cache.misses as usize, par.records.len());
            assert!(par.tree.is_some());
            let (ps, ss) = (par.sim.clone().unwrap(), serial.sim.clone().unwrap());
            assert_eq!(ps.runs, ss.runs, "each traversal simulated once");
        }
    }

    /// An evaluator that deterministically fails traversals by hash
    /// residue — and, when `panics` is set, panics on one residue to
    /// exercise containment.
    fn chaotic_eval<'a>(
        space: &'a DecisionSpace,
        w: &'a TableWorkload,
        platform: &'a Platform,
        panics: bool,
    ) -> impl FnMut(&Traversal, u64) -> Result<dr_sim::BenchResult, SimError> + 'a {
        let mut inner = SimEvaluator::new(space, w, platform, BenchConfig::quick());
        move |t: &Traversal, seed: u64| match t.canonical_hash() % 4 {
            0 | 2 => Err(SimError::Panicked {
                detail: "injected failure".into(),
            }),
            1 if panics => panic!("injected panic"),
            1 => Err(SimError::Panicked {
                detail: "injected failure".into(),
            }),
            _ => Evaluator::evaluate(&mut inner, t, seed),
        }
    }

    #[test]
    fn resilient_exhaustive_quarantines_and_keeps_the_rest() {
        let (space, w, platform) = setup();
        let total = space.count_traversals() as usize;
        let run = |threads| {
            run_engine(
                &space,
                || chaotic_eval(&space, &w, &platform, true),
                Strategy::Exhaustive,
                threads,
                true,
            )
        };
        let serial = run(1);
        assert_eq!(
            serial.records.len() + serial.failures.len(),
            total,
            "every traversal is either measured or quarantined"
        );
        assert!(!serial.failures.is_empty(), "chaos must bite this space");
        assert!(!serial.records.is_empty(), "survivors must remain");
        assert_eq!(serial.quarantined as usize, serial.failures.len());
        // Panics were contained as structured errors.
        assert!(serial
            .failures
            .iter()
            .all(|(_, e)| matches!(e, SimError::Panicked { .. })));
        for threads in [2, 4] {
            let par = run(threads);
            assert_eq!(par.records.len(), serial.records.len(), "threads={threads}");
            for (a, b) in par.records.iter().zip(&serial.records) {
                assert_eq!(a.traversal, b.traversal);
                assert_eq!(a.result, b.result);
            }
            assert_eq!(
                par.failures.iter().map(|(t, _)| t).collect::<Vec<_>>(),
                serial.failures.iter().map(|(t, _)| t).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn resilient_random_matches_the_plain_engine_when_clean() {
        let (space, w, platform) = setup();
        let strategy = Strategy::Random {
            iterations: 30,
            seed: 5,
        };
        let make = || SimEvaluator::new(&space, &w, &platform, BenchConfig::quick());
        let plain = run_engine(&space, make, strategy, 2, false);
        let resilient = run_engine(&space, make, strategy, 2, true);
        assert_eq!(resilient.records.len(), plain.records.len());
        for (a, b) in resilient.records.iter().zip(&plain.records) {
            assert_eq!(a.traversal, b.traversal);
            assert_eq!(a.result, b.result);
        }
        assert_eq!(resilient.telemetry.to_csv(), plain.telemetry.to_csv());
        assert!(resilient.failures.is_empty());
        assert_eq!(resilient.quarantined, 0);
    }

    #[test]
    fn resilient_random_telemetry_counts_only_survivors() {
        let (space, w, platform) = setup();
        let strategy = Strategy::Random {
            iterations: 40,
            seed: 5,
        };
        let out = run_engine(
            &space,
            || chaotic_eval(&space, &w, &platform, true),
            strategy,
            2,
            true,
        );
        assert!(out.quarantined > 0, "chaos must bite");
        let rows = out.telemetry.rows();
        assert_eq!(rows.len(), 40, "one row per iteration");
        assert_eq!(rows.last().unwrap().unique_traversals, out.records.len());
    }

    #[test]
    fn resilient_mcts_quarantines_in_tree() {
        let (space, w, platform) = setup();
        let total = space.count_traversals() as usize;
        let strategy = Strategy::Mcts {
            iterations: 400,
            config: MctsConfig {
                max_failures: total,
                ..MctsConfig::default()
            },
        };
        let out = run_engine(
            &space,
            || chaotic_eval(&space, &w, &platform, false),
            strategy,
            1,
            true,
        );
        assert!(out.quarantined > 0, "chaos must bite");
        assert!(!out.records.is_empty());
        assert_eq!(out.records.len() + out.quarantined as usize, total);
    }

    #[test]
    fn parallel_mcts_telemetry_is_renumbered_and_monotone() {
        let strategy = Strategy::Mcts {
            iterations: 60,
            config: MctsConfig::default(),
        };
        let par = run_parallel(strategy, 3);
        let rows = par.telemetry.rows();
        assert!(!rows.is_empty());
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.iteration, i as u64 + 1);
        }
        for w in rows.windows(2) {
            assert!(w[1].unique_traversals >= w[0].unique_traversals);
            assert!(w[1].best_time <= w[0].best_time);
        }
        assert_eq!(
            rows.last().unwrap().unique_traversals,
            par.records.len(),
            "final row counts all merged records"
        );
    }
}
