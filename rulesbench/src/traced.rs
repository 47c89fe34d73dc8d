//! The traced pass: the production pipeline composed from the layers'
//! public calls, with one `dr_trace` span per layer call recorded from
//! the benchmark's own code.
//!
//! Span tree of one pass (names are what [`crate::spans`] aggregates):
//!
//! ```text
//! pipeline
//! ├── explore                     MCTS / enumeration bookkeeping
//! │   └── eval                    outermost evaluator boundary
//! │       └── lint                LintingEvaluator (lint workloads)
//! │           └── store           StoredEvaluator
//! │               ├── dag.lower   build_schedule
//! │               ├── sim.compile CompiledProgram::compile
//! │               └── sim.protocol benchmark_memo_instrumented
//! ├── lint.topology, lint.space   space-level lint (lint workloads)
//! └── label, featurize, train, rules
//! ```

use crate::gate::{Counters, Outcome};
use crate::spans::{self, NameTotals};
use crate::workload::{store_counts, Scenario, Spec};
use dr_core::{
    explore, lint_space, records_fingerprint, topology_from_workload, LintTotals, LintingEvaluator,
    StoredEvaluator,
};
use dr_dag::{build_schedule, DecisionSpace, Traversal};
use dr_mcts::Evaluator;
use dr_ml::{algorithm1, extract_rulesets, featurize, label_times};
use dr_sim::{
    benchmark_memo_instrumented, BenchConfig, BenchResult, CompiledProgram, Platform, SimError,
    SimMemo, SimStats, Workload,
};
use dr_store::ResultStore;
use dr_trace::{Lane, Tracer};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Schedule cap of the pipeline's space-level lint pass (its default
/// when `DR_LINT_SPACE_CAP` is unset).
const SPACE_LINT_CAP: usize = 4096;

/// Runs `f` inside a span named `name` on `lane`.
fn in_span<T>(lane: &RefCell<Lane>, name: &str, f: impl FnOnce() -> T) -> T {
    lane.borrow_mut().enter(name);
    let out = f();
    lane.borrow_mut().exit();
    out
}

/// Evaluator timing shim: one span per `evaluate` call.
struct Timed<'l, E> {
    inner: E,
    name: &'static str,
    lane: &'l RefCell<Lane>,
}

impl<'l, E> Timed<'l, E> {
    fn new(name: &'static str, lane: &'l RefCell<Lane>, inner: E) -> Self {
        Timed { inner, name, lane }
    }
}

impl<E: Evaluator> Evaluator for Timed<'_, E> {
    fn evaluate(&mut self, t: &Traversal, seed: u64) -> Result<BenchResult, SimError> {
        let inner = &mut self.inner;
        in_span(self.lane, self.name, || inner.evaluate(t, seed))
    }
}

/// Simulator-side state of one pass, kept outside the evaluator stack
/// because `explore` consumes the stack.
#[derive(Default)]
struct SimState {
    stats: SimStats,
    memo: SimMemo,
    impls: u64,
}

/// The innermost evaluator: the same three calls `dr_mcts::SimEvaluator`
/// makes, with one memo per evaluator, each in its own span.
struct SimStage<'a> {
    space: &'a DecisionSpace,
    workload: &'a dyn Workload,
    platform: &'a Platform,
    cfg: BenchConfig,
    lane: &'a RefCell<Lane>,
    state: &'a RefCell<SimState>,
}

impl Evaluator for SimStage<'_> {
    fn evaluate(&mut self, t: &Traversal, _seed: u64) -> Result<BenchResult, SimError> {
        let schedule = in_span(self.lane, "dag.lower", || build_schedule(self.space, t));
        let prog = in_span(self.lane, "sim.compile", || {
            CompiledProgram::compile(&schedule, self.workload)
        })?;
        let mut st = self.state.borrow_mut();
        let (result, stats) = in_span(self.lane, "sim.protocol", || {
            benchmark_memo_instrumented(&prog, self.platform, &self.cfg, &mut st.memo)
        })?;
        st.stats.merge(&stats);
        st.impls += 1;
        Ok(result)
    }
}

/// One traced pass.
#[derive(Debug, Clone)]
pub struct Traced {
    /// Wall time of the root `pipeline` span.
    pub rules_s: f64,
    /// Wall and self time per span name.
    pub layers: BTreeMap<String, NameTotals>,
    /// Wall time of every outermost `eval` call, seconds.
    pub eval_s: Vec<f64>,
    /// Traversals the simulator measured (store hits excluded).
    pub simulated: u64,
    /// Prefix-memo snapshot hits and misses.
    pub memo_hits: u64,
    /// See `memo_hits`.
    pub memo_misses: u64,
    /// Noise-factor tables the memo built.
    pub noise_tables: u64,
    /// What the pass mined.
    pub outcome: Outcome,
}

/// Runs the traced composition once.
pub fn traced_pass(
    spec: &Spec,
    sc: &Scenario,
    store: Option<Arc<ResultStore>>,
) -> Result<Traced, String> {
    let tracer = Tracer::new();
    let lane = RefCell::new(tracer.lane("rulesbench"));
    let state = RefCell::new(SimState::default());
    let before = store_counts(store.as_ref());
    let mined = in_span(&lane, "pipeline", || {
        compose(spec, sc, store.clone(), &lane, &state)
    })
    .map_err(|e| format!("traced pipeline error: {e}"))?;
    let after = store_counts(store.as_ref());
    let snap = tracer.snapshot();
    let layers = spans::totals(&snap);
    let state = state.into_inner();
    let mut outcome = mined;
    outcome.counters.samples = state.stats.runs;
    outcome.counters.instructions = state.stats.instructions;
    outcome.counters.hits = after.0 - before.0;
    outcome.counters.appended = after.2 - before.2;
    Ok(Traced {
        rules_s: layers.get("pipeline").map_or(0.0, |t| t.wall_s),
        layers,
        eval_s: spans::durations(&snap, "eval"),
        simulated: state.impls,
        memo_hits: state.memo.hits(),
        memo_misses: state.memo.misses(),
        noise_tables: state.memo.noise_tables() as u64,
        outcome,
    })
}

/// The pipeline body: explore → [space lint] → label → featurize →
/// train → rules, mirroring `run_pipeline_stored` at one thread.
fn compose(
    spec: &Spec,
    sc: &Scenario,
    store: Option<Arc<ResultStore>>,
    lane: &RefCell<Lane>,
    state: &RefCell<SimState>,
) -> Result<Outcome, SimError> {
    let space = &sc.space;
    let sim = SimStage {
        space,
        workload: &*sc.workload,
        platform: &sc.platform,
        cfg: spec.cfg.bench,
        lane,
        state,
    };
    let stored = Timed::new("store", lane, StoredEvaluator::new(sim, store));
    let lint = spec.cfg.lint.then(|| {
        in_span(lane, "lint.topology", || {
            topology_from_workload(space, &sc.workload, &sc.platform)
        })
    });
    let records = in_span(lane, "explore", || match &lint {
        Some(topo) => {
            let linting =
                LintingEvaluator::new(stored, space, topo, Arc::new(LintTotals::default()));
            explore(
                space,
                Timed::new("eval", lane, Timed::new("lint", lane, linting)),
                spec.strategy,
            )
        }
        None => explore(space, Timed::new("eval", lane, stored), spec.strategy),
    })?;
    let hb_expansions = match &lint {
        Some(topo) => in_span(lane, "lint.space", || {
            lint_space(space, Some(topo), SPACE_LINT_CAP)
                .stats
                .hb_expansions
        }),
        None => 0,
    };
    let times: Vec<f64> = records.iter().map(|r| r.result.time()).collect();
    let labeling = in_span(lane, "label", || label_times(&times, &spec.cfg.labeling));
    let traversals: Vec<&Traversal> = records.iter().map(|r| &r.traversal).collect();
    let features = in_span(lane, "featurize", || featurize(space, &traversals));
    let search = in_span(lane, "train", || {
        algorithm1(
            &features.matrix,
            &labeling.labels,
            labeling.num_classes,
            &spec.cfg.train,
        )
    });
    let rulesets = in_span(lane, "rules", || extract_rulesets(&search.tree, &features));
    Ok(Outcome {
        fingerprint: records_fingerprint(&records),
        classes: labeling.num_classes,
        rulesets: rulesets.len(),
        counters: Counters {
            cart_fits: search.history.len() as u64,
            hb_expansions,
            tree_nodes: None,
            ..Counters::default()
        },
    })
}
