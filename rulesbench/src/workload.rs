//! The three workloads: scenario construction, set-up, and the untraced
//! pass through the production entry point.

use crate::gate::{Counters, Outcome};
use dr_core::{records_fingerprint, run_pipeline_stored, PipelineConfig, SearchBackend, Strategy};
use dr_dag::DecisionSpace;
use dr_mcts::MctsConfig;
use dr_sim::{BenchConfig, Platform, Workload};
use dr_store::ResultStore;
use dr_trace::Tracer;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Workload names, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 3] = ["spmv-mcts-paper", "halo-mcts-deep", "spmv-rules-warm"];

/// MCTS search seed. The search configuration is part of a workload's
/// definition, not of its input: the benchmark seed only builds the
/// scenario. It equals the default seed, so the default seed reproduces
/// `dr-rules <scenario> explore --seed 213`.
const SEARCH_SEED: u64 = crate::gate::DEFAULT_SEED;

/// How a workload uses the durable result store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreUse {
    /// No store.
    None,
    /// A fresh, empty store for every pass (every evaluation appends).
    Fresh,
    /// A store filled before timing starts (every evaluation hits).
    Warm,
}

/// Everything that defines one workload at one seed.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Benchmark seed.
    pub seed: u64,
    /// Exploration strategy.
    pub strategy: Strategy,
    /// Pipeline configuration (one thread, explicit search backend).
    pub cfg: PipelineConfig,
    /// Store usage.
    pub store: StoreUse,
}

impl Spec {
    /// The named workload at `seed`, or `None` for an unknown name.
    pub fn new(name: &str, seed: u64) -> Option<Spec> {
        let mcts = |iterations| Strategy::Mcts {
            iterations,
            config: MctsConfig {
                seed: SEARCH_SEED,
                ..MctsConfig::default()
            },
        };
        let cfg = |bench, lint| PipelineConfig {
            bench,
            threads: 1,
            lint,
            search: SearchBackend::Auto,
            ..PipelineConfig::default()
        };
        let (name, strategy, cfg, store) = match name {
            "spmv-mcts-paper" => (
                WORKLOADS[0],
                mcts(400),
                cfg(BenchConfig::default(), false),
                StoreUse::None,
            ),
            "halo-mcts-deep" => (
                WORKLOADS[1],
                mcts(2000),
                cfg(BenchConfig::quick(), false),
                StoreUse::Fresh,
            ),
            "spmv-rules-warm" => (
                WORKLOADS[2],
                Strategy::Exhaustive,
                cfg(BenchConfig::quick(), true),
                StoreUse::Warm,
            ),
            _ => return None,
        };
        Some(Spec {
            name,
            seed,
            strategy,
            cfg,
            store,
        })
    }

    /// Builds the scenario the program receives from the seed: the
    /// paper's SpMV (150 000-row banded matrix drawn from the seed, 4
    /// ranks × 2 streams) or halo `cube2` (2×2×2 ranks, 192³ cells, 2
    /// streams; its geometry is fixed, so every seed builds the same
    /// scenario).
    pub fn scenario(&self) -> Scenario {
        if self.name == "halo-mcts-deep" {
            let sc = dr_halo::HaloScenario::cube2(self.seed);
            Scenario {
                space: sc.space,
                workload: Box::new(sc.workload),
                platform: sc.platform,
            }
        } else {
            let sc = dr_spmv::SpmvScenario::paper(self.seed);
            Scenario {
                space: sc.space,
                workload: Box::new(sc.workload),
                platform: sc.platform,
            }
        }
    }

    /// One set-up: scenario construction plus, for the warm workload,
    /// opening (replaying) the filled store. A fresh store has nothing to
    /// replay; each pass creates its own, untimed.
    pub fn set_up(&self, work: &WorkDir) -> Result<SetUp, String> {
        let t0 = Instant::now();
        let sc = self.scenario();
        let o0 = Instant::now();
        let store = match self.store {
            StoreUse::Warm => Some(open_store(&work.store_dir())?),
            StoreUse::None | StoreUse::Fresh => None,
        };
        let open_s = store.is_some().then(|| o0.elapsed().as_secs_f64());
        Ok(SetUp {
            sc,
            store,
            setup_s: t0.elapsed().as_secs_f64(),
            open_s,
        })
    }
}

/// What one set-up produced.
pub struct SetUp {
    /// The scenario.
    pub sc: Scenario,
    /// The opened warm store.
    pub store: Option<Arc<ResultStore>>,
    /// Seconds of the whole set-up.
    pub setup_s: f64,
    /// Seconds of the warm store's open (replay).
    pub open_s: Option<f64>,
}

/// One assembled design-space exploration problem.
pub struct Scenario {
    /// The traversal decision space.
    pub space: DecisionSpace,
    /// The cost and communication model.
    pub workload: Box<dyn Workload + Sync>,
    /// The simulated platform.
    pub platform: Platform,
}

/// A temporary work directory under the current directory, removed on
/// drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `.rulesbench/<name>-<pid>` under the current directory.
    pub fn new(name: &str) -> std::io::Result<WorkDir> {
        let dir = Path::new(".rulesbench").join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    /// The store directory of this run.
    pub fn store_dir(&self) -> PathBuf {
        self.0.join("store")
    }

    /// Opens a fresh, empty store (any previous one is deleted).
    pub fn fresh_store(&self) -> Result<Arc<ResultStore>, String> {
        let dir = self.store_dir();
        let _ = std::fs::remove_dir_all(&dir);
        open_store(&dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind; fails harmlessly when another
        // run still uses it.
        let _ = std::fs::remove_dir(".rulesbench");
    }
}

/// Opens (replaying) the store in `dir`.
pub fn open_store(dir: &Path) -> Result<Arc<ResultStore>, String> {
    ResultStore::open(dir)
        .map(Arc::new)
        .map_err(|e| format!("cannot open result store {}: {e}", dir.display()))
}

/// Fills the warm workload's store with a cold exhaustive run at the
/// workload's protocol (lint off: lint never changes measurements) and
/// returns that run's record-set fingerprint, which every warm pass must
/// reproduce from the store.
pub fn fill_store(spec: &Spec, sc: &Scenario, store: Arc<ResultStore>) -> Result<u64, String> {
    let cfg = PipelineConfig {
        lint: false,
        ..spec.cfg
    };
    run_pipeline_stored(
        &sc.space,
        &sc.workload,
        &sc.platform,
        spec.strategy,
        &cfg,
        &Tracer::disabled(),
        None,
        Some(store),
    )
    .map(|run| records_fingerprint(&run.result.records))
    .map_err(|e| format!("store fill failed: {e}"))
}

/// `(hits, misses, appended)` of the store, zeros without one; passes
/// report the difference across themselves.
pub fn store_counts(store: Option<&Arc<ResultStore>>) -> (u64, u64, u64) {
    store.map_or((0, 0, 0), |s| {
        let st = s.stats();
        (st.hits, st.misses, st.appended)
    })
}

/// One untraced pass.
#[derive(Debug, Clone, Copy)]
pub struct Untraced {
    /// Wall time of the `run_pipeline_stored` call.
    pub rules_s: f64,
    /// Records measured (one per implementation).
    pub records: usize,
    /// Seconds of the run report's `explore` phase.
    pub explore_s: f64,
    /// Records divided by search iterations.
    pub new_record_ratio: f64,
    /// Store hits over store lookups in this pass (0 without a store).
    pub store_hit_ratio: f64,
    /// Number of mined features.
    pub features: usize,
    /// What the pass mined.
    pub outcome: Outcome,
}

/// Times the production entry point, `dr_core::run_pipeline_stored`,
/// with the tracer and event sink disabled.
pub fn untraced_pass(
    spec: &Spec,
    sc: &Scenario,
    store: Option<Arc<ResultStore>>,
) -> Result<Untraced, String> {
    let before = store_counts(store.as_ref());
    let t0 = Instant::now();
    let run = run_pipeline_stored(
        &sc.space,
        &sc.workload,
        &sc.platform,
        spec.strategy,
        &spec.cfg,
        &Tracer::disabled(),
        None,
        store.clone(),
    )
    .map_err(|e| format!("pipeline error: {e}"))?;
    let rules_s = t0.elapsed().as_secs_f64();
    let after = store_counts(store.as_ref());
    let (hits, misses) = (after.0 - before.0, after.1 - before.1);
    let report = &run.report;
    let sim = report.sim.clone().unwrap_or_default();
    let records = run.result.records.len();
    let explore_s = report.phases.get("explore").unwrap_or(0.0);
    Ok(Untraced {
        rules_s,
        records,
        explore_s,
        new_record_ratio: records as f64 / report.search.iterations.max(1) as f64,
        store_hit_ratio: ratio(hits, hits + misses),
        features: run.result.features.features.len(),
        outcome: Outcome {
            fingerprint: records_fingerprint(&run.result.records),
            classes: run.result.labeling.num_classes,
            rulesets: run.result.rulesets.len(),
            counters: Counters {
                samples: sim.runs,
                instructions: sim.instructions,
                cart_fits: run.result.search.history.len() as u64,
                hb_expansions: report.lint.as_ref().map_or(0, |l| l.hb_expansions),
                tree_nodes: Some(report.search.tree_nodes as u64),
                appended: after.2 - before.2,
                hits,
            },
        },
    })
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
