//! Monte-Carlo tree search over traversal prefixes (paper Section III-C).
//!
//! The tree's nodes are placements; a node's ancestors form the prefix
//! `P_k` taken to reach it. Each iteration runs four phases:
//!
//! 1. **Selection** — recursively pick the child maximizing
//!    `exploration + exploitation` (see below). Selection stops at any
//!    node with an unvisited child.
//! 2. **Expansion** — materialize one zero-rollout child of the selected
//!    node.
//! 3. **Rollout** — randomly complete the prefix into a full traversal,
//!    benchmark it, and record the measurement percentiles alongside the
//!    sequence. The rollout's nodes are added to the tree to retain their
//!    performance information.
//! 4. **Backpropagation** — update `(n, t_min, t_max)` on every node along
//!    the path.
//!
//! One engine runs the search at every degree of parallelism. Iterations
//! are grouped into batches of up to `width` traversals, and
//! [`Mcts::run`] loops over three steps:
//!
//! 1. **Assembly** ([`Mcts::select_batch`]): selection, expansion and
//!    rollout run sequentially, marking every node on a chosen path with
//!    a *virtual loss*. Rollouts that regenerate an already-measured
//!    traversal backpropagate the cached time immediately; rollouts that
//!    hit a quarantined traversal retire their subtree immediately;
//!    everything else becomes a [`PendingEval`].
//! 2. **Evaluation** (the caller's closure): the pending traversals are
//!    measured, inline or in parallel — each carries its deterministic
//!    `eval_seed`, so results are identical no matter who measures them.
//! 3. **Commit** ([`Mcts::commit`]): results are folded back in batch
//!    order — records appended, statistics backpropagated, virtual losses
//!    released, failures quarantined.
//!
//! **Selection rule.** The batch width picks it. At width 1 no rollout is
//! ever pending during a descent, and the rule is the paper's UCT: the
//! exploration term `c·sqrt(ln N / n)` (fully explored subtrees are never
//! selected) plus the exploitation term, by default the *coverage ratio*
//! `V = (t_max^c − t_min^c)/(t_max^p − t_min^p)` (1 until both sides have
//! two observations). Above width 1 it is PUCT, `Q_eff + c · prior ·
//! √N_parent / (1 + n_eff)` with `n_eff = n + virtual_loss` and `Q_eff =
//! Q · n / n_eff`: virtual loss makes a pending path look
//! recently-visited-and-slow, so consecutive descents of one batch
//! diverge toward different leaves. The uniform prior `1 / |eligible|`
//! is a *slot*: a learned policy can replace it without touching the
//! search.
//!
//! **Determinism policy.** Evaluations are keyed by
//! [`eval_seed`]`(cfg.seed, traversal)` — a pure function of the
//! traversal — so although batch width changes *which* iteration
//! discovers a traversal, it never changes the traversal's measurement.
//! At exhaustion every non-quarantined traversal has been measured
//! exactly once, hence the record *set* is identical across batch widths.
//! [`Mcts::into_parts`] sorts the record *list* by
//! [`Traversal::canonical_hash`] above width 1, so it is width-invariant
//! at exhaustion too.
//!
//! For MPI programs, the paper executes the search on a single rank with
//! all ranks participating in measurements; here the "measurement" is the
//! platform simulator, which the caller's closure may run on many threads.

use crate::telemetry::{SearchTelemetry, TelemetryRow};
use dr_dag::{eval_seed, DecisionSpace, Placement, Prefix, Traversal};
use dr_obs::events::EventSink;
use dr_sim::{BenchResult, SimError};
use dr_trace::Lane;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// The exploitation term of the selection rule. The paper uses
/// [`Exploitation::CoverageRange`]; the alternatives are the baselines its
/// future work calls for ("other MCTS strategies should be considered").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Exploitation {
    /// Paper Section III-C-1: the child's observed time range as a
    /// fraction of the parent's — favors subtrees where design decisions
    /// have a large performance impact.
    #[default]
    CoverageRange,
    /// Classic minimizing UCT: `(t_max^root − mean_child) / (t_max^root −
    /// t_min^root)` — favors *fast* subtrees, the usual choice when MCTS
    /// hunts a single optimum rather than mapping the landscape.
    MeanTime,
    /// Constant 1: selection degenerates to pure UCT exploration.
    Constant,
}

/// Search hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MctsConfig {
    /// Exploration constant `c` (paper: √2).
    pub exploration_c: f64,
    /// Exploitation signal (paper: coverage range).
    pub exploitation: Exploitation,
    /// Seed for rollout randomness and per-evaluation noise seeds.
    pub seed: u64,
    /// Evaluator errors tolerated before the search aborts. Each failing
    /// traversal is quarantined (its subtree is marked fully explored, no
    /// record is added, no statistics are backpropagated) and the search
    /// continues; once more than `max_failures` distinct traversals have
    /// failed, the next error propagates. `0` (the default) keeps the
    /// pre-chaos fail-fast behavior.
    pub max_failures: usize,
}

impl Default for MctsConfig {
    fn default() -> Self {
        MctsConfig {
            exploration_c: std::f64::consts::SQRT_2,
            exploitation: Exploitation::default(),
            seed: 0,
            max_failures: 0,
        }
    }
}

/// Aggregate statistics of an MCTS search tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeStats {
    /// Materialized tree nodes.
    pub nodes: usize,
    /// Deepest materialized node (root = 0).
    pub max_depth: usize,
    /// Nodes whose subtrees are fully benchmarked.
    pub fully_explored: usize,
    /// Total rollouts backpropagated through the root.
    pub rollouts: u64,
    /// Fastest time observed anywhere.
    pub t_min: f64,
    /// Slowest time observed anywhere.
    pub t_max: f64,
}

/// Statistics of one materialized tree node, exported by
/// [`Mcts::snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct NodeStat {
    /// Depth below the root (root = 0).
    pub depth: usize,
    /// The placement on the incoming edge (`None` for the root).
    pub action: Option<Placement>,
    /// Rollouts backpropagated through this node.
    pub visits: u64,
    /// Fastest simulated time observed in this node's subtree.
    pub t_min: f64,
    /// Slowest simulated time observed in this node's subtree.
    pub t_max: f64,
    /// Mean simulated time over the node's rollouts (NaN when
    /// unvisited).
    pub t_mean: f64,
    /// Materialized children.
    pub children: usize,
    /// Whether the subtree is fully benchmarked.
    pub fully_explored: bool,
}

/// One principal variation: a root-to-leaf path following the
/// most-visited materialized child at every level.
#[derive(Debug, Clone, PartialEq)]
pub struct PrincipalVariation {
    /// The placements along the path, root first.
    pub steps: Vec<Placement>,
    /// Visit count of the opening placement (the ranking key).
    pub visits: u64,
    /// Fastest time observed at the path's end.
    pub t_min: f64,
    /// Mean time over the opening placement's rollouts.
    pub t_mean: f64,
}

/// A full introspection snapshot of the search tree, exported by
/// [`Mcts::snapshot`] for the `explain` command.
#[derive(Debug, Clone)]
pub struct TreeSnapshot {
    /// Aggregate tree statistics (same as [`Mcts::stats`]).
    pub stats: TreeStats,
    /// Whether every traversal in the space has been benchmarked.
    pub exhausted: bool,
    /// Iterations executed so far.
    pub iterations: u64,
    /// Distinct traversals quarantined after evaluator errors.
    pub failures: usize,
    /// Materialized node count per depth (index = depth; `[0]` is 1).
    pub depth_profile: Vec<usize>,
    /// The most-visited nodes, visit-count descending (capped by the
    /// `max_nodes` argument).
    pub nodes: Vec<NodeStat>,
    /// Top-k principal variations, opening-visits descending.
    pub principal_variations: Vec<PrincipalVariation>,
}

/// One explored implementation: the traversal and its measurements.
#[derive(Debug, Clone)]
pub struct ExploredRecord {
    /// The complete traversal.
    pub traversal: Traversal,
    /// The measurement record (percentiles over measurements).
    pub result: BenchResult,
}

/// A static prefix filter installed via [`Mcts::set_prune`]: return
/// `true` when *every* completion of the prefix is provably worthless
/// (e.g. statically deadlocked), and the search retires the subtree
/// without spending a single evaluation in it. The hook owns its data
/// (`'static`) and is `Send + Sync`, so one closure serves every search.
pub type PruneHook = std::sync::Arc<dyn Fn(&Prefix) -> bool + Send + Sync>;

type NodeId = usize;

/// One tree node, linked to its children by index.
struct Node {
    children: Vec<(Placement, NodeId)>,
    /// Number of eligible placements at this node's prefix.
    num_actions: usize,
    /// Children whose subtrees are fully explored.
    fully_explored_children: usize,
    fully_explored: bool,
    /// Whether this node's fully-explored state has been counted in its
    /// parent's `fully_explored_children` (each child counts once).
    counted_in_parent: bool,
    n: u64,
    /// Outstanding virtual losses: rollouts through this node that have
    /// been selected but not yet committed (or cleared).
    vl: u32,
    t_min: f64,
    t_max: f64,
    t_sum: f64,
}

impl Node {
    // A leaf is NOT born fully explored: it stays *pending* until its
    // batch commits — were it marked explored at birth, a descent arriving
    // while it is pending would find no selectable child. Leaves flip to
    // fully explored at resolution time (commit or inline resolution).
    fn fresh(num_actions: usize) -> Self {
        Node {
            children: Vec::new(),
            num_actions,
            fully_explored_children: 0,
            fully_explored: false,
            counted_in_parent: false,
            n: 0,
            vl: 0,
            t_min: f64::INFINITY,
            t_max: f64::NEG_INFINITY,
            t_sum: 0.0,
        }
    }

    fn child(&self, p: Placement) -> Option<NodeId> {
        self.children
            .iter()
            .find(|&&(q, _)| q == p)
            .map(|&(_, id)| id)
    }

    /// Mean time over the node's rollouts (NaN when unvisited).
    fn t_mean(&self) -> f64 {
        if self.n > 0 {
            self.t_sum / self.n as f64
        } else {
            f64::NAN
        }
    }
}

/// The tree's nodes, stored in fixed-size chunks so the tree grows
/// without ever moving a node. One contiguous vector would double into a
/// multi-MiB block, and whether the allocator can reuse such a block's
/// freed space in the next search makes peak memory vary between runs by
/// the size of the whole tree; chunks of equal, moderate size are reused
/// exactly.
struct Nodes {
    chunks: Vec<Vec<Node>>,
    len: usize,
}

impl Nodes {
    /// Nodes per chunk (80 KiB of nodes).
    const CHUNK: usize = 1 << 10;

    fn new(root: Node) -> Self {
        let mut nodes = Nodes {
            chunks: Vec::new(),
            len: 0,
        };
        nodes.push(root);
        nodes
    }

    fn len(&self) -> usize {
        self.len
    }

    fn push(&mut self, node: Node) {
        if self.len.is_multiple_of(Self::CHUNK) {
            self.chunks.push(Vec::with_capacity(Self::CHUNK));
        }
        self.chunks[self.len / Self::CHUNK].push(node);
        self.len += 1;
    }

    fn iter(&self) -> impl Iterator<Item = &Node> {
        self.chunks.iter().flatten()
    }
}

impl std::ops::Index<NodeId> for Nodes {
    type Output = Node;

    fn index(&self, id: NodeId) -> &Node {
        &self.chunks[id / Self::CHUNK][id % Self::CHUNK]
    }
}

impl std::ops::IndexMut<NodeId> for Nodes {
    fn index_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.chunks[id / Self::CHUNK][id % Self::CHUNK]
    }
}

/// Bookkeeping of one rollout that produced (or regenerated) a pending
/// traversal.
#[derive(Debug, Clone, Copy)]
struct RolloutMeta {
    iteration: u64,
    rollout_len: usize,
}

/// One traversal awaiting evaluation. The evaluation closure of
/// [`Mcts::run`] measures [`PendingEval::traversal`] with
/// [`PendingEval::eval_seed`] and returns the result at the same batch
/// position.
#[derive(Debug, Clone)]
pub struct PendingEval {
    /// The complete traversal to measure.
    pub traversal: Traversal,
    /// Deterministic evaluation seed (`eval_seed(cfg.seed, traversal)`).
    pub eval_seed: u64,
    hash: u64,
    /// The unique root-to-leaf node path of this traversal (children are
    /// keyed by placement, so equal traversals share one path).
    path: Vec<NodeId>,
    /// One entry per rollout that landed on this traversal within the
    /// batch (duplicates share the evaluation but each counts as an
    /// iteration and backpropagates once).
    rollouts: Vec<RolloutMeta>,
}

/// The output of one assembly pass.
#[derive(Debug, Default)]
struct Batch {
    /// Distinct traversals awaiting evaluation, in selection order.
    pending: Vec<PendingEval>,
    /// Total iterations this assembly consumed: those resolved inline
    /// plus one per rollout behind every pending entry.
    iterations: usize,
}

/// The Monte-Carlo tree search state. One instance is owned by the
/// coordinating thread; evaluators only ever see [`PendingEval`]s.
pub struct Mcts<'a> {
    space: &'a DecisionSpace,
    cfg: MctsConfig,
    nodes: Nodes,
    /// Batch width of the latest assembly (1 before the first); picks
    /// the selection rule and the order [`Mcts::into_parts`] reports.
    width: usize,
    records: Vec<ExploredRecord>,
    /// Canonical-hash index into `records` (values are candidate record
    /// indices; equality is re-checked, so a hash collision costs a probe
    /// and never a misattributed measurement). Keyed by hash rather than
    /// by owned `Traversal` so recording a rollout moves the traversal
    /// into its record instead of cloning it.
    seen: HashMap<u64, Vec<usize>>,
    /// Canonical-hash index of quarantined traversals (same
    /// collision-tolerant layout as `seen`): re-rolling a known-failed
    /// traversal is skipped without re-evaluating it or consuming
    /// another failure credit.
    failed: HashMap<u64, Vec<Traversal>>,
    failures: usize,
    rng: SmallRng,
    iterations: u64,
    /// Rollouts that regenerated an already-measured traversal (seen-map
    /// hits plus in-batch duplicates).
    repeats: u64,
    telemetry: SearchTelemetry,
    /// Deepest materialized node, maintained incrementally so telemetry
    /// rows avoid the full-tree walk [`Mcts::stats`] performs.
    max_depth: usize,
    /// Sampled per-iteration tracing: `(lane, every)` set by
    /// [`Mcts::set_trace`]. `None` (the default) costs nothing.
    trace: Option<(Lane, usize)>,
    /// Sampled per-iteration event emission: `(sink, every)` set by
    /// [`Mcts::set_events`]. `None` (the default) costs nothing.
    events: Option<(EventSink, usize)>,
    /// Static prefix filter set by [`Mcts::set_prune`]. `None` (the
    /// default) costs nothing.
    prune: Option<PruneHook>,
    /// Subtrees retired by the prune hook.
    pruned: u64,
}

impl<'a> Mcts<'a> {
    /// Creates a search over `space`.
    pub fn new(space: &'a DecisionSpace, cfg: MctsConfig) -> Self {
        let root_actions = space.eligible(&space.empty_prefix()).len();
        Mcts {
            space,
            cfg,
            nodes: Nodes::new(Node::fresh(root_actions)),
            width: 1,
            records: Vec::new(),
            seen: HashMap::new(),
            failed: HashMap::new(),
            failures: 0,
            rng: SmallRng::seed_from_u64(cfg.seed),
            iterations: 0,
            repeats: 0,
            telemetry: SearchTelemetry::new(),
            max_depth: 0,
            trace: None,
            events: None,
            prune: None,
            pruned: 0,
        }
    }

    /// Enables sampled iteration tracing: every `every`-th iteration
    /// (starting with the first) records a zero-length `mcts-iter` marker
    /// span on `lane` when it resolves, annotated with the iteration
    /// number, unique-traversal count, tree size, and the iteration's
    /// outcome. Pending iterations resolve at commit, so markers can
    /// appear out of iteration order within a batch. `every` is clamped
    /// to at least 1.
    pub fn set_trace(&mut self, lane: Lane, every: usize) {
        self.trace = Some((lane, every.max(1)));
    }

    /// Enables sampled iteration event emission (`mcts-iter` events on
    /// `sink`): the same sampling schedule as [`Mcts::set_trace`] —
    /// iterations 1, 1+`every`, 1+2·`every`, … — carrying the iteration
    /// number, unique-traversal count, tree size/depth, best time, and
    /// the iteration's outcome. Emission only reads search state, so it
    /// cannot perturb the search.
    pub fn set_events(&mut self, sink: EventSink, every: usize) {
        self.events = Some((sink, every.max(1)));
    }

    /// Installs a static prune hook: when expansion materializes a new
    /// child whose prefix the hook rejects, the child's subtree is
    /// immediately marked fully explored — no rollout, no evaluation —
    /// and the iteration resolves without an evaluation. The hook must
    /// only reject prefixes whose *every* completion is worthless
    /// (soundness is the caller's obligation; see `dr-lint`'s
    /// `PrefixDeadlockOracle`).
    pub fn set_prune(&mut self, hook: PruneHook) {
        self.prune = Some(hook);
    }

    /// Subtrees retired by the prune hook so far.
    pub fn pruned(&self) -> u64 {
        self.pruned
    }

    /// All explored implementations, in commit order.
    pub fn records(&self) -> &[ExploredRecord] {
        &self.records
    }

    /// Consumes the search and returns the explored records, ordered as
    /// [`Mcts::into_parts`] orders them.
    pub fn into_records(self) -> Vec<ExploredRecord> {
        self.into_parts().0
    }

    /// Consumes the search, returning records and telemetry. At batch
    /// width 1 commit order is iteration order, and both come back as
    /// committed. Above width 1 commit order depends on batch assembly:
    /// records are sorted by [`Traversal::canonical_hash`] (so the list is
    /// width-invariant at exhaustion) and telemetry rows are renumbered
    /// 1.. in commit order.
    pub fn into_parts(self) -> (Vec<ExploredRecord>, SearchTelemetry) {
        let (mut records, mut telemetry) = (self.records, self.telemetry);
        if self.width > 1 {
            records.sort_by_key(|r| r.traversal.canonical_hash());
            let mut renumbered = SearchTelemetry::new();
            for (i, row) in telemetry.rows().iter().enumerate() {
                renumbered.push(TelemetryRow {
                    iteration: i as u64 + 1,
                    ..*row
                });
            }
            telemetry = renumbered;
        }
        (records, telemetry)
    }

    /// Per-iteration telemetry rows (one per explored rollout; pending
    /// rollouts append at commit, so rows can be out of iteration order
    /// within a batch).
    pub fn telemetry(&self) -> &SearchTelemetry {
        &self.telemetry
    }

    /// True when every traversal of the space has been benchmarked or
    /// quarantined.
    pub fn is_exhausted(&self) -> bool {
        self.nodes[0].fully_explored
    }

    /// Number of rollouts executed so far.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Distinct traversals quarantined after evaluator errors (bounded
    /// by [`MctsConfig::max_failures`]).
    pub fn failures(&self) -> usize {
        self.failures
    }

    /// Rollouts that regenerated an already-measured traversal.
    pub fn repeats(&self) -> u64 {
        self.repeats
    }

    /// Number of tree nodes materialized.
    pub fn tree_size(&self) -> usize {
        self.nodes.len()
    }

    /// Runs up to `iterations` search iterations in batches of up to
    /// `width` traversals, stopping early if the space is exhausted.
    /// `evaluate` measures each batch's pending traversals and returns
    /// one result per entry, in order — inline, or spread over threads.
    /// An evaluation error beyond [`MctsConfig::max_failures`] ends the
    /// search and propagates.
    pub fn run<F>(
        &mut self,
        iterations: usize,
        width: usize,
        mut evaluate: F,
    ) -> Result<(), SimError>
    where
        F: FnMut(&[PendingEval]) -> Vec<Result<BenchResult, SimError>>,
    {
        let mut remaining = iterations as u64;
        while remaining > 0 && !self.is_exhausted() {
            let batch = self.select_batch(width, remaining);
            remaining -= batch.iterations as u64;
            let results = evaluate(&batch.pending);
            self.commit(batch, results)?;
        }
        Ok(())
    }

    /// Assembles up to `width` distinct traversals for evaluation,
    /// consuming at most `budget` iterations (at least one unless the
    /// space is exhausted or `budget` is 0). Rollouts that need no
    /// evaluation (cached repeats, quarantined regenerations, pruned
    /// descents) are resolved inline.
    ///
    /// Every node on a pending path carries one virtual loss per rollout
    /// until [`Mcts::commit`] releases it, so a batch must be committed
    /// (even an all-failure one) before the next is assembled.
    ///
    /// Assembly consumes at most `4·width` iterations per call even when
    /// `budget` allows more: near exhaustion every descent funnels into
    /// the few remaining pending paths (virtual loss can only steer
    /// *around* explored subtrees, not conjure unexplored ones), and the
    /// cap bounds that duplicate spinning instead of looping until the
    /// batch fills.
    fn select_batch(&mut self, width: usize, budget: u64) -> Batch {
        self.width = width.max(1);
        let cap = budget.min(4 * self.width as u64);
        let mut batch = Batch::default();
        while batch.pending.len() < self.width
            && (batch.iterations as u64) < cap
            && !self.is_exhausted()
        {
            self.iterations += 1;
            batch.iterations += 1;
            let iteration = self.iterations;
            let Some((path, traversal, rollout_len)) = self.descend() else {
                // Pruned descent: the subtree is retired; account for the
                // iteration and move on without an evaluation slot.
                self.observe(iteration, "pruned");
                continue;
            };
            self.max_depth = self.max_depth.max(path.len() - 1);
            let hash = traversal.canonical_hash();

            // Known-failed traversal: retire its subtree immediately (no
            // record, no stats, no further failure credit).
            if self
                .failed
                .get(&hash)
                .into_iter()
                .flatten()
                .any(|t| *t == traversal)
            {
                self.release_virtual_loss(&path, 1);
                self.mark_fully_explored(&path);
                self.observe(iteration, "quarantined");
                continue;
            }

            // Already-measured traversal: backpropagate the cached time
            // now — no evaluation slot needed.
            let found = self
                .seen
                .get(&hash)
                .into_iter()
                .flatten()
                .copied()
                .find(|&idx| self.records[idx].traversal == traversal);
            if let Some(idx) = found {
                let t = self.records[idx].result.time();
                self.release_virtual_loss(&path, 1);
                self.backprop(&path, t, 1);
                self.mark_fully_explored(&path);
                self.repeats += 1;
                self.push_row(iteration, rollout_len);
                self.observe(iteration, "repeat");
                continue;
            }

            // In-batch duplicate: share the pending evaluation. Equal
            // traversals descend the same child edges, so the node path
            // is identical — the extra rollout just deepens the virtual
            // loss and adds one backpropagation at commit.
            if let Some(pe) = batch
                .pending
                .iter_mut()
                .find(|pe| pe.hash == hash && pe.traversal == traversal)
            {
                pe.rollouts.push(RolloutMeta {
                    iteration,
                    rollout_len,
                });
                continue;
            }

            batch.pending.push(PendingEval {
                eval_seed: eval_seed(self.cfg.seed, &traversal),
                traversal,
                hash,
                path,
                rollouts: vec![RolloutMeta {
                    iteration,
                    rollout_len,
                }],
            });
        }
        batch
    }

    /// Folds evaluation `results` (one per [`Batch::pending`] entry, same
    /// order) back into the tree: records appended in batch order,
    /// statistics backpropagated once per rollout, virtual losses
    /// released, failures quarantined under [`MctsConfig::max_failures`].
    /// An error beyond the failure budget propagates immediately (the
    /// search is then poisoned: fail-fast).
    fn commit(
        &mut self,
        batch: Batch,
        results: Vec<Result<BenchResult, SimError>>,
    ) -> Result<(), SimError> {
        assert_eq!(
            results.len(),
            batch.pending.len(),
            "one result per pending evaluation"
        );
        for (pe, res) in batch.pending.into_iter().zip(results) {
            let count = pe.rollouts.len();
            self.release_virtual_loss(&pe.path, count as u32);
            match res {
                Ok(result) => {
                    let t = result.time();
                    let idx = self.records.len();
                    self.records.push(ExploredRecord {
                        traversal: pe.traversal,
                        result,
                    });
                    self.seen.entry(pe.hash).or_default().push(idx);
                    self.backprop(&pe.path, t, count);
                    self.mark_fully_explored(&pe.path);
                    self.repeats += count as u64 - 1;
                    for (i, meta) in pe.rollouts.iter().enumerate() {
                        self.push_row(meta.iteration, meta.rollout_len);
                        self.observe(meta.iteration, if i == 0 { "new" } else { "repeat" });
                    }
                }
                Err(e) => {
                    if self.failures >= self.cfg.max_failures {
                        return Err(e);
                    }
                    self.failures += 1;
                    self.failed.entry(pe.hash).or_default().push(pe.traversal);
                    // Retiring the poisoned leaf and propagating up keeps
                    // exhaustion accounting converging.
                    self.mark_fully_explored(&pe.path);
                    for meta in &pe.rollouts {
                        self.observe(meta.iteration, "quarantined");
                    }
                }
            }
        }
        Ok(())
    }

    /// Aggregate statistics of the search tree.
    pub fn stats(&self) -> TreeStats {
        let mut max_depth = 0usize;
        let mut fully_explored = 0usize;
        let mut stack = vec![(0usize, 0usize)];
        while let Some((id, depth)) = stack.pop() {
            max_depth = max_depth.max(depth);
            if self.nodes[id].fully_explored {
                fully_explored += 1;
            }
            for &(_, c) in &self.nodes[id].children {
                stack.push((c, depth + 1));
            }
        }
        let root = &self.nodes[0];
        TreeStats {
            nodes: self.nodes.len(),
            max_depth,
            fully_explored,
            rollouts: root.n,
            t_min: root.t_min,
            t_max: root.t_max,
        }
    }

    /// Exports an introspection snapshot of the search tree: aggregate
    /// statistics, the per-depth node profile, the `max_nodes`
    /// most-visited nodes, and the top-`top_k` principal variations.
    ///
    /// A principal variation starts at one of the root's children
    /// (ranked by visit count, descending) and follows the most-visited
    /// materialized child at every level — the search's preferred
    /// completion of that opening decision. Ties break toward the
    /// earlier-materialized child, so the export is deterministic.
    pub fn snapshot(&self, top_k: usize, max_nodes: usize) -> TreeSnapshot {
        // One BFS walk computes depths for stats, profile, and export.
        let mut depth_of = vec![0usize; self.nodes.len()];
        let mut depth_profile: Vec<usize> = Vec::new();
        let mut queue = std::collections::VecDeque::from([0usize]);
        let mut order: Vec<NodeId> = Vec::new();
        while let Some(id) = queue.pop_front() {
            order.push(id);
            let d = depth_of[id];
            if depth_profile.len() <= d {
                depth_profile.resize(d + 1, 0);
            }
            depth_profile[d] += 1;
            for &(_, c) in &self.nodes[id].children {
                depth_of[c] = d + 1;
                queue.push_back(c);
            }
        }

        let action_of = |id: NodeId| -> Option<Placement> {
            // Parent links are not stored; recover the incoming edge by
            // scanning (snapshotting is a once-per-run export, so the
            // quadratic scan is confined to the exported node set).
            self.nodes
                .iter()
                .find_map(|n| n.children.iter().find(|&&(_, c)| c == id).map(|&(p, _)| p))
        };
        let mut ranked: Vec<NodeId> = order;
        ranked.sort_by(|&a, &b| {
            self.nodes[b]
                .n
                .cmp(&self.nodes[a].n)
                .then(depth_of[a].cmp(&depth_of[b]))
                .then(a.cmp(&b))
        });
        let nodes: Vec<NodeStat> = ranked
            .into_iter()
            .take(max_nodes)
            .map(|id| {
                let n = &self.nodes[id];
                NodeStat {
                    depth: depth_of[id],
                    action: if id == 0 { None } else { action_of(id) },
                    visits: n.n,
                    t_min: n.t_min,
                    t_max: n.t_max,
                    t_mean: n.t_mean(),
                    children: n.children.len(),
                    fully_explored: n.fully_explored,
                }
            })
            .collect();

        // Principal variations: top-k root children by visits, each
        // greedily completed along most-visited children.
        let mut openings: Vec<(Placement, NodeId)> = self.nodes[0].children.clone();
        openings.sort_by(|&(_, a), &(_, b)| self.nodes[b].n.cmp(&self.nodes[a].n).then(a.cmp(&b)));
        let principal_variations: Vec<PrincipalVariation> = openings
            .into_iter()
            .take(top_k)
            .filter(|&(_, id)| self.nodes[id].n > 0)
            .map(|(p, id)| {
                let mut steps = vec![p];
                let mut node = id;
                loop {
                    let next = self.nodes[node]
                        .children
                        .iter()
                        .filter(|&&(_, c)| self.nodes[c].n > 0)
                        .max_by(|&&(_, a), &&(_, b)| {
                            self.nodes[a].n.cmp(&self.nodes[b].n).then(b.cmp(&a))
                        })
                        .copied();
                    match next {
                        Some((q, c)) => {
                            steps.push(q);
                            node = c;
                        }
                        None => break,
                    }
                }
                PrincipalVariation {
                    visits: self.nodes[id].n,
                    t_min: self.nodes[node].t_min,
                    t_mean: self.nodes[id].t_mean(),
                    steps,
                }
            })
            .collect();

        TreeSnapshot {
            stats: self.stats(),
            exhausted: self.is_exhausted(),
            iterations: self.iterations,
            failures: self.failures,
            depth_profile,
            nodes,
            principal_variations,
        }
    }

    /// One selection → expansion → rollout descent; applies one virtual
    /// loss to every node on the returned path. Returns `None` when the
    /// prune hook rejected the freshly-expanded prefix: the subtree is
    /// already retired and no virtual loss was applied.
    fn descend(&mut self) -> Option<(Vec<NodeId>, Traversal, usize)> {
        let mut prefix = self.space.empty_prefix();
        let mut path = vec![0];
        let mut node = 0;

        // Selection: descend while every eligible child exists, has a
        // visit or a pending rollout, and at least one is selectable.
        // Quarantined subtrees are fully explored with zero visits; they
        // don't count as unvisited (nothing left to measure), and a child
        // under virtual loss doesn't either — that is what steers the
        // descents of one batch apart.
        loop {
            let elig = self.space.eligible(&prefix);
            if elig.is_empty() {
                break; // complete traversal
            }
            if elig.iter().any(|&p| self.unvisited(node, p)) {
                break;
            }
            // A node on the selection path is never fully explored, so at
            // least one selectable child exists.
            let best = self
                .select_child(node, &elig)
                .expect("non-fully-explored node has a selectable child");
            let child = self.nodes[node].child(best).expect("selected child exists");
            self.space.apply(&mut prefix, best);
            path.push(child);
            node = child;
        }

        // Expansion: materialize (or claim) one untouched child.
        let elig = self.space.eligible(&prefix);
        if !elig.is_empty() {
            let candidates: Vec<Placement> = elig
                .iter()
                .copied()
                .filter(|&p| self.unvisited(node, p))
                .collect();
            let pick = candidates[self.rng.gen_range(0..candidates.len())];
            let child = self.get_or_create_child(node, pick, &mut prefix);
            path.push(child);
            node = child;
            // Static prune: a rejected prefix dooms every completion;
            // retire the subtree before the rollout and before any
            // virtual loss is applied.
            if let Some(hook) = &self.prune {
                if hook(&prefix) {
                    self.mark_fully_explored(&path);
                    self.pruned += 1;
                    return None;
                }
            }
        }

        // Rollout: randomly complete the prefix, materializing nodes.
        let mut rollout_len = 0usize;
        while prefix.len() < self.space.num_ops() {
            let elig = self.space.eligible(&prefix);
            let pick = elig[self.rng.gen_range(0..elig.len())];
            let child = self.get_or_create_child(node, pick, &mut prefix);
            path.push(child);
            node = child;
            rollout_len += 1;
        }

        for &id in &path {
            self.nodes[id].vl += 1;
        }
        let traversal = Traversal {
            steps: prefix.steps().to_vec(),
        };
        Some((path, traversal, rollout_len))
    }

    /// Whether `parent`'s child for `p` is untouched: not materialized,
    /// or materialized with no visit, no pending rollout, and not fully
    /// explored.
    fn unvisited(&self, parent: NodeId, p: Placement) -> bool {
        self.nodes[parent].child(p).is_none_or(|c| {
            let ch = &self.nodes[c];
            ch.n == 0 && ch.vl == 0 && !ch.fully_explored
        })
    }

    /// The selection rule over materialized children, chosen by the batch
    /// width (see the module docs): UCT at width 1, PUCT with virtual
    /// loss above. Fully explored children are never selected; ties go
    /// to the earlier eligible placement.
    fn select_child(&self, parent: NodeId, elig: &[Placement]) -> Option<Placement> {
        let pn = &self.nodes[parent];
        let parent_range = pn.t_max - pn.t_min;
        let prior = 1.0 / elig.len() as f64;
        let sqrt_parent = ((pn.n + pn.vl as u64) as f64).sqrt();
        let mut best: Option<(f64, Placement)> = None;
        for &p in elig {
            let c = pn
                .child(p)
                .expect("selection only runs with all children materialized");
            let ch = &self.nodes[c];
            if ch.fully_explored {
                continue;
            }
            let q = match self.cfg.exploitation {
                Exploitation::CoverageRange => {
                    if ch.n >= 2 && pn.n >= 2 && parent_range > 0.0 {
                        ((ch.t_max - ch.t_min) / parent_range).clamp(0.0, 1.0)
                    } else {
                        1.0
                    }
                }
                Exploitation::MeanTime => {
                    let root = &self.nodes[0];
                    let root_range = root.t_max - root.t_min;
                    if ch.n >= 1 && root_range > 0.0 {
                        ((root.t_max - ch.t_mean()) / root_range).clamp(0.0, 1.0)
                    } else {
                        1.0
                    }
                }
                Exploitation::Constant => 1.0,
            };
            let value = if self.width == 1 {
                self.cfg.exploration_c * ((pn.n as f64).ln() / ch.n as f64).sqrt() + q
            } else {
                // Virtual-loss discount: a node whose visits are all
                // pending contributes no exploitation value until results
                // commit.
                let n_eff = ch.n + ch.vl as u64;
                let q_eff = if n_eff > 0 {
                    q * (ch.n as f64 / n_eff as f64)
                } else {
                    q
                };
                q_eff + self.cfg.exploration_c * prior * sqrt_parent / (1.0 + n_eff as f64)
            };
            if best.is_none_or(|(bv, _)| value > bv) {
                best = Some((value, p));
            }
        }
        best.map(|(_, p)| p)
    }

    fn get_or_create_child(&mut self, parent: NodeId, p: Placement, prefix: &mut Prefix) -> NodeId {
        self.space.apply(prefix, p);
        if let Some(c) = self.nodes[parent].child(p) {
            return c;
        }
        let num_actions = self.space.eligible(prefix).len();
        let id = self.nodes.len();
        self.nodes.push(Node::fresh(num_actions));
        self.nodes[parent].children.push((p, id));
        id
    }

    fn release_virtual_loss(&mut self, path: &[NodeId], count: u32) {
        for &id in path {
            self.nodes[id].vl -= count;
        }
    }

    /// Backpropagates `count` rollouts of time `t` along `path`.
    fn backprop(&mut self, path: &[NodeId], t: f64, count: usize) {
        for &id in path {
            let n = &mut self.nodes[id];
            n.n += count as u64;
            n.t_min = n.t_min.min(t);
            n.t_max = n.t_max.max(t);
            n.t_sum += t * count as f64;
        }
    }

    /// Bottom-up fully-explored propagation along a root-to-leaf path at
    /// resolution time: the path's last node is retired (see
    /// [`Node::fresh`] for why leaves are not retired at creation), and a
    /// node is fully explored once all `num_actions` children exist and
    /// are fully explored.
    fn mark_fully_explored(&mut self, path: &[NodeId]) {
        if let Some(&leaf) = path.last() {
            self.nodes[leaf].fully_explored = true;
        }
        for i in (1..path.len()).rev() {
            let child = path[i];
            let parent = path[i - 1];
            if self.nodes[child].fully_explored && !self.nodes[child].counted_in_parent {
                self.nodes[child].counted_in_parent = true;
                self.nodes[parent].fully_explored_children += 1;
            }
            let p = &self.nodes[parent];
            if !p.fully_explored
                && p.children.len() == p.num_actions
                && p.fully_explored_children == p.num_actions
            {
                self.nodes[parent].fully_explored = true;
            }
        }
    }

    fn push_row(&mut self, iteration: u64, rollout_len: usize) {
        let root = &self.nodes[0];
        let row = TelemetryRow {
            iteration,
            unique_traversals: self.records.len(),
            best_time: root.t_min,
            worst_time: root.t_max,
            tree_nodes: self.nodes.len(),
            max_depth: self.max_depth,
            rollout_len,
        };
        self.telemetry.push(row);
    }

    /// Sampled trace/event emission for one resolved rollout (iterations
    /// 1, 1+every, …).
    fn observe(&mut self, iteration: u64, outcome: &str) {
        let unique = self.records.len();
        let tree_nodes = self.nodes.len();
        let max_depth = self.max_depth;
        let best_s = self.nodes[0].t_min;
        if let Some((lane, every)) = &mut self.trace {
            if (iteration - 1).is_multiple_of(*every as u64) {
                lane.enter("mcts-iter");
                lane.annotate("iteration", iteration);
                lane.annotate("unique", unique);
                lane.annotate("tree_nodes", tree_nodes);
                lane.annotate("outcome", outcome);
                lane.exit();
            }
        }
        if let Some((sink, every)) = &self.events {
            if sink.is_enabled() && (iteration - 1).is_multiple_of(*every as u64) {
                sink.emit(
                    "mcts-iter",
                    &[
                        ("iteration", iteration.into()),
                        ("unique", unique.into()),
                        ("tree_nodes", tree_nodes.into()),
                        ("max_depth", max_depth.into()),
                        ("best_s", best_s.into()),
                        ("outcome", outcome.into()),
                    ],
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{Evaluator, SimEvaluator};
    use dr_dag::{CostKey, DagBuilder, OpSpec};
    use dr_obs::events::SharedBuf;
    use dr_obs::json;
    use dr_sim::{BenchConfig, Percentiles, Platform, TableWorkload};

    fn small_space() -> DecisionSpace {
        let mut b = DagBuilder::new();
        let a = b.add("a", OpSpec::GpuKernel(CostKey::new("a")));
        let g = b.add("b", OpSpec::GpuKernel(CostKey::new("b")));
        let c = b.add("c", OpSpec::CpuWork(CostKey::new("c")));
        b.edge(a, c);
        b.edge(g, c);
        DecisionSpace::new(b.build().unwrap(), 2).unwrap()
    }

    fn small_workload() -> TableWorkload {
        let mut w = TableWorkload::new(1);
        w.cost_all("a", 1e-4)
            .cost_all("b", 2e-4)
            .cost_all("c", 5e-5);
        w
    }

    fn sim_eval<'a>(
        space: &'a DecisionSpace,
        w: &'a TableWorkload,
        platform: &'a Platform,
    ) -> SimEvaluator<'a, TableWorkload> {
        SimEvaluator::new(space, w, platform, BenchConfig::quick())
    }

    fn fake_result(t: f64) -> BenchResult {
        BenchResult {
            measurements: vec![t],
            percentiles: Percentiles {
                p01: t,
                p10: t,
                p50: t,
                p90: t,
                p99: t,
            },
        }
    }

    /// A pure-function evaluator: time derived from the traversal alone.
    fn hash_time(t: &Traversal) -> f64 {
        1e-4 + (t.canonical_hash() % 1009) as f64 * 1e-7
    }

    /// Runs up to `iterations` iterations at batch width `width`,
    /// measuring each batch inline with `eval`.
    fn run<E: Evaluator>(
        mcts: &mut Mcts,
        iterations: usize,
        width: usize,
        eval: &mut E,
    ) -> Result<(), SimError> {
        mcts.run(iterations, width, |batch| eval.evaluate_batch(batch))
    }

    fn record_set(records: &[ExploredRecord]) -> Vec<(u64, u64)> {
        let mut set: Vec<(u64, u64)> = records
            .iter()
            .map(|r| (r.traversal.canonical_hash(), r.result.time().to_bits()))
            .collect();
        set.sort_unstable();
        set
    }

    #[test]
    fn node_ids_address_the_right_node_across_chunks() {
        let count = Nodes::CHUNK * 2 + 3;
        let mut nodes = Nodes::new(Node::fresh(0));
        for i in 1..count {
            nodes.push(Node::fresh(i));
        }
        assert_eq!(nodes.len(), count);
        assert_eq!(nodes.chunks.len(), 3);
        for id in [
            0,
            Nodes::CHUNK - 1,
            Nodes::CHUNK,
            2 * Nodes::CHUNK,
            count - 1,
        ] {
            assert_eq!(nodes[id].num_actions, id);
        }
        nodes[Nodes::CHUNK].n = 7;
        assert_eq!(nodes.iter().nth(Nodes::CHUNK).unwrap().n, 7);
        assert!(nodes.iter().map(|n| n.num_actions).eq(0..count));
    }

    #[test]
    fn search_exhausts_a_small_space_and_finds_all_traversals() {
        let space = small_space();
        let total = space.count_traversals() as usize;
        let w = small_workload();
        let platform = Platform::perlmutter_like().noiseless();
        let mut eval = sim_eval(&space, &w, &platform);
        let mut mcts = Mcts::new(&space, MctsConfig::default());
        run(&mut mcts, 10_000, 1, &mut eval).unwrap();
        assert!(mcts.is_exhausted());
        assert_eq!(mcts.records().len(), total, "all traversals discovered");
        // Exhausted searches are no-ops.
        let iterations = mcts.iterations();
        run(&mut mcts, 10, 1, &mut eval).unwrap();
        assert_eq!(mcts.iterations(), iterations);
        assert!(mcts.select_batch(1, 10).pending.is_empty());
    }

    #[test]
    fn records_are_unique_traversals() {
        let space = small_space();
        let w = small_workload();
        let platform = Platform::perlmutter_like().noiseless();
        let mut mcts = Mcts::new(
            &space,
            MctsConfig {
                seed: 3,
                ..Default::default()
            },
        );
        run(&mut mcts, 50, 1, &mut sim_eval(&space, &w, &platform)).unwrap();
        let set: std::collections::HashSet<_> =
            mcts.records().iter().map(|r| &r.traversal).collect();
        assert_eq!(set.len(), mcts.records().len());
        for r in mcts.records() {
            space.validate(&r.traversal).unwrap();
        }
    }

    #[test]
    fn search_is_seed_deterministic() {
        let space = small_space();
        let w = small_workload();
        let platform = Platform::perlmutter_like();
        let run_seed = |seed| {
            let mut mcts = Mcts::new(
                &space,
                MctsConfig {
                    seed,
                    ..Default::default()
                },
            );
            run(&mut mcts, 20, 1, &mut sim_eval(&space, &w, &platform)).unwrap();
            mcts.into_records()
                .into_iter()
                .map(|r| (r.traversal, r.result.time()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run_seed(5), run_seed(5));
        assert_ne!(run_seed(5), run_seed(6));
    }

    #[test]
    fn batched_search_is_seed_deterministic() {
        let space = small_space();
        let run_seed = |seed: u64| {
            let mut eval = |t: &Traversal, _: u64| -> Result<BenchResult, SimError> {
                Ok(fake_result(hash_time(t)))
            };
            let mut mcts = Mcts::new(
                &space,
                MctsConfig {
                    seed,
                    ..Default::default()
                },
            );
            run(&mut mcts, usize::MAX, 3, &mut eval).unwrap();
            let telemetry_len = mcts.telemetry().len();
            let records: Vec<_> = mcts
                .records()
                .iter()
                .map(|r| (r.traversal.clone(), r.result.time()))
                .collect();
            (records, telemetry_len)
        };
        assert_eq!(run_seed(5), run_seed(5), "same seed, same commit order");
    }

    #[test]
    fn prune_hook_retires_subtrees_before_any_evaluation() {
        let space = small_space();
        let mut mcts = Mcts::new(&space, MctsConfig::default());
        mcts.set_prune(std::sync::Arc::new(|_: &Prefix| true));
        let batch = mcts.select_batch(8, u64::MAX);
        assert!(
            batch.pending.is_empty(),
            "nothing reaches evaluation under a prune-everything hook"
        );
        assert!(batch.iterations > 0, "pruned descents resolve inline");
        assert!(mcts.is_exhausted());
        assert_eq!(
            mcts.pruned(),
            space.eligible(&space.empty_prefix()).len() as u64,
            "exactly one prune per root child"
        );
        assert!(mcts.records().is_empty());
        // No virtual loss may leak from the aborted descents.
        assert!(mcts.nodes.iter().all(|node| node.vl == 0));
    }

    #[test]
    fn selective_prune_still_exhausts_the_remainder() {
        let space = small_space();
        let first = space.eligible(&space.empty_prefix())[0];
        let mut eval = |t: &Traversal, _seed: u64| -> Result<BenchResult, SimError> {
            Ok(fake_result(1.0 + t.canonical_hash() as f64 * 1e-20))
        };
        let mut mcts = Mcts::new(&space, MctsConfig::default());
        mcts.set_prune(std::sync::Arc::new(move |prefix: &Prefix| {
            prefix.steps().first() == Some(&first)
        }));
        run(&mut mcts, 10_000, 1, &mut eval).unwrap();
        assert!(mcts.is_exhausted());
        assert_eq!(mcts.pruned(), 1, "only the condemned opening is cut");
        let total = space.count_traversals() as usize;
        assert!(!mcts.records().is_empty());
        assert!(
            mcts.records().len() < total,
            "the pruned subtree's traversals stay unexplored"
        );
        for r in mcts.records() {
            assert_ne!(r.traversal.steps[0], first);
        }
    }

    #[test]
    fn max_failures_quarantines_poisoned_traversals_and_continues() {
        let space = small_space();
        let all: Vec<Traversal> = space.enumerate().collect();
        let poisoned = all[0].clone();
        let mut eval = |t: &Traversal, _seed: u64| -> Result<BenchResult, SimError> {
            if *t == poisoned {
                Err(SimError::Panicked {
                    detail: "injected".into(),
                })
            } else {
                Ok(fake_result(1.0 + t.canonical_hash() as f64 * 1e-20))
            }
        };
        let mut mcts = Mcts::new(
            &space,
            MctsConfig {
                max_failures: 1,
                ..Default::default()
            },
        );
        run(&mut mcts, 10_000, 1, &mut eval).unwrap();
        assert_eq!(mcts.records().len(), all.len() - 1, "all healthy found");
        assert!(mcts.is_exhausted(), "quarantine must not stall exhaustion");
        assert_eq!(mcts.failures(), 1);
        assert!(mcts.records().iter().all(|r| r.traversal != poisoned));
    }

    #[test]
    fn failures_quarantine_up_to_the_budget_then_propagate() {
        let space = small_space();
        let total = space.count_traversals() as usize;
        let mut always_fail = |_: &Traversal, _: u64| -> Result<BenchResult, SimError> {
            Err(SimError::Panicked {
                detail: "always".into(),
            })
        };
        let mut poisoned = Mcts::new(
            &space,
            MctsConfig {
                max_failures: total,
                ..Default::default()
            },
        );
        run(&mut poisoned, 10_000, 2, &mut always_fail).unwrap();
        assert!(poisoned.is_exhausted());
        assert_eq!(poisoned.failures(), total);
        assert!(poisoned.records().is_empty());
        assert!(
            poisoned.telemetry().is_empty(),
            "quarantined rollouts leave no telemetry rows"
        );

        // Default budget (0): the first error is fatal.
        let mut strict = Mcts::new(&space, MctsConfig::default());
        assert!(run(&mut strict, 100, 1, &mut always_fail).is_err());
    }

    #[test]
    fn sampled_tracing_records_every_nth_iteration_without_perturbing_search() {
        let space = small_space();
        let w = small_workload();
        let platform = Platform::perlmutter_like().noiseless();
        let run_traced = |trace: Option<(&dr_trace::Tracer, usize)>| {
            let mut mcts = Mcts::new(&space, MctsConfig::default());
            if let Some((tracer, every)) = trace {
                mcts.set_trace(tracer.lane("mcts"), every);
            }
            run(&mut mcts, 9, 1, &mut sim_eval(&space, &w, &platform)).unwrap();
            mcts.into_records()
                .into_iter()
                .map(|r| (r.traversal, r.result.time()))
                .collect::<Vec<_>>()
        };
        let tracer = dr_trace::Tracer::new();
        let traced = run_traced(Some((&tracer, 4)));
        let plain = run_traced(None);
        assert_eq!(traced, plain, "tracing must not change the search");
        let snap = tracer.snapshot();
        let iters: Vec<String> = snap
            .spans
            .iter()
            .filter(|s| s.name == "mcts-iter")
            .map(|s| {
                s.notes
                    .iter()
                    .find(|(k, _)| k == "iteration")
                    .unwrap()
                    .1
                    .clone()
            })
            .collect();
        assert_eq!(iters, vec!["1", "5", "9"], "iterations 1, 1+4, 1+8 sampled");
        assert!(snap
            .spans
            .iter()
            .all(|s| s.name != "mcts-iter" || s.end_s.is_some()));
    }

    #[test]
    fn sampled_events_mirror_tracing_without_perturbing_search() {
        let space = small_space();
        let w = small_workload();
        let platform = Platform::perlmutter_like().noiseless();
        let run_observed = |sink: Option<EventSink>| {
            let mut mcts = Mcts::new(&space, MctsConfig::default());
            if let Some(s) = sink {
                mcts.set_events(s, 4);
            }
            run(&mut mcts, 9, 1, &mut sim_eval(&space, &w, &platform)).unwrap();
            mcts.into_records()
                .into_iter()
                .map(|r| (r.traversal, r.result.time()))
                .collect::<Vec<_>>()
        };
        let buf = SharedBuf::new();
        let sink = EventSink::new("run-evt").with_writer(Box::new(buf.clone()));
        let observed = run_observed(Some(sink));
        let silent = run_observed(None);
        assert_eq!(observed, silent, "event emission must not change search");
        let text = buf.contents();
        let iters: Vec<u64> = text
            .lines()
            .map(|l| {
                let v = json::parse(l).unwrap();
                assert_eq!(
                    v.get("kind").and_then(json::Value::as_str),
                    Some("mcts-iter")
                );
                assert!(v.get("outcome").and_then(json::Value::as_str).is_some());
                v.get("iteration").and_then(json::Value::as_u64).unwrap()
            })
            .collect();
        assert_eq!(iters, vec![1, 5, 9], "iterations 1, 1+4, 1+8 sampled");
    }

    #[test]
    fn iterations_count_rollouts_not_discoveries() {
        let space = small_space();
        let w = small_workload();
        let platform = Platform::perlmutter_like().noiseless();
        let mut eval = sim_eval(&space, &w, &platform);
        let mut mcts = Mcts::new(&space, MctsConfig::default());
        for _ in 0..30 {
            run(&mut mcts, 1, 1, &mut eval).unwrap();
        }
        assert!(mcts.iterations() <= 30);
        assert!(mcts.records().len() <= 30);
    }

    #[test]
    fn one_row_per_iteration_with_monotone_progress() {
        let space = small_space();
        let w = small_workload();
        let platform = Platform::perlmutter_like().noiseless();
        let mut mcts = Mcts::new(&space, MctsConfig::default());
        run(&mut mcts, 25, 1, &mut sim_eval(&space, &w, &platform)).unwrap();
        let telemetry = mcts.telemetry();
        assert_eq!(telemetry.len() as u64, mcts.iterations());
        let rows = telemetry.rows();
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.iteration, i as u64 + 1);
            assert!(r.best_time <= r.worst_time);
            assert!(r.tree_nodes >= 1);
            assert!(r.max_depth <= space.num_ops());
            assert!(r.rollout_len <= space.num_ops());
        }
        for w in rows.windows(2) {
            assert!(w[1].unique_traversals >= w[0].unique_traversals);
            assert!(w[1].tree_nodes >= w[0].tree_nodes);
            assert!(w[1].best_time <= w[0].best_time);
            assert!(w[1].worst_time >= w[0].worst_time);
        }
        // Incremental max depth agrees with the full-tree walk.
        assert_eq!(rows.last().unwrap().max_depth, mcts.stats().max_depth);
    }

    #[test]
    fn exhausted_runs_do_not_add_rows() {
        let space = small_space();
        let w = small_workload();
        let platform = Platform::perlmutter_like().noiseless();
        let mut eval = sim_eval(&space, &w, &platform);
        let mut mcts = Mcts::new(&space, MctsConfig::default());
        run(&mut mcts, 10_000, 1, &mut eval).unwrap();
        assert!(mcts.is_exhausted());
        let rows_before = mcts.telemetry().len();
        run(&mut mcts, 1, 1, &mut eval).unwrap();
        assert_eq!(mcts.telemetry().len(), rows_before);
    }

    #[test]
    fn evaluator_stats_stay_with_the_caller() {
        let space = small_space();
        let w = small_workload();
        let platform = Platform::perlmutter_like().noiseless();
        let mut eval = sim_eval(&space, &w, &platform);
        let mut mcts = Mcts::new(&space, MctsConfig::default());
        run(&mut mcts, 10, 1, &mut eval).unwrap();
        assert!(Evaluator::sim_stats(&eval).is_some());
        let stats = eval.stats();
        assert!(stats.runs > 0, "each evaluation runs simulator samples");
        assert!(stats.instructions > 0);
        let (records, telemetry) = mcts.into_parts();
        assert!(!records.is_empty());
        assert!(!telemetry.is_empty());
    }

    #[test]
    fn every_exploitation_policy_exhausts_the_space() {
        let space = small_space();
        let total = space.count_traversals() as usize;
        let w = small_workload();
        let platform = Platform::perlmutter_like().noiseless();
        for policy in [
            Exploitation::CoverageRange,
            Exploitation::MeanTime,
            Exploitation::Constant,
        ] {
            let cfg = MctsConfig {
                exploitation: policy,
                ..Default::default()
            };
            let mut mcts = Mcts::new(&space, cfg);
            run(&mut mcts, 10_000, 1, &mut sim_eval(&space, &w, &platform)).unwrap();
            assert_eq!(
                mcts.records().len(),
                total,
                "{policy:?} must still cover the space"
            );
            assert!(mcts.is_exhausted());
        }
    }

    #[test]
    fn policies_explore_in_different_orders() {
        let space = small_space();
        let w = small_workload();
        let platform = Platform::perlmutter_like().noiseless();
        let order = |policy| {
            let cfg = MctsConfig {
                exploitation: policy,
                seed: 4,
                ..Default::default()
            };
            let mut mcts = Mcts::new(&space, cfg);
            run(&mut mcts, 8, 1, &mut sim_eval(&space, &w, &platform)).unwrap();
            mcts.into_records()
                .into_iter()
                .map(|r| r.traversal)
                .collect::<Vec<_>>()
        };
        // Not guaranteed in general, but with this seed the paper policy
        // and classic UCT provably diverge on this space.
        assert_ne!(
            order(Exploitation::CoverageRange),
            order(Exploitation::MeanTime)
        );
    }

    #[test]
    fn stats_reflect_search_progress() {
        let space = small_space();
        let w = small_workload();
        let platform = Platform::perlmutter_like().noiseless();
        let mut mcts = Mcts::new(&space, MctsConfig::default());
        let s0 = mcts.stats();
        assert_eq!(s0.rollouts, 0);
        assert_eq!(s0.nodes, 1);
        run(&mut mcts, 10_000, 1, &mut sim_eval(&space, &w, &platform)).unwrap();
        let s = mcts.stats();
        assert_eq!(
            s.max_depth,
            space.num_ops(),
            "exhausted tree reaches the leaves"
        );
        assert!(s.fully_explored >= 1);
        assert!(s.t_max >= s.t_min && s.t_min > 0.0);
        assert!(s.rollouts >= space.count_traversals() as u64);
    }

    #[test]
    fn snapshot_exports_hot_nodes_and_principal_variations() {
        let space = small_space();
        let w = small_workload();
        let platform = Platform::perlmutter_like().noiseless();
        for width in [1, 2] {
            let mut mcts = Mcts::new(&space, MctsConfig::default());
            run(
                &mut mcts,
                10_000,
                width,
                &mut sim_eval(&space, &w, &platform),
            )
            .unwrap();
            let snap = mcts.snapshot(3, 5);
            assert_eq!(snap.stats, mcts.stats());
            assert!(snap.exhausted);
            assert_eq!(snap.iterations, mcts.iterations());
            // The depth profile covers the whole tree and starts at the
            // root.
            assert_eq!(snap.depth_profile[0], 1);
            assert_eq!(snap.depth_profile.iter().sum::<usize>(), mcts.tree_size());
            assert_eq!(snap.depth_profile.len() - 1, snap.stats.max_depth);
            // Hot nodes are capped, visit-sorted, and lead with the root.
            assert_eq!(snap.nodes.len(), 5.min(mcts.tree_size()));
            assert!(snap.nodes[0].action.is_none(), "root is most visited");
            assert_eq!(snap.nodes[0].visits, snap.stats.rollouts);
            for pair in snap.nodes.windows(2) {
                assert!(pair[0].visits >= pair[1].visits);
            }
            for n in &snap.nodes[1..] {
                assert!(n.action.is_some(), "non-root nodes recover their edge");
            }
            // PVs: capped at top_k, visit-ranked, each a valid full
            // traversal of this exhausted space.
            assert!(!snap.principal_variations.is_empty());
            assert!(snap.principal_variations.len() <= 3);
            for pair in snap.principal_variations.windows(2) {
                assert!(pair[0].visits >= pair[1].visits);
            }
            for pv in &snap.principal_variations {
                assert_eq!(pv.steps.len(), space.num_ops());
                space
                    .validate(&Traversal {
                        steps: pv.steps.clone(),
                    })
                    .unwrap();
                assert!(pv.visits > 0);
                assert!(pv.t_min >= snap.stats.t_min);
            }
            // Deterministic export.
            let again = mcts.snapshot(3, 5);
            assert_eq!(again.nodes, snap.nodes);
            assert_eq!(again.principal_variations, snap.principal_variations);
        }
    }

    #[test]
    fn empty_tree_snapshot_is_well_formed() {
        let mut b = DagBuilder::new();
        let a = b.add("a", OpSpec::GpuKernel(CostKey::new("a")));
        let c = b.add("c", OpSpec::CpuWork(CostKey::new("c")));
        b.edge(a, c);
        let space = DecisionSpace::new(b.build().unwrap(), 1).unwrap();
        let mcts = Mcts::new(&space, MctsConfig::default());
        let snap = mcts.snapshot(3, 10);
        assert_eq!(snap.depth_profile, vec![1]);
        assert_eq!(snap.nodes.len(), 1);
        assert!(snap.principal_variations.is_empty());
        assert!(!snap.exhausted);
    }

    #[test]
    fn virtual_loss_marks_pending_paths_and_commit_clears_it() {
        let space = small_space();
        let mut mcts = Mcts::new(&space, MctsConfig::default());
        let batch = mcts.select_batch(1, u64::MAX);
        assert_eq!(batch.pending.len(), 1);
        assert_eq!(batch.iterations, 1);
        let path = batch.pending[0].path.clone();
        assert!(path.len() > 1, "path spans root to leaf");
        for &id in &path {
            assert_eq!(mcts.nodes[id].vl, 1, "pending path carries virtual loss");
            assert_eq!(mcts.nodes[id].n, 0, "no real visits before commit");
        }
        mcts.commit(batch, vec![Ok(fake_result(1e-4))]).unwrap();
        for &id in &path {
            assert_eq!(mcts.nodes[id].vl, 0, "commit releases virtual loss");
            assert_eq!(mcts.nodes[id].n, 1, "commit backpropagates the visit");
        }
        assert_eq!(mcts.records().len(), 1);
        assert_eq!(mcts.telemetry().len(), 1);
    }

    #[test]
    fn virtual_loss_steers_batched_descents_apart() {
        // With the whole tree untouched, two consecutive descents must
        // diverge at the root: the first leaves virtual loss on its
        // opening child, which then no longer counts as unvisited, so
        // the second expansion picks a different opening.
        let space = small_space();
        let mut mcts = Mcts::new(&space, MctsConfig::default());
        let batch = mcts.select_batch(2, u64::MAX);
        assert_eq!(batch.pending.len(), 2);
        let a = &batch.pending[0];
        let b = &batch.pending[1];
        assert_ne!(
            a.traversal, b.traversal,
            "descents diverge under virtual loss"
        );
        assert_ne!(
            a.traversal.steps[0], b.traversal.steps[0],
            "divergence happens at the opening move"
        );
        assert_eq!(mcts.nodes[0].vl, 2, "root carries one loss per rollout");
        let results = vec![Ok(fake_result(1e-4)), Ok(fake_result(2e-4))];
        mcts.commit(batch, results).unwrap();
        assert_eq!(mcts.nodes[0].vl, 0);
        assert_eq!(mcts.nodes[0].n, 2);
    }

    /// A two-opening space whose openings both carry one committed
    /// visit at time `1e-4`.
    fn two_visited_openings(space: &DecisionSpace) -> (Mcts<'_>, Vec<Placement>) {
        let elig = space.eligible(&space.empty_prefix());
        assert_eq!(elig.len(), 2, "two independent ops give two openings");
        let mut mcts = Mcts::new(space, MctsConfig::default());
        for &p in &elig {
            let mut prefix = space.empty_prefix();
            let id = mcts.get_or_create_child(0, p, &mut prefix);
            mcts.backprop(&[0, id], 1e-4, 1);
        }
        (mcts, elig)
    }

    fn independent_pair() -> DecisionSpace {
        let mut b = DagBuilder::new();
        b.add("x", OpSpec::GpuKernel(CostKey::new("x")));
        b.add("y", OpSpec::GpuKernel(CostKey::new("y")));
        DecisionSpace::new(b.build().unwrap(), 1).unwrap()
    }

    #[test]
    fn a_node_under_virtual_loss_is_deprioritized_until_commit() {
        // Directly exercise the PUCT discount: two siblings with
        // identical statistics, one carrying a virtual loss. Selection
        // must prefer the unencumbered sibling; after the loss clears,
        // the tie is restored.
        let space = independent_pair();
        let (mut mcts, elig) = two_visited_openings(&space);
        mcts.width = 2;
        let loaded = mcts.nodes[0].child(elig[0]).unwrap();
        mcts.nodes[loaded].vl = 1;
        let picked = mcts.select_child(0, &elig).unwrap();
        assert_eq!(
            picked, elig[1],
            "virtual loss deprioritizes the pending child"
        );
        mcts.nodes[loaded].vl = 0;
        let repicked = mcts.select_child(0, &elig).unwrap();
        assert_eq!(
            repicked, elig[0],
            "ties break to the first child once cleared"
        );
    }

    #[test]
    fn width_one_selects_by_uct() {
        // UCT favours the less-visited of two siblings with equal
        // exploitation: after one more visit to the first opening, the
        // second wins on `c·sqrt(ln N / n)`.
        let space = independent_pair();
        let (mut mcts, elig) = two_visited_openings(&space);
        assert_eq!(mcts.select_child(0, &elig), Some(elig[0]), "tie → first");
        let first = mcts.nodes[0].child(elig[0]).unwrap();
        mcts.backprop(&[0, first], 1e-4, 1);
        assert_eq!(mcts.select_child(0, &elig), Some(elig[1]));
        // A fully explored child is never selected.
        let second = mcts.nodes[0].child(elig[1]).unwrap();
        mcts.nodes[second].fully_explored = true;
        assert_eq!(mcts.select_child(0, &elig), Some(elig[0]));
    }

    #[test]
    fn record_set_is_batch_width_invariant() {
        let space = small_space();
        let total = space.count_traversals() as usize;
        let mut sets = Vec::new();
        for width in [1usize, 2, 4] {
            let mut eval = |t: &Traversal, _: u64| -> Result<BenchResult, SimError> {
                Ok(fake_result(hash_time(t)))
            };
            let mut mcts = Mcts::new(&space, MctsConfig::default());
            run(&mut mcts, usize::MAX, width, &mut eval).unwrap();
            assert!(mcts.is_exhausted());
            assert_eq!(
                mcts.records().len(),
                total,
                "width {width} measures each once"
            );
            assert_eq!(mcts.repeats() + total as u64, mcts.iterations());
            sets.push(record_set(mcts.records()));
        }
        assert_eq!(sets[0], sets[1]);
        assert_eq!(sets[1], sets[2]);
    }

    #[test]
    fn into_parts_orders_by_width() {
        let space = small_space();
        let parts = |width: usize| {
            let mut eval = |t: &Traversal, _: u64| -> Result<BenchResult, SimError> {
                Ok(fake_result(hash_time(t)))
            };
            let mut mcts = Mcts::new(&space, MctsConfig::default());
            run(&mut mcts, usize::MAX, width, &mut eval).unwrap();
            let committed: Vec<u64> = mcts
                .records()
                .iter()
                .map(|r| r.traversal.canonical_hash())
                .collect();
            let (records, telemetry) = mcts.into_parts();
            let hashes: Vec<u64> = records
                .iter()
                .map(|r| r.traversal.canonical_hash())
                .collect();
            let iterations: Vec<u64> = telemetry.rows().iter().map(|r| r.iteration).collect();
            (committed, hashes, iterations)
        };
        // Width 1: commit order is discovery order, kept as is.
        let (committed, hashes, _) = parts(1);
        assert_eq!(hashes, committed);
        // Above width 1: canonical order and renumbered rows.
        let (_, hashes, iterations) = parts(3);
        assert!(hashes.windows(2).all(|w| w[0] <= w[1]));
        assert!(iterations.iter().copied().eq(1..=iterations.len() as u64));
    }

    #[test]
    fn in_batch_duplicates_share_one_evaluation_slot() {
        // A 1-op, 1-stream space has a single traversal: any batch wider
        // than 1 must fold every extra rollout into the same pending
        // entry rather than requesting duplicate evaluations.
        let mut b = DagBuilder::new();
        b.add("only", OpSpec::GpuKernel(CostKey::new("only")));
        let space = DecisionSpace::new(b.build().unwrap(), 1).unwrap();
        let mut mcts = Mcts::new(&space, MctsConfig::default());
        let batch = mcts.select_batch(4, u64::MAX);
        assert_eq!(batch.pending.len(), 1, "one distinct traversal exists");
        let dup = batch.pending[0].rollouts.len();
        assert!(dup >= 2, "extra rollouts became duplicates");
        assert_eq!(batch.iterations, dup);
        mcts.commit(batch, vec![Ok(fake_result(1e-4))]).unwrap();
        assert_eq!(mcts.records().len(), 1);
        assert_eq!(mcts.repeats(), dup as u64 - 1);
        assert!(mcts.is_exhausted());
        assert_eq!(
            mcts.telemetry().len(),
            dup,
            "each rollout (first + repeats) logs a telemetry row"
        );
    }
}
