//! Criterion microbenchmarks of every substrate on the reproduction's hot
//! paths: simulator execution, the measurement protocol, traversal
//! enumeration/counting, MCTS iterations, and the ML pipeline stages.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use dr_dag::{build_schedule, Traversal};
use dr_mcts::{Evaluator, Mcts, MctsConfig, SimEvaluator};
use dr_ml::{algorithm1, featurize, label_times, DecisionTree, TrainConfig};
use dr_sim::{benchmark, execute, BenchConfig, CompiledProgram};
use dr_spmv::SpmvScenario;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;

fn scenario() -> SpmvScenario {
    SpmvScenario::small(7)
}

fn first_traversal(sc: &SpmvScenario) -> Traversal {
    let mut prefix = sc.space.empty_prefix();
    sc.space.complete_with(&mut prefix, |_| 0)
}

fn bench_simulator(c: &mut Criterion) {
    let sc = scenario();
    let t = first_traversal(&sc);
    let prog = sc.compile(&t).unwrap();
    c.bench_function("sim/execute_one_sample", |b| {
        let mut rng = SmallRng::seed_from_u64(1);
        b.iter(|| execute(black_box(&prog), &sc.platform, &mut rng).unwrap())
    });
    c.bench_function("sim/benchmark_protocol_quick", |b| {
        b.iter(|| benchmark(black_box(&prog), &sc.platform, &BenchConfig::quick(), 3).unwrap())
    });
    c.bench_function("sim/compile_schedule", |b| {
        let schedule = build_schedule(&sc.space, &t);
        b.iter(|| CompiledProgram::compile(black_box(&schedule), &sc.workload).unwrap())
    });
}

fn bench_dag(c: &mut Criterion) {
    let sc = scenario();
    c.bench_function("dag/count_traversals", |b| {
        b.iter(|| black_box(&sc.space).count_traversals())
    });
    c.bench_function("dag/enumerate_space", |b| {
        b.iter(|| black_box(&sc.space).enumerate().count())
    });
    let t = first_traversal(&sc);
    c.bench_function("dag/build_schedule", |b| {
        b.iter(|| build_schedule(black_box(&sc.space), &t))
    });
}

fn bench_mcts(c: &mut Criterion) {
    let sc = scenario();
    c.bench_function("mcts/100_iterations", |b| {
        b.iter_batched(
            || {
                let eval = SimEvaluator::new(
                    &sc.space,
                    &sc.workload,
                    &sc.platform,
                    BenchConfig {
                        t_measure: 1e-4,
                        num_measurements: 1,
                        max_samples: 1,
                    },
                );
                (Mcts::new(&sc.space, MctsConfig::default()), eval)
            },
            |(mut m, mut eval)| m.run(100, 1, |batch| eval.evaluate_batch(batch)).unwrap(),
            BatchSize::SmallInput,
        )
    });
}

fn bench_ml(c: &mut Criterion) {
    let sc = scenario();
    let all: Vec<_> = sc.space.enumerate().collect();
    // Synthetic but structured times: fast when Pack precedes yl.
    let pack = sc.space.op_by_name("Pack").unwrap();
    let yl = sc.space.op_by_name("yl").unwrap();
    let times: Vec<f64> = all
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let pos = t.positions(sc.space.num_ops());
            let base = if pos[pack] < pos[yl] { 1.0 } else { 1.3 };
            base + 1e-3 * ((i * 37 % 101) as f64)
        })
        .collect();
    c.bench_function("ml/label_times", |b| {
        b.iter(|| label_times(black_box(&times), &Default::default()))
    });
    let refs: Vec<&Traversal> = all.iter().collect();
    c.bench_function("ml/featurize_full_space", |b| {
        b.iter(|| featurize(black_box(&sc.space), &refs))
    });
    let labeling = label_times(&times, &Default::default());
    let features = featurize(&sc.space, &refs);
    c.bench_function("ml/cart_fit", |b| {
        b.iter(|| {
            DecisionTree::fit(
                black_box(&features.matrix),
                &labeling.labels,
                labeling.num_classes,
                &TrainConfig::default(),
            )
        })
    });
    // Algorithm 1 trains many trees; benchmark it on a 300-row subsample
    // to keep the run affordable.
    let sub_x: Vec<dr_ml::BitRow> = features.matrix.iter().take(300).cloned().collect();
    let sub_y: Vec<usize> = labeling.labels.iter().take(300).copied().collect();
    c.bench_function("ml/algorithm1_300_rows", |b| {
        b.iter(|| {
            algorithm1(
                black_box(&sub_x),
                &sub_y,
                labeling.num_classes,
                &TrainConfig::default(),
            )
        })
    });
}

fn bench_spmv(c: &mut Criterion) {
    use dr_spmv::{banded_matrix, BandedSpec, DistributedSpmv};
    c.bench_function("spmv/banded_matrix_small", |b| {
        b.iter(|| banded_matrix(black_box(&BandedSpec::small(3))))
    });
    let a = banded_matrix(&BandedSpec::small(3));
    c.bench_function("spmv/decompose_4_ranks", |b| {
        b.iter(|| DistributedSpmv::new(black_box(&a), 4))
    });
    let d = DistributedSpmv::new(&a, 4);
    let x: Vec<f64> = (0..a.ncols).map(|i| i as f64 * 1e-3).collect();
    c.bench_function("spmv/distributed_multiply", |b| {
        b.iter(|| black_box(&d).multiply(&x))
    });
}

fn config() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1200))
        .sample_size(20)
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_simulator, bench_dag, bench_mcts, bench_ml, bench_spmv
}
criterion_main!(benches);
