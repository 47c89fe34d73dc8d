//! Scoped worker pool with a chunked work queue and order-restoring
//! result merge.
//!
//! Two entry points share the machinery: [`par_map_stream_with`] stops
//! the whole pool on the first error (the fast path for fault-free
//! exploration), while [`par_map_stream_isolated`] quarantines failures
//! — including panics, caught per item with `catch_unwind` — and keeps
//! the remaining work alive, which is what a chaos run needs.

use dr_trace::{SpanId, Tracer};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::thread;

/// Items pulled from the shared iterator per queue lock acquisition.
/// Large enough to amortize the mutex, small enough to keep the tail of
/// an uneven workload balanced.
const CHUNK: usize = 8;

/// Callbacks observing pool worker lifecycle, for live progress
/// displays. The pool stays observability-agnostic: implementors adapt
/// these calls to whatever sink they use (the core crate forwards them
/// to the `dr-events/v1` stream). Callbacks run on the worker's thread
/// and must not panic; default implementations do nothing.
pub trait PoolObserver: Sync {
    /// A worker thread started (workers are indexed `0..threads`).
    fn worker_start(&self, _worker: usize) {}
    /// A worker thread finished after mapping `items` items.
    fn worker_end(&self, _worker: usize, _items: usize) {}
}

/// Resolves the worker count: an explicit request wins, then the
/// `DR_THREADS` environment variable, then 1 (fully serial — the safe,
/// reproducible-latency default; parallel results are identical anyway).
pub fn resolve_threads(explicit: Option<usize>) -> usize {
    if let Some(n) = explicit {
        return n.max(1);
    }
    std::env::var("DR_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

/// Splits an iteration budget into `parts` per-worker budgets that sum to
/// `total`, earlier workers taking the remainder (deterministic).
pub fn split_budget(total: usize, parts: usize) -> Vec<usize> {
    let parts = parts.max(1);
    let base = total / parts;
    let rem = total % parts;
    (0..parts).map(|w| base + usize::from(w < rem)).collect()
}

/// [`par_map_stream_with`] without per-worker state.
pub fn par_map_stream<T, R, Err, I, F>(items: I, threads: usize, f: F) -> Result<Vec<R>, Err>
where
    I: Iterator<Item = T> + Send,
    T: Send,
    R: Send,
    Err: Send,
    F: Fn(usize, T) -> Result<R, Err> + Sync,
{
    par_map_stream_with(items, threads, |_| (), |(), i, t| f(i, t)).map(|(out, _)| out)
}

/// Streams `items` through `threads` scoped workers, applying `f` to each
/// and returning the results **in input order** together with every
/// worker's final state (in worker-index order).
///
/// Each worker owns one state value built by `init(worker_index)` — this
/// is how callers give every thread its own evaluator while the pool
/// merges their accumulated statistics deterministically afterwards.
/// Items are handed out in small chunks from the shared iterator, so a
/// lazy enumeration is consumed as it is produced and never materialized
/// wholesale. On an error the pool stops handing out work, finishes
/// nothing further, and returns the error with the smallest input index
/// among those observed.
pub fn par_map_stream_with<T, R, S, Err, I, Init, F>(
    items: I,
    threads: usize,
    init: Init,
    f: F,
) -> Result<(Vec<R>, Vec<S>), Err>
where
    I: Iterator<Item = T> + Send,
    T: Send,
    R: Send,
    S: Send,
    Err: Send,
    Init: Fn(usize) -> S + Sync,
    F: Fn(&mut S, usize, T) -> Result<R, Err> + Sync,
{
    par_map_stream_with_traced(items, threads, &Tracer::disabled(), None, init, f)
}

/// [`par_map_stream_with`] with causal tracing: each worker records a
/// `worker` span on its own lane (linked `follows_from` the caller's
/// `dispatch` span, when given) and one `chunk` span per batch pulled
/// from the shared queue, annotated with the batch's first input index
/// and length. With a disabled tracer this is exactly
/// [`par_map_stream_with`] — the span calls are no-ops.
pub fn par_map_stream_with_traced<T, R, S, Err, I, Init, F>(
    items: I,
    threads: usize,
    tracer: &Tracer,
    dispatch: Option<SpanId>,
    init: Init,
    f: F,
) -> Result<(Vec<R>, Vec<S>), Err>
where
    I: Iterator<Item = T> + Send,
    T: Send,
    R: Send,
    S: Send,
    Err: Send,
    Init: Fn(usize) -> S + Sync,
    F: Fn(&mut S, usize, T) -> Result<R, Err> + Sync,
{
    par_map_stream_observed(items, threads, tracer, dispatch, None, init, f)
}

/// [`par_map_stream_with_traced`] plus an optional [`PoolObserver`]
/// notified of worker start/end on the worker's own thread. `None`
/// makes this identical to [`par_map_stream_with_traced`].
#[allow(clippy::too_many_arguments)]
pub fn par_map_stream_observed<T, R, S, Err, I, Init, F>(
    items: I,
    threads: usize,
    tracer: &Tracer,
    dispatch: Option<SpanId>,
    observer: Option<&dyn PoolObserver>,
    init: Init,
    f: F,
) -> Result<(Vec<R>, Vec<S>), Err>
where
    I: Iterator<Item = T> + Send,
    T: Send,
    R: Send,
    S: Send,
    Err: Send,
    Init: Fn(usize) -> S + Sync,
    F: Fn(&mut S, usize, T) -> Result<R, Err> + Sync,
{
    let threads = threads.max(1);
    if threads == 1 {
        // Serial fast path: no queue, no locks — the reference semantics
        // the parallel path must reproduce.
        let mut lane = tracer.lane("par-worker-0");
        lane.enter("worker");
        if let Some(d) = dispatch {
            lane.follows_from(d);
        }
        if let Some(o) = observer {
            o.worker_start(0);
        }
        let mut state = init(0);
        let mut out = Vec::new();
        for (i, item) in items.enumerate() {
            let r = f(&mut state, i, item);
            match r {
                Ok(r) => out.push(r),
                Err(e) => {
                    lane.annotate("items", out.len());
                    lane.annotate("stopped_at", i);
                    lane.exit();
                    if let Some(o) = observer {
                        o.worker_end(0, out.len());
                    }
                    return Err(e);
                }
            }
        }
        lane.annotate("items", out.len());
        lane.exit();
        if let Some(o) = observer {
            o.worker_end(0, out.len());
        }
        return Ok((out, vec![state]));
    }

    let queue = Mutex::new(items.enumerate());
    let stop = AtomicBool::new(false);
    let mut tagged: Vec<(usize, R)> = Vec::new();
    let mut states: Vec<S> = Vec::new();
    let mut first_err: Option<(usize, Err)> = None;

    thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let queue = &queue;
                let stop = &stop;
                let init = &init;
                let f = &f;
                let mut lane = tracer.lane(&format!("par-worker-{w}"));
                scope.spawn(move || {
                    lane.enter("worker");
                    if let Some(d) = dispatch {
                        lane.follows_from(d);
                    }
                    if let Some(o) = observer {
                        o.worker_start(w);
                    }
                    let mut state = init(w);
                    let mut out: Vec<(usize, R)> = Vec::new();
                    let mut err: Option<(usize, Err)> = None;
                    'work: while !stop.load(Ordering::Relaxed) {
                        let batch: Vec<(usize, T)> = {
                            let mut q = queue.lock().expect("queue lock poisoned");
                            q.by_ref().take(CHUNK).collect()
                        };
                        if batch.is_empty() {
                            break;
                        }
                        lane.enter("chunk");
                        lane.annotate("first", batch[0].0);
                        lane.annotate("len", batch.len());
                        for (i, item) in batch {
                            match f(&mut state, i, item) {
                                Ok(r) => out.push((i, r)),
                                Err(e) => {
                                    err = Some((i, e));
                                    stop.store(true, Ordering::Relaxed);
                                    lane.exit();
                                    break 'work;
                                }
                            }
                        }
                        lane.exit();
                    }
                    lane.annotate("items", out.len());
                    lane.exit();
                    if let Some(o) = observer {
                        o.worker_end(w, out.len());
                    }
                    (out, state, err)
                })
            })
            .collect();
        for h in handles {
            let (out, state, err) = h.join().expect("explore worker panicked");
            tagged.extend(out);
            states.push(state);
            if let Some((i, e)) = err {
                if first_err.as_ref().is_none_or(|(j, _)| i < *j) {
                    first_err = Some((i, e));
                }
            }
        }
    });

    if let Some((_, e)) = first_err {
        return Err(e);
    }
    tagged.sort_unstable_by_key(|&(i, _)| i);
    Ok((tagged.into_iter().map(|(_, r)| r).collect(), states))
}

/// What happened to one input item under [`par_map_stream_isolated`].
#[derive(Debug, Clone, PartialEq)]
pub enum ItemOutcome<R, Err> {
    /// The item mapped successfully.
    Ok(R),
    /// The mapping function returned an error; the item is quarantined.
    Failed(Err),
    /// The mapping function panicked; the payload is preserved as text
    /// and the item is quarantined.
    Panicked(String),
}

impl<R, Err> ItemOutcome<R, Err> {
    /// The successful result, if any.
    pub fn ok(self) -> Option<R> {
        match self {
            ItemOutcome::Ok(r) => Some(r),
            _ => None,
        }
    }
}

/// Aggregate result of [`par_map_stream_isolated`].
#[derive(Debug)]
pub struct PoolOutcome<R, S, Err> {
    /// Per-item outcomes, **in input order**. Every pulled item appears
    /// exactly once — quarantined items are marked, never silently lost.
    pub items: Vec<ItemOutcome<R, Err>>,
    /// Every worker's final state, in worker-index order.
    pub states: Vec<S>,
    /// Items whose mapping panicked (caught and quarantined).
    pub panics: u64,
    /// Items whose mapping returned an error.
    pub failures: u64,
}

/// Turns a caught panic payload into displayable text.
pub fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Like [`par_map_stream_with`], but *panic-isolated and error-tolerant*:
/// every item runs under `catch_unwind`, a panicking or failing item is
/// quarantined as its own [`ItemOutcome`], and the pool always processes
/// every input item. The serial (`threads == 1`) path applies the exact
/// same per-item isolation, so outcomes are thread-count-invariant for a
/// deterministic `f`.
pub fn par_map_stream_isolated<T, R, S, Err, I, Init, F>(
    items: I,
    threads: usize,
    init: Init,
    f: F,
) -> PoolOutcome<R, S, Err>
where
    I: Iterator<Item = T> + Send,
    T: Send,
    R: Send,
    S: Send,
    Err: Send,
    Init: Fn(usize) -> S + Sync,
    F: Fn(&mut S, usize, T) -> Result<R, Err> + Sync,
{
    let threads = threads.max(1);
    let run_one = |state: &mut S, i: usize, item: T| -> ItemOutcome<R, Err> {
        match catch_unwind(AssertUnwindSafe(|| f(state, i, item))) {
            Ok(Ok(r)) => ItemOutcome::Ok(r),
            Ok(Err(e)) => ItemOutcome::Failed(e),
            Err(payload) => ItemOutcome::Panicked(panic_text(payload)),
        }
    };

    let mut tagged: Vec<(usize, ItemOutcome<R, Err>)> = Vec::new();
    let mut states: Vec<S> = Vec::new();
    if threads == 1 {
        let mut state = init(0);
        for (i, item) in items.enumerate() {
            tagged.push((i, run_one(&mut state, i, item)));
        }
        states.push(state);
    } else {
        let queue = Mutex::new(items.enumerate());
        thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|w| {
                    let queue = &queue;
                    let init = &init;
                    let run_one = &run_one;
                    scope.spawn(move || {
                        let mut state = init(w);
                        let mut out: Vec<(usize, ItemOutcome<R, Err>)> = Vec::new();
                        loop {
                            let batch: Vec<(usize, T)> = {
                                let mut q = queue.lock().expect("queue lock poisoned");
                                q.by_ref().take(CHUNK).collect()
                            };
                            if batch.is_empty() {
                                break;
                            }
                            for (i, item) in batch {
                                out.push((i, run_one(&mut state, i, item)));
                            }
                        }
                        (out, state)
                    })
                })
                .collect();
            for h in handles {
                let (out, state) = h.join().expect("isolated worker panicked outside an item");
                tagged.extend(out);
                states.push(state);
            }
        });
    }
    tagged.sort_unstable_by_key(|&(i, _)| i);
    let items: Vec<ItemOutcome<R, Err>> = tagged.into_iter().map(|(_, o)| o).collect();
    let panics = items
        .iter()
        .filter(|o| matches!(o, ItemOutcome::Panicked(_)))
        .count() as u64;
    let failures = items
        .iter()
        .filter(|o| matches!(o, ItemOutcome::Failed(_)))
        .count() as u64;
    PoolOutcome {
        items,
        states,
        panics,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_prefers_explicit_then_env_then_one() {
        assert_eq!(resolve_threads(Some(3)), 3);
        assert_eq!(resolve_threads(Some(0)), 1);
        // Env handling: this test owns the variable (no other test in
        // this binary touches it) and restores the unset state.
        std::env::set_var("DR_THREADS", "5");
        assert_eq!(resolve_threads(None), 5);
        assert_eq!(resolve_threads(Some(2)), 2, "explicit beats env");
        std::env::set_var("DR_THREADS", "zero");
        assert_eq!(resolve_threads(None), 1, "garbage env ignored");
        std::env::remove_var("DR_THREADS");
        assert_eq!(resolve_threads(None), 1);
    }

    #[test]
    fn split_budget_sums_and_balances() {
        assert_eq!(split_budget(10, 4), vec![3, 3, 2, 2]);
        assert_eq!(split_budget(3, 8).iter().sum::<usize>(), 3);
        assert_eq!(split_budget(0, 3), vec![0, 0, 0]);
        assert_eq!(split_budget(7, 1), vec![7]);
        for (total, parts) in [(100, 7), (5, 5), (1, 2)] {
            let b = split_budget(total, parts);
            assert_eq!(b.len(), parts);
            assert_eq!(b.iter().sum::<usize>(), total);
            assert!(b.iter().all(|&x| x.abs_diff(total / parts) <= 1));
        }
    }

    #[test]
    fn results_are_in_input_order_for_every_thread_count() {
        let items: Vec<u64> = (0..100).collect();
        let serial: Vec<u64> = par_map_stream(items.clone().into_iter(), 1, |i, x| {
            Ok::<_, ()>(x * 2 + i as u64)
        })
        .unwrap();
        for threads in [2, 3, 4, 8] {
            let par = par_map_stream(items.clone().into_iter(), threads, |i, x| {
                // Uneven per-item work so chunks finish out of order.
                if x % 7 == 0 {
                    std::thread::yield_now();
                }
                Ok::<_, ()>(x * 2 + i as u64)
            })
            .unwrap();
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn lazy_sources_are_consumed_without_materialization() {
        // An iterator that counts how far it has been driven: the pool
        // must pull everything exactly once, through the shared queue.
        let pulled = std::sync::atomic::AtomicUsize::new(0);
        let src = (0..57).inspect(|_| {
            pulled.fetch_add(1, Ordering::Relaxed);
        });
        let out = par_map_stream(src, 4, |_, x| Ok::<_, ()>(x)).unwrap();
        assert_eq!(out, (0..57).collect::<Vec<_>>());
        assert_eq!(pulled.load(Ordering::Relaxed), 57);
    }

    #[test]
    fn errors_short_circuit_and_surface() {
        for threads in [1, 4] {
            let res: Result<Vec<u32>, String> =
                par_map_stream((0..1000).map(Ok::<u32, String>), threads, |i, x| {
                    let x = x?;
                    if i == 13 {
                        Err(format!("boom at {i}"))
                    } else {
                        Ok(x)
                    }
                });
            assert_eq!(res.unwrap_err(), "boom at 13", "threads={threads}");
        }
    }

    #[test]
    fn worker_states_come_back_in_worker_order() {
        let (out, states) = par_map_stream_with(
            (0..40).collect::<Vec<_>>().into_iter(),
            4,
            |w| (w, 0usize),
            |state, _, x: i32| {
                state.1 += 1;
                Ok::<_, ()>(x)
            },
        )
        .unwrap();
        assert_eq!(out.len(), 40);
        assert_eq!(states.len(), 4);
        assert_eq!(
            states.iter().map(|s| s.0).collect::<Vec<_>>(),
            vec![0, 1, 2, 3],
            "states are returned in worker-index order"
        );
        assert_eq!(states.iter().map(|s| s.1).sum::<usize>(), 40);
    }

    #[test]
    fn traced_pool_records_worker_and_chunk_spans() {
        let tracer = Tracer::new();
        let mut main = tracer.lane("main");
        let dispatch = main.enter("dispatch");
        let (out, _) = par_map_stream_with_traced(
            (0..40).collect::<Vec<_>>().into_iter(),
            4,
            &tracer,
            dispatch,
            |_| (),
            |(), _, x: i32| Ok::<_, ()>(x * 2),
        )
        .unwrap();
        main.exit();
        assert_eq!(out.len(), 40);
        let snap = tracer.snapshot();
        let workers = snap.spans.iter().filter(|s| s.name == "worker").count();
        let chunks = snap.spans.iter().filter(|s| s.name == "chunk").count();
        assert_eq!(workers, 4);
        assert_eq!(chunks, 40 / CHUNK, "every batch got a chunk span");
        // Every worker span follows the dispatch span.
        assert_eq!(
            snap.follows
                .iter()
                .filter(|(from, _)| Some(*from) == dispatch)
                .count(),
            4
        );
        // Chunk spans nest under their worker span and cover real work.
        for c in snap.spans.iter().filter(|s| s.name == "chunk") {
            let parent = &snap.spans[c.parent.expect("chunk has parent").0 as usize];
            assert_eq!(parent.name, "worker");
            assert_eq!(parent.lane, c.lane);
        }
        // The per-chunk item accounting sums to the input size.
        let accounted: usize = snap
            .spans
            .iter()
            .filter(|s| s.name == "chunk")
            .map(|s| {
                s.notes
                    .iter()
                    .find(|(k, _)| k == "len")
                    .and_then(|(_, v)| v.parse::<usize>().ok())
                    .unwrap()
            })
            .sum();
        assert_eq!(accounted, 40);
    }

    #[test]
    fn traced_pool_with_disabled_tracer_matches_plain() {
        let plain = par_map_stream((0..30).collect::<Vec<i32>>().into_iter(), 3, |_, x| {
            Ok::<_, ()>(x + 1)
        })
        .unwrap();
        let tracer = Tracer::disabled();
        let (traced, _) = par_map_stream_with_traced(
            (0..30).collect::<Vec<i32>>().into_iter(),
            3,
            &tracer,
            None,
            |_| (),
            |(), _, x| Ok::<_, ()>(x + 1),
        )
        .unwrap();
        assert_eq!(traced, plain);
        assert_eq!(tracer.span_count(), 0);
    }

    #[test]
    fn observer_sees_every_worker_and_all_items() {
        use std::sync::atomic::AtomicUsize;
        #[derive(Default)]
        struct Tally {
            starts: AtomicUsize,
            ends: AtomicUsize,
            items: AtomicUsize,
        }
        impl PoolObserver for Tally {
            fn worker_start(&self, _worker: usize) {
                self.starts.fetch_add(1, Ordering::Relaxed);
            }
            fn worker_end(&self, _worker: usize, items: usize) {
                self.ends.fetch_add(1, Ordering::Relaxed);
                self.items.fetch_add(items, Ordering::Relaxed);
            }
        }
        for threads in [1, 4] {
            let tally = Tally::default();
            let (out, _) = par_map_stream_observed(
                (0..40).collect::<Vec<i32>>().into_iter(),
                threads,
                &Tracer::disabled(),
                None,
                Some(&tally),
                |_| (),
                |(), _, x| Ok::<_, ()>(x + 1),
            )
            .unwrap();
            assert_eq!(out.len(), 40);
            assert_eq!(tally.starts.load(Ordering::Relaxed), threads);
            assert_eq!(tally.ends.load(Ordering::Relaxed), threads);
            assert_eq!(tally.items.load(Ordering::Relaxed), 40, "threads={threads}");
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out = par_map_stream(std::iter::empty::<u8>(), 4, |_, x| Ok::<_, ()>(x)).unwrap();
        assert!(out.is_empty());
    }

    /// Runs the isolated pool over 0..40 where item 7 panics and items
    /// divisible by 10 fail.
    fn chaos_outcome(threads: usize) -> PoolOutcome<i32, usize, String> {
        // Quarantined panics print nothing here: the panic hook is per
        // process, so keep the panicking branch silent via a plain
        // panic! whose output the test harness captures.
        par_map_stream_isolated(
            (0..40).collect::<Vec<i32>>().into_iter(),
            threads,
            |_| 0usize,
            |count, _, x| {
                *count += 1;
                if x == 7 {
                    panic!("injected panic at {x}");
                }
                if x % 10 == 0 {
                    Err(format!("failed at {x}"))
                } else {
                    Ok(x * 2)
                }
            },
        )
    }

    #[test]
    fn isolated_pool_quarantines_panics_and_failures() {
        for threads in [1, 4] {
            let out = chaos_outcome(threads);
            assert_eq!(out.items.len(), 40, "threads={threads}");
            assert_eq!(out.panics, 1);
            assert_eq!(out.failures, 4, "0, 10, 20, 30 fail");
            assert_eq!(
                out.items[7],
                ItemOutcome::Panicked("injected panic at 7".into())
            );
            assert_eq!(out.items[10], ItemOutcome::Failed("failed at 10".into()));
            assert_eq!(out.items[3], ItemOutcome::Ok(6));
            // Every item was pulled exactly once across all workers.
            assert_eq!(out.states.iter().sum::<usize>(), 40);
        }
    }

    #[test]
    fn isolated_outcomes_are_thread_count_invariant() {
        let serial = chaos_outcome(1);
        for threads in [2, 3, 8] {
            let par = chaos_outcome(threads);
            assert_eq!(par.items, serial.items, "threads={threads}");
            assert_eq!(par.panics, serial.panics);
            assert_eq!(par.failures, serial.failures);
        }
    }

    #[test]
    fn isolated_pool_matches_plain_pool_on_clean_input() {
        let plain = par_map_stream((0..25).collect::<Vec<i32>>().into_iter(), 3, |_, x| {
            Ok::<_, ()>(x + 1)
        })
        .unwrap();
        let isolated = par_map_stream_isolated(
            (0..25).collect::<Vec<i32>>().into_iter(),
            3,
            |_| (),
            |(), _, x| Ok::<_, ()>(x + 1),
        );
        let recovered: Vec<i32> = isolated.items.into_iter().filter_map(|o| o.ok()).collect();
        assert_eq!(recovered, plain);
        assert_eq!(isolated.panics, 0);
        assert_eq!(isolated.failures, 0);
    }
}
