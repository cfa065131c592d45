//! Shard-parallel execution: scoped fan-out and the persistent pool.
//!
//! The build environment is offline — no rayon, no tokio — so both shapes
//! are built on std threads only:
//!
//! * [`fan_out`] spawns **scoped** threads per query: one OS thread per
//!   non-empty shard but the last, which runs on the calling thread,
//!   borrowing the caller's data for the duration of the query. Right for
//!   one-shot queries and for boot — the scope guarantees every result is
//!   back before the merge starts.
//! * [`ShardPool`] keeps **long-lived** workers pinned to shard indexes
//!   and broadcasts each request to all of them; the last shard runs on
//!   the broadcasting thread itself. Right for a serving runtime, where
//!   paying thread spawn/teardown per query would dominate
//!   sub-millisecond searches; the server broadcasts once per executed
//!   miss, so each extra shard costs one channel send and one wake-up.
//!
//! Both produce outputs in shard order regardless of completion order, so
//! swapping one for the other can never change result bytes.

/// Runs `work` on every element of `inputs` concurrently — one scoped
/// thread per element but the last, which runs on the calling thread — and
/// returns the outputs *in input order*, regardless of which thread
/// finished first.
///
/// As in [`ShardPool::broadcast`], the caller computes instead of sleeping
/// until the slowest thread is done, so `n` inputs are `n` runnable
/// threads, not `n + 1`. Empty inputs produce no thread at all; a single
/// input spawns none, so `shards = 1` has zero threading overhead and is
/// the exact sequential baseline the scaling bench compares against.
///
/// Panics in `work` propagate to the caller — a spawned thread's when it is
/// joined, the caller's own after the scope has joined the rest — so a
/// poisoned shard can never silently drop its slice of the corpus from the
/// merged ranking.
pub(crate) fn fan_out<T, R, F>(inputs: Vec<T>, work: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let mut inputs = inputs;
    let Some(own) = inputs.pop() else {
        return Vec::new();
    };
    let last = inputs.len();
    if last == 0 {
        return vec![work(0, own)];
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = inputs
            .into_iter()
            .enumerate()
            .map(|(i, input)| {
                scope.spawn({
                    let work = &work;
                    move || work(i, input)
                })
            })
            .collect();
        let own = work(last, own);
        let mut out: Vec<R> =
            handles.into_iter().map(|h| h.join().expect("shard worker panicked")).collect();
        out.push(own);
        out
    })
}

use std::panic::AssertUnwindSafe;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;

/// One unit of pool work: the shared request plus the channel the worker
/// answers on. The shard index is implicit — each worker knows its own.
type Job<Req, Resp> = (Arc<Req>, mpsc::Sender<(usize, Result<Resp, ShardPanic>)>);

/// A typed record of a shard panicking mid-request — what
/// [`ShardPool::broadcast`] returns for the affected shard instead of
/// re-raising on the calling thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ShardPanic {
    /// The shard that panicked.
    pub(crate) shard: usize,
    /// The panic payload's message (when it was a string).
    pub(crate) detail: String,
}

/// Runs one shard's request under `catch_unwind`: a panic becomes a typed
/// [`ShardPanic`] carrying its message, rendered the way the default hook
/// renders it.
fn run_caught<Req, Resp>(
    work: &ShardWork<Req, Resp>,
    shard: usize,
    req: &Req,
) -> Result<Resp, ShardPanic> {
    std::panic::catch_unwind(AssertUnwindSafe(|| work(shard, req))).map_err(|payload| {
        let detail = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_owned()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_owned()
        };
        ShardPanic { shard, detail }
    })
}

/// One worker: its job channel plus the join handle the pool reaps when it
/// drops.
struct Worker<Req, Resp> {
    sender: mpsc::Sender<Job<Req, Resp>>,
    handle: JoinHandle<()>,
}

/// A pool of long-lived worker threads, one pinned to each shard index
/// but the last, answering broadcast requests until dropped.
///
/// Where [`fan_out`] pays a thread spawn per shard per query, the pool
/// pays it once at construction: [`ShardPool::broadcast`] hands the shared
/// request to every worker over a channel and collects one response per
/// shard, returned **in shard order** regardless of completion order —
/// the same ordering contract as `fan_out`, so the two are byte-for-byte
/// interchangeable above the merge.
///
/// ## The caller's shard
///
/// The last shard has no thread: `broadcast` runs it on the calling
/// thread, which would otherwise sleep until the slowest worker answered.
/// `n` shards are therefore `n` runnable threads, not `n + 1`, and one of
/// them is already on a CPU when the round starts. Measured on a two-CPU
/// box with two shards: with a worker per shard the kernel had to place
/// two woken threads while their waker went to sleep, and for seconds at a
/// time it queued both on one CPU beside an idle one (shard time doubled,
/// op p50 0.29 → 0.47 ms from one run to the next); with the caller
/// computing, the one woken worker finds the other CPU idle every time.
/// A single-shard pool spawns no thread and wakes nobody.
///
/// ## Panics
///
/// Every shard, the workers' and the caller's, runs each request under
/// `catch_unwind`. A panic becomes a typed [`ShardPanic`] outcome for the
/// affected broadcast — it can never silently vanish from a merged
/// ranking, and it never takes the calling thread (the session executing
/// the miss) down with it. The shard then keeps serving: its next request
/// is a fresh call of the same closure over the same shared state, so it
/// produces bytes identical to a fault-free run. A worker thread holds
/// nothing but its channel, so there is nothing to rebuild. Each recovered
/// shard is counted ([`ShardPool::restarts`]) for the serving metrics.
pub(crate) struct ShardPool<Req, Resp> {
    /// Workers of shards `0..shards - 1`; shard `shards - 1` is the
    /// caller's.
    workers: Vec<Worker<Req, Resp>>,
    /// The shared per-shard work closure: every worker holds a clone, and
    /// the caller's shard runs it here.
    work: ShardWork<Req, Resp>,
    restarts: u64,
}

/// The shared per-shard work closure.
type ShardWork<Req, Resp> = Arc<dyn Fn(usize, &Req) -> Resp + Send + Sync>;

impl<Req, Resp> ShardPool<Req, Resp>
where
    Req: Send + Sync + 'static,
    Resp: Send + 'static,
{
    /// A pool of `shards` shards (at least one): a worker for each but the
    /// last, every shard running `work(shard_index, &request)` for every
    /// broadcast request.
    pub(crate) fn new<F>(shards: usize, work: F) -> ShardPool<Req, Resp>
    where
        F: Fn(usize, &Req) -> Resp + Send + Sync + 'static,
    {
        assert!(shards > 0, "a shard pool needs at least one shard");
        let work: ShardWork<Req, Resp> = Arc::new(work);
        let workers = (0..shards - 1).map(|shard| spawn_worker(shard, Arc::clone(&work))).collect();
        ShardPool { workers, work, restarts: 0 }
    }

    /// How many shards have been recovered after a panic over the pool's
    /// lifetime: one per failed shard outcome.
    pub(crate) fn restarts(&self) -> u64 {
        self.restarts
    }

    /// Runs `req` on every shard — the workers', then the caller's on this
    /// thread — and returns one outcome per shard, in shard order:
    /// `Ok(response)`, or a typed [`ShardPanic`] for any shard that
    /// panicked. A shard that panicked keeps serving, so the next broadcast
    /// runs on a full pool.
    pub(crate) fn broadcast(&mut self, req: Req) -> Vec<Result<Resp, ShardPanic>> {
        let req = Arc::new(req);
        let (reply_tx, reply_rx) = mpsc::channel::<(usize, Result<Resp, ShardPanic>)>();
        for worker in &self.workers {
            // A send can only fail if the worker thread is gone (a panic
            // outside `catch_unwind`); the missing reply is synthesised
            // below.
            let _ = worker.sender.send((Arc::clone(&req), reply_tx.clone()));
        }
        drop(reply_tx);
        let own = self.workers.len();
        let mut slots: Vec<Option<Result<Resp, ShardPanic>>> = (0..=own).map(|_| None).collect();
        slots[own] = Some(run_caught(&self.work, own, &req));
        while let Ok((shard, outcome)) = reply_rx.recv() {
            debug_assert!(slots[shard].is_none(), "duplicate response from shard {shard}");
            slots[shard] = Some(outcome);
        }
        slots
            .into_iter()
            .enumerate()
            .map(|(shard, outcome)| {
                let outcome = outcome.unwrap_or_else(|| {
                    // The worker thread ended without sending its typed
                    // outcome — treat it exactly like a reported panic.
                    Err(ShardPanic { shard, detail: "worker died without replying".to_owned() })
                });
                if outcome.is_err() {
                    self.restarts += 1;
                }
                outcome
            })
            .collect()
    }
}

/// Spawns the worker loop for one shard.
fn spawn_worker<Req, Resp>(shard: usize, work: ShardWork<Req, Resp>) -> Worker<Req, Resp>
where
    Req: Send + Sync + 'static,
    Resp: Send + 'static,
{
    let (tx, rx) = mpsc::channel::<Job<Req, Resp>>();
    let handle = std::thread::Builder::new()
        .name(format!("xsact-shard-{shard}"))
        .spawn(move || {
            // Ends when the pool drops its sender (or mid-broadcast if the
            // pool itself is gone; the reply send then fails harmlessly
            // into a dropped receiver).
            while let Ok((req, reply)) = rx.recv() {
                // A caught panic is reported and the loop goes on: the
                // next request is a fresh call of the same closure.
                let _ = reply.send((shard, run_caught(&work, shard, &req)));
            }
        })
        .expect("failed to spawn shard worker");
    Worker { sender: tx, handle }
}

impl<Req, Resp> Drop for ShardPool<Req, Resp> {
    fn drop(&mut self) {
        // Disconnect the job channels so every worker's `recv` ends, then
        // join.
        for worker in self.workers.drain(..) {
            drop(worker.sender);
            let _ = worker.handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn outputs_keep_input_order() {
        // Make later inputs finish first to prove ordering is positional,
        // not completion-based.
        let inputs = vec![30u64, 20, 10, 0];
        let out = fan_out(inputs, |i, delay_ms| {
            std::thread::sleep(std::time::Duration::from_millis(delay_ms));
            (i, delay_ms)
        });
        assert_eq!(out, vec![(0, 30), (1, 20), (2, 10), (3, 0)]);
    }

    #[test]
    fn empty_and_single_inputs() {
        let none: Vec<u32> = Vec::new();
        assert!(fan_out(none, |_, x: u32| x).is_empty());
        assert_eq!(fan_out(vec![5], |i, x: u32| x + i as u32), vec![5]);
    }

    #[test]
    fn single_input_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let out = fan_out(vec![()], |_, ()| std::thread::current().id());
        assert_eq!(out, vec![caller]);
    }

    #[test]
    fn every_input_processed_exactly_once() {
        let calls = AtomicUsize::new(0);
        let out = fan_out((0..16).collect::<Vec<usize>>(), |i, x| {
            calls.fetch_add(1, Ordering::Relaxed);
            assert_eq!(i, x);
            x * x
        });
        assert_eq!(calls.load(Ordering::Relaxed), 16);
        assert_eq!(out, (0..16).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn worker_panic_propagates() {
        let caught = std::panic::catch_unwind(|| {
            fan_out(vec![1u32, 2], |_, x| if x == 2 { panic!("shard died") } else { x })
        });
        assert!(caught.is_err());
    }

    /// The last input is the caller's: `n` inputs spawn `n - 1` threads,
    /// and the outputs still come back in input order.
    #[test]
    fn the_last_input_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        for n in [2, 3, 5] {
            let out = fan_out((0..n).collect(), |i, x: usize| (i, x, std::thread::current().id()));
            assert_eq!(out.iter().map(|&(i, x, _)| (i, x)).collect::<Vec<_>>(), {
                (0..n).map(|i| (i, i)).collect::<Vec<_>>()
            });
            assert_eq!(out[n - 1].2, caller, "{n} inputs: the last is the caller's");
            let mut spawned: Vec<_> = out[..n - 1].iter().map(|&(_, _, id)| id).collect();
            spawned.sort_by_key(|id| format!("{id:?}"));
            spawned.dedup();
            assert_eq!(spawned.len(), n - 1, "{n} inputs: a thread per other input");
            assert!(!spawned.contains(&caller), "{n} inputs");
        }
    }

    /// A panic in any input — a spawned thread's, or the caller's own while
    /// the others still run — reaches the caller.
    #[test]
    fn a_panic_in_any_input_reaches_the_caller() {
        for n in [2usize, 4] {
            for dies in 0..n {
                let done = AtomicUsize::new(0);
                let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    fan_out((0..n).collect(), |_, x: usize| {
                        if x == dies {
                            panic!("input {x} died");
                        }
                        done.fetch_add(1, Ordering::Relaxed);
                    })
                }));
                assert!(caught.is_err(), "{n} inputs, input {dies} panicked");
                assert_eq!(done.load(Ordering::Relaxed), n - 1, "the others were joined");
            }
        }
    }

    /// Unwraps every per-shard outcome of a fault-free broadcast.
    fn all_ok<Resp>(outcomes: Vec<Result<Resp, ShardPanic>>) -> Vec<Resp> {
        outcomes.into_iter().map(|o| o.expect("no shard panicked")).collect()
    }

    #[test]
    fn pool_broadcast_returns_shard_ordered_responses() {
        let mut pool: ShardPool<u32, (usize, u32)> = ShardPool::new(4, |shard, req| {
            // Later shards answer first to prove ordering is positional.
            std::thread::sleep(std::time::Duration::from_millis(30 - 10 * (shard as u64 % 4)));
            (shard, *req * 2)
        });
        assert_eq!(pool.workers.len(), 3, "a worker per shard but the caller's");
        let out = all_ok(pool.broadcast(21));
        assert_eq!(out, vec![(0, 42), (1, 42), (2, 42), (3, 42)]);
    }

    #[test]
    fn pool_workers_persist_across_broadcasts() {
        use std::thread::ThreadId;
        let mut pool: ShardPool<bool, ThreadId> = ShardPool::new(2, |_, panics: &bool| {
            assert!(!*panics, "injected");
            std::thread::current().id()
        });
        let first = all_ok(pool.broadcast(false));
        let second = all_ok(pool.broadcast(false));
        assert_eq!(first, second, "each shard keeps its pinned thread");
        assert_ne!(first[0], first[1], "shards run on distinct threads");
        assert_eq!(pool.restarts(), 0);
        // A worker that caught a panic keeps serving on the same thread.
        assert!(pool.broadcast(true).iter().all(Result::is_err));
        assert_eq!(all_ok(pool.broadcast(false)), first, "no thread was replaced");
        assert_eq!(pool.restarts(), 2);
    }

    #[test]
    fn the_last_shard_runs_on_the_calling_thread() {
        use std::thread::ThreadId;
        let caller = std::thread::current().id();
        let mut pool: ShardPool<(), ThreadId> =
            ShardPool::new(3, |_, ()| std::thread::current().id());
        let ids = all_ok(pool.broadcast(()));
        assert_eq!(ids[2], caller);
        assert!(ids[0] != caller && ids[1] != caller && ids[0] != ids[1]);
        // One shard is the caller's alone: no thread, no wake-up.
        let mut single: ShardPool<(), ThreadId> =
            ShardPool::new(1, |_, ()| std::thread::current().id());
        assert_eq!(all_ok(single.broadcast(())), vec![caller]);
    }

    #[test]
    fn pool_matches_fan_out_byte_for_byte() {
        let inputs: Vec<usize> = (0..6).collect();
        let scoped = fan_out(inputs, |i, x| format!("shard {i} item {x}"));
        let mut pool: ShardPool<Vec<usize>, Vec<String>> =
            ShardPool::new(6, |i, req: &Vec<usize>| vec![format!("shard {i} item {}", req[i])]);
        let pooled: Vec<String> =
            all_ok(pool.broadcast((0..6).collect())).into_iter().flatten().collect();
        assert_eq!(scoped, pooled);
    }

    #[test]
    fn pool_worker_panic_is_a_typed_outcome_not_a_crash() {
        let trip = Arc::new(AtomicUsize::new(0));
        let mut pool: ShardPool<u32, u32> = ShardPool::new(3, {
            let trip = Arc::clone(&trip);
            move |shard, req| {
                if shard == 1 && trip.fetch_add(1, Ordering::Relaxed) == 0 {
                    panic!("shard died");
                }
                *req
            }
        });
        let outcomes = pool.broadcast(7);
        assert_eq!(outcomes[0], Ok(7), "healthy shards still answer");
        assert_eq!(outcomes[2], Ok(7));
        let panic = outcomes[1].as_ref().unwrap_err();
        assert_eq!(panic.shard, 1);
        assert_eq!(panic.detail, "shard died", "panic message survives in the typed outcome");
        assert_eq!(pool.restarts(), 1);
    }

    #[test]
    fn pool_recovers_byte_identical_after_a_panic() {
        let trip = Arc::new(AtomicUsize::new(0));
        let mut pool: ShardPool<u32, String> = ShardPool::new(2, {
            let trip = Arc::clone(&trip);
            move |shard, req| {
                if shard == 1 && trip.fetch_add(1, Ordering::Relaxed) == 0 {
                    panic!("injected");
                }
                format!("shard {shard} saw {req}")
            }
        });
        let mut oracle: ShardPool<u32, String> =
            ShardPool::new(2, |shard, req| format!("shard {shard} saw {req}"));
        assert!(pool.broadcast(1)[1].is_err(), "first broadcast trips the fault");
        // Every broadcast after the panic matches the fault-free pool.
        for req in [1u32, 2, 3] {
            assert_eq!(all_ok(pool.broadcast(req)), all_ok(oracle.broadcast(req)));
        }
        assert_eq!(pool.restarts(), 1, "one panic, one recovery");
    }

    #[test]
    fn pool_survives_repeated_panics_on_every_shard() {
        let mut pool: ShardPool<u32, u32> = ShardPool::new(3, |_, req| {
            if *req == 0 {
                panic!("poisoned request");
            }
            *req
        });
        for round in 1..=3u32 {
            assert!(pool.broadcast(0).iter().all(Result::is_err), "every shard fails");
            assert_eq!(all_ok(pool.broadcast(round)), vec![round; 3], "then all recover");
            assert_eq!(pool.restarts(), u64::from(round) * 3);
        }
    }

    #[test]
    fn pool_drop_joins_workers_cleanly() {
        let done = Arc::new(AtomicUsize::new(0));
        let mut pool: ShardPool<u32, u32> = ShardPool::new(3, {
            let done = Arc::clone(&done);
            move |_, req| {
                done.fetch_add(1, Ordering::Relaxed);
                *req
            }
        });
        pool.broadcast(1);
        drop(pool);
        assert_eq!(done.load(Ordering::Relaxed), 3);
    }
}
