//! The shard pool: the one fan-out.
//!
//! A [`Corpus`](crate::Corpus) owns one [`ShardPool`], and every parallel
//! step of the facade runs on it: the ingest (a job per ingest worker),
//! every query over several documents (a job per shard, ranked or in
//! document order) and every result-page cache miss of a served corpus.
//! The build environment is offline — no rayon, no tokio — so the pool is
//! std threads and channels only:
//!
//! * **Jobs own what they read.** A run takes one boxed
//!   `FnOnce() -> R + Send + 'static` per shard, holding `Arc`s of the
//!   corpus's documents and whatever the job needs, so a worker never
//!   borrows from the caller.
//! * **Worker `i` runs shard `i`** of every run, and the pool grows to the
//!   widest run asked of it; the workers are joined when the corpus drops.
//!   A worker holds nothing between jobs: each job's buffers are its own.
//! * **The caller computes the last shard** (see [`ShardPool::run`]), so a
//!   single job never wakes a worker and `n` shards are `n` runnable
//!   threads.
//! * **Outcomes come back in shard order**, whatever order they finish in,
//!   so the pool can never change result bytes above the merge.
//! * **A panic is an outcome.** Each job runs under `catch_unwind`; a
//!   served miss turns a [`ShardPanic`] into the typed `ShardFailed`, and
//!   an in-process run re-raises it on the caller's thread ([`or_raise`]).

use std::panic::AssertUnwindSafe;
use std::sync::mpsc;
use std::sync::{Mutex, PoisonError};
use std::thread::JoinHandle;

/// One shard's job.
pub(crate) type Job<R> = Box<dyn FnOnce() -> R + Send>;

/// What a worker runs: a job with its reply already attached.
type Task = Box<dyn FnOnce() + Send>;

/// A typed record of a shard panicking mid-run — what [`ShardPool::run`]
/// returns for the affected shard instead of re-raising on the calling
/// thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ShardPanic {
    /// The shard that panicked.
    pub(crate) shard: usize,
    /// The panic payload's message (when it was a string).
    pub(crate) detail: String,
}

/// An in-process run's output for one shard: a shard that panicked is
/// re-raised here, on the calling thread, naming the shard and carrying
/// its message — so no slice of a corpus is ever silently dropped.
pub(crate) fn or_raise<R>(outcome: Result<R, ShardPanic>) -> R {
    outcome.unwrap_or_else(|panic| panic!("shard {} panicked: {}", panic.shard, panic.detail))
}

/// Runs one shard's job under `catch_unwind`: a panic becomes a typed
/// [`ShardPanic`] carrying its message, rendered the way the default hook
/// renders it.
fn run_caught<R>(shard: usize, job: Job<R>) -> Result<R, ShardPanic> {
    std::panic::catch_unwind(AssertUnwindSafe(job)).map_err(|payload| {
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

/// One worker: its task channel plus the join handle the pool reaps when
/// it drops.
#[derive(Debug)]
struct Worker {
    sender: mpsc::Sender<Task>,
    handle: JoinHandle<()>,
}

impl Worker {
    /// Spawns the worker loop of shard `shard`.
    fn spawn(shard: usize) -> Worker {
        let (sender, tasks) = mpsc::channel::<Task>();
        let handle = std::thread::Builder::new()
            .name(format!("xsact-shard-{shard}"))
            // Ends when the pool drops its sender. A task cannot unwind:
            // its job is caught and its reply send cannot panic.
            .spawn(move || tasks.into_iter().for_each(|task| task()))
            .expect("failed to spawn shard worker");
        Worker { sender, handle }
    }
}

/// Long-lived shard workers, one per shard but the last; see the module
/// docs.
///
/// ## The caller's shard
///
/// The last job of a run has no worker: [`run`](Self::run) runs it on the
/// calling thread, which would otherwise sleep until the slowest worker
/// answered. `n` shards are therefore `n` runnable threads, not `n + 1`,
/// and one of them is already on a CPU when the run starts. Measured on a
/// two-CPU box with two shards: with a worker per shard the kernel had to
/// place two woken threads while their waker went to sleep, and for
/// seconds at a time it queued both on one CPU beside an idle one (shard
/// time doubled, op p50 0.29 → 0.47 ms from one run to the next); with the
/// caller computing, the one woken worker finds the other CPU idle every
/// time.
///
/// ## Concurrent runs
///
/// Runs may come from several threads at once (concurrent queries of one
/// corpus): each worker takes its tasks in arrival order, so two runs
/// share the workers and neither waits for a lock while the other
/// computes.
#[derive(Debug)]
pub(crate) struct ShardPool {
    /// Workers of shards `0..`, as many as the widest run so far needed.
    workers: Mutex<Vec<Worker>>,
}

impl ShardPool {
    /// A pool with no worker yet: the first run that needs one spawns it.
    pub(crate) fn new() -> ShardPool {
        ShardPool { workers: Mutex::new(Vec::new()) }
    }

    /// Runs `jobs[i]` as shard `i` — the last on this thread, every other
    /// on worker `i` — and returns one outcome per job, in shard order:
    /// its output, or a typed [`ShardPanic`] for a job that panicked. A
    /// worker whose job panicked keeps serving: the next run finds a full
    /// pool.
    pub(crate) fn run<R: Send + 'static>(&self, jobs: Vec<Job<R>>) -> Vec<Result<R, ShardPanic>> {
        let n = jobs.len();
        let mut jobs = jobs.into_iter();
        let inline = jobs.next_back();
        let (reply_tx, reply_rx) = mpsc::channel();
        {
            let mut workers = self.workers.lock().unwrap_or_else(PoisonError::into_inner);
            for (shard, job) in jobs.enumerate() {
                if shard == workers.len() {
                    workers.push(Worker::spawn(shard));
                }
                let reply = reply_tx.clone();
                // A send can only fail if the worker thread is gone; the
                // missing reply is synthesised below.
                let _ = workers[shard].sender.send(Box::new(move || {
                    let _ = reply.send((shard, run_caught(shard, job)));
                }));
            }
        }
        drop(reply_tx);
        let mut outcomes: Vec<Option<Result<R, ShardPanic>>> = (0..n).map(|_| None).collect();
        if let Some(job) = inline {
            outcomes[n - 1] = Some(run_caught(n - 1, job));
        }
        while let Ok((shard, outcome)) = reply_rx.recv() {
            outcomes[shard] = Some(outcome);
        }
        outcomes
            .into_iter()
            .enumerate()
            .map(|(shard, outcome)| {
                // A worker that ended without replying is treated exactly
                // like a reported panic.
                outcome.unwrap_or_else(|| {
                    Err(ShardPanic { shard, detail: "worker died without replying".to_owned() })
                })
            })
            .collect()
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        // Disconnect each task channel so its worker's loop ends, then join.
        let workers = self.workers.get_mut().unwrap_or_else(PoisonError::into_inner);
        for Worker { sender, handle } in workers.drain(..) {
            drop(sender);
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::thread::ThreadId;

    /// One boxed job per element of `inputs`, each running `work(shard,
    /// input)`.
    fn jobs<T: Send + 'static, R>(
        inputs: Vec<T>,
        work: impl Fn(usize, T) -> R + Send + Sync + Clone + 'static,
    ) -> Vec<Job<R>> {
        let jobs = inputs.into_iter().enumerate().map(|(shard, input)| {
            let work = work.clone();
            Box::new(move || work(shard, input)) as Job<R>
        });
        jobs.collect()
    }

    /// Unwraps every outcome of a run no job panicked in.
    fn all_ok<R>(outcomes: Vec<Result<R, ShardPanic>>) -> Vec<R> {
        outcomes.into_iter().map(|o| o.expect("no shard panicked")).collect()
    }

    /// The thread each of `n` jobs ran on.
    fn threads(pool: &ShardPool, n: usize) -> Vec<ThreadId> {
        all_ok(pool.run(jobs(vec![(); n], |_, ()| std::thread::current().id())))
    }

    /// What an in-process caller gets from a run of `inputs`: the outputs,
    /// or the message of the panic re-raised on its thread.
    fn in_process(pool: &ShardPool, inputs: Vec<usize>, dies: usize) -> Result<Vec<usize>, String> {
        let run = AssertUnwindSafe(|| {
            let run =
                pool.run(jobs(inputs, move |_, x| if x == dies { panic!("{x} died") } else { x }));
            run.into_iter().map(or_raise).collect()
        });
        std::panic::catch_unwind(run).map_err(|payload| *payload.downcast::<String>().unwrap())
    }

    /// Later shards finish first: the outcomes still come back by shard.
    #[test]
    fn outputs_keep_input_order() {
        let pool = ShardPool::new();
        let out = all_ok(pool.run(jobs(vec![60u64, 40, 20, 0], |shard, delay_ms| {
            std::thread::sleep(std::time::Duration::from_millis(delay_ms));
            (shard, delay_ms)
        })));
        assert_eq!(out, vec![(0, 60), (1, 40), (2, 20), (3, 0)]);
    }

    #[test]
    fn empty_and_single_inputs() {
        let pool = ShardPool::new();
        assert!(pool.run(jobs(Vec::<u32>::new(), |_, x| x)).is_empty());
        assert_eq!(all_ok(pool.run(jobs(vec![5u32], |shard, x| x + shard as u32))), vec![5]);
    }

    /// One job is the caller's alone: no worker is spawned or woken.
    #[test]
    fn single_input_runs_on_the_calling_thread() {
        let pool = ShardPool::new();
        assert_eq!(threads(&pool, 1), vec![std::thread::current().id()]);
        assert!(pool.workers.lock().unwrap().is_empty(), "no worker spawned");
    }

    #[test]
    fn every_input_processed_exactly_once() {
        let (pool, calls) = (ShardPool::new(), Arc::new(AtomicUsize::new(0)));
        let counted = Arc::clone(&calls);
        let out = all_ok(pool.run(jobs((0..16).collect(), move |shard, x: usize| {
            counted.fetch_add(1, Ordering::Relaxed);
            (shard == x).then_some(x * x)
        })));
        assert_eq!(calls.load(Ordering::Relaxed), 16);
        assert_eq!(out, (0..16).map(|x| Some(x * x)).collect::<Vec<_>>());
    }

    /// An in-process caller re-raises a worker's panic on its own thread.
    #[test]
    fn worker_panic_propagates() {
        let pool = ShardPool::new();
        assert_eq!(in_process(&pool, vec![1, 2], 1), Err("shard 0 panicked: 1 died".to_owned()));
        assert_eq!(in_process(&pool, vec![1, 2], 0), Ok(vec![1, 2]));
    }

    /// The last job is the caller's: `n` jobs use `n - 1` workers, one
    /// per other job.
    #[test]
    fn the_last_input_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        for n in [2, 3, 5] {
            let pool = ShardPool::new();
            let mut ids = threads(&pool, n);
            assert_eq!(ids.pop(), Some(caller), "{n} jobs: the last is the caller's");
            ids.sort_by_key(|id| format!("{id:?}"));
            ids.dedup();
            assert_eq!(ids.len(), n - 1, "{n} jobs: a worker per other job");
            assert!(!ids.contains(&caller), "{n} jobs");
            assert_eq!(pool.workers.lock().unwrap().len(), n - 1);
        }
    }

    /// A panic in any job — a worker's, or the caller's own while the
    /// others still run — reaches an in-process caller, naming its shard.
    #[test]
    fn a_panic_in_any_input_reaches_the_caller() {
        let pool = ShardPool::new();
        for n in [2usize, 4] {
            for dies in 0..n {
                let want = format!("shard {dies} panicked: {dies} died");
                assert_eq!(in_process(&pool, (0..n).collect(), dies), Err(want), "{n} jobs");
            }
        }
    }

    /// Runs of different widths each return their outcomes in shard
    /// order, and the pool grows to the widest run asked of it.
    #[test]
    fn pool_broadcast_returns_shard_ordered_responses() {
        let pool = ShardPool::new();
        for n in [4, 2, 6] {
            let out = all_ok(pool.run(jobs(vec![21u32; n], |shard, x| {
                std::thread::sleep(std::time::Duration::from_millis(5 * (6 - shard as u64)));
                (shard, x * 2)
            })));
            assert_eq!(out, (0..n).map(|shard| (shard, 42)).collect::<Vec<_>>());
        }
        assert_eq!(pool.workers.lock().unwrap().len(), 5, "a worker per shard but the caller's");
    }

    /// Each shard keeps its thread, also after catching a panic.
    #[test]
    fn pool_workers_persist_across_broadcasts() {
        let pool = ShardPool::new();
        let first = threads(&pool, 2);
        assert_eq!(threads(&pool, 2), first);
        assert_ne!(first[0], first[1], "shards run on distinct threads");
        let panics = pool.run(jobs(vec![(); 2], |_, ()| -> ThreadId { panic!("injected") }));
        assert!(panics.iter().all(Result::is_err));
        assert_eq!(threads(&pool, 2), first, "no thread was replaced");
    }

    /// The last shard is the caller's at every width, and shard `i` keeps
    /// its worker whether a run is narrower or wider than the last.
    #[test]
    fn the_last_shard_runs_on_the_calling_thread() {
        let (caller, pool) = (std::thread::current().id(), ShardPool::new());
        let three = threads(&pool, 3);
        assert_eq!(three[2], caller);
        assert!(three[0] != caller && three[1] != caller && three[0] != three[1]);
        let five = threads(&pool, 5);
        assert_eq!((&five[..2], five[4]), (&three[..2], caller), "shards 0 and 1 kept theirs");
        assert_eq!(threads(&pool, 2), [three[0], caller], "a narrower run");
        assert_eq!(pool.workers.lock().unwrap().len(), 4);
    }

    #[test]
    fn pool_worker_panic_is_a_typed_outcome_not_a_crash() {
        let pool = ShardPool::new();
        for dies in 0..3 {
            let outcomes = pool.run(jobs(vec![7; 3], move |shard, x: u32| {
                if shard == dies {
                    panic!("shard died");
                }
                x
            }));
            let mut want = vec![Ok(7); 3];
            want[dies] = Err(ShardPanic { shard: dies, detail: "shard died".to_owned() });
            assert_eq!(outcomes, want, "healthy shards still answer; the message survives");
        }
    }

    /// Every run after a panic matches a fault-free pool's.
    #[test]
    fn pool_recovers_byte_identical_after_a_panic() {
        let (pool, oracle) = (ShardPool::new(), ShardPool::new());
        let work = |trip: bool| {
            move |shard: usize, req: u32| {
                assert!(!trip || shard != 1, "injected");
                format!("shard {shard} saw {req}")
            }
        };
        assert!(pool.run(jobs(vec![1u32; 2], work(true)))[1].is_err(), "the fault trips");
        for req in [1u32, 2, 3] {
            let got = all_ok(pool.run(jobs(vec![req; 2], work(false))));
            assert_eq!(got, all_ok(oracle.run(jobs(vec![req; 2], work(false)))));
        }
    }

    #[test]
    fn pool_survives_repeated_panics_on_every_shard() {
        let pool = ShardPool::new();
        let work = |_, req: u32| {
            assert_ne!(req, 0, "poisoned request");
            req
        };
        for round in 1..=3u32 {
            assert!(pool.run(jobs(vec![0; 3], work)).iter().all(Result::is_err), "all fail");
            assert_eq!(all_ok(pool.run(jobs(vec![round; 3], work))), vec![round; 3], "all recover");
        }
    }

    #[test]
    fn pool_drop_joins_workers_cleanly() {
        let (pool, done) = (ShardPool::new(), Arc::new(AtomicUsize::new(0)));
        let counted = Arc::clone(&done);
        pool.run(jobs(vec![(); 3], move |_, ()| counted.fetch_add(1, Ordering::Relaxed)));
        drop(pool);
        assert_eq!(done.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn concurrent_runs_share_the_workers() {
        let pool = ShardPool::new();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let pool = &pool;
                scope.spawn(move || {
                    for round in 0..20 {
                        let want: Vec<u64> = (0..3).map(|s| t * 1000 + round * 10 + s).collect();
                        assert_eq!(all_ok(pool.run(jobs(want.clone(), |_, x| x))), want);
                    }
                });
            }
        });
    }
}
