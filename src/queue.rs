//! The bounded submission queue: admission control made explicit.
//!
//! A serving runtime under overload has exactly three options: queue
//! without bound (latency grows until every caller times out), block the
//! submitter (the overload spreads backwards into the callers), or
//! **reject with a typed error** so the caller can back off. This queue
//! implements the third: [`SubmissionQueue::push`] never blocks — when the
//! queue is at capacity it returns [`Rejected::Full`] carrying the depth
//! the caller collided with.
//!
//! Shutdown is a *drain*, not an abort: [`SubmissionQueue::close`] turns
//! new submissions away ([`Rejected::Closed`]) but [`SubmissionQueue::pop`]
//! keeps handing out queued work until the queue is empty, and only then
//! reports the end (`None`). Work that was admitted is work that gets
//! answered.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a submission was turned away at the door.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Rejected {
    /// The queue is at capacity: `depth` submissions are already waiting.
    Full {
        /// Queue depth at rejection time (= the configured capacity).
        depth: usize,
        /// The configured capacity.
        capacity: usize,
    },
    /// The queue was closed (server shutting down); no new work is
    /// admitted, queued work is still drained.
    Closed,
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer queue with non-blocking, typed admission and
/// drain-on-close semantics. See the module docs.
pub(crate) struct SubmissionQueue<T> {
    state: Mutex<QueueState<T>>,
    ready: Condvar,
    capacity: usize,
}

impl<T> SubmissionQueue<T> {
    /// A queue admitting at most `capacity` waiting submissions. Zero is a
    /// valid capacity: every push is rejected — useful as a deterministic
    /// "always overloaded" server in tests.
    pub(crate) fn new(capacity: usize) -> SubmissionQueue<T> {
        SubmissionQueue {
            state: Mutex::new(QueueState { items: VecDeque::new(), closed: false }),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// The configured capacity.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Submissions currently waiting.
    pub(crate) fn depth(&self) -> usize {
        self.state.lock().expect("queue lock poisoned").items.len()
    }

    /// Admits `item`, or rejects it without blocking. A rejected item is
    /// dropped — the caller learns synchronously and still owns the means
    /// to retry (rebuilding a submission is cheap; blocking a caller under
    /// overload is not).
    pub(crate) fn push(&self, item: T) -> Result<(), Rejected> {
        let mut state = self.state.lock().expect("queue lock poisoned");
        if state.closed {
            return Err(Rejected::Closed);
        }
        if state.items.len() >= self.capacity {
            return Err(Rejected::Full { depth: state.items.len(), capacity: self.capacity });
        }
        state.items.push_back(item);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks until a submission is available and returns it; returns
    /// `None` only when the queue is closed **and** drained — every
    /// admitted submission is handed out exactly once before the end.
    pub(crate) fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("queue lock poisoned");
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).expect("queue lock poisoned");
        }
    }

    /// Closes the queue: future pushes fail with [`Rejected::Closed`],
    /// waiting poppers are woken, queued submissions keep draining.
    /// Idempotent.
    pub(crate) fn close(&self) {
        self.state.lock().expect("queue lock poisoned").closed = true;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_pop_is_fifo() {
        let q = SubmissionQueue::new(8);
        for i in 0..5 {
            q.push(i).unwrap();
        }
        assert_eq!(q.depth(), 5);
        for i in 0..5 {
            assert_eq!(q.pop(), Some(i));
        }
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn full_queue_rejects_with_depth_and_capacity() {
        let q = SubmissionQueue::new(2);
        q.push('a').unwrap();
        q.push('b').unwrap();
        assert_eq!(q.push('c'), Err(Rejected::Full { depth: 2, capacity: 2 }));
        // Draining one slot re-admits.
        assert_eq!(q.pop(), Some('a'));
        q.push('c').unwrap();
    }

    #[test]
    fn zero_capacity_rejects_everything() {
        let q = SubmissionQueue::new(0);
        assert_eq!(q.push(1), Err(Rejected::Full { depth: 0, capacity: 0 }));
    }

    #[test]
    fn close_drains_then_ends() {
        let q = SubmissionQueue::new(8);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.close();
        assert_eq!(q.push(3), Err(Rejected::Closed));
        // Admitted work still drains, in order, before the end marker.
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None, "closed queue stays ended");
    }

    #[test]
    fn close_wakes_blocked_poppers() {
        let q = Arc::new(SubmissionQueue::<u32>::new(4));
        let popper = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        // Give the popper a moment to block, then close.
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(popper.join().unwrap(), None);
    }

    #[test]
    fn concurrent_pushers_and_poppers_lose_nothing() {
        const PER_THREAD: usize = 200;
        const PUSHERS: usize = 4;
        let q = Arc::new(SubmissionQueue::new(PUSHERS * PER_THREAD));
        let mut handles = Vec::new();
        for t in 0..PUSHERS {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    q.push(t * PER_THREAD + i).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        q.close();
        let mut seen = Vec::new();
        while let Some(x) = q.pop() {
            seen.push(x);
        }
        seen.sort();
        assert_eq!(seen, (0..PUSHERS * PER_THREAD).collect::<Vec<_>>());
    }
}
