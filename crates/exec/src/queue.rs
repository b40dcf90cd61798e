//! A bounded multi-producer / multi-consumer work queue built on
//! `Mutex` + `Condvar`.
//!
//! The workspace builds hermetically, so this plays the role a
//! `crossbeam_channel::bounded` queue would otherwise fill: producers
//! block once `capacity` items are in flight (backpressure against
//! unbounded fan-out), consumers block until work or close.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// Bounded blocking MPMC queue.
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` in-flight items.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        BoundedQueue {
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        }
    }

    /// Blocks until there is room, then enqueues `item`.
    ///
    /// Returns `false` (dropping the item) when the queue is closed —
    /// closing is how a panicked consumer unblocks its producer instead
    /// of deadlocking it.
    pub fn push(&self, item: T) -> bool {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        while st.items.len() >= self.capacity && !st.closed {
            st = self
                .not_full
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if st.closed {
            return false;
        }
        st.items.push_back(item);
        drop(st);
        self.not_empty.notify_one();
        true
    }

    /// Enqueues `item` only if there is room right now; never blocks.
    /// Returns whether the item was enqueued (it is dropped otherwise).
    pub fn try_push(&self, item: T) -> bool {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if st.closed || st.items.len() >= self.capacity {
            return false;
        }
        st.items.push_back(item);
        drop(st);
        self.not_empty.notify_one();
        true
    }

    /// Blocks until an item is available; `None` once the queue is closed
    /// and drained.
    pub fn pop(&self) -> Option<T> {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(item) = st.items.pop_front() {
                drop(st);
                self.not_full.notify_one();
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = self
                .not_empty
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Items currently enqueued (a racy sample by nature — fine for the
    /// queue-depth gauge, useless for synchronization).
    pub fn len(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .items
            .len()
    }

    /// Whether the queue currently holds no items (same caveat as
    /// [`BoundedQueue::len`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Closes the queue: pending pops drain the remainder, new pushes are
    /// rejected, blocked parties wake up.
    pub fn close(&self) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.closed = true;
        drop(st);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn fifo_within_capacity() {
        let q = BoundedQueue::new(4);
        assert!(q.push(1));
        assert!(q.push(2));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        q.close();
        assert_eq!(q.pop(), None);
        assert!(!q.push(3), "closed queue rejects pushes");
    }

    #[test]
    fn producer_blocks_at_capacity_until_consumed() {
        let q = BoundedQueue::new(1);
        let produced = AtomicUsize::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..100 {
                    q.push(i);
                    produced.fetch_add(1, Ordering::SeqCst);
                }
                q.close();
            });
            let mut got = Vec::new();
            while let Some(v) = q.pop() {
                // Capacity 1: the producer can be at most one element
                // (plus the in-flight push) ahead of the consumer.
                got.push(v);
                assert!(produced.load(Ordering::SeqCst) <= got.len() + 2);
            }
            assert_eq!(got, (0..100).collect::<Vec<_>>());
        });
    }

    #[test]
    fn try_push_never_blocks() {
        let q = BoundedQueue::new(1);
        assert!(q.try_push(1));
        assert!(!q.try_push(2), "full queue rejects without blocking");
        assert_eq!(q.pop(), Some(1));
        q.close();
        assert!(!q.try_push(3), "closed queue rejects");
    }

    #[test]
    fn close_drains_remaining_items() {
        let q = BoundedQueue::new(8);
        q.push("a");
        q.push("b");
        q.close();
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), Some("b"));
        assert_eq!(q.pop(), None);
    }
}
