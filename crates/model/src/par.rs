//! The workspace's one parallel fan-out: run `work(0..n)` on a few scoped
//! threads and hand the results over in index order.
//!
//! Indices are claimed from a shared atomic counter, so uneven item costs
//! balance by themselves, and each result reaches the caller's `deliver`
//! callback in index order as soon as its prefix is complete. What the
//! caller sees therefore never depends on which thread computed what — the
//! property every any-thread-count determinism guarantee leans on. The
//! portfolio rounds, the scenario suite, the corpus runner and the load
//! harness all fan out through [`ordered_parallel`].
//!
//! ```
//! use ftes_model::par::ordered_parallel;
//! use std::ops::ControlFlow;
//!
//! let mut squares = Vec::new();
//! let delivered = ordered_parallel(5, 2, None, |i| i * i, |_, sq| {
//!     squares.push(sq);
//!     ControlFlow::Continue(())
//! });
//! assert_eq!((delivered, squares), (5, vec![0, 1, 4, 9, 16]));
//! ```

use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `work(i)` for every `i` in `0..n` on up to `threads` threads and
/// passes each result to `deliver(i, result)` in index order, as soon as
/// results `0..=i` are all done.
///
/// - `threads` is clamped to `1..=n`, and the calling thread is one of
///   them: a one-thread run spawns nothing and calls `work` and `deliver`
///   on the caller's thread.
/// - Threads stop claiming indices once `cancel` is observed set or
///   `deliver` returns [`ControlFlow::Break`]. Claimed work always
///   finishes; after a `Break` nothing more is delivered.
///
/// Returns the number of results delivered (a `Break`ing delivery counts),
/// so a run was cut short exactly when the result is below `n`.
pub fn ordered_parallel<T, W, D>(
    n: usize,
    threads: usize,
    cancel: Option<&AtomicBool>,
    work: W,
    deliver: D,
) -> usize
where
    T: Send,
    W: Fn(usize) -> T + Sync,
    D: FnMut(usize, T) -> ControlFlow<()> + Send,
{
    struct Order<T, D> {
        slots: Vec<Option<T>>,
        next: usize,
        stopped: bool,
        deliver: D,
    }
    let order = Mutex::new(Order {
        slots: (0..n).map(|_| None).collect(),
        next: 0,
        stopped: false,
        deliver,
    });
    let claim = AtomicUsize::new(0);
    let run = || {
        while !cancel.is_some_and(|c| c.load(Ordering::Acquire)) {
            let i = claim.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let result = work(i);
            let mut o = order.lock().expect("ordered_parallel state poisoned");
            o.slots[i] = Some(result);
            while !o.stopped && o.next < n {
                let at = o.next;
                let Some(result) = o.slots[at].take() else { break };
                o.next += 1;
                o.stopped = (o.deliver)(at, result).is_break();
            }
            if o.stopped {
                // Every later claim lands past the end.
                claim.store(n, Ordering::Relaxed);
                break;
            }
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..threads.clamp(1, n.max(1)) {
            scope.spawn(run);
        }
        run();
    });
    order.into_inner().expect("ordered_parallel state poisoned").next
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn collect(n: usize, threads: usize) -> (usize, Vec<(usize, usize)>) {
        let mut out = Vec::new();
        let delivered = ordered_parallel(
            n,
            threads,
            None,
            |i| i * i,
            |i, sq| {
                out.push((i, sq));
                ControlFlow::Continue(())
            },
        );
        (delivered, out)
    }

    #[test]
    fn delivers_in_index_order_at_any_thread_count() {
        for threads in [1, 2, 7] {
            let (delivered, out) = collect(100, threads);
            assert_eq!(delivered, 100);
            assert_eq!(out, (0..100).map(|i| (i, i * i)).collect::<Vec<_>>(), "{threads} threads");
        }
        assert_eq!(collect(0, 4), (0, Vec::new()));
    }

    #[test]
    fn a_break_stops_claiming_and_delivering() {
        let ran = AtomicUsize::new(0);
        let mut seen = Vec::new();
        let delivered = ordered_parallel(
            10,
            1,
            None,
            |i| {
                ran.fetch_add(1, Ordering::Relaxed);
                i
            },
            |i, _| {
                seen.push(i);
                if i == 2 {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            },
        );
        assert_eq!(delivered, 3);
        assert_eq!(seen, vec![0, 1, 2]);
        assert_eq!(ran.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn a_pre_set_cancel_flag_runs_nothing() {
        let cancel = AtomicBool::new(true);
        let ran = AtomicUsize::new(0);
        let delivered = ordered_parallel(
            8,
            3,
            Some(&cancel),
            |_| ran.fetch_add(1, Ordering::Relaxed),
            |_, _| ControlFlow::Continue(()),
        );
        assert_eq!((delivered, ran.load(Ordering::Relaxed)), (0, 0));
    }

    #[test]
    fn a_cancel_from_deliver_leaves_a_contiguous_prefix() {
        for threads in [1, 3] {
            let cancel = AtomicBool::new(false);
            let mut seen = Vec::new();
            let delivered = ordered_parallel(
                50,
                threads,
                Some(&cancel),
                |i| i,
                |i, v| {
                    seen.push(v);
                    if i == 4 {
                        cancel.store(true, Ordering::Release);
                    }
                    ControlFlow::Continue(())
                },
            );
            // Results already claimed may still complete the prefix.
            assert!((5..=50).contains(&delivered), "{threads} threads: {delivered}");
            if threads == 1 {
                assert_eq!(delivered, 5);
            }
            assert_eq!(seen, (0..delivered).collect::<Vec<_>>());
        }
    }

    #[test]
    fn one_thread_runs_work_and_deliver_on_the_caller() {
        let caller = thread::current().id();
        let delivered = ordered_parallel(
            4,
            1,
            None,
            |_| thread::current().id(),
            |_, worker| {
                assert_eq!(worker, caller, "work ran on the caller's thread");
                assert_eq!(thread::current().id(), caller, "deliver ran on the caller's thread");
                ControlFlow::Continue(())
            },
        );
        assert_eq!(delivered, 4);
    }
}
