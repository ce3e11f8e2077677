//! Per-thread SPSC event buffers and the global drain registry.
//!
//! Each recording thread owns one [`ThreadBuffer`]: a fixed array of slots
//! with a producer index (`head`, written only by the owning thread) and a
//! consumer index (`tail`, written only under the registry lock). The
//! owning thread is the single producer, the drainer — whoever holds the
//! registry mutex — the single consumer, so the pair of indices with
//! release/acquire publication is a textbook SPSC bounded queue:
//!
//! - **push** (owner): read `head` relaxed, read `tail` acquire; if full,
//!   bump the drop counter and return; otherwise write the slot, then
//!   publish with a release store of `head + 1`.
//! - **drain** (consumer): read `tail` relaxed, read `head` acquire, copy
//!   slots `tail..head`, then free them with a release store of `tail`.
//!
//! A full buffer **drops** the event instead of blocking or overwriting —
//! the pipeline must never stall on its own instrumentation — and counts
//! the drop so exporters can flag the hole.

use crate::{EventKind, TraceEvent};
use std::cell::UnsafeCell;
use std::sync::atomic::{fence, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Slots per thread. At 32 bytes a slot this is 512 KiB per recording
/// thread — roomy enough that a periodic drainer (the serve trace flusher
/// runs every second) never loses events in practice.
const CAPACITY: usize = 1 << 14;

/// One recorded event, before thread attribution.
#[derive(Clone, Copy)]
struct Slot {
    kind: EventKind,
    name: &'static str,
    value: u64,
    ts_ns: u64,
}

const EMPTY_SLOT: Slot = Slot { kind: EventKind::Count, name: "", value: 0, ts_ns: 0 };

/// A single thread's event buffer. Shared as `Arc`: the owning thread's
/// TLS keeps one reference for pushing, the registry keeps another so the
/// buffer can still be drained after the thread exits (the first drain
/// after that releases it).
struct ThreadBuffer {
    slots: Box<[UnsafeCell<Slot>]>,
    /// Producer index; monotonically increasing, wrapped by `% CAPACITY`
    /// on access.
    head: AtomicUsize,
    /// Consumer index; only advanced while holding the registry lock.
    tail: AtomicUsize,
    dropped: AtomicU64,
    tid: u32,
    thread_name: String,
}

// SAFETY: the slot array is a SPSC queue. The single producer (the owning
// thread, via TLS) writes only slots in `[head, tail + CAPACITY)` and
// publishes them with a release store; the single consumer (serialized by
// the registry mutex) reads only published slots `[tail, head)` after an
// acquire load. No slot is ever accessed concurrently.
unsafe impl Sync for ThreadBuffer {}
unsafe impl Send for ThreadBuffer {}

impl ThreadBuffer {
    fn new(tid: u32, thread_name: String) -> Self {
        ThreadBuffer {
            slots: (0..CAPACITY).map(|_| UnsafeCell::new(EMPTY_SLOT)).collect(),
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
            tid,
            thread_name,
        }
    }

    /// Producer side; must only be called from the owning thread.
    fn push(&self, kind: EventKind, name: &'static str, value: u64) {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        if head.wrapping_sub(tail) >= CAPACITY {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let ts_ns = epoch().elapsed().as_nanos() as u64;
        // SAFETY: slot `head % CAPACITY` is outside the published range
        // `[tail, head)`, so the consumer does not read it until the
        // release store below makes the write visible.
        unsafe {
            *self.slots[head % CAPACITY].get() = Slot { kind, name, value, ts_ns };
        }
        self.head.store(head.wrapping_add(1), Ordering::Release);
    }

    /// Consumer side; caller must hold the registry lock.
    fn drain_into(&self, out: &mut Vec<TraceEvent>) {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        let mut i = tail;
        while i != head {
            // SAFETY: `[tail, head)` was published by the producer's
            // release store and is not rewritten until `tail` advances.
            let slot = unsafe { *self.slots[i % CAPACITY].get() };
            out.push(TraceEvent {
                tid: self.tid,
                thread_name: self.thread_name.clone(),
                kind: slot.kind,
                name: slot.name,
                value: slot.value,
                ts_ns: slot.ts_ns,
            });
            i = i.wrapping_add(1);
        }
        self.tail.store(head, Ordering::Release);
    }
}

/// The buffers of live threads, plus those of exited threads until their
/// tail events are drained: [`drain_all`] releases a buffer once its
/// thread is gone, so a drain leaves buffers only for threads still
/// running.
static REGISTRY: Mutex<Vec<Arc<ThreadBuffer>>> = Mutex::new(Vec::new());
static NEXT_TID: AtomicU32 = AtomicU32::new(1);
/// Drops counted by buffers already released, so [`dropped_total`] never
/// goes backwards.
static RELEASED_DROPS: AtomicU64 = AtomicU64::new(0);

/// The process-wide trace epoch: all timestamps are nanoseconds since the
/// first recorded event.
fn epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

thread_local! {
    static LOCAL: Arc<ThreadBuffer> = {
        let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        let name = std::thread::current().name().unwrap_or("").to_string();
        let buf = Arc::new(ThreadBuffer::new(tid, name));
        REGISTRY.lock().expect("obs registry poisoned").push(Arc::clone(&buf));
        buf
    };
}

/// Records one event into the calling thread's buffer. Callers have
/// already checked the [`crate::enabled`] gate.
pub(crate) fn push(kind: EventKind, name: &'static str, value: u64) {
    // `try_with` so a trace call during TLS destruction (thread teardown)
    // degrades to a dropped event instead of a panic.
    let _ = LOCAL.try_with(|buf| buf.push(kind, name, value));
}

/// Drains every registered buffer (destructive, exactly-once delivery)
/// and releases the buffers of exited threads.
pub(crate) fn drain_all() -> Vec<TraceEvent> {
    let mut registry = REGISTRY.lock().expect("obs registry poisoned");
    let mut out = Vec::new();
    registry.retain(|buf| {
        // The registry's reference is the last one once the thread's TLS
        // is gone; checked before the drain, so nothing is pushed after.
        let exited = Arc::strong_count(buf) == 1;
        if exited {
            // Pairs with the TLS drop's release decrement: the thread's
            // last pushes and drops are visible from here on.
            fence(Ordering::Acquire);
            RELEASED_DROPS.fetch_add(buf.dropped.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        buf.drain_into(&mut out);
        !exited
    });
    out
}

/// Total events dropped to full buffers, across all threads.
pub(crate) fn dropped_total() -> u64 {
    let registry = REGISTRY.lock().expect("obs registry poisoned");
    let live: u64 = registry.iter().map(|b| b.dropped.load(Ordering::Relaxed)).sum();
    live + RELEASED_DROPS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_buffer_drops_instead_of_blocking() {
        let buf = ThreadBuffer::new(999, "t".into());
        for _ in 0..CAPACITY + 10 {
            buf.push(EventKind::Count, "x", 1);
        }
        assert_eq!(buf.dropped.load(Ordering::Relaxed), 10);
        let mut out = Vec::new();
        buf.drain_into(&mut out);
        assert_eq!(out.len(), CAPACITY);
        // Space is reclaimed after the drain.
        buf.push(EventKind::Count, "y", 2);
        out.clear();
        buf.drain_into(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].name, "y");
    }

    #[test]
    fn exited_threads_rings_are_drained_then_released() {
        let _g = crate::tests::GATE.lock().unwrap();
        let _ = drain_all();
        let before = dropped_total();
        // Spawned, not scoped: a joined spawned thread's TLS is gone.
        let handles: Vec<_> = (0..3)
            .map(|_| {
                std::thread::spawn(|| {
                    for i in 0..CAPACITY + 5 {
                        push(EventKind::Count, "ring_release", i as u64);
                    }
                    LOCAL.with(|buf| buf.tid)
                })
            })
            .collect();
        let tids: Vec<u32> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let events = drain_all();
        for tid in &tids {
            assert_eq!(events.iter().filter(|e| e.tid == *tid).count(), CAPACITY);
        }
        let registry = REGISTRY.lock().unwrap();
        assert!(registry.iter().all(|buf| !tids.contains(&buf.tid)), "exited rings released");
        drop(registry);
        assert_eq!(dropped_total() - before, 3 * 5, "released rings keep their drops");
    }

    #[test]
    fn timestamps_are_monotone_per_buffer() {
        let buf = ThreadBuffer::new(998, "t".into());
        for i in 0..100 {
            buf.push(EventKind::Count, "tick", i);
        }
        let mut out = Vec::new();
        buf.drain_into(&mut out);
        for pair in out.windows(2) {
            assert!(pair[0].ts_ns <= pair[1].ts_ns);
        }
    }
}
