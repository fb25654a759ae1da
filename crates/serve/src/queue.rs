//! Bounded deadline queue and the per-request response slot.
//!
//! The queue is the back-pressure boundary: `DeadlineQueue::push`
//! never blocks and never buffers beyond `capacity` — a full queue is an
//! immediate typed rejection, which is the whole point of admission
//! control (the alternative, an unbounded queue, converts overload into
//! unbounded latency and memory growth).
//!
//! Each admitted request owns a `Slot`: a one-shot, idempotent
//! rendezvous the batcher resolves exactly once. Resolution is
//! *guaranteed* — `Pending`'s `Drop` resolves the slot with
//! [`ServeError::ShutDown`] if nothing else did, so a request can never
//! be leaked into an eternally-blocked [`Ticket::wait`], even if the
//! batcher thread unwinds mid-batch.
//!
//! # Checkability
//!
//! Every primitive here is written once, generically, over the
//! [`wino_sched::Atomics`] + [`wino_sched::Clock`] seams — the same
//! pattern as `SpinBarrierIn` — and instantiated twice: with
//! [`StdAtomics`]/[`StdClock`] for production (the `Slot`, `Pending`,
//! `DeadlineQueue` aliases below) and with the `wino-analyze` model
//! shims, where every atomic access is a scheduler yield point and
//! deadlines/batch ages are virtual step budgets. The serve contract —
//! first-write-wins slot resolution, exactly-one-outcome conservation,
//! no leaked waiter under batcher unwind, expired-vs-drained mutual
//! exclusion — is model-checked over bounded-exhaustive (DPOR-reduced)
//! schedule enumeration in `crates/analyze/src/model/serve_scenarios.rs`.
//!
//! Blocking is therefore spin-based (`A::spin`, the seam's one
//! time-dependence hook) rather than `Condvar`-based: a `Mutex`/`Condvar`
//! wait is invisible to the model scheduler, a spin loop yields at every
//! step. Under [`StdAtomics`] a blocked waiter spins briefly and then
//! `yield_now`s — the same discipline as the fork–join barrier.

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use wino_sched::atomics::{AtomicUsizeOps, Atomics, Clock, StdAtomics, StdClock};
use wino_tensor::BlockedImage;

use crate::{DegradeLevel, ServeError, ServeReport, ServeResponse};

/// What a dropped-unresolved queue entry resolves its waiter with. The
/// serve stack uses [`ServeResponse`] (a typed [`ServeError::ShutDown`]);
/// the model scenarios use a toy outcome type.
pub trait DropOutcome {
    /// The outcome delivered by the drop guard when a request is dropped
    /// without an explicit resolution (batcher unwind, shutdown drain).
    fn shutdown_outcome(id: u64) -> Self;
}

impl DropOutcome for ServeResponse {
    fn shutdown_outcome(id: u64) -> ServeResponse {
        ServeResponse {
            output: Err(ServeError::ShutDown),
            report: ServeReport::unserved(id, DegradeLevel::Full),
        }
    }
}

// Slot state-word protocol. The only legal transitions are
// EMPTY→WRITING→READY→TAKEN, each performed by exactly one thread.
const EMPTY: usize = 0;
const WRITING: usize = 1;
const READY: usize = 2;
const TAKEN: usize = 3;

/// One-shot, first-write-wins response rendezvous between a resolver
/// (the batcher, the shed path, or a drop guard) and a waiter.
///
/// Generic over the [`Atomics`] seam so the identical source is
/// model-checked; `Slot` is the production instantiation.
pub struct SlotIn<A: Atomics, T> {
    state: A::AtomicUsize,
    cell: UnsafeCell<Option<T>>,
}

// SAFETY: all access to `cell` is serialised by the state-word protocol:
// a writer gains exclusive access by winning the EMPTY→WRITING CAS
// (every later writer fails that CAS and never touches the cell), and
// the reader touches the cell only after the READY→TAKEN CAS, whose
// Acquire pairs with the writer's READY Release store — so the payload
// write happens-before the take. `T: Send` because the payload crosses
// from the resolving thread to the waiting thread.
unsafe impl<A: Atomics, T: Send> Send for SlotIn<A, T> {}
// SAFETY: as above — the state word serialises every cell access, so
// sharing `&SlotIn` across threads never yields concurrent cell access.
unsafe impl<A: Atomics, T: Send> Sync for SlotIn<A, T> {}

impl<A: Atomics, T> SlotIn<A, T> {
    pub fn new() -> Arc<SlotIn<A, T>> {
        Arc::new(SlotIn { state: A::AtomicUsize::new(EMPTY), cell: UnsafeCell::new(None) })
    }

    /// Resolve the slot if nothing else has (idempotent: the first
    /// resolution wins; later ones are dropped). Returns whether this
    /// call was the winning write.
    pub fn resolve(&self, resp: T) -> bool {
        // ORDERING: Relaxed on failure — a losing resolver publishes
        // nothing and reads nothing; the winner's payload is ordered by
        // its own READY release store below.
        if self
            .state
            .compare_exchange(EMPTY, WRITING, Ordering::AcqRel, Ordering::Relaxed)
            .is_err()
        {
            return false;
        }
        // SAFETY: winning the EMPTY→WRITING CAS grants exclusive cell
        // access; no reader looks before READY, no other writer after.
        unsafe { *self.cell.get() = Some(resp) };
        self.state.store(READY, Ordering::Release);
        true
    }

    fn try_take(&self) -> Option<T> {
        // ORDERING: Relaxed on failure — not-READY-yet carries no data;
        // the caller just keeps spinning.
        if self
            .state
            .compare_exchange(READY, TAKEN, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            // SAFETY: winning the READY→TAKEN CAS grants exclusive cell
            // access, and its Acquire saw the writer's Release — the
            // payload is fully written.
            return Some(unsafe { (*self.cell.get()).take() }.expect("READY implies a payload"));
        }
        None
    }

    /// Block (spin per `A::spin`) until the slot resolves, then take the
    /// payload. Termination relies on the serve invariant that every
    /// admitted request is resolved by the batcher, the shed path, or
    /// the drop guard — the invariant the model checker enforces.
    pub fn take_blocking(&self) -> T {
        let mut spin = A::SpinState::default();
        loop {
            if let Some(resp) = self.try_take() {
                return resp;
            }
            let _ = A::spin(&mut spin, None);
        }
    }
}

/// Handle to one submitted request, generic over the [`Atomics`] seam.
/// [`Ticket`] is the production alias; redeem it with [`Ticket::wait`].
pub struct TicketIn<A: Atomics, T> {
    slot: Arc<SlotIn<A, T>>,
    request_id: u64,
}

/// Handle to one submitted request. Obtained from
/// [`crate::Server::submit`]; redeem it with [`Ticket::wait`].
pub type Ticket = TicketIn<StdAtomics, ServeResponse>;

impl<A: Atomics, T> TicketIn<A, T> {
    pub(crate) fn new(slot: Arc<SlotIn<A, T>>, request_id: u64) -> TicketIn<A, T> {
        TicketIn { slot, request_id }
    }

    /// The server-assigned request id (matches
    /// [`ServeReport::request_id`]).
    pub fn request_id(&self) -> u64 {
        self.request_id
    }

    /// Block until the request resolves. Termination is guaranteed:
    /// every admitted request is resolved by the batcher, the shutdown
    /// drain, or the queue entry's own drop guard.
    pub fn wait(self) -> T {
        self.slot.take_blocking()
    }
}

/// A queued request, owned by the queue and then by the batcher.
/// Generic over the seams plus the request payload `Req` and response
/// `Resp`; `Pending` is the production alias.
pub struct PendingIn<A: Atomics, C: Clock, Req, Resp: DropOutcome> {
    pub id: u64,
    /// Request payload (single-image input for the server, `batch == 1`
    /// validated at submit).
    pub input: Req,
    pub enqueued: C::Instant,
    pub deadline: C::Instant,
    pub slot: Arc<SlotIn<A, Resp>>,
}

/// The production request entry.
pub(crate) type Pending = PendingIn<StdAtomics, StdClock, BlockedImage, ServeResponse>;

/// The production response slot.
pub(crate) type Slot = SlotIn<StdAtomics, ServeResponse>;

impl<A: Atomics, C: Clock, Req, Resp: DropOutcome> PendingIn<A, C, Req, Resp> {
    /// Resolve with an explicit outcome (idempotent via the slot);
    /// returns whether this resolution won.
    pub fn resolve(&self, resp: Resp) -> bool {
        self.slot.resolve(resp)
    }
}

// PROTOCOL: drop-guard — this Drop is the last-resort waiter guarantee:
// it must write the slot state word (via `resolve`) before any return
// path, unconditionally. `wino-lint`'s drop-guard-protocol rule enforces
// the shape; the model checker proves the guarantee over interleavings.
impl<A: Atomics, C: Clock, Req, Resp: DropOutcome> Drop for PendingIn<A, C, Req, Resp> {
    fn drop(&mut self) {
        // Last-resort guarantee: a request dropped unresolved (batcher
        // unwind, shutdown drain) still terminates its waiter with a
        // typed outcome instead of leaking a forever-blocked ticket.
        self.slot.resolve(Resp::shutdown_outcome(self.id));
    }
}

struct Inner<A: Atomics, C: Clock, Req, Resp: DropOutcome> {
    q: VecDeque<PendingIn<A, C, Req, Resp>>,
}

/// Bounded MPSC queue with batch-oriented consumption: any number of
/// producers [`DeadlineQueueIn::push`]; a single consumer (the batcher)
/// calls [`DeadlineQueueIn::pop_batch`]. `DeadlineQueue` is the
/// production alias.
///
/// Internally a spin-lock (one [`Atomics`] word, CAS-acquired) guards
/// the deque, with the depth and shutdown flag mirrored into lock-free
/// words so `depth()` and the consumer's idle wait take no lock.
pub struct DeadlineQueueIn<A: Atomics, C: Clock, Req, Resp: DropOutcome> {
    /// Spin-lock word: 0 free, 1 held.
    lock: A::AtomicUsize,
    inner: UnsafeCell<Inner<A, C, Req, Resp>>,
    /// Mirror of `inner.q.len()`, maintained under the lock.
    depth: A::AtomicUsize,
    /// 0 open, 1 shutting down (set once, never cleared).
    shutdown: A::AtomicUsize,
    capacity: usize,
}

/// The production queue.
pub(crate) type DeadlineQueue = DeadlineQueueIn<StdAtomics, StdClock, BlockedImage, ServeResponse>;

// SAFETY: `inner` is only touched between a winning 0→1 CAS on `lock`
// and the matching release store (the `LockGuard` RAII below), so no
// two threads ever access the deque concurrently; the remaining fields
// are atomics. Send/Sync propagate the payload bounds.
unsafe impl<A: Atomics, C: Clock, Req: Send, Resp: DropOutcome + Send> Send
    for DeadlineQueueIn<A, C, Req, Resp>
{
}
// SAFETY: as above — the spin-lock serialises every `inner` access.
unsafe impl<A: Atomics, C: Clock, Req: Send, Resp: DropOutcome + Send> Sync
    for DeadlineQueueIn<A, C, Req, Resp>
{
}

/// RAII release for the queue's spin-lock word.
struct LockGuard<'a, W: AtomicUsizeOps>(&'a W);

impl<W: AtomicUsizeOps> Drop for LockGuard<'_, W> {
    fn drop(&mut self) {
        self.0.store(0, Ordering::Release);
    }
}

/// Why a push was rejected.
pub enum PushReject {
    /// Queue at capacity.
    Full { depth: usize },
    /// Shutdown already initiated.
    ShutDown,
}

impl<A: Atomics, C: Clock, Req, Resp: DropOutcome> DeadlineQueueIn<A, C, Req, Resp> {
    pub fn new(capacity: usize) -> DeadlineQueueIn<A, C, Req, Resp> {
        DeadlineQueueIn {
            lock: A::AtomicUsize::new(0),
            inner: UnsafeCell::new(Inner { q: VecDeque::new() }),
            depth: A::AtomicUsize::new(0),
            shutdown: A::AtomicUsize::new(0),
            capacity,
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Acquire the spin-lock; the returned guard releases it on drop.
    fn acquire(&self) -> LockGuard<'_, A::AtomicUsize> {
        let mut spin = A::SpinState::default();
        loop {
            // ORDERING: Relaxed on failure — a failed acquisition reads
            // nothing protected; the retry's Acquire success pairs with
            // the previous holder's Release.
            if self
                .lock
                .compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                return LockGuard(&self.lock);
            }
            let _ = A::spin(&mut spin, None);
        }
    }

    /// Enqueue; `Ok(depth after push)` or an immediate typed rejection.
    pub fn push(&self, p: PendingIn<A, C, Req, Resp>) -> Result<usize, PushReject> {
        let _g = self.acquire();
        // SAFETY: `_g` holds the spin-lock, granting exclusive `inner`
        // access until it drops.
        let inner = unsafe { &mut *self.inner.get() };
        if self.shutdown.load(Ordering::Acquire) != 0 {
            return Err(PushReject::ShutDown);
        }
        if inner.q.len() >= self.capacity {
            return Err(PushReject::Full { depth: inner.q.len() });
        }
        inner.q.push_back(p);
        let depth = inner.q.len();
        self.depth.store(depth, Ordering::Release);
        Ok(depth)
    }

    /// Current queue depth (advisory: racy by nature, exact under the
    /// lock at the instant it was mirrored).
    pub fn depth(&self) -> usize {
        self.depth.load(Ordering::Acquire)
    }

    /// Flag shutdown and wake the batcher. Requests already queued are
    /// still served (drain semantics); new pushes are rejected.
    pub fn begin_shutdown(&self) {
        let _g = self.acquire();
        // Set under the lock so a concurrent `push` sees either
        // open-and-enqueued or rejected — never a lost entry.
        self.shutdown.store(1, Ordering::Release);
    }

    /// Remove everything still queued (post-join cleanup when the
    /// batcher died early; dropping the entries resolves their slots).
    pub fn drain_remaining(&self) -> Vec<PendingIn<A, C, Req, Resp>> {
        let _g = self.acquire();
        // SAFETY: `_g` holds the spin-lock, granting exclusive `inner`
        // access until it drops.
        let inner = unsafe { &mut *self.inner.get() };
        let out: Vec<_> = inner.q.drain(..).collect();
        self.depth.store(0, Ordering::Release);
        out
    }

    /// Collect the next batch: blocks until at least one request is
    /// queued, then keeps the batch open until `max_batch` requests have
    /// been coalesced or `max_age` after pickup, whichever comes first —
    /// in the [`Atomics`] timebase, which counts from the start of the
    /// wait: wall-clock in production, virtual spin steps under the
    /// model. Returns `None` only at shutdown with an empty queue. Single
    /// consumer.
    pub fn pop_batch(
        &self,
        max_batch: usize,
        max_age: Duration,
    ) -> Option<Vec<PendingIn<A, C, Req, Resp>>> {
        let max_batch = max_batch.max(1);
        // Wait for the first request (or shutdown of an empty queue).
        //
        // Check order matters: the depth read must be the *last* load
        // before the no-deadline spin, so that under the model shims the
        // check-then-park pair is atomic (one yield apart) and a push
        // landing between the two gating loads still wakes the parked
        // consumer via its depth write. Both unblocking transitions
        // (push, begin_shutdown) are writes, so a park after a stale
        // read is always woken and re-checks.
        let mut spin = A::SpinState::default();
        loop {
            if self.shutdown.load(Ordering::Acquire) != 0 {
                // Re-check the deque under the lock: a push may have
                // landed just before shutdown flagged.
                let _g = self.acquire();
                // SAFETY: `_g` holds the spin-lock, granting exclusive
                // `inner` access until it drops.
                let inner = unsafe { &mut *self.inner.get() };
                if inner.q.is_empty() {
                    return None;
                }
                break;
            }
            if self.depth.load(Ordering::Acquire) > 0 {
                break;
            }
            let _ = A::spin(&mut spin, None);
        }
        // Batch open: close on size, shutdown, or age.
        let mut batch = Vec::with_capacity(max_batch);
        let mut spin = A::SpinState::default();
        loop {
            {
                let _g = self.acquire();
                // SAFETY: `_g` holds the spin-lock, granting exclusive
                // `inner` access until it drops.
                let inner = unsafe { &mut *self.inner.get() };
                while batch.len() < max_batch {
                    match inner.q.pop_front() {
                        Some(p) => batch.push(p),
                        None => break,
                    }
                }
                self.depth.store(inner.q.len(), Ordering::Release);
            }
            if batch.len() >= max_batch || self.shutdown.load(Ordering::Acquire) != 0 {
                break;
            }
            if A::spin(&mut spin, Some(max_age)).is_some() {
                break;
            }
        }
        Some(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn pending(id: u64) -> Pending {
        let now = Instant::now();
        Pending {
            id,
            input: BlockedImage::zeros(1, 16, &[2, 2]).unwrap(),
            enqueued: now,
            deadline: now + Duration::from_secs(10),
            slot: SlotIn::new(),
        }
    }

    fn unserved(id: u64) -> ServeResponse {
        ServeResponse {
            output: Err(ServeError::DeadlineExceeded { missed_by_ms: 1.0 }),
            report: ServeReport::unserved(id, DegradeLevel::Full),
        }
    }

    #[test]
    fn capacity_zero_rejects_every_push() {
        let q = DeadlineQueue::new(0);
        match q.push(pending(1)) {
            Err(PushReject::Full { depth }) => assert_eq!(depth, 0),
            _ => panic!("capacity-0 queue must reject with Full"),
        }
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn push_after_shutdown_is_rejected() {
        let q = DeadlineQueue::new(4);
        q.begin_shutdown();
        assert!(matches!(q.push(pending(1)), Err(PushReject::ShutDown)));
    }

    #[test]
    fn pop_batch_closes_on_size() {
        let q = DeadlineQueue::new(8);
        for i in 0..5 {
            q.push(pending(i)).ok().unwrap();
        }
        // max_age of an hour: the size trigger must close the batch.
        let b = q.pop_batch(3, Duration::from_secs(3600)).unwrap();
        assert_eq!(b.len(), 3);
        assert_eq!(q.depth(), 2);
        let b = q.pop_batch(3, Duration::ZERO).unwrap();
        assert_eq!(b.len(), 2, "age 0 closes with whatever is queued");
    }

    #[test]
    fn pop_batch_returns_none_only_when_drained_at_shutdown() {
        let q = DeadlineQueue::new(8);
        q.push(pending(1)).ok().unwrap();
        q.begin_shutdown();
        let b = q.pop_batch(4, Duration::ZERO).unwrap();
        assert_eq!(b.len(), 1, "queued work is drained, not dropped");
        assert!(q.pop_batch(4, Duration::ZERO).is_none());
    }

    #[test]
    fn dropped_pending_resolves_its_ticket_with_shutdown() {
        let p = pending(7);
        let ticket = Ticket::new(p.slot.clone(), 7);
        drop(p);
        let resp = ticket.wait();
        assert!(matches!(resp.output, Err(ServeError::ShutDown)));
        assert_eq!(resp.report.request_id, 7);
    }

    #[test]
    fn slot_resolution_is_first_write_wins() {
        let p = pending(3);
        let ticket = Ticket::new(p.slot.clone(), 3);
        assert!(p.resolve(unserved(3)), "first resolution must win");
        drop(p); // drop guard must NOT overwrite the explicit resolution
        let resp = ticket.wait();
        assert!(matches!(resp.output, Err(ServeError::DeadlineExceeded { .. })));
    }

    #[test]
    fn losing_resolution_reports_defeat() {
        let slot: Arc<SlotIn<StdAtomics, u32>> = SlotIn::new();
        assert!(slot.resolve(1));
        assert!(!slot.resolve(2), "second resolution must lose");
        assert_eq!(slot.take_blocking(), 1);
    }

    #[test]
    fn cross_thread_slot_handoff() {
        let slot: Arc<SlotIn<StdAtomics, u64>> = SlotIn::new();
        let s2 = Arc::clone(&slot);
        let h = std::thread::spawn(move || s2.take_blocking());
        std::thread::sleep(Duration::from_millis(5));
        assert!(slot.resolve(42));
        assert_eq!(h.join().unwrap(), 42);
    }
}
