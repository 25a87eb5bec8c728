//! Cancellable, deterministic event queue.
//!
//! Events are arbitrary payloads `E`. Scheduling returns an [`EventToken`]
//! that can later cancel the event (lazily: cancelled entries are skipped at
//! pop time). Events at the same instant pop in scheduling order, which
//! makes whole simulations reproducible bit-for-bit.
//!
//! Payloads live in a slab of slots reused through a free list; each heap
//! entry names its slot, and each slot remembers the sequence number of the
//! event it holds. A token is `(seq, slot)`, so a stale token — its event
//! popped or cancelled, its slot since reused — never matches the newer
//! occupant. No lookup hashes anything.
//!
//! Cancellation leaves a dead entry in the heap; workloads that cancel
//! heavily (the warehouse engine cancels every task a crashed node was
//! running, and every SFM suspension) would otherwise grow the heap far
//! beyond the live event count. When dead entries outnumber live ones
//! (past a small floor) the heap is rebuilt from the live entries — an
//! O(live) operation amortised against the cancellations that earned it,
//! and invisible to event order.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// Handle for a scheduled event, used for cancellation: the event's
/// sequence number and the slot holding its payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventToken {
    seq: u64,
    slot: u32,
}

#[derive(PartialEq, Eq)]
struct Entry {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Earlier time first; FIFO among equals. `seq` is unique, so the
        // slot never decides.
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// One payload slot: the sequence number of its latest event, and the
/// payload while that event is pending.
struct Slot<E> {
    seq: u64,
    event: Option<E>,
}

/// A virtual-time priority queue of events of type `E`.
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry>>,
    slots: Vec<Slot<E>>,
    /// Slots whose event popped or was cancelled, ready for reuse.
    free: Vec<u32>,
    /// Pending (scheduled, not cancelled, not popped) events.
    live: usize,
    now: SimTime,
    next_seq: u64,
    popped: u64,
    /// Dead entries still sitting in `heap` (cancelled, not yet skipped).
    cancelled: u64,
}

/// Compaction floor: below this many dead entries a rebuild isn't worth
/// the traversal, whatever the live count.
const COMPACT_MIN_DEAD: u64 = 64;

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            now: SimTime::ZERO,
            next_seq: 0,
            popped: 0,
            cancelled: 0,
        }
    }

    /// Current virtual time: the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events popped so far (diagnostic).
    pub fn popped_count(&self) -> u64 {
        self.popped
    }

    /// Number of live (scheduled, not cancelled, not popped) events.
    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Schedule `event` at absolute time `t`. Scheduling in the past (before
    /// `now`) is clamped to `now`: the event fires immediately-next. This
    /// matches how hardware models hand the kernel "already due" deadlines
    /// after floating-point rounding.
    pub fn schedule_at(&mut self, t: SimTime, event: E) -> EventToken {
        let t = t.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Slot { seq, event: Some(event) };
                slot
            }
            None => {
                self.slots.push(Slot { seq, event: Some(event) });
                u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 pending events")
            }
        };
        self.live += 1;
        self.heap.push(Reverse(Entry { time: t, seq, slot }));
        EventToken { seq, slot }
    }

    /// Schedule `event` after a delay from now.
    pub fn schedule_after(&mut self, d: SimDuration, event: E) -> EventToken {
        self.schedule_at(self.now + d, event)
    }

    /// Take the payload of the pending event `(seq, slot)`, freeing its
    /// slot; `None` if that event already popped or was cancelled.
    fn take(&mut self, seq: u64, slot: u32) -> Option<E> {
        let s = self.slots.get_mut(slot as usize).filter(|s| s.seq == seq)?;
        let event = s.event.take()?;
        self.free.push(slot);
        self.live -= 1;
        Some(event)
    }

    fn is_live(&self, seq: u64, slot: u32) -> bool {
        self.slots.get(slot as usize).is_some_and(|s| s.seq == seq && s.event.is_some())
    }

    /// Cancel a scheduled event. Returns the payload if the event was still
    /// pending, `None` if it already fired or was already cancelled.
    pub fn cancel(&mut self, token: EventToken) -> Option<E> {
        let payload = self.take(token.seq, token.slot);
        if payload.is_some() {
            self.cancelled += 1;
            self.maybe_compact();
        }
        payload
    }

    /// Heap entries, live and dead (diagnostic; compaction keeps this
    /// within 2x of `len()` once past the compaction floor).
    pub fn heap_len(&self) -> usize {
        self.heap.len()
    }

    /// Whether a token is still pending.
    pub fn is_pending(&self, token: EventToken) -> bool {
        self.is_live(token.seq, token.slot)
    }

    /// Timestamp of the next live event without popping it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.skip_cancelled();
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    /// Pop the next event, advancing virtual time to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.skip_cancelled();
        let Reverse(entry) = self.heap.pop()?;
        let payload =
            self.take(entry.seq, entry.slot).expect("skip_cancelled guarantees a live payload at the top");
        debug_assert!(entry.time >= self.now, "virtual time must be monotone");
        self.now = entry.time;
        self.popped += 1;
        Some((entry.time, payload))
    }

    fn skip_cancelled(&mut self) {
        while let Some(Reverse(top)) = self.heap.peek() {
            if self.is_live(top.seq, top.slot) {
                break;
            }
            self.heap.pop();
            self.cancelled = self.cancelled.saturating_sub(1);
        }
    }

    /// Rebuild the heap from live entries once dead ones dominate. Entry
    /// order is a pure function of `(time, seq)`, so a rebuild can never
    /// change what pops next.
    fn maybe_compact(&mut self) {
        if self.cancelled < COMPACT_MIN_DEAD || self.cancelled <= self.live as u64 {
            return;
        }
        let mut heap = std::mem::take(&mut self.heap).into_vec();
        heap.retain(|Reverse(e)| self.is_live(e.seq, e.slot));
        self.heap = BinaryHeap::from(heap);
        self.cancelled = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn pops_in_time_order_fifo_on_ties() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ms(10), "b-first-at-10");
        q.schedule_at(SimTime::from_ms(5), "a");
        q.schedule_at(SimTime::from_ms(10), "c-second-at-10");
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "b-first-at-10");
        assert_eq!(q.pop().unwrap().1, "c-second-at-10");
        assert!(q.pop().is_none());
    }

    #[test]
    fn now_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ms(7), ());
        q.schedule_after(SimDuration::from_ms(3), ()); // at t=3
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_ms(3));
        q.pop();
        assert_eq!(q.now(), SimTime::from_ms(7));
    }

    #[test]
    fn cancellation_removes_event() {
        let mut q = EventQueue::new();
        let t1 = q.schedule_at(SimTime::from_ms(1), 1);
        q.schedule_at(SimTime::from_ms(2), 2);
        assert!(q.is_pending(t1));
        assert_eq!(q.cancel(t1), Some(1));
        assert!(!q.is_pending(t1));
        assert_eq!(q.cancel(t1), None, "double cancel is a no-op");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, 2);
    }

    #[test]
    fn stale_tokens_never_touch_a_reused_slot() {
        let mut q = EventQueue::new();
        let popped = q.schedule_at(SimTime::from_ms(1), "popped");
        let cancelled = q.schedule_at(SimTime::from_ms(2), "cancelled");
        assert_eq!(q.pop().unwrap().1, "popped");
        assert_eq!(q.cancel(cancelled), Some("cancelled"));
        // Both freed slots are reused by newer events.
        let a = q.schedule_at(SimTime::from_ms(3), "a");
        let b = q.schedule_at(SimTime::from_ms(4), "b");
        assert_eq!(q.slots.len(), 2, "freed slots are reused, not appended");
        for stale in [popped, cancelled] {
            assert!(!q.is_pending(stale));
            assert_eq!(q.cancel(stale), None, "a stale token must not cancel the slot's new event");
        }
        assert!(q.is_pending(a) && q.is_pending(b));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "b");
        assert!(q.pop().is_none());
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let t = q.schedule_at(SimTime::from_ms(1), 1);
        q.schedule_at(SimTime::from_ms(9), 9);
        q.cancel(t);
        assert_eq!(q.peek_time(), Some(SimTime::from_ms(9)));
    }

    #[test]
    fn scheduling_in_past_clamps_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ms(100), "late");
        q.pop();
        q.schedule_at(SimTime::from_ms(1), "past");
        let (t, e) = q.pop().unwrap();
        assert_eq!(e, "past");
        assert_eq!(t, SimTime::from_ms(100), "clamped to now");
    }

    #[test]
    fn compaction_bounds_heap_growth() {
        let mut q = EventQueue::new();
        // Schedule 10k, cancel all but 10: without compaction the heap
        // would keep ~10k entries until they surface.
        let tokens: Vec<_> = (0..10_000u64).map(|ms| q.schedule_at(SimTime::from_ms(ms), ms)).collect();
        for t in tokens.iter().skip(10) {
            q.cancel(*t);
        }
        assert_eq!(q.len(), 10);
        assert!(
            q.heap_len() <= 2 * q.len() + COMPACT_MIN_DEAD as usize,
            "heap={} live={}",
            q.heap_len(),
            q.len()
        );
        // The survivors still pop, in order.
        let survivors: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(survivors, (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn compaction_preserves_order_and_fifo_ties() {
        // Same schedule with and without interleaved cancel pressure on
        // unrelated events: the survivor sequence must be identical.
        let run = |noise: bool| -> Vec<(u64, u64)> {
            let mut q = EventQueue::new();
            for i in 0..500u64 {
                q.schedule_at(SimTime::from_ms(i % 7), i);
                if noise {
                    let t = q.schedule_at(SimTime::from_ms(3), 1_000_000 + i);
                    q.cancel(t);
                }
            }
            std::iter::from_fn(|| q.pop().map(|(t, e)| (t.as_millis(), e))).collect()
        };
        assert_eq!(run(false), run(true));
    }

    proptest! {
        /// Popping must always yield a non-decreasing time sequence, with
        /// FIFO order among equal timestamps, regardless of insertion order
        /// and interleaved cancellations.
        #[test]
        fn time_monotonicity_under_random_ops(ops in proptest::collection::vec((0u64..1000, proptest::bool::ANY), 1..200)) {
            let mut q = EventQueue::new();
            let mut tokens = Vec::new();
            for (ms, cancel_one) in ops {
                tokens.push(q.schedule_at(SimTime::from_ms(ms), ms));
                if cancel_one && tokens.len() > 2 {
                    let victim = tokens[tokens.len() / 2];
                    q.cancel(victim);
                }
            }
            let mut last = SimTime::ZERO;
            while let Some((t, _)) = q.pop() {
                prop_assert!(t >= last);
                last = t;
                prop_assert_eq!(q.now(), t);
            }
            prop_assert!(q.is_empty());
        }

        /// Under random schedule / cancel / pop, the queue pops exactly
        /// what a `BTreeMap<(time, seq), _>` model pops, in the same order,
        /// and agrees with it on which tokens are pending.
        #[test]
        fn matches_btreemap_model(ops in proptest::collection::vec((0u8..4, 0u64..50, 0usize..64), 1..400)) {
            let mut q = EventQueue::new();
            let mut model: BTreeMap<(SimTime, u64), u64> = BTreeMap::new();
            let mut tokens: Vec<(EventToken, SimTime, u64)> = Vec::new();
            let mut next = 0u64;
            for (op, ms, pick) in ops {
                match op {
                    0 | 1 => {
                        // Clamped to now, like the queue does.
                        let at = SimTime::from_ms(ms).max(q.now());
                        let tok = q.schedule_at(SimTime::from_ms(ms), next);
                        model.insert((at, next), next);
                        tokens.push((tok, at, next));
                        next += 1;
                    }
                    2 if !tokens.is_empty() => {
                        let (tok, at, seq) = tokens[pick % tokens.len()];
                        prop_assert_eq!(q.cancel(tok), model.remove(&(at, seq)));
                    }
                    _ => {
                        let want = model.pop_first().map(|((at, _), e)| (at, e));
                        prop_assert_eq!(q.pop(), want);
                    }
                }
                for &(tok, at, seq) in &tokens {
                    prop_assert_eq!(q.is_pending(tok), model.contains_key(&(at, seq)));
                }
                prop_assert_eq!(q.len(), model.len());
            }
            while let Some(got) = q.pop() {
                prop_assert_eq!(Some(got), model.pop_first().map(|((at, _), e)| (at, e)));
            }
            prop_assert!(model.is_empty());
        }
    }
}
