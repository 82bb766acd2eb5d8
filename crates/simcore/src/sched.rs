//! The event scheduler: a time-ordered queue with deterministic tie-breaking.
//!
//! Internally this is a hierarchical timer wheel (a calendar-queue hybrid,
//! DESIGN.md §5f): [`LEVELS`] levels of [`SLOTS`] buckets each cover the next
//! `2^48` ns (~3.26 days) of virtual time, with a far-future overflow list
//! beyond that. Event handles index a dense generation-stamped slot table, so
//! `schedule` and `cancel` are O(1) and the common `pop` is O(1) amortized —
//! no binary-heap sifts and no hashing on the hot path. Delivery order is the
//! total order on `(timestamp, sequence number)`, exactly as the previous
//! `BinaryHeap` implementation produced (that implementation survives as the
//! differential-testing oracle in this file's test module).

use crate::{SimDuration, SimTime};

/// log2 of the wheel fan-out. Wide (256-way) on purpose: an event cascades
/// once per level between its filing level and level 0, so fewer, fatter
/// levels mean fewer bucket touches per event on the hot path.
const SLOT_BITS: u32 = 8;
/// Buckets per wheel level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels. Level `l` buckets span `256^l` ns each; together the levels
/// cover `2^(SLOT_BITS * LEVELS)` = 2^48 ns of virtual time ahead of the
/// cursor.
const LEVELS: usize = 6;
/// Bits of virtual time covered by the wheel proper.
const WHEEL_BITS: u32 = SLOT_BITS * LEVELS as u32;
/// `u64` words of occupancy bitmap per level.
const OCC_WORDS: usize = SLOTS / 64;

/// Handle for a scheduled event, usable for cancellation.
///
/// Packs an index into the scheduler's slot table with a generation stamp;
/// the stamp is bumped every time the slot is freed, so a handle held across
/// delivery (or across a cancel + slot reuse) simply stops matching instead
/// of aliasing a newer event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(u64);

impl EventId {
    fn new(idx: u32, gen: u32) -> Self {
        EventId((u64::from(gen) << 32) | u64::from(idx))
    }

    fn idx(self) -> usize {
        (self.0 & 0xFFFF_FFFF) as usize
    }

    fn gen(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// One entry of the dense slot table: the event's key material plus its
/// payload. `payload == None` means the slot is free (on the free list).
#[derive(Debug)]
struct Slot<E> {
    /// Bumped on every free; stale bucket refs and handles mismatch.
    gen: u32,
    payload: Option<E>,
}

/// A wheel-bucket entry: the event handle plus a copy of its key material.
/// Carrying `(at, seq)` locally lets cascades re-file and level-0 FIFO
/// selection scan the bucket's contiguous memory instead of chasing one
/// slot-table pointer per candidate; only the entry actually chosen for
/// delivery is verified against the table (generation match), so a stale
/// copy left behind by `cancel` can never be delivered — it just descends
/// the wheel as a no-op and is dropped at level 0.
#[derive(Debug, Clone, Copy)]
struct BucketRef {
    id: EventId,
    at: u64,
    seq: u64,
}

/// A deterministic discrete-event scheduler.
///
/// Events carry an arbitrary payload `E`. Two events scheduled for the same
/// instant are delivered in the order they were scheduled (FIFO), which makes
/// whole simulations reproducible regardless of hash-map iteration order or
/// other incidental nondeterminism in the caller.
///
/// Popping an event advances the virtual clock ([`Scheduler::now`]) to the
/// event's timestamp; the clock never moves backwards.
///
/// # Example
///
/// ```
/// use simcore::{Scheduler, SimTime};
///
/// let mut s = Scheduler::new();
/// let a = s.schedule_at(SimTime::from_secs(1), 'a');
/// let _b = s.schedule_at(SimTime::from_secs(1), 'b');
/// s.cancel(a);
/// assert_eq!(s.pop(), Some((SimTime::from_secs(1), 'b')));
/// assert_eq!(s.pop(), None);
/// ```
#[derive(Debug)]
pub struct Scheduler<E> {
    now: SimTime,
    /// Internal search position, nanoseconds. Equals `now` between pops; runs
    /// ahead of the delivered clock transiently inside [`Scheduler::pop`]
    /// while cascading buckets down the wheel, and after a
    /// [`Scheduler::pop_before`] that cascaded and then found nothing before
    /// its `end` (never past that `end`).
    cursor: u64,
    seq: u64,
    /// Live (scheduled, not yet delivered or cancelled) events.
    live: usize,
    /// Dense slot table indexed by [`EventId::idx`]. Its length tracks the
    /// *peak concurrent* event population, not the run length: delivered and
    /// cancelled slots go on the free list and are reused.
    table: Vec<Slot<E>>,
    free: Vec<u32>,
    /// `LEVELS × SLOTS` buckets of event handles. Cancelled/delivered entries
    /// linger as generation-mismatched refs until the bucket is next touched.
    /// Fixed-size nesting (not a flat `Vec`) so masked slot indices need no
    /// bounds checks on the hot path.
    buckets: Box<[[Vec<BucketRef>; SLOTS]; LEVELS]>,
    /// One bit per bucket per level ([`OCC_WORDS`] words each): the bucket
    /// *may* contain live entries.
    occupancy: [u64; LEVELS * OCC_WORDS],
    /// Bit `l` set iff level `l` has any occupancy bit set. Lets a pop on a
    /// sparse wheel (the common engine case: a few hundred live events)
    /// skip whole levels instead of scanning four words per empty level.
    level_mask: u8,
    /// Recycled spill buffer for cascades (kept empty between pops), so
    /// draining a bucket never allocates.
    scratch: Vec<BucketRef>,
    /// Events more than `2^48` ns past the cursor; re-filed block by block
    /// when the wheel drains.
    overflow: Vec<BucketRef>,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// Create an empty scheduler with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Scheduler {
            now: SimTime::ZERO,
            cursor: 0,
            seq: 0,
            live: 0,
            table: Vec::new(),
            free: Vec::new(),
            buckets: Box::new(std::array::from_fn(|_| std::array::from_fn(|_| Vec::new()))),
            occupancy: [0; LEVELS * OCC_WORDS],
            level_mask: 0,
            scratch: Vec::new(),
            overflow: Vec::new(),
        }
    }

    /// The current virtual time (timestamp of the last delivered event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Schedule `payload` for absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (before [`Scheduler::now`]), or before
    /// the `end` of a [`pop_before`](Scheduler::pop_before) that returned
    /// `None` since the last delivery and searched past `at`.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) -> EventId {
        if at.as_nanos() < self.cursor {
            // `cursor == now` except after a `pop_before` that stopped at a
            // bucket it may not cascade
            assert!(
                at >= self.now,
                "cannot schedule event in the past: {at} < {}",
                self.now
            );
            panic!(
                "cannot schedule event at {at}: a pop_before already searched past it (to {})",
                SimTime::from_nanos(self.cursor)
            );
        }
        let seq = self.seq;
        self.seq += 1;
        self.live += 1;
        let id = if let Some(idx) = self.free.pop() {
            let slot = &mut self.table[idx as usize];
            slot.payload = Some(payload);
            EventId::new(idx, slot.gen)
        } else {
            let idx = u32::try_from(self.table.len()).expect("slot table overflow");
            self.table.push(Slot {
                gen: 0,
                payload: Some(payload),
            });
            EventId::new(idx, 0)
        };
        self.file(id, at.as_nanos(), seq);
        id
    }

    /// Schedule `payload` for `delay` after the current time.
    pub fn schedule_after(&mut self, delay: SimDuration, payload: E) -> EventId {
        self.schedule_at(self.now + delay, payload)
    }

    /// Cancel a previously scheduled event.
    ///
    /// Returns `true` if the event was still pending. Cancelling an already
    /// delivered or already cancelled event returns `false` and is harmless.
    /// O(1): the slot is freed immediately; the wheel-bucket ref it leaves
    /// behind no longer matches the slot's generation and is dropped when the
    /// bucket is next scanned.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let idx = id.idx();
        match self.table.get_mut(idx) {
            Some(slot) if slot.gen == id.gen() && slot.payload.is_some() => {
                slot.gen = slot.gen.wrapping_add(1);
                slot.payload = None;
                self.free.push(idx as u32);
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// Timestamp of the next pending event without delivering it.
    ///
    /// A pure read: unlike the pre-wheel implementation this does not drain
    /// tombstones, so `&self` suffices.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.live == 0 {
            return None;
        }
        for level in 0..LEVELS {
            let mut from = self.digit(level) as usize;
            while let Some(slot) = self.occ_next(level, from) {
                // The lowest live bucket at the lowest live level holds the
                // minimum: level-`l` digits above `l` all match the cursor,
                // so buckets order by slot index and entries within a bucket
                // by their low digits.
                let mut min_at: Option<u64> = None;
                for r in &self.buckets[level][slot & (SLOTS - 1)] {
                    if self.is_live(r.id) && min_at.is_none_or(|m| r.at < m) {
                        min_at = Some(r.at);
                    }
                }
                if let Some(at) = min_at {
                    return Some(SimTime::from_nanos(at));
                }
                from = slot + 1; // stale-only bucket: keep looking
                if from >= SLOTS {
                    break;
                }
            }
        }
        let mut min_at: Option<u64> = None;
        for r in &self.overflow {
            if self.is_live(r.id) && min_at.is_none_or(|m| r.at < m) {
                min_at = Some(r.at);
            }
        }
        min_at.map(SimTime::from_nanos)
    }

    /// Deliver the next event if its timestamp is before `end`, advancing
    /// the clock to it; `None` when nothing is pending before `end`.
    ///
    /// The fused form of `peek_time() < end` + [`pop`](Scheduler::pop) for
    /// window loops: it walks the wheel once per delivery instead of
    /// scanning the next bucket and then walking again. It never cascades a
    /// bucket whose window starts at or after `end`, so a `None` leaves the
    /// internal search position at or before `end`: afterwards, schedule
    /// only at or after `end` until the next delivery (the conservative
    /// window contract — mailbox deliveries land at or after the window
    /// end). Scheduling earlier than that position panics rather than
    /// misfiling the event.
    pub fn pop_before(&mut self, end: SimTime) -> Option<(SimTime, E)> {
        let _prof = crate::prof::scope("sched.pop");
        let end = end.as_nanos();
        if self.live == 0 {
            return None;
        }
        loop {
            match self.next_occupied() {
                Some((0, slot)) => {
                    // live level-0 entries all sit at the cursor's block
                    // ORed with the slot index
                    let at = (self.cursor & !(SLOTS as u64 - 1)) | slot as u64;
                    if at >= end {
                        return None;
                    }
                    if let Some((at, payload)) = self.take_min(slot) {
                        self.cursor = at;
                        self.now = SimTime::from_nanos(at);
                        return Some((self.now, payload));
                    }
                }
                Some((level, slot)) => {
                    if self.window_start(level, slot).max(self.cursor) >= end {
                        return None;
                    }
                    self.cascade(level, slot);
                }
                None => {
                    let first = self
                        .overflow
                        .iter()
                        .filter(|r| self.is_live(r.id))
                        .map(|r| r.at)
                        .min();
                    if first.is_none_or(|at| at >= end) {
                        return None;
                    }
                    self.refill_from_overflow();
                }
            }
        }
    }

    /// Deliver the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let _prof = crate::prof::scope("sched.pop");
        if self.live == 0 {
            return None;
        }
        loop {
            match self.next_occupied() {
                Some((0, slot)) => {
                    if let Some((at, payload)) = self.take_min(slot) {
                        debug_assert!(at >= self.now.as_nanos());
                        self.cursor = at;
                        self.now = SimTime::from_nanos(at);
                        return Some((self.now, payload));
                    }
                    // Bucket held only stale refs; its bit is now clear.
                }
                Some((level, slot)) => self.cascade(level, slot),
                None => self.refill_from_overflow(),
            }
        }
    }

    /// The cursor's digit at `level` (its slot index within that level).
    fn digit(&self, level: usize) -> u32 {
        ((self.cursor >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as u32
    }

    /// Mark bucket (`level`, `slot`) as possibly holding live entries.
    fn occ_set(&mut self, level: usize, slot: usize) {
        self.occupancy[level * OCC_WORDS + (slot >> 6)] |= 1 << (slot & 63);
        self.level_mask |= 1 << level;
    }

    /// Mark bucket (`level`, `slot`) empty.
    fn occ_clear(&mut self, level: usize, slot: usize) {
        self.occupancy[level * OCC_WORDS + (slot >> 6)] &= !(1 << (slot & 63));
        let base = level * OCC_WORDS;
        if self.occupancy[base..base + OCC_WORDS]
            .iter()
            .all(|&w| w == 0)
        {
            self.level_mask &= !(1 << level);
        }
    }

    /// Lowest marked slot `>= from` at `level`, scanning the level's
    /// occupancy words.
    fn occ_next(&self, level: usize, from: usize) -> Option<usize> {
        let base = level * OCC_WORDS;
        let mut w = from >> 6;
        let mut bits = self.occupancy[base + w] & (u64::MAX << (from & 63));
        loop {
            if bits != 0 {
                return Some((w << 6) | bits.trailing_zeros() as usize);
            }
            w += 1;
            if w >= OCC_WORDS {
                return None;
            }
            bits = self.occupancy[base + w];
        }
    }

    /// Whether `id` still names a pending event. Timestamps live in the
    /// wheel refs ([`BucketRef::at`]), not the slot table; a generation
    /// match certifies the ref's copy.
    fn is_live(&self, id: EventId) -> bool {
        let slot = &self.table[id.idx()];
        slot.gen == id.gen() && slot.payload.is_some()
    }

    /// File a live event into the wheel bucket for `at` (nanoseconds),
    /// relative to the current cursor, or into the overflow list.
    fn file(&mut self, id: EventId, at: u64, seq: u64) {
        let diff = at ^ self.cursor;
        if diff >> WHEEL_BITS != 0 {
            self.overflow.push(BucketRef { id, at, seq });
            return;
        }
        let level = if diff == 0 {
            0
        } else {
            ((63 - diff.leading_zeros()) / SLOT_BITS) as usize
        };
        let slot = ((at >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        self.buckets[level][slot].push(BucketRef { id, at, seq });
        self.occ_set(level, slot);
    }

    /// First possibly-live bucket at or after the cursor, lowest level first.
    ///
    /// Levels are scanned in order because their windows are disjoint and
    /// strictly ascending in time: every level-0 event precedes every level-1
    /// event, and so on. Within a level, live buckets can only sit at slots
    /// `>=` the cursor's digit (events earlier than the cursor have already
    /// been delivered), so masking the occupancy word suffices.
    fn next_occupied(&self) -> Option<(usize, usize)> {
        let mut mask = self.level_mask;
        while mask != 0 {
            let level = mask.trailing_zeros() as usize;
            if let Some(slot) = self.occ_next(level, self.digit(level) as usize) {
                return Some((level, slot));
            }
            mask &= mask - 1;
        }
        None
    }

    /// Deliver the minimum-sequence live entry of level-0 bucket `slot`.
    /// All live entries of a level-0 bucket share one timestamp (the
    /// cursor's window ORed with the slot index), so the sequence number
    /// alone picks the FIFO head — scan order is irrelevant, which keeps
    /// delivery independent of the cascade paths entries took.
    ///
    /// The scan runs on the bucket's own memory (`BucketRef.seq`); only the
    /// chosen minimum touches the slot table. A stale ref (cancelled or
    /// delivered event) can win the scan, fail the generation check, and is
    /// then dropped and the scan retried — cancelled events cost a little
    /// extra work here, never a wrong delivery.
    fn take_min(&mut self, slot: usize) -> Option<(u64, E)> {
        loop {
            let bucket = &mut self.buckets[0][slot & (SLOTS - 1)];
            let mut best: Option<(u64, usize)> = None; // (seq, position)
            for (pos, r) in bucket.iter().enumerate() {
                if best.is_none_or(|(s, _)| r.seq < s) {
                    best = Some((r.seq, pos));
                }
            }
            let Some((_, pos)) = best else {
                self.occ_clear(0, slot);
                return None;
            };
            let r = bucket.swap_remove(pos);
            let id = r.id;
            let idx = id.idx();
            let t = &mut self.table[idx];
            if t.gen != id.gen() || t.payload.is_none() {
                continue; // stale ref: drop it and rescan
            }
            let at = r.at;
            let payload = t.payload.take().expect("live entry");
            t.gen = t.gen.wrapping_add(1);
            self.free.push(idx as u32);
            self.live -= 1;
            if self.buckets[0][slot & (SLOTS - 1)].is_empty() {
                self.occ_clear(0, slot);
            }
            return Some((at, payload));
        }
    }

    /// Start of bucket (`level`, `slot`)'s window: the cursor's digits
    /// above `level`, `slot` at `level`, zeros below.
    fn window_start(&self, level: usize, slot: usize) -> u64 {
        let step = SLOT_BITS * level as u32;
        ((self.cursor >> (step + SLOT_BITS)) << (step + SLOT_BITS)) | ((slot as u64) << step)
    }

    /// Re-file every entry of bucket (`level`, `slot`) one or more levels
    /// down, advancing the cursor to the bucket's window first. Entries are
    /// re-filed from their locally-stored key — no slot-table traffic; stale
    /// refs descend too and die at level 0.
    ///
    /// Termination: after the cursor advance the bucket's entries agree with
    /// the cursor on all digits at `level` and above, so each re-files
    /// strictly below `level` — the hierarchical-wheel descent.
    fn cascade(&mut self, level: usize, slot: usize) {
        let mut scratch = std::mem::take(&mut self.scratch);
        std::mem::swap(&mut scratch, &mut self.buckets[level][slot & (SLOTS - 1)]);
        self.occ_clear(level, slot);
        // Never moves the cursor backwards: when the cursor is already
        // inside this window (digit == slot) it stays put.
        let window = self.window_start(level, slot);
        if window > self.cursor {
            self.cursor = window;
        }
        for r in scratch.drain(..) {
            self.file(r.id, r.at, r.seq);
        }
        self.scratch = scratch; // empty again; keeps its capacity
    }

    /// The wheel is (live-)empty but events remain: jump the cursor to the
    /// `2^48`-ns block of the earliest overflow event and re-file that
    /// block's events into the wheel.
    fn refill_from_overflow(&mut self) {
        debug_assert!(self.live > 0, "refill with no live events");
        let mut w = 0usize;
        let mut min_at: Option<u64> = None;
        for r in 0..self.overflow.len() {
            let entry = self.overflow[r];
            if self.is_live(entry.id) {
                self.overflow[w] = entry;
                w += 1;
                if min_at.is_none_or(|m| entry.at < m) {
                    min_at = Some(entry.at);
                }
            }
        }
        self.overflow.truncate(w);
        let min_at = min_at.expect("live events must be in the wheel or overflow");
        let block = (min_at >> WHEEL_BITS) << WHEEL_BITS;
        if block > self.cursor {
            self.cursor = block;
        }
        for entry in std::mem::take(&mut self.overflow) {
            // in range now, or back into overflow
            self.file(entry.id, entry.at, entry.seq);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The pre-wheel scheduler, kept verbatim as a differential-testing
    /// oracle: `BinaryHeap` on `Reverse<(time, seq)>` plus two hash sets for
    /// O(1) cancellation with lazy tombstones.
    mod oracle {
        use crate::SimTime;
        use std::cmp::Reverse;
        use std::collections::{BinaryHeap, HashSet};

        pub struct Scheduler<E> {
            now: SimTime,
            seq: u64,
            heap: BinaryHeap<Entry<E>>,
            pending: HashSet<u64>,
            cancelled: HashSet<u64>,
        }

        struct Entry<E> {
            key: Reverse<(SimTime, u64)>,
            id: u64,
            payload: E,
        }

        impl<E> PartialEq for Entry<E> {
            fn eq(&self, other: &Self) -> bool {
                self.key == other.key
            }
        }
        impl<E> Eq for Entry<E> {}
        impl<E> PartialOrd for Entry<E> {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl<E> Ord for Entry<E> {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.key.cmp(&other.key)
            }
        }

        impl<E> Scheduler<E> {
            pub fn new() -> Self {
                Scheduler {
                    now: SimTime::ZERO,
                    seq: 0,
                    heap: BinaryHeap::new(),
                    pending: HashSet::new(),
                    cancelled: HashSet::new(),
                }
            }

            pub fn len(&self) -> usize {
                self.pending.len()
            }

            pub fn schedule_at(&mut self, at: SimTime, payload: E) -> u64 {
                assert!(at >= self.now);
                let id = self.seq;
                self.heap.push(Entry {
                    key: Reverse((at, self.seq)),
                    id,
                    payload,
                });
                self.pending.insert(id);
                self.seq += 1;
                id
            }

            pub fn cancel(&mut self, id: u64) -> bool {
                if !self.pending.remove(&id) {
                    return false;
                }
                self.cancelled.insert(id);
                true
            }

            pub fn pop(&mut self) -> Option<(SimTime, E)> {
                while let Some(top) = self.heap.peek() {
                    if self.cancelled.remove(&top.id) {
                        self.heap.pop();
                    } else {
                        break;
                    }
                }
                let entry = self.heap.pop()?;
                self.pending.remove(&entry.id);
                let at = entry.key.0 .0;
                self.now = at;
                Some((at, entry.payload))
            }

            pub fn peek_time(&mut self) -> Option<SimTime> {
                while let Some(top) = self.heap.peek() {
                    if self.cancelled.remove(&top.id) {
                        self.heap.pop();
                    } else {
                        break;
                    }
                }
                self.heap.peek().map(|e| e.key.0 .0)
            }
        }
    }

    #[test]
    fn fifo_within_same_instant() {
        let mut s = Scheduler::new();
        for i in 0..10 {
            s.schedule_at(SimTime::from_secs(1), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| s.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn time_ordering() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_secs(3), 'c');
        s.schedule_at(SimTime::from_secs(1), 'a');
        s.schedule_at(SimTime::from_secs(2), 'b');
        assert_eq!(s.pop(), Some((SimTime::from_secs(1), 'a')));
        assert_eq!(s.pop(), Some((SimTime::from_secs(2), 'b')));
        assert_eq!(s.pop(), Some((SimTime::from_secs(3), 'c')));
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut s = Scheduler::new();
        s.schedule_after(SimDuration::from_secs(5), ());
        assert_eq!(s.now(), SimTime::ZERO);
        s.pop();
        assert_eq!(s.now(), SimTime::from_secs(5));
    }

    #[test]
    #[should_panic(expected = "cannot schedule event in the past")]
    fn scheduling_in_past_panics() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_secs(2), ());
        s.pop();
        s.schedule_at(SimTime::from_secs(1), ());
    }

    #[test]
    fn cancellation() {
        let mut s = Scheduler::new();
        let a = s.schedule_at(SimTime::from_secs(1), 'a');
        let b = s.schedule_at(SimTime::from_secs(2), 'b');
        assert!(s.cancel(a));
        assert!(!s.cancel(a), "double cancel is a no-op");
        assert_eq!(s.len(), 1);
        assert_eq!(s.pop(), Some((SimTime::from_secs(2), 'b')));
        assert!(!s.cancel(b), "cancel after delivery is a no-op");
    }

    #[test]
    fn peek_does_not_deliver() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_secs(1), ());
        assert_eq!(s.peek_time(), Some(SimTime::from_secs(1)));
        assert_eq!(s.now(), SimTime::ZERO);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn peek_is_a_pure_read() {
        // `peek_time` now takes `&self`: callable through a shared reference.
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_secs(2), ());
        let shared: &Scheduler<()> = &s;
        assert_eq!(shared.peek_time(), Some(SimTime::from_secs(2)));
    }

    #[test]
    fn peek_skips_cancelled_and_sees_overflow() {
        let mut s = Scheduler::new();
        let far = SimTime::from_nanos(1 << 50); // beyond the wheel horizon
        let a = s.schedule_at(SimTime::from_secs(1), 'a');
        s.schedule_at(far, 'z');
        s.cancel(a);
        assert_eq!(s.peek_time(), Some(far));
        assert_eq!(s.pop(), Some((far, 'z')));
    }

    #[test]
    fn mass_cancellation_from_large_heap() {
        // Cancel every other event out of a large population; delivery
        // order and len stay correct and tombstones are compacted lazily.
        let mut s = Scheduler::new();
        let n: u64 = 10_000;
        let ids: Vec<EventId> = (0..n)
            .map(|i| s.schedule_at(SimTime::from_nanos(i), i))
            .collect();
        for (i, id) in ids.iter().enumerate() {
            if i % 2 == 1 {
                assert!(s.cancel(*id));
            }
        }
        assert_eq!(s.len() as u64, n / 2);
        let delivered: Vec<u64> = std::iter::from_fn(|| s.pop().map(|(_, e)| e)).collect();
        assert_eq!(delivered, (0..n).step_by(2).collect::<Vec<_>>());
        assert!(s.is_empty());
        // cancel after delivery is still a no-op
        assert!(!s.cancel(ids[0]));
    }

    #[test]
    fn len_accounts_for_cancelled() {
        let mut s = Scheduler::new();
        let a = s.schedule_at(SimTime::from_secs(1), ());
        s.schedule_at(SimTime::from_secs(2), ());
        s.cancel(a);
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
    }

    #[test]
    fn stale_handle_never_aliases_a_reused_slot() {
        let mut s = Scheduler::new();
        let a = s.schedule_at(SimTime::from_secs(1), 'a');
        assert!(s.cancel(a));
        // The freed slot is reused by the next schedule; the old handle must
        // not cancel the new event.
        let b = s.schedule_at(SimTime::from_secs(2), 'b');
        assert!(!s.cancel(a), "stale handle must not alias slot reuse");
        assert_eq!(s.pop(), Some((SimTime::from_secs(2), 'b')));
        assert!(!s.cancel(b));
    }

    #[test]
    fn far_future_overflow_round_trips() {
        // Events beyond the 2^48-ns wheel horizon park in the overflow list
        // and come back in order, interleaved with near events.
        let mut s = Scheduler::new();
        let horizon = 1u64 << WHEEL_BITS;
        s.schedule_at(SimTime::from_nanos(horizon + 7), 'c');
        s.schedule_at(SimTime::from_nanos(5), 'a');
        s.schedule_at(SimTime::from_nanos(3 * horizon + 1), 'd');
        s.schedule_at(SimTime::from_nanos(horizon - 1), 'b');
        let order: Vec<char> = std::iter::from_fn(|| s.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c', 'd']);
        assert_eq!(s.now(), SimTime::from_nanos(3 * horizon + 1));
    }

    #[test]
    fn same_instant_fifo_survives_cascading() {
        // Schedule same-instant events from different cursor positions so
        // they take different cascade paths into the final bucket, then
        // check they still deliver in scheduling order.
        let mut s = Scheduler::new();
        let t = SimTime::from_nanos(1_000_000); // level-3 territory from 0
        s.schedule_at(t, 0);
        s.schedule_at(SimTime::from_nanos(999_000), 100); // forces a cascade
        s.schedule_at(t, 1);
        assert_eq!(s.pop(), Some((SimTime::from_nanos(999_000), 100)));
        // now the cursor sits just below t; new same-instant arrivals file
        // directly at low levels while 0 and 1 arrived via cascades
        s.schedule_at(t, 2);
        s.schedule_at(t, 3);
        let order: Vec<i32> = std::iter::from_fn(|| s.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn pop_before_stops_at_the_window_end() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_nanos(1_000_000), 'b');
        s.schedule_at(SimTime::from_nanos(400_000), 'a');
        let end = SimTime::from_nanos(999_000);
        assert_eq!(s.pop_before(end), Some((SimTime::from_nanos(400_000), 'a')));
        // 'b' sits in a bucket whose window starts before `end` (so it may
        // cascade) but whose events all lie at or after it
        assert_eq!(s.pop_before(end), None);
        assert_eq!(
            s.now(),
            SimTime::from_nanos(400_000),
            "None delivers nothing"
        );
        // a mailbox delivery at the window end still files correctly
        s.schedule_at(end, 'm');
        assert_eq!(s.pop_before(SimTime::MAX), Some((end, 'm')));
        assert_eq!(s.pop(), Some((SimTime::from_nanos(1_000_000), 'b')));
    }

    #[test]
    #[should_panic(expected = "pop_before already searched past it")]
    fn scheduling_behind_a_pop_before_search_panics() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_nanos(1_000_000), ());
        // cascades the bucket starting at 983,040 ns, then stops
        assert_eq!(s.pop_before(SimTime::from_nanos(999_000)), None);
        // legal for `now`, but behind the search position: would misfile
        s.schedule_at(SimTime::from_nanos(900_000), ());
    }

    #[test]
    fn ten_million_event_footprint_stays_bounded() {
        // Satellite of the wheel rewrite: a long run must not accumulate
        // per-event state the way the old pending/cancelled sets retained
        // capacity. The slot table tracks peak *concurrent* events only.
        const POPULATION: usize = 1_000;
        const EVENTS: u64 = 10_000_000;
        let mut s: Scheduler<u64> = Scheduler::new();
        let mut x: u64 = 0x243F_6A88_85A3_08D3; // deterministic LCG deltas
        let mut step = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) % 1_000_000 + 1
        };
        for i in 0..POPULATION {
            let d = step();
            s.schedule_after(SimDuration::from_nanos(d), i as u64);
        }
        for _ in 0..EVENTS {
            let (_, p) = s.pop().expect("steady population");
            let d = step();
            s.schedule_after(SimDuration::from_nanos(d), p);
        }
        assert_eq!(s.len(), POPULATION);
        // Footprint: the slot table never grows beyond the concurrent
        // population (plus nothing — reuse is exact in this workload).
        assert!(
            s.table.len() <= POPULATION,
            "slot table grew to {} for a {POPULATION}-event population",
            s.table.len()
        );
        // Bucket refs are bounded by population plus transient tombstones.
        let bucket_refs: usize = s.buckets.iter().flatten().map(Vec::len).sum();
        assert!(
            bucket_refs <= 2 * POPULATION,
            "{bucket_refs} bucket refs linger for a {POPULATION}-event population"
        );
    }

    /// One step of the differential test against the oracle.
    #[derive(Debug, Clone)]
    enum Step {
        /// Schedule at `now + delta` (delta 0 exercises same-instant FIFO;
        /// huge deltas exercise the overflow level).
        Schedule(u64),
        /// Cancel the k-th most recently issued handle (mod issued).
        Cancel(usize),
        Pop,
        /// `pop_before(floor + delta)`: the window-loop delivery.
        PopBefore(u64),
        Peek,
    }

    fn step_strategy() -> impl Strategy<Value = Step> {
        // Repeated arms stand in for weights (the vendored prop_oneof is
        // uniform): mostly schedules and pops, some cancels, a few peeks and
        // horizon-straddling far-future schedules.
        prop_oneof![
            (0u64..5_000_000).prop_map(Step::Schedule),
            (0u64..5_000_000).prop_map(Step::Schedule),
            (0u64..5_000_000).prop_map(Step::Schedule),
            (0u64..100).prop_map(Step::Schedule),
            ((1u64 << 47)..(1u64 << 50)).prop_map(Step::Schedule),
            (0usize..64).prop_map(Step::Cancel),
            (0usize..64).prop_map(Step::Cancel),
            Just(Step::Pop),
            Just(Step::Pop),
            Just(Step::Pop),
            Just(Step::Pop),
            (0u64..200_000).prop_map(Step::PopBefore),
            (0u64..200_000).prop_map(Step::PopBefore),
            (0u64..5_000_000).prop_map(Step::PopBefore),
            Just(Step::Peek),
        ]
    }

    proptest! {
        /// Random schedule/cancel/pop/pop_before/peek interleavings produce
        /// exactly the delivery sequence of the pre-wheel BinaryHeap
        /// implementation (`pop_before(end)` ≡ `peek_time() < end` + `pop`).
        #[test]
        fn wheel_matches_heap_oracle(steps in prop::collection::vec(step_strategy(), 0..300)) {
            let mut wheel: Scheduler<u64> = Scheduler::new();
            let mut heap: oracle::Scheduler<u64> = oracle::Scheduler::new();
            let mut wheel_ids: Vec<EventId> = Vec::new();
            let mut heap_ids: Vec<u64> = Vec::new();
            let mut n = 0u64;
            // Earliest legal schedule time: the clock, or the end of a
            // `pop_before` that found nothing since the last delivery (the
            // window contract).
            let mut floor = SimTime::ZERO;
            for step in steps {
                match step {
                    Step::Schedule(delta) => {
                        let at = floor + SimDuration::from_nanos(delta);
                        wheel_ids.push(wheel.schedule_at(at, n));
                        heap_ids.push(heap.schedule_at(at, n));
                        n += 1;
                    }
                    Step::Cancel(k) => {
                        if !wheel_ids.is_empty() {
                            let i = wheel_ids.len() - 1 - k % wheel_ids.len();
                            prop_assert_eq!(
                                wheel.cancel(wheel_ids[i]),
                                heap.cancel(heap_ids[i]),
                                "cancel outcome diverged"
                            );
                        }
                    }
                    Step::Pop => {
                        // Comparing delivered (time, payload) pairs also pins
                        // the clock: `now` is the last delivered timestamp.
                        let got = wheel.pop();
                        prop_assert_eq!(got, heap.pop(), "delivery diverged");
                        if let Some((at, _)) = got {
                            floor = at;
                        }
                    }
                    Step::PopBefore(delta) => {
                        let end = floor + SimDuration::from_nanos(delta);
                        let want = if heap.peek_time().is_some_and(|t| t < end) {
                            heap.pop()
                        } else {
                            None
                        };
                        let got = wheel.pop_before(end);
                        prop_assert_eq!(got, want, "windowed delivery diverged");
                        floor = got.map_or(end, |(at, _)| at);
                    }
                    Step::Peek => {
                        prop_assert_eq!(wheel.peek_time(), heap.peek_time());
                    }
                }
                prop_assert_eq!(wheel.len(), heap.len());
            }
            // drain both to the end
            loop {
                let (w, h) = (wheel.pop(), heap.pop());
                prop_assert_eq!(w, h, "drain diverged");
                if w.is_none() {
                    break;
                }
            }
        }
    }
}
