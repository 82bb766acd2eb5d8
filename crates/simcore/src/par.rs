//! Conservative parallel discrete-event runtime: domain partitioning with
//! lookahead windows.
//!
//! The sequential engine owns one [`Scheduler`](crate::Scheduler) and pops
//! events in global timestamp order. This module provides the classic
//! *conservative* (Chandy–Misra–Bryant style) alternative: the simulation is
//! partitioned into **domains**, each with its own scheduler, and all domains
//! advance together through synchronized time windows
//!
//! ```text
//! [window_start, window_start + lookahead)
//! ```
//!
//! where `lookahead` is a lower bound on the latency of any cross-domain
//! interaction (for the cluster engine: the minimum cross-domain network
//! link latency from `netsim`). A message sent at time `t ≥ window_start`
//! arrives at `t + latency ≥ window_start + lookahead`, i.e. **never inside
//! the current window** — so every domain may execute all of its events with
//! `at < window_end` without ever seeing a straggler from a peer. No
//! rollback, no anti-messages.
//!
//! # Determinism
//!
//! The runtime is *bit-deterministic by construction* at any thread count:
//!
//! * Each domain's event order is decided solely by its own scheduler.
//! * Cross-domain messages are buffered per (sending thread, destination)
//!   and drained after the window barrier **sorted by `(deliver_at, src,
//!   seq)`** — a canonical total order independent of which thread pushed
//!   first.
//! * Windows are synchronized: the next window start is the minimum of
//!   every domain's next pending event and every `deliver_at` sent in the
//!   window, reduced by the barrier itself, so every domain observes the
//!   same window sequence.
//! * Which thread runs a domain never matters: domains only meet through
//!   the sorted drains. Threads own contiguous equal-count ranges of
//!   domains.
//!
//! Running the same domain set on one thread or N threads therefore produces
//! identical per-domain event sequences — the cluster engine exploits this
//! to keep traces and results byte-identical between `--sim-threads 1` and
//! `--sim-threads N` (pinned by `tests/parsim_determinism.rs` and a proptest
//! against a single-scheduler oracle in `tests/par_window.rs`).
//!
//! # Synchronization
//!
//! One barrier per window (`WindowBarrier`): a sense-reversing barrier
//! whose last arriver also publishes the window vote (minimum next time,
//! panic flag). Waiters spin while every thread can hold a core
//! ([`host_cores`]) and yield after a bounded spin; when threads outnumber
//! cores, or other work shares them ([`HostShare`]), they yield at once.
//! Mail is double-buffered by window parity (`Mailboxes`), so a window's
//! senders and the previous window's drainers never touch the same slot
//! and no message takes a lock that anyone waits on. With a grain of a few
//! events per window the runtime's own cost per window decides whether
//! threads pay off (the Task Bench framing), hence one barrier and no
//! per-message locking.
//!
//! [`run_independent`] is the degenerate case — fully independent tasks
//! (lookahead = ∞, no cross traffic) dispatched over a thread pool, used by
//! benches whose cells share no state (`stress_grid_mt`).

use std::any::Any;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError, TryLockError};

use crate::time::{SimDuration, SimTime};

/// A cross-domain message in flight: the payload plus the coordinates that
/// define its canonical delivery order.
#[derive(Debug, Clone)]
pub struct Envelope<M> {
    /// Absolute virtual time the message takes effect at the destination.
    /// Always `≥` the end of the window it was sent in (lookahead rule).
    pub deliver_at: SimTime,
    /// Sending domain index.
    pub src: u32,
    /// Per-source send sequence number (1-based, monotonic). Together with
    /// `(deliver_at, src)` this gives mailbox drains a total order that does
    /// not depend on thread interleaving.
    pub seq: u64,
    /// The payload.
    pub msg: M,
}

/// Per-domain send buffer handed to [`WindowDomain::run_window`].
///
/// Sends are buffered locally during the window (no locking on the send
/// path) and published to the destination mailboxes at the window barrier.
/// The outbox enforces the conservative contract: a message may never be
/// scheduled to land inside the window it was sent from.
#[derive(Debug)]
pub struct Outbox<M> {
    src: u32,
    seq: u64,
    window_end: SimTime,
    buf: Vec<(usize, Envelope<M>)>,
}

impl<M> Outbox<M> {
    fn new(src: u32) -> Self {
        Outbox {
            src,
            seq: 0,
            window_end: SimTime::ZERO,
            buf: Vec::new(),
        }
    }

    /// Queue `msg` for delivery to domain `dest` at `deliver_at`.
    ///
    /// # Panics
    ///
    /// Panics if `deliver_at` lies inside the current window — that would
    /// mean the declared lookahead overstates the real minimum cross-domain
    /// latency, which would break conservative execution.
    pub fn send(&mut self, dest: usize, deliver_at: SimTime, msg: M) {
        assert!(
            deliver_at >= self.window_end,
            "lookahead violation: message for domain {dest} delivers at {deliver_at}, \
             inside the current window (end {})",
            self.window_end
        );
        self.seq += 1;
        self.buf.push((
            dest,
            Envelope {
                deliver_at,
                src: self.src,
                seq: self.seq,
                msg,
            },
        ));
    }
}

/// One partition of a simulation, driven through lookahead windows by
/// [`run_conservative`].
pub trait WindowDomain: Send {
    /// Cross-domain message payload.
    type Msg: Send;

    /// Earliest pending local event time, or `None` when the domain has
    /// nothing scheduled. Asked once before the run and after every window
    /// the domain runs; the runtime keeps the answer, lowered by each
    /// delivery's `deliver_at`, to agree on the next window start and to
    /// skip domains with nothing due. The run terminates when every domain
    /// is idle and no message is in flight.
    fn next_time(&mut self) -> Option<SimTime>;

    /// Accept one inbound message. The implementation schedules whatever
    /// local events the message implies at `env.deliver_at` (never
    /// earlier). Envelopes are handed over sorted by
    /// `(deliver_at, src, seq)`, so scheduling them in call order is
    /// canonical.
    fn deliver(&mut self, env: Envelope<Self::Msg>);

    /// Execute every local event with `time < end`, sending any
    /// cross-domain messages through `out`. Only called when something is
    /// pending before `end`.
    fn run_window(&mut self, end: SimTime, out: &mut Outbox<Self::Msg>);
}

/// The cores this process may run on (`std::thread::available_parallelism`,
/// which honours affinity masks and cgroup quotas), read once per process.
/// Window threads spin at the barrier only while they all fit on these.
pub fn host_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Live [`HostShare`] guards.
static SHARED: AtomicUsize = AtomicUsize::new(0);

/// While one lives, this process runs work side by side (a suite with
/// more than one job) whose threads already fill the host's cores: window
/// threads then yield at the barrier at once instead of spinning against
/// that work, and callers that pick their own thread count (`cluster`'s
/// pinned default) take one.
#[must_use = "the host counts as shared only while the guard lives"]
pub struct HostShare(());

impl HostShare {
    /// Mark the host as shared until the guard drops.
    pub fn enter() -> Self {
        SHARED.fetch_add(1, Ordering::Relaxed);
        HostShare(())
    }
}

impl Drop for HostShare {
    fn drop(&mut self) {
        SHARED.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Whether a [`HostShare`] lives.
pub fn host_shared() -> bool {
    SHARED.load(Ordering::Relaxed) > 0
}

/// Advance `domains` to completion through synchronized lookahead windows,
/// executing on `threads` OS threads, the calling thread included
/// (`threads == 1` runs fully sequentially; more threads than domains are
/// never started). Threads own contiguous equal-count ranges of domains.
///
/// The result state of every domain is bit-identical for any `threads`
/// value and any domain-to-thread assignment — see the module docs for why.
///
/// # Panics
///
/// Panics if `lookahead` is zero (a zero-width window cannot make progress)
/// or if a domain violates the lookahead contract when sending. A panic
/// inside a domain is rethrown with its original payload after every
/// thread has left the run.
pub fn run_conservative<D: WindowDomain>(
    domains: &mut [D],
    lookahead: SimDuration,
    threads: usize,
) {
    assert!(
        lookahead > SimDuration::ZERO,
        "conservative windows need a positive lookahead"
    );
    let n = domains.len();
    if n == 0 {
        return;
    }
    let threads = threads.max(1).min(n);
    let cells: Vec<Cell<'_, D>> = domains.iter_mut().enumerate().map(Cell::new).collect();
    if threads == 1 {
        run_windows_seq(cells, lookahead);
    } else {
        run_windows_par(cells, lookahead, threads);
    }
}

/// The window end for a given start: `start + lookahead`, saturating at the
/// far end of virtual time.
fn window_end(start: u64, lookahead: SimDuration) -> SimTime {
    SimTime::from_nanos(start.saturating_add(lookahead.as_nanos()))
}

/// Nanoseconds of a pending time; `u64::MAX` stands for "nothing pending".
fn nanos(t: Option<SimTime>) -> u64 {
    t.map_or(u64::MAX, SimTime::as_nanos)
}

/// A domain with the runtime's state for it. Both runtimes drive domains
/// through these, so they agree window for window.
struct Cell<'a, D: WindowDomain> {
    domain: &'a mut D,
    out: Outbox<D::Msg>,
    /// Earliest pending event (ns, `u64::MAX` = idle): refreshed from
    /// [`WindowDomain::next_time`] after every window the domain runs and
    /// lowered to each delivery's `deliver_at`, so a domain with nothing
    /// before the window end is skipped without being called.
    next: u64,
}

impl<'a, D: WindowDomain> Cell<'a, D> {
    fn new((i, domain): (usize, &'a mut D)) -> Self {
        let next = nanos(domain.next_time());
        Cell {
            domain,
            out: Outbox::new(u32::try_from(i).expect("domain index overflow")),
            next,
        }
    }

    /// Deliver `mail` (emptied) in canonical `(deliver_at, src, seq)` order.
    fn deliver(&mut self, mail: &mut Vec<Envelope<D::Msg>>) {
        if mail.is_empty() {
            return;
        }
        mail.sort_by_key(|a| (a.deliver_at, a.src, a.seq));
        self.next = self.next.min(mail[0].deliver_at.as_nanos());
        for env in mail.drain(..) {
            self.domain.deliver(env);
        }
    }

    /// Run the window ending at `end` if anything is pending before it,
    /// leaving the sends in `self.out.buf` for the caller to route.
    /// Returns whether it ran.
    fn run(&mut self, end: SimTime) -> bool {
        if self.next >= end.as_nanos() {
            return false;
        }
        self.out.window_end = end;
        self.domain.run_window(end, &mut self.out);
        self.next = nanos(self.domain.next_time());
        true
    }
}

/// One thread, no barrier: the reference schedule every thread count
/// reproduces. Each round drains the previous window's mail, runs the
/// window, and takes the next window start as the minimum of every
/// domain's next event and every `deliver_at` just sent.
fn run_windows_seq<D: WindowDomain>(mut cells: Vec<Cell<'_, D>>, lookahead: SimDuration) {
    let mut mail: Vec<Vec<Envelope<D::Msg>>> = cells.iter().map(|_| Vec::new()).collect();
    let mut start = cells.iter().map(|c| c.next).min().unwrap_or(u64::MAX);
    while start != u64::MAX {
        let end = window_end(start, lookahead);
        for (cell, inbox) in cells.iter_mut().zip(mail.iter_mut()) {
            cell.deliver(inbox);
        }
        start = u64::MAX;
        for cell in &mut cells {
            if cell.run(end) {
                for (dest, env) in cell.out.buf.drain(..) {
                    start = start.min(env.deliver_at.as_nanos());
                    mail[dest].push(env);
                }
            }
            start = start.min(cell.next);
        }
    }
}

/// What a thread brings to, and takes from, a window barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Vote {
    /// Earliest pending time (ns, `u64::MAX` = idle). Reduced by minimum:
    /// the agreed next window start.
    next: u64,
    /// A domain of this thread panicked. Reduced by OR.
    poisoned: bool,
}

/// Spin iterations a waiter makes before it starts yielding (a few hundred
/// microseconds on a current x86 core). Generous on purpose: a window is a
/// few microseconds of work, and a waiter that gives up its core early
/// pays a wake-up on every window.
const SPINS: u32 = 1 << 14;

/// A sense-reversing barrier that also reduces the threads' [`Vote`]s: the
/// one synchronization point per window.
///
/// Arrivals count up on `arrived`; the last arriver publishes the reduced
/// vote, resets the accumulators and the count, and bumps `generation`
/// (whose parity is the classic barrier "sense"). Waiters never block:
/// while every thread can hold a core they spin and then yield — on a
/// shared host a descheduled vCPU makes some waits long, and a waiter that
/// sleeps then adds a wake-up to the next window, whose waiter sleeps in
/// turn (measured: passes up to 2.5× slower). When the threads outnumber
/// the cores, or other work shares them ([`HostShare`]), waiters yield at
/// once, since spinning would only keep runnable threads off a core.
struct WindowBarrier {
    threads: usize,
    /// Spins before yielding: [`SPINS`], or 0 when threads outnumber cores
    /// or the host is shared.
    spins: u32,
    arrived: AtomicUsize,
    /// On a line of its own: waiters spin reading it.
    generation: Padded<AtomicU64>,
    next_acc: AtomicU64,
    poison_acc: AtomicBool,
    next_out: AtomicU64,
    poison_out: AtomicBool,
}

impl WindowBarrier {
    fn new(threads: usize) -> Self {
        WindowBarrier {
            threads,
            spins: if threads <= host_cores() && !host_shared() {
                SPINS
            } else {
                0
            },
            arrived: AtomicUsize::new(0),
            generation: Padded(AtomicU64::new(0)),
            next_acc: AtomicU64::new(u64::MAX),
            poison_acc: AtomicBool::new(false),
            next_out: AtomicU64::new(u64::MAX),
            poison_out: AtomicBool::new(false),
        }
    }

    /// Arrive with `vote`; return once every thread has arrived, with the
    /// reduction of all their votes. Every thread gets the same answer.
    ///
    /// Everything a thread wrote before arriving is visible to every thread
    /// after it returns: arrivals are a release sequence on `arrived` that
    /// the last arriver acquires, and its release of `generation` is
    /// acquired by every waiter.
    fn wait(&self, vote: Vote) -> Vote {
        let gen = self.generation.0.load(Ordering::Acquire);
        self.next_acc.fetch_min(vote.next, Ordering::Relaxed);
        if vote.poisoned {
            self.poison_acc.store(true, Ordering::Relaxed);
        }
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.threads {
            // The accumulators and the count are reset before the release,
            // and nobody touches them again until they have seen it.
            let next = self.next_acc.swap(u64::MAX, Ordering::Relaxed);
            let poisoned = self.poison_acc.swap(false, Ordering::Relaxed);
            self.next_out.store(next, Ordering::Relaxed);
            self.poison_out.store(poisoned, Ordering::Relaxed);
            self.arrived.store(0, Ordering::Relaxed);
            self.generation.0.store(gen + 1, Ordering::Release);
            return Vote { next, poisoned };
        }
        let released = || self.generation.0.load(Ordering::Acquire) != gen;
        for _ in 0..self.spins {
            if released() {
                break;
            }
            std::hint::spin_loop();
        }
        while !released() {
            std::thread::yield_now();
        }
        // Published before the release; rewritten only by the next
        // barrier's last arriver, which needs this thread to arrive first.
        Vote {
            next: self.next_out.load(Ordering::Relaxed),
            poisoned: self.poison_out.load(Ordering::Relaxed),
        }
    }
}

/// Keeps a value on a cache line of its own, so threads updating
/// neighbouring values do not steal each other's lines.
#[repr(align(128))]
struct Padded<T>(T);

/// Cross-thread mail, double-buffered by window parity: a message sent in
/// window `k` sits in parity `k % 2` until the thread that owns its
/// destination drains it in window `k + 1`. Senders of window `k + 1`
/// write the other parity, and nobody writes parity `k % 2` again before
/// the barrier closing window `k + 1`, which every drainer has passed — so
/// sender and drainer never touch a slot at the same time. Each slot is
/// therefore only ever taken with `try_lock`, once per window per
/// (sending thread, destination) pair that has mail: nothing waits on it,
/// and a failed attempt would be a protocol bug.
struct Mailboxes<M> {
    domains: usize,
    /// Per parity, `slots[thread * domains + dest]`.
    slots: [Vec<Mutex<Vec<Envelope<M>>>>; 2],
    /// Per destination and parity: some thread posted mail. `Relaxed` on
    /// both sides: set before the barrier that closes the window, read and
    /// cleared after it, so the barrier's release/acquire orders the flag
    /// and the slot contents alike.
    posted: Vec<Padded<[AtomicBool; 2]>>,
}

impl<M> Mailboxes<M> {
    fn new(threads: usize, domains: usize) -> Self {
        let slots = || {
            (0..threads * domains)
                .map(|_| Mutex::new(Vec::new()))
                .collect()
        };
        Mailboxes {
            domains,
            slots: [slots(), slots()],
            posted: (0..domains)
                .map(|_| Padded([AtomicBool::new(false), AtomicBool::new(false)]))
                .collect(),
        }
    }

    fn slot(&self, parity: usize, thread: usize, dest: usize) -> MutexGuard<'_, Vec<Envelope<M>>> {
        match self.slots[parity][thread * self.domains + dest].try_lock() {
            Ok(slot) => slot,
            // only after a panic elsewhere; the run is being abandoned
            Err(TryLockError::Poisoned(e)) => e.into_inner(),
            Err(TryLockError::WouldBlock) => {
                unreachable!("parity mailbox contended: the window protocol is broken")
            }
        }
    }
}

/// The state every window thread shares.
struct Shared<M> {
    lookahead: SimDuration,
    threads: usize,
    /// Start of the first window.
    first: u64,
    barrier: WindowBarrier,
    mail: Mailboxes<M>,
    /// The first panic payload from any domain.
    payload: Mutex<Option<Box<dyn Any + Send>>>,
}

fn run_windows_par<D: WindowDomain>(
    mut cells: Vec<Cell<'_, D>>,
    lookahead: SimDuration,
    threads: usize,
) {
    let n = cells.len();
    // Ceil division can cut fewer ranges than `threads` (4 domains on 3
    // threads: two of 2), so everything is sized from the ranges cut.
    let chunk = n.div_ceil(threads);
    let threads = n.div_ceil(chunk);
    let shared = Shared {
        first: cells.iter().map(|c| c.next).min().unwrap_or(u64::MAX),
        lookahead,
        threads,
        barrier: WindowBarrier::new(threads),
        mail: Mailboxes::new(threads, n),
        payload: Mutex::new(None),
    };
    let shared = &shared;
    std::thread::scope(|s| {
        let mut ranges = cells.chunks_mut(chunk).enumerate();
        let (_, first) = ranges.next().expect("at least one domain");
        for (me, range) in ranges {
            s.spawn(move || window_thread(me, me * chunk, range, shared));
        }
        window_thread(0, 0, first, shared);
    });
    // Rethrow the first domain panic with its original payload, as if the
    // caller had run that domain inline.
    let first = shared
        .payload
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .take();
    if let Some(p) = first {
        resume_unwind(p);
    }
}

/// One window thread, owning the domains `base..base + cells.len()`. Per
/// window: drain the previous window's mail into the owned domains, run
/// those with anything due, post the new mail, vote the minimum of the
/// owned domains' next events and every `deliver_at` sent, and meet the
/// others at the barrier, which agrees the next window and the panic
/// state.
///
/// Panic poison: a domain panic must not strand sibling threads at the
/// barrier. The panicking thread records the payload and still arrives,
/// voting "poisoned"; the barrier's reduction hands every thread the same
/// verdict at the same barrier, so all of them leave together. (A flag read
/// outside the barrier could be set by a fast sibling already running the
/// next window, and a slow thread would then leave one barrier early.)
fn window_thread<D: WindowDomain>(
    me: usize,
    base: usize,
    cells: &mut [Cell<'_, D>],
    sh: &Shared<D::Msg>,
) {
    let mut outgoing: Vec<Vec<Envelope<D::Msg>>> =
        (0..sh.mail.domains).map(|_| Vec::new()).collect();
    let mut dirty: Vec<usize> = Vec::new();
    let mut inbox: Vec<Envelope<D::Msg>> = Vec::new();
    let mut agreed = Vote {
        next: sh.first,
        poisoned: false,
    };
    let mut window = 0u64;
    while !agreed.poisoned && agreed.next != u64::MAX {
        window += 1;
        let parity = (window & 1) as usize;
        let end = window_end(agreed.next, sh.lookahead);
        let ran = catch_unwind(AssertUnwindSafe(|| {
            for (d, cell) in (base..).zip(cells.iter_mut()) {
                if sh.mail.posted[d].0[1 - parity].swap(false, Ordering::Relaxed) {
                    for t in 0..sh.threads {
                        inbox.append(&mut sh.mail.slot(1 - parity, t, d));
                    }
                    cell.deliver(&mut inbox);
                }
            }
            let mut next = u64::MAX;
            for cell in cells.iter_mut() {
                if cell.run(end) {
                    for (dest, env) in cell.out.buf.drain(..) {
                        next = next.min(env.deliver_at.as_nanos());
                        if outgoing[dest].is_empty() {
                            dirty.push(dest);
                        }
                        outgoing[dest].push(env);
                    }
                }
                next = next.min(cell.next);
            }
            for dest in dirty.drain(..) {
                // the slot was emptied by its drainer; swapping hands its
                // capacity back to this thread, so mail never allocates in
                // steady state
                std::mem::swap(&mut *sh.mail.slot(parity, me, dest), &mut outgoing[dest]);
                sh.mail.posted[dest].0[parity].store(true, Ordering::Relaxed);
            }
            next
        }));
        let vote = match ran {
            Ok(next) => Vote {
                next,
                poisoned: false,
            },
            Err(p) => {
                sh.payload
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .get_or_insert(p);
                Vote {
                    next: u64::MAX,
                    poisoned: true,
                }
            }
        };
        agreed = sh.barrier.wait(vote);
    }
}

/// Run `tasks` fully independent jobs on up to `threads` OS threads and
/// return their results in task order.
///
/// Tasks are claimed from a shared atomic counter in index order, so
/// schedule tasks longest-first for the best makespan. Results are
/// positionally collected; as long as each task is a pure function of its
/// index, the returned vector is deterministic regardless of interleaving.
pub fn run_independent<T, F>(tasks: usize, threads: usize, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.max(1).min(tasks.max(1));
    if threads == 1 {
        return (0..tasks).map(run).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..tasks).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= tasks {
                    break;
                }
                let r = run(i);
                *slots[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("independent task completed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::Scheduler;

    /// Toy domain: a scheduler of `u64` tokens. Popping an even token logs
    /// it and forwards `token + 1` to the peer domain one lookahead later;
    /// odd tokens just log.
    struct PingDomain {
        id: usize,
        peer: usize,
        sched: Scheduler<u64>,
        log: Vec<(u64, u64)>,
        hops: u64,
    }

    const LOOKAHEAD: SimDuration = SimDuration::from_micros(50);

    impl WindowDomain for PingDomain {
        type Msg = u64;

        fn next_time(&mut self) -> Option<SimTime> {
            self.sched.peek_time()
        }

        fn deliver(&mut self, env: Envelope<u64>) {
            self.sched.schedule_at(env.deliver_at, env.msg);
        }

        fn run_window(&mut self, end: SimTime, out: &mut Outbox<u64>) {
            while self.sched.peek_time().is_some_and(|t| t < end) {
                let (at, token) = self.sched.pop().expect("peeked event");
                self.log.push((at.as_nanos(), token));
                if token % 2 == 0 && self.hops > 0 {
                    self.hops -= 1;
                    out.send(self.peer, at + LOOKAHEAD, token + 1);
                    out.send(self.peer, at + LOOKAHEAD * 2, token + 2);
                }
            }
        }
    }

    fn make_domains() -> Vec<PingDomain> {
        (0..4)
            .map(|id| {
                let mut sched = Scheduler::new();
                for k in 0..8u64 {
                    sched.schedule_at(SimTime::from_micros(10 * (k + 1) + id as u64), k * 2);
                }
                PingDomain {
                    id,
                    peer: (id + 1) % 4,
                    sched,
                    log: Vec::new(),
                    hops: 32,
                }
            })
            .collect()
    }

    #[test]
    fn parallel_matches_sequential_bit_for_bit() {
        let mut seq = make_domains();
        run_conservative(&mut seq, LOOKAHEAD, 1);
        for threads in [2, 3, 4, 8] {
            let mut par = make_domains();
            run_conservative(&mut par, LOOKAHEAD, threads);
            for (a, b) in seq.iter().zip(par.iter()) {
                assert_eq!(a.id, b.id);
                assert_eq!(
                    a.log, b.log,
                    "domain {} diverged at {threads} threads",
                    a.id
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "lookahead violation")]
    fn undershooting_the_lookahead_panics() {
        struct Bad(Scheduler<u64>);
        impl WindowDomain for Bad {
            type Msg = u64;
            fn next_time(&mut self) -> Option<SimTime> {
                self.0.peek_time()
            }
            fn deliver(&mut self, env: Envelope<u64>) {
                self.0.schedule_at(env.deliver_at, env.msg);
            }
            fn run_window(&mut self, end: SimTime, out: &mut Outbox<u64>) {
                while self.0.peek_time().is_some_and(|t| t < end) {
                    let (at, _) = self.0.pop().unwrap();
                    out.send(1, at, 0); // zero latency: lands inside the window
                }
            }
        }
        let mut a = Scheduler::new();
        a.schedule_at(SimTime::from_micros(1), 7);
        let mut domains = vec![Bad(a), Bad(Scheduler::new())];
        run_conservative(&mut domains, LOOKAHEAD, 1);
    }

    /// A domain that panics while executing its third event. Pre-fix, the
    /// panicking thread never reached the window barrier again and every
    /// sibling thread blocked forever; this test then hung instead of
    /// failing. Post-fix the panic is rethrown to the caller with its
    /// original message at every thread count.
    struct Boom {
        sched: Scheduler<u64>,
        popped: u64,
        detonate: bool,
    }

    impl WindowDomain for Boom {
        type Msg = u64;
        fn next_time(&mut self) -> Option<SimTime> {
            self.sched.peek_time()
        }
        fn deliver(&mut self, env: Envelope<u64>) {
            self.sched.schedule_at(env.deliver_at, env.msg);
        }
        fn run_window(&mut self, end: SimTime, out: &mut Outbox<u64>) {
            while self.sched.peek_time().is_some_and(|t| t < end) {
                let (at, token) = self.sched.pop().expect("peeked event");
                self.popped += 1;
                if self.detonate && self.popped == 3 {
                    panic!("deliberate domain panic at {at}");
                }
                out.send((token as usize + 1) % 4, at + LOOKAHEAD, token);
            }
        }
    }

    fn booming_domains() -> Vec<Boom> {
        (0..4usize)
            .map(|id| {
                let mut sched = Scheduler::new();
                for k in 0..16u64 {
                    sched.schedule_at(SimTime::from_micros(10 * (k + 1)), id as u64);
                }
                Boom {
                    sched,
                    popped: 0,
                    detonate: id == 2,
                }
            })
            .collect()
    }

    #[test]
    fn domain_panic_propagates_across_the_barrier() {
        for threads in [2, 4] {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut domains = booming_domains();
                run_conservative(&mut domains, LOOKAHEAD, threads);
            }))
            .expect_err("the Boom domain must abort the run");
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_default();
            assert!(
                msg.contains("deliberate domain panic"),
                "original panic message lost at {threads} threads: {msg:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "deliberate domain panic")]
    fn domain_panic_propagates_sequentially_too() {
        let mut domains = booming_domains();
        run_conservative(&mut domains, LOOKAHEAD, 1);
    }

    /// `make_domains` with the first two domains carrying far more traffic
    /// than the rest, so at two threads one thread owns both heavy
    /// domains and the other mostly waits at the barrier.
    fn lopsided_domains() -> Vec<PingDomain> {
        let mut domains = make_domains();
        for heavy in &mut domains[..2] {
            for k in 0..20_000u64 {
                heavy
                    .sched
                    .schedule_at(SimTime::from_micros(7 * k + 3), 2 * k + 1);
            }
        }
        domains
    }

    #[test]
    fn lopsided_runs_match_sequential_bit_for_bit() {
        let mut seq = lopsided_domains();
        run_conservative(&mut seq, LOOKAHEAD, 1);
        assert!(seq[0].log.len() > 20_000);
        for threads in [2, 3, 4] {
            let mut par = lopsided_domains();
            run_conservative(&mut par, LOOKAHEAD, threads);
            for (a, b) in seq.iter().zip(par.iter()) {
                assert_eq!(
                    a.log, b.log,
                    "domain {} diverged at {threads} threads",
                    a.id
                );
            }
        }
    }

    /// Many rounds of the window barrier at 2–4 threads and at one more
    /// thread than the host has cores (waiters yield without spinning):
    /// every thread gets the same reduced vote each round, and no thread
    /// starts a round before every thread has finished the previous one.
    /// Runs on a helper thread under a wall-clock guard, so a missed
    /// release fails the test instead of hanging it.
    #[test]
    fn barrier_stress_keeps_every_round_in_lockstep() {
        const ROUNDS: u64 = 100_000;
        fn stress(threads: usize) {
            let barrier = WindowBarrier::new(threads);
            let arrivals = AtomicU64::new(0);
            let n = threads as u64;
            std::thread::scope(|s| {
                for me in 0..n {
                    let (barrier, arrivals) = (&barrier, &arrivals);
                    s.spawn(move || {
                        for round in 0..ROUNDS {
                            arrivals.fetch_add(1, Ordering::Relaxed);
                            let poison_round = round % 1000 == 999;
                            let got = barrier.wait(Vote {
                                next: round * 16 + (me + round) % n,
                                poisoned: poison_round && me == round % n,
                            });
                            assert_eq!(
                                got,
                                Vote {
                                    next: round * 16,
                                    poisoned: poison_round,
                                },
                                "round {round} at {threads} threads"
                            );
                            let seen = arrivals.load(Ordering::Relaxed);
                            assert!(
                                ((round + 1) * n..=(round + 2) * n).contains(&seen),
                                "round {round}: {seen} arrivals at {threads} threads"
                            );
                        }
                    });
                }
            });
        }
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for threads in [2, 3, 4, host_cores() + 1] {
                stress(threads);
            }
            done.send(()).ok();
        });
        finished
            .recv_timeout(std::time::Duration::from_secs(120))
            .expect("barrier stress failed, hung or took over 120 s");
    }

    #[test]
    fn run_independent_returns_results_in_task_order() {
        for threads in [1, 2, 4] {
            let got = run_independent(17, threads, |i| i * i);
            assert_eq!(got, (0..17).map(|i| i * i).collect::<Vec<_>>());
        }
    }
}
