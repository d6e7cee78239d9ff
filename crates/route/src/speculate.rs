//! Speculative rip-up and reroute: the searches of one negotiation pass
//! on every worker, committed strictly in connection order.
//!
//! After the first iteration a pass walks the connections in order and,
//! for each whose committed path overflows, rips the path up, searches
//! the grid as the earlier connections of the pass left it, and commits
//! what it finds. Most of those searches return the path they ripped up
//! (88–97 % from the fourth iteration on, on the SPLA-class design at the
//! routability edge), and such a commit changes nothing. So the searches
//! of upcoming connections can run ahead of their turn:
//!
//! - *Helpers* claim connections in order, each keeping a copy of the
//!   committed grid that it brings up to date from the pass's log before
//!   every search. A search sees its own old path ripped up on that copy
//!   only, and records every gcell it expanded.
//! - *The calling thread* decides every connection in order on the
//!   committed grid: whether its path overflows, and so is rerouted, and
//!   whether its search found a path. It searches itself when a
//!   connection is not claimed, and claims the next one while the one
//!   whose turn it is is still being searched.
//! - A search run ahead of its turn is committed as found unless an edge
//!   whose usage was committed since it read the grid has an end it
//!   expanded. Otherwise it is redone on the committed grid.
//!
//! *Why the result is the serial one, bit for bit.* A search's every
//! step depends only on the costs of the edges it reads, and it reads an
//! edge only when it expands one of the edge's two gcells. Edge costs are
//! a function of the edge's usage (integer-valued, so a rip-up and a
//! re-commit of the same path restore it exactly), its blockage and
//! history (fixed within a pass) and the present factor (fixed too). The
//! grid a search ran on differs from the one its connection sees in its
//! turn only on the edges logged in between; its own old path is ripped
//! up in both. If no logged edge has an expanded end, the search read the
//! same costs as the serial one, so it expands the same gcells in the
//! same order and finds the same path. The commit itself is the serial
//! one: in order, on the committed grid, with the same rip-up and
//! lay-down.

use crate::grid::{GcellCoord, RouteGrid};
use crate::router::{path_overflows, Maze, Pass};
use casyn_exec::Pool;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread::{self, Thread};

/// How far past the connection whose turn it is a search may run, per
/// worker. Deeper speculation reads an older grid and is redone more
/// often; shallower leaves workers waiting for the window to move.
const WINDOW_PER_WORKER: usize = 4;

/// Log entries kept before the committer drops those nobody can need.
const LOG_TRIM: usize = 1024;

/// A helper's copy of the committed grid and its own search state, kept
/// from pass to pass of one routing run.
pub(crate) struct Replica {
    grid: RouteGrid,
    maze: Maze,
}

/// The outcome of a search run ahead of its turn.
enum Spec {
    /// The old path did not overflow on the grid the worker saw: nothing
    /// was searched.
    Kept,
    /// The path found on the committed grid after the pass's first `seen`
    /// logged changes, the number of gcells the search expanded, and
    /// their bitmap.
    Routed { seen: usize, path: Vec<u32>, expanded: u64, gcells: Vec<u64> },
}

/// The usage changes a pass committed, in order, as `(edge, usage)`;
/// `entries[k]` is change number `base + k`. Usage counts paths, so it is
/// integral.
#[derive(Default)]
struct Log {
    base: usize,
    entries: Vec<(u32, u32)>,
}

impl Log {
    /// Number of changes committed so far.
    fn len(&self) -> usize {
        self.base + self.entries.len()
    }

    /// The changes committed after the first `seen`.
    fn since(&self, seen: usize) -> &[(u32, u32)] {
        &self.entries[seen - self.base..]
    }
}

/// What the workers of one pass share.
struct Board<'a> {
    connections: &'a [(GcellCoord, GcellCoord)],
    /// The paths committed before the pass. A connection's old path stays
    /// its committed one until its turn.
    old: &'a [Vec<u32>],
    margin: usize,
    window: usize,
    /// The lowest connection no worker has claimed.
    claim: AtomicUsize,
    /// The lowest connection not yet decided.
    decided: AtomicUsize,
    /// Helpers asleep on a full window.
    parked: AtomicUsize,
    /// The pass is over, or failed: helpers leave.
    stop: AtomicBool,
    /// A helper panicked, so something claimed may never be posted.
    lost: AtomicBool,
    log: Mutex<Log>,
    /// How many logged changes each helper's copy holds; written under
    /// the log's lock.
    synced: Vec<AtomicUsize>,
    /// The outcome of claimed search `i` goes to slot `i % window`, as
    /// `(i, outcome)`: every claimed connection not yet decided lies in
    /// one window, so none shares a slot with another.
    slots: Vec<Mutex<Option<(usize, Spec)>>>,
    /// The calling thread, woken by every post.
    committer: Thread,
}

/// Locks `m` even after a panic on another thread. Every update under
/// these locks leaves the data whole (a slot is written in one store, a
/// helper only reads the log), and the scope re-raises the panic when
/// the pass ends: this only keeps the other workers from stalling first.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Board<'_> {
    /// Claims the lowest unclaimed connection within the window of
    /// `decided`, or says there is none.
    fn try_claim(&self, decided: usize) -> Option<usize> {
        loop {
            let i = self.claim.load(SeqCst);
            if i >= self.connections.len() || i >= decided + self.window {
                return None;
            }
            if self.claim.compare_exchange(i, i + 1, SeqCst, SeqCst).is_ok() {
                return Some(i);
            }
        }
    }

    /// A helper's claim: waits while the window is full, and is `None`
    /// once the pass is over or every connection is claimed.
    fn claim_or_wait(&self) -> Option<usize> {
        loop {
            if self.stop.load(SeqCst) || self.claim.load(SeqCst) >= self.connections.len() {
                return None;
            }
            if let Some(i) = self.try_claim(self.decided.load(SeqCst)) {
                return Some(i);
            }
            // the committer reads `parked` after it moves `decided`: either
            // it sees this helper parked and wakes it, or the helper sees
            // the new window before it sleeps
            self.parked.fetch_add(1, SeqCst);
            let i = self.claim.load(SeqCst);
            if !self.stop.load(SeqCst) && i >= self.decided.load(SeqCst) + self.window {
                thread::park();
            }
            self.parked.fetch_sub(1, SeqCst);
        }
    }

    /// Searches connection `i` on `grid`, the committed grid after `seen`
    /// logged changes, with `i`'s old path ripped up; leaves `grid` and
    /// `maze` as it found them.
    fn search_ahead(&self, maze: &mut Maze, grid: &mut RouteGrid, i: usize, seen: usize) -> Spec {
        let old = &self.old[i];
        if !path_overflows(grid, old) {
            return Spec::Kept;
        }
        let (a, b) = self.connections[i];
        maze.apply(grid, old, -1.0);
        let mut path = Vec::new();
        let expanded = maze.route_tracked(a, b, self.margin, &mut path);
        maze.apply(grid, old, 1.0);
        Spec::Routed { seen, path, expanded, gcells: maze.expanded_gcells.clone() }
    }

    /// Posts the outcome of claimed search `i`, unless its slot already
    /// holds a later connection's: then `i` was decided without it.
    fn post(&self, i: usize, spec: Spec) {
        let mut slot = lock(&self.slots[i % self.window]);
        if slot.as_ref().is_none_or(|(j, _)| *j < i) {
            *slot = Some((i, spec));
        }
        drop(slot);
        self.committer.unpark();
    }

    /// Takes the posted outcome of connection `c`, if it is there.
    fn take(&self, c: usize) -> Option<Spec> {
        let mut slot = lock(&self.slots[c % self.window]);
        match &*slot {
            Some((j, _)) if *j == c => slot.take().map(|(_, spec)| spec),
            _ => None,
        }
    }
}

/// [`crate::router`]'s rip-up-and-reroute pass after the first, with its
/// searches on `pool`'s workers: the same commits, counts and error as
/// the serial pass, plus how many searches ran ahead and were kept or
/// redone. `replicas` holds the helpers' state from earlier passes.
pub(crate) fn reroute(
    grid: &mut RouteGrid,
    maze: &mut Maze,
    replicas: &mut Vec<Replica>,
    connections: &[(GcellCoord, GcellCoord)],
    paths: &mut [Vec<u32>],
    margin: usize,
    pool: &Pool,
) -> Result<Pass, usize> {
    let workers = pool.workers().min(connections.len()).max(1);
    replicas.resize_with(workers - 1, || Replica { grid: grid.clone(), maze: Maze::new(grid) });
    for r in replicas.iter_mut() {
        r.grid.copy_usage_and_history(grid);
        r.maze.rebuild_costs(&r.grid, maze.present_factor());
    }
    let window = WINDOW_PER_WORKER * workers;
    let board = Board {
        connections,
        old: paths,
        margin,
        window,
        claim: AtomicUsize::new(0),
        decided: AtomicUsize::new(0),
        parked: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
        lost: AtomicBool::new(false),
        log: Mutex::default(),
        synced: replicas.iter().map(|_| AtomicUsize::new(0)).collect(),
        slots: (0..window).map(|_| Mutex::new(None)).collect(),
        committer: thread::current(),
    };
    let (result, updates) = thread::scope(|s| {
        let helpers: Vec<Thread> = replicas
            .iter_mut()
            .enumerate()
            .map(|(id, replica)| {
                let board = &board;
                s.spawn(move || help(board, id, replica)).thread().clone()
            })
            .collect();
        // dropped on every way out, a panic included, so no helper sleeps
        // through the end of the scope
        let _stop = StopHelpers { board: &board, helpers: helpers.clone() };
        let mut committer = Committer {
            board: &board,
            grid,
            maze,
            helpers,
            moved: Vec::new(),
            scratch: Vec::new(),
            changed: Vec::new(),
            new_edges: Vec::new(),
            pass: Pass::default(),
        };
        let result = committer.run().map(|()| committer.pass);
        (result, (committer.changed, committer.new_edges))
    });
    drop(board);
    // in place, so that a path keeps the allocation it had
    let (changed, new_edges) = updates;
    let mut start = 0;
    for (c, end) in changed {
        paths[c].clear();
        paths[c].extend_from_slice(&new_edges[start..end]);
        start = end;
    }
    result
}

/// A helper: claims connections in order and searches them ahead of
/// their turn on its own copy of the committed grid.
fn help(board: &Board, id: usize, replica: &mut Replica) {
    let _wake = WakeCommitter(board);
    let Replica { grid, maze } = replica;
    let mut seen = 0;
    while let Some(i) = board.claim_or_wait() {
        {
            let log = lock(&board.log);
            for &(e, usage) in log.since(seen) {
                grid.set_usage(e as usize, f64::from(usage));
                maze.refresh(grid, e as usize);
            }
            seen = log.len();
            board.synced[id].store(seen, SeqCst);
        }
        let spec = board.search_ahead(maze, grid, i, seen);
        board.post(i, spec);
    }
}

/// Wakes the committer when its helper leaves, and marks a panicking
/// helper lost, so that the committer never waits for a post that will
/// not come.
struct WakeCommitter<'a, 'b>(&'a Board<'b>);

impl Drop for WakeCommitter<'_, '_> {
    fn drop(&mut self) {
        if thread::panicking() {
            self.0.lost.store(true, SeqCst);
        }
        self.0.committer.unpark();
    }
}

/// Ends the pass for the helpers.
struct StopHelpers<'a, 'b> {
    board: &'a Board<'b>,
    helpers: Vec<Thread>,
}

impl Drop for StopHelpers<'_, '_> {
    fn drop(&mut self) {
        self.board.stop.store(true, SeqCst);
        self.helpers.iter().for_each(Thread::unpark);
    }
}

/// The calling thread's side: the committed grid and its cost cache, and
/// everything the pass has committed.
struct Committer<'a, 'b> {
    board: &'a Board<'b>,
    grid: &'a mut RouteGrid,
    maze: &'a mut Maze,
    helpers: Vec<Thread>,
    /// Scratch: `(edge, usage)` before a commit.
    moved: Vec<(u32, f64)>,
    /// Scratch for the searches run in a connection's turn.
    scratch: Vec<u32>,
    /// Every connection whose path changed, with the end of its new path
    /// in `new_edges`, where the new paths lie back to back.
    changed: Vec<(usize, usize)>,
    new_edges: Vec<u32>,
    pass: Pass,
}

impl Committer<'_, '_> {
    /// Decides every connection in order; on a connection whose search
    /// finds no path, stops with its index.
    fn run(&mut self) -> Result<(), usize> {
        let board = self.board;
        let n = board.connections.len();
        let mut c = 0;
        while c < n {
            // `c` is nobody's yet: the serial step
            let mine = board.claim.compare_exchange(c, c + 1, SeqCst, SeqCst).is_ok();
            if !path_overflows(self.grid, &board.old[c]) {
                c = self.advance(c);
                continue;
            }
            let spec = if mine {
                None
            } else {
                let posted = board.take(c);
                if posted.is_none() && !board.lost.load(SeqCst) {
                    // `c` is being searched: search ahead meanwhile, or wait
                    match board.try_claim(c) {
                        Some(i) => {
                            let seen = lock(&board.log).len();
                            let spec = board.search_ahead(self.maze, self.grid, i, seen);
                            board.post(i, spec);
                        }
                        None => thread::park(),
                    }
                    continue;
                }
                posted
            };
            self.decide(c, spec)?;
            c = self.advance(c);
        }
        Ok(())
    }

    /// Marks `c` decided, wakes helpers waiting for the window to move,
    /// and returns the next connection.
    fn advance(&self, c: usize) -> usize {
        self.board.decided.store(c + 1, SeqCst);
        if self.board.parked.load(SeqCst) > 0 {
            self.helpers.iter().for_each(Thread::unpark);
        }
        c + 1
    }

    /// Reroutes `c`, whose old path overflows, from the search run ahead
    /// when the grid it read has not changed since, else by searching the
    /// committed grid.
    fn decide(&mut self, c: usize, spec: Option<Spec>) -> Result<(), usize> {
        let board = self.board;
        let (a, b) = board.connections[c];
        self.pass.rerouted += 1;
        let fresh = match spec {
            Some(Spec::Routed { seen, path, expanded, gcells }) if self.unread(seen, &gcells) => {
                self.pass.accepted += 1;
                self.pass.expanded += expanded;
                path
            }
            spec => {
                self.pass.redone += u64::from(matches!(spec, Some(Spec::Routed { .. })));
                let old = &board.old[c];
                let mut path = std::mem::take(&mut self.scratch);
                self.maze.apply(self.grid, old, -1.0);
                self.pass.expanded += self.maze.route(a, b, board.margin, &mut path);
                self.maze.apply(self.grid, old, 1.0);
                path
            }
        };
        if fresh.is_empty() && a != b {
            return Err(c);
        }
        self.commit(c, &fresh);
        self.scratch = fresh;
        Ok(())
    }

    /// True when no change logged after the first `seen` is to an edge
    /// with an end among the expanded `gcells`.
    fn unread(&self, seen: usize, gcells: &[u64]) -> bool {
        let hit = |g: usize| gcells[g / 64] >> (g % 64) & 1 == 1;
        lock(&self.board.log).since(seen).iter().all(|&(e, _)| {
            let (u, v) = self.grid.edge_gcells(e as usize);
            !hit(u) && !hit(v)
        })
    }

    /// Rips up `c`'s old path and lays down `fresh`, as the serial pass
    /// does, and logs every edge whose usage moved. An unchanged path
    /// moves nothing.
    fn commit(&mut self, c: usize, fresh: &[u32]) {
        let board = self.board;
        let old = &board.old[c];
        if fresh == old.as_slice() {
            self.pass.unchanged += 1;
            return;
        }
        let grid = &mut *self.grid;
        self.moved.clear();
        self.moved.extend(old.iter().chain(fresh).map(|&e| (e, grid.edge_usage(e as usize))));
        self.maze.apply(grid, old, -1.0);
        self.maze.apply(grid, fresh, 1.0);
        let mut log = lock(&board.log);
        for &(e, before) in &self.moved {
            let usage = grid.edge_usage(e as usize);
            // an edge on both paths is back where it was
            if usage != before {
                log.entries.push((e, usage as u32));
            }
        }
        if log.entries.len() >= LOG_TRIM {
            // nobody reads a change older than every helper's copy and
            // every outcome posted for a connection after `c`; the
            // helpers' marks move only under the log's lock
            let mut needed = board.synced.iter().map(|s| s.load(SeqCst)).min().unwrap_or(log.len());
            for slot in &board.slots {
                if let Some((i, Spec::Routed { seen, .. })) = &*lock(slot) {
                    if *i > c {
                        needed = needed.min(*seen);
                    }
                }
            }
            let stale = needed - log.base;
            log.entries.drain(..stale);
            log.base = needed;
        }
        drop(log);
        self.new_edges.extend_from_slice(fresh);
        self.changed.push((c, self.new_edges.len()));
    }
}
