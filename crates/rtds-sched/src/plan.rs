//! The scheduling plan of one site's computation processor.
//!
//! A plan is the ordered set of task reservations the site has *committed*
//! to. Everything the paper asks of the local scheduler reduces to questions
//! about this plan:
//!
//! * §5 local test — can a DAG be interleaved with the committed
//!   reservations before its deadline?
//! * §10 validation — can a set of tasks with releases and deadlines be
//!   interleaved with the committed reservations?
//! * §2 surplus — how much of the observation window is still idle?
//!
//! Insertion is *non-preemptive* by default (each task occupies one
//! contiguous slot) with a preemptive variant (a task may be split across
//! idle windows) supporting the §13 preemptive generalisation.

use crate::interval::{subtract_busy, TimeInterval};
use rtds_graph::{JobId, TaskId};
use serde::{Deserialize, Serialize};

/// Tolerance used when comparing times; all workloads in this crate operate
/// on times well above this scale.
pub(crate) const TIME_EPS: f64 = 1e-9;

/// A committed reservation: one task of one job occupying `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Reservation {
    /// Owning job.
    pub job: JobId,
    /// Task within the job.
    pub task: TaskId,
    /// Start time.
    pub start: f64,
    /// End time (exclusive).
    pub end: f64,
}

impl Reservation {
    /// The occupied interval.
    pub fn interval(&self) -> TimeInterval {
        TimeInterval::new(self.start, self.end)
    }

    /// Duration of the reservation.
    pub fn duration(&self) -> f64 {
        (self.end - self.start).max(0.0)
    }
}

/// Errors raised by plan mutations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlanError {
    /// The new reservation overlaps an existing one.
    Overlap,
    /// The reservation is malformed (non-finite or non-positive length).
    Malformed,
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Overlap => write!(f, "reservation overlaps the committed plan"),
            PlanError::Malformed => write!(f, "malformed reservation"),
        }
    }
}

impl std::error::Error for PlanError {}

/// The committed schedule of one site, kept sorted by start time with no two
/// reservations overlapping. The queries walk it in that order and stop
/// early, so the order is what their answers rest on.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SchedulePlan {
    reservations: Vec<Reservation>,
}

impl SchedulePlan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        SchedulePlan::default()
    }

    /// Rebuilds a plan from reservations captured by
    /// [`SchedulePlan::reservations`].
    ///
    /// # Panics
    /// Panics if the reservations are not in start-time order — the order
    /// is an invariant every query relies on, and a snapshot written by
    /// this crate always satisfies it.
    pub fn from_reservations(reservations: Vec<Reservation>) -> Self {
        assert!(
            reservations.windows(2).all(|w| w[0].start <= w[1].start),
            "reservations must be sorted by start time"
        );
        SchedulePlan { reservations }
    }

    /// Committed reservations in start-time order.
    pub fn reservations(&self) -> &[Reservation] {
        &self.reservations
    }

    /// Number of committed reservations.
    pub fn len(&self) -> usize {
        self.reservations.len()
    }

    /// Returns `true` if nothing is committed.
    pub fn is_empty(&self) -> bool {
        self.reservations.is_empty()
    }

    /// Reservations belonging to one job.
    pub fn job_reservations(&self, job: JobId) -> impl Iterator<Item = &Reservation> {
        self.reservations.iter().filter(move |r| r.job == job)
    }

    /// Returns `true` if the given interval does not overlap any committed
    /// reservation.
    pub fn is_idle(&self, interval: TimeInterval) -> bool {
        if interval.is_empty() {
            return true;
        }
        // Sorted by start: nothing from the first reservation starting at or
        // after the interval's end on can overlap it.
        !self
            .reservations
            .iter()
            .take_while(|r| r.start < interval.end)
            .any(|r| r.interval().overlaps(&interval))
    }

    /// Idle windows of the plan inside `[from, to)`.
    ///
    /// This is the reference the in-place queries are tested against: they
    /// walk the same windows lazily instead of building them.
    pub fn idle_windows(&self, from: f64, to: f64) -> Vec<TimeInterval> {
        let busy: Vec<TimeInterval> = self.reservations.iter().map(|r| r.interval()).collect();
        subtract_busy(TimeInterval::new(from, to), &busy)
    }

    /// The idle windows of [`SchedulePlan::idle_windows`], yielded lazily
    /// by a cursor over the reservations.
    fn idle_walk(&self, from: f64, to: f64) -> IdleWalk<'_> {
        let window = TimeInterval::new(from, to);
        IdleWalk {
            rest: &self.reservations,
            window,
            cursor: window.start,
            done: window.is_empty(),
        }
    }

    /// Total busy time inside `[from, to)`.
    pub fn busy_time(&self, from: f64, to: f64) -> f64 {
        let window = TimeInterval::new(from, to);
        self.reservations
            .iter()
            .map(|r| r.interval().intersect(&window).duration())
            .sum()
    }

    /// Earliest start `s >= earliest` such that `[s, s + duration)` is idle
    /// and `s + duration <= deadline`. Returns `None` if no such slot exists.
    ///
    /// This is the §5/§10 insertion primitive for the non-preemptive model.
    pub fn earliest_fit(&self, earliest: f64, deadline: f64, duration: f64) -> Option<f64> {
        if duration < 0.0 || earliest + duration > deadline + TIME_EPS {
            return None;
        }
        if duration == 0.0 {
            return Some(earliest);
        }
        for window in self.idle_walk(earliest, deadline) {
            let start = window.start.max(earliest);
            if start + duration <= window.end + TIME_EPS && start + duration <= deadline + TIME_EPS
            {
                return Some(start);
            }
        }
        None
    }

    /// Preemptive variant of [`SchedulePlan::earliest_fit`]: greedily fills
    /// idle windows from `earliest` on and returns the chunks used (in time
    /// order) if the whole duration fits before the deadline.
    pub fn earliest_fit_preemptive(
        &self,
        earliest: f64,
        deadline: f64,
        duration: f64,
    ) -> Option<Vec<TimeInterval>> {
        if duration < 0.0 {
            return None;
        }
        if duration == 0.0 {
            return Some(Vec::new());
        }
        let mut remaining = duration;
        let mut chunks = Vec::new();
        for window in self.idle_walk(earliest, deadline) {
            if remaining <= TIME_EPS {
                break;
            }
            let usable = window.duration().min(remaining);
            if usable > TIME_EPS {
                chunks.push(TimeInterval::new(window.start, window.start + usable));
                remaining -= usable;
            }
        }
        if remaining <= TIME_EPS {
            Some(chunks)
        } else {
            None
        }
    }

    /// Commits a reservation.
    pub fn insert(&mut self, reservation: Reservation) -> Result<(), PlanError> {
        self.insert_at(reservation).map(|_| ())
    }

    /// [`SchedulePlan::insert`], returning the index the reservation landed
    /// at so a tentative insertion can be undone with
    /// [`SchedulePlan::remove_at`].
    pub(crate) fn insert_at(&mut self, reservation: Reservation) -> Result<usize, PlanError> {
        if !(reservation.start.is_finite() && reservation.end.is_finite())
            || reservation.end < reservation.start - TIME_EPS
        {
            return Err(PlanError::Malformed);
        }
        if !self.is_idle(reservation.interval()) {
            return Err(PlanError::Overlap);
        }
        let pos = self
            .reservations
            .partition_point(|r| r.start <= reservation.start);
        self.reservations.insert(pos, reservation);
        Ok(pos)
    }

    /// Removes the reservation at `index` (see [`SchedulePlan::insert_at`]).
    pub(crate) fn remove_at(&mut self, index: usize) -> Reservation {
        self.reservations.remove(index)
    }

    /// Makes this plan a copy of `other`, reusing this plan's allocation.
    pub(crate) fn copy_from(&mut self, other: &SchedulePlan) {
        self.reservations.clear();
        self.reservations.extend_from_slice(&other.reservations);
    }

    /// Commits several reservations atomically: either all succeed or the
    /// plan is left unchanged.
    pub fn insert_all(&mut self, reservations: &[Reservation]) -> Result<(), PlanError> {
        let backup = self.reservations.clone();
        for r in reservations {
            if let Err(e) = self.insert(*r) {
                self.reservations = backup;
                return Err(e);
            }
        }
        Ok(())
    }

    /// Removes every reservation of a job (used when a trial mapping is
    /// invalidated or a lock is released without selection).
    pub fn remove_job(&mut self, job: JobId) -> usize {
        let before = self.reservations.len();
        self.reservations.retain(|r| r.job != job);
        before - self.reservations.len()
    }

    /// Removes and returns every reservation that has fully completed by
    /// `cutoff` (end `<= cutoff`), preserving the start-time order of both
    /// the removed and the surviving reservations.
    ///
    /// This is the pruning primitive of the streaming execution path: past
    /// reservations can never influence an admission or validation test
    /// again (those only look at `[now, ·)` windows), so a long open-loop
    /// run periodically drains them to keep the plan sized by the *active*
    /// window instead of the whole history. The drained records carry the
    /// completion times the streaming report aggregates.
    pub fn drain_completed(&mut self, cutoff: f64) -> Vec<Reservation> {
        let mut done = Vec::new();
        self.reservations.retain(|r| {
            if r.end <= cutoff + TIME_EPS {
                done.push(*r);
                false
            } else {
                true
            }
        });
        done
    }

    /// The first instant at or after `t` at which the processor is idle.
    pub fn next_idle_time(&self, t: f64) -> f64 {
        let mut cursor = t;
        for r in &self.reservations {
            if r.end <= cursor + TIME_EPS {
                continue;
            }
            if r.start > cursor + TIME_EPS {
                break;
            }
            cursor = r.end;
        }
        cursor
    }

    /// Completion time of a job on this site: the latest reservation end of
    /// the job, if any of its tasks run here.
    pub fn job_completion(&self, job: JobId) -> Option<f64> {
        self.job_reservations(job)
            .map(|r| r.end)
            .fold(None, |acc, e| Some(acc.map_or(e, |a: f64| a.max(e))))
    }

    /// Surplus over the observation window `[now, now + window)`: the §2
    /// ratio of idle time to window length. An empty window yields 1.0.
    pub fn surplus(&self, now: f64, window: f64) -> f64 {
        if window <= 0.0 {
            return 1.0;
        }
        let idle = window - self.busy_time(now, now + window);
        (idle / window).clamp(0.0, 1.0)
    }

    /// Checks the internal non-overlap invariant (used by property tests and
    /// debug assertions in the protocol layer).
    pub fn check_invariants(&self) -> bool {
        self.reservations
            .windows(2)
            .all(|w| w[0].start <= w[1].start + TIME_EPS && w[0].end <= w[1].start + TIME_EPS)
    }
}

/// Lazy idle-window enumeration over a start-sorted plan: the arithmetic of
/// [`subtract_busy`] (clip each reservation to the window, open a gap when it
/// starts past the cursor, then advance the cursor to its end) applied in
/// place, stopping at the first reservation that starts at or after the
/// window's end. Yields bit for bit the windows of
/// [`SchedulePlan::idle_windows`].
struct IdleWalk<'a> {
    rest: &'a [Reservation],
    window: TimeInterval,
    cursor: f64,
    done: bool,
}

impl Iterator for IdleWalk<'_> {
    type Item = TimeInterval;

    fn next(&mut self) -> Option<TimeInterval> {
        if self.done {
            return None;
        }
        while let Some((r, rest)) = self.rest.split_first() {
            if r.start >= self.window.end {
                break;
            }
            self.rest = rest;
            let busy = r.interval().intersect(&self.window);
            if busy.is_empty() {
                continue;
            }
            let gap_start = self.cursor;
            self.cursor = self.cursor.max(busy.end);
            if busy.start > gap_start {
                return Some(TimeInterval::new(gap_start, busy.start));
            }
        }
        self.done = true;
        (self.cursor < self.window.end).then(|| TimeInterval::new(self.cursor, self.window.end))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn res(job: u64, task: usize, start: f64, end: f64) -> Reservation {
        Reservation {
            job: JobId(job),
            task: TaskId(task),
            start,
            end,
        }
    }

    #[test]
    fn insert_and_query() {
        let mut plan = SchedulePlan::new();
        assert!(plan.is_empty());
        plan.insert(res(1, 0, 10.0, 20.0)).unwrap();
        plan.insert(res(1, 1, 30.0, 35.0)).unwrap();
        plan.insert(res(2, 0, 0.0, 5.0)).unwrap();
        assert_eq!(plan.len(), 3);
        assert!(plan.check_invariants());
        // Sorted by start.
        let starts: Vec<f64> = plan.reservations().iter().map(|r| r.start).collect();
        assert_eq!(starts, vec![0.0, 10.0, 30.0]);
        assert!(plan.is_idle(TimeInterval::new(5.0, 10.0)));
        assert!(!plan.is_idle(TimeInterval::new(4.0, 6.0)));
        assert_eq!(plan.busy_time(0.0, 40.0), 20.0);
        assert_eq!(plan.job_reservations(JobId(1)).count(), 2);
        assert_eq!(plan.job_completion(JobId(1)), Some(35.0));
        assert_eq!(plan.job_completion(JobId(9)), None);
        assert_eq!(plan.reservations()[0].duration(), 5.0);
    }

    #[test]
    fn overlap_and_malformed_rejected() {
        let mut plan = SchedulePlan::new();
        plan.insert(res(1, 0, 10.0, 20.0)).unwrap();
        assert_eq!(plan.insert(res(2, 0, 15.0, 25.0)), Err(PlanError::Overlap));
        assert_eq!(plan.insert(res(2, 0, 5.0, 11.0)), Err(PlanError::Overlap));
        assert_eq!(
            plan.insert(res(2, 0, f64::NAN, 1.0)),
            Err(PlanError::Malformed)
        );
        assert_eq!(plan.insert(res(2, 0, 5.0, 3.0)), Err(PlanError::Malformed));
        // Touching intervals are fine (closed-open semantics).
        plan.insert(res(2, 0, 20.0, 22.0)).unwrap();
        assert_eq!(plan.len(), 2);
        assert!(PlanError::Overlap.to_string().contains("overlap"));
    }

    #[test]
    fn insert_all_is_atomic() {
        let mut plan = SchedulePlan::new();
        plan.insert(res(1, 0, 10.0, 20.0)).unwrap();
        let batch = vec![res(2, 0, 0.0, 5.0), res(2, 1, 15.0, 18.0)];
        assert_eq!(plan.insert_all(&batch), Err(PlanError::Overlap));
        assert_eq!(plan.len(), 1); // rolled back
        let ok = vec![res(2, 0, 0.0, 5.0), res(2, 1, 20.0, 25.0)];
        plan.insert_all(&ok).unwrap();
        assert_eq!(plan.len(), 3);
    }

    #[test]
    fn idle_windows_and_earliest_fit() {
        let mut plan = SchedulePlan::new();
        plan.insert(res(1, 0, 10.0, 20.0)).unwrap();
        plan.insert(res(1, 1, 30.0, 40.0)).unwrap();
        let idle = plan.idle_windows(0.0, 50.0);
        assert_eq!(
            idle,
            vec![
                TimeInterval::new(0.0, 10.0),
                TimeInterval::new(20.0, 30.0),
                TimeInterval::new(40.0, 50.0),
            ]
        );
        // Fits in the first window.
        assert_eq!(plan.earliest_fit(0.0, 50.0, 8.0), Some(0.0));
        // Too long for the first window, fits in the second.
        assert_eq!(plan.earliest_fit(5.0, 50.0, 9.0), Some(20.0));
        // Release inside a busy interval.
        assert_eq!(plan.earliest_fit(12.0, 50.0, 5.0), Some(20.0));
        // Deadline too tight.
        assert_eq!(plan.earliest_fit(12.0, 24.0, 5.0), None);
        // Exactly fitting against the deadline.
        assert_eq!(plan.earliest_fit(20.0, 30.0, 10.0), Some(20.0));
        // Zero duration always fits.
        assert_eq!(plan.earliest_fit(15.0, 15.0, 0.0), Some(15.0));
        // Infeasible by definition.
        assert_eq!(plan.earliest_fit(40.0, 45.0, 10.0), None);
    }

    #[test]
    fn preemptive_fit_spans_windows() {
        let mut plan = SchedulePlan::new();
        plan.insert(res(1, 0, 10.0, 20.0)).unwrap();
        plan.insert(res(1, 1, 30.0, 40.0)).unwrap();
        // 15 units must split across [0,10) and [20,30).
        let chunks = plan.earliest_fit_preemptive(0.0, 40.0, 15.0).unwrap();
        assert_eq!(
            chunks,
            vec![TimeInterval::new(0.0, 10.0), TimeInterval::new(20.0, 25.0)]
        );
        // Exactly the available idle time in [0, 40): 10 + 10 = 20.
        assert!(plan.earliest_fit_preemptive(0.0, 40.0, 20.0).is_some());
        assert!(plan.earliest_fit_preemptive(0.0, 40.0, 20.5).is_none());
        assert_eq!(plan.earliest_fit_preemptive(0.0, 40.0, 0.0), Some(vec![]));
        // A non-preemptive fit of 15 would have to wait until t = 40.
        assert_eq!(plan.earliest_fit(0.0, 60.0, 15.0), Some(40.0));
    }

    #[test]
    fn remove_job_and_next_idle() {
        let mut plan = SchedulePlan::new();
        plan.insert(res(1, 0, 0.0, 10.0)).unwrap();
        plan.insert(res(2, 0, 10.0, 15.0)).unwrap();
        plan.insert(res(1, 1, 15.0, 20.0)).unwrap();
        assert_eq!(plan.next_idle_time(0.0), 20.0);
        assert_eq!(plan.next_idle_time(12.0), 20.0);
        assert_eq!(plan.next_idle_time(25.0), 25.0);
        assert_eq!(plan.remove_job(JobId(1)), 2);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan.next_idle_time(0.0), 0.0);
        assert_eq!(plan.remove_job(JobId(99)), 0);
    }

    #[test]
    fn drain_completed_prunes_the_past_only() {
        let mut plan = SchedulePlan::new();
        plan.insert(res(1, 0, 0.0, 10.0)).unwrap();
        plan.insert(res(2, 0, 10.0, 30.0)).unwrap();
        plan.insert(res(1, 1, 30.0, 35.0)).unwrap();
        let drained = plan.drain_completed(10.0);
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].job, JobId(1));
        assert_eq!(drained[0].end, 10.0);
        assert_eq!(plan.len(), 2);
        assert!(plan.check_invariants());
        // Queries over the remaining window are unaffected by pruning.
        assert_eq!(plan.earliest_fit(10.0, 60.0, 5.0), Some(35.0));
        assert_eq!(plan.job_completion(JobId(2)), Some(30.0));
        // Draining everything empties the plan.
        let rest = plan.drain_completed(f64::INFINITY);
        assert_eq!(rest.len(), 2);
        assert!(plan.is_empty());
        assert!(plan.drain_completed(100.0).is_empty());
    }

    #[test]
    fn surplus_matches_definition() {
        let mut plan = SchedulePlan::new();
        assert_eq!(plan.surplus(0.0, 100.0), 1.0);
        plan.insert(res(1, 0, 0.0, 50.0)).unwrap();
        assert_eq!(plan.surplus(0.0, 100.0), 0.5);
        // Paper's example surpluses: 0.5 and 0.4 are plain idle ratios.
        plan.insert(res(1, 1, 60.0, 70.0)).unwrap();
        assert!((plan.surplus(0.0, 100.0) - 0.4).abs() < 1e-12);
        // Window starting mid-run only counts the overlap.
        assert!((plan.surplus(50.0, 50.0) - 0.8).abs() < 1e-12);
        // Degenerate window.
        assert_eq!(plan.surplus(0.0, 0.0), 1.0);
    }
}
