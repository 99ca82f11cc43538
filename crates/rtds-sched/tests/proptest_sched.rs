//! Property-based tests for the local scheduler: plans never overlap,
//! admission/feasibility results always respect releases, deadlines and
//! precedence, and surplus stays within [0, 1].

use proptest::prelude::*;
use rtds_graph::generators::{CostDistribution, DagGenerator, DagShape, GeneratorConfig};
use rtds_graph::{JobId, TaskId};
use rtds_sched::feasibility::TaskRequest;
use rtds_sched::plan::{Reservation, SchedulePlan};
use rtds_sched::{
    brute_force_satisfiable, Scheduler, SchedulerKind, SiteResources, SiteScheduler, TimeInterval,
};

/// Builds a plan from arbitrary (start, duration) pairs, skipping the ones
/// that would overlap — mirrors how a site accumulates commitments over time.
fn plan_from_pairs(pairs: &[(f64, f64)]) -> SchedulePlan {
    let mut plan = SchedulePlan::new();
    for (i, &(start, dur)) in pairs.iter().enumerate() {
        let r = Reservation {
            job: JobId(1000 + i as u64),
            task: TaskId(0),
            start,
            end: start + dur,
        };
        let _ = plan.insert(r);
    }
    plan
}

/// A one-core protocol site holding `plan` — the paper's single-site model.
fn one_core(plan: &SchedulePlan, preemptive: bool) -> SiteScheduler {
    SiteScheduler::from_parts(
        SchedulerKind::Protocol,
        SiteResources::default(),
        1.0,
        preemptive,
        vec![plan.clone()],
        Vec::new(),
    )
}

fn arbitrary_busy() -> impl Strategy<Value = Vec<(f64, f64)>> {
    proptest::collection::vec((0.0f64..200.0, 0.5f64..20.0), 0..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Plans built incrementally never contain overlapping reservations and
    /// their idle windows tile the observation window exactly.
    #[test]
    fn plan_invariants(pairs in arbitrary_busy()) {
        let plan = plan_from_pairs(&pairs);
        prop_assert!(plan.check_invariants());
        let from = 0.0;
        let to = 300.0;
        let idle: f64 = plan.idle_windows(from, to).iter().map(|w| w.duration()).sum();
        let busy = plan.busy_time(from, to);
        prop_assert!((idle + busy - (to - from)).abs() < 1e-6);
        let s = plan.surplus(from, to - from);
        prop_assert!((0.0..=1.0).contains(&s));
        prop_assert!((s - idle / (to - from)).abs() < 1e-6);
        // Idle windows really are idle and maximal.
        for w in plan.idle_windows(from, to) {
            prop_assert!(plan.is_idle(w));
            prop_assert!(w.duration() > 0.0);
        }
    }

    /// earliest_fit returns slots that are idle, after the release, and end
    /// before the deadline; when it returns None, no single idle window can
    /// hold the task.
    #[test]
    fn earliest_fit_is_sound_and_complete(
        pairs in arbitrary_busy(),
        release in 0.0f64..150.0,
        extra in 1.0f64..100.0,
        duration in 0.5f64..30.0,
    ) {
        let plan = plan_from_pairs(&pairs);
        let deadline = release + extra;
        match plan.earliest_fit(release, deadline, duration) {
            Some(start) => {
                prop_assert!(start + 1e-9 >= release);
                prop_assert!(start + duration <= deadline + 1e-6);
                prop_assert!(plan.is_idle(TimeInterval::new(start + 1e-9, start + duration - 1e-9)));
            }
            None => {
                // No idle window inside [release, deadline) can hold it.
                for w in plan.idle_windows(release, deadline) {
                    let usable = (w.end.min(deadline) - w.start.max(release)).max(0.0);
                    prop_assert!(usable < duration - 1e-9,
                        "window {w:?} could hold duration {duration}");
                }
            }
        }
    }

    /// Preemptive fit uses only idle time, never exceeds the deadline and
    /// sums exactly to the requested duration; it succeeds whenever the
    /// non-preemptive fit does.
    #[test]
    fn preemptive_fit_dominates_non_preemptive(
        pairs in arbitrary_busy(),
        release in 0.0f64..150.0,
        extra in 1.0f64..100.0,
        duration in 0.5f64..30.0,
    ) {
        let plan = plan_from_pairs(&pairs);
        let deadline = release + extra;
        let np = plan.earliest_fit(release, deadline, duration);
        let p = plan.earliest_fit_preemptive(release, deadline, duration);
        if np.is_some() {
            prop_assert!(p.is_some(), "preemption must not lose feasibility");
        }
        if let Some(chunks) = p {
            let total: f64 = chunks.iter().map(|c| c.duration()).sum();
            prop_assert!((total - duration).abs() < 1e-6);
            for c in &chunks {
                prop_assert!(c.start + 1e-9 >= release);
                prop_assert!(c.end <= deadline + 1e-6);
                prop_assert!(plan.is_idle(TimeInterval::new(c.start + 1e-9, c.end - 1e-9)));
            }
            // Chunks are disjoint and ordered.
            for w in chunks.windows(2) {
                prop_assert!(w[0].end <= w[1].start + 1e-9);
            }
        }
    }

    /// The §10 satisfiability test only ever returns placements that respect
    /// each task's release/deadline and the committed plan.
    #[test]
    fn satisfiable_placements_are_valid(
        pairs in arbitrary_busy(),
        reqs in proptest::collection::vec((0.0f64..100.0, 1.0f64..40.0, 0.5f64..15.0), 1..6),
        preemptive in proptest::bool::ANY,
    ) {
        let plan = plan_from_pairs(&pairs);
        let requests: Vec<TaskRequest> = reqs
            .iter()
            .enumerate()
            .map(|(i, &(release, window, duration))| TaskRequest {
                job: JobId(7),
                task: TaskId(i),
                release,
                deadline: release + window,
                duration,
            })
            .collect();
        if let Some(placements) = one_core(&plan, preemptive).satisfiable(&requests) {
            prop_assert!(placements.iter().all(|p| p.core == 0));
            let placed: Vec<Reservation> = placements.iter().map(|p| p.reservation).collect();
            // Every placement is inside its own request window and on idle time.
            let mut check = plan.clone();
            for r in &placed {
                let req = requests.iter().find(|q| q.task == r.task).unwrap();
                prop_assert!(r.start + 1e-9 >= req.release);
                prop_assert!(r.end <= req.deadline + 1e-6);
                prop_assert!(check.insert(*r).is_ok(), "placement overlaps");
            }
            // Total placed time per task equals the requested duration.
            for req in &requests {
                let total: f64 = placed
                    .iter()
                    .filter(|r| r.task == req.task)
                    .map(|r| r.duration())
                    .sum();
                prop_assert!((total - req.duration).abs() < 1e-6);
            }
        }
    }

    /// The §5 whole-DAG admission respects precedence, the deadline and the
    /// committed plan, for random DAGs and random background load.
    #[test]
    fn dag_admission_respects_precedence_and_deadline(
        pairs in arbitrary_busy(),
        n_tasks in 1usize..15,
        laxity in 1.2f64..6.0,
        seed in 0u64..500,
        preemptive in proptest::bool::ANY,
    ) {
        let cfg = GeneratorConfig {
            task_count: n_tasks,
            shape: DagShape::LayeredRandom { layers: 3, edge_prob: 0.3 },
            costs: CostDistribution::Uniform { min: 1.0, max: 6.0 },
            ccr: 0.0,
            laxity_factor: (laxity, laxity),
        };
        let mut generator = DagGenerator::new(cfg, seed);
        let job = generator.generate_job(0, 10.0);
        let plan = plan_from_pairs(&pairs);
        if let Some(adm) = one_core(&plan, preemptive).admit_dag(&job, 0.0, None) {
            prop_assert!(adm.completion <= job.deadline() + 1e-6);
            prop_assert!(adm.placements.iter().all(|p| p.core == 0));
            // Build per-task finish times and verify precedence.
            let mut finish = vec![0.0f64; job.graph.task_count()];
            let mut start = vec![f64::INFINITY; job.graph.task_count()];
            let mut check = plan.clone();
            for r in adm.placements.iter().map(|p| &p.reservation) {
                prop_assert!(r.start + 1e-9 >= job.release());
                prop_assert!(r.end <= job.deadline() + 1e-6);
                finish[r.task.0] = finish[r.task.0].max(r.end);
                start[r.task.0] = start[r.task.0].min(r.start);
                prop_assert!(check.insert(*r).is_ok(), "admission overlaps the plan");
            }
            for t in job.graph.task_ids() {
                for p in job.graph.predecessors(t) {
                    prop_assert!(start[t.0] + 1e-9 >= finish[p.0],
                        "task {t} starts before predecessor {p} finishes");
                }
            }
            // Total reserved time equals the total cost (unit speed).
            let reserved: f64 = adm.placements.iter().map(|p| p.reservation.duration()).sum();
            prop_assert!((reserved - job.total_cost()).abs() < 1e-6);
        }
    }

    /// Every `Scheduler` implementation agrees with the brute-force
    /// feasibility oracle: whenever a policy accepts a request set, the
    /// oracle confirms a schedule exists, and the returned placements are
    /// in-window and committable. For singleton sets the policies are also
    /// complete (accept whenever the oracle does).
    #[test]
    fn schedulers_agree_with_the_brute_force_oracle(
        busy in proptest::collection::vec(
            proptest::collection::vec((0.0f64..60.0, 1.0f64..10.0), 0..4), 1..4),
        reqs in proptest::collection::vec((0.0f64..40.0, 4.0f64..30.0, 0.5f64..8.0), 0..5),
        kind_index in 0usize..3,
    ) {
        let cores: Vec<SchedulePlan> = busy.iter().map(|p| plan_from_pairs(p)).collect();
        let requests: Vec<TaskRequest> = reqs
            .iter()
            .enumerate()
            .map(|(i, &(release, window, duration))| TaskRequest {
                job: JobId(7),
                task: TaskId(i),
                release,
                deadline: release + window,
                duration,
            })
            .collect();
        let kind = SchedulerKind::all()[kind_index];
        let mut sched = SiteScheduler::from_parts(
            kind,
            SiteResources::multicore(cores.len(), 1.0),
            1.0,
            false,
            cores.clone(),
            Vec::new(),
        );
        if let Some(placed) = sched.satisfiable(&requests) {
            prop_assert!(
                brute_force_satisfiable(&cores, &requests),
                "{kind:?} accepted a set the exact oracle rejects"
            );
            for p in &placed {
                let req = requests.iter().find(|q| q.task == p.reservation.task).unwrap();
                prop_assert!(p.reservation.start + 1e-9 >= req.release);
                prop_assert!(p.reservation.end <= req.deadline + 1e-6);
            }
            // The answer is constructive: committing it succeeds as-is.
            prop_assert!(sched.reserve(&placed).is_ok());
            prop_assert!(sched.core_plans().iter().all(SchedulePlan::check_invariants));
        } else if requests.len() == 1 {
            prop_assert!(
                !brute_force_satisfiable(&cores, &requests),
                "{kind:?} rejected a single request the oracle can place"
            );
        }
    }

    /// On the degenerate single-core bundle, HEFT admissions are a valid
    /// schedule under the old single-capacity checker: every reservation
    /// inserts into the pre-existing `SchedulePlan`, stays inside the job
    /// window and respects precedence.
    #[test]
    fn single_core_heft_is_valid_under_the_old_checker(
        pairs in arbitrary_busy(),
        n_tasks in 1usize..12,
        laxity in 1.5f64..6.0,
        seed in 0u64..300,
    ) {
        let cfg = GeneratorConfig {
            task_count: n_tasks,
            shape: DagShape::LayeredRandom { layers: 3, edge_prob: 0.3 },
            costs: CostDistribution::Uniform { min: 1.0, max: 6.0 },
            ccr: 0.5,
            laxity_factor: (laxity, laxity),
        };
        let mut generator = DagGenerator::new(cfg, seed);
        let job = generator.generate_job(0, 10.0);
        let plan = plan_from_pairs(&pairs);
        let sched = SiteScheduler::from_parts(
            SchedulerKind::Heft,
            SiteResources::default(),
            1.0,
            false,
            vec![plan.clone()],
            Vec::new(),
        );
        if let Some(schedule) = sched.admit_dag(&job, 0.0, None) {
            prop_assert!(schedule.completion <= job.deadline() + 1e-6);
            let mut check = plan.clone();
            let mut finish = vec![0.0f64; job.graph.task_count()];
            let mut start = vec![f64::INFINITY; job.graph.task_count()];
            for p in &schedule.placements {
                prop_assert_eq!(p.core, 0, "single-core HEFT must stay on core 0");
                let r = p.reservation;
                prop_assert!(r.start + 1e-9 >= job.release());
                prop_assert!(r.end <= job.deadline() + 1e-6);
                finish[r.task.0] = finish[r.task.0].max(r.end);
                start[r.task.0] = start[r.task.0].min(r.start);
                prop_assert!(check.insert(r).is_ok(), "HEFT overlaps the old plan");
            }
            for t in job.graph.task_ids() {
                for p in job.graph.predecessors(t) {
                    prop_assert!(start[t.0] + 1e-9 >= finish[p.0]);
                }
            }
        }
    }
}

/// Today's `earliest_fit`, written over the reference `idle_windows`.
fn reference_fit(plan: &SchedulePlan, earliest: f64, deadline: f64, duration: f64) -> Option<f64> {
    if duration < 0.0 || earliest + duration > deadline + 1e-9 {
        return None;
    }
    if duration == 0.0 {
        return Some(earliest);
    }
    for window in plan.idle_windows(earliest, deadline) {
        let start = window.start.max(earliest);
        if start + duration <= window.end + 1e-9 && start + duration <= deadline + 1e-9 {
            return Some(start);
        }
    }
    None
}

/// Today's `earliest_fit_preemptive`, written over the reference
/// `idle_windows`.
fn reference_fit_preemptive(
    plan: &SchedulePlan,
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
    for window in plan.idle_windows(earliest, deadline) {
        if remaining <= 1e-9 {
            break;
        }
        let usable = window.duration().min(remaining);
        if usable > 1e-9 {
            chunks.push(TimeInterval::new(window.start, window.start + usable));
            remaining -= usable;
        }
    }
    (remaining <= 1e-9).then_some(chunks)
}

/// A time aimed at the plan's edge cases: `kind` 0 picks a reservation's
/// start, 1 its end, 2 its midpoint (inside the busy interval), anything
/// else the free value `free`.
fn anchored(plan: &SchedulePlan, (kind, pick, free): (usize, usize, f64)) -> f64 {
    let reservations = plan.reservations();
    if reservations.is_empty() {
        return free;
    }
    let r = reservations[pick % reservations.len()];
    match kind {
        0 => r.start,
        1 => r.end,
        2 => (r.start + r.end) / 2.0,
        _ => free,
    }
}

fn anchor() -> impl Strategy<Value = (usize, usize, f64)> {
    (0usize..4, 0usize..12, 0.0f64..250.0)
}

fn bits(chunks: Option<Vec<TimeInterval>>) -> Option<Vec<(u64, u64)>> {
    chunks.map(|cs| {
        cs.iter()
            .map(|c| (c.start.to_bits(), c.end.to_bits()))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The in-place plan walk answers exactly like the reference idle-window
    /// loop, bit for bit: zero durations, windows whose release, deadline or
    /// length touch reservation edges, and releases inside busy intervals.
    #[test]
    fn in_place_fits_match_the_idle_window_reference(
        pairs in arbitrary_busy(),
        release in anchor(),
        deadline in anchor(),
        extra in 0.0f64..100.0,
        deadline_kind in 0usize..2,
        duration_kind in 0usize..3,
        free_duration in 0.5f64..30.0,
    ) {
        let plan = plan_from_pairs(&pairs);
        let release = anchored(&plan, release);
        let deadline = match deadline_kind {
            0 => anchored(&plan, deadline),
            _ => release + extra,
        };
        let duration = match duration_kind {
            0 => 0.0,
            1 => deadline - release,
            _ => free_duration,
        };
        prop_assert_eq!(
            plan.earliest_fit(release, deadline, duration).map(f64::to_bits),
            reference_fit(&plan, release, deadline, duration).map(f64::to_bits)
        );
        prop_assert_eq!(
            bits(plan.earliest_fit_preemptive(release, deadline, duration)),
            bits(reference_fit_preemptive(&plan, release, deadline, duration))
        );
        for interval in [
            TimeInterval::new(release, deadline),
            TimeInterval::new(release, release + duration),
        ] {
            let brute = !plan
                .reservations()
                .iter()
                .any(|r| r.interval().overlaps(&interval));
            prop_assert_eq!(plan.is_idle(interval), interval.is_empty() || brute);
        }
    }
}
