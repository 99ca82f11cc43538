//! # rtds-sched — the per-site local scheduler of the RTDS paper
//!
//! Every site runs its own local scheduler (§1, §5): it keeps a *scheduling
//! plan* of task reservations already accepted, answers the §5 local
//! guarantee test ("can all tasks of this DAG be scheduled in-between tasks
//! already accepted, before the deadline?"), answers the §10 validation
//! question ("is this set of tasks with releases and deadlines locally
//! satisfiable?"), and exposes the §2 *surplus* (idle time over an
//! observation window) used by the Mapper to estimate execution durations on
//! remote sites.
//!
//! Modules:
//!
//! * [`interval`] — closed-open time intervals and idle-window arithmetic,
//! * [`plan`] — [`plan::SchedulePlan`]: committed reservations, idle-window
//!   enumeration, non-preemptive and preemptive insertion, surplus,
//! * [`admission`] — the §5 whole-DAG local guarantee test on one plan
//!   ([`admit_dag_locally`]) and the list-scheduling priority order,
//! * [`feasibility`] — the §10 task request type,
//! * [`mod@surplus`] — observation-window surplus and busyness helpers,
//! * [`executor`] — turns committed reservations into completion records and
//!   deadline-miss checks (the run-time side of the computation processor),
//! * [`resources`] — the multicore site resource model
//!   ([`resources::SiteResources`], per-task [`resources::TaskDemand`] with
//!   amdahl/linear/flat [`resources::SpeedupFn`] laws),
//! * [`scheduler`] — the pluggable [`scheduler::Scheduler`] trait over
//!   per-core plans, with the paper's protocol policy plus HEFT-style and
//!   one-step-lookahead baselines. Every §5 admission and §10
//!   satisfiability query runs through [`scheduler::SiteScheduler`]; the
//!   paper's single-site model is simply its one-core case.
//!
//! Jobs and task graphs come from [`rtds_graph`]; the admission and
//! satisfiability answers computed here feed the protocol node of
//! [`rtds_core`](../rtds_core/index.html) (§5 local test, §10 validation)
//! and every baseline in
//! [`rtds_baselines`](../rtds_baselines/index.html).

pub mod admission;
pub mod executor;
pub mod feasibility;
pub mod interval;
pub mod plan;
pub mod resources;
pub mod scheduler;
pub mod surplus;

pub use admission::{admit_dag_locally, DagAdmission};
pub use feasibility::TaskRequest;
pub use interval::TimeInterval;
pub use plan::{PlanError, Reservation, SchedulePlan};
pub use resources::{SiteResources, SpeedupFn, TaskDemand};
pub use scheduler::{
    brute_force_satisfiable, heft_upward_rank, CoreId, DagSchedule, MemHold, Placement, Scheduler,
    SchedulerKind, SiteScheduler,
};
pub use surplus::{busyness, surplus};
