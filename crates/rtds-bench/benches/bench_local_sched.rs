//! Criterion bench: the §5 local admission test and the §10 satisfiability
//! test against plans of increasing occupancy, on one core and on a 4-core
//! site (HEFT admission with 2–4-core gang demands).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rtds_graph::generators::{CostDistribution, DagGenerator, DagShape, GeneratorConfig};
use rtds_graph::{JobId, TaskId};
use rtds_sched::admission::admit_dag_locally;
use rtds_sched::feasibility::TaskRequest;
use rtds_sched::{
    Reservation, SchedulePlan, Scheduler, SchedulerKind, SiteResources, SiteScheduler, SpeedupFn,
    TaskDemand,
};
use std::hint::black_box;

fn loaded_plan(reservations: usize) -> SchedulePlan {
    loaded_core(reservations, 0.0, 12.0)
}

/// `reservations` reservations of `length` units every 20 units, the first
/// at `offset`.
fn loaded_core(reservations: usize, offset: f64, length: f64) -> SchedulePlan {
    let mut plan = SchedulePlan::new();
    for i in 0..reservations {
        let start = offset + i as f64 * 20.0;
        plan.insert(Reservation {
            job: JobId(1000 + i as u64),
            task: TaskId(0),
            start,
            end: start + length,
        })
        .unwrap();
    }
    plan
}

/// A 4-core site of the given kind whose cores each hold `reservations`
/// 8-unit reservations, staggered by 2 units per core: every 20 units, 2-,
/// 3- and 4-core gaps open in turn.
fn loaded_site(kind: SchedulerKind, reservations: usize) -> SiteScheduler {
    let cores = (0..4)
        .map(|c| loaded_core(reservations, c as f64 * 2.0, 8.0))
        .collect();
    SiteScheduler::from_parts(
        kind,
        SiteResources::multicore(4, 1.0),
        1.0,
        false,
        cores,
        Vec::new(),
    )
}

/// Ten single-core §10 requests with staggered releases.
fn requests() -> Vec<TaskRequest> {
    (0..10)
        .map(|i| TaskRequest {
            job: JobId(5),
            task: TaskId(i),
            release: i as f64 * 5.0,
            deadline: i as f64 * 5.0 + 400.0,
            duration: 4.0,
        })
        .collect()
}

fn bench_local_sched(c: &mut Criterion) {
    let mut group = c.benchmark_group("local_sched");
    for &existing in &[0usize, 20, 100, 500] {
        let plan = loaded_plan(existing);
        let cfg = GeneratorConfig {
            task_count: 12,
            shape: DagShape::LayeredRandom {
                layers: 3,
                edge_prob: 0.3,
            },
            costs: CostDistribution::Uniform { min: 1.0, max: 6.0 },
            ccr: 0.0,
            laxity_factor: (3.0, 3.0),
        };
        let job = DagGenerator::new(cfg, 5).generate_job(0, 0.0);
        // Rate unit: tasks placed (or probed) per second against the plan.
        group.throughput(Throughput::Elements(cfg.task_count as u64));
        group.bench_with_input(
            BenchmarkId::new("admit_dag", existing),
            &(plan.clone(), job.clone()),
            |b, (plan, job)| b.iter(|| black_box(admit_dag_locally(plan, job, 0.0, 1.0, false))),
        );
        let requests = requests();
        let site = SiteScheduler::from_parts(
            SchedulerKind::Protocol,
            SiteResources::default(),
            1.0,
            false,
            vec![plan],
            Vec::new(),
        );
        group.throughput(Throughput::Elements(10));
        group.bench_with_input(
            BenchmarkId::new("satisfiable", existing),
            &(site, requests),
            |b, (site, requests)| b.iter(|| black_box(site.satisfiable(requests))),
        );
    }
    group.finish();
}

fn bench_multicore_sched(c: &mut Criterion) {
    let mut group = c.benchmark_group("multicore_sched");
    let cfg = GeneratorConfig {
        task_count: 12,
        shape: DagShape::LayeredRandom {
            layers: 3,
            edge_prob: 0.3,
        },
        costs: CostDistribution::Uniform { min: 1.0, max: 6.0 },
        ccr: 0.5,
        laxity_factor: (30.0, 30.0),
    };
    let job = DagGenerator::new(cfg, 5).generate_job(0, 0.0);
    // Gang demands of 2, 3 and 4 cores in turn, with Amdahl speedups.
    let demands: Vec<TaskDemand> = (0..cfg.task_count)
        .map(|i| TaskDemand {
            cores: 2 + i % 3,
            memory: 0.0,
            speedup: SpeedupFn::Amdahl {
                parallel_fraction: 0.8,
            },
        })
        .collect();
    for &existing in &[0usize, 20, 100] {
        let heft = loaded_site(SchedulerKind::Heft, existing);
        assert!(
            heft.admit_dag(&job, 0.0, Some(&demands)).is_some(),
            "the bench job must be admissible"
        );
        group.throughput(Throughput::Elements(cfg.task_count as u64));
        group.bench_with_input(
            BenchmarkId::new("heft_gang_admit_dag_4c", existing),
            &(heft, job.clone(), demands.clone()),
            |b, (site, job, demands)| b.iter(|| black_box(site.admit_dag(job, 0.0, Some(demands)))),
        );
        group.throughput(Throughput::Elements(10));
        group.bench_with_input(
            BenchmarkId::new("satisfiable_4c", existing),
            &(loaded_site(SchedulerKind::Protocol, existing), requests()),
            |b, (site, requests)| b.iter(|| black_box(site.satisfiable(requests))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_local_sched, bench_multicore_sched);
criterion_main!(benches);
