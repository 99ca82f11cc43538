//! Layer drivers: host time per call of each layer's public entry point, on
//! inputs derived from the workload's own seed, network, jobs and run
//! counters (never hand-picked). A driver loops over its inputs until its
//! time budget is spent and reports the mean host time per call.
//!
//! A driver runs only on workloads whose simulation exercises the layer;
//! elsewhere it reports zero calls and zero time.

use crate::workloads::{mix_seed, Workload};
use rand::prelude::*;
use rand::rngs::StdRng;
use rtds_core::matching::{maximum_bipartite_matching_csr, BipartiteCsr, MatchScratch};
use rtds_core::pcs::PcsState;
use rtds_core::{map_dag, JobSource, MapperInput, ProcessorSpec, RtdsConfig};
use rtds_flow::{max_min_rates, LinkId};
use rtds_graph::{Job, TaskId};
use rtds_net::{Network, SiteId};
use rtds_sched::{admit_dag_locally, SchedulePlan, Scheduler, SchedulerKind, SiteScheduler};
use rtds_sim::event::EventPayload;
use rtds_sim::CalendarQueue;
use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Mean host time per call and the number of timed calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timing {
    /// Mean host seconds per call.
    pub per_call: f64,
    /// Calls timed.
    pub calls: u64,
}

/// Times `call` over `inputs`, cycling through them until `budget` is
/// spent (and every input ran at least once). Each pass starts from the
/// state `fresh` builds, outside the timed region, and is timed as a whole
/// so the clock reads do not weigh on short calls; the last pass's state is
/// returned with the timing.
fn time_calls<I, S>(
    inputs: &[I],
    budget: Duration,
    mut fresh: impl FnMut() -> S,
    mut call: impl FnMut(&mut S, &I),
) -> (Timing, S) {
    let start = Instant::now();
    let mut busy = Duration::ZERO;
    let mut calls = 0u64;
    loop {
        let mut state = fresh();
        let pass = Instant::now();
        for input in inputs {
            call(&mut state, input);
        }
        busy += pass.elapsed();
        calls += inputs.len() as u64;
        if inputs.is_empty() || start.elapsed() >= budget {
            let per_call = if calls == 0 {
                0.0
            } else {
                busy.as_secs_f64() / calls as f64
            };
            return (Timing { per_call, calls }, state);
        }
    }
}

/// `CalendarQueue` push/pop under the classic hold model: the queue keeps
/// the run's peak pending-event count, and each hold pops the earliest event
/// and pushes one back at a random later time whose mean gap matches the
/// run's simulated time per event. Returns the time per single push or pop.
pub fn queue_ops(seed: u64, queue_len: usize, time_per_event: f64, budget: Duration) -> Timing {
    let n = queue_len.max(16);
    let horizon = time_per_event.max(1e-6) * n as f64;
    let mut rng = StdRng::seed_from_u64(mix_seed(seed, 11));
    let increments: Vec<f64> = (0..4096)
        .map(|_| -rng.random_range(f64::EPSILON..1.0f64).ln() * horizon)
        .collect();
    let starts: Vec<f64> = (0..n).map(|_| rng.random_range(0.0..horizon)).collect();
    let fresh = || {
        let mut queue: CalendarQueue<()> = CalendarQueue::new();
        for (i, &time) in starts.iter().enumerate() {
            let timer = EventPayload::Timer { timer_id: i as u64 };
            queue.push(time, SiteId(0), timer);
        }
        queue
    };
    let (holds, _) = time_calls(&increments, budget, fresh, |queue, dt| {
        let event = queue.pop().expect("the hold model keeps the queue full");
        queue.push(event.time + dt, event.target, event.payload);
    });
    Timing {
        per_call: holds.per_call / 2.0,
        calls: holds.calls * 2,
    }
}

/// The §7 routing exchange on the workload's network: every site's
/// `PcsState` is started and fed its neighbours' updates (FIFO) until all
/// are finished. Returns the time per complete exchange and the routing
/// updates one exchange sends.
pub fn pcs_exchange(network: &Network, radius: usize, budget: Duration) -> (Timing, u64) {
    time_calls(
        &[()],
        budget,
        || 0,
        |updates, _| {
            *updates = black_box(exchange(network, radius));
        },
    )
}

fn exchange(network: &Network, radius: usize) -> u64 {
    let mut states: Vec<PcsState> = network
        .sites()
        .map(|s| PcsState::new(s, network.neighbors(s).to_vec(), radius))
        .collect();
    let mut inbox = VecDeque::new();
    for (site, state) in states.iter_mut().enumerate() {
        inbox.extend(state.start().into_iter().map(|send| (SiteId(site), send)));
    }
    let mut updates = 0u64;
    while let Some((from, send)) = inbox.pop_front() {
        updates += 1;
        let to = send.to;
        let replies = states[to.0].on_update(from, send.phase, send.lines);
        inbox.extend(replies.into_iter().map(|reply| (to, reply)));
    }
    assert!(
        states.iter().all(PcsState::is_finished),
        "the routing exchange drains with every site finished"
    );
    updates
}

/// The workload's first `count` jobs, exactly as its stream generates them.
pub fn workload_jobs(workload: Workload, seed: u64, sites: usize, count: usize) -> Vec<Job> {
    let mut source = workload.source(seed, sites);
    (0..count).map_while(|_| source.next_job()).collect()
}

/// The §5 local test at every job's arrival site, as if every job were
/// tested there: each site keeps the plan the accepted jobs build, pruned
/// behind the clock like the streaming harvest prunes it.
pub fn admit_locally(jobs: &[Job], sites: usize, budget: Duration) -> Timing {
    let fresh = || vec![SchedulePlan::new(); sites];
    let (timing, _) = time_calls(jobs, budget, fresh, |plans, job| {
        let plan = &mut plans[job.arrival_site];
        let now = job.arrival_time;
        plan.drain_completed(now);
        if let Some(admission) = black_box(admit_dag_locally(plan, job, now, 1.0, false)) {
            plan.insert_all(&admission.reservations)
                .expect("an admission fits the plan it was computed on");
        }
    });
    timing
}

/// `SiteScheduler::admit_dag` of the given policy at every job's arrival
/// site, over the workload's resource bundles and task demands.
pub fn admit_with_scheduler(
    workload: Workload,
    kind: SchedulerKind,
    jobs: &[Job],
    sites: usize,
    budget: Duration,
) -> Timing {
    let config = workload.config();
    let resources = workload.resources(sites);
    let fresh = || -> Vec<SiteScheduler> {
        resources
            .iter()
            .map(|r| SiteScheduler::new(kind, *r, 1.0, config.preemptive))
            .collect()
    };
    let inputs: Vec<(&Job, Option<Vec<_>>)> = jobs
        .iter()
        .map(|job| (job, config.demand.demands_for(&job.graph)))
        .collect();
    let (timing, _) = time_calls(&inputs, budget, fresh, |schedulers, (job, demands)| {
        let scheduler = &mut schedulers[job.arrival_site];
        let now = job.arrival_time;
        scheduler.drain_completed(now);
        if let Some(schedule) = black_box(scheduler.admit_dag(job, now, demands.as_deref())) {
            scheduler
                .reserve_dag(&schedule)
                .expect("an admission fits the plans it was computed on");
        }
    });
    timing
}

/// The ACS a distributed job sees in the run: its size and the delay
/// over-estimate ω the mapper is given.
#[derive(Debug, Clone, Copy)]
pub struct AcsShape {
    /// Mean ACS members per mapper call in the run.
    pub members: usize,
    /// Mean ω over the trial mappings the trace kept.
    pub comm_delay: f64,
    /// Share of (member, logical processor) pairs the members endorsed in
    /// the §10 rounds the trace kept.
    pub endorse_ratio: f64,
}

/// The §9 mapper on the workload's jobs over an ACS of the run's size with
/// seeded surpluses. Returns the timing and the `|U|` of every mapping, for
/// the matching driver.
pub fn map_jobs(
    config: &RtdsConfig,
    jobs: &[Job],
    acs: AcsShape,
    seed: u64,
    budget: Duration,
) -> (Timing, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(mix_seed(seed, 12));
    let inputs: Vec<(&Job, Vec<ProcessorSpec>)> = jobs
        .iter()
        .map(|job| {
            let mut surpluses: Vec<f64> = (0..acs.members)
                .map(|_| rng.random_range(config.surplus_floor..1.0))
                .collect();
            surpluses.sort_by(|a, b| b.total_cmp(a));
            let processors = surpluses
                .into_iter()
                .map(ProcessorSpec::with_surplus)
                .collect();
            (job, processors)
        })
        .collect();
    let fresh = || Vec::with_capacity(inputs.len());
    time_calls(&inputs, budget, fresh, |used, (job, processors)| {
        let graph = &job.graph;
        let volume_delay = |from: TaskId, to: TaskId| {
            graph.data_volume(from, to).unwrap_or(0.0) / config.throughput
        };
        let input = MapperInput {
            graph,
            release: job.release(),
            processors,
            comm_delay: acs.comm_delay,
            data_volume_delay: if config.data_volume_aware {
                Some(&volume_delay)
            } else {
                None
            },
            surplus_floor: config.surplus_floor,
        };
        if let Some(result) = black_box(map_dag(&input)) {
            used.push(result.used_count());
        }
    })
}

/// §10 Hopcroft–Karp over validation rounds of the run's shape: `|U|`
/// logical processors from the mapper driver against the ACS members, each
/// pair endorsed with the run's endorsement ratio.
pub fn match_rounds(used: &[usize], acs: AcsShape, seed: u64, budget: Duration) -> Timing {
    let mut rng = StdRng::seed_from_u64(mix_seed(seed, 13));
    let graphs: Vec<BipartiteCsr> = used
        .iter()
        .map(|&logical| {
            let lists: Vec<Vec<usize>> = (0..logical)
                .map(|_| {
                    (0..acs.members)
                        .filter(|_| rng.random_bool(acs.endorse_ratio.clamp(0.0, 1.0)))
                        .collect()
                })
                .collect();
            BipartiteCsr::from_lists(&lists, acs.members)
        })
        .collect();
    let (timing, _) = time_calls(&graphs, budget, MatchScratch::default, |scratch, csr| {
        black_box(maximum_bipartite_matching_csr(csr, scratch));
    });
    timing
}

/// The max-min fair-share solve over the network's link capacities, with
/// the run's mean number of concurrent transfers, each along a shortest-hop
/// path between seeded endpoints.
pub fn flow_solves(network: &Network, concurrent: usize, seed: u64, budget: Duration) -> Timing {
    let mut link_ids: BTreeMap<(usize, usize), LinkId> = BTreeMap::new();
    let capacities: Vec<f64> = network
        .link_states()
        .enumerate()
        .map(|(id, (a, b, state))| {
            link_ids.insert((a.0, b.0), id as LinkId);
            state.bandwidth
        })
        .collect();
    let sites = network.site_count();
    let mut rng = StdRng::seed_from_u64(mix_seed(seed, 14));
    let flow_sets: Vec<Vec<Vec<LinkId>>> = (0..64)
        .map(|_| {
            (0..concurrent.max(1))
                .map(|_| {
                    let from = rng.random_range(0..sites);
                    let to = (from + rng.random_range(1..sites)) % sites;
                    shortest_hop_path(network, from, to)
                        .windows(2)
                        .map(|w| link_ids[&(w[0].min(w[1]), w[0].max(w[1]))])
                        .collect()
                })
                .collect()
        })
        .collect();
    let (timing, _) = time_calls(
        &flow_sets,
        budget,
        || (),
        |_, flows| {
            let refs: Vec<&[LinkId]> = flows.iter().map(Vec::as_slice).collect();
            black_box(max_min_rates(&capacities, &refs));
        },
    );
    timing
}

fn shortest_hop_path(network: &Network, from: usize, to: usize) -> Vec<usize> {
    let mut previous = vec![usize::MAX; network.site_count()];
    previous[from] = from;
    let mut frontier = VecDeque::from([from]);
    while let Some(site) = frontier.pop_front() {
        if site == to {
            break;
        }
        for next in network.neighbor_ids(SiteId(site)) {
            if previous[next.0] == usize::MAX {
                previous[next.0] = site;
                frontier.push_back(next.0);
            }
        }
    }
    let mut path = vec![to];
    while *path.last().expect("non-empty") != from {
        path.push(previous[*path.last().expect("non-empty")]);
    }
    path.reverse();
    path
}
